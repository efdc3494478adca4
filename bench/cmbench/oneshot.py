"""Traced stand-in for ``python -m cmbrauer <argv>``: installs the tracer,
runs ``cmbrauer.cli.main(argv)`` and, on the way out, writes the trace
summary to stderr on one line that starts with ``MARK``."""

from __future__ import annotations

import json
import sys

MARK = "cmbench-trace "


def main() -> int:
    import cmbrauer.cli

    from .tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op_id = 1
    try:
        return cmbrauer.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write(MARK + json.dumps(tracer.summary()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
