"""Worker process: imports ``cmbrauer.cli``, prints one ready line, then
answers one JSON request per stdin line with one JSON reply line.

Run as ``python -m cmbench.worker [--trace]`` with ``src`` and ``bench`` on
PYTHONPATH.  Request ``{"kind", "args"}`` gets ``{"t", "spin", "value"}`` or
``{"t", "spin", "raised"}``: ``t`` is the seconds spent in the call alone and
``spin`` the host-speed sample that goes with it.  The worker takes a
``speed.spin()`` sample before an op when the last is older than
``SPIN_PERIOD_S``.  A longer op gets one more sample right after it and
reports the mean of the two around it; a shorter op reports the median of
the last three samples.  Request
``{"kind": "quit"}`` gets the trace summary, if tracing, and ends the process.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import deque

SPIN_PERIOD_S = 0.1


def main() -> int:
    import cmbrauer.cli  # the import is what set-up time measures

    from . import ops
    from .speed import spin
    from .tracer import Tracer

    tracer = None
    if "--trace" in sys.argv[1:]:
        tracer = Tracer()
        tracer.install()
    out = sys.stdout
    out.write(json.dumps({"ready": True, "cmbrauer": cmbrauer.__file__}) + "\n")
    out.flush()
    spins: deque[float] = deque(maxlen=3)
    last_spin = float("-inf")
    for line in sys.stdin:
        req = json.loads(line)
        kind = req["kind"]
        if kind == "quit":
            out.write(json.dumps({"trace": tracer.summary() if tracer else None}) + "\n")
            out.flush()
            return 0
        if time.perf_counter() - last_spin >= SPIN_PERIOD_S:
            spins.append(spin())
            last_spin = time.perf_counter()
        if tracer:
            tracer.op_id += 1
        start = time.perf_counter()
        try:
            raw = ops.call(kind, req["args"])
        except Exception as exc:  # reported to the client, which counts it as a failure
            reply = {"t": time.perf_counter() - start, "raised": f"{type(exc).__name__}: {exc}"}
        else:
            elapsed = time.perf_counter() - start
            reply = {"t": elapsed, "value": ops.to_json(kind, raw)}
        if reply["t"] >= SPIN_PERIOD_S:
            before = spins[-1]
            spins.append(spin())
            last_spin = time.perf_counter()
            reply["spin"] = (before + spins[-1]) / 2
        else:
            reply["spin"] = statistics.median(spins)
        out.write(json.dumps(reply) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
