"""Run one cmbrauer benchmark workload and print its result.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out PATH]

Run from a checkout that holds ``src/cmbrauer``.  Stdout ends with two
lines: the run record (metadata, input shares, the known-defect probe),
then the result ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  ``--out`` also writes both to a JSON file.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from cmbench.workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write record and result to this JSON file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cmbrauer" / "cli.py").is_file():
        print(f"no cmbrauer source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    from cmbench.harness import run_workload

    record, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"record": record, "result": result}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
