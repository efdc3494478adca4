"""Record the expected output of every catalogue entry into bench/golden/.

Run from the repository root, at a commit whose outputs are trusted:

    python3 bench/record_golden.py [workload ...]

The recordings are checked against the independent anchors before they are
written, and each Hecke curve model is validated with ``psi_from_ap`` at
every good ordinary prime up to 1000.
"""

from __future__ import annotations

import json
import sys
from math import isqrt
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from cmbrauer import grossencharakter  # noqa: E402
from cmbench import checks, ops, workloads  # noqa: E402


def _run(kind, args):
    return ops.to_json(kind, ops.call(kind, args))


def record_cli(cat) -> dict:
    outputs = []
    for entry in cat:
        value = _run("cli", entry["argv"])
        problem = checks.cli_anchor(entry["argv"], value["stdout"])
        if problem:
            raise SystemExit(f"{entry['argv']}: {problem}")
        outputs.append([value["code"], workloads.digest(value["stdout"])])
    return {"outputs": outputs}


def record_census(cat) -> dict:
    ranges = []
    for kind, param, n in cat["ranges"]:
        value = _run(kind, [param, n])
        op = {"kind": kind, "args": [param, n], "check": ["range", len(ranges)], "tags": {}}
        ranges.append(workloads.digest(value))
        problem = checks.check(op, value, {"ranges": ranges})
        if problem:
            raise SystemExit(problem)
    return {"ranges": ranges,
            "swept_orders": _run("cno", cat["swept_orders"]),
            "fresh_orders": _run("cno", cat["fresh_orders"])}


def validate_model(a4: int, a6: int, delta_k: int) -> None:
    curve = grossencharakter.CurveOverQ(a4, a6, delta_k)
    for p in range(3, 1001):
        if any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            continue
        if not curve.has_good_reduction(p):
            continue
        a_p = grossencharakter.count_points_ap(curve, p)
        if a_p != 0:
            grossencharakter.psi_from_ap(a_p, p, delta_k)  # raises if the model does not fit Delta_K


def record_hecke(cat) -> dict:
    full, early, mell = [], [], {}
    for ci, (a4, a6, dk) in enumerate(cat["curves"]):
        validate_model(a4, a6, dk)
        for ell in cat["ells"]:
            # at budget 1000 an early-exit pair has already met a prime with ord_ell = 0
            m_hat, _ = _run("mell", [a4, a6, dk, ell, 1000])
            (full if m_hat > 0 else early).append([ci, ell])
            for budget in cat["full_budgets"] if m_hat > 0 else cat["early_budgets"]:
                mell[f"{ci},{ell},{budget}"] = _run("mell", [a4, a6, dk, ell, budget])
    return {"full_scan_combos": full, "early_exit_combos": early, "mell": mell}


RECORDERS = {
    "cli_oneshot": record_cli,
    "cli_inprocess": record_cli,
    "census_session": record_census,
    "hecke_sampling": record_hecke,
}


def main(names) -> int:
    out_dir = ROOT / "bench" / "golden"
    out_dir.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        cat = workloads.catalogue(name)
        golden = {"fingerprint": workloads.fingerprint(cat), **RECORDERS[name](cat)}
        with open(out_dir / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(golden, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
        print(f"recorded {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
