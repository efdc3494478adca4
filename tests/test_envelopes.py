"""Envelope guard: every argv of the benchmark's two CLI catalogues, run
through cli.main in this one process, gives the exit code and stdout digest
recorded in bench/golden."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from cmbench import ops, workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["cli_oneshot", "cli_inprocess"])
def test_catalogue_envelopes_match_the_recording(workload):
    golden = json.loads((BENCH / "golden" / f"{workload}.json").read_text())
    cat = workloads.catalogue(workload)
    assert golden["fingerprint"] == workloads.fingerprint(cat)
    differ = []
    for entry, recorded in zip(cat, golden["outputs"], strict=True):
        out = ops.call("cli", entry["argv"])
        if [out["code"], workloads.digest(out["stdout"])] != recorded:
            differ.append(entry["argv"])
    assert not differ, f"{len(differ)} of {len(cat)} argv differ from the recording, first {differ[:3]}"
