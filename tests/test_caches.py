"""The bound path's per-eps and per-text caches: bounded, refused texts never
cached, and no envelope that depends on what they hold."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from cmbrauer import bounds, cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from cmbench import ops, workloads  # noqa: E402


def _main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _bound(eps):
    return _main(["bound", "--id", "isogeny_degree", "--set", "f1=3", "--set", "delta_k=-7", "--eps", eps])


def test_envelopes_do_not_depend_on_cache_state():
    # forward, then in reverse with every cache warm: each argv meets other
    # cache contents, and each must still give its recorded digest
    golden = json.loads((BENCH / "golden" / "cli_inprocess.json").read_text())
    cat = workloads.catalogue("cli_inprocess")
    assert golden["fingerprint"] == workloads.fingerprint(cat)
    recorded = list(zip(cat, golden["outputs"], strict=True))
    for order in (recorded, recorded[::-1]):
        differ = []
        for entry, want in order:
            out = ops.call("cli", entry["argv"])
            if [out["code"], workloads.digest(out["stdout"])] != want:
                differ.append(entry["argv"])
        assert not differ, f"{len(differ)} of {len(cat)} argv differ from the recording, first {differ[:3]}"


# 1e-19 and 0 parse, so their entries are kept, and check_eps refuses them on
# every call; the others are refused as they are parsed, and never kept
@pytest.mark.parametrize("eps, parsed", [("1e-19", True), ("0", True), ("1/0", False), ("9" * 4301, False),
                                         ("1e-4301", False), ("1e+4301", False)])
def test_a_refused_eps_is_refused_on_every_repeat(eps, parsed):
    first = _bound(eps)
    assert first[0] == 2 and '"error"' in first[1]
    hits = bounds._eps_entry.cache_info().hits
    for _ in range(3):
        assert _bound(eps) == first
    assert bounds._eps_entry.cache_info().hits - hits == (3 if parsed else 0)


def test_equal_eps_texts_give_identical_envelopes():
    outs = {text: _bound(text) for text in ("1e-9", "0.000000001", "1/1000000000")}
    assert len(set(outs.values())) == 1
    code, out = outs["1e-9"]
    assert code == 0 and json.loads(out)["inputs"]["eps"] == "1/1000000000"


@pytest.mark.parametrize("cache", [bounds._eps_entry, bounds._eps_grid], ids=["bounds._eps_entry", "bounds._eps_grid"])
def test_an_eps_cache_holds_its_cap(cache):
    cap = cache.cache_info().maxsize
    assert cap == 16
    for k in range(1, cap + 6):
        assert _bound(f"{k}e-12")[0] == 0
    assert cache.cache_info().currsize == cap


def test_the_tower_table_is_built_once_and_copied_out():
    table = bounds.field_tower_constants()
    assert table == bounds._towers() and table is not bounds._towers()
    table.clear()
    assert len(bounds.field_tower_constants()) == 8
    assert bounds._towers() is bounds._towers()
