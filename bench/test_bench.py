"""Tests of the benchmark harness itself (not of cmbrauer).

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from cmbench import checks, harness, tracer, workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_subtracts_direct_children_only():
    # (id, parent, op, layer, name, start, end): A[0,10] > B[2,6] > C[3,4], A > C'[7,9]
    spans = [
        (3, 2, 1, "c", "f", 3.0, 4.0),
        (2, 1, 1, "b", "g", 2.0, 6.0),
        (4, 1, 1, "c", "f", 7.0, 9.0),
        (1, 0, 1, "a", "h", 0.0, 10.0),
    ]
    assert tracer.self_times(spans) == {"a": 4.0, "b": 3.0, "c": 3.0}


def test_tracer_spans_calls_and_errors_with_a_fake_clock():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def inner(x):
        clock.now += 2.0
        if x < 0:
            raise ValueError("negative")
        return x

    def helper(x):  # same layer as inner: counted, no span of its own
        clock.now += 1.0
        return traced_inner(x)

    def outer(x):
        clock.now += 1.0
        y = traced_helper(x)
        clock.now += 3.0
        return y

    traced_inner = t.wrap("low", "inner", inner)
    traced_helper = t.wrap("low", "helper", helper)
    traced_outer = t.wrap("high", "outer", outer)
    assert traced_outer(5) == 5
    with pytest.raises(ValueError):
        traced_outer(-1)
    summary = t.summary()
    assert summary["self_s"] == {"high": 5.0, "low": 6.0}
    assert summary["calls"] == {"high.outer": 2, "low.helper": 2, "low.inner": 2}
    assert summary["errors"] == {"low": 1, "high": 1}
    assert len(t.spans) == 4


def test_generator_results_are_charged_to_the_callee_layer():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def numbers():
        for i in range(3):
            clock.now += 1.0
            yield i

    def consume():
        total = sum(traced_numbers())
        clock.now += 5.0
        return total

    traced_numbers = t.wrap("sympy", "numbers", numbers)
    assert t.wrap("grossencharakter", "consume", consume)() == 3
    assert t.summary()["self_s"] == {"sympy": 3.0, "grossencharakter": 5.0}


def test_layer_metrics_reads_missing_layers_as_zero():
    metrics = tracer.layer_metrics(tracer.merge([]))
    assert metrics["sympy.factorint.calls"] == 0
    assert metrics["grossencharakter.ordinary_ratio"] == 0.0


def test_a_wrong_output_counts_as_a_failure():
    cat, golden = harness.load_golden("cli_inprocess")
    tampered = dict(golden, outputs=[[code, "0" * 16] for code, _ in golden["outputs"]])
    worker = harness.Worker()
    try:
        ops = workloads.stream("cli_inprocess", 3, cat, tampered)
        run = harness.measure_worker(worker, ops, 0.05, tampered)
    finally:
        worker.close()
    assert run.attempted >= 1
    assert run.failed == run.attempted


def test_anchor_catches_a_wrong_class_number_one_list():
    op = {"kind": "enumerate", "args": [1, 2000], "check": ["range", 0], "tags": {}}
    wrong = {"discs": [-3, -4], "certified_complete": False}
    assert checks.check(op, wrong, {"ranges": [workloads.digest(wrong)]}) is not None


def test_known_defect_breaks_the_contract_check():
    assert not checks.contract_holds(1, "")
    assert checks.contract_holds(2, '{"error": {}}')


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_of_each_workload(workload):
    cat, golden = harness.load_golden(workload)
    if workload == "cli_oneshot":
        run = harness._measure(workload, 1, 0.01, cat, golden, False)
    else:
        with harness.Worker() as worker:
            run = harness._measure(workload, 1, 0.01, cat, golden, False, worker)
    assert run.attempted >= 1
    assert run.failed == 0, run.reasons


@pytest.mark.parametrize("trace", [False, True])
def test_result_line_names_every_metric_of_the_spec(trace):
    record, result = harness.run_workload("cli_inprocess", 7, 0.2, trace)
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] and result["failed"] == 0
    assert record["known_defect"]["argv"] == workloads.KNOWN_DEFECT_ARGV
