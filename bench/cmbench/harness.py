"""One benchmark run: set-up, a closed measurement loop, checks, metrics.

One client drives at most one program process at a time and sends the next
op only after the last one returned (a closed loop with one client).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from . import checks, speed, tracer, workloads
from .oneshot import MARK

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BENCH = ROOT / "bench"
GOLDEN = BENCH / "golden"

SETUP_SPAWNS = 5
IMPORT_PROBES = 3
OP_TIMEOUT_S = 60.0
REF_EVERY = 6  # one-shot ops per reference process
# p90 needs at least 100 samples to leave ten beyond it; a 25 s one-shot run
# holds about 50 processes, so that workload reports p75 instead
TAIL_PCT = {"cli_oneshot": 75, "cli_inprocess": 90, "census_session": 90, "hecke_sampling": 90}


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class Child(NamedTuple):
    code: int | None
    stdout: str
    stderr: str
    seconds: float
    maxrss_kb: int


def _wait(proc: subprocess.Popen) -> tuple[int, int]:
    # wait4 instead of Popen.wait, to read the child's peak RSS
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def run_child(cmd: list[str], timeout: float = OP_TIMEOUT_S) -> Child:
    """Run one process to its end; code None means it was killed at the timeout."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT)
    chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for f in (proc.stdout, proc.stderr):
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                timed_out = True
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    code, maxrss = _wait(proc)
    seconds = time.perf_counter() - start
    proc.stdout.close()
    proc.stderr.close()
    out, err = (b"".join(v).decode() for v in chunks.values())
    return Child(None if timed_out else code, out, err, seconds, maxrss)


class Worker:
    """A ``cmbench.worker`` process; ``setup_s`` is spawn-to-ready time."""

    def __init__(self, trace: bool = False):
        start = time.perf_counter()
        cmd = [sys.executable, "-m", "cmbench.worker"] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=child_env(), cwd=ROOT)
        self._buf = b""
        ready = self._readline(OP_TIMEOUT_S)
        self.setup_s = time.perf_counter() - start
        if ready is None or not ready.get("ready"):
            self.kill()
            raise RuntimeError("worker did not start")
        loaded = Path(ready["cmbrauer"]).resolve()
        if SRC not in loaded.parents:
            self.kill()
            raise RuntimeError(f"worker imported cmbrauer from {loaded}, not from {SRC}")

    def _readline(self, timeout: float):
        deadline = time.perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while b"\n" not in self._buf:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not sel.select(remaining):
                    return None
                data = os.read(fd, 1 << 16)
                if not data:
                    return None
                self._buf += data
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def request(self, req: dict, timeout: float = OP_TIMEOUT_S):
        """The reply, or None if the worker died or did not answer in time."""
        try:
            self.proc.stdin.write((json.dumps(req) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        return self._readline(timeout)

    def close(self) -> tuple[dict | None, int]:
        """Stop the worker; returns its trace summary and peak RSS in KiB."""
        reply = self.request({"kind": "quit"})
        if reply is None:
            self.kill()
            return None, 0
        self.proc.stdin.close()
        _, maxrss = _wait(self.proc)
        self.proc.stdout.close()
        return reply["trace"], maxrss

    def kill(self) -> None:
        self.proc.kill()
        _wait(self.proc)
        for f in (self.proc.stdin, self.proc.stdout):
            f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.returncode is None:
            self.kill()


class Run:
    """Accumulates one measurement loop.  ``latencies`` are scaled to the
    nominal host speed (see ``speed``); ``raw`` are as timed."""

    def __init__(self):
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.references: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.tags: dict[str, list[bool]] = {}
        self.maxrss_kb = 0
        self.traces: list[dict] = []

    def record(self, op: dict, seconds: float | None, scale: float, reason: str | None) -> None:
        self.attempted += 1
        if seconds is not None:
            self.raw.append(seconds)
            self.latencies.append(seconds * scale)
        for name, value in op["tags"].items():
            self.tags.setdefault(name, []).append(bool(value))
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)

    @property
    def ops_per_s(self) -> float:
        busy = sum(self.latencies)
        return len(self.latencies) / busy if busy else 0.0


def load_golden(workload: str):
    cat = workloads.catalogue(workload)
    with open(GOLDEN / f"{workload}.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    if golden["fingerprint"] != workloads.fingerprint(cat):
        raise SystemExit(f"bench/golden/{workload}.json was recorded for another catalogue; "
                         "re-record it with bench/record_golden.py")
    return cat, golden


def _check(op: dict, value, golden: dict) -> str | None:
    try:
        return checks.check(op, value, golden)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"{op['kind']}: output not in the recorded form ({exc!r})"


def reference_seconds() -> float:
    child = run_child(speed.REF_CMD)
    if child.code != 0:
        raise RuntimeError(f"the speed reference process failed: {child.stderr[-500:]}")
    return child.seconds


def measure_oneshot(ops, seconds: float, golden: dict, trace: bool) -> Run:
    """One-shot processes; every REF_EVERY of them sit between two reference
    processes, and each is scaled by the mean of the two."""
    run = Run()
    entry = ["-m", "cmbench.oneshot"] if trace else ["-m", "cmbrauer"]
    windows = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if run.attempted % REF_EVERY == 0:
            run.references.append(reference_seconds())
        op = next(ops)
        child = run_child([sys.executable, *entry, *op["args"]])
        run.maxrss_kb = max(run.maxrss_kb, child.maxrss_kb)
        if child.code is None:
            run.record(op, None, 1.0, f"cli {op['args']}: timed out")
            continue
        reason = _check(op, {"code": child.code, "stdout": child.stdout}, golden)
        run.record(op, child.seconds, 1.0, reason)
        windows.append(len(run.references) - 1)
        if trace:
            lines = [ln for ln in child.stderr.splitlines() if ln.startswith(MARK)]
            if lines:
                run.traces.append(json.loads(lines[-1][len(MARK):]))
    run.references.append(reference_seconds())
    refs = run.references
    run.latencies = [t * 2 * speed.REF_NOMINAL_S / (refs[w] + refs[w + 1]) for t, w in zip(run.raw, windows)]
    return run


def measure_worker(worker: Worker, ops, seconds: float, golden: dict) -> Run:
    run = Run()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        op = next(ops)
        reply = worker.request({"kind": op["kind"], "args": op["args"]})
        if reply is None:
            run.record(op, None, 1.0, f"{op['kind']}: worker died or timed out")
            break
        if "raised" in reply:
            reason = f"{op['kind']}{op['args'][:4]}: raised {reply['raised'][:200]}"
        else:
            reason = _check(op, reply["value"], golden)
        run.references.append(reply["spin"])
        run.record(op, reply["t"], speed.SPIN_NOMINAL_S / reply["spin"], reason)
    return run


def known_defect_probe(worker: Worker | None) -> dict:
    """Run the seed's known-defect argv once, outside the timed loop, and check
    it against the CLI contract (not counted in ``failed``)."""
    argv = workloads.KNOWN_DEFECT_ARGV
    if worker is None:
        child = run_child([sys.executable, "-m", "cmbrauer", *argv])
        held, detail = checks.contract_holds(child.code, child.stdout), f"exit {child.code}"
    else:
        reply = worker.request({"kind": "cli", "args": argv})
        if reply is None or "raised" in reply:
            held, detail = False, "raised " + (reply or {}).get("raised", "nothing: no reply")[:120]
        else:
            value = reply["value"]
            held, detail = checks.contract_holds(value["code"], value["stdout"]), f"exit {value['code']}"
    return {"argv": argv, "contract_held": held, "detail": detail}


def layer_pass(worker: Worker, run: Run) -> None:
    """Untimed, checked CLI calls into every layer (``workloads.LAYER_PASS``),
    so a traced run measures each layer even where its workload does not."""
    cat, golden = load_golden("cli_oneshot")
    index = {tuple(e["argv"]): i for i, e in enumerate(cat)}
    for argv in workloads.LAYER_PASS:
        op = {"kind": "cli", "args": argv, "check": ["cli", index[tuple(argv)]], "tags": {}}
        reply = worker.request({"kind": "cli", "args": argv})
        if reply is None or "raised" in reply:
            reason = f"cli {argv}: no envelope"
        else:
            reason = _check(op, reply["value"], golden)
        run.record(op, None, 1.0, reason)


def import_times() -> dict[str, float]:
    """Medians over fresh interpreters of ``-X importtime`` for cmbrauer.cli."""
    samples = []
    for _ in range(IMPORT_PROBES):
        child = run_child([sys.executable, "-X", "importtime", "-c", "import cmbrauer.cli"])
        total = sympy = own = 0.0
        sympy_depth = None
        for line in child.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            depth = len(name) - len(name.lstrip())
            name = name.strip()
            total += int(self_us)
            if name.startswith("cmbrauer"):
                own += int(self_us)
            if name == "sympy" and (sympy_depth is None or depth < sympy_depth):
                sympy, sympy_depth = int(cumulative_us), depth
        samples.append((total / 1000, sympy / 1000, own / 1000))
    return {name: statistics.median(s[i] for s in samples)
            for i, name in enumerate(("import.total_ms", "import.sympy_ms", "import.cmbrauer_ms"))}


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _measure(workload, seed, seconds, cat, golden, trace, worker=None):
    """One loop on a fresh worker, or on fresh one-shot children."""
    ops = workloads.stream(workload, seed, cat, golden)
    if workload == "cli_oneshot":
        return measure_oneshot(ops, seconds, golden, trace)
    return measure_worker(worker, ops, seconds, golden)


def _metadata(workload, seed, seconds, trace) -> dict:
    def sympy_version():
        try:
            return importlib.metadata.version("sympy")
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = res.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "cmbrauer").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "commit": commit, "source_sha256": source.hexdigest(),
            "python": platform.python_version(), "sympy": sympy_version(),
            "nproc": os.cpu_count(), "client": "closed loop, one client, one program process at a time"}


def _shares(run: Run) -> dict[str, float]:
    return {name: sum(v) / len(v) for name, v in sorted(run.tags.items())}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (record, result): the full run record and the result line."""
    cat, golden = load_golden(workload)
    record = _metadata(workload, seed, seconds, trace)
    in_process = workload != "cli_oneshot"
    with contextlib.ExitStack() as stack:  # no worker outlives the run, even on error
        if trace:
            layer = import_times()
            worker = stack.enter_context(Worker()) if in_process else None
            plain = _measure(workload, seed, seconds / 2, cat, golden, False, worker)
            probe = known_defect_probe(worker)
            if worker:
                worker.close()
            worker = stack.enter_context(Worker(trace=True)) if in_process else None
            traced = _measure(workload, seed, seconds / 2, cat, golden, True, worker)
            if worker:
                layer_pass(worker, traced)
                traced.traces.append(worker.close()[0] or {})
            layer.update(tracer.layer_metrics(tracer.merge(traced.traces)))
            layer["cli.contract_violations"] = 0 if probe["contract_held"] else 1
            layer["trace.ops"] = len(traced.latencies)
            layer["trace.untraced_ops_per_s"] = plain.ops_per_s
            layer["trace.traced_ops_per_s"] = traced.ops_per_s
            layer["trace.overhead_ratio"] = traced.ops_per_s / plain.ops_per_s if plain.ops_per_s else 0.0
            runs = (plain, traced)
            metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(layer.items())}
        else:
            setups, raw_setups, worker = [], [], None
            for _ in range(SETUP_SPAWNS):
                if worker:
                    worker.close()
                reference = reference_seconds()
                worker = stack.enter_context(Worker())
                raw_setups.append(worker.setup_s)
                setups.append(worker.setup_s * speed.REF_NOMINAL_S / reference)
            if not in_process:  # the last set-up worker is the measured one
                worker.close()
                worker = None
            run = _measure(workload, seed, seconds, cat, golden, False, worker)
            probe = known_defect_probe(worker)
            if worker:
                run.maxrss_kb = worker.close()[1]
            runs = (run,)
            pct = TAIL_PCT[workload]
            lat = sorted(run.latencies)
            tail = percentile(lat, pct)
            record.update({"samples": len(lat), "tail_pct": pct,
                           "beyond_tail": sum(1 for x in lat if x > tail),
                           "raw_setup_s": statistics.median(raw_setups),
                           "raw_op_p50_ms": percentile(sorted(run.raw), 50) * 1000,
                           "reference_median_s": statistics.median(run.references) if run.references else None})
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "op_p50_ms": {"value": percentile(lat, 50) * 1000, "unit": "ms"},
                "op_tail_ms": {"value": tail * 1000, "unit": "ms"},
                "ops_per_s": {"value": run.ops_per_s, "unit": "1/s"},
                "peak_rss_mb": {"value": run.maxrss_kb / 1024, "unit": "MiB"},
            }
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    record.update({"input_shares": _shares(runs[0]), "known_defect": probe,
                   "fail_ratio": failed / attempted if attempted else 0.0,
                   "failures": [x for r in runs for x in r.reasons][:5]})
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return record, result


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"
