"""Per-layer tracing from outside the program.

The tracer replaces every public function of every ``cmbrauer`` module, and
every sympy function a ``cmbrauer`` module imports, at each module that binds
it, with a wrapper.  A layer is a ``cmbrauer`` module name, or ``sympy``.

- Every wrapped call is counted as ``<layer>.<function>``.
- A call that crosses into another layer records a span
  ``(id, parent, op, layer, name, start, end)``; calls within the current
  layer are only counted, which keeps span volume proportional to layer
  crossings, not to inner-loop calls.  A generator returned across a
  boundary gets one span per ``next``, so iterating e.g. ``primerange`` is
  charged to sympy.
- An exception that leaves a layer's boundary span counts as one
  ``<layer>.errors``.

Spans stay in memory; ``summary()`` reduces them at the end.  A layer's self
time is the sum over its spans of the span's duration minus the durations of
its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

PACKAGE = "cmbrauer"


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per layer from raw span tuples."""
    child = defaultdict(float)
    for _sid, parent, _op, _layer, _name, start, end in spans:
        if parent:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, _parent, _op, layer, _name, start, end in spans:
        out[layer] += (end - start) - child[sid]
    return dict(out)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self.op_id = 0
        self._stack: list[tuple[int, str]] = []
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []
        self._cached: dict[str, object] = {}
        self._cache_base: dict[str, tuple[int, int]] = {}
        self._ln_seen: set = set()
        self._observers = {
            "cli.main": self._observe_main,
            "grossencharakter.count_points_ap": self._observe_point_count,
            "grossencharakter.estimate_m": self._observe_estimate,
            "rounding.ln_bracket": self._observe_ln,
        }

    # -- observers: layer counters read from arguments and results --------

    def _observe_main(self, args, kwargs, result):
        if result != 0:
            self.counters["cli.error_envelopes"] += 1

    def _observe_point_count(self, args, kwargs, result):
        p = args[1] if len(args) > 1 else kwargs.get("p", 0)
        self.counters["grossencharakter.points_enumerated"] += p

    def _observe_estimate(self, args, kwargs, result):
        self.counters["grossencharakter.samples_used"] += getattr(result, "samples_used", 0)

    def _observe_ln(self, args, kwargs, result):
        x = Fraction(args[0] if args else kwargs["x"])
        if x not in self._ln_seen:
            self._ln_seen.add(x)
            self.counters["rounding.ln_bracket.new_args"] += 1

    # -- spans ------------------------------------------------------------

    def _enter(self, layer: str) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append((sid, layer))
        return sid, parent

    def _boundary(self, layer, name, fn, args, kwargs):
        sid, parent = self._enter(layer)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.errors[layer] += 1
            raise
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append((sid, parent, self.op_id, layer, name, start, end))
        if inspect.isgenerator(result):
            return self._iterate_in_spans(layer, name, result)
        return result

    def _iterate_in_spans(self, layer, name, gen):
        while True:
            sid, parent = self._enter(layer)
            start = self.clock()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append((sid, parent, self.op_id, layer, name, start, end))
            yield item

    def wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        observe = self._observers.get(key)
        stack = self._stack
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            if stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
            else:
                result = self._boundary(layer, name, fn, args, kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every cmbrauer module at every binding."""
        root = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(root.__path__):
            if not info.name.startswith("_"):
                importlib.import_module(f"{PACKAGE}.{info.name}")
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith(PACKAGE + ".")]
        targets = {}
        for module in modules:
            layer = module.__name__.split(".", 1)[1]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                owner = getattr(obj, "__module__", None) or ""
                if owner == module.__name__:
                    targets[id(obj)] = (layer, getattr(obj, "__name__", attr), obj)
                elif owner.split(".")[0] == "sympy":
                    targets.setdefault(id(obj), ("sympy", getattr(obj, "__name__", attr), obj))
        wrappers = {}
        for ident, (layer, name, fn) in targets.items():
            wrappers[ident] = self.wrap(layer, name, fn)
            if hasattr(fn, "cache_info"):
                key = f"{layer}.{name}"
                self._cached[key] = fn
                info = fn.cache_info()
                self._cache_base[key] = (info.hits, info.misses)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and not attr.startswith("_"):
                    setattr(module, attr, wrappers[id(obj)])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    # -- reduction --------------------------------------------------------

    def summary(self) -> dict:
        """Additive totals; several summaries merge with ``merge``."""
        cache = {}
        for key, fn in self._cached.items():
            info = fn.cache_info()
            hits0, misses0 = self._cache_base[key]
            cache[f"{key}.hits"] = info.hits - hits0
            cache[f"{key}.misses"] = info.misses - misses0
        return {
            "self_s": self_times(self.spans),
            "calls": dict(self.calls),
            "errors": dict(self.errors),
            "counters": {**self.counters, **cache},
            "ops": self.op_id,
        }


def merge(summaries) -> dict:
    out = {"self_s": Counter(), "calls": Counter(), "errors": Counter(), "counters": Counter(), "ops": 0}
    for s in summaries:
        for section in ("self_s", "calls", "errors", "counters"):
            out[section].update(s.get(section, {}))
        out["ops"] += s.get("ops", 0)
    return {k: (dict(v) if isinstance(v, Counter) else v) for k, v in out.items()}


LAYERS = ("cli", "quadratic", "cm_census", "grossencharakter", "sympy",
          "rounding", "bounds", "brauer", "lattices", "minkowski")

CALL_METRICS = (
    "cli.main", "quadratic.reduced_forms", "quadratic.class_number_order",
    "quadratic.form_class_counts", "grossencharakter.count_points_ap",
    "sympy.factorint", "sympy.isprime", "sympy.primerange", "sympy.divisors",
    "rounding.ln_bracket", "bounds.eval_bound",
)

COUNTER_METRICS = (
    "quadratic.class_number_field.hits", "quadratic.class_number_field.misses",
    "grossencharakter.points_enumerated", "rounding.ln_bracket.new_args",
)


def layer_metrics(summary: dict) -> dict[str, float]:
    """Named per-layer metrics; a layer or function the program no longer
    has reads as zero."""
    calls, counters, errors = summary["calls"], summary["counters"], summary["errors"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = summary["self_s"].get(layer, 0.0) * 1000.0
        out[f"{layer}.errors"] = errors.get(layer, 0)
    out["cli.errors"] += counters.get("cli.error_envelopes", 0)
    for key in CALL_METRICS:
        out[f"{key}.calls"] = calls.get(key, 0)
    for key in COUNTER_METRICS:
        out[key] = counters.get(key, 0)
    out["cm_census.calls"] = sum(v for k, v in calls.items() if k.startswith("cm_census."))
    point_counts = calls.get("grossencharakter.count_points_ap", 0)
    samples = counters.get("grossencharakter.samples_used", 0)
    out["grossencharakter.ordinary_ratio"] = samples / point_counts if point_counts else 0.0
    return out
