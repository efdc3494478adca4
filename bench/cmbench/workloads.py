"""Workload inputs: fixed catalogues of operations with recorded outputs, and
seeded streams that draw from them.

A catalogue depends on nothing but this file, so its outputs can be recorded
once (``bench/record_golden.py``) and checked on every run.  ``--seed`` only
chooses which catalogue entries a run uses and in which order.

Streams are dealt in shuffled blocks: every block holds the same multiset of
operation kinds, and the parameters that set an op's cost are drawn without
replacement from fixed ladders, so two seeds load the program alike and the
spread between runs stays small.  Each operation carries tags for the input
properties a run reports (error-path argv, repeated ranges, fresh orders,
early-exit estimates).
"""

from __future__ import annotations

import hashlib
import json
import random

CATALOGUE_SEED = 2006_14907

WORKLOADS = ("cli_oneshot", "cli_inprocess", "census_session", "hecke_sampling")

EPS_CHOICES = (None, "1e-6", "1e-9", "1e-12", "1e-18")


def digest(value) -> str:
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fingerprint(catalogue) -> str:
    return digest(json.dumps(catalogue, sort_keys=True, separators=(",", ":")))


def _is_squarefree(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def is_fundamental(d: int) -> bool:
    """Negative fundamental discriminant test, independent of cmbrauer."""
    if d >= 0:
        return False
    if d % 4 == 1:
        return _is_squarefree(-d)
    if d % 4 == 0:
        q = d // 4
        return q % 4 in (2, 3) and _is_squarefree(-q)
    return False


# ---------------------------------------------------------------- CLI argv

def _argv(*parts) -> list[str]:
    return [str(p) for p in parts]


def _bound(bound_id, inputs: dict, eps=None, grh=False, extra=()) -> list[str]:
    argv = ["bound", "--id", bound_id]
    for name, value in inputs.items():
        argv += ["--set", f"{name}={str(value).lower() if isinstance(value, bool) else value}"]
    if eps is not None:
        argv += ["--eps", eps]
    if grh:
        argv.append("--assume-grh")
    return argv + list(extra)


# inputs of every registered formula at one "degree" value; GRH ids carry a
# natural log of (a multiple of) the degree, so a new degree fills the ln cache
def _bound_inputs(bound_id: str, deg: int, rng: random.Random) -> dict:
    return {
        "uncond_lattice": lambda: {"disc_lambda": rng.choice((-16, 64, -108, 448)), "d": deg},
        "lattice_k_isog": lambda: {"disc_lambda": rng.choice((64, 48, 112)), "L_deg": deg,
                                   "delta_k": rng.choice((-4, -3, -7)),
                                   "class_number_one": rng.choice((True, False))},
        "ab_lattice": lambda: {"disc_lambda": rng.choice((-16, -12, -28)), "L_deg": deg,
                               "delta_k": rng.choice((-4, -3, -7)),
                               "class_number_one": rng.choice((True, False))},
        "ab_GRH": lambda: {"L_deg": deg},
        "kummer_GRH": lambda: {"L_deg": deg},
        "singular_cover_GRH": lambda: {"d": deg},
        "isog_pair": lambda: {"f1": rng.randint(1, 4), "f2": rng.randint(1, 4),
                              "delta_k": rng.choice((-4, -3, -7, -23)), "M_deg": deg},
        "isog_pair_GRH": lambda: {"M_over_k_deg": rng.randint(1, 6), "k_deg": deg},
        "nonisog_GRH": lambda: {"compositum_deg": rng.randint(1, 8), "d": deg},
        "kummer_nonisog_GRH": lambda: {"d": deg},
        "isogeny_degree": lambda: {"f1": deg, "f2": rng.randint(1, 5), "delta_k": rng.choice((-4, -3, -7, -23))},
        "isogeny_degree_GRH": lambda: {"d": deg},
        "faltings_GRH": lambda: {"d": deg},
        "isogeny_brauer_multiplier": lambda: {"d": deg, "g": 2, "rho": rng.randint(1, 4)},
    }[bound_id]()


BOUND_IDS = ("uncond_lattice", "lattice_k_isog", "ab_lattice", "ab_GRH", "kummer_GRH",
             "singular_cover_GRH", "isog_pair", "isog_pair_GRH", "nonisog_GRH",
             "kummer_nonisog_GRH", "isogeny_degree", "isogeny_degree_GRH", "faltings_GRH",
             "isogeny_brauer_multiplier")
LN_BOUND_IDS = tuple(i for i in BOUND_IDS if i.endswith("_GRH"))

ISOG_PAIR_ANCHOR = _bound("isog_pair", {"f1": 1, "f2": 1, "delta_k": -4, "M_deg": 2})

ERROR_ARGV = (
    ["nosuch-command"],
    [],
    ["classnum", "--disc", "-5"],
    ["classnum", "--disc", "-4", "--conductor", "0"],
    ["minkowski"],
    ["minkowski", "--n", "0"],
    ["lattice", "--delta-k", "-4", "--kind", "abelian"],
    ["brauer-shape", "--ell", "4", "--m", "1"],
    ["divisibility", "--conductor", "1", "--degree", "1", "--delta-k", "-12"],
    _bound("ab_GRH", {"L_deg": 2}),
    _bound("isog_pair", {"f1": "x"}),
    _bound("faltings_GRH", {"d": 3}, eps="0", grh=True),
    _bound("isog_pair", {"f1": 1, "f2": 1, "delta_k": -4, "M_deg": 2}, extra=["--cross-check-intro"]),
    ["bound", "--id", "no_such_formula"],
)

# one CLI call into each library layer, all of them cli_oneshot entries; a
# traced in-process run ends with this pass so that every layer is measured
LAYER_PASS = (
    ["classnum", "--disc", "-23", "--conductor", "3"],
    ["cm-count", "--degree", "1", "--disc-bound", "200"],
    ["mell-estimate", "--a4", "-1", "--a6", "0", "--cm-disc", "-4", "--ell", "3", "--budget", "500"],
    ["bound", "--id", "faltings_GRH", "--set", "d=5", "--eps", "1e-12", "--assume-grh"],
    ["brauer-shape", "--ell", "2", "--m", "3"],
    ["lattice", "--delta-k", "-4", "--f1", "1", "--f2", "2"],
    ["minkowski", "--n", "8"],
)

# the seed's known defect (ROADMAP item 4b): valid input whose envelope is
# never printed; checked against the CLI contract, not against a recording
KNOWN_DEFECT_ARGV = ["minkowski", "--n", "3000"]


def _other_argv() -> list[list[str]]:
    """The non-bound part of the in-process mix, all of it cheap."""
    out = []
    for disc_lambda in (64, 448, 16 * 23):
        for d in (1, 2, 3):
            for eps in (None, "1e-12"):
                out.append(_bound("uncond_lattice", {"disc_lambda": disc_lambda, "d": d}, eps=eps,
                                  extra=["--cross-check-intro"]))
    out.append(["constants"])
    for name in ("ab_endo", "kummer_full", "singular_cover", "kummer_nonisog", "rank18_quad"):
        out.append(["constants", "--name", name])
    for dk, f1, f2 in ((-4, 1, 2), (-7, 3, 5), (-3, 2, 2), (-23, 1, 4), (-8, 6, 9)):
        out.append(_argv("lattice", "--delta-k", dk, "--f1", f1, "--f2", f2))
    for kind, rank, disc in (("abelian", 4, -64), ("abelian", 4, -27), ("abelian", 4, -92),
                             ("kummer", 20, 64), ("kummer", 20, 252)):
        out.append(_argv("lattice", "--kind", kind, "--rank", rank, "--disc", disc))
    for ell, m, flags in ((2, 3, []), (3, 2, ["--k-in-k"]), (2, 2, ["--two-torsion-rational"]),
                          (5, 1, []), (7, 0, []), (11, 4, ["--k-in-k"])):
        out.append(_argv("brauer-shape", "--ell", ell, "--m", m, *flags))
    for f, d, dk in ((1, 1, -4), (2, 1, -3), (1, 2, -7), (3, 2, -23), (4, 3, -8)):
        out.append(_argv("divisibility", "--conductor", f, "--degree", d, "--delta-k", dk))
    for n in (1, 2, 4, 8, 12, 20):
        out.append(_argv("minkowski", "--n", n))
    for dk, f in ((-3, 1), (-3, 2), (-4, 1), (-4, 4), (-7, 2), (-8, 3), (-15, 1),
                  (-20, 5), (-23, 3), (-163, 1), (-56, 2), (-84, 1)):
        out.append(_argv("classnum", "--disc", dk, "--conductor", f))
    return out


def cli_oneshot_catalogue() -> list[dict]:
    """Small inputs of all twelve subcommands, about one in ten an error path."""
    valid = [
        *(_argv("classnum", "--disc", dk, "--conductor", f)
          for dk, f in ((-3, 1), (-4, 4), (-7, 2), (-23, 3), (-163, 1), (-20, 5))),
        *(_argv("fields-by-h", "--h", h, "--disc-bound", n) for h, n in ((1, 200), (1, 1000), (2, 500), (3, 400))),
        *(_argv("minkowski", "--n", n) for n in (1, 4, 8, 20)),
        *(_argv("conductor-bound", "--degree", d) for d in (1, 2, 3, 4)),
        *(_argv("conductor-bound", "--degree", d, "--delta-k", dk) for d, dk in ((1, -4), (2, -3), (3, -7), (2, -23))),
        *(_argv("cm-count", "--degree", d, "--disc-bound", n) for d, n in ((1, 200), (2, 200), (1, 1000))),
        _argv("k3-census", "--degree", 1, "--field-count", 9),
        _argv("k3-census", "--degree", 2, "--field-count", 4),
        _argv("k3-census", "--degree", 1, "--refined-disc-bound", 200),
        _argv("k3-census", "--degree", 2, "--refined-disc-bound", 300),
        _argv("lattice", "--delta-k", -4, "--f1", 1, "--f2", 2),
        _argv("lattice", "--delta-k", -7, "--f1", 3, "--f2", 5),
        _argv("lattice", "--kind", "abelian", "--rank", 4, "--disc", -64),
        _argv("lattice", "--kind", "kummer", "--rank", 20, "--disc", 64),
        _argv("brauer-shape", "--ell", 2, "--m", 3),
        _argv("brauer-shape", "--ell", 3, "--m", 2, "--k-in-k"),
        _argv("brauer-shape", "--ell", 2, "--m", 2, "--two-torsion-rational"),
        _argv("divisibility", "--conductor", 1, "--degree", 1, "--delta-k", -4),
        _argv("divisibility", "--conductor", 3, "--degree", 2, "--delta-k", -23),
        _argv("mell-estimate", "--a4", -1, "--a6", 0, "--cm-disc", -4, "--ell", 3, "--budget", 500),
        _argv("mell-estimate", "--a4", -1, "--a6", 0, "--cm-disc", -4, "--ell", 2, "--budget", 300),
        _argv("mell-estimate", "--a4", 0, "--a6", 1, "--cm-disc", -3, "--ell", 5, "--budget", 500),
        _argv("mell-estimate", "--a4", 0, "--a6", 2, "--cm-disc", -3, "--ell", 3, "--budget", 300),
        ISOG_PAIR_ANCHOR,
        _bound("isogeny_degree", {"f1": 2, "delta_k": -7}),
        _bound("ab_GRH", {"L_deg": 2}, grh=True),
        _bound("faltings_GRH", {"d": 5}, eps="1e-12", grh=True),
        _bound("uncond_lattice", {"disc_lambda": 64, "d": 1}, extra=["--cross-check-intro"]),
        ["constants"],
        ["constants", "--name", "kummer_full"],
        ["classnum", "--disc", "-4", "--conductor", "4", "--format", "table"],
        ["minkowski", "--n", "4", "--format", "table"],
    ]
    errors = [ERROR_ARGV[i] for i in (0, 1, 2, 4, 6)]
    return [{"argv": a, "error": False} for a in valid] + [{"argv": a, "error": True} for a in errors]


def cli_inprocess_catalogue() -> list[dict]:
    rng = random.Random(CATALOGUE_SEED)
    entries = []
    for bound_id in BOUND_IDS:
        for deg in (1, 2, 3, 5, 8):
            for eps in EPS_CHOICES:
                entries.append({"group": "bound", "argv": _bound(
                    bound_id, _bound_inputs(bound_id, deg, rng), eps=eps, grh=bound_id.endswith("_GRH"))})
    entries.append({"group": "bound", "argv": ISOG_PAIR_ANCHOR})
    entries += [{"group": "other", "argv": a} for a in _other_argv()]
    entries += [{"group": "error", "argv": list(a)} for a in ERROR_ARGV]
    # fresh degrees: every one new, so each first use fills the ln cache
    degrees = rng.sample(range(10, 1_000_000), 4000)
    for i, deg in enumerate(degrees):
        bound_id = LN_BOUND_IDS[i % len(LN_BOUND_IDS)]
        entries.append({"group": "fresh", "argv": _bound(
            bound_id, _bound_inputs(bound_id, deg, rng), eps=rng.choice(EPS_CHOICES), grh=True)})
    return entries


# ---------------------------------------------------------- census session

DISC_GRID = tuple(range(2000, 20001, 250))
RANGE_KINDS = (("enumerate", 1), ("enumerate", 2), ("enumerate", 3), ("enumerate", 4),
               ("fcc", 0), ("cm_count", 1), ("cm_count", 2), ("cm_count", 3),
               ("refined", 1), ("refined", 2), ("refined", 3))
BATCH = 16
FRESH_BATCH = 8


def _orders(rng: random.Random, lo: int, hi: int, n: int) -> list[list[int]]:
    out = []
    while len(out) < n:
        d = -rng.randint(lo, hi)
        if is_fundamental(d):
            out.append([d, rng.randint(1, 40)])
    return out


def census_catalogue() -> dict:
    """Range operations on a grid of disc bounds, and two pools of orders:
    fields inside the largest swept range, and fields beyond it."""
    rng = random.Random(CATALOGUE_SEED)
    return {
        "ranges": [[kind, param, n] for kind, param in RANGE_KINDS for n in DISC_GRID],
        "swept_orders": _orders(rng, 3, DISC_GRID[-1], 3000),
        "fresh_orders": _orders(rng, DISC_GRID[-1] + 1, 60000, 8000),
    }


# ---------------------------------------------------------- Hecke sampling

# A full scan costs about budget^2, so its budgets stop at 5000 to keep over
# 150 ops in a run.  With 6 full scans in 10 ops, p50 is the 17th and p90 the
# 83rd percentile of the full scans; the deck repeats 2500 to span the 11th to
# 44th and 4500 to span the 78th to 89th, so neither lands on a cost step.
FULL_BUDGETS = (2000, 2500, 2500, 2500, 3000, 3500, 4000, 4500, 5000)
EARLY_BUDGETS = (2000, 2500, 3200, 4000, 5000, 6300, 8000, 10000, 12500, 16000, 20000)
ELLS = (2, 3, 5, 7)

# rational j-invariants of the class-number-one fields other than Q(i), Q(zeta_3)
_CM_J = {-7: -3375, -8: 8000, -11: -32768, -19: -884736, -43: -884736000,
         -67: -147197952000, -163: -262537412640768000}


def _model_from_j(j: int) -> tuple[int, int]:
    # y^2 = x^3 + 3j(1728-j) x + 2j(1728-j)^2 has j-invariant j; strip u^4, u^6
    a4, a6 = 3 * j * (1728 - j), 2 * j * (1728 - j) ** 2
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 163):
        while a4 % p ** 4 == 0 and a6 % p ** 6 == 0:
            a4, a6 = a4 // p ** 4, a6 // p ** 6
    return a4, a6


def hecke_curves() -> list[list[int]]:
    """(a4, a6, Delta_K): quartic twists over Q(i), sextic twists over
    Q(zeta_3), and one model for each other class-number-one field."""
    curves = [[a4, 0, -4] for a4 in (1, -1, 2, -2, 3, -3, 5, -5, 6, 7)]
    curves += [[0, a6, -3] for a6 in (1, -1, 2, -2, 3, -3, 5, 16, -432, 7)]
    curves += [[*_model_from_j(j), dk] for dk, j in _CM_J.items()]
    return curves


def hecke_catalogue() -> dict:
    return {"curves": hecke_curves(), "ells": list(ELLS),
            "full_budgets": sorted(set(FULL_BUDGETS)),
            "early_budgets": list(EARLY_BUDGETS)}


def catalogue(workload: str):
    return {
        "cli_oneshot": cli_oneshot_catalogue,
        "cli_inprocess": cli_inprocess_catalogue,
        "census_session": census_catalogue,
        "hecke_sampling": hecke_catalogue,
    }[workload]()


# ------------------------------------------------------------------ streams

class Deck:
    """Seeded draws without replacement, reshuffled once exhausted, so every
    item comes up equally often over a run whatever the seed."""

    def __init__(self, items, rng: random.Random):
        self.items, self.rng, self.left = list(items), rng, []

    def draw(self):
        if not self.left:
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


def _blocks(rng: random.Random, deal):
    """Endless stream of shuffled blocks; deal() lists one block."""
    while True:
        block = deal()
        rng.shuffle(block)
        yield from block


def stream(workload: str, seed: int, cat, golden: dict):
    """Endless seeded stream of ops: {"kind", "args", "check", "tags"}."""
    rng = random.Random(seed)
    return {
        "cli_oneshot": _cli_oneshot_stream,
        "cli_inprocess": _cli_inprocess_stream,
        "census_session": _census_stream,
        "hecke_sampling": _hecke_stream,
    }[workload](rng, cat, golden)


def _cli_op(index: int, entry: dict, tags: dict) -> dict:
    return {"kind": "cli", "args": entry["argv"], "check": ["cli", index], "tags": tags}


def _cli_oneshot_stream(rng, cat, golden):
    # each block is one permutation of the whole catalogue
    def deal():
        return [_cli_op(i, e, {"error_path": e["error"]}) for i, e in enumerate(cat)]
    return _blocks(rng, deal)


def _cli_inprocess_stream(rng, cat, golden):
    groups: dict[str, list[int]] = {}
    for i, e in enumerate(cat):
        groups.setdefault(e["group"], []).append(i)
    fresh = Deck(groups["fresh"], rng)  # reused only after every fresh entry ran
    decks = {g: Deck(groups[g], rng) for g in ("error", "bound", "other")}
    used: set[int] = set()

    def deal():
        picks = [fresh.draw() for _ in range(2)]
        for group, k in (("error", 2), ("bound", 10), ("other", 6)):
            picks += [decks[group].draw() for _ in range(k)]
        return picks

    for i in _blocks(rng, deal):
        tags = {"error_path": cat[i]["group"] == "error", "fresh": i not in used}
        used.add(i)
        yield _cli_op(i, cat[i], tags)


def _census_stream(rng, cat, golden):
    range_index = {tuple(r): i for i, r in enumerate(cat["ranges"])}
    fresh = list(range(len(cat["fresh_orders"])))
    rng.shuffle(fresh)
    fresh_used = 0  # the pool is reused, and no longer fresh, once exhausted
    frontier = 0
    bounds = {kind: Deck(DISC_GRID, rng) for kind in ("enumerate", "fcc", "cm_count", "refined")}
    class_numbers = Deck((1, 2, 3, 4), rng)

    # ten cheap batch ops, ten costly ones (fcc, censuses, fresh orders), and
    # six warm sweeps between them, so p50 falls mid-way through the sweeps'
    # cost range rather than on the step between two op kinds
    def deal():
        block = [("range", "enumerate", class_numbers.draw()) for _ in range(6)]
        block += [("range", "fcc", 0)] * 2
        block += [("range", kind, d) for kind in ("cm_count", "refined") for d in (1, 2, 3)]
        block += [("cno", True)] * 2 + [("cno", False)] * 6 + [("fd", False)] * 4
        return block

    for item in _blocks(rng, deal):
        if item[0] == "range":
            _, kind, param = item
            n = bounds[kind].draw()
            tags = {"range": True, "repeat_range": n <= frontier}
            frontier = max(frontier, n)
            yield {"kind": kind, "args": [param, n], "tags": tags,
                   "check": ["range", range_index[(kind, param, n)]]}
        elif item[0] == "cno":
            is_fresh = item[1] and fresh_used + FRESH_BATCH <= len(fresh)
            if item[1]:
                idx = [fresh[(fresh_used + k) % len(fresh)] for k in range(FRESH_BATCH)]
                fresh_used += FRESH_BATCH
                orders = [cat["fresh_orders"][i] for i in idx]
                check = ["fresh_orders", idx]
            else:
                idx = [rng.randrange(len(cat["swept_orders"])) for _ in range(BATCH)]
                orders = [cat["swept_orders"][i] for i in idx]
                check = ["swept_orders", idx]
            yield {"kind": "cno", "args": orders, "check": check,
                   "tags": {"range": False, "fresh_orders": is_fresh}}
        else:
            orders = [rng.choice(cat["swept_orders"]) for _ in range(BATCH)]
            yield {"kind": "fd", "args": [f * f * dk for dk, f in orders],
                   "check": ["fd", orders], "tags": {"range": False}}


def _hecke_stream(rng, cat, golden):
    full = Deck([tuple(c) for c in golden["full_scan_combos"]], rng)
    early = Deck([tuple(c) for c in golden["early_exit_combos"]], rng)
    full_budgets = Deck(FULL_BUDGETS, rng)
    early_budgets = Deck(EARLY_BUDGETS, rng)

    def op(combo, budget):
        curve_idx, ell = combo
        key = f"{curve_idx},{ell},{budget}"
        return {"kind": "mell", "args": [*cat["curves"][curve_idx], ell, budget],
                "check": ["mell", key], "tags": {"early_exit": golden["mell"][key][0] == 0}}

    # six in ten scan every prime, so the median lies in the full-scan mode,
    # well away from the switch to early exits
    def deal():
        block = [op(full.draw(), full_budgets.draw()) for _ in range(6)]
        block += [op(early.draw(), early_budgets.draw()) for _ in range(4)]
        return block

    return _blocks(rng, deal)
