"""The calls each op kind makes into cmbrauer, and the JSON form of their
results.  Shared by the worker and by ``record_golden.py``."""

from __future__ import annotations

import io
from contextlib import redirect_stdout

from cmbrauer import cli, cm_census, grossencharakter, quadratic

from .workloads import digest


def _cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return {"code": code, "stdout": buf.getvalue()}


def _cno(orders):
    return [quadratic.class_number_order(quadratic.Order(quadratic.FundamentalDiscriminant(dk), f))
            for dk, f in orders]


def _fd(discs):
    out = []
    for n in discs:
        field, f = quadratic.fundamental_discriminant(n)
        out.append((field.value, f))
    return out


def _mell(a4, a6, cm_disc, ell, budget):
    return grossencharakter.estimate_m(grossencharakter.CurveOverQ(a4, a6, cm_disc), ell, budget)


CALLS = {
    "cli": _cli,
    "enumerate": lambda args: quadratic.enumerate_fields_by_class_number(*args),
    "fcc": lambda args: quadratic.form_class_counts(args[1]),
    "cm_count": lambda args: cm_census.cm_count_total(*args),
    "refined": lambda args: cm_census.singular_k3_refined_sum(*args),
    "cno": _cno,
    "fd": _fd,
    "mell": lambda args: _mell(*args),
}


def to_json(kind: str, raw):
    """JSON form of a raw result; large results are reduced to a digest."""
    if kind == "enumerate":
        return {"discs": [f.value for f in raw.fields], "certified_complete": raw.certified_complete}
    if kind == "fcc":
        return digest(sorted(raw.items()))
    if kind == "cm_count":
        return {"total": raw.total, "per_field": [list(p) for p in raw.per_field_counts],
                "cube_bound": raw.cube_bound, "certified_complete": raw.certified_complete}
    if kind == "fd":
        return [list(p) for p in raw]
    if kind == "mell":
        return [raw.m_hat, raw.samples_used]
    return raw


def call(kind: str, args):
    return CALLS[kind](args)
