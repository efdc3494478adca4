"""Class numbers of imaginary quadratic orders against the reduced-form oracle."""

import copy
import json
import pickle
import subprocess
import sys
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from itertools import count
from unittest import mock

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from cmbrauer import primes, quadratic
from cmbrauer.errors import BudgetError
from cmbrauer.primes import factorint
from cmbrauer.quadratic import (
    MAX_DISC_BOUND,
    MAX_FIELD_DISC,
    FundamentalDiscriminant,
    IntegralityError,
    Order,
    _count_forms_by_a,
    class_number_field,
    class_number_order,
    enumerate_fields_by_class_number,
    form_class_counts,
    fundamental_discriminant,
    is_fundamental_discriminant,
    kronecker_symbol,
    unit_index,
)

from oracles import count_reduced_forms, reduced_forms

CLASS_NUMBER_ONE_DISCS = (-3, -4, -7, -8, -11, -19, -43, -67, -163)


def test_fundamental_discriminant_validation():
    for ok in (-3, -4, -7, -8, -15, -20, -163):
        assert FundamentalDiscriminant(ok).value == ok
    for bad in (-5, -9, -12, -16, -25, 0, 5, -1, -2):
        with pytest.raises(ValueError):
            FundamentalDiscriminant(bad)


def test_is_fundamental_matches_constructor():
    for n in range(-400, 1):
        if is_fundamental_discriminant(n):
            assert FundamentalDiscriminant(n).value == n
        else:
            with pytest.raises(ValueError):
                FundamentalDiscriminant(n)


def test_fundamental_discriminant_kernel():
    assert fundamental_discriminant(-4) == (FundamentalDiscriminant(-4), 1)
    assert fundamental_discriminant(-16) == (FundamentalDiscriminant(-4), 2)
    assert fundamental_discriminant(-12) == (FundamentalDiscriminant(-3), 2)
    assert fundamental_discriminant(-27) == (FundamentalDiscriminant(-3), 3)
    assert fundamental_discriminant(-63) == (FundamentalDiscriminant(-7), 3)


@given(st.integers(min_value=-400, max_value=-3), st.integers(min_value=1, max_value=20))
def test_order_discriminant_roundtrip(dk, f):
    if not is_fundamental_discriminant(dk):
        return
    order = Order(FundamentalDiscriminant(dk), f)
    field, conductor = fundamental_discriminant(order.discriminant)
    assert (field.value, conductor) == (dk, f)


def test_kronecker_at_two():
    # 0 on even discriminants, 1 at 1 mod 8, -1 at 5 mod 8
    assert kronecker_symbol(-4, 2) == 0
    assert kronecker_symbol(-8, 2) == 0
    assert kronecker_symbol(-7, 2) == 1      # -7 = 1 mod 8
    assert kronecker_symbol(-15, 2) == 1
    assert kronecker_symbol(-3, 2) == -1     # -3 = 5 mod 8
    assert kronecker_symbol(-11, 2) == -1


def test_kronecker_odd_primes_vs_squares():
    for p in (3, 5, 7, 11, 13):
        residues = {x * x % p for x in range(1, p)}
        for delta in range(-200, 0):
            if delta % 4 in (0, 1):
                expected = 0 if delta % p == 0 else (1 if delta % p in residues else -1)
                assert kronecker_symbol(delta, p) == expected


def test_unit_index_table():
    assert unit_index(-4, 1) == 1
    assert unit_index(-4, 2) == 2
    assert unit_index(-3, 1) == 1
    assert unit_index(-3, 5) == 3
    assert unit_index(-7, 9) == 1
    assert unit_index(-163, 2) == 1


def test_reduced_forms_fundamental_examples():
    # h(-4) = 1: only x^2 + y^2
    assert [(f.a, f.b, f.c) for f in reduced_forms(-4)] == [(1, 0, 1)]
    # h(-23) = 3
    assert len(reduced_forms(-23)) == 3
    # h(-47) = 5
    assert len(reduced_forms(-47)) == 5


def test_reduced_forms_primitivity_required():
    # disc -12: (2,2,2) is reduced but imprimitive; class number is 1
    forms = reduced_forms(-12)
    assert [(f.a, f.b, f.c) for f in forms] == [(1, 0, 3)]
    # disc -16: (2,0,2) imprimitive
    assert [(f.a, f.b, f.c) for f in reduced_forms(-16)] == [(1, 0, 4)]


def test_reduced_form_invariants():
    for disc in (-4, -12, -16, -23, -47, -71, -84, -120):
        for f in reduced_forms(disc):
            assert f.discriminant == disc
            assert f.is_reduced and f.is_primitive
            assert -f.a < f.b <= f.a <= f.c


def test_form_class_counts_matches_direct_enumeration():
    counts = form_class_counts(2000)
    for disc in range(-2000, 0):
        if disc % 4 in (0, 1):
            assert counts[disc] == len(reduced_forms(disc)), disc


def test_count_reduced_forms_matches_oracle_below_20000():
    for disc in range(-19999, 0):
        if disc % 4 in (0, 1):
            assert count_reduced_forms(disc) == len(reduced_forms(disc)), disc


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6 // 4), st.sampled_from((0, 1)))
def test_count_reduced_forms_matches_oracle_sampled(k, r):
    disc = r - 4 * k  # 0 or 1 mod 4, down to -10^6
    assert count_reduced_forms(disc) == len(reduced_forms(disc))


def test_count_reduced_forms_rejects_non_discriminants():
    for bad in (0, 4, -1, -2, -5):
        with pytest.raises(ValueError):
            count_reduced_forms(bad)


def test_count_by_a_matches_sweep_to_10_5():
    counts = form_class_counts(MAX_DISC_BOUND)
    for dk, h in counts.items():
        if is_fundamental_discriminant(dk):
            assert _count_forms_by_a(dk) == h, dk


@settings(max_examples=4, deadline=None)
@given(st.integers(min_value=MAX_DISC_BOUND, max_value=MAX_FIELD_DISC))
def test_count_by_a_matches_b_side_oracle_sampled(m):
    assume(is_fundamental_discriminant(-m))
    assert _count_forms_by_a(-m) == count_reduced_forms(-m)


def test_count_by_a_matches_b_side_oracle_named():
    assert _count_forms_by_a(-59939555) == count_reduced_forms(-59939555) == 1952
    assert _count_forms_by_a(-999999995) == count_reduced_forms(-999999995) == 8856


# (disc, h, the reduced forms with 4a^2 > |disc|, which the count checks one by one):
# -3 and -4 carry extra units, -8 and -20 are even, -23 and -47 are 1 and -19 and
# -35 are 5 (mod 8); a = c in (2, 1, 2), (3, 1, 3), (5, 4, 5), (4, 3, 4), (6, 1, 6), b = a in
# (1, 1, 1), (5, 5, 6), and (6, +-5, 7), (10, +-8, 11) count twice
_BY_A_CASES = (
    (-3, 1, {(1, 1, 1)}), (-4, 1, set()), (-8, 1, set()), (-20, 2, set()),
    (-23, 3, set()), (-47, 5, set()), (-19, 1, set()), (-35, 2, {(3, 1, 3)}),
    (-15, 2, {(2, 1, 2)}), (-84, 4, {(5, 4, 5)}), (-55, 4, {(4, 3, 4)}),
    (-95, 8, {(5, 5, 6)}), (-143, 10, {(6, 1, 6), (6, 5, 7), (6, -5, 7)}), (-376, 8, {(10, 8, 11), (10, -8, 11)}),
)


@pytest.mark.parametrize("dk, h, band", _BY_A_CASES, ids=[str(c[0]) for c in _BY_A_CASES])
def test_count_by_a_named_cases(dk, h, band):
    forms = {(f.a, f.b, f.c) for f in reduced_forms(dk)}
    assert {f for f in forms if 4 * f[0] ** 2 > -dk} == band
    assert _count_forms_by_a(dk) == len(forms) == h


def test_class_number_field_validates_like_the_field_type():
    for bad in (-5, -12, -16, 0, 5):
        with pytest.raises(ValueError) as field_error:
            FundamentalDiscriminant(bad)
        with pytest.raises(ValueError) as count_error:
            class_number_field(bad)
        assert str(count_error.value) == str(field_error.value)


def test_class_number_field_h_one_list():
    for dk in CLASS_NUMBER_ONE_DISCS:
        assert class_number_field(dk) == 1
    assert class_number_field(-15) == 2
    assert class_number_field(-23) == 3


def test_class_number_order_tables():
    # the two tables quoted for the exceptional census, plus one larger value
    gauss = [class_number_order(Order(FundamentalDiscriminant(-4), f)) for f in range(1, 6)]
    assert gauss == [1, 1, 2, 2, 2]
    eisen = [class_number_order(Order(FundamentalDiscriminant(-3), f)) for f in range(1, 8)]
    assert eisen == [1, 1, 1, 2, 2, 3, 2]
    assert class_number_order(Order(FundamentalDiscriminant(-7), 3)) == 4


def _with_h_field(hk):
    # class_number_order with h_K replaced by hk
    return mock.patch.object(quadratic, "class_number_field", lambda dk: hk)


def test_class_number_order_h_field_override():
    order = Order(FundamentalDiscriminant(-4), 5)
    with _with_h_field(1):
        assert class_number_order(order) == 2


def test_class_number_order_rejects_impossible_override():
    # reciprocity keeps the formula integral for every positive h_K, so the
    # guard can only fire on a non-positive h_K (or an internal bug)
    with _with_h_field(0), pytest.raises(IntegralityError):
        class_number_order(Order(FundamentalDiscriminant(-4), 2))
    with _with_h_field(-1), pytest.raises(IntegralityError):
        class_number_order(Order(FundamentalDiscriminant(-7), 3))


def _fraction_formula(dk, f, hk):
    h = Fraction(hk * f, unit_index(dk, f))
    for p in sorted(factorint(f)):
        h *= 1 - Fraction(kronecker_symbol(dk, p), p)
    return h


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=3, max_value=MAX_DISC_BOUND), st.integers(min_value=1, max_value=10 ** 6),
       st.one_of(st.none(), st.integers(min_value=1, max_value=10 ** 6)))
def test_class_number_order_matches_fraction_formula(m, f, h_field):
    # h_field None is the computed h_K; an integer replaces it, and the formula stays integral
    assume(is_fundamental_discriminant(-m))
    order = Order(FundamentalDiscriminant(-m), f)
    if h_field is None:
        assert class_number_order(order) == _fraction_formula(-m, f, class_number_field(-m))
    else:
        with _with_h_field(h_field):
            assert class_number_order(order) == _fraction_formula(-m, f, h_field)


# conductors whose primes lie past the trial bound sqrt(f) (2 * 65537, 1000003)
# or past the table, found by rho (65537^2), and a prime power (2^20)
@pytest.mark.parametrize("f", [2 * 65537, 65537 ** 2, 1000003, 2 ** 20])
@pytest.mark.parametrize("dk, hk", [(-3, 1), (-4, 1), (-7, 1), (-23, 3), (-163, 1)])
def test_class_number_order_at_large_conductor_primes(dk, hk, f):
    # the product formula with sympy's factorization and Kronecker symbol
    h = Fraction(hk * f, {-3: 3, -4: 2}.get(dk, 1))
    for p in sympy.factorint(f):
        h *= 1 - Fraction(sympy.kronecker_symbol(dk, p), p)
    assert class_number_order(Order(FundamentalDiscriminant(dk), f)) == h


def test_order_kernels_below_the_table_reach_never_call_factorint(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return factorint(n)

    monkeypatch.setattr(primes, "factorint", counted)
    monkeypatch.setattr(quadratic, "factorint", counted, raising=False)
    for dk in range(-2000, -2):
        quadratic.is_fundamental_discriminant.__wrapped__(dk)
        if is_fundamental_discriminant(dk):
            for f in (1, 2, 12, 40, 1009, 65521):
                order = Order(FundamentalDiscriminant(dk), f)
                assert fundamental_discriminant(order.discriminant) == (order.field, f)
                class_number_order(order)
    assert calls == []
    # a square part past the table's reach is factored: the count sees it
    n = -65537 ** 2 * 65539
    assert fundamental_discriminant(n) == (FundamentalDiscriminant(-65539), 65537)
    assert calls == [65537 ** 2 * 65539]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-500, max_value=-3), st.integers(min_value=1, max_value=12))
def test_class_number_order_positive_integer(dk, f):
    if not is_fundamental_discriminant(dk):
        return
    h = class_number_order(Order(FundamentalDiscriminant(dk), f))
    assert isinstance(h, int) and h >= 1


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-300, max_value=-3), st.integers(min_value=1, max_value=10))
def test_class_number_formula_vs_oracle_sampled(dk, f):
    if not is_fundamental_discriminant(dk):
        return
    order = Order(FundamentalDiscriminant(dk), f)
    assert class_number_order(order) == len(reduced_forms(order.discriminant))


def test_field_search_h_one():
    search = enumerate_fields_by_class_number(1, 200)
    assert tuple(f.value for f in search.fields) == CLASS_NUMBER_ONE_DISCS
    assert not search.certified_complete


def test_field_search_growth():
    small = enumerate_fields_by_class_number(1, 50)
    assert {f.value for f in small.fields} == {-3, -4, -7, -8, -11, -19, -43}
    h2 = enumerate_fields_by_class_number(2, 200)
    assert {f.value for f in h2.fields} >= set(CLASS_NUMBER_ONE_DISCS) | {-15, -20, -24, -35}
    for f in h2.fields:
        assert class_number_field(f.value) <= 2


def test_caps_refuse_with_budget_error():
    for call in (form_class_counts, lambda n: enumerate_fields_by_class_number(1, n)):
        with pytest.raises(BudgetError, match="census cap"):
            call(MAX_DISC_BOUND + 1)
    # the least fundamental discriminant past the cap, whatever the cap is
    m = next(m for m in count(MAX_FIELD_DISC + 1) if is_fundamental_discriminant(-m))
    with pytest.raises(BudgetError, match="class number cap"):
        class_number_field(-m)
    with pytest.raises(ValueError, match="at least 3"):
        form_class_counts(2)


def test_form_class_counts_is_the_callers_own():
    form_class_counts(2000)
    counts = form_class_counts(500)
    # keys from -500 up to -3, as from a sweep to 500 alone
    keys = list(counts)
    assert keys == sorted(keys) and keys[0] == -500 and keys[-1] == -3
    expected = dict(counts)
    counts[-23] = 99
    counts.clear()
    assert form_class_counts(500) == expected
    assert list(form_class_counts(500)) == keys
    assert form_class_counts(500)[-23] == class_number_field(-23) == 3


def test_form_class_counts_follow_a_resweep(fresh_session):
    def expected(n):
        counts = {-m: count_reduced_forms(-m) for m in range(n, 2, -1) if m % 4 in (0, 3)}
        return {d: h for d, h in counts.items() if h}

    assert form_class_counts(300) == expected(300)
    for n in (3000, 300, 2999):
        counts = form_class_counts(n)
        assert counts == expected(n) and list(counts) == list(expected(n))


def test_the_sweeps_fields_are_the_fundamental_discriminants():
    # the sweep reads a field off its form counts (every form primitive);
    # the factoring rule, uncached, reads it off the factors of |Delta_K|
    form_class_counts(MAX_DISC_BOUND)
    swept = sorted(m for ms in quadratic._fields_by_h.values() for m in ms)
    assert swept == [m for m in range(MAX_DISC_BOUND + 1) if is_fundamental_discriminant.__wrapped__(-m)]


# bounds at g^2, g^2 +- 1 and 4g^2 +- 1 for squarefree g: the Moebius pass
# takes one slice per p^2, and a bound divisible by p^2 ends that slice on it
_SQUARE_EDGES = sorted({n for g in (2, 3, 5, 6, 7, 10, 30, 101, 158, 313)
                        for n in (g * g - 1, g * g, g * g + 1, 4 * g * g - 1, 4 * g * g + 1) if n <= MAX_DISC_BOUND})


def test_cold_sweeps_at_square_edges_are_prefixes_of_the_full_sweep(fresh_session, monkeypatch):
    quadratic._retained(MAX_DISC_BOUND)
    counts, fields_by_h = quadratic._counts, quadratic._fields_by_h
    for n in _SQUARE_EDGES:
        monkeypatch.setattr(quadratic, "_counts", [])
        quadratic._retained(n)
        assert quadratic._counts == counts[:n + 1], n
        prefix = {h: [m for m in ms if m <= n] for h, ms in fields_by_h.items()}
        assert list(quadratic._fields_by_h.items()) == [(h, ms) for h, ms in prefix.items() if ms], n


_SWEEP_ANSWERS = """
import json, sys
from cmbrauer import cm_census, quadratic
out = []
for n in json.loads(sys.argv[1]):
    counts = quadratic.form_class_counts(n)
    out.append({
        "fcc": list(counts.items()),
        "fields": [[f.value for f in quadratic.enumerate_fields_by_class_number(h, n).fields]
                   for h in (*range(1, 13), 10 ** 9)],
        "cm_count": [cm_census.cm_count_total(d, n).per_field_counts for d in (1, 2, 3)],
        "refined": [cm_census.singular_k3_refined_sum(d, n) for d in (1, 2, 3)],
        "h": [quadratic.class_number_field(d) for d in (-3, -23, -3299, -4003, -99995)],
    })
print(json.dumps(out))
"""


def _sweep_answers(bounds):
    out = subprocess.run([sys.executable, "-c", _SWEEP_ANSWERS, json.dumps(bounds)],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_large_sweep_then_smaller_bounds_match_cold_processes():
    small = [3, 200, 3300, 5000]
    warm = _sweep_answers([20000, *small])[1:]
    cold = [_sweep_answers([n])[0] for n in small]
    assert warm == cold


@cache
def _class_numbers_by_field():
    # (m, h_K) for every fundamental m = -Delta_K up to MAX_DISC_BOUND, each
    # read off its factors and counted field by field: no sweep, no index
    return [(m, _count_forms_by_a.__wrapped__(-m))
            for m in range(3, MAX_DISC_BOUND + 1) if is_fundamental_discriminant.__wrapped__(-m)]


def _fields_up_to(cap, n):
    return [-m for m, h in _class_numbers_by_field() if m <= n and h <= cap]


def test_field_index_matches_an_independent_list_at_every_cap():
    top = max(h for _, h in _class_numbers_by_field())
    bounds = sorted({3, 4, 162, 163, *_SQUARE_EDGES, *range(1000, MAX_DISC_BOUND + 1, 4999), MAX_DISC_BOUND})
    for cap in (*range(1, 13), top + 1):
        expected = _fields_up_to(cap, MAX_DISC_BOUND)
        for n in bounds:
            search = enumerate_fields_by_class_number(cap, n)
            assert [f.value for f in search.fields] == [d for d in expected if -d <= n], (cap, n)
            assert (search.h_max, search.search_bound, search.certified_complete) == (cap, n, False)


def test_a_warm_enumeration_validates_and_sorts_nothing():
    big = enumerate_fields_by_class_number(4, 16500)
    init = FundamentalDiscriminant.__init__.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "c_call":
            calls.append(arg.__name__)
        elif event == "call" and frame.f_code is init:
            calls.append("FundamentalDiscriminant")

    sys.setprofile(profile)
    try:
        again = enumerate_fields_by_class_number(4, 16500)
        small = enumerate_fields_by_class_number(4, 300)
    finally:
        sys.setprofile(None)
    assert calls and not {"FundamentalDiscriminant", "is_fundamental_discriminant", "sorted", "sort"} & set(calls)
    # both answers are slices of the one index: the same objects
    assert again.fields == big.fields and all(a is b for a, b in zip(again.fields, big.fields))
    assert all(a is b for a, b in zip(small.fields, big.fields))
    assert [f.value for f in small.fields] == _fields_up_to(4, 300)


def test_caps_share_their_field_objects():
    assert enumerate_fields_by_class_number(1, 20000).fields[0] is enumerate_fields_by_class_number(4, 20000).fields[0]
    widest = {f.value: f for f in enumerate_fields_by_class_number(10 ** 9, 20000).fields}
    for cap in (1, 2, 4, 12):
        fields = enumerate_fields_by_class_number(cap, 20000).fields
        assert fields and all(widest[f.value] is f for f in fields), cap


def test_the_field_index_keeps_at_most_its_cap_count(fresh_session):
    quadratic._retained(3000)
    fields = sum(map(len, quadratic._fields_by_h.values()))
    asked = [*range(1, 3 * quadratic.INDEX_CAPS), *range(10 ** 6, 10 ** 6 + 100)]
    for cap in asked:
        assert [f.value for f in enumerate_fields_by_class_number(cap, 3000).fields] == _fields_up_to(cap, 3000)
        assert len(quadratic._index) <= quadratic.INDEX_CAPS
    # the last caps asked are the ones kept, a cap past the sweep's largest
    # class number read as that one, and one object per field of the sweep
    top = max(quadratic._fields_by_h)
    assert top < asked[-1]
    assert list(quadratic._index) == list(dict.fromkeys(min(cap, top) for cap in asked))[-quadratic.INDEX_CAPS:]
    assert sum(map(len, quadratic._field_objects_by_h.values())) == fields
    # a cap dropped from the index answers the same when asked again
    assert [f.value for f in enumerate_fields_by_class_number(2, 3000).fields] == _fields_up_to(2, 3000)


def test_the_field_index_stays_under_its_stated_ceiling(fresh_session):
    # the module docstring's 9.8 MiB: INDEX_CAPS caps that hold nearly every
    # field of the sweep at MAX_DISC_BOUND, and the field objects they share
    quadratic._retained(MAX_DISC_BOUND)
    top = max(quadratic._fields_by_h)
    code = quadratic._cap_index.__code__
    lines = range(code.co_firstlineno, max(line for *_, line in code.co_lines() if line) + 1)
    tracemalloc.start()
    try:
        for cap in (*range(top - quadratic.INDEX_CAPS - 3, top + 1), *range(10 ** 9, 10 ** 9 + 4)):
            enumerate_fields_by_class_number(cap, MAX_DISC_BOUND)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    kept = sum(stat.size for stat in snapshot.statistics("lineno")
               if stat.traceback[0].filename == quadratic.__file__ and stat.traceback[0].lineno in lines)
    assert len(quadratic._index) == quadratic.INDEX_CAPS
    assert 2 ** 20 < kept < 10 * 2 ** 20, kept


def test_caps_past_the_largest_class_number_share_one_index(fresh_session):
    quadratic._retained(MAX_DISC_BOUND)
    top = max(quadratic._fields_by_h)
    assert top == 533
    index = quadratic._cap_index(600)
    assert quadratic._cap_index(1000) is index and quadratic._cap_index(10 ** 9) is index
    assert len(index[0]) == sum(map(len, quadratic._fields_by_h.values()))
    for cap in range(10 ** 6, 10 ** 6 + quadratic.INDEX_CAPS):
        assert enumerate_fields_by_class_number(cap, MAX_DISC_BOUND).fields == index[1]
    assert list(quadratic._index) == [top] and quadratic._index[top] is index
    assert quadratic._cap_index(top) is index


def test_an_enumeration_outlives_a_resweep(fresh_session):
    before = enumerate_fields_by_class_number(3, 300)
    values = [f.value for f in before.fields]
    assert values == _fields_up_to(3, 300)
    index = quadratic._index[3]
    # a re-sweep merges the cap again: the wider answer is not read off the old index
    wider = enumerate_fields_by_class_number(3, 3000)
    assert quadratic._index[3] is not index and [f.value for f in wider.fields] == _fields_up_to(3, 3000)
    assert [f.value for f in before.fields] == values
    assert [f.value for f in enumerate_fields_by_class_number(3, 300).fields] == values


def test_past_sweep_memo_stays_bounded(fresh_session):
    memo = quadratic._count_forms_by_a
    assert memo.cache_info().maxsize == quadratic.PAST_SWEEP_LIMIT
    quadratic._retained(100)
    fresh = [-m for m in range(101, 400) if is_fundamental_discriminant(-m)][:20]
    for expected_hits in (0, 20):
        assert [class_number_field(dk) for dk in fresh] == [count_reduced_forms(dk) for dk in fresh]
        assert memo.cache_info()[:2] == (expected_hits, 20)  # (hits, misses)
    # -108 = 4 * 27 is not fundamental: refused before the memo is read
    with pytest.raises(ValueError, match="not a fundamental discriminant"):
        class_number_field(-108)
    # past a sweep that grows over them, the sweep answers and the memo is not read
    quadratic._retained(500)
    assert [class_number_field(dk) for dk in fresh] == [count_reduced_forms(dk) for dk in fresh]
    assert memo.cache_info()[:2] == (20, 20)


def test_census_caches_stay_bounded():
    assert not hasattr(class_number_field, "cache_info")
    maxsize = is_fundamental_discriminant.cache_info().maxsize
    assert maxsize is not None
    start = 2 * MAX_DISC_BOUND
    fresh = [-m for m in range(start, start + 2 * maxsize) if is_fundamental_discriminant(-m)]
    for dk in fresh[:300]:
        assert class_number_field(dk) >= 1
    assert is_fundamental_discriminant.cache_info().currsize <= maxsize


def _fcc_oracle(n):
    # the retained counts read by their nonzero entries instead of the mod-4 rule
    counts = quadratic._retained(n)
    return {-m: counts[m] for m in range(n, 2, -1) if counts[m]}


@pytest.mark.parametrize("n", [20000, 2000, 300, 6, 5, 4, 3])
def test_form_class_counts_view_matches_a_dict(n):
    counts = form_class_counts(n)
    oracle = _fcc_oracle(n)
    assert counts == oracle and oracle == counts and len(counts) == len(oracle)
    assert list(counts) == list(oracle)
    for k, h in oracle.items():
        assert k in counts and counts[k] == counts.get(k) == h
    # keys equal to an int are found, as in a dict
    for key in (-4.0, Fraction(-23)):
        assert (key in counts) == (key in oracle) == (n >= -key)
        assert counts.get(key) == oracle.get(key)
    for _ in range(2):
        assert list(counts.keys()) == list(oracle.keys())
        assert list(counts.values()) == list(oracle.values())
        assert list(counts.items()) == list(oracle.items())
    items = counts.items()
    assert len(items) == len(counts.keys()) == len(counts.values()) == len(oracle)
    assert (-3, 1) in items and (-3, 2) not in items and 1 in counts.values()
    assert counts.keys() & {-3, -4, 5} == {-3, -4} & oracle.keys()


@pytest.mark.parametrize("n", [*range(3, 41), 20000])
def test_form_class_counts_iterate_as_their_owned_dict(n):
    view, owned = form_class_counts(n), form_class_counts(n)
    owned[-3] = owned[-3]
    assert view._own is None and owned._own is not None
    # the keys by the mod-4 rule, each read by a lookup
    keys = [d for d in range(-n, -2) if d % 4 in (0, 1)]
    assert list(view) == list(view.keys()) == list(owned) == keys
    assert list(view.items()) == list(owned.items()) == [(d, view[d]) for d in keys]
    assert len(view) == len(view.items()) == len(owned) == len(keys)
    assert view == owned and owned == view and dict(view.items()) == dict(owned)
    # after a write the view iterates what was written
    view[-1] = 0
    del view[-3]
    assert list(view) == keys[:-1] + [-1] and list(view.items())[-1] == (-1, 0)
    assert len(view) == len(keys) and view != owned


@pytest.mark.parametrize("n", [20000, 2000, 300, 6, 5, 4, 3])
def test_form_class_counts_missing_keys_raise_key_error(n):
    counts = form_class_counts(n)
    for key in (-1, -2, -5, 0, -(n + 4), "x", "-4", 1.5, -4.5, None, True):
        assert key not in counts and counts.get(key, "absent") == "absent"
        with pytest.raises(KeyError):
            counts[key]


@pytest.mark.parametrize("mutate", [
    lambda m: m.__setitem__(-23, 99),
    lambda m: m.__delitem__(-23),
    lambda m: m.pop(-23),
    lambda m: m.popitem(),
    lambda m: m.setdefault(-1, 7),
    lambda m: m.update({-23: 0, 5: 1}),
    lambda m: m.clear(),
], ids=["setitem", "delitem", "pop", "popitem", "setdefault", "update", "clear"])
def test_form_class_counts_writes_touch_one_answer(mutate):
    oracle = _fcc_oracle(500)
    mine, other = form_class_counts(500), form_class_counts(500)
    mirror = dict(oracle)
    assert mutate(mine) == mutate(mirror)
    assert list(mine.items()) == list(mirror.items()) and len(mine) == len(mirror)
    assert other == oracle and list(other.items()) == list(oracle.items())
    assert form_class_counts(500) == oracle == _fcc_oracle(500)


def test_form_class_counts_view_outlives_a_resweep(fresh_session):
    counts = form_class_counts(300)
    oracle = dict(counts.items())
    assert form_class_counts(3000) == _fcc_oracle(3000)
    assert counts == oracle and list(counts.items()) == list(oracle.items())
    assert counts[-299] == oracle[-299] and -304 not in counts


def test_form_class_counts_copies_are_independent():
    counts = form_class_counts(300)
    oracle = dict(counts.items())
    copied, pickled = copy.copy(counts), pickle.loads(pickle.dumps(counts))
    assert copied == pickled == oracle and isinstance(pickled, Mapping)
    copied[-23], pickled[-3] = 0, 0
    del pickled[-4]
    assert counts == oracle and form_class_counts(300) == oracle
    assert copied[-23] == 0 and pickled[-3] == 0 and -4 not in pickled
    # a copy of a written answer does not share its dict
    counts[-23] = 5
    again = copy.copy(counts)
    again[-23] = 6
    assert counts[-23] == 5 and pickle.loads(pickle.dumps(counts))[-23] == 5


def test_form_class_counts_call_copies_nothing(fresh_session):
    quadratic._retained(20000)
    # the first call after a fresh sweep, then a later one
    for _ in range(2):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            counts = form_class_counts(20000)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # a dict of the range would hold about 295 KiB
        assert len(counts) == len(_fcc_oracle(20000)) and kept < 4096, kept
