"""Conductor bounds, the CM j-invariant census, and singular K3 class counts."""

import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cmbrauer import cm_census, quadratic, rounding
from cmbrauer.cm_census import (
    EXCEPTIONAL_CM_COUNTS,
    MAX_CENSUS_DEGREE,
    cm_count_per_field,
    cm_count_total,
    conductor_bound,
    conductor_bound_over_degree,
    d_permissible_conductors,
    singular_k3_bound,
    singular_k3_refined_sum,
    singular_k3_strong_bound,
)
from cmbrauer.quadratic import (
    FundamentalDiscriminant,
    Order,
    class_number_order,
    enumerate_fields_by_class_number,
    is_fundamental_discriminant,
)
from cmbrauer.errors import BudgetError
from cmbrauer.minkowski import minkowski_M
from cmbrauer.rounding import COARSE_EPS, DEFAULT_EPS, FINE_EPS, ln_bracket


def test_conductor_bound_clauses():
    assert conductor_bound(FundamentalDiscriminant(-7), 2).bound == 4
    assert conductor_bound(FundamentalDiscriminant(-4), 2).bound == 5
    assert conductor_bound(FundamentalDiscriminant(-3), 2).bound == 7
    assert conductor_bound(FundamentalDiscriminant(-20), 2).bound == 4
    assert conductor_bound(FundamentalDiscriminant(-3), 3).bound == 9
    assert conductor_bound(FundamentalDiscriminant(-3), 4).bound == 16


def test_conductor_bound_degree_one_cap():
    # exceptional clause values above 3 cannot occur at ring class degree 1
    assert conductor_bound(FundamentalDiscriminant(-4), 1).bound == 3
    assert conductor_bound(FundamentalDiscriminant(-3), 1).bound == 3
    assert conductor_bound(FundamentalDiscriminant(-7), 1).bound == 2
    assert conductor_bound(FundamentalDiscriminant(-11), 1).bound == 1
    assert "capped" in conductor_bound(FundamentalDiscriminant(-3), 1).case_label


@given(st.integers(min_value=-600, max_value=-3), st.integers(min_value=1, max_value=30))
def test_conductor_bound_always_at_most_3d2(dk, d):
    if not is_fundamental_discriminant(dk):
        return
    assert conductor_bound(FundamentalDiscriminant(dk), d).bound <= 3 * d * d


def test_conductor_bound_over_degree_closed_form():
    assert [conductor_bound_over_degree(d) for d in (1, 2, 3, 4)] == [3, 7, 9, 16]
    for d in range(1, 51):
        assert conductor_bound_over_degree(d) == min(3 * d * d, max(d * d, 7))


def test_permissible_conductors_degree_one():
    # Q(i): f in {1, 2, 3} have h = 1, 1, 2; only h <= 1 is permissible
    pairs = d_permissible_conductors(FundamentalDiscriminant(-4), 1)
    assert pairs == [(1, 1), (2, 1)]
    pairs = d_permissible_conductors(FundamentalDiscriminant(-3), 1)
    assert pairs == [(1, 1), (2, 1), (3, 1)]
    pairs = d_permissible_conductors(FundamentalDiscriminant(-163), 1)
    assert pairs == [(1, 1)]


def test_permissible_conductors_respect_class_numbers():
    for dk in (-3, -4, -7, -8, -20):
        field = FundamentalDiscriminant(dk)
        for d in (1, 2, 3):
            for f, h in d_permissible_conductors(field, d):
                assert h == class_number_order(Order(field, f))
                assert h <= d
                assert f <= conductor_bound(field, d).bound


def test_permissible_conductors_are_complete():
    # the walk against every f up to the bound, by the per-f class number;
    # the fields with h_K <= 12 below 2000 include -3, -4 and -7
    fields = enumerate_fields_by_class_number(12, 2000).fields
    assert {-3, -4, -7} <= {k.value for k in fields}
    for k in fields:
        hs = [class_number_order(Order(k, f)) for f in range(1, conductor_bound(k, 12).bound + 1)]
        for d in range(1, 13):
            cap = conductor_bound(k, d).bound
            expected = [(f, h) for f, h in enumerate(hs[:cap], 1) if h <= d]
            assert d_permissible_conductors(k, d) == expected, (k.value, d)


def test_exceptional_census_counts():
    for (dk, d), expected in EXCEPTIONAL_CM_COUNTS.items():
        assert cm_count_per_field(FundamentalDiscriminant(dk), d) == expected


def test_census_degree_one_complete():
    report = cm_count_total(1, 200)
    assert report.total == 13
    assert report.certified_complete
    assert len(report.per_field_counts) == 9
    assert dict(report.per_field_counts)[-3] == 3
    assert dict(report.per_field_counts)[-4] == 2
    assert dict(report.per_field_counts)[-7] == 2


def test_census_degree_one_small_bound_not_certified():
    report = cm_count_total(1, 50)
    assert not report.certified_complete
    assert report.total == 3 + 2 + 2 + 4 * 1  # fields down to -43 only


def test_census_degree_two():
    report = cm_count_total(2, 500)
    assert not report.certified_complete
    assert len(report.per_field_counts) == 27
    assert report.total == 71
    assert report.cube_bound == 8 * 27


def test_census_rejects_bad_degree():
    with pytest.raises(ValueError):
        cm_count_total(0, 200)


def test_census_degree_cap_is_checked_before_any_work(monkeypatch):
    def no_census(*args):
        raise AssertionError("a census ran past the degree cap")

    monkeypatch.setattr(quadratic, "_retained", no_census)
    d = MAX_CENSUS_DEGREE + 1
    for census in (cm_count_total, singular_k3_refined_sum):
        with pytest.raises(BudgetError, match=f"degree {d} is past the census cap"):
            census(d, 100)


def test_singular_k3_log_bound():
    assert singular_k3_bound(1, 9) == 56
    # tighter rounding can only shrink the certified upper bound
    coarse = singular_k3_bound(1, 9, eps=COARSE_EPS)
    fine = singular_k3_bound(1, 9, eps=FINE_EPS)
    assert fine <= coarse
    assert singular_k3_bound(1, 9) <= coarse


# the three tiers with 3e-7 and 1e-18, from coarse to fine
_K3_EPS = (COARSE_EPS, Fraction(3, 10 ** 7), DEFAULT_EPS, FINE_EPS, Fraction(1, 10 ** 18))


def _assert_k3_bound_matches_fractions(bound, d, n):
    # bound(eps) is floor((ln(3d^2) + 1) 3 d^3 n) at ln's upper endpoint, at
    # least the same at its lower endpoint, and never rises as eps tightens
    above = None
    for eps in _K3_EPS:
        ln, value = ln_bracket(3 * d * d, eps), bound(eps)
        assert value == ((ln.hi + 1) * 3 * d ** 3 * n).__floor__(), (d, n, eps)
        assert value >= ((ln.lo + 1) * 3 * d ** 3 * n).__floor__(), (d, n, eps)
        assert above is None or value <= above, (d, n, eps)
        above = value


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10 ** 6), st.integers(0, 10 ** 30))
def test_singular_k3_bounds_match_the_fraction_oracle(d, n):
    _assert_k3_bound_matches_fractions(lambda eps: singular_k3_bound(d, n, eps), d, n)
    # the strong bound is the log bound at degree M(20) d
    _assert_k3_bound_matches_fractions(lambda eps: singular_k3_strong_bound(d, n, eps), minkowski_M(20).value * d, n)


def test_singular_k3_bound_past_the_digit_limit_is_refused(monkeypatch):
    # at d = 1 the bound is floor(3 F (ln 3 + 1)), the ln rounded up: the
    # largest field count F that keeps it below 10^4300 renders at 4300 digits
    limit = 10 ** 4300
    largest = math.ceil(limit / (3 * (ln_bracket(3).hi + 1))) - 1
    assert len(str(singular_k3_bound(1, largest))) == 4300
    with pytest.raises(BudgetError, match="more than 4300 digits"):
        singular_k3_bound(1, largest + 1)

    # where 3 d^3 F alone reaches the limit, no ln is taken
    def no_ln(x, s):
        raise AssertionError(f"ln of {x} taken")

    monkeypatch.setattr(rounding, "_ln_grid", no_ln)  # singular_k3_bound reads it when it runs
    for d, f in ((1, -(-limit // 3)), (10 ** 1500, 9)):
        with pytest.raises(BudgetError, match="more than 4300 digits"):
            singular_k3_bound(d, f)


def test_singular_k3_refined_sum():
    assert singular_k3_refined_sum(1, 200) == 45
    assert singular_k3_refined_sum(1, 200) <= singular_k3_bound(1, 9)


def _refined_triple_loop(d, disc_search_bound):
    total = 0
    cap = 3 * d * d
    for k in enumerate_fields_by_class_number(d, disc_search_bound).fields:
        for f in range(1, cap + 1):
            for fa in range(1, f + 1):
                if f % fa == 0:
                    total += min(class_number_order(Order(k, fa)), d)
    return total


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_singular_k3_refined_sum_matches_triple_loop(d):
    for bound in (2500, 3, 7, 50, 162, 163, 300, 1000):
        assert singular_k3_refined_sum(d, bound) == _refined_triple_loop(d, bound), (d, bound)


@pytest.mark.parametrize("d", [5, 8, 12])
def test_singular_k3_refined_sum_matches_the_class_number_sum(d):
    cap = 3 * d * d
    expected = sum(min(class_number_order(Order(k, fa)), d) * (cap // fa)
                   for k in enumerate_fields_by_class_number(d, 1000).fields
                   for fa in range(1, cap + 1))
    assert singular_k3_refined_sum(d, 1000) == expected


def _census_by_class_numbers(d, disc_search_bound):
    # per field, the h(O_f) <= d over every f up to the conductor bound
    out = []
    for k in enumerate_fields_by_class_number(d, disc_search_bound).fields:
        hs = (class_number_order(Order(k, f)) for f in range(1, conductor_bound(k, d).bound + 1))
        out.append((k.value, sum(h for h in hs if h <= d)))
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_census_tables_match_the_class_number_oracles(d):
    for bound in (2500, 3, 4, 7, 50, 162, 163, 300, 1000):
        report = cm_count_total(d, bound)
        expected = _census_by_class_numbers(d, bound)
        assert list(report.per_field_counts) == expected, (d, bound)
        assert report.total == sum(c for _, c in expected)
        assert report.cube_bound == d ** 3 * len(expected)
        assert report.certified_complete == (d == 1 and bound >= 163)


def test_census_tables_match_the_per_field_counts_to_degree_twelve():
    # the table counts the part of a walk to 3d^2 up to the conductor bound,
    # and 3d^2 lies furthest past that bound (about d^2) at high degree; the
    # expected counts come from the walk that stops at the bound
    for d in range(1, MAX_CENSUS_DEGREE + 1):
        expected = []
        for k in enumerate_fields_by_class_number(d, 20000).fields:
            capped = d_permissible_conductors(k, d)
            count = sum(h for _, h in capped)
            assert cm_count_per_field(k, d) == count, (k.value, d)
            # the clause: the walk to 3d^2 finds no permissible f past the bound
            assert cm_census._field_census(k, d)[0] == capped, (k.value, d)
            expected.append((k.value, count))
        assert list(cm_count_total(d, 20000).per_field_counts) == expected, d


def test_census_tables_follow_a_resweep(fresh_session):
    small = {}
    for d in (1, 2, 3):
        assert list(cm_count_total(d, 300).per_field_counts) == _census_by_class_numbers(d, 300)
        small[d] = cm_census._census_tables[d]
        assert small[d].swept == 301
    for d in (1, 2, 3):
        report = cm_count_total(d, 3000)
        expected = _census_by_class_numbers(d, 3000)
        assert list(report.per_field_counts) == expected
        assert cm_census._census_tables[d].swept == 3001
        # no field with h_K = 1 lies past -163; every higher degree gains fields
        assert (len(expected) > len(small[d].per_field)) == (d > 1)
        assert singular_k3_refined_sum(d, 3000) == _refined_triple_loop(d, 3000)
        assert cm_count_total(d, 300).per_field_counts == small[d].per_field
        assert singular_k3_refined_sum(d, 300) == small[d].refined_sums[-1]


_PATCHED_EXCEPTIONAL_COUNT = """
from cmbrauer import cm_census
from cmbrauer.errors import InternalCheckError

cm_census.EXCEPTIONAL_CM_COUNTS[(-3, 2)] = 8
out = []
for census in (cm_census.cm_count_total, cm_census.singular_k3_refined_sum, cm_census.cm_count_total):
    try:
        census(2, 200)
    except InternalCheckError:
        out.append(sorted(cm_census._census_tables))
    else:
        out.append("answered")
cm_census.EXCEPTIONAL_CM_COUNTS[(-3, 2)] = 9
report = cm_census.cm_count_total(2, 200)
out.append([report.per_field_counts[0], sorted(cm_census._census_tables)])
print(out)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_census_table_is_kept_only_once_checked(flags):
    # a wrong known count raises while the table is built, on every call, and
    # no table is kept until one passes
    out = subprocess.run([sys.executable, *flags, "-c", _PATCHED_EXCEPTIONAL_COUNT],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == str([[], [], [], [(-3, 9), [2]]])


def test_degree_twelve_censuses_are_prompt():
    quadratic._retained(100000)
    start = time.perf_counter()
    cm_count_total(12, 100000)
    singular_k3_refined_sum(12, 100000)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.2, f"degree-12 censuses took {elapsed:.3f} s"


def test_singular_k3_refined_monotone_in_bound():
    assert singular_k3_refined_sum(1, 50) <= singular_k3_refined_sum(1, 200)


def test_singular_k3_strong_bound_scales():
    weak = singular_k3_bound(1, 9)
    strong = singular_k3_strong_bound(1, 9)
    assert strong > weak
    strong_fine = singular_k3_strong_bound(1, 9, eps=FINE_EPS)
    assert strong_fine <= strong


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=12))
def test_singular_k3_bound_monotone(d, n):
    assert singular_k3_bound(d, n) <= singular_k3_bound(d + 1, n)
    assert singular_k3_bound(d, n) <= singular_k3_bound(d, n + 1)
