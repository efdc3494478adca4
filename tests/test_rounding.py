"""Directed-rounding brackets: enclosure correctness and structural nesting."""

import gc
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cmbrauer import cli, rounding
from cmbrauer.rounding import (
    COARSE_EPS,
    DEFAULT_EPS,
    FINE_EPS,
    Bracket,
    ln_bracket,
    pi_bracket,
    sqrt_bracket,
)

# reference values good to far more digits than any tier requests
PI_REF = Fraction(3141592653589793238462643383279502884197, 10 ** 39)
LN2_REF = Fraction(693147180559945309417232121458176568, 10 ** 36)
LN10_REF = Fraction(2302585092994045684017991454684364208, 10 ** 36)


def test_bracket_validation():
    with pytest.raises(AssertionError):
        Bracket(Fraction(2), Fraction(1))
    b = Bracket(Fraction(3, 7), Fraction(3, 7))
    assert b.lo == b.hi == Fraction(3, 7)


def test_pi_tiers_certified_and_nested():
    coarse = pi_bracket(COARSE_EPS)
    fine = pi_bracket(FINE_EPS)
    for b in (coarse, fine):
        assert b.lo <= PI_REF <= b.hi
    assert coarse.hi == Fraction(355, 113)
    assert coarse.lo <= fine.lo and fine.hi <= coarse.hi
    assert fine.hi - fine.lo <= FINE_EPS


def test_ln_certified_values():
    for x, ref in ((2, LN2_REF), (10, LN10_REF), (1, Fraction(0))):
        for eps in (COARSE_EPS, DEFAULT_EPS, FINE_EPS):
            b = ln_bracket(x, eps)
            assert b.lo <= ref <= b.hi
            assert b.hi - b.lo <= eps


def test_ln_tiers_nested():
    for x in (2, 3, 10, 48, 163, 10 ** 12 + 7):
        coarse = ln_bracket(x, COARSE_EPS)
        mid = ln_bracket(x, DEFAULT_EPS)
        fine = ln_bracket(x, FINE_EPS)
        assert coarse.lo <= mid.lo <= fine.lo
        assert fine.hi <= mid.hi <= coarse.hi


_ANY_EPS = st.fractions(Fraction(1, 10 ** 18), Fraction(999, 1000), max_denominator=10 ** 18)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 40), _ANY_EPS, _ANY_EPS)
def test_ln_and_sqrt_nest_for_any_two_eps(x, eps_a, eps_b):
    # not only at the tiers: at 3e-7 and 1e-6 an eps/4 grid would not nest,
    # and ln 6 at 3e-7 would reach above ln 6 at 1e-6
    fine_eps, coarse_eps = sorted((eps_a, eps_b))
    for enclose in (ln_bracket, sqrt_bracket):
        fine, coarse = enclose(x, fine_eps), enclose(x, coarse_eps)
        assert coarse.lo <= fine.lo and fine.hi <= coarse.hi, (enclose.__name__, x, fine_eps, coarse_eps)
        assert fine.hi - fine.lo <= fine_eps
    assert ln_bracket(6, Fraction(3, 10 ** 7)).hi <= ln_bracket(6, COARSE_EPS).hi


def test_ln_monotone_in_argument():
    prev = ln_bracket(1, DEFAULT_EPS)
    for x in (2, 3, 5, 17, 400):
        cur = ln_bracket(x, DEFAULT_EPS)
        assert cur.hi > prev.lo
        prev = cur


def test_ln_additivity_within_width():
    lhs = ln_bracket(6, FINE_EPS)
    ln2, ln3 = ln_bracket(2, FINE_EPS), ln_bracket(3, FINE_EPS)
    assert lhs.lo <= ln2.hi + ln3.hi and ln2.lo + ln3.lo <= lhs.hi


def test_ln_domain():
    with pytest.raises(ValueError):
        ln_bracket(Fraction(1, 2), DEFAULT_EPS)
    with pytest.raises(ValueError):
        ln_bracket(0, DEFAULT_EPS)


def test_sqrt_certified():
    for x in (2, 3, 7, 163, Fraction(1, 4)):
        for eps in (COARSE_EPS, DEFAULT_EPS):
            b = sqrt_bracket(x, eps)
            assert b.lo * b.lo <= x <= b.hi * b.hi
            assert b.hi - b.lo <= eps
    exact = sqrt_bracket(49, DEFAULT_EPS)
    assert exact.lo <= 7 <= exact.hi


@pytest.mark.parametrize("eps", [COARSE_EPS, DEFAULT_EPS, FINE_EPS, Fraction(1, 10 ** 18), Fraction(3, 10 ** 7),
                                 Fraction(1, 3), Fraction(999, 10 ** 9), Fraction(7, 10 ** 18)])
def test_sqrt_grid_is_the_least_power_of_ten_below_eps(eps):
    # the width is 10^-s for the s the Fraction comparison picked before
    s = 1
    while Fraction(1, 10 ** s) > eps:
        s += 1
    for x in (2, 163, Fraction(1, 4), 10 ** 30 + 7):
        b = sqrt_bracket(x, eps)
        assert b.hi - b.lo == Fraction(1, 10 ** s)


def test_pi_tiers_are_shared_brackets():
    assert pi_bracket(COARSE_EPS) is pi_bracket(Fraction(1, 2))
    assert pi_bracket(COARSE_EPS) == Bracket(Fraction(355, 113) * (1 - COARSE_EPS), Fraction(355, 113))
    assert pi_bracket(DEFAULT_EPS) is pi_bracket(Fraction(1, 10 ** 18))


def test_sqrt_domain():
    with pytest.raises(ValueError):
        sqrt_bracket(-1, DEFAULT_EPS)
    b = sqrt_bracket(0, DEFAULT_EPS)
    assert b.lo <= 0 <= b.hi


def test_eps_range_validation():
    with pytest.raises(ValueError):
        pi_bracket(Fraction(1, 10 ** 19))
    with pytest.raises(ValueError):
        ln_bracket(2, Fraction(2))
    with pytest.raises(ValueError):
        sqrt_bracket(2, Fraction(0))


def test_ln_memory_stays_bounded(capsys):
    # a long-lived process sees ever new ln arguments; it keeps no growing
    # store of them, and an argument seen long ago gets the same bracket again
    first = ln_bracket(10 ** 6 + 1)
    degrees = range(10 ** 6, 10 ** 6 + 5000)
    tracemalloc.start()
    try:
        for i, d in enumerate(degrees):
            if i == 1000:
                gc.collect()
                warm = tracemalloc.get_traced_memory()[0]
            assert cli.main(["bound", "--id", "faltings_GRH", "--set", f"d={d}", "--assume-grh"]) == 0
            capsys.readouterr()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - warm
    finally:
        tracemalloc.stop()
    # 4,000 retained ln results would hold more than 1 MB
    assert grown < 256 * 1024, grown
    assert ln_bracket(10 ** 6 + 1) == first


def _ln_atanh(y: Fraction, delta: Fraction) -> Bracket:
    # the oracle: ln y = 2*atanh(t), t = (y-1)/(y+1) in [0, 1/3] for y in [1, 2],
    # summed in exact rationals; the tail after term j=J is at most
    # (9/4) t^(2J+3) / (2J+3)
    assert 1 <= y <= 2
    t = (y - 1) / (y + 1)
    t2 = t * t
    total = Fraction(0)
    term = 2 * t
    j = 0
    while True:
        total += term / (2 * j + 1)
        term *= t2
        j += 1
        tail = Fraction(9, 4) * term / (2 * j + 1)
        if tail <= delta:
            return Bracket(total, total + tail)


_ORACLE = Fraction(1, 10 ** 60)
_ORACLE_BITS = 256


def _ln_oracle(x: Fraction) -> Bracket:
    # ln x within _ORACLE: halve x into y in [1, 2), then, since ln is
    # increasing, enclose ln y by the series at the 2^-256 grid points on
    # either side of y, which keeps the series' rationals short
    k, y = 0, x
    while y >= 2:
        y /= 2
        k += 1
    one = 1 << _ORACLE_BITS
    below = (y * one).__floor__()
    lo = _ln_atanh(Fraction(below, one), _ORACLE / 4).lo
    hi = _ln_atanh(min(Fraction(-(-y * one).__floor__(), one), Fraction(2)), _ORACLE / 4).hi
    if k:
        ln2 = _ln_atanh(Fraction(2), _ORACLE / (4 * k))
        lo, hi = lo + k * ln2.lo, hi + k * ln2.hi
    return Bracket(lo, hi)


def _master(x: Fraction) -> Bracket:
    # the master enclosure is an integer pair over 2^_LN2_BITS
    lo, hi = rounding._ln_master(x)
    one = 1 << rounding._LN2_BITS
    return Bracket(Fraction(lo, one), Fraction(hi, one))


def _assert_master_encloses_oracle(x: Fraction):
    master, oracle = _master(x), _ln_oracle(x)
    assert oracle.hi - oracle.lo <= _ORACLE
    assert master.lo <= oracle.lo and oracle.hi <= master.hi, x
    assert master.hi - master.lo <= rounding._LN_MASTER, x


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 40), st.integers(1, 10 ** 12))
def test_ln_master_contains_the_series_oracle(a, b):
    _assert_master_encloses_oracle(Fraction(max(a, b), min(a, b)))


def test_ln_master_at_powers_of_two():
    # k changes at each power of two: both sides of it must be enclosed
    for k in (0, 1, 2, 7, 63, 64, 200):
        for x in (Fraction(2 ** k), Fraction(2 ** (k + 7) + 1, 2 ** 7), Fraction(2 ** (k + 8) - 1, 2 ** 7),
                  Fraction(2 ** (k + 1) - 1)):
            _assert_master_encloses_oracle(x)


def test_ln_master_at_one_and_at_long_arguments():
    assert rounding._ln_master(Fraction(1)) == (0, 0)
    for bits in (9300, 14300):
        for x in (Fraction(3 ** (bits * 100 // 159)), Fraction((1 << bits) - 1, 7), Fraction(10 ** (bits * 3 // 10) + 1)):
            _assert_master_encloses_oracle(x)
