"""Directed-rounding enclosures: correctness and structural nesting."""

import gc
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cmbrauer import cli, rounding
from cmbrauer.bounds import LogFactor, SymbolicProduct
from cmbrauer.errors import InternalCheckError
from cmbrauer.rounding import COARSE_EPS, DEFAULT_EPS, FINE_EPS, _decimal_places, _ln_grid, _pi_tier, _sqrt_grid, check_eps
from oracles import fractions

# reference values good to far more digits than any tier requests
PI_REF = Fraction(3141592653589793238462643383279502884197, 10 ** 39)
LN2_REF = Fraction(693147180559945309417232121458176568, 10 ** 36)
LN10_REF = Fraction(2302585092994045684017991454684364208, 10 ** 36)


def _enclose(grid, x, eps):
    # the enclosure (lo, hi) of _ln_grid or _sqrt_grid at x, on the grid of eps
    return fractions(*grid(x, _decimal_places(check_eps(eps))))


def test_pi_tiers_certified_and_nested():
    coarse = fractions(*_pi_tier(COARSE_EPS))
    fine = fractions(*_pi_tier(FINE_EPS))
    for lo, hi in (coarse, fine):
        assert lo <= PI_REF <= hi
    assert coarse[1] == Fraction(355, 113)
    assert coarse[0] <= fine[0] and fine[1] <= coarse[1]
    assert fine[1] - fine[0] <= FINE_EPS


def test_ln_certified_values():
    for x, ref in ((2, LN2_REF), (10, LN10_REF), (1, Fraction(0))):
        for eps in (COARSE_EPS, DEFAULT_EPS, FINE_EPS):
            lo, hi = _enclose(_ln_grid, x, eps)
            assert lo <= ref <= hi
            assert hi - lo <= eps


def test_ln_tiers_nested():
    for x in (2, 3, 10, 48, 163, 10 ** 12 + 7):
        coarse = _enclose(_ln_grid, x, COARSE_EPS)
        mid = _enclose(_ln_grid, x, DEFAULT_EPS)
        fine = _enclose(_ln_grid, x, FINE_EPS)
        assert coarse[0] <= mid[0] <= fine[0]
        assert fine[1] <= mid[1] <= coarse[1]


_ANY_EPS = st.fractions(Fraction(1, 10 ** 18), Fraction(999, 1000), max_denominator=10 ** 18)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 40), _ANY_EPS, _ANY_EPS)
def test_ln_and_sqrt_nest_for_any_two_eps(x, eps_a, eps_b):
    # not only at the tiers: at 3e-7 and 1e-6 an eps/4 grid would not nest,
    # and ln 6 at 3e-7 would reach above ln 6 at 1e-6
    fine_eps, coarse_eps = sorted((eps_a, eps_b))
    for grid in (_ln_grid, _sqrt_grid):
        fine, coarse = _enclose(grid, x, fine_eps), _enclose(grid, x, coarse_eps)
        assert coarse[0] <= fine[0] and fine[1] <= coarse[1], (grid.__name__, x, fine_eps, coarse_eps)
        assert fine[1] - fine[0] <= fine_eps
    assert _enclose(_ln_grid, 6, Fraction(3, 10 ** 7))[1] <= _enclose(_ln_grid, 6, COARSE_EPS)[1]


def test_ln_monotone_in_argument():
    prev = _enclose(_ln_grid, 1, DEFAULT_EPS)
    for x in (2, 3, 5, 17, 400):
        cur = _enclose(_ln_grid, x, DEFAULT_EPS)
        assert cur[1] > prev[0]
        prev = cur


def test_ln_additivity_within_width():
    lhs = _enclose(_ln_grid, 6, FINE_EPS)
    ln2, ln3 = _enclose(_ln_grid, 2, FINE_EPS), _enclose(_ln_grid, 3, FINE_EPS)
    assert lhs[0] <= ln2[1] + ln3[1] and ln2[0] + ln3[0] <= lhs[1]


def test_ln_domain():
    # ln is enclosed only for arguments >= 1: a product refuses a log factor
    # below 1 before any enclosure is formed, and ln 1 encloses 0
    for arg in (Fraction(1, 2), Fraction(0)):
        with pytest.raises(InternalCheckError, match="needs arg >= 1"):
            SymbolicProduct(Fraction(1), log_factors=(LogFactor(Fraction(1), arg, Fraction(1), 1),))
    lo, hi = _enclose(_ln_grid, Fraction(1), DEFAULT_EPS)
    assert lo <= 0 <= hi


def test_sqrt_certified():
    for x in (0, 2, 3, 7, 163, Fraction(1, 4)):
        for eps in (COARSE_EPS, DEFAULT_EPS):
            lo, hi = _enclose(_sqrt_grid, x, eps)
            assert lo * lo <= x <= hi * hi
            assert hi - lo <= eps
    lo, hi = _enclose(_sqrt_grid, 49, DEFAULT_EPS)
    assert lo <= 7 <= hi


@pytest.mark.parametrize("eps", [COARSE_EPS, DEFAULT_EPS, FINE_EPS, Fraction(1, 10 ** 18), Fraction(3, 10 ** 7),
                                 Fraction(1, 3), Fraction(999, 10 ** 9), Fraction(7, 10 ** 18)])
def test_sqrt_grid_is_the_least_power_of_ten_below_eps(eps):
    # the width is 10^-s for the s the Fraction comparison picked before
    s = 1
    while Fraction(1, 10 ** s) > eps:
        s += 1
    for x in (2, 163, Fraction(1, 4), 10 ** 30 + 7):
        lo, hi = _enclose(_sqrt_grid, x, eps)
        assert hi - lo == Fraction(1, 10 ** s)


def test_sqrt_domain():
    # sqrt is enclosed only for arguments >= 0: a product refuses a sqrt
    # argument below 1, the integer square root refuses a negative one, and
    # sqrt 0 encloses 0
    for arg in (-1, 0):
        with pytest.raises(InternalCheckError, match="sqrt argument"):
            SymbolicProduct(Fraction(1), sqrt_arg=arg)
    with pytest.raises(ValueError):
        _sqrt_grid(Fraction(-1), _decimal_places(DEFAULT_EPS))
    lo, hi = _enclose(_sqrt_grid, Fraction(0), DEFAULT_EPS)
    assert lo <= 0 <= hi


def test_pi_tiers_are_shared_brackets():
    # every eps of a tier reads the one integer triple of that tier
    assert _pi_tier(COARSE_EPS) is _pi_tier(Fraction(1, 2))
    assert _pi_tier(DEFAULT_EPS) is _pi_tier(Fraction(1, 10 ** 18))
    assert fractions(*_pi_tier(COARSE_EPS)) == (Fraction(355, 113) * (1 - COARSE_EPS), Fraction(355, 113))


def test_pi_tier_switches_at_coarse_eps():
    assert _pi_tier(Fraction(1, 2)) == _pi_tier(COARSE_EPS)
    assert _pi_tier(COARSE_EPS - Fraction(1, 10 ** 18)) == _pi_tier(DEFAULT_EPS) == _pi_tier(Fraction(1, 10 ** 18))
    assert _pi_tier(DEFAULT_EPS) != _pi_tier(COARSE_EPS)


def test_eps_range_validation():
    for eps in (Fraction(1, 10 ** 19), Fraction(2), Fraction(1), Fraction(0), Fraction(-1, 10 ** 9)):
        with pytest.raises(ValueError, match="eps must lie in"):
            check_eps(eps)
    assert check_eps(Fraction(1, 10 ** 18)) == Fraction(1, 10 ** 18)
    assert check_eps(Fraction(999, 1000)) == Fraction(999, 1000)


def test_ln_memory_stays_bounded(capsys):
    # a long-lived process sees ever new ln arguments; it keeps no growing
    # store of them, and an argument seen long ago gets the same enclosure again
    first = _enclose(_ln_grid, 10 ** 6 + 1, DEFAULT_EPS)
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
    assert _enclose(_ln_grid, 10 ** 6 + 1, DEFAULT_EPS) == first


def _ln_atanh(y: Fraction, delta: Fraction) -> tuple[Fraction, Fraction]:
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
            return total, total + tail


_ORACLE = Fraction(1, 10 ** 60)
_ORACLE_BITS = 256


def _ln_oracle(x: Fraction) -> tuple[Fraction, Fraction]:
    # ln x within _ORACLE: halve x into y in [1, 2), then, since ln is
    # increasing, enclose ln y by the series at the 2^-256 grid points on
    # either side of y, which keeps the series' rationals short
    k, y = 0, x
    while y >= 2:
        y /= 2
        k += 1
    one = 1 << _ORACLE_BITS
    below = (y * one).__floor__()
    lo = _ln_atanh(Fraction(below, one), _ORACLE / 4)[0]
    hi = _ln_atanh(min(Fraction(-(-y * one).__floor__(), one), Fraction(2)), _ORACLE / 4)[1]
    if k:
        ln2_lo, ln2_hi = _ln_atanh(Fraction(2), _ORACLE / (4 * k))
        lo, hi = lo + k * ln2_lo, hi + k * ln2_hi
    return lo, hi


def _assert_master_encloses_oracle(x: Fraction):
    # the master enclosure is an integer pair over 2^_LN2_BITS
    (lo, hi), (oracle_lo, oracle_hi) = fractions(*rounding._ln_master(x), 1 << rounding._LN2_BITS), _ln_oracle(x)
    assert oracle_hi - oracle_lo <= _ORACLE
    assert lo <= oracle_lo and oracle_hi <= hi, x
    assert hi - lo <= rounding._LN_MASTER, x


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
