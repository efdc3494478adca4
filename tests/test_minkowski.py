"""The degree-bound constants M(n) and the algebraic Brauer bound built on them."""

import time
from math import prod

import pytest
from hypothesis import given, strategies as st
from sympy import primerange

from cmbrauer.errors import MAX_DIGITS, BudgetError
from cmbrauer.minkowski import MAX_MINKOWSKI_N, MinkowskiConstant, algebraic_brauer_bound, minkowski_M


def _exponent(n: int, p: int) -> int:
    # sum over i >= 0 of floor(n / (p^i (p-1)))
    total, q = 0, p - 1
    while q <= n:
        total += n // q
        q *= p
    return total


def test_small_values():
    assert minkowski_M(1).value == 2
    assert minkowski_M(2).value == 24
    assert minkowski_M(3).value == 48
    assert minkowski_M(4).value == 5760


def test_m20_factorization():
    m = minkowski_M(20)
    assert dict(m.factorization) == {2: 38, 3: 14, 5: 6, 7: 3, 11: 2, 13: 1, 17: 1, 19: 1}
    assert m.value == 2**38 * 3**14 * 5**6 * 7**3 * 11**2 * 13 * 17 * 19


def test_m18_factorization():
    m = minkowski_M(18)
    assert dict(m.factorization) == {2: 34, 3: 13, 5: 4, 7: 3, 11: 1, 13: 1, 17: 1, 19: 1}


@given(st.integers(min_value=1, max_value=60))
def test_exponents_match_definition(n):
    m = minkowski_M(n)
    for p, e in m.factorization:
        assert e == _exponent(n, p)
        assert e >= 1
    # exactly the primes p <= n + 1 appear (p - 1 <= n gives a positive exponent)
    assert [p for p, _ in m.factorization] == list(primerange(2, n + 2))


@given(st.integers(min_value=1, max_value=40))
def test_divisibility_chain(n):
    # exponents are monotone in n, so M(n) | M(n+1)
    assert minkowski_M(n + 1).value % minkowski_M(n).value == 0


def test_n_past_the_digit_limit_is_refused():
    # by the oracle, M(1332) is past the render limit
    assert prod(p ** _exponent(1332, p) for p in primerange(2, 1334)) >= 10 ** MAX_DIGITS
    assert MAX_MINKOWSKI_N == 1331
    assert len(str(minkowski_M(1331).value)) == 4294
    for n in (1332, 10 ** 6):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="more than 4300 digits"):
            minkowski_M(n)
        assert time.perf_counter() - start < 0.2, n


def test_constant_consistency_assert():
    with pytest.raises(AssertionError):
        MinkowskiConstant(n=1, value=3, factorization=((2, 1),))


def test_algebraic_brauer_bound():
    assert algebraic_brauer_bound(1) == 2
    assert algebraic_brauer_bound(2) == 24 ** 2
    assert algebraic_brauer_bound(20) == minkowski_M(20).value ** 20
    for bad in (0, 21, -1):
        with pytest.raises(ValueError):
            algebraic_brauer_bound(bad)
