"""Transcendental Brauer structure of E x E: maximal-order shapes, non-maximal
order bounds, and the divisibility / uniform bounds."""

import time

import pytest
from hypothesis import given, settings, strategies as st
from sympy import primerange
from sympy.functions.combinatorial.numbers import kronecker_symbol as sympy_kronecker

from cmbrauer.brauer import (
    BrauerShape,
    GaloisFlags,
    MValuation,
    brauer_order_bound_nonmaximal,
    brauer_shape_maximal,
    divisibility_bound,
    fixed_endomorphisms,
    geometric_brauer_invariants_order,
    uniform_bound_EE,
)
from cmbrauer.errors import BudgetError
from cmbrauer.quadratic import is_fundamental_discriminant


def test_shape_clause_K_in_k():
    for ell in (2, 3, 5):
        for m in (0, 1, 2, 3):
            shape = brauer_shape_maximal(ell, m, GaloisFlags(True, False))
            expected = (ell ** m, ell ** m) if m else ()
            assert shape.cyclic_factors == expected
            assert shape.order == ell ** (2 * m)


def test_shape_clause_two_torsion():
    for m in (1, 2, 3):
        shape = brauer_shape_maximal(2, m, GaloisFlags(False, True))
        assert shape.cyclic_factors == (2 ** m, 2)
        assert shape.order == 2 ** (m + 1)
    # the two-torsion clause only fires at ell = 2
    shape = brauer_shape_maximal(3, 2, GaloisFlags(False, True))
    assert shape.cyclic_factors == (9,)


def test_shape_clause_generic():
    for ell in (2, 3, 7):
        for m in (0, 1, 2):
            shape = brauer_shape_maximal(ell, m, GaloisFlags(False, False))
            assert shape.cyclic_factors == ((ell ** m,) if m else ())


def test_shape_requires_positive_m_with_rational_two_torsion():
    with pytest.raises(ValueError):
        brauer_shape_maximal(2, 0, GaloisFlags(False, True))


def test_shape_rejects_bad_inputs():
    with pytest.raises(ValueError):
        brauer_shape_maximal(4, 1, GaloisFlags(True, False))
    with pytest.raises(ValueError):
        brauer_shape_maximal(3, -1, GaloisFlags(True, False))


def test_brauer_shape_rank_cap():
    for pairs in (((2, 2), (2, 1), (2, 3)),  # rank 3 at one prime
                  ((6, 1),),  # not a prime
                  ((3, 0),)):  # trivial factor
        with pytest.raises(AssertionError):
            BrauerShape(pairs)
    shape = BrauerShape(((2, 2), (2, 1), (3, 2)))
    assert shape.cyclic_factors == (4, 2, 9) and shape.order == 72


def test_fixed_endomorphisms_cases():
    assert fixed_endomorphisms(1, -4, 6, True) == (6, 6)
    assert fixed_endomorphisms(1, -4, 6, False) == (6, 2)
    assert fixed_endomorphisms(1, -7, 6, False) == (6,)
    assert fixed_endomorphisms(2, -7, 6, False) == (6, 2)
    assert fixed_endomorphisms(1, -4, 3, False) == (3,)
    assert fixed_endomorphisms(1, -4, 1, True) == ()


def test_nonmaximal_orders():
    assert brauer_order_bound_nonmaximal(3, 3, 1, GaloisFlags(True, False), -4) == 81
    assert brauer_order_bound_nonmaximal(5, 5, 0, GaloisFlags(False, False), -4) == 5
    assert brauer_order_bound_nonmaximal(2, 2, 1, GaloisFlags(False, True), -7) == 8
    assert brauer_order_bound_nonmaximal(2, 1, 1, GaloisFlags(False, True), -8) == 4
    # odd Delta and even conductor, upstairs two-torsion not rational: no +1
    assert brauer_order_bound_nonmaximal(2, 2, 1, GaloisFlags(False, True), -7, True) == 8
    # even Delta with the same flag gains the extra factor of 2
    assert brauer_order_bound_nonmaximal(2, 2, 1, GaloisFlags(False, True), -8, True) == 16


def test_nonmaximal_reduces_to_maximal_at_f_one():
    flag_grid = [GaloisFlags(a, b) for a in (False, True) for b in (False, True)]
    for ell in (2, 3, 5):
        for m in (0, 1, 2):
            for flags in flag_grid:
                if flags.two_torsion_rational and not flags.K_in_k and ell == 2 and m == 0:
                    continue  # maximal shape needs m >= 1 there
                dk = -8 if (flags.two_torsion_rational and not flags.K_in_k) else -7
                try:
                    shape = brauer_shape_maximal(ell, m, flags)
                except ValueError:
                    continue
                assert brauer_order_bound_nonmaximal(ell, 1, m, flags, dk) == shape.order


def test_nonmaximal_rejects_inconsistent_flags():
    # rational 2-torsion with K not in k needs 2 | f * Delta_K
    with pytest.raises(ValueError):
        brauer_order_bound_nonmaximal(2, 1, 0, GaloisFlags(False, True), -7)
    # odd-degree isogeny carries rational 2-torsion up to the maximal curve
    with pytest.raises(ValueError):
        brauer_order_bound_nonmaximal(2, 1, 1, GaloisFlags(False, True), -8, True)


def test_divisibility_bound_values():
    assert divisibility_bound(1, 2, -20) == 288
    assert divisibility_bound(1, 1, -4) == 8
    assert divisibility_bound(3, 2, -8) == 2592
    assert divisibility_bound(1, 1, -163) == 2


def test_divisibility_bound_prime_cutoff():
    # contributing primes ell satisfy ell - chi | u * d with ell - chi >= ell - 1
    for dk in (-4, -8, -20):
        for d in (1, 2, 3):
            base = 2 * d ** 4
            v = divisibility_bound(1, d, dk)
            assert v % base == 0
            ratio = v // base
            for p in primerange(6 * d + 2, 6 * d + 50):
                assert ratio % p != 0


def _divisibility_by_prime_walk(f, d, dk):
    # the definition read directly: every prime up to 6d + 1, since
    # ell - chi(ell) >= ell - 1 must divide u * d <= 6d
    u = {-4: 2, -3: 3}.get(dk, 1)
    out = 2 * f * f * d ** 4
    for ell in primerange(2, 6 * d + 2):
        if d % ell and (u * d) % (ell - sympy_kronecker(dk, ell)) == 0:
            out *= ell * ell
    return out


def test_divisibility_bound_matches_the_prime_walk():
    for dk in (-3, -4, -7, -8, -11, -15, -20, -23, -163, -420):
        for d in range(1, 400):
            assert divisibility_bound(1, d, dk) == _divisibility_by_prime_walk(1, d, dk), (d, dk)
    for d in (720, 5040, 55440):
        assert divisibility_bound(2, d, -3) == _divisibility_by_prime_walk(2, d, -3), d


def test_divisibility_bound_large_degree_is_prompt():
    # the cost is set by the divisors of u*d, not by the size of d
    start = time.perf_counter()
    for d in (10 ** 6, 10 ** 15, 2 ** 60, 10 ** 18 + 9):
        assert divisibility_bound(1, d, -4) % (2 * d ** 4) == 0
    assert time.perf_counter() - start < 0.5
    # a degree with a prime factor past psi_13 cannot be factored with a proof
    with pytest.raises(BudgetError):
        divisibility_bound(1, 2 ** 89 - 1, -4)


def test_divisibility_bound_conductor_scaling():
    for f in (1, 2, 3, 5):
        assert divisibility_bound(f, 2, -20) == f * f * divisibility_bound(1, 2, -20)


def test_uniform_bound_degree_one_table():
    assert uniform_bound_EE(None, 1, -7) == 4
    assert uniform_bound_EE(None, 1, -4) == 8
    assert uniform_bound_EE(None, 1, -3) == 9
    assert uniform_bound_EE(None, 1, -8) == 1
    assert uniform_bound_EE(None, 1, -163) == 1
    assert uniform_bound_EE(3, 1, -8) == 1   # the degree-1 table ignores f


def test_uniform_bound_higher_degree():
    assert uniform_bound_EE(3, 2, -4) == 9 * 16
    assert uniform_bound_EE(1, 5, -11) == 5 ** 4
    assert uniform_bound_EE(None, 2, -4) == 2 ** 8
    assert uniform_bound_EE(None, 3, -163) == 3 ** 8


def test_geometric_invariants_order():
    assert geometric_brauer_invariants_order(-4, MValuation(((2, 1), (3, 1)))) == 4 * 36
    assert geometric_brauer_invariants_order(-3, MValuation()) == 3
    assert geometric_brauer_invariants_order(-7, MValuation(((5, 2),))) == 7 * 625


def test_mvaluation_validation():
    assert MValuation(((2, 3), (5, 1))).c == 40
    with pytest.raises(ValueError):
        MValuation(((4, 1),))
    with pytest.raises(ValueError):
        MValuation(((3, -1),))
    with pytest.raises(AssertionError):
        MValuation(((3, 1), (3, 2)))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=-200, max_value=-3),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.booleans(),
)
def test_shape_order_divides_divisibility_bound(dk, d, ell, m, k_in_k, two_tors):
    """Sampled version of the structural consistency check: on inputs realizable
    by an actual curve, the maximal-order shape order divides the divisibility
    bound at the same degree."""
    if not is_fundamental_discriminant(dk):
        return
    from cmbrauer.quadratic import FundamentalDiscriminant, Order, class_number_order

    flags = GaloisFlags(k_in_k, two_tors)
    # realizability: the ring class field K_{ell^m} embeds in kK
    if k_in_k and d % 2 != 0:
        return
    kk_over_k = d // 2 if k_in_k else d
    if m > 0:
        h = class_number_order(Order(FundamentalDiscriminant(dk), ell ** m))
        if kk_over_k % h != 0:
            return
    if two_tors and not k_in_k:
        if dk % 2 != 0:
            return
        if ell == 2 and m == 0:
            return
    shape = brauer_shape_maximal(ell, m, flags)
    assert divisibility_bound(1, d, dk) % shape.order == 0
