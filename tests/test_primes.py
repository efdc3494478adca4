"""The in-house prime toolkit against sympy, which serves as the independent
oracle.  From psi_13 on, where sympy's isprime is the BPSW probable-prime test,
the toolkit gives sympy's "composite" or refuses, and never says "prime"."""

import subprocess
import sys
import textwrap
import tracemalloc
from itertools import islice
from math import prod

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cmbrauer import primes
from cmbrauer.errors import BudgetError
from cmbrauer.primes import PSI, PSI_13, divisors, factorint, isprime, primerange, sqrt_mod, square_part

# strong pseudoprimes to the first 1, 2, 3, 4, 9 and 12 prime bases (psi_1 .. psi_12)
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 3825123056546413051,
                       318665857834031151167461)
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 63973, 75361,
              101101, 126217, 294409, 56052361, 118901521, 172947529, 216821881)


def check_against_sympy(n):
    # sympy's verdict below psi_13; from there on sympy's False or a refusal
    try:
        verdict = isprime(n)
    except BudgetError:
        assert n >= PSI_13, n
        return
    assert verdict == sympy.isprime(n) and not (verdict and n >= PSI_13), n


def test_isprime_matches_sympy_up_to_2e5():
    assert [n for n in range(200_001) if isprime(n) != sympy.isprime(n)] == []


def test_isprime_rejects_negatives():
    assert not any(isprime(n) for n in (-1, -2, -7, -(2 ** 61 - 1)))


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + CARMICHAEL)
def test_pseudoprimes_read_composite(n):
    assert not sympy.isprime(n)
    assert not isprime(n)


def test_carmichael_list_is_carmichael():
    # Korselt: squarefree, at least three prime factors, p - 1 | n - 1 for each
    for n in CARMICHAEL:
        f = sympy.factorint(n)
        assert len(f) >= 3 and set(f.values()) == {1}
        assert all((n - 1) % (p - 1) == 0 for p in f)


@pytest.mark.parametrize("k", range(1, 14))
def test_isprime_at_each_base_count_boundary(k):
    # isprime uses the first k bases below psi_k and k + 1 from psi_k on
    psi = PSI[k - 1]
    assert not sympy.isprime(psi)
    for n in range(psi - 2, psi + 3):
        check_against_sympy(n)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=PSI_13, max_value=2 ** 256))
def test_isprime_past_psi13_is_sympys_composite_or_a_refusal(n):
    check_against_sympy(n)


def test_psi_table_is_the_strong_pseudoprime_sequence():
    # psi_k passes the first k bases; the last of them is needed below psi_13
    assert PSI == tuple(sorted(PSI)) and PSI[-1] == PSI_13
    for k, psi in enumerate(PSI, start=1):
        d, s = psi - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in primes._BASES[:k]:
            x = pow(a, d, psi)
            assert x in (1, psi - 1) or any(pow(x, 2 ** r, psi) == psi - 1 for r in range(1, s)), (k, a)


def test_sqrt_mod_small_primes():
    for p in primerange(3, 700):
        for a in range(1, p):
            if pow(a, (p - 1) // 2, p) == 1:
                assert sqrt_mod(a, p) ** 2 % p == a, (a, p)
    for p in (10 ** 9 + 7, 2 ** 61 - 1, 998244353):       # 998244353 - 1 = 2^23 * 119
        for a in (2, 3, 5, 12345):
            if pow(a, (p - 1) // 2, p) == 1:
                assert sqrt_mod(a, p) ** 2 % p == a


def test_psi13_and_primes_past_it_are_refused():
    # psi_13 fools all 13 bases, and no proven test past them runs here: like
    # the primes 2^89 - 1 and 2^107 - 1 it is refused, while 3 | 2^89 + 1 decides
    assert primes._miller_rabin(PSI_13)
    for n in (PSI_13, 2 ** 89 - 1, 2 ** 107 - 1):
        with pytest.raises(BudgetError, match="psi_13"):
            isprime(n)
    assert not isprime(2 ** 89 + 1)


@pytest.mark.parametrize("a,b", [
    (0, 100), (-5, 3), (2, 2), (7, 3), (65000, 65536), (65521, 65538), (65530, 70000),
    (65536, 65536 * 4 + 17), (3 * 65536 - 50, 3 * 65536 + 50), (10 ** 6, 10 ** 6 + 200_000),
    (2 ** 32 - 3000, 2 ** 32 + 3000),
])
def test_primerange_matches_sympy(a, b):
    assert list(primerange(a, b)) == list(sympy.primerange(a, b))


def test_primerange_memory_stays_bounded_near_1e10():
    tracemalloc.start()
    try:
        head = list(islice(primerange(10 ** 10 - 1000, 10 ** 10), 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert head == list(islice(sympy.primerange(10 ** 10 - 1000, 10 ** 10), 5))
    assert peak < 4 * 2 ** 20


def check_factorization(n):
    f = factorint(n)
    assert prod(p ** e for p, e in f.items()) == n
    assert list(f) == sorted(f)
    assert all(e >= 1 and sympy.isprime(p) for p, e in f.items())
    return f


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 12))
def test_factorint_round_trip(n):
    assert check_factorization(n) == sympy.factorint(n)


@pytest.mark.parametrize("n", [
    1, 2, 65521, 65521 ** 2, 65537 ** 3, 65521 * 65537, (2 ** 31 - 1) * (2 ** 61 - 1),
    (10 ** 9 + 7) ** 2 * (10 ** 9 + 9), 2 ** 64 + 1, 3 * PSI_13, 2 ** 89 - 1,
])
def test_factorint_hard_shapes(n):
    # the cofactor that trial division by the table primes leaves decides
    f = sympy.factorint(n)
    if prod(p ** e for p, e in f.items() if p >= 2 ** 16) >= PSI_13:
        with pytest.raises(BudgetError, match="psi_13"):
            factorint(n)
    else:
        assert check_factorization(n) == f


def test_factorint_rejects_nonpositive():
    for n in (0, -12):
        with pytest.raises(ValueError):
            factorint(n)


def sympy_square_part(n):
    return prod(p ** (e // 2) for p, e in sympy.factorint(n).items())


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 18))
def test_square_part_matches_sympy(n):
    assert square_part(n) == sympy_square_part(n)


# the largest table prime, and the primes just past the table
P16, Q16, R16 = 65521, 65537, 65539
# the first prime of each block of 16 table primes that square_part takes a gcd with
FIRSTS = primes._PRIMES[::16]


def _block_edges():
    # at a block's first prime p0: p0^3 reaches the block, p0^3 - 1 stops before
    # it; q^2 for the next block's first prime q, and the product of the primes
    # on either side of the edge
    cases = [(2 ** 60, False), (3 ** 37, False)]
    for k in (0, 1, 2, 3, 200, len(FIRSTS) - 2):
        p0, q = FIRSTS[k], FIRSTS[k + 1]
        cases += [(p0 ** 3, False), (p0 ** 3 - 1, False), (q ** 2, False),
                  (primes._PRIMES[16 * k + 15] * q, False), (p0 ** 2 * q, False)]
    # the last block divides out p0^3, and what the whole table leaves, 1, is factored
    cases += [(FIRSTS[-1] ** 3, True), (FIRSTS[-1] ** 3 - 1, False)]
    return cases


def test_square_part_blocks_hold_each_table_prime_once():
    table = primes._block_table()
    assert [cube for cube, _ in table] == [p ** 3 for p in FIRSTS]
    assert prod(block for _, block in table) == prod(primes._PRIMES)


@pytest.mark.parametrize("n, fallback", [
    (1, False), (P16, False), (1000003, False), (1000003 ** 2, False), (P16 ** 2, False),
    # p*q with both primes past the cube root: the cofactor test tells it from q^2
    (1009 * 1013, False), (P16 * Q16, False), (1000003 * 1000033, False),
    # p^2*q: p divided out with p^3 <= n, then q left; or q divided out, then p^2 left
    (1009 ** 2 * 1013, False), (1009 * 1013 ** 2, False), (3 * 1000003 ** 2, False),
    (2 ** 5 * 3 ** 4 * 1000003 ** 2, False),
    # a cofactor at or past 65521^3 with no table prime in it: factorint decides;
    # at 65521^3 the table runs out as 65521 itself is divided out
    (P16 ** 3, True),
    (1000003 * 1000033 * 1000037, True), (Q16 ** 2 * R16, True), (Q16 ** 3, True),
    (Q16 ** 4, True), (4 * (1000003 * 1000033) ** 2, True),
    *_block_edges(),
])
def test_square_part_named(n, fallback, monkeypatch):
    calls = []
    monkeypatch.setattr(primes, "factorint", lambda m: calls.append(m) or factorint(m))
    assert square_part(n) == sympy_square_part(n)
    assert bool(calls) == fallback


def test_square_part_rejects_nonpositive():
    for n in (0, -4):
        with pytest.raises(ValueError):
            square_part(n)


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 18))
def test_prime_factors_are_sympys_keys(n):
    found = primes._prime_factors(n)
    assert type(found) is list and found == sorted(sympy.factorint(n))


def test_prime_factors_refuse_past_psi13_when_called():
    # a list, so the refusal comes from the call itself, before any prime is read
    for n in (2 ** 89 - 1, 6 * (2 ** 89 - 1), 3 * PSI_13):
        with pytest.raises(BudgetError, match="psi_13"):
            primes._prime_factors(n)


def test_divisors_match_sympy():
    for n in range(1, 2001):
        assert divisors(n) == sympy.divisors(n)


_WRONG_ARITHMETIC = textwrap.dedent("""
    from fractions import Fraction
    from cmbrauer import brauer, minkowski, quadratic, rounding

    def raises_internal(call):
        try:
            call()
        except quadratic.InternalCheckError:
            return True
        return False

    quadratic.square_part = lambda n: 1
    minkowski.primerange = lambda a, b: iter([2, b + 5])
    checks = [
        raises_internal(lambda: quadratic.fundamental_discriminant(-12)),
        raises_internal(lambda: minkowski.minkowski_M(4)),
        raises_internal(lambda: minkowski.MinkowskiConstant(2, 25, ((2, 3),))),
        raises_internal(lambda: brauer.BrauerShape(((6, 1),))),
        raises_internal(lambda: brauer.BrauerShape(((3, 2), (3, 1), (3, 3)))),
        raises_internal(lambda: brauer.BrauerShape(((2, 0),))),
    ]
    # a series too coarse for its promised width is caught, not returned
    rounding._B = 16
    checks += [raises_internal(lambda: rounding._ln_master(Fraction(3)))]
    print(checks)
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_checks_on_a_wrong_factorization_survive_python_O(flags):
    out = subprocess.run([sys.executable, *flags, "-c", _WRONG_ARITHMETIC],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == str([True] * 7)
