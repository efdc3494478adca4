"""Structure and order of the transcendental Brauer group of E x E for a CM
elliptic curve E: the exact shapes in the maximal-order case, order bounds in
the non-maximal case, and the divisibility / uniform bounds they feed.
Only the functions that take a discriminant import quadratic, so the shapes
load none of it."""

from __future__ import annotations

from math import prod

from .errors import BudgetError, Frozen, InternalCheckError, bounded_digits, bounded_power
from .primes import _ord, divisors, factorint, isprime


class GaloisFlags(Frozen):
    """Galois data of the base field k: whether K sits inside k, and whether
    the 2-torsion of E is k-rational."""

    __slots__ = ("K_in_k", "two_torsion_rational")

    def __init__(self, K_in_k: bool, two_torsion_rational: bool):
        object.__setattr__(self, "K_in_k", K_in_k)
        object.__setattr__(self, "two_torsion_rational", two_torsion_rational)

    def check_two_torsion_consistency(self, f: int, delta_k: int) -> None:
        # rational 2-torsion with K outside k forces 2 | f * Delta_K
        if not self.K_in_k and self.two_torsion_rational and (f * delta_k) % 2 != 0:
            raise ValueError(
                f"rational 2-torsion with K not in k needs 2 | f*Delta_K, got f={f}, Delta_K={delta_k}"
            )


class BrauerShape(Frozen):
    """Finite abelian group with at most two cyclic factors at each prime, as
    (prime, exponent) pairs: ((p, e), ...) is the product of the Z/p^e."""

    __slots__ = ("prime_powers",)

    def __init__(self, prime_powers: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "prime_powers", prime_powers)
        for p, e in self.prime_powers:
            if not isprime(p) or e < 1:
                raise InternalCheckError(f"factor Z/{p}^{e} of {self.prime_powers} is not a nontrivial prime power")
        primes = [p for p, _ in self.prime_powers]
        if any(primes.count(p) > 2 for p in primes):
            raise InternalCheckError(f"{self.prime_powers} has rank above 2 at some prime")

    @property
    def cyclic_factors(self) -> tuple[int, ...]:
        return tuple(p ** e for p, e in self.prime_powers)

    @property
    def order(self) -> int:
        return prod(self.cyclic_factors)


class MValuation(Frozen):
    """Map ell -> m_ell with the combined conductor c = prod ell^m_ell."""

    __slots__ = ("valuations",)

    def __init__(self, valuations: tuple[tuple[int, int], ...] = ()):
        object.__setattr__(self, "valuations", valuations)
        for ell, m in self.valuations:
            if not isprime(ell):
                raise ValueError(f"valuation key {ell} is not prime")
            if m < 0:
                raise ValueError(f"valuation at {ell} must be nonnegative, got {m}")
        ells = [ell for ell, _ in self.valuations]
        if len(set(ells)) != len(ells):
            raise InternalCheckError(f"duplicate primes in valuation map {self.valuations}")

    @property
    def c(self) -> int:
        return prod(ell ** m for ell, m in self.valuations)


def brauer_shape_maximal(ell: int, m: int, flags: GaloisFlags) -> BrauerShape:
    """ell-primary part of Br(E x E)/Br_1 for E with CM by the maximal order:
    (Z/ell^m)^2 if K in k; Z/2^m x Z/2 if K not in k, ell = 2, rational
    2-torsion; Z/ell^m otherwise."""
    if not isprime(ell):
        raise ValueError(f"ell must be prime, got {ell}")
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if flags.K_in_k:
        exponents = (m, m)
    elif ell == 2 and flags.two_torsion_rational:
        if m < 1:
            raise ValueError("rational 2-torsion forces m >= 1 at ell = 2")
        exponents = (m, 1)
    else:
        exponents = (m,)
    # the order is the largest value of the shape: refuse it before any power is formed
    bounded_power(ell, sum(exponents), f"the order at ell = {ell}, m = {m}")
    return BrauerShape(tuple((ell, e) for e in exponents if e))


def fixed_endomorphisms(f: int, delta_k: int, n: int, K_in_k: bool) -> tuple[int, ...]:
    """Galois-fixed part of End x Z/n as a tuple of cyclic orders:
    (n, n) if K in k; (n, 2) if 2 | f*Delta_K and 2 | n; else (n,)."""
    from .quadratic import FundamentalDiscriminant
    FundamentalDiscriminant(delta_k)
    if f < 1 or n < 1:
        raise ValueError(f"need f >= 1 and n >= 1, got {(f, n)}")
    if K_in_k:
        factors = (n, n)
    elif (f * delta_k) % 2 == 0 and n % 2 == 0:
        factors = (n, 2)
    else:
        factors = (n,)
    return tuple(q for q in factors if q > 1)


def brauer_order_bound_nonmaximal(
    ell: int,
    f: int,
    m_prime: int,
    flags: GaloisFlags,
    delta_k: int,
    isogenous_two_torsion_nonrational: bool = False,
) -> int:
    """Max order of the ell-part of Br(E x E)/Br_1 for E with CM by the order
    of conductor f, from m_prime = m_ell of the maximal-order isogenous curve.

    K in k: ell^(2(m' + ord_ell f)).  Otherwise ell^(m' + ord_ell f), except
    ell = 2 with rational 2-torsion, where the group is Z/2^a x Z/2 with
    a <= m' + ord_2 f + 1, and the +1 drops unless 2 | Delta_K and the
    2-torsion of the maximal-order curve is not k-rational (a fact about
    curve data, so it is an explicit input flag).
    """
    from .quadratic import FundamentalDiscriminant
    if not isprime(ell):
        raise ValueError(f"ell must be prime, got {ell}")
    if f < 1 or m_prime < 0:
        raise ValueError(f"need f >= 1 and m_prime >= 0, got {(f, m_prime)}")
    FundamentalDiscriminant(delta_k)
    flags.check_two_torsion_consistency(f, delta_k)
    v = _ord(ell, f)
    if flags.K_in_k:
        return ell ** (2 * (m_prime + v))
    if ell == 2 and flags.two_torsion_rational:
        if f % 2 != 0 and isogenous_two_torsion_nonrational:
            # odd-degree isogeny transports rational 2-torsion to the maximal curve
            raise ValueError("f odd and E[2] = E[2](k) contradict nonrational 2-torsion upstairs")
        a = m_prime + v
        if delta_k % 2 == 0 and isogenous_two_torsion_nonrational:
            a += 1
        return 2 ** (a + 1)
    return ell ** (m_prime + v)


# the divisor walk costs about 15 us a divisor, so a walk at the cap takes about a second
MAX_DIVISORS = 2 ** 16


def divisibility_bound(f: int, d: int, delta_k: int) -> int:
    """2 f^2 d^4 * prod ell^2 over primes ell not dividing d with
    (ell - (Delta_K/ell)) | unit_index(ell) * d; the order of the
    transcendental Brauer group divides this.  A bound past MAX_DIGITS
    digits, or a u*d with more than MAX_DIVISORS divisors, is refused."""
    from .quadratic import FundamentalDiscriminant, _kronecker_prime, unit_index
    if f < 1 or d < 1:
        raise ValueError(f"need f >= 1 and d >= 1, got {(f, d)}")
    FundamentalDiscriminant(delta_k)
    what = "the divisibility bound"
    out = bounded_digits(2 * f * f * d ** 4, what)
    # the unit index is the same u at every ell >= 2, so ell - chi(ell) is a
    # divisor of u*d: ell = delta + chi over the divisors delta and chi in {-1, 0, 1}
    ud = unit_index(delta_k, 2) * d
    if (count := prod(e + 1 for e in factorint(ud).values())) > MAX_DIVISORS:
        raise BudgetError(f"u*d has {count} divisors, past the divisor walk's cap {MAX_DIVISORS}")
    for delta in divisors(ud):
        for chi in (-1, 0, 1):
            ell = delta + chi
            if ell > 1 and d % ell and isprime(ell) and _kronecker_prime(delta_k, ell) == chi:
                out = bounded_digits(out * ell * ell, what)
    return out


def uniform_bound_EE(f: int | None, d: int, delta_k: int) -> int:
    """Uniform bound on the order: at d = 1 the exact table (4 over Q(sqrt(-7)),
    8 over Q(i), 9 over Q(zeta_3), 1 otherwise); at d >= 2, f^2 d^4, or d^8
    when the conductor is unknown."""
    from .quadratic import FundamentalDiscriminant
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    FundamentalDiscriminant(delta_k)
    if d == 1:
        return {-7: 4, -4: 8, -3: 9}.get(delta_k, 1)
    if f is None:
        return d ** 8
    if f < 1:
        raise ValueError(f"conductor must be positive, got {f}")
    return f * f * d ** 4


def geometric_brauer_invariants_order(delta_k: int, m: MValuation) -> int:
    """|Delta_K| * c^2 for c = prod ell^m_ell: order of the Galois-fixed
    geometric Brauer group when E has CM by the maximal order."""
    from .quadratic import FundamentalDiscriminant
    FundamentalDiscriminant(delta_k)
    return abs(delta_k) * m.c ** 2


# the runners that cli.TABLE names
def _cli_brauer_shape(ell, m, k_in_k, two_torsion_rational):
    flags = GaloisFlags(K_in_k=k_in_k, two_torsion_rational=two_torsion_rational)
    shape = brauer_shape_maximal(ell, m, flags)
    return {"cyclic_factors": list(shape.cyclic_factors), "order": shape.order}


def _cli_divisibility(conductor, degree, delta_k):
    return {"bound": divisibility_bound(conductor, degree, delta_k)}
