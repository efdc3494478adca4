"""Hecke-character valuations for CM elliptic curves over Q: naive point
counts give the trace of Frobenius a_p, the character value psi(p) is
reconstructed from a_p in the ring of integers, and sampling its ell-adic
valuation over good ordinary primes yields a certified upper bound on the
largest n with psi values in Z + ell^n O_K."""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import NamedTuple

from .brauer import _ord
from .primes import isprime, primerange
from .quadratic import FundamentalDiscriminant

_POINT_COUNT_CAP = 10 ** 6


@dataclass(frozen=True)
class CurveOverQ:
    """Short Weierstrass curve y^2 = x^3 + a4 x + a6 over Q whose CM order
    discriminant the caller asserts (it is never derived from the model)."""

    a4: int
    a6: int
    cm_disc: int

    def __post_init__(self):
        if self.weierstrass_disc == 0:
            raise ValueError("singular model: 4*a4^3 + 27*a6^2 = 0")
        if self.cm_disc >= 0 or self.cm_disc % 4 not in (0, 1):
            raise ValueError(f"{self.cm_disc} is not an imaginary quadratic order discriminant")

    @property
    def weierstrass_disc(self) -> int:
        return 4 * self.a4 ** 3 + 27 * self.a6 ** 2

    def has_good_reduction(self, p: int) -> bool:
        # the residue-table count needs an odd p with the model nonsingular mod p
        return p != 2 and self.weierstrass_disc % p != 0


@dataclass(frozen=True)
class PsiValue:
    """Character value psi = x + y*omega, omega = (Delta_K + sqrt(Delta_K))/2,
    of norm p.  Conjugation flips the sign of the sqrt term; valuations of y
    do not see the difference."""

    x: int
    y: int
    p: int
    delta_k: int

    def __post_init__(self):
        assert self.norm == self.p, (self.x, self.y, self.p, self.delta_k)

    @property
    def trace(self) -> int:
        return 2 * self.x + self.y * self.delta_k

    @property
    def norm(self) -> int:
        # omega satisfies omega^2 - Delta*omega + (Delta^2 - Delta)/4 = 0
        d = self.delta_k
        return self.x ** 2 + self.x * self.y * d + self.y ** 2 * (d * d - d) // 4


def count_points_ap(curve: CurveOverQ, p: int) -> int:
    """Trace of Frobenius a_p = p + 1 - #E(F_p) by direct enumeration with a
    quadratic-residue table.  Rejects bad-reduction primes and p > 10^6."""
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    if p > _POINT_COUNT_CAP:
        raise ValueError(f"point-count budget is p <= {_POINT_COUNT_CAP}, got {p}")
    if not curve.has_good_reduction(p):
        raise ValueError(f"bad reduction at {p}")
    chi = [-1] * p
    chi[0] = 0
    for r in range(1, p):
        chi[r * r % p] = 1
    a4, a6 = curve.a4 % p, curve.a6 % p
    total = 0
    for x in range(p):
        total += chi[(x * x * x + a4 * x + a6) % p]
    return -total


def psi_from_ap(a_p: int, p: int, delta_k: int) -> PsiValue:
    """psi(p) = (a_p + t*sqrt(Delta_K))/2 in omega-coordinates, from
    a_p^2 - 4p = t^2 * Delta_K with t > 0.  One of the conjugate pair is
    returned; rejects supersingular a_p = 0 and traces that do not fit the
    asserted CM field."""
    FundamentalDiscriminant(delta_k)
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    if a_p == 0:
        raise ValueError("supersingular prime: a_p = 0 determines no character value")
    rhs = a_p * a_p - 4 * p
    if rhs >= 0 or rhs % delta_k != 0:
        raise ValueError(f"a_p^2 - 4p = {rhs} is not t^2 * {delta_k}")
    t = isqrt(rhs // delta_k)
    if t * t * delta_k != rhs:
        raise ValueError(f"a_p^2 - 4p = {rhs} is not t^2 * {delta_k}")
    # a_p and t*Delta share parity since a_p^2 = t^2 Delta mod 4
    x = (a_p - t * delta_k) // 2
    return PsiValue(x=x, y=t, p=p, delta_k=delta_k)


class MEstimate(NamedTuple):
    m_hat: int
    samples_used: int


def estimate_m(curve: CurveOverQ, ell: int, prime_budget: int) -> MEstimate:
    """Upper bound on m_ell(E) for E/Q with CM by the maximal order: the
    minimum of ord_ell(y) for psi(q) = x + y*omega over good ordinary primes
    q <= prime_budget, q != ell.

    Sampling bounds the true valuation only from above (the definition
    quantifies over all primes), so more budget can only tighten the result:
    the estimate is non-increasing in prime_budget.  Supersingular primes are
    skipped; a minimum of 0 ends the scan early since no later prime can go
    lower.
    """
    if not isprime(ell):
        raise ValueError(f"ell must be prime, got {ell}")
    if prime_budget < 1:
        raise ValueError(f"prime budget must be positive, got {prime_budget}")
    FundamentalDiscriminant(curve.cm_disc)
    best: int | None = None
    samples = 0
    for q in primerange(2, prime_budget + 1):
        if q == ell or not curve.has_good_reduction(q):
            continue
        a_q = count_points_ap(curve, q)
        if a_q == 0:
            continue
        v = _ord(ell, psi_from_ap(a_q, q, curve.cm_disc).y)
        samples += 1
        if best is None or v < best:
            best = v
        if best == 0:
            break
    if best is None:
        raise ValueError(
            f"no ordinary good prime <= {prime_budget} for y^2 = x^3 + {curve.a4}x + {curve.a6}"
        )
    return MEstimate(m_hat=best, samples_used=samples)
