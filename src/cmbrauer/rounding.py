"""Certified rational brackets for pi, natural log, and square roots.

Every approximation here is a pair of rationals (lo, hi) enclosing the true
value.  Directed rounding keeps integer bounds sound: evaluate the bound's
expression on upper endpoints (lower endpoints for reciprocal factors) and
floor at the very end.  Brackets at a finer eps are subsets of brackets at a
coarser eps by construction, so reported bounds never increase when the
precision is tightened.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import InternalCheckError

COARSE_EPS = Fraction(1, 10 ** 6)
DEFAULT_EPS = Fraction(1, 10 ** 9)
FINE_EPS = Fraction(1, 10 ** 12)
_MIN_EPS = Fraction(1, 10 ** 18)

# pi = 3.14159265358979323846 26433...; truncation is a certified lower endpoint
_PI_20_DIGITS = Fraction(314159265358979323846, 10 ** 20)


@dataclass(frozen=True)
class Bracket:
    """A closed rational interval [lo, hi] containing one real number."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise InternalCheckError(f"bracket [{self.lo}, {self.hi}] is empty")

    @classmethod
    def exact(cls, x) -> "Bracket":
        x = Fraction(x)
        return cls(x, x)

    def __add__(self, other: "Bracket") -> "Bracket":
        return Bracket(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "Bracket") -> "Bracket":
        ends = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return Bracket(min(ends), max(ends))

    def __pow__(self, e: int) -> "Bracket":
        if e < 0:
            raise ValueError(f"bracket powers need e >= 0, got {e}")
        out = Bracket.exact(1)
        for _ in range(e):
            out = out * self
        return out

    def inv(self) -> "Bracket":
        # only needed for positive quantities (pi powers)
        if self.lo <= 0:
            raise InternalCheckError(f"inverting [{self.lo}, {self.hi}], which is not positive")
        return Bracket(1 / self.hi, 1 / self.lo)

    def scale(self, r) -> "Bracket":
        return self * Bracket.exact(r)


def check_eps(eps: Fraction) -> Fraction:
    eps = Fraction(eps)
    if not _MIN_EPS <= eps < 1:
        raise ValueError(f"eps must lie in [{_MIN_EPS}, 1), got {eps}")
    return eps


def pi_bracket(eps: Fraction = DEFAULT_EPS) -> Bracket:
    """Certified enclosure of pi. The coarse tier is the classical 355/113 bound."""
    eps = check_eps(eps)
    if eps >= COARSE_EPS:
        hi = Fraction(355, 113)
        return Bracket(hi * (1 - COARSE_EPS), hi)
    return Bracket(_PI_20_DIGITS, _PI_20_DIGITS + Fraction(1, 10 ** 20))


def _ln_atanh(y: Fraction, delta: Fraction) -> Bracket:
    # ln y = 2*atanh(t), t = (y-1)/(y+1) in [0, 1/3] for y in [1, 2];
    # tail after term j=J is at most (9/4) t^(2J+3) / (2J+3)
    if not 1 <= y <= 2:
        raise InternalCheckError(f"atanh series for ln y needs y in [1, 2], got {y}")
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


def _outward(b: Bracket, grid: Fraction) -> Bracket:
    # widen to multiples of grid; nested grids give nested outputs
    lo = Fraction((b.lo / grid).__floor__()) * grid
    hi = Fraction(-((-b.hi / grid).__floor__())) * grid
    return Bracket(lo, hi)


_LN_MASTER = Fraction(1, 10 ** 30)


@lru_cache(maxsize=256)
def _k_ln2(k: int) -> Bracket:
    # k ln 2 from ln 2 at the budget _ln_master gives every x in [2^k, 2^(k+1))
    return _ln_atanh(Fraction(2), _LN_MASTER / (2 * (k + 1))).scale(k)


@lru_cache(maxsize=1024)
def _ln_master(x: Fraction) -> Bracket:
    # ln x for x >= 1 to within _LN_MASTER, from x = y * 2^k with y in [1, 2)
    n, d = x.numerator, x.denominator
    k = n.bit_length() - d.bit_length()
    if n < d << k:
        k -= 1
    b = _ln_atanh(x / (1 << k), _LN_MASTER / (2 * (k + 1)))
    if k:
        b = b + _k_ln2(k)
    return b


def ln_bracket(x, eps: Fraction = DEFAULT_EPS) -> Bracket:
    """Certified enclosure of ln(x) for rational x >= 1, width at most eps.

    Computed once at master precision and widened outward to a grid of
    eps/4, so enclosures at finer eps are contained in coarser ones.
    """
    eps = check_eps(eps)
    x = Fraction(x)
    if x < 1:
        raise ValueError(f"ln bracket only supports x >= 1, got {x}")
    return _outward(_ln_master(x), eps / 4)


def sqrt_bracket(x, eps: Fraction = DEFAULT_EPS) -> Bracket:
    """Certified enclosure of sqrt(x) for rational x >= 0, width at most eps."""
    eps = check_eps(eps)
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"sqrt bracket needs x >= 0, got {x}")
    s = 1
    while Fraction(1, 10 ** s) > eps:
        s += 1
    scale = 10 ** s
    m = (x.numerator * scale * scale) // x.denominator  # floor(x * 10^(2s))
    r = isqrt(m)
    return Bracket(Fraction(r, scale), Fraction(r + 1, scale))


def floor_upper(b: Bracket) -> int:
    """Floor of the certified upper endpoint: a sound integer upper bound."""
    return b.hi.__floor__()
