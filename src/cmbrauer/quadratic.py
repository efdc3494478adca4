"""Arithmetic of imaginary quadratic fields and their orders.

Discriminants, Kronecker symbols, class numbers (exact formula plus a
brute-force reduced-form oracle), unit indices, and enumeration of fields
by class number.  Everything is exact integer / rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .errors import InternalCheckError
from .primes import factorint, isprime


class IntegralityError(InternalCheckError):
    """The class-number formula produced a non-integer. Indicates a bug."""


def _squarefree(n: int) -> bool:
    # squarefree means no p^2 divides |n|; factorint rejects n = 0
    return all(e == 1 for e in factorint(abs(n)).values())


@lru_cache(maxsize=None)
def is_fundamental_discriminant(n: int) -> bool:
    if n >= 0 or n % 4 not in (0, 1):
        return False
    if n % 4 == 1:
        return _squarefree(n)
    q = n // 4
    return q % 4 in (2, 3) and _squarefree(q)


@dataclass(frozen=True)
class FundamentalDiscriminant:
    """Discriminant of an imaginary quadratic field."""

    value: int

    def __post_init__(self):
        if not is_fundamental_discriminant(self.value):
            raise ValueError(f"{self.value} is not a fundamental discriminant of an imaginary quadratic field")


@dataclass(frozen=True)
class Order:
    """Order of conductor f in an imaginary quadratic field; disc = f^2 * Delta_K."""

    field: FundamentalDiscriminant
    conductor: int

    def __post_init__(self):
        if self.conductor < 1:
            raise ValueError(f"conductor must be positive, got {self.conductor}")

    @property
    def discriminant(self) -> int:
        return self.conductor ** 2 * self.field.value


@dataclass(frozen=True)
class QuadraticForm:
    """Positive definite integral binary quadratic form a*x^2 + b*x*y + c*y^2."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0 or self.discriminant >= 0:
            raise ValueError(f"form {(self.a, self.b, self.c)} is not positive definite")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_primitive(self) -> bool:
        return gcd(gcd(self.a, self.b), self.c) == 1

    @property
    def is_reduced(self) -> bool:
        # |b| <= a <= c, with b >= 0 when either inequality is an equality
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if b < 0 and (abs(b) == a or a == c):
            return False
        return True


def fundamental_discriminant(n: int) -> tuple[FundamentalDiscriminant, int]:
    """Split an order discriminant n < 0 into (Delta_K, conductor f), n = f^2 * Delta_K."""
    if n >= 0:
        raise ValueError(f"order discriminant must be negative, got {n}")
    if n % 4 not in (0, 1):
        raise ValueError(f"{n} is not 0 or 1 mod 4, so not an order discriminant")
    # squarefree kernel of n determines the field
    square = 1
    for p, e in factorint(-n).items():
        square *= p ** (e // 2)
    d0 = n // (square * square)  # negative squarefree
    if d0 % 4 == 1:
        dk = d0
    else:
        dk = 4 * d0
    f2, rem = divmod(n, dk)
    f = isqrt(max(f2, 0))
    if rem or f < 1 or f * f != f2:
        raise InternalCheckError(f"{n} is not f^2 times {dk}: the factorization of {-n} is wrong")
    return FundamentalDiscriminant(dk), f


def kronecker_symbol(delta: int, p: int) -> int:
    """Legendre symbol for odd p; at p = 2 the three-case rule for discriminants."""
    if not isprime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p == 2:
        if delta % 2 == 0:
            return 0
        r = delta % 8
        if r == 1:
            return 1
        if r == 5:
            return -1
        raise ValueError(f"{delta} is odd but not 1 mod 4, not a discriminant")
    if delta % p == 0:
        return 0
    ls = pow(delta % p, (p - 1) // 2, p)
    return 1 if ls == 1 else -1


def unit_index(delta_k: int, f: int) -> int:
    """[O_K^x : O_f^x]: 2 for Z[i] vs larger orders, 3 for Z[zeta_3], else 1."""
    if f < 1:
        raise ValueError(f"conductor must be positive, got {f}")
    if f == 1:
        return 1
    if delta_k == -4:
        return 2
    if delta_k == -3:
        return 3
    return 1


def reduced_forms(disc: int) -> list[QuadraticForm]:
    """All primitive reduced positive definite forms of the given discriminant.

    Enumeration is bounded by |b| <= a <= sqrt(|disc|/3).  For fundamental
    discriminants every reduced form is automatically primitive; for
    non-fundamental ones the primitivity filter matters (disc -12 drops the
    imprimitive (2,2,2), for example).
    """
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError(f"{disc} is not a negative discriminant")
    forms = []
    a_max = isqrt(-disc // 3)
    for a in range(1, a_max + 1):
        # b = -a is never reduced, so scan -a < b <= a
        for b in range(-a + 1, a + 1):
            num = b * b - disc
            c, rem = divmod(num, 4 * a)
            if rem:
                continue
            if c < a:
                continue
            if b < 0 and a == c:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            forms.append(QuadraticForm(a, b, c))
    return forms


def form_class_counts(disc_bound: int) -> dict[int, int]:
    """Primitive reduced form counts for every discriminant -disc_bound <= disc < 0.

    Single bucketed sweep over all (a, b, c) with |b| <= a <= c; much faster
    than calling reduced_forms per discriminant when auditing whole ranges.
    """
    if disc_bound < 3:
        raise ValueError(f"disc_bound must be at least 3, got {disc_bound}")
    counts: dict[int, int] = {}
    a_max = isqrt(disc_bound // 3)
    for a in range(1, a_max + 1):
        four_a = 4 * a
        for b in range(-a + 1, a + 1):
            g_ab = gcd(a, b)
            bb = b * b
            # c >= a and disc = b^2 - 4ac stays negative and >= -disc_bound
            c_lo = max(a, bb // four_a + 1)
            c_hi = (bb + disc_bound) // four_a
            for c in range(c_lo, c_hi + 1):
                if b < 0 and a == c:
                    continue
                if g_ab > 1 and gcd(g_ab, c) > 1:
                    continue
                d = bb - four_a * c
                counts[d] = counts.get(d, 0) + 1
    return counts


@lru_cache(maxsize=None)
def class_number_field(delta_k: int) -> int:
    """h_K by brute force: count reduced forms of the fundamental discriminant."""
    FundamentalDiscriminant(delta_k)  # validate
    h = len(reduced_forms(delta_k))
    if h < 1:
        raise InternalCheckError(f"no reduced form of discriminant {delta_k}")
    return h


def class_number_order(order: Order, h_field: int | None = None) -> int:
    """h(O_f) = h_K * f / [O_K^x:O_f^x] * prod_{p | f} (1 - (Delta_K/p)/p).

    Exact rational arithmetic; integrality of the result is asserted, not
    trusted.  h_field overrides the oracle value of h_K (used when a caller
    already holds an independently computed table).
    """
    dk = order.field.value
    f = order.conductor
    hk = class_number_field(dk) if h_field is None else h_field
    h = Fraction(hk * f, unit_index(dk, f))
    for p in sorted(factorint(f)):
        h *= 1 - Fraction(kronecker_symbol(dk, p), p)
    if h.denominator != 1 or h <= 0:
        raise IntegralityError(f"class number formula gave {h} for disc {dk}, conductor {f}")
    return int(h)


@dataclass(frozen=True)
class FieldSearch:
    """Fields found with h_K <= h_max and |Delta_K| <= search_bound.

    certified_complete is always False: fields beyond the search bound are
    not ruled out by this enumeration.
    """

    fields: tuple[FundamentalDiscriminant, ...]
    h_max: int
    search_bound: int
    certified_complete: bool = False


def enumerate_fields_by_class_number(h_max: int, disc_search_bound: int) -> FieldSearch:
    """All fundamental Delta_K with |Delta_K| <= disc_search_bound and h_K <= h_max."""
    if disc_search_bound < 3:
        raise ValueError("disc_search_bound must be at least 3")
    found = []
    for m in range(3, disc_search_bound + 1):
        n = -m
        if not is_fundamental_discriminant(n):
            continue
        if class_number_field(n) <= h_max:
            found.append(FundamentalDiscriminant(n))
    return FieldSearch(tuple(found), h_max, disc_search_bound)
