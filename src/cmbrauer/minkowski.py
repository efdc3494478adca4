"""Minkowski's constant M(n): the lcm of orders of finite subgroups of GL_n(Z)."""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .errors import MAX_DIGITS, BudgetError, Frozen, InternalCheckError
from .primes import primerange


class MinkowskiConstant(Frozen):
    __slots__ = ("n", "value", "factorization")

    def __init__(self, n: int, value: int, factorization: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "factorization", factorization)
        if self.value != prod(p ** e for p, e in self.factorization):
            raise InternalCheckError(f"M({self.n}) differs from the product over its factorization")


# cap on n: M(1331) has 4,294 digits and M(1332) has 4,308, past MAX_DIGITS
MAX_MINKOWSKI_N = 1331


# bounded: a long-lived process may ask for ever new n, and M(n) near the
# 4300-digit render limit holds 217 prime powers
@lru_cache(maxsize=128)
def minkowski_M(n: int) -> MinkowskiConstant:
    """M(n) = prod over primes p <= n+1 of p^e_p, e_p = sum_i floor(n / (p^i (p-1))).
    An n past MAX_MINKOWSKI_N is refused before any prime is listed."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > MAX_MINKOWSKI_N:
        raise BudgetError(f"M({n}) has more than {MAX_DIGITS} digits: n is capped at {MAX_MINKOWSKI_N}")
    factorization = []
    for p in primerange(2, n + 2):
        e, q = 0, p - 1
        while q <= n:
            e += n // q
            q *= p
        if e < 1:
            # p <= n+1 guarantees at least the i=0 term, so the prime list is wrong
            raise InternalCheckError(f"prime {p} > {n + 1} in the range for M({n})")
        factorization.append((p, e))
    value = prod(p ** e for p, e in factorization)
    return MinkowskiConstant(n, value, tuple(factorization))


def algebraic_brauer_bound(r: int) -> int:
    """M(r)^r, bounding the algebraic Brauer quotient of a K3 of Picard rank r."""
    if not 1 <= r <= 20:
        raise ValueError(f"Picard rank of a K3 surface lies in [1, 20], got {r}")
    return minkowski_M(r).value ** r


def _cli_minkowski(n):
    # the runner of cli.TABLE's minkowski
    m = minkowski_M(n)
    return {"value": m.value, "factorization": {str(p): e for p, e in m.factorization}}
