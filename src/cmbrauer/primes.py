"""Primes and factorizations for the integers this package meets.

A byte sieve answers every question below 2^16.  Above it, ``isprime`` is
Miller-Rabin with the first k prime bases for n < psi_k, which is
deterministic up to PSI_13 (Sorenson & Webster, Math. Comp. 86 (2017));
``primerange`` sieves segment by segment; ``factorint`` trial-divides by the
table primes and splits what is left with Pollard-Brent rho (Brent, BIT 20
(1980)); ``square_part`` takes gcds with products of 16 consecutive table
primes, only while the block's first prime cubed is at most what is left;
``sqrt_mod`` is Tonelli-Shanks (Cohen, GTM 138, Alg. 1.5.1).  From
PSI_13 on, where no verdict "prime" is proven, ``isprime`` and ``factorint``
raise BudgetError rather than give one.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from itertools import compress, count
from math import gcd, isqrt, prod
from operator import index

from .errors import BudgetError, InternalCheckError

_TABLE = 1 << 16
_SEGMENT = 1 << 16
PSI_13 = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k: the least strong pseudoprime to each of the first k prime bases
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
       3825123056546413051, 318665857834031151167461, PSI_13)


def _ord(ell: int, n: int) -> int:
    """The ell-adic valuation of a nonzero integer n."""
    if n == 0:
        raise InternalCheckError(f"ord_{ell}(0) is not finite")
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def _sieve(n: int) -> bytearray:
    flags = bytearray([1]) * n
    flags[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if flags[p]:
            flags[p * p::p] = bytes((n - 1 - p * p) // p + 1)
    return flags


_IS_PRIME = _sieve(_TABLE)
_PRIMES = (2, *compress(range(3, _TABLE, 2), _IS_PRIME[3::2]))
_BASES_PRODUCT = prod(_BASES)


def _miller_rabin(n: int) -> bool:
    # odd n prime to every base (isprime tests that first); the first k bases
    # decide every n < psi_k, and from PSI_13 on all 13 can only find a witness
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _BASES[:bisect_right(PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def isprime(n: int) -> bool:
    """Whether the integer n is prime; False for n < 2.  From PSI_13 on, False
    needs a base that divides n or witnesses against it, and True is refused."""
    n = index(n)
    if n < _TABLE:
        return n > 1 and _IS_PRIME[n] == 1
    if gcd(n, _BASES_PRODUCT) != 1 or not _miller_rabin(n):
        return False
    if n >= PSI_13:
        raise BudgetError(f"{n} passes Miller-Rabin to the first 13 prime bases,"
                          f" which proves primality only below psi_13 = {PSI_13}")
    return True


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a modulo the odd prime p, which must be a nonzero
    quadratic residue; the caller checks both."""
    a %= p
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    if s == 1:
        return pow(a, (p + 1) // 4, p)
    z = next(z for z in count(2) if pow(z, (p - 1) // 2, p) == p - 1)
    c, r, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        # t has order 2^i with 0 < i < s
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        r, t = r * b % p, t * c % p
    return r


def primerange(a: int, b: int) -> Iterator[int]:
    """The primes p with a <= p < b, in ascending order.  Past the table the
    range is sieved in segments with base primes up to the square root of the
    segment's end, so memory stays O(sqrt(b) + segment) however large b is."""
    a, b = max(index(a), 2), index(b)
    if a < _TABLE:
        yield from _PRIMES[bisect_left(_PRIMES, a):bisect_left(_PRIMES, b)]
        a = _TABLE
    base = _PRIMES
    while a < b:
        hi = min(b, a + _SEGMENT)
        root = isqrt(hi - 1)
        if base[-1] < root:
            # extend the base primes by doubling, never past what b needs
            base += tuple(primerange(base[-1] + 1, min(2 * root, isqrt(b - 1)) + 1))
        flags = bytearray([1]) * (hi - a)
        for p in base:
            if p > root:
                break
            start = max(p * p, -(-a // p) * p) - a
            if start < hi - a:
                flags[start::p] = bytes((hi - a - 1 - start) // p + 1)
        yield from compress(range(a, hi), flags)
        a = hi


def _brent(n: int) -> int:
    """A proper factor of the odd composite n by Pollard-Brent rho."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing the integer n >= 1, ascending: trial
    division by the table primes, then Pollard-Brent rho on what is left."""
    found = []
    for p in _PRIMES:
        if p * p > n:
            if n > 1:
                found.append(n)
            return found
        if n % p == 0:
            n //= p
            while n % p == 0:
                n //= p
            found.append(p)
    if n >= PSI_13:
        raise BudgetError(f"{n} is left after trial division and is at or above psi_13 = {PSI_13},"
                          " past which primality is not proven")
    big, rest = set(), [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if isprime(m):
            big.add(m)
        else:
            d = _brent(m)
            rest += (d, m // d)
    return found + sorted(big)


def factorint(n: int) -> dict[int, int]:
    """The prime factorization of n >= 1 as {p: e}, keys ascending.  A
    cofactor at or above PSI_13 left by trial division raises BudgetError."""
    n = index(n)
    if n < 1:
        raise ValueError(f"factorint needs a positive integer, got {n}")
    return {p: _ord(p, n) for p in _prime_factors(n)}


# (p^3, product of the 16 table primes from p on) for every 16th table prime p;
# made on first use, as a process that never splits a square should not pay
# 0.3 ms for it at import
_blocks: tuple[tuple[int, int], ...] = ()


def _block_table() -> tuple[tuple[int, int], ...]:
    global _blocks
    _blocks = tuple((_PRIMES[i] ** 3, prod(_PRIMES[i:i + 16])) for i in range(0, len(_PRIMES), 16))
    return _blocks


def square_part(n: int) -> int:
    """The largest s with s^2 | n, for n >= 1.  The table primes are divided
    out a block at a time, by gcds with the block's product.  Once a block's
    first prime p has p^3 past the cofactor, whose prime factors are all at
    least p, the cofactor has at most two: it is q^2 or squarefree.  A
    cofactor the whole table leaves is factored."""
    n = index(n)
    if n < 1:
        raise ValueError(f"square_part needs a positive integer, got {n}")
    s = 1
    for cube, block in _blocks or _block_table():
        if cube > n:
            q = isqrt(n)
            return s * q if q * q == n else s
        # r: the block's primes that still divide n, one peel per power of
        # them; every second peel is a factor of s
        r = gcd(n, block)
        while r > 1:
            n //= r
            r = gcd(n, r)
            n //= r
            s *= r
            r = gcd(n, r)
    return s * prod(p ** (e // 2) for p, e in factorint(n).items())


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    divs = [1]
    for p, e in factorint(n).items():
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)
