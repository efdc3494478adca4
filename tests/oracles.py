"""Brute-force and independent counts that the tests check the package against.

No production path calls them.
"""

from math import gcd, isqrt

from cmbrauer.primes import divisors


def count_reduced_forms(disc: int) -> int:
    """The number of primitive reduced forms of discriminant disc < 0, counted
    by b in O(|disc|^(1/2+eps)) (Cohen, GTM 138, Sec. 5.3).

    For each b = disc (mod 2) with 0 <= b <= sqrt(|disc|/3), the forms with
    that |b| are (a, +-b, c) for the divisors a of (b^2 - disc)/4 with
    b <= a <= c; (a, -b, c) is reduced too unless b = 0, b = a or a = c.
    """
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError(f"{disc} is not a negative discriminant")
    h = 0
    for b in range(disc % 2, isqrt(-disc // 3) + 1, 2):
        n = (b * b - disc) // 4
        for a in divisors(n):
            c = n // a
            if c < a:
                break
            if a >= b and gcd(gcd(a, b), c) == 1:
                h += 1 if b == 0 or b == a or a == c else 2
    return h
