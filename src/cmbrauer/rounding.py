"""Certified rational enclosures of pi, natural log, and square roots.

Every enclosure here is a pair of integers (lo, hi) over a denominator h,
enclosing the true value in [lo/h, hi/h].  Directed rounding keeps integer
bounds sound: evaluate the bound's expression on upper endpoints (lower
endpoints for reciprocal factors) and floor at the very end.
cmbrauer.bounds and cmbrauer.cm_census multiply these integers straight
into one numerator and one denominator, which they floor once.  Enclosures
at a finer eps are subsets of enclosures at a coarser eps by construction,
so reported bounds never increase when the precision is tightened.

ln and sqrt land on the eps grid: for the least s >= 1 with 10^-s <= eps,
ln is rounded outward to multiples of 1/h with h = 4 * 10^s and sqrt to
multiples of 1/10^s (_ln_grid and _sqrt_grid take s).  pi has two tiers,
held as integer pairs.  A caller checks eps once per evaluation with
check_eps and reads s from _decimal_places.  cmbrauer.bounds reads s and
the pi tier from _pi_tier once per distinct eps, into a record it keeps.

ln x is summed in integers: x = y * 2^k with y in [1, 2), ln y = 2 atanh t
as a fixed-point series in t = (y - 1) / (y + 1) <= 1/3 with 128 fraction
bits, widened by the error bound proven in _ln_fixed, plus k times a ln 2
enclosure 64 bits finer.  Every such master enclosure is checked to be
nonempty and at most 10^-30 wide before it is rounded outward to the eps
grid.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import InternalCheckError

COARSE_EPS = Fraction(1, 10 ** 6)
DEFAULT_EPS = Fraction(1, 10 ** 9)
FINE_EPS = Fraction(1, 10 ** 12)
_MIN_EPS = Fraction(1, 10 ** 18)

# pi = 3.14159265358979323846 26433...; truncation is a certified lower endpoint
_PI_20_DIGITS = 314159265358979323846


def check_eps(eps: Fraction) -> Fraction:
    if type(eps) is not Fraction:
        eps = Fraction(eps)
    if not _MIN_EPS <= eps < 1:
        raise ValueError(f"eps must lie in [{_MIN_EPS}, 1), got {eps}")
    return eps


def _decimal_places(eps: Fraction) -> int:
    # the least s >= 1 with 10^-s <= eps: the number of digits of c - 1, for
    # c = ceil(1/eps) >= 2.  Grids of 10^-s nest, so enclosures on them at a
    # finer eps lie inside those at a coarser one
    return len(str(-(-eps.denominator // eps.numerator) - 1))


# the two tiers of pi as (lo, hi, h): the classical 355/113 bound, narrowed
# below by COARSE_EPS relative, and the 20-digit truncation
_PI_COARSE = (355 * (10 ** 6 - 1), 355 * 10 ** 6, 113 * 10 ** 6)
_PI_FINE = (_PI_20_DIGITS, _PI_20_DIGITS + 1, 10 ** 20)


def _pi_tier(eps: Fraction) -> tuple[int, int, int]:
    return _PI_COARSE if eps >= COARSE_EPS else _PI_FINE


_LN_MASTER = Fraction(1, 10 ** 30)

# fraction bits of the fixed-point series for ln y, y in [1, 2): it forms at
# most 40 terms after the first, so its enclosure is at most 173 units of
# 2^-128 wide, about 5.1e-37
_B = 128


def _ln_fixed(num: int, den: int, bits: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^bits * ln((den + num) / (den - num)) <= hi, for
    0 <= num / den <= 1/3, summed in integers as 2 atanh(t) at t = num / den.

    Let u = 2^-bits, T = floor(t / u) and tau = T u <= t; every quantity
    below is in units of u.  With P_0 = T and P_j = floor(P_(j-1) tau^2) =
    floor(P_(j-1) T^2 / 2^(2 bits)), P_j is at most tau^(2j+1) and short of
    it by E_j < 1 + tau^2 E_(j-1) <= 1 + E_(j-1) / 9, so by E_j < 9/8.  The
    loop sums floor(P_j / (2j + 1)) until a P_j is 0, having formed P_1 ..
    P_J after P_0 (in the code, t holds T and p holds P_j):
    - the j = 0 term T is exact, and each term 1 <= j < J is short by at most
      E_j / (2j + 1) + 1 < 17/8;
    - the tail from j = J on is at most (tau^(2J+1) / (2J + 1)) / (1 - tau^2)
      < (9/8)(9/8) / 3 < 17/8, since tau^(2J+1) = P_J + E_J < 9/8;
    - atanh(t) - atanh(tau) <= (t - tau) / (1 - t^2) < 9/8, and is 0 when
      the division that gave T was exact.
    So the sum S has S <= atanh(t) <= S + 17J/8 + 9/8 [inexact], and
    ln = 2 atanh doubles both.  When T = 0 and the division is exact, t = 0
    and (lo, hi) = (0, 0).
    """
    if not 0 <= 3 * num <= den:
        raise InternalCheckError(f"atanh series needs t in [0, 1/3], got {num}/{den}")
    t, rem = divmod(num << bits, den)
    t2, shift = t * t, 2 * bits
    total, p, j = t, t, 0
    while p:
        j += 1
        p = (p * t2) >> shift
        total += p // (2 * j + 1)
    return 2 * total, 2 * total + (17 * j + (9 if rem else 0) + 3) // 4


# ln 2 = 2 atanh(1/3), 64 bits finer than ln y and 262 units of 2^-192
# wide, so that k ln 2 stays inside _LN_MASTER for k up to ~2.4e25, past any
# argument that fits in memory
_LN2_BITS = _B + 64
_LN2 = _ln_fixed(1, 3, _LN2_BITS)


def _ln_master(x) -> tuple[int, int]:
    # ln x for rational x >= 1 to within _LN_MASTER, as (lo, hi) over
    # 2^_LN2_BITS, from x = y * 2^k with y in [1, 2): ln y = 2 atanh(t) with
    # t = (y - 1) / (y + 1) = (n - d 2^k) / (n + d 2^k)
    n, d = x.numerator, x.denominator
    k = n.bit_length() - d.bit_length()
    if n < d << k:
        k -= 1
    lo, hi = _ln_fixed(n - (d << k), n + (d << k), _B)
    shift = _LN2_BITS - _B
    lo = (lo << shift) + k * _LN2[0]
    hi = (hi << shift) + k * _LN2[1]
    if not 0 <= (hi - lo) * _LN_MASTER.denominator <= _LN_MASTER.numerator << _LN2_BITS:
        raise InternalCheckError(f"ln enclosure of {x} is {hi - lo} / 2^{_LN2_BITS} wide, not in [0, {_LN_MASTER}]")
    return lo, hi


def _ln_grid(x, s: int) -> tuple[int, int, int]:
    # ln x for rational x >= 1 as (lo, hi, h), h = 4 * 10^s: the master
    # enclosure widened outward to multiples of 1/h; nested grids give nested
    # outputs
    lo, hi = _ln_master(x)
    h = 4 * 10 ** s
    return (lo * h) >> _LN2_BITS, -((-hi * h) >> _LN2_BITS), h


def _sqrt_grid(x, s: int) -> tuple[int, int, int]:
    # sqrt x for rational x >= 0 as (r, r + 1, h), h = 10^s, with
    # r = isqrt(floor(x h^2))
    h = 10 ** s
    r = isqrt(x.numerator * h * h // x.denominator)
    return r, r + 1, h
