"""Hecke-character valuations for CM elliptic curves over Q.

Naive point counts give the trace of Frobenius a_p, and the character value
psi(p) is reconstructed from a_p in the ring of integers; both serve as the
reference.  The sampled upper bound on the largest n with psi values in
Z + ell^n O_K needs only |t| in 4q = a_q^2 + |Delta_K| t^2, which Cornacchia's
algorithm and one residue symbol give in O(log q) per prime, with no point
count (Cohen, GTM 138, Alg. 1.5.3; Ireland & Rosen, GTM 84, ch. 18).

Everything but the residue symbol depends on the field alone, and only the
nine fields of class number one occur, so each field keeps one table of its
odd split primes with their Cornacchia data (_SplitPrimes), grown on demand
and retained for the life of the process.  The residue symbol depends on the
curve and the prime alone, so each curve keeps a column of its |t| at the
primes of its field's table (_CurveColumn), picked once by _curve_ts and
filled only as far as walks read; the columns of the last 64 curves scanned
are kept.  The answer for (curve, ell, budget) depends on the column's prefix
up to the budget alone, so each column keeps one profile per ell (_Profile,
the last 8 ell asked): how far it has been walked, and the steps of the
running minimum of ord_ell(|t|) down to the first |t| that ell does not
divide.  A scan within the profile is a read: four bisections, two of the
table and one each of the steps and the bad primes, and no column entry.  A scan past it
walks the new entries alone, the first 32 of a column, then in reads that
double; a read takes the column in runs between the primes it skips, and
the least ord_ell(|t|) over a run is ord_ell of their gcd, so a run costs
one gcd and one valuation unless the minimum falls inside it.  By
tracemalloc the profiles of all 64 columns hold at most 494 KiB.  Results
depend neither on which columns and profiles are kept nor on the order of
calls.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from math import gcd, inf, isqrt

from .errors import DIGIT_LIMIT, MAX_DIGITS, BudgetError, Frozen, InternalCheckError
from .primes import _ord, isprime, primerange, sqrt_mod
from .quadratic import FundamentalDiscriminant, _kronecker_prime

_POINT_COUNT_CAP = 10 ** 6

# the rational j-invariant of the maximal order of each class-number-one field
_CM_J_INVARIANTS = {-3: 0, -4: 1728, -7: -3375, -8: 8000, -11: -32768, -19: -884736,
                    -43: -884736000, -67: -147197952000, -163: -262537412640768000}


class CurveOverQ(Frozen):
    """Short Weierstrass curve y^2 = x^3 + a4 x + a6 over Q whose CM order
    discriminant the caller asserts (it is never derived from the model;
    estimate_m checks it against the j-invariant)."""

    __slots__ = ("a4", "a6", "cm_disc")

    def __init__(self, a4: int, a6: int, cm_disc: int):
        object.__setattr__(self, "a4", a4)
        object.__setattr__(self, "a6", a6)
        object.__setattr__(self, "cm_disc", cm_disc)
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


class PsiValue(Frozen):
    """Character value psi = x + y*omega, omega = (Delta_K + sqrt(Delta_K))/2,
    of norm p.  Conjugation flips the sign of the sqrt term; valuations of y
    do not see the difference."""

    __slots__ = ("x", "y", "p", "delta_k")

    def __init__(self, x: int, y: int, p: int, delta_k: int):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "delta_k", delta_k)
        if self.norm != self.p:
            raise InternalCheckError(f"norm of {(self.x, self.y)} over {self.delta_k} is not {self.p}")

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
        raise BudgetError(f"point-count budget is p <= {_POINT_COUNT_CAP}, got {p}")
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


def _cornacchia_4q(delta_k: int, q: int) -> tuple[int, int]:
    """(x, y) with x, y >= 0 and x^2 + |Delta_K| y^2 = 4q, for an odd prime q
    split in a field of class number one (Cohen, GTM 138, Alg. 1.5.3)."""
    b = sqrt_mod(delta_k, q)
    if (b - delta_k) % 2:
        b = q - b
    a, limit = 2 * q, isqrt(4 * q)
    while b > limit:
        a, b = b, a % b
    c, rem = divmod(4 * q - b * b, -delta_k)
    y = isqrt(c)
    if rem or y * y != c:
        raise InternalCheckError(f"4*{q} is not x^2 + {-delta_k} y^2 by Cornacchia")
    return b, y


def _field_entry(delta_k: int, q: int) -> tuple[int, ...]:
    """The Frobenius data at an odd prime q split in K that depend on the field
    alone: |t| itself, or for Q(i) the even and the odd member of {u, t} in
    q = u^2 + t^2, or for Q(zeta_3) the cube root of unity w mod q that omega
    maps to and the |B| of the primary pi = A + B omega and its two rotations."""
    x, y = _cornacchia_4q(delta_k, q)
    if delta_k == -4:
        u = x // 2
        return (u, y) if u % 2 == 0 else (y, u)
    if delta_k == -3:
        # pi = (x + y sqrt(-3))/2 = A + B omega, omega = (-1 + sqrt(-3))/2;
        # multiplying by omega sends (A, B) to (-B, A - B)
        A, B = (x + y) // 2, y
        while B % 3:
            A, B = -B, A - B
        # pi is primary up to a sign, which |t| does not see (B = 0 mod 3);
        # in O_K/pi = F_q, sqrt(-3) = -a/t with a = 2A - B, t = B
        w = (-1 - (2 * A - B) * pow(B, -1, q)) * (q + 1) // 2 % q
        rotated = []
        for _ in range(3):
            rotated.append(abs(B))
            A, B = -B, A - B
        return (w, *rotated)
    # a single generator up to sign: |t| is determined
    return (y,)


def _curve_ts(curve: CurveOverQ, primes: array, data: tuple, i: int, j: int, disc: int) -> Iterator[int]:
    """|t| with 4q = a_q^2 + |Delta_K| t^2 for the curve at each prime q =
    primes[k], i <= k < j, other than the primes dividing disc, from
    the field entries in the columns data (see _field_entry).  Picking among
    the field's candidates is the one step that depends on the curve; the
    field is told apart once for the whole range."""
    d = curve.cm_disc
    if d == -4:
        # t is the even one iff -a4 is a square mod q, the quadratic part of
        # the quartic symbol of -a4
        a = -curve.a4
        even, odd = data
        for q, t_even, t_odd in zip(primes[i:j], even[i:j], odd[i:j]):
            if disc % q:
                yield t_even if pow(a % q, q >> 1, q) == 1 else t_odd
    elif d == -3:
        # the cubic symbol (4 a6 / pi)_3 = omega^k, read off as
        # (4 a6)^((q-1)/3) = w^k mod q, makes psi(q) = omega^k pi up to sign,
        # whose |B| is that of the k-th rotation
        a = 4 * curve.a6
        for q, w, t0, t1, t2 in zip(primes[i:j], *(column[i:j] for column in data)):
            if disc % q:
                chi = pow(a % q, (q - 1) // 3, q)
                if chi == 1:
                    yield t0
                elif chi == w:
                    yield t1
                elif chi == w * w % q:
                    yield t2
                else:
                    raise InternalCheckError(f"(4*{curve.a6})^(({q}-1)/3) is not a cube root of unity mod {q}")
    else:
        for q, t in zip(primes[i:j], data[0][i:j]):
            if disc % q:
                yield t


# columns of a field entry, 1 outside Q(i) and Q(zeta_3)
_ENTRY_WIDTH = {-4: 2, -3: 4}
_FIRST_REACH = 256


class _SplitPrimes:
    """The odd primes q <= reach split in one CM field K, ascending, with the
    field entry (_field_entry) of each, stored as parallel array columns."""

    __slots__ = ("delta_k", "reach", "primes", "data")

    def __init__(self, delta_k: int):
        self.delta_k = delta_k
        self.reach = 2
        self.primes = array("i")
        self.data = tuple(array("i") for _ in range(_ENTRY_WIDTH.get(delta_k, 1)))

    def grow(self, limit: int) -> None:
        """Extend reach by one chunk: to twice the old reach, at least
        _FIRST_REACH, at most limit.  The chunk is built aside and committed
        only once every entry of it has been formed.  Two threads must not
        grow one table at once (the package starts none)."""
        reach = min(limit, max(2 * self.reach, _FIRST_REACH))
        primes = array("i")
        data = tuple(array("i") for _ in self.data)
        for q in primerange(self.reach + 1, reach + 1):
            if _kronecker_prime(self.delta_k, q) == 1:
                primes.append(q)
                for column, value in zip(data, _field_entry(self.delta_k, q)):
                    column.append(value)
        self.primes.extend(primes)
        for column, chunk in zip(self.data, data):
            column.extend(chunk)
        self.reach = reach


# the retained tables, one per CM field, grown as scans reach their end
_SPLIT_PRIMES: dict[int, _SplitPrimes] = {}


def _split_primes(delta_k: int) -> _SplitPrimes:
    table = _SPLIT_PRIMES.get(delta_k)
    if table is None:
        table = _SPLIT_PRIMES[delta_k] = _SplitPrimes(delta_k)
    return table


# the first read of a walk from the column's start covers this many entries;
# each later read covers as many as all the reads before it, or all the
# column holds when that is more
_FIRST_READ = 32
# the curves whose columns are kept, chosen by memory: at the cap a column has
# at most 39,298 entries (39,175 for Q(i)) of 2 bytes, 77 KiB, so all 64
# columns together hold about 5 MiB
_CURVE_COLUMNS = 64
# the profiles each column keeps, the oldest dropped first, since ell can be
# any prime: a profile has at most 16 steps (|t| < 2^16, so ord_ell(|t|) <= 15),
# and by tracemalloc the 64 columns' 512 profiles hold 151 KiB when each has one
# step, as nearly all do, and 494 KiB when each has 16
_PROFILES = 8


class _Profile:
    """One ell's walk of a curve column: how far it has walked (walked), and
    the steps of the least ord_ell(|t|) over the good entries walked, as the
    indices where it falls (at) and the values it falls to (levels).  A fall
    to 0 is the first |t| that ell does not divide, where every scan past it
    ends, so that walk is complete: walked is then infinite.  A walk stops
    before a zero |t|, so every scan that reaches one reads it again."""

    __slots__ = ("walked", "at", "levels")

    def __init__(self):
        self.walked = 0
        self.at: list[int] = []
        self.levels: list[int] = []


class _CurveColumn:
    """The curve's |t| (_curve_ts) at each prime of its field's split-prime
    table, in table order, as far as walks have read, the indices of the
    primes dividing the model's discriminant, and the walks' profiles by ell.
    The bad indices hold 0, which no walk reads: walks skip them by index.
    Below the cap |t| <= 2 sqrt(q/3) < 2^16."""

    __slots__ = ("ts", "bad", "profiles")

    def __init__(self):
        self.ts = array("H")
        self.bad: list[int] = []
        self.profiles: dict[int, _Profile] = {}

    def fill(self, curve: CurveOverQ, table: _SplitPrimes, k: int, disc: int) -> None:
        """Extend the column to the first k primes of the table, for the
        curve's discriminant disc.  Like a table chunk, the entries are built
        aside and committed only once all are formed.  Two threads must not
        fill one column at once (the package starts none)."""
        n = len(self.ts)
        if n >= k:
            return
        bad = [x for x, q in enumerate(table.primes[n:k], n) if not disc % q]
        ts = array("H", _curve_ts(curve, table.primes, table.data, n, k, disc))
        for x in bad:
            ts.insert(x - n, 0)
        self.ts.extend(ts)
        self.bad.extend(bad)

    def profile(self, ell: int) -> _Profile:
        """ell's profile, new and unwalked if the column holds none; the
        column keeps the last _PROFILES made."""
        profile = self.profiles.get(ell)
        if profile is None:
            if len(self.profiles) >= _PROFILES:
                del self.profiles[next(iter(self.profiles))]
            profile = self.profiles[ell] = _Profile()
        return profile


@lru_cache(maxsize=_CURVE_COLUMNS)
def _curve_column(a4: int, a6: int, cm_disc: int) -> _CurveColumn:
    """The retained column of the curve y^2 = x^3 + a4 x + a6 with CM by
    cm_disc; the least recently scanned curve's column goes first."""
    return _CurveColumn()


def _good_runs(column: _CurveColumn, primes: array, i: int, k: int, ell: int) -> Iterator[tuple[int, array]]:
    """(start, column.ts[start:stop]) for the maximal runs of indices in
    [i, k) that skip q = ell and the primes dividing the discriminant."""
    bad = column.bad
    skips = bad[bisect_left(bad, i):bisect_left(bad, k)]
    e = bisect_left(primes, ell, i, k)
    if e < k and primes[e] == ell:
        skips = sorted((*skips, e))
    start = i
    for stop in (*skips, k):
        if start < stop:
            yield start, column.ts[start:stop]
        start = stop + 1


def _first_zero(run: array) -> int:
    """The index of the first 0 in a run of the column, or len(run) when it
    holds none.  A 0 entry is two aligned zero bytes, so the bytes screen
    misses none; an unaligned pair it finds falls through to the exact test."""
    return run.index(0) if b"\0\0" in run.tobytes() and 0 in run else len(run)


def _walk(curve: CurveOverQ, disc: int, table: _SplitPrimes, column: _CurveColumn, profile: _Profile,
          ell: int, j: int) -> None:
    """Extend ell's profile of the curve's column to the first j primes of
    the table, filling the column first as far as each read goes.  A read
    skips q = ell and the bad primes by index and takes each run between
    them in one gcd: ord_ell of the gcd is the least ord_ell(|t|) of the run.
    Only a run whose least value lies below the profile's last level is
    walked entry by entry, as far as the entry where it reaches that value,
    recording every level it passes through."""
    primes, at, levels = table.primes, profile.at, profile.levels
    i = profile.walked
    while i < j:
        k = min(j, max(2 * i, _FIRST_READ, len(column.ts) if i else 0))
        column.fill(curve, table, k, disc)
        for start, run in _good_runs(column, primes, i, k, ell):
            # gcd(0, t) = t would pass over a zero |t|, so a zero ends the
            # run the gcd sees and is refused once the run is read
            stop = _first_zero(run)
            head = run if stop == len(run) else run[:stop]
            if head:
                v = _ord(ell, gcd(*head))
                if not levels or v < levels[-1]:
                    # the minimum falls in this run, perhaps through several
                    # levels before it reaches v: each is a step
                    for x, t in enumerate(head, start):
                        if not levels or t % ell ** levels[-1]:
                            at.append(x)
                            levels.append(_ord(ell, t))
                            if levels[-1] == v:
                                break
                    if not v:
                        profile.walked = inf
                        return
            if stop < len(run):
                profile.walked = start + stop
                raise InternalCheckError(f"ord_{ell}(0) is not finite: |t| = 0 at q = {primes[start + stop]}")
        i = profile.walked = k


def _samples(column: _CurveColumn, primes: array, j: int, ell: int, disc: int) -> int:
    """The good indices below j of a column filled that far: j less the bad
    ones and the index of q = ell, which is bad too when ell divides disc."""
    e = bisect_left(primes, ell, 0, j)
    return j - bisect_left(column.bad, j) - (e < j and primes[e] == ell and disc % ell != 0)


def _check_cm(curve: CurveOverQ, disc: int) -> None:
    """Reject a model, of discriminant disc = 4a4^3 + 27a6^2, whose j-invariant
    1728*4a4^3/disc is not the j-invariant of the asserted maximal order."""
    j_k = _CM_J_INVARIANTS.get(curve.cm_disc)
    num = 1728 * 4 * curve.a4 ** 3
    if j_k is None or num != j_k * disc:
        from fractions import Fraction
        j = Fraction(num, disc)
        if max(abs(j.numerator), j.denominator) >= DIGIT_LIMIT:
            j = f"a fraction past {MAX_DIGITS} digits"
        raise ValueError(f"y^2 = x^3 + {curve.a4}x + {curve.a6} (j = {j}) does not have CM by "
                         f"the maximal order of discriminant {curve.cm_disc}")


class MEstimate(namedtuple("MEstimate", "m_hat samples_used")):
    """estimate_m's answer: the least ord_ell(y) it saw, and how many good ordinary primes it sampled."""

    __slots__ = ()


def estimate_m(curve: CurveOverQ, ell: int, prime_budget: int) -> MEstimate:
    """Upper bound on m_ell(E) for E/Q with CM by the maximal order: the
    minimum of ord_ell(y) for psi(q) = x + y*omega over good ordinary primes
    q <= prime_budget, q != ell.

    Sampling bounds the true valuation only from above (the definition
    quantifies over all primes), so more budget can only tighten the result:
    the estimate is non-increasing in prime_budget.  Supersingular primes,
    the good primes inert or ramified in K, are skipped; a minimum of 0 ends
    the scan early since no later prime can go lower.  The model must have
    the j-invariant of the asserted order, and the scan stops with an error at
    a good prime above 10^6.

    The scan reads the retained table of the odd primes split in K, in
    ascending order, each with its field entry: |t|, or for Q(i) the even and
    the odd member of {u, t} in q = u^2 + t^2, or for Q(zeta_3) the cube root
    of unity w mod q and the |B| of the three rotations of the primary pi.
    The curve's part is its retained column: the |t| picked at each prime of
    the table by one Legendre symbol of -a4 (Q(i)) or a comparison of
    (4 a6)^((q-1)/3) with 1, w, w^2 (Q(zeta_3)), the indices of the primes
    dividing its discriminant, and one profile per ell: how far the column
    has been walked for ell, and the steps of the running minimum of
    ord_ell(|t|) over the good primes, down to the first |t| that ell does
    not divide, where every scan ends.  The answer at a budget the profile
    covers is a read: one bisection of the table for the budget's index j,
    one of the steps for the minimum before j, and the count of good
    indices below j.  A scan past the profile walks the new entries alone,
    in reads whose first covers _FIRST_READ entries, so an early exit stays
    cheap, and each later one as many as all earlier reads or, when the
    column holds more, all it holds; the column fills only as far as a read
    goes.  A read takes each run between ell and the bad primes in one gcd
    and walks entry by entry only a run whose least valuation lies below the
    profile's last step, up to where it is reached.  A zero |t| reached
    before the scan ends is refused as an internal error.  The scan takes
    the primes up to the budget from the table in one bisection per chunk;
    one that reaches the end of the table extends it by one chunk, to twice
    its reach (at least _FIRST_REACH), never past min(prime_budget, 10^6); a
    chunk is committed only once all of it is built.  The table columns are
    32-bit arrays: at the 10^6 cap the Q(i) table holds 39,175 primes in
    0.5 MiB, and all nine tables together 3.5 MiB.  A curve column is a
    16-bit array, 77 KiB at most at the cap, and the 64 kept columns about
    5 MiB; each keeps the profiles of its last _PROFILES ell, and the 64
    columns' profiles together hold at most 494 KiB.  Which columns and
    profiles are kept and the order of calls do not change any result.
    """
    if not isprime(ell):
        raise ValueError(f"ell must be prime, got {ell}")
    if prime_budget < 1:
        raise ValueError(f"prime budget must be positive, got {prime_budget}")
    if curve.cm_disc not in _CM_J_INVARIANTS:
        # every key is fundamental; another discriminant gets its own message
        FundamentalDiscriminant(curve.cm_disc)
    disc = curve.weierstrass_disc
    _check_cm(curve, disc)
    limit = min(prime_budget, _POINT_COUNT_CAP)
    table = _split_primes(curve.cm_disc)
    primes = table.primes
    column = _curve_column(curve.a4, curve.a6, curve.cm_disc)
    profile = column.profile(ell)
    at, levels = profile.at, profile.levels
    while True:
        j = bisect_right(primes, limit)
        if profile.walked < j:
            _walk(curve, disc, table, column, profile, ell, j)
        s = bisect_left(at, j)
        if s and not levels[s - 1]:
            # the scan ends at the first |t| that ell does not divide
            return MEstimate(0, _samples(column, primes, at[s - 1] + 1, ell, disc))
        if j < len(primes) or table.reach >= limit:
            break
        table.grow(limit)
    if prime_budget > _POINT_COUNT_CAP:
        # bounds the scan's time; the message is the point count's own, at the
        # first good prime q != ell past the cap, split in K or not
        for q in primerange(_POINT_COUNT_CAP + 1, prime_budget + 1):
            if q != ell and disc % q:
                raise BudgetError(f"point-count budget is p <= {_POINT_COUNT_CAP}, got {q}")
    if not s:
        raise ValueError(
            f"no ordinary good prime <= {prime_budget} for y^2 = x^3 + {curve.a4}x + {curve.a6}"
        )
    return MEstimate(levels[s - 1], _samples(column, primes, j, ell, disc))


def _cli_mell_estimate(a4, a6, cm_disc, ell, budget):
    # the runner of cli.TABLE's mell-estimate
    est = estimate_m(CurveOverQ(a4, a6, cm_disc), ell, budget)
    return {"m_hat": est.m_hat, "samples_used": est.samples_used, "is_upper_bound": True}
