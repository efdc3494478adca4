"""Arithmetic of imaginary quadratic fields and their orders.

Discriminants, Kronecker symbols, class numbers, unit indices, and
enumeration of fields by class number.  Class numbers of fields come from one
retained sweep of reduced forms over a range of discriminants, or outside it
from a per-field count of the forms by first coefficient (37-38 us at
|Delta_K| = 2-6 * 10^4, 4.5-12.3 ms near 10^9).  An order discriminant
splits into f^2 * Delta_K by its square part, found by gcds with blocks of
table primes up to the cube root, and a conductor's primes come from
factorint's loop as a list, with no dict.  Everything is exact integer
arithmetic.

A session keeps the sweep to the largest disc bound asked for (1.9 MiB at
MAX_DISC_BOUND; 2.8 MiB at its peak, while the count of all forms is still
beside it), an lru_cache of the class numbers counted past the sweep (at
most PAST_SWEEP_LIMIT entries, about 1.8 MiB), and the lru_cache of
is_fundamental_discriminant, 2^14 verdicts (by tracemalloc on CPython 3.11:
2.0 MiB once it first fills, 2.6 MiB after evictions have grown its table,
3.9 MiB at the peak).  A form_class_counts answer is a view of the sweep's
counts, not a copy, so one that is still held and has not been written
keeps its sweep's list alive.

enumerate_fields_by_class_number reads an index per class-number cap: the
sweep's fields with h_K <= cap in ascending |Delta_K|, merged once per sweep,
so a warm call is one bisect and one tuple slice.  Each field is validated
once per sweep and all caps share its object.  A cap past the sweep's largest
class number (533 at MAX_DISC_BOUND) is read as that largest one, so all such
caps share one index.  The last INDEX_CAPS caps merged are kept; by tracemalloc at MAX_DISC_BOUND the index holds 106 KiB with caps
1-12 (703 fields), 2.9 MiB for a cap holding all 30,392 fields (0.05-0.06 s
to merge), and at most 9.8 MiB with 16 caps that hold nearly all of them.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import ItemsView, MutableMapping
from functools import lru_cache
from itertools import compress
from math import isqrt

from .errors import BudgetError, Frozen, InternalCheckError, bounded_digits
from .primes import _prime_factors, isprime, primerange, sqrt_mod, square_part


class IntegralityError(InternalCheckError):
    """The class-number formula produced a non-integer. Indicates a bug."""


def _squarefree(n: int) -> bool:
    # squarefree means no p^2 divides |n|; square_part rejects n = 0
    return square_part(abs(n)) == 1


# bounded: every Order and class number validates its field through here;
# census_session cycles about 8,300 distinct fields through it, which a
# cache of 4,096 missed on every revisit
@lru_cache(maxsize=1 << 14)
def is_fundamental_discriminant(n: int) -> bool:
    if n >= 0 or n % 4 not in (0, 1):
        return False
    if n % 4 == 1:
        return _squarefree(n)
    q = n // 4
    return q % 4 in (2, 3) and _squarefree(q)


_set = object.__setattr__


class FundamentalDiscriminant(Frozen):
    """Discriminant of an imaginary quadratic field."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        if not is_fundamental_discriminant(value):
            raise ValueError(f"{value} is not a fundamental discriminant of an imaginary quadratic field")
        _set(self, "value", value)


class Order(Frozen):
    """Order of conductor f in an imaginary quadratic field; disc = f^2 * Delta_K."""

    __slots__ = ("field", "conductor")

    def __init__(self, field: FundamentalDiscriminant, conductor: int):
        if conductor < 1:
            raise ValueError(f"conductor must be positive, got {conductor}")
        _set(self, "field", field)
        _set(self, "conductor", conductor)

    @property
    def discriminant(self) -> int:
        return bounded_digits(self.conductor ** 2 * self.field.value, "the order discriminant")


def fundamental_discriminant(n: int) -> tuple[FundamentalDiscriminant, int]:
    """Split an order discriminant n < 0 into (Delta_K, conductor f), n = f^2 * Delta_K."""
    if n >= 0:
        raise ValueError(f"order discriminant must be negative, got {n}")
    if n % 4 not in (0, 1):
        raise ValueError(f"{n} is not 0 or 1 mod 4, so not an order discriminant")
    # n / s^2 is squarefree and determines the field: it is Delta_K when 1
    # mod 4, and else s is even and Delta_K = 4 n / s^2
    s = square_part(-n)
    d0 = n // (s * s)
    if d0 % 4 == 1:
        dk, f = d0, s
    else:
        dk, f = 4 * d0, s // 2
    if f < 1 or f * f * dk != n:
        raise InternalCheckError(f"{n} is not f^2 times {dk}: the factorization of {-n} is wrong")
    return FundamentalDiscriminant(dk), f


def kronecker_symbol(delta: int, p: int) -> int:
    """Legendre symbol for odd p; at p = 2 the three-case rule for discriminants."""
    if not isprime(p):
        raise ValueError(f"p must be prime, got {p}")
    return _kronecker_prime(delta, p)


def _kronecker_prime(delta: int, p: int) -> int:
    """kronecker_symbol for a p the caller already knows is prime, such as one
    from primerange or _prime_factors: the same value without the primality test."""
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


# h_K of the fields past the sweep that class_number_field has counted
PAST_SWEEP_LIMIT = 1 << 14


@lru_cache(maxsize=PAST_SWEEP_LIMIT)
def _count_forms_by_a(delta_k: int) -> int:
    """h_K for a fundamental delta_k < 0 by the first coefficients a of its
    reduced forms (Cox, Lemma 2.5).  The b mod 2a with b^2 = delta_k (mod 4a)
    number r(a): multiplicative, r(p^e) = 1 + (delta_k/p) for p not dividing
    delta_k, else 1 at e = 1 and 0 past it.  If 4a^2 <= |delta_k|, c >= a for
    every b: r(a) forms.  Past it the b in [sqrt(4a^2 - |delta_k|), a] that are
    +-sqrt(delta_k) mod big[a], a's largest odd prime, are tried; b < a < c counts twice."""
    m, top = -delta_k, isqrt(-delta_k // 3)
    r, big = [1] * (top + 1), [1] * (top + 1)
    half = max(top // 2, 2)
    for p in primerange(2, half + 1):
        k = _kronecker_prime(delta_k, p)
        if k == 1:
            r[p::p] = [2 * x for x in r[p::p]]
        elif k == -1:
            r[p::p] = [0] * (top // p)
        else:
            r[p * p::p * p] = [0] * (top // (p * p))
        if k >= 0 and p > 2:
            big[p::p] = [p] * (top // p)
    # an odd p past top/2 (p = 2 always slices) divides no a <= top but p:
    # r(p) = 1 + (delta_k/p), and Euler's criterion gives k = 0, 1 or p - 1
    for p in primerange(half + 1, top + 1):
        k = pow(delta_k, p >> 1, p)
        if k < 2:
            r[p], big[p] = k + 1, p
        else:
            r[p] = 0
    inner = isqrt(m) // 2
    h = sum(r[1:inner + 1])
    for a in range(inner + 1, top + 1):
        if r[a]:
            four_a, p = 4 * a, big[a]
            lo = isqrt(four_a * a - m - 1) + 1
            s = sqrt_mod(delta_k, p) if m % p else 0
            for x in {s, -s % p}:
                x += p * ((x - m) % 2)  # b = x (mod 2p)
                for b in range(lo + (x - lo) % (2 * p), a + 1, 2 * p):
                    if not (b * b + m) % four_a:
                        h += 1 if b == a or b * b + m == four_a * a else 2
    return h


def _sweep(bound: int) -> tuple[list[int], list[int]]:
    """Reduced form counts indexed by m = -disc for 0 <= m <= bound: the
    primitive ones h(m), and all of them N(m).

    For each reduced (a, b) with b >= 0, the discriminants b^2 - 4ac over
    c >= a step by 4a, so a whole run is one slice of N.  A form of content g
    is g times a primitive form of disc/g^2, so N(m) is the sum of h(m/g^2)
    over g^2 | m, and h(m) the sum of mu(g) N(m/g^2).  As mu is multiplicative,
    that Moebius inversion is one step per prime p <= sqrt(bound): h(p^2 k) -=
    h(k) for every k at once, one slice formed from the values before it.
    """
    forms = [0] * (bound + 1)
    for a in range(1, isqrt(bound // 3) + 1):
        four_a = 4 * a
        for b in range(a + 1):
            start = four_a * a - b * b
            # (a, -b, c) is reduced too when 0 < b < a, save at c = a
            w = 2 if 0 < b < a else 1
            forms[start::four_a] = [x + w for x in forms[start::four_a]]
            if w == 2 and start <= bound:
                forms[start] -= 1
    counts = forms.copy()
    for p in primerange(2, isqrt(bound) + 1):
        pp = p * p
        counts[pp::pp] = [x - y for x, y in zip(counts[pp::pp], counts[1:bound // pp + 1])]
    return counts, forms


# The retained sweep: primitive reduced form counts indexed by m = -disc, and
# for each class number (keys ascending) the fundamental m in ascending order;
# beside them, for each class number some cap's index has reached, the
# validated fields of those m, and the indexes themselves (see _cap_index).
# A bound past the table sweeps again to that bound and replaces all four,
# never changing them in place; every smaller bound reads them.
_counts: list[int] = []
_fields_by_h: dict[int, list[int]] = {}
_field_objects_by_h: dict[int, list[FundamentalDiscriminant]] = {}
_index: dict[int, tuple[tuple[int, ...], tuple[FundamentalDiscriminant, ...]]] = {}

# the caps whose index a session keeps: MAX_CENSUS_DEGREE caps and a few more
INDEX_CAPS = 16

# caps on the census inputs, by the time each protects (Python 3.11, 2 vCPU,
# in process): a sweep to 10^5 takes 0.09-0.15 s, and _count_forms_by_a 4.5,
# 6.3 and 12.3 ms on the fundamental discs -999999995, -999999991 and
# -999999959 (best of 7 timeit runs of its __wrapped__; `classnum --disc
# -999999959` takes 0.07 s as a process)
MAX_DISC_BOUND = 10 ** 5
MAX_FIELD_DISC = 10 ** 9


def _retained(disc_bound: int) -> list[int]:
    global _counts, _fields_by_h, _field_objects_by_h, _index
    if disc_bound > MAX_DISC_BOUND:
        raise BudgetError(f"disc bound {disc_bound} is past the census cap {MAX_DISC_BOUND}")
    if disc_bound >= len(_counts):
        counts, forms = _sweep(disc_bound)
        # every m = 0, 3 (mod 4) from 3 on has its principal form: the views rely on it
        if 0 in counts[3::4] or 0 in counts[4::4]:
            raise InternalCheckError(f"the sweep to {disc_bound} missed the principal form of a discriminant")
        # -m is fundamental when it has forms and all of them are primitive:
        # were -m = g^2 D with g > 1, g times the principal form of D would not be
        fields_by_h: dict[int, list[int]] = {}
        for m, (h, n) in enumerate(zip(counts, forms)):
            if h and h == n:
                fields_by_h.setdefault(h, []).append(m)
        _counts, _fields_by_h, _field_objects_by_h, _index = counts, dict(sorted(fields_by_h.items())), {}, {}
    return _counts


def _swept(disc_search_bound: int) -> int:
    """Length of the retained sweep, swept again first if disc_search_bound
    lies past it."""
    if disc_search_bound < 3:
        raise ValueError("disc_search_bound must be at least 3")
    return len(_retained(disc_search_bound))


def _cap_index(h_max: int) -> tuple[tuple[int, ...], tuple[FundamentalDiscriminant, ...]]:
    """The fields of the retained sweep with h_K <= h_max in ascending
    |Delta_K|: their m = -Delta_K, and their field objects.

    Each cap's index is merged from the runs of _fields_by_h once per sweep,
    and the last INDEX_CAPS caps merged are kept, the oldest dropped first.  A
    cap past the sweep's largest class number holds every field, so all such
    caps share the index of that largest one.  A run's fields are validated
    when the first index that reaches it is merged, once per sweep, and every
    index holding a field shares its object."""
    index = _index.get(h_max)
    if index is not None:
        return index
    h_max = min(h_max, next(reversed(_fields_by_h), h_max))
    index = _index.get(h_max)
    if index is None:
        ms, fields = [], []
        for h, run in _fields_by_h.items():
            if h > h_max:
                break
            objects = _field_objects_by_h.get(h)
            if objects is None:
                objects = _field_objects_by_h[h] = [FundamentalDiscriminant(-m) for m in run]
            ms += run
            fields += objects
        # each run ascends, so the sort only merges them
        order = sorted(range(len(ms)), key=ms.__getitem__)
        index = tuple(map(ms.__getitem__, order)), tuple(map(fields.__getitem__, order))
        if len(_index) >= INDEX_CAPS:
            del _index[next(iter(_index))]
        _index[h_max] = index
    return index


class FormClassCounts(MutableMapping):
    """form_class_counts's answer: discriminant -> count, keys ascending.

    Until its first write it views the sweep's counts up to its bound n.  Its
    keys are the D = 0, 1 (mod 4) with -n <= D <= -3, each of which has its
    principal form, and no other D has a form (Cox, Section 2), so a lookup is
    a range and residue test and one list read.  The first write copies the
    range into a dict of its own.  A sweep that grows replaces the counts
    list, never changes it in place, so an answer taken earlier still gives
    its own bound's counts."""

    __slots__ = ("_counts", "_n", "_own")

    def __init__(self, counts: list[int], n: int, own: dict[int, int] | None = None):
        self._counts, self._n, self._own = counts, n, own

    def __getitem__(self, key):
        if self._own is not None:
            return self._own[key]
        # found as a dict of the range finds it: -4.0 and Fraction(-23) are keys;
        # d & 2 is 0 exactly when d = 0, 1 (mod 4)
        try:
            d = int(key)
        except (TypeError, ValueError, OverflowError):
            raise KeyError(key) from None
        if d != key or d & 2 or not -self._n <= d <= -3:
            raise KeyError(key)
        return self._counts[-d]

    def __len__(self) -> int:
        return len(self._own) if self._own is not None else self._n // 4 + (self._n + 1) // 4

    def __iter__(self):
        if self._own is not None:
            return iter(self._own)
        # the D with a form are exactly those with a nonzero count
        return compress(range(-self._n, -2), self._counts[self._n:2:-1])

    def items(self):
        return _CountItems(self)

    def _mine(self) -> dict[int, int]:
        # the first write copies the range and lets go of the shared list
        if self._own is None:
            self._own, self._counts = dict(self.items()), None
        return self._own

    def __setitem__(self, key, value):
        self._mine()[key] = value

    def __delitem__(self, key):
        del self._mine()[key]

    def popitem(self):
        return self._mine().popitem()

    def clear(self):
        self._own, self._counts = {}, None

    def __reduce__(self):
        # copy.copy and pickle both take this: a dict of the range, owned
        return FormClassCounts, ([], 0, dict(self.items()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class _CountItems(ItemsView):
    """FormClassCounts.items(): its unwritten view pairs the keys with their
    counts and drops the zero ones, as __iter__ does, without a lookup per key."""

    __slots__ = ()

    def __iter__(self):
        counts = self._mapping
        if counts._own is not None:
            return iter(counts._own.items())
        values = counts._counts[counts._n:2:-1]
        return compress(zip(range(-counts._n, -2), values), values)


def form_class_counts(disc_bound: int) -> FormClassCounts:
    """Primitive reduced form counts for every discriminant -disc_bound <= disc < 0.

    Keys run from -disc_bound up to -3, over the discriminants 0 or 1 mod 4.
    The answer is a Mapping, not a dict (dict(answer.items()) it for JSON,
    which pairs keys and counts in C): a view of the retained sweep's counts,
    so a bound at or below the largest one asked for so far copies nothing.  It is the caller's own: its first write
    copies the range into a dict of its own.  While it has not been written
    it keeps the counts of the sweep it came from alive (1.9 MiB at
    MAX_DISC_BOUND).
    """
    if disc_bound < 3:
        raise ValueError(f"disc_bound must be at least 3, got {disc_bound}")
    return FormClassCounts(_retained(disc_bound), disc_bound)


def class_number_field(delta_k: int) -> int:
    """h_K: read from the retained sweep when |Delta_K| lies inside it, else
    counted by _count_forms_by_a, which keeps the PAST_SWEEP_LIMIT last asked for;
    |Delta_K| past MAX_FIELD_DISC is refused."""
    if not is_fundamental_discriminant(delta_k):
        raise ValueError(f"{delta_k} is not a fundamental discriminant of an imaginary quadratic field")
    if -delta_k < len(_counts):
        h = _counts[-delta_k]
    elif -delta_k > MAX_FIELD_DISC:
        raise BudgetError(f"|Delta_K| = {-delta_k} is past the class number cap {MAX_FIELD_DISC}")
    else:
        h = _count_forms_by_a(delta_k)
    if h < 1:
        raise InternalCheckError(f"no reduced form of discriminant {delta_k}")
    return h


def class_number_order(order: Order) -> int:
    """h(O_f) = h_K * f / [O_K^x:O_f^x] * prod_{p | f} (1 - (Delta_K/p)/p).

    Exact integer arithmetic: each p divides f, so it is divided out before
    p - (Delta_K/p) is multiplied in, and the unit index must leave no
    remainder; integrality is checked, not trusted.
    """
    dk = order.field.value
    f = order.conductor
    h = class_number_field(dk) * f
    for p in _prime_factors(f):
        h = h // p * (p - _kronecker_prime(dk, p))
    u = unit_index(dk, f)
    q, rem = divmod(h, u)
    if rem or q <= 0:
        raise IntegralityError(f"class number formula gave {h}/{u} for disc {dk}, conductor {f}")
    return q


class FieldSearch(Frozen):
    """Fields found with h_K <= h_max and |Delta_K| <= search_bound.

    certified_complete is always False: fields beyond the search bound are
    not ruled out by this enumeration.
    """

    __slots__ = ("fields", "h_max", "search_bound", "certified_complete")

    def __init__(self, fields: tuple[FundamentalDiscriminant, ...], h_max: int, search_bound: int,
                 certified_complete: bool = False):
        _set(self, "fields", fields)
        _set(self, "h_max", h_max)
        _set(self, "search_bound", search_bound)
        _set(self, "certified_complete", certified_complete)


def enumerate_fields_by_class_number(h_max: int, disc_search_bound: int) -> FieldSearch:
    """All fundamental Delta_K with |Delta_K| <= disc_search_bound and h_K <= h_max,
    in ascending |Delta_K|: a slice of the cap's index of the retained sweep."""
    _swept(disc_search_bound)
    ms, fields = _cap_index(h_max)
    return FieldSearch(fields[:bisect_right(ms, disc_search_bound)], h_max, disc_search_bound)


# the runners that cli.TABLE names
def _cli_classnum(disc, conductor):
    order = Order(FundamentalDiscriminant(disc), conductor)
    return {"h": class_number_order(order), "order_discriminant": order.discriminant}


def _cli_fields_by_h(h, disc_bound):
    search = enumerate_fields_by_class_number(h, disc_bound)
    return {
        "discriminants": [f.value for f in search.fields],
        "count": len(search.fields),
        "certified_complete": search.certified_complete,
    }
