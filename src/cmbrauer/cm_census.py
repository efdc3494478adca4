"""Conductor bounds and counts of CM elliptic curves over fields of bounded
degree, plus the singular K3 census bounds built on them."""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple

from .errors import BudgetError, Frozen, InternalCheckError, bounded_digits, bounded_power
from .minkowski import minkowski_M
from .primes import primerange
from .quadratic import (
    FundamentalDiscriminant,
    IntegralityError,
    _kronecker_prime,
    _swept,
    class_number_field,
    enumerate_fields_by_class_number,
    unit_index,
)

# max conductor with ring class degree 1 in the exceptional fields: the
# exceptional cases with f > degree^2 all have f <= 7, and f > 3 forces degree 2
_DEGREE_ONE_CAP = 3

# floor on the clause bound for the three small-discriminant fields
_EXCEPTIONAL_FLOOR = {-7: 2, -4: 5, -3: 7}

# (Delta_K, d) pairs whose census counts are known exactly, with their values
EXCEPTIONAL_CM_COUNTS = {(-7, 1): 2, (-4, 1): 2, (-3, 1): 3, (-3, 2): 9}

# cap on the degree of a census over fields.  With Python 3.11 on 2 vCPU at
# the 10^5 disc cap, after the sweep, the first census at a degree builds its
# table: 13-14 ms in process at degree 12 (703 fields), 28-44 ms at degree 24
# and 0.12-0.19 s at degree 48.  A repeat cm_count_total then takes
# 0.03-0.04 ms at degree 12, 0.07-0.11 ms at 24 and 0.25-0.53 ms at 48, and a
# repeat singular_k3_refined_sum 1-2 us.  As a process, `cm-count` and
# `k3-census` at degree 12 take 0.22-0.36 s.  A higher cap buys little while
# fields with h_K <= d past the 10^5 disc cap go unsearched (certified_complete
# stays False).
MAX_CENSUS_DEGREE = 12


def _check_census_degree(d: int) -> None:
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    if d > MAX_CENSUS_DEGREE:
        raise BudgetError(f"degree {d} is past the census cap {MAX_CENSUS_DEGREE}")


class ConductorBoundReport(Frozen):
    __slots__ = ("field", "degree", "bound", "case_label")

    def __init__(self, field: FundamentalDiscriminant, degree: int, bound: int, case_label: str):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "case_label", case_label)
        # the "in all cases" cap
        if self.bound > 3 * self.degree ** 2:
            raise InternalCheckError(f"conductor bound {self.bound} exceeds 3 d^2 at d = {self.degree}")


class CensusReport(Frozen):
    # cube_bound is d^3 * number of fields, for comparison
    __slots__ = ("degree", "per_field_counts", "total", "certified_complete", "cube_bound")

    def __init__(self, degree: int, per_field_counts: tuple[tuple[int, int], ...], total: int,
                 certified_complete: bool, cube_bound: int):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "per_field_counts", per_field_counts)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "certified_complete", certified_complete)
        object.__setattr__(self, "cube_bound", cube_bound)
        if self.total != sum(c for _, c in self.per_field_counts):
            raise InternalCheckError(f"census total {self.total} is not the sum of {self.per_field_counts}")


def conductor_bound(field: FundamentalDiscriminant, ring_class_degree: int) -> ConductorBoundReport:
    """Largest conductor f whose ring class field degree [K_f:K] can equal the given degree.

    Clause bounds: max{d^2, 2} over Q(sqrt(-7)), max{d^2, 5} over Q(i),
    max{d^2, 7} over Q(zeta_3), d^2 otherwise; at degree 1 the exceptional
    conductors above 3 are impossible, capping the bound at 3.  A d^2 past
    MAX_DIGITS digits is refused.
    """
    d = ring_class_degree
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    bound = bounded_power(d, 2, "the conductor bound d^2")
    label = "d^2"
    floor_val = _EXCEPTIONAL_FLOOR.get(field.value)
    if floor_val is not None:
        bound = max(bound, floor_val)
        label = f"max(d^2, {floor_val})"
    if d == 1 and bound > _DEGREE_ONE_CAP:
        bound = _DEGREE_ONE_CAP
        label += ", capped at 3 for degree 1"
    return ConductorBoundReport(field, d, bound, label)


def conductor_bound_over_degree(d: int) -> int:
    """Conductor bound in terms of the base field degree alone: min{3d^2, max{d^2, 7}},
    the clause over Q(zeta_3), whose floor 7 is the largest.  A d^2 past
    MAX_DIGITS digits is refused."""
    return conductor_bound(FundamentalDiscriminant(-3), d).bound


def _permissible(dk: int, hk: int, d: int, cap: int) -> list[tuple[int, int]]:
    """The walk of d_permissible_conductors over the field (dk, hk), up to cap."""
    u = unit_index(dk, 2)  # u_f for every f > 1
    room = d * u  # f > 1 is permissible iff h_K g(f) <= room
    # (p, g(p)) for the primes that can divide a permissible f at all: a p
    # dividing an f > 1 with h(O_f) <= d has h_K (p - 1) <= d u <= 3d
    steps = []
    for p in primerange(2, min(cap, 3 * d + 1) + 1):
        if hk * (p - 1) > room:
            break
        steps.append((p, p - _kronecker_prime(dk, p)))
    out = [(1, hk)] if hk <= d else []

    def extend(f: int, g: int, start: int) -> None:
        for i in range(start, len(steps)):
            p, gp = steps[i]
            # g(p^e) >= p - 1 for this and every later prime
            if f * p > cap or hk * g * (p - 1) > room:
                break
            fe, ge = f * p, g * gp
            while fe <= cap and hk * ge <= room:
                h, rem = divmod(hk * ge, u)
                if rem:
                    raise IntegralityError(f"class number formula gave {hk * ge}/{u} for disc {dk}, conductor {fe}")
                out.append((fe, h))
                extend(fe, ge, i + 1)
                fe, ge = fe * p, ge * p

    extend(1, 1, 0)
    out.sort()
    return out


def d_permissible_conductors(field: FundamentalDiscriminant, d: int) -> list[tuple[int, int]]:
    """Conductors f <= conductor_bound with h(O_f) <= d, with their class numbers,
    in ascending f.

    This is the necessary-condition filter (h(O_f) = [K_f:K] <= d); genuine
    permissibility can be strictly smaller, so censuses built on it are
    upper bounds.

    h(O_f) = h_K g(f) / u_f with g multiplicative, g(p^e) = p^(e-1) (p - (Delta_K/p)),
    and u_f = [O_K^x : O_f^x], which is 1 at f = 1 and the same for every f > 1
    (Cox, Primes of the Form x^2 + ny^2, 2nd ed., Thm 7.24).  So the f are found
    by a depth-first walk that extends f by prime powers in ascending prime
    order.  g never falls as f grows, and every later prime p multiplies g by at
    least p - 1 (p = 2 with (Delta_K/2) = 1 multiplies it by 1, not 2), so a
    prime's loop stops once f p > bound or h_K g (p - 1) > d u_f.  Only the
    permissible f are visited, each h is checked to be an integer, and
    (Delta_K/p) is taken once per prime.
    """
    cap = conductor_bound(field, d).bound
    return _permissible(field.value, class_number_field(field.value), d, cap)


def _field_census(field: FundamentalDiscriminant, d: int) -> tuple[list[tuple[int, int]], int]:
    """The walk of the field to 3d^2, and the field's count: the sum of h(O_f)
    over the walk, checked to end at or below the conductor bound and against
    EXCEPTIONAL_CM_COUNTS."""
    # the bound first: it refuses a bad or oversized degree before any walk
    bound = conductor_bound(field, d).bound
    walk = _permissible(field.value, class_number_field(field.value), d, 3 * d * d)
    if walk and walk[-1][0] > bound:
        raise InternalCheckError(f"conductor {walk[-1][0]} over {field.value} at degree {d} is past the bound {bound}")
    count = sum(h for _, h in walk)
    known = EXCEPTIONAL_CM_COUNTS.get((field.value, d))
    if known is not None and count != known:
        raise InternalCheckError(f"census over {field.value} at degree {d} gave {count}, known {known}")
    return walk, count


def cm_count_per_field(field: FundamentalDiscriminant, d: int) -> int:
    """Number of C-isomorphism classes of curves with CM by an order in the field,
    admitting a model over some degree-d field: sum of h(O_f) over permissible f."""
    return _field_census(field, d)[1]


class _CensusTable(namedtuple("_CensusTable", "swept ms per_field count_sums refined_sums")):
    """The fields with h_K <= d in a retained sweep of the given length, in
    ascending |Delta_K|, with their cm_count_per_field counts and the prefix
    sums of those counts and of the per-field terms of singular_k3_refined_sum."""

    __slots__ = ()


# one census table per degree, each thrown away once the sweep it covers grows
_census_tables: dict[int, _CensusTable] = {}


def _census_table(d: int, disc_search_bound: int) -> tuple[_CensusTable, int]:
    """The degree-d table of the retained sweep, reaching disc_search_bound,
    and how many of its fields lie at or below that bound.

    The table is built on the first call at its degree after each sweep, over
    every field of the sweep, through _field_census: one walk per field, to
    3d^2, gives both the field's count and its refined-sum term, and every
    check of the bound, the walk and the count runs on every field.  The
    table is kept only once all of them have passed."""
    _check_census_degree(d)
    swept = _swept(disc_search_bound)
    table = _census_tables.get(d)
    if table is None or table.swept != swept:
        cap = 3 * d * d
        full = d * sum(cap // fa for fa in range(1, cap + 1))
        fields = enumerate_fields_by_class_number(d, swept - 1).fields
        per_field, count_sums, refined_sums = [], [0], [0]
        for k in fields:
            walk, count = _field_census(k, d)
            per_field.append((k.value, count))
            count_sums.append(count_sums[-1] + count)
            refined_sums.append(refined_sums[-1] + full - sum((d - h) * (cap // fa) for fa, h in walk))
        table = _census_tables[d] = _CensusTable(swept, [-k.value for k in fields], tuple(per_field),
                                                 count_sums, refined_sums)
    return table, bisect_right(table.ms, disc_search_bound)


def cm_count_total(d: int, disc_search_bound: int) -> CensusReport:
    """Census over all fields with h_K <= d found below the search bound, read
    from the degree's census table; a degree past MAX_CENSUS_DEGREE is refused."""
    table, n = _census_table(d, disc_search_bound)
    total = table.count_sums[n]
    certified = False
    if d == 1 and disc_search_bound >= 163:
        # the class-number-1 field list is a solved problem: 9 fields, count 13
        if n != 9 or total != 13:
            raise InternalCheckError(f"degree-one census gave {n} fields and {total} curves, known 9 and 13")
        certified = True
    return CensusReport(
        degree=d,
        per_field_counts=table.per_field[:n],
        total=total,
        certified_complete=certified,
        cube_bound=d ** 3 * n,
    )


def singular_k3_bound(d: int, field_count: int, eps=None) -> int:
    """floor(3 d^3 (ln(3d^2) + 1) * field_count), ln by certified upper bound
    to eps, or to rounding.DEFAULT_EPS (1e-9) when eps is None.  A bound past
    MAX_DIGITS digits is refused, and since the ln factor is at least 1, one
    whose 3 d^3 * field_count is already past is refused before any ln."""
    from .rounding import DEFAULT_EPS, _decimal_places, _ln_grid, check_eps
    if d < 1 or field_count < 0:
        raise ValueError(f"need d >= 1 and field_count >= 0, got {(d, field_count)}")
    if field_count == 0:
        return 0
    what = "the singular K3 bound"
    scale = bounded_digits(3 * d ** 3 * field_count, what)
    # (ln + 1) * scale on the upper endpoint hi / h of ln, floored in integers
    _, hi, h = _ln_grid(3 * d * d, _decimal_places(check_eps(DEFAULT_EPS if eps is None else eps)))
    return bounded_digits(scale * (hi + h) // h, what)


def singular_k3_refined_sum(d: int, disc_search_bound: int) -> int:
    """Exact triple sum behind the closed-form census bound: over fields with
    h_K <= d, conductors f <= 3d^2, and divisors f_a | f, of min(h(O_{f_a}), d).

    Each f_a divides floor(3d^2 / f_a) of the f, which sums out the divisors,
    and min(h, d) is d less d - h where h <= d, so per field the sum is
    d sum_{f_a <= 3d^2} floor(3d^2 / f_a) - sum (d - h(O_{f_a})) floor(3d^2 / f_a),
    the second sum over the f_a <= 3d^2 with h(O_{f_a}) <= d, which the walk of
    d_permissible_conductors finds (Cox, Thm 7.24).  The per-field terms are
    summed once, into the degree's census table.  A degree past
    MAX_CENSUS_DEGREE is refused."""
    table, n = _census_table(d, disc_search_bound)
    return table.refined_sums[n]


def singular_k3_strong_bound(d: int, field_count: int, eps=None) -> int:
    """floor(3 M(20)^3 d^3 (ln(3 M(20)^2 d^2) + 1) * field_count); the field
    count argument means #{K : h_K <= M(20) * d}, supplied by the caller.
    This is singular_k3_bound at degree M(20) * d, with the same eps, None
    meaning rounding.DEFAULT_EPS."""
    if d < 1 or field_count < 0:
        raise ValueError(f"need d >= 1 and field_count >= 0, got {(d, field_count)}")
    return singular_k3_bound(minkowski_M(20).value * d, field_count, eps)
