"""Conductor bounds and counts of CM elliptic curves over fields of bounded
degree, plus the singular K3 census bounds built on them."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DIGIT_LIMIT, MAX_DIGITS, BudgetError, InternalCheckError, bounded_power
from .minkowski import minkowski_M
from .quadratic import (
    FundamentalDiscriminant,
    Order,
    class_number_field,
    class_number_order,
    enumerate_fields_by_class_number,
)
from .rounding import DEFAULT_EPS, Bracket, floor_upper, ln_bracket

# max conductor with ring class degree 1 in the exceptional fields: the
# exceptional cases with f > degree^2 all have f <= 7, and f > 3 forces degree 2
_DEGREE_ONE_CAP = 3

# floor on the clause bound for the three small-discriminant fields
_EXCEPTIONAL_FLOOR = {-7: 2, -4: 5, -3: 7}

# (Delta_K, d) pairs whose census counts are known exactly, with their values
EXCEPTIONAL_CM_COUNTS = {(-7, 1): 2, (-4, 1): 2, (-3, 1): 3, (-3, 2): 9}

# cap on the degree of a census over fields: it costs about (fields with
# h_K <= d) * 3d^2 class numbers, and with Python 3.11 at the 10^5 disc cap
# degree 12 takes 0.3 s (cm_count_total) and 0.6 s (singular_k3_refined_sum)
# as a process, degree 16 0.7 s and 1.7 s, degree 24 3.0 s and 8.3 s
MAX_CENSUS_DEGREE = 12


def _check_census_degree(d: int) -> None:
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    if d > MAX_CENSUS_DEGREE:
        raise BudgetError(f"degree {d} is past the census cap {MAX_CENSUS_DEGREE}")


@dataclass(frozen=True)
class ConductorBoundReport:
    field: FundamentalDiscriminant | None  # None means the generic clause input
    degree: int
    bound: int
    case_label: str

    def __post_init__(self):
        # the "in all cases" cap
        if self.bound > 3 * self.degree ** 2:
            raise InternalCheckError(f"conductor bound {self.bound} exceeds 3 d^2 at d = {self.degree}")


@dataclass(frozen=True)
class CensusReport:
    degree: int
    per_field_counts: tuple[tuple[int, int], ...]
    total: int
    certified_complete: bool
    cube_bound: int  # d^3 * number of fields, for comparison

    def __post_init__(self):
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
    dk = field.value
    if dk in _EXCEPTIONAL_FLOOR:
        floor_val = _EXCEPTIONAL_FLOOR[dk]
        bound = max(bound, floor_val)
        label = f"max(d^2, {floor_val})"
    else:
        label = "d^2"
    if d == 1 and bound > _DEGREE_ONE_CAP:
        bound = _DEGREE_ONE_CAP
        label += ", capped at 3 for degree 1"
    return ConductorBoundReport(field, d, bound, label)


def conductor_bound_over_degree(d: int) -> int:
    """Conductor bound in terms of the base field degree alone: min{3d^2, max{d^2, 7}}.
    A d^2 past MAX_DIGITS digits is refused."""
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    sq = bounded_power(d, 2, "the conductor bound d^2")
    return min(3 * sq, max(sq, 7))


def d_permissible_conductors(field: FundamentalDiscriminant, d: int) -> list[tuple[int, int]]:
    """Conductors f <= conductor_bound with h(O_f) <= d, with their class numbers.

    This is the necessary-condition filter (h(O_f) = [K_f:K] <= d); genuine
    permissibility can be strictly smaller, so censuses built on it are
    upper bounds.
    """
    cap = conductor_bound(field, d).bound
    out = []
    for f in range(1, cap + 1):
        h = class_number_order(Order(field, f))
        if h <= d:
            out.append((f, h))
    return out


def cm_count_per_field(field: FundamentalDiscriminant, d: int) -> int:
    """Number of C-isomorphism classes of curves with CM by an order in the field,
    admitting a model over some degree-d field: sum of h(O_f) over permissible f."""
    total = sum(h for _, h in d_permissible_conductors(field, d))
    known = EXCEPTIONAL_CM_COUNTS.get((field.value, d))
    if known is not None and total != known:
        raise InternalCheckError(f"census over {field.value} at degree {d} gave {total}, known {known}")
    return total


def cm_count_total(d: int, disc_search_bound: int) -> CensusReport:
    """Census over all fields with h_K <= d found below the search bound;
    a degree past MAX_CENSUS_DEGREE is refused."""
    _check_census_degree(d)
    search = enumerate_fields_by_class_number(d, disc_search_bound)
    per_field = tuple((k.value, cm_count_per_field(k, d)) for k in search.fields)
    total = sum(c for _, c in per_field)
    certified = False
    if d == 1 and disc_search_bound >= 163:
        # the class-number-1 field list is a solved problem: 9 fields, count 13
        if len(search.fields) != 9 or total != 13:
            raise InternalCheckError(f"degree-one census gave {len(search.fields)} fields and {total} curves,"
                                     " known 9 and 13")
        certified = True
    return CensusReport(
        degree=d,
        per_field_counts=per_field,
        total=total,
        certified_complete=certified,
        cube_bound=d ** 3 * len(search.fields),
    )


def singular_k3_bound(d: int, field_count: int, eps=DEFAULT_EPS) -> int:
    """floor(3 d^3 (ln(3d^2) + 1) * field_count), ln by certified upper bound.
    A bound past MAX_DIGITS digits is refused, and since the ln factor is at
    least 1, one whose 3 d^3 * field_count is already past is refused before
    any ln."""
    if d < 1 or field_count < 0:
        raise ValueError(f"need d >= 1 and field_count >= 0, got {(d, field_count)}")
    if field_count == 0:
        return 0
    scale = 3 * d ** 3 * field_count
    if scale >= DIGIT_LIMIT or (
            bound := floor_upper((ln_bracket(3 * d * d, eps) + Bracket.exact(1)).scale(scale))) >= DIGIT_LIMIT:
        raise BudgetError(f"the singular K3 bound has more than {MAX_DIGITS} digits")
    return bound


def singular_k3_refined_sum(d: int, disc_search_bound: int) -> int:
    """Exact triple sum behind the closed-form census bound: over fields with
    h_K <= d, conductors f <= 3d^2, and divisors f_a | f, of min(h(O_{f_a}), d).
    Each f_a divides floor(3d^2 / f_a) of the f, which sums out the divisors.
    A degree past MAX_CENSUS_DEGREE is refused."""
    _check_census_degree(d)
    search = enumerate_fields_by_class_number(d, disc_search_bound)
    total = 0
    cap = 3 * d * d
    for k in search.fields:
        hk = class_number_field(k.value)
        total += sum(min(class_number_order(Order(k, fa), hk), d) * (cap // fa) for fa in range(1, cap + 1))
    return total


def singular_k3_strong_bound(d: int, field_count: int, eps=DEFAULT_EPS) -> int:
    """floor(3 M(20)^3 d^3 (ln(3 M(20)^2 d^2) + 1) * field_count); the field
    count argument means #{K : h_K <= M(20) * d}, supplied by the caller.
    This is singular_k3_bound at degree M(20) * d."""
    if d < 1 or field_count < 0:
        raise ValueError(f"need d >= 1 and field_count >= 0, got {(d, field_count)}")
    return singular_k3_bound(minkowski_M(20).value * d, field_count, eps)
