"""Certified integer evaluation of the uniform transcendental-Brauer bounds.

Every bound here is a rational number times powers of pi, a square root, and
affine-in-log factors.  The rational part is exact; pi, ln and sqrt are
replaced by rational enclosures oriented so the floored output is a true
upper bound for the real value.  Every factor is positive, so that upper
bound is the product of upper endpoints (the lower endpoint of pi for a
negative power of pi), formed in integers as one numerator and one
denominator and floored once.  The enclosures are integer pairs (lo, hi)
over the eps grid's denominator h, from cmbrauer.rounding: eval_bound checks
eps once, _evaluate reads the grid once and multiplies the integer
endpoints straight into the product, and the rounding certificate is
written from each (n, h) as str(Fraction(n, h)) would write it, with no
Fraction made past the builder.  Degree-descent constants are exact
integers and are never rounded.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction
from math import gcd

from .errors import Frozen, InternalCheckError, bounded_digits, bounded_power
from .minkowski import minkowski_M
from .rounding import COARSE_EPS, DEFAULT_EPS, _decimal_places, _ln_grid, _pi_tier, _sqrt_grid, check_eps

# certified height constants, exact rationals by fiat, and the products the
# builders take of them: (3.4)^2 10^8, (3.4) 10^4, (2.73) 109 and (5.46) 109 + 3
_C34_SQUARED_E8 = 1156000000
_C34_E4 = 34000
_C323 = Fraction(323, 100)
_C273 = Fraction(273, 100)
_C546 = Fraction(546, 100)
_C273_SHIFT = _C273 * 109
_C546_SHIFT = _C546 * 109 + 3


class LogFactor(namedtuple("LogFactor", "coeff arg shift power")):
    """(coeff * ln(arg) + shift) ** power, with arg a rational >= 1 and coeff >= 0."""

    __slots__ = ()


class SymbolicProduct(Frozen):
    """Exact decomposition rational * pi^pi_exp * sqrt(sqrt_arg) * prod(log factors)."""

    __slots__ = ("rational", "pi_exp", "sqrt_arg", "log_factors")

    def __init__(self, rational: Fraction, pi_exp: int = 0, sqrt_arg: int = 1,
                 log_factors: tuple[LogFactor, ...] = ()):
        object.__setattr__(self, "rational", rational)
        object.__setattr__(self, "pi_exp", pi_exp)
        object.__setattr__(self, "sqrt_arg", sqrt_arg)
        object.__setattr__(self, "log_factors", log_factors)
        # on numerators: every denominator is positive
        if self.rational.numerator <= 0 or self.sqrt_arg < 1:
            raise InternalCheckError(f"rational {self.rational} or sqrt argument {self.sqrt_arg} is not positive")
        for lf in self.log_factors:
            if lf.arg.numerator < lf.arg.denominator or lf.power < 1:
                raise InternalCheckError(f"log factor {lf} needs arg >= 1 and power >= 1")
            if lf.coeff.numerator < 0:
                raise InternalCheckError(f"log factor {lf} needs coeff >= 0, so that it is largest at ln.hi")


class BoundFormula(Frozen):
    """A registered bound; its inputs are the parameters of ``build``, in
    signature order, and ``optional`` are those with a default."""

    __slots__ = ("bound_id", "grh", "build", "expression", "params", "optional")

    def __init__(self, bound_id: str, grh: bool, build: Callable[..., SymbolicProduct], expression: str):
        object.__setattr__(self, "bound_id", bound_id)
        object.__setattr__(self, "grh", grh)
        object.__setattr__(self, "build", build)
        object.__setattr__(self, "expression", expression)
        # co_varnames starts with the positional parameters, then the
        # keyword-only ones; __defaults__ belongs to the last positional ones
        code = build.__code__
        n = code.co_argcount
        params = code.co_varnames[:n + code.co_kwonlyargcount]
        optional = params[n - len(build.__defaults__ or ()):n] + tuple(build.__kwdefaults__ or ())
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "optional", optional)


class BoundReport(Frozen):
    __slots__ = ("bound_id", "inputs", "exact_symbolic", "integer_bound", "conditional",
                 "rounding_certificate", "cross_check")

    def __init__(self, bound_id: str, inputs: dict, exact_symbolic: dict, integer_bound: int,
                 conditional: bool, rounding_certificate: dict, cross_check: dict | None = None):
        object.__setattr__(self, "bound_id", bound_id)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "exact_symbolic", exact_symbolic)
        object.__setattr__(self, "integer_bound", integer_bound)
        object.__setattr__(self, "conditional", conditional)
        object.__setattr__(self, "rounding_certificate", rounding_certificate)
        object.__setattr__(self, "cross_check", cross_check)

    @property
    def provenance(self) -> str:
        return f"bounds:{self.bound_id}"


def _positive(name: str, v) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise ValueError(f"{name} must be a positive integer, got {v!r}")
    return v


def _nonzero(name: str, v) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or v == 0:
        raise ValueError(f"{name} must be a nonzero integer, got {v!r}")
    return v


def _fundamental(name: str, v) -> int:
    from .quadratic import FundamentalDiscriminant

    return FundamentalDiscriminant(v).value


def _flag(name: str, v) -> bool:
    if not isinstance(v, bool):
        raise ValueError(f"{name} must be a boolean, got {v!r}")
    return v


# the check of each input by name; every other input is a positive integer
_CHECKS = {"disc_lambda": _nonzero, "delta_k": _fundamental, "class_number_one": _flag}
# checked after the integer inputs, in this order
_CHECKED_LAST = ("delta_k", "class_number_one")


def _grh_log(arg, power: int = 4) -> LogFactor:
    # the recurring height factor (3.23) ln(arg) + (2.73)*109
    return LogFactor(coeff=_C323, arg=Fraction(arg), shift=_C273_SHIFT, power=power)


def _build_uncond_lattice(disc_lambda, d) -> SymbolicProduct:
    r = Fraction(2 ** 34 * 3 ** 3 * minkowski_M(20).value ** 4 * disc_lambda * disc_lambda * d ** 4)
    return SymbolicProduct(rational=r, pi_exp=-2)


def _build_lattice_k_isog(disc_lambda, L_deg, delta_k, class_number_one=False) -> SymbolicProduct:
    if class_number_one:
        r = Fraction(disc_lambda * disc_lambda * L_deg ** 4, 2 ** 4 * delta_k * delta_k)
        return SymbolicProduct(rational=r)
    r = Fraction(disc_lambda * disc_lambda * L_deg ** 4, 2 ** 2 * abs(delta_k))
    return SymbolicProduct(rational=r, pi_exp=-2)


def _build_ab_lattice(disc_lambda, L_deg, delta_k, class_number_one=False) -> SymbolicProduct:
    if class_number_one:
        r = Fraction(disc_lambda * disc_lambda * L_deg ** 4, delta_k * delta_k)
        return SymbolicProduct(rational=r)
    r = Fraction(2 ** 2 * disc_lambda * disc_lambda * L_deg ** 4, abs(delta_k))
    return SymbolicProduct(rational=r, pi_exp=-2)


def _build_degree_grh(L_deg) -> SymbolicProduct:
    r = Fraction(_C34_SQUARED_E8 * L_deg ** 12)
    return SymbolicProduct(rational=r, log_factors=(_grh_log(L_deg),))


def _build_singular_cover_grh(d) -> SymbolicProduct:
    m20 = minkowski_M(20).value
    # 2^130 * 5^8 * (3.4)^2 = 2^122 * (3.4)^2 * 10^8
    r = Fraction(2 ** 122 * 3 ** 12 * _C34_SQUARED_E8 * m20 ** 12 * d ** 12)
    return SymbolicProduct(rational=r, log_factors=(_grh_log(2 ** 10 * 3 * m20 * d),))


def _build_isog_pair(f1, f2, delta_k, M_deg, class_number_one=False) -> SymbolicProduct:
    if class_number_one:
        return SymbolicProduct(rational=Fraction(f1 * f1 * f2 * f2 * M_deg ** 4))
    r = Fraction(2 ** 2 * f1 * f1 * f2 * f2 * abs(delta_k) * M_deg ** 4)
    return SymbolicProduct(rational=r, pi_exp=-2)


def _build_isog_pair_grh(M_over_k_deg, k_deg) -> SymbolicProduct:
    r = Fraction(_C34_SQUARED_E8 * M_over_k_deg ** 4 * k_deg ** 12)
    return SymbolicProduct(rational=r, log_factors=(_grh_log(k_deg),))


def _build_nonisog_grh(compositum_deg, d) -> SymbolicProduct:
    r = Fraction(2 ** 316 * 241 ** 24 * compositum_deg ** 24)
    lf = LogFactor(coeff=_C546, arg=Fraction(d), shift=_C546_SHIFT, power=24)
    return SymbolicProduct(rational=r, log_factors=(lf,))


def _build_kummer_nonisog_grh(d) -> SymbolicProduct:
    m18 = minkowski_M(18).value
    r = Fraction(2 ** 508 * 241 ** 24 * m18 ** 24 * d ** 24)
    lf = LogFactor(coeff=_C546, arg=Fraction(2 ** 6 * m18 * d), shift=_C546_SHIFT, power=24)
    return SymbolicProduct(rational=r, log_factors=(lf,))


def _build_isogeny_degree(f1, f2=1, *, delta_k) -> SymbolicProduct:
    return SymbolicProduct(rational=Fraction(2 * f1 * f2), pi_exp=-1, sqrt_arg=abs(delta_k))


def _build_isogeny_degree_grh(d) -> SymbolicProduct:
    r = Fraction(_C34_E4 * d * d)
    return SymbolicProduct(rational=r, log_factors=(_grh_log(d, power=2),))


def _build_faltings_grh(d) -> SymbolicProduct:
    lf = LogFactor(coeff=_C273, arg=Fraction(d), shift=_C273_SHIFT, power=1)
    return SymbolicProduct(rational=Fraction(1), log_factors=(lf,))


def _build_isogeny_brauer_multiplier(d, g, rho) -> SymbolicProduct:
    if not 1 <= rho <= g * g:
        raise ValueError(f"rho must lie in [1, g^2] = [1, {g * g}], got {rho}")
    power = bounded_power(d, g * (2 * g - 1) - rho, f"d^(g(2g-1) - rho) at d = {d}, g = {g}, rho = {rho}")
    return SymbolicProduct(rational=Fraction(power))


FORMULAS: dict[str, BoundFormula] = {
    f.bound_id: f
    for f in (
        BoundFormula("uncond_lattice", False, _build_uncond_lattice,
                     "2^34 * 3^3 * pi^-2 * M(20)^4 * disc^2 * d^4"),
        BoundFormula("lattice_k_isog", False, _build_lattice_k_isog,
                     "2^-2 * pi^-2 * |Delta_K|^-1 * disc^2 * L^4  (h=1: 2^-4 * |Delta_K|^-2 * disc^2 * L^4)"),
        BoundFormula("ab_lattice", False, _build_ab_lattice,
                     "2^2 * pi^-2 * |Delta_K|^-1 * disc^2 * L^4  (h=1: |Delta_K|^-2 * disc^2 * L^4)"),
        BoundFormula("ab_GRH", True, _build_degree_grh,
                     "(3.4)^2 * 10^8 * L^12 * ((3.23) ln L + (2.73)*109)^4"),
        BoundFormula("kummer_GRH", True, _build_degree_grh,
                     "(3.4)^2 * 10^8 * L^12 * ((3.23) ln L + (2.73)*109)^4"),
        BoundFormula("singular_cover_GRH", True, _build_singular_cover_grh,
                     "2^130 * 3^12 * 5^8 * (3.4)^2 * M(20)^12 * d^12"
                     " * ((3.23) ln(2^10*3*M(20)*d) + (2.73)*109)^4"),
        BoundFormula("isog_pair", False, _build_isog_pair,
                     "2^2 * pi^-2 * f1^2 * f2^2 * |Delta_K| * M^4  (h=1: f1^2 * f2^2 * M^4)"),
        BoundFormula("isog_pair_GRH", True, _build_isog_pair_grh,
                     "(3.4)^2 * 10^8 * [M:k]^4 * [k:Q]^12 * ((3.23) ln [k:Q] + (2.73)*109)^4"),
        BoundFormula("nonisog_GRH", True, _build_nonisog_grh,
                     "2^316 * 241^24 * D^24 * ((5.46)(109 + ln d) + 3)^24"),
        BoundFormula("kummer_nonisog_GRH", True, _build_kummer_nonisog_grh,
                     "2^508 * 241^24 * M(18)^24 * d^24 * ((5.46)(109 + ln(2^6*M(18)*d)) + 3)^24"),
        BoundFormula("isogeny_degree", False, _build_isogeny_degree,
                     "2 * pi^-1 * f1 * f2 * sqrt(|Delta_K|)"),
        BoundFormula("isogeny_degree_GRH", True, _build_isogeny_degree_grh,
                     "(3.4) * 10^4 * d^2 * ((3.23) ln d + (2.73)*109)^2"),
        BoundFormula("faltings_GRH", True, _build_faltings_grh, "(2.73) * (109 + ln d)"),
        BoundFormula("isogeny_brauer_multiplier", False, _build_isogeny_brauer_multiplier, "d^(g(2g-1) - rho)"),
    )
}

GRH_IDS = frozenset(k for k, f in FORMULAS.items() if f.grh)


def _ratio(n: int, d: int) -> str:
    # str(Fraction(n, d)) for n >= 0 and d > 0, with no Fraction made
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _evaluate(sym: SymbolicProduct, eps) -> tuple[int, dict]:
    # eps None means the documented default: coarse pi pair, ln and sqrt to
    # 1e-9; a given eps has been checked
    pi_eps = COARSE_EPS if eps is None else eps
    fn_eps = DEFAULT_EPS if eps is None else eps
    cert: dict = {"pi_eps": str(pi_eps), "fn_eps": str(fn_eps)}
    # every factor is positive, so the product's upper endpoint is the product
    # of the factors' upper endpoints (pi.lo for pi^-1); it is kept as num / den
    num, den = sym.rational.numerator, sym.rational.denominator
    if sym.pi_exp != 0:
        lo, hi, h = _pi_tier(pi_eps)
        cert["pi"] = [_ratio(lo, h), _ratio(hi, h)]
        e = abs(sym.pi_exp)
        if sym.pi_exp < 0:
            num, den = num * h ** e, den * lo ** e
        else:
            num, den = num * hi ** e, den * h ** e
    s = _decimal_places(fn_eps)
    if sym.sqrt_arg != 1:
        lo, hi, h = _sqrt_grid(sym.sqrt_arg, s)
        cert["sqrt"] = [_ratio(lo, h), _ratio(hi, h)]
        num, den = num * hi, den * h
    for i, lf in enumerate(sym.log_factors):
        lo, hi, h = _ln_grid(lf.arg, s)
        cert[f"ln_{i}"] = [_ratio(lo, h), _ratio(hi, h)]
        # coeff * ln + shift at ln = l / h is (c * l * sd + sh * cd * h) / (cd * sd * h), a positive denominator
        c, cd, sh, sd = lf.coeff.numerator, lf.coeff.denominator, lf.shift.numerator, lf.shift.denominator
        if c * lo * sd + sh * cd * h <= 0:
            raise InternalCheckError(f"log factor {lf} may be nonpositive, so its power is not monotone")
        num *= (c * hi * sd + sh * cd * h) ** lf.power
        den *= (cd * sd * h) ** lf.power
    return num // den, cert


def eval_bound(bound_id: str, inputs: dict, eps=None, assume_grh: bool = False) -> BoundReport:
    """Evaluate one registered bound at exact inputs.

    eps = None uses the documented default rounding (the 355/113 enclosure of
    pi and 1e-9 enclosures of ln and sqrt); an explicit eps applies to all
    enclosures.  Tighter eps never increases the result.  GRH-tagged ids run
    only with assume_grh=True and come back flagged conditional.
    """
    if bound_id not in FORMULAS:
        raise KeyError(f"unknown bound id {bound_id!r}; known: {sorted(FORMULAS)}")
    formula = FORMULAS[bound_id]
    if formula.grh and not assume_grh:
        raise ValueError(f"{bound_id} holds under GRH only; pass assume_grh=True to evaluate")
    missing = [p for p in formula.params if p not in inputs and p not in formula.optional]
    if missing:
        raise ValueError(f"{bound_id} missing inputs: {missing}")
    unknown = [k for k in inputs if k not in formula.params]
    if unknown:
        raise ValueError(f"{bound_id} got unknown inputs: {unknown}")
    order = [p for p in formula.params if p not in _CHECKED_LAST] + list(_CHECKED_LAST)
    sym = formula.build(**{p: _CHECKS.get(p, _positive)(p, inputs[p]) for p in order if p in inputs})
    # each rendered exact part is refused past MAX_DIGITS before any bracket; all are positive
    for name, q in (("rational", sym.rational), ("sqrt argument", sym.sqrt_arg),
                    *(("log argument", lf.arg) for lf in sym.log_factors)):
        bounded_digits(max(q.numerator, q.denominator), f"the {name} of {bound_id}")
    # eps is checked here, once, after the inputs, which are reported first
    bound, cert = _evaluate(sym, None if eps is None else check_eps(eps))
    return BoundReport(
        bound_id=bound_id,
        inputs=dict(inputs),
        exact_symbolic={
            "rational": str(sym.rational),
            "pi_exp": sym.pi_exp,
            "sqrt_arg": sym.sqrt_arg,
            "log_factors": [
                {"coeff": str(lf.coeff), "arg": str(lf.arg), "shift": str(lf.shift), "power": lf.power}
                for lf in sym.log_factors
            ],
            "expression": formula.expression,
        },
        integer_bound=bounded_digits(bound, f"the {bound_id} bound"),
        conditional=formula.grh,
        rounding_certificate=cert,
    )


class TowerConstant(namedtuple("TowerConstant", "name value description provenance")):
    """An exact degree bound [L:k], with what it bounds and its provenance id."""

    __slots__ = ()


def field_tower_constants() -> dict[str, TowerConstant]:
    """Exact degree bounds [L:k] for the field extensions where the relevant
    endomorphisms, isogenies and Kummer structures all become defined."""
    m20 = minkowski_M(20).value
    m18 = minkowski_M(18).value
    entries = (
        TowerConstant("ab_endo", 2 ** 4 * 3, "endomorphism field of a rank-4 abelian surface", "towers:ab_endo"),
        TowerConstant("kummer_full", 2 ** 9 * 3 * m20, "Kummer structure, isogenous CM factors", "towers:kummer_full"),
        TowerConstant("singular_cover", 2 ** 10 * 3 * m20, "abelian double cover of a singular K3", "towers:singular_cover"),
        TowerConstant("kummer_nonisog", 2 ** 6 * m18, "Kummer structure, non-isogenous CM factors", "towers:kummer_nonisog"),
        TowerConstant("rank20_double", 2 * m20, "rank-20 transcendental-cycle double cover step", "towers:rank20_double"),
        TowerConstant("kummer_descent", 2 ** 5 * 3 * m20, "product realization behind the Kummer step", "towers:kummer_descent"),
        TowerConstant("rank18_double", 2 * m18, "rank-18 transcendental-cycle double cover step", "towers:rank18_double"),
        TowerConstant("rank18_quad", 2 ** 2 * m18, "rank-18 cover with the extra quadratic step", "towers:rank18_quad"),
    )
    return {e.name: e for e in entries}


def unit_group_order(delta_k: int) -> int:
    """#O_K^x: 6 for Delta_K = -3, 4 for -4, else 2."""
    from .quadratic import FundamentalDiscriminant

    dk = FundamentalDiscriminant(delta_k).value
    return {-3: 6, -4: 4}.get(dk, 2)


def compose_intro_bound(disc_lambda: int, d: int, eps=None) -> BoundReport:
    """Headline unconditional Kummer bound at degree d, cross-checked against
    the lattice bound specialized with [L:Q] <= 2^9 * 3 * M(20) * d.

    The exact identity 2^-2 * (2^9 * 3)^4 = 2^34 * 3^4 makes the specialized
    form 3 * |Delta_K|^-1 times the headline one, so for |Delta_K| >= 3 the
    specialization can only be tighter.  Both integer values are reported.
    """
    from .lattices import LatticeDescriptor, parse_lattice

    data = parse_lattice(LatticeDescriptor(rank=20, disc=disc_lambda), "kummer")
    intro = eval_bound("uncond_lattice", {"disc_lambda": disc_lambda, "d": d}, eps=eps)
    l_deg = field_tower_constants()["kummer_full"].value * d
    specialized = eval_bound(
        "lattice_k_isog",
        {
            "disc_lambda": disc_lambda,
            "L_deg": l_deg,
            "delta_k": data.field.value,
            "class_number_one": False,
        },
        eps=eps,
    )
    identity_holds = Fraction(1, 2 ** 2) * (2 ** 9 * 3) ** 4 == 2 ** 34 * 3 ** 4
    if not identity_holds:
        raise InternalCheckError("2^-2 * (2^9*3)^4 != 2^34 * 3^4")
    return BoundReport(
        intro.bound_id, intro.inputs, intro.exact_symbolic, intro.integer_bound,
        intro.conditional, intro.rounding_certificate,
        cross_check={
            "specialized_bound_id": specialized.bound_id,
            "specialized_L_deg": l_deg,
            "specialized_integer_bound": specialized.integer_bound,
            "identity": "2^-2 * (2^9*3)^4 == 2^34 * 3^4",
            "identity_holds": identity_holds,
            "ratio_specialized_over_intro": str(Fraction(3, abs(data.field.value))),
            "specialized_le_intro": specialized.integer_bound <= intro.integer_bound,
        },
    )
