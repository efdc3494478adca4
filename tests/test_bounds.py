"""Bound formula registry: frozen values, rounding soundness, GRH gating."""

import inspect
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cmbrauer import bounds, rounding
from cmbrauer.bounds import (
    FORMULAS,
    GRH_IDS,
    BoundFormula,
    BoundReport,
    LogFactor,
    SymbolicProduct,
    compose_intro_bound,
    eval_bound,
    field_tower_constants,
    unit_group_order,
)
from cmbrauer.errors import InternalCheckError
from cmbrauer.minkowski import minkowski_M
from cmbrauer.quadratic import is_fundamental_discriminant
from cmbrauer.rounding import COARSE_EPS, DEFAULT_EPS, FINE_EPS
from oracles import bracket_product

PI_REF = Fraction(3141592653589793238462643383279502884197, 10 ** 39)

# one valid input dict per formula, reused by the sweep tests
SAMPLE_INPUTS = {
    "uncond_lattice": {"disc_lambda": 28, "d": 2},
    "lattice_k_isog": {"disc_lambda": -7, "L_deg": 2, "delta_k": -7},
    "ab_lattice": {"disc_lambda": -4, "L_deg": 4, "delta_k": -4},
    "ab_GRH": {"L_deg": 3},
    "kummer_GRH": {"L_deg": 5},
    "singular_cover_GRH": {"d": 2},
    "isog_pair": {"f1": 1, "f2": 2, "delta_k": -8, "M_deg": 2},
    "isog_pair_GRH": {"M_over_k_deg": 4, "k_deg": 2},
    "nonisog_GRH": {"compositum_deg": 8, "d": 2},
    "kummer_nonisog_GRH": {"d": 2},
    "isogeny_degree": {"f1": 2, "f2": 3, "delta_k": -11},
    "isogeny_degree_GRH": {"d": 3},
    "faltings_GRH": {"d": 2},
    "isogeny_brauer_multiplier": {"d": 2, "g": 2, "rho": 3},
}


def _run(bound_id, inputs, **kw):
    return eval_bound(bound_id, inputs, assume_grh=bound_id in GRH_IDS, **kw)


def test_registry_complete():
    assert set(FORMULAS) == set(SAMPLE_INPUTS)
    assert GRH_IDS == {
        "ab_GRH",
        "kummer_GRH",
        "singular_cover_GRH",
        "isog_pair_GRH",
        "nonisog_GRH",
        "kummer_nonisog_GRH",
        "isogeny_degree_GRH",
        "faltings_GRH",
    }


def _signature_inputs(build):
    params = inspect.signature(build).parameters.values()
    return tuple(p.name for p in params), tuple(p.name for p in params if p.default is not p.empty)


def test_formula_inputs_match_the_build_signature():
    # BoundFormula reads its inputs from the code object of build; inspect is the oracle
    assert len(FORMULAS) == 14
    for bound_id, formula in FORMULAS.items():
        assert (formula.params, formula.optional) == _signature_inputs(formula.build), bound_id
    degree = FORMULAS["isogeny_degree"]  # delta_k is keyword-only
    assert (degree.params, degree.optional) == (("f1", "f2", "delta_k"), ("f2",))
    # keyword-only parameters with and without defaults, interleaved
    formula = BoundFormula("x", False, lambda a, b=1, *, c, e=2, g: None, "")
    assert (formula.params, formula.optional) == _signature_inputs(formula.build)
    assert (formula.params, formula.optional) == (("a", "b", "c", "e", "g"), ("b", "e"))


def test_isog_pair_frozen_values():
    # 2^2 * pi^-2 * |Delta_K| * M^4 at f1 = f2 = 1, Delta_K = -4, M = 2 is 256/pi^2
    r = eval_bound("isog_pair", {"f1": 1, "f2": 1, "delta_k": -4, "M_deg": 2})
    assert r.integer_bound == 25
    assert not r.conditional
    assert r.provenance == "bounds:isog_pair"
    h1 = eval_bound(
        "isog_pair",
        {"f1": 1, "f2": 1, "delta_k": -4, "M_deg": 2, "class_number_one": True},
    )
    assert h1.integer_bound == 16
    assert h1.exact_symbolic["pi_exp"] == 0


def test_isogeny_degree_frozen_values():
    assert eval_bound("isogeny_degree", {"f1": 1, "delta_k": -4}).integer_bound == 1
    assert eval_bound("isogeny_degree", {"f1": 2, "f2": 3, "delta_k": -11}).integer_bound == 12


def test_multiplier_exact():
    assert eval_bound("isogeny_brauer_multiplier", {"d": 3, "g": 2, "rho": 4}).integer_bound == 9
    assert eval_bound("isogeny_brauer_multiplier", {"d": 2, "g": 2, "rho": 1}).integer_bound == 32
    for d in (1, 2, 5):
        for g in (1, 2, 3):
            for rho in range(1, g * g + 1):
                r = eval_bound("isogeny_brauer_multiplier", {"d": d, "g": g, "rho": rho})
                assert r.integer_bound == d ** (g * (2 * g - 1) - rho)
    for rho in (0, 5):
        with pytest.raises(ValueError):
            eval_bound("isogeny_brauer_multiplier", {"d": 2, "g": 2, "rho": rho})


def test_grh_log_one_is_exact():
    # ln 1 = 0 collapses the height factor to an exact rational
    assert eval_bound("faltings_GRH", {"d": 1}, assume_grh=True).integer_bound == 297
    assert (
        eval_bound("isogeny_degree_GRH", {"d": 1}, assume_grh=True).integer_bound
        == 3010628766
    )
    exact = (Fraction(34, 10) ** 2 * 10 ** 8 * (Fraction(273, 100) * 109) ** 4).__floor__()
    for bid in ("ab_GRH", "kummer_GRH"):
        assert eval_bound(bid, {"L_deg": 1}, assume_grh=True).integer_bound == exact


def test_uncond_lattice_sound_and_tight():
    c = Fraction(2 ** 34 * 3 ** 3) * minkowski_M(20).value ** 4
    true = c / (PI_REF * PI_REF)
    got = eval_bound("uncond_lattice", {"disc_lambda": 1, "d": 1}).integer_bound
    assert got >= true.__floor__()
    assert got <= (true * (1 + Fraction(5, 10 ** 6))).__floor__()
    fine = eval_bound("uncond_lattice", {"disc_lambda": 1, "d": 1}, eps=FINE_EPS).integer_bound
    assert true.__floor__() <= fine <= (true * (1 + Fraction(1, 10 ** 11))).__floor__()


def test_grh_gate():
    for bid in GRH_IDS:
        with pytest.raises(ValueError):
            eval_bound(bid, SAMPLE_INPUTS[bid])
        r = eval_bound(bid, SAMPLE_INPUTS[bid], assume_grh=True)
        assert r.conditional
    # the flag is harmless on unconditional formulas
    r = eval_bound("isog_pair", SAMPLE_INPUTS["isog_pair"], assume_grh=True)
    assert not r.conditional


def test_input_validation():
    with pytest.raises(KeyError):
        eval_bound("not_a_bound", {})
    with pytest.raises(ValueError):
        eval_bound("uncond_lattice", {"disc_lambda": 4})
    with pytest.raises(ValueError):
        eval_bound("uncond_lattice", {"disc_lambda": 4, "d": 1, "extra": 3})
    with pytest.raises(ValueError):
        eval_bound("uncond_lattice", {"disc_lambda": 0, "d": 1})
    with pytest.raises(ValueError):
        eval_bound("uncond_lattice", {"disc_lambda": 4, "d": 0})
    with pytest.raises(ValueError):
        eval_bound("uncond_lattice", {"disc_lambda": 4, "d": True})
    with pytest.raises(ValueError):
        eval_bound("isog_pair", {"f1": 1, "f2": 1, "delta_k": -4, "M_deg": 2, "class_number_one": 1})
    with pytest.raises(ValueError):
        eval_bound("isog_pair", {"f1": 1, "f2": 1, "delta_k": -12, "M_deg": 2})
    with pytest.raises(ValueError, match="disc_lambda must be a nonzero integer"):
        eval_bound("uncond_lattice", {"disc_lambda": True, "d": 1})
    # formulas with no pi, sqrt or ln factor still check eps
    multiplier = {"d": 2, "g": 2, "rho": 1}
    for eps in (0, 5, -1):
        with pytest.raises(ValueError, match="eps must lie in"):
            eval_bound("isogeny_brauer_multiplier", multiplier, eps=eps)
    with pytest.raises(ValueError, match="eps must lie in"):
        eval_bound("isog_pair", {"f1": 1, "f2": 1, "delta_k": -4, "M_deg": 2, "class_number_one": True}, eps=0)
    # with two bad inputs, the integer inputs are checked before delta_k, and delta_k before the flag
    with pytest.raises(ValueError, match="M_deg must be a positive integer"):
        eval_bound("isog_pair", {"f1": 1, "f2": 1, "delta_k": -5, "M_deg": 0})
    with pytest.raises(ValueError, match="f2 must be a positive integer"):
        eval_bound("isogeny_degree", {"f1": 1, "f2": 0, "delta_k": -5})
    with pytest.raises(ValueError, match=r"missing inputs: \['delta_k', 'M_deg'\]"):
        eval_bound("isog_pair", {"f1": 1, "f2": 1})
    with pytest.raises(ValueError, match="-5 is not a fundamental discriminant"):
        eval_bound("isog_pair", {"f1": 1, "f2": 1, "delta_k": -5, "M_deg": 2, "class_number_one": 1})


def test_report_shape():
    r = _run("kummer_nonisog_GRH", SAMPLE_INPUTS["kummer_nonisog_GRH"])
    assert isinstance(r, BoundReport)
    assert set(r.exact_symbolic) == {"rational", "pi_exp", "sqrt_arg", "log_factors", "expression"}
    assert r.rounding_certificate["pi_eps"] == str(COARSE_EPS)
    assert r.rounding_certificate["fn_eps"] == str(DEFAULT_EPS)
    assert "ln_0" in r.rounding_certificate
    assert r.integer_bound > 0


def test_tighter_eps_never_increases():
    for bid, inputs in SAMPLE_INPUTS.items():
        default = _run(bid, inputs).integer_bound
        coarse = _run(bid, inputs, eps=COARSE_EPS).integer_bound
        mid = _run(bid, inputs, eps=DEFAULT_EPS).integer_bound
        fine = _run(bid, inputs, eps=FINE_EPS).integer_bound
        assert fine <= mid <= coarse, bid
        assert fine <= default <= coarse, bid


def test_monotone_in_inputs():
    for d in range(1, 5):
        prev = None
        for disc in (4, 12, 28, 100):
            v = eval_bound("uncond_lattice", {"disc_lambda": disc, "d": d}).integer_bound
            if prev is not None:
                assert v >= prev
            prev = v
    prev = None
    for f1 in range(1, 6):
        v = eval_bound("isog_pair", {"f1": f1, "f2": 2, "delta_k": -8, "M_deg": 2}).integer_bound
        if prev is not None:
            assert v > prev
        prev = v
    prev = None
    for d in range(1, 6):
        v = eval_bound("kummer_nonisog_GRH", {"d": d}, assume_grh=True).integer_bound
        if prev is not None:
            assert v > prev
        prev = v


def test_tower_constants():
    t = field_tower_constants()
    m20 = minkowski_M(20).value
    m18 = minkowski_M(18).value
    expected = {
        "ab_endo": 48,
        "kummer_full": 2 ** 9 * 3 * m20,
        "singular_cover": 2 ** 10 * 3 * m20,
        "kummer_nonisog": 2 ** 6 * m18,
        "rank20_double": 2 * m20,
        "kummer_descent": 2 ** 5 * 3 * m20,
        "rank18_double": 2 * m18,
        "rank18_quad": 2 ** 2 * m18,
    }
    assert {k: v.value for k, v in t.items()} == expected
    for name, entry in t.items():
        assert entry.provenance == f"towers:{name}"
        assert entry.description
    assert t["singular_cover"].value == 2 * t["kummer_full"].value
    assert t["kummer_full"].value == 16 * t["kummer_descent"].value


def test_unit_group_order():
    assert unit_group_order(-3) == 6
    assert unit_group_order(-4) == 4
    for dk in (-7, -8, -11, -163):
        assert unit_group_order(dk) == 2
    with pytest.raises(ValueError):
        unit_group_order(-12)


def test_compose_intro_identity():
    assert Fraction(1, 2 ** 2) * (2 ** 9 * 3) ** 4 == 2 ** 34 * 3 ** 4


def test_compose_intro_bound():
    r = compose_intro_bound(16, 1)
    plain = eval_bound("uncond_lattice", {"disc_lambda": 16, "d": 1})
    assert r.integer_bound == plain.integer_bound
    cc = r.cross_check
    assert set(cc) == {
        "specialized_bound_id",
        "specialized_L_deg",
        "specialized_integer_bound",
        "identity",
        "identity_holds",
        "ratio_specialized_over_intro",
        "specialized_le_intro",
    }
    assert cc["specialized_bound_id"] == "lattice_k_isog"
    assert cc["identity_holds"] is True
    assert cc["ratio_specialized_over_intro"] == "3/4"
    assert cc["specialized_le_intro"] is True


def test_compose_specialization_never_worse():
    # ratio 3/|Delta_K| <= 1 for every imaginary quadratic field
    for dk in (-3, -4, -7, -8, -11, -15, -163):
        for lcm in (1, 2, 3):
            disc = 4 * lcm * lcm * abs(dk)
            r = compose_intro_bound(disc, 2)
            assert Fraction(r.cross_check["ratio_specialized_over_intro"]) <= 1
            assert r.cross_check["specialized_le_intro"]
            assert r.cross_check["specialized_integer_bound"] <= r.integer_bound


# the eps forms a caller passes: the default, the four decimal tiers and one
# that is not a power of ten
_EPS = st.sampled_from([None, COARSE_EPS, DEFAULT_EPS, FINE_EPS, Fraction(1, 10 ** 18), Fraction(3, 10 ** 7)])
_POSITIVE = st.integers(1, 60) | st.integers(1, 10 ** 40)
_BY_NAME = {
    "disc_lambda": st.integers(-10 ** 40, 10 ** 40).filter(bool),
    "delta_k": st.sampled_from([-3, -4, -7, -8, -163]) | st.integers(-10 ** 12, -3).filter(is_fundamental_discriminant),
    "class_number_one": st.booleans(),
}


def _valid_inputs(bound_id):
    if bound_id == "isogeny_brauer_multiplier":
        return st.integers(1, 4).flatmap(lambda g: st.fixed_dictionaries(
            {"d": st.integers(1, 10 ** 6), "g": st.just(g), "rho": st.integers(1, g * g)}))
    f = FORMULAS[bound_id]
    return st.fixed_dictionaries({p: _BY_NAME.get(p, _POSITIVE) for p in f.params if p not in f.optional},
                                 optional={p: _BY_NAME.get(p, _POSITIVE) for p in f.optional})


def _rendered(sym, expression):
    return {
        "rational": str(sym.rational),
        "pi_exp": sym.pi_exp,
        "sqrt_arg": sym.sqrt_arg,
        "log_factors": [{"coeff": str(lf.coeff), "arg": str(lf.arg), "shift": str(lf.shift), "power": lf.power}
                        for lf in sym.log_factors],
        "expression": expression,
    }


@pytest.mark.parametrize("bound_id", sorted(FORMULAS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_formula_matches_the_bracket_oracle(bound_id, data):
    inputs, eps = data.draw(_valid_inputs(bound_id)), data.draw(_EPS)
    report = _run(bound_id, inputs, eps=eps)
    sym = FORMULAS[bound_id].build(**inputs)
    (_, hi), cert = bracket_product(sym, eps)
    assert report.integer_bound == hi.__floor__()
    assert report.rounding_certificate == cert
    assert report.exact_symbolic == _rendered(sym, FORMULAS[bound_id].expression)


_LOG_FACTOR = st.builds(
    LogFactor,
    coeff=st.fractions(0, 10, max_denominator=1000),
    arg=st.fractions(1, 10 ** 12, max_denominator=10 ** 6),
    shift=st.fractions(-100, 400, max_denominator=1000),
    power=st.integers(1, 24),
)


@settings(max_examples=300, deadline=None)
@given(st.fractions(Fraction(1, 10 ** 12), 10 ** 12, max_denominator=10 ** 12), st.integers(-3, 3),
       st.integers(1, 10 ** 12), st.lists(_LOG_FACTOR, max_size=3), _EPS)
def test_any_product_matches_the_bracket_oracle(rational, pi_exp, sqrt_arg, log_factors, eps):
    # positive powers of pi and shifts that leave a log factor nonpositive
    # occur in no formula; the integer product must still agree with the oracle
    sym = SymbolicProduct(rational, pi_exp, sqrt_arg, tuple(log_factors))
    try:
        (_, hi), cert = bracket_product(sym, eps)
    except InternalCheckError as e:
        with pytest.raises(InternalCheckError, match=re.escape(str(e))):
            bounds._evaluate(sym, eps)
        return
    assert bounds._evaluate(sym, eps) == (hi.__floor__(), cert)


def test_a_log_factor_with_a_negative_coefficient_is_refused():
    # its upper endpoint would sit at ln.lo, not ln.hi
    with pytest.raises(InternalCheckError, match="needs coeff >= 0"):
        SymbolicProduct(Fraction(1), log_factors=(LogFactor(Fraction(-1), Fraction(2), Fraction(5), 1),))


def _count_fractions(monkeypatch):
    # every Fraction made from here on, by a call or by arithmetic
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(cls)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12 on: arithmetic bypasses __new__
        real_coprime = Fraction._from_coprime_ints.__func__

        def counting_coprime(cls, numerator, denominator):
            made.append(cls)
            return real_coprime(cls, numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    return made


@pytest.mark.parametrize("eps", [None, Fraction(3, 10 ** 7)], ids=["default", "explicit"])
@pytest.mark.parametrize("bound_id", sorted(FORMULAS))
def test_evaluation_makes_exactly_the_builders_fractions(monkeypatch, bound_id, eps):
    # the enclosures, the product, its floor and the certificate are formed in
    # integers, and a Fraction eps is checked as it is
    inputs = SAMPLE_INPUTS[bound_id]
    _run(bound_id, inputs, eps=eps)
    made = _count_fractions(monkeypatch)
    FORMULAS[bound_id].build(**inputs)
    built = len(made)
    made.clear()
    _run(bound_id, inputs, eps=eps)
    assert len(made) == built


@pytest.mark.parametrize("bound_id", sorted(FORMULAS))
def test_an_explicit_eps_is_checked_once(monkeypatch, bound_id):
    # by eval_bound, and by no enclosure after it
    checked = []
    real_check = rounding.check_eps

    def counting_check(eps):
        checked.append(eps)
        return real_check(eps)

    for module in (rounding, bounds):
        monkeypatch.setattr(module, "check_eps", counting_check)
    _run(bound_id, SAMPLE_INPUTS[bound_id], eps=Fraction(3, 10 ** 7))
    assert checked == [Fraction(3, 10 ** 7)]
    checked.clear()
    _run(bound_id, SAMPLE_INPUTS[bound_id])
    assert checked == []
