"""The package's immutable value classes behave as frozen dataclasses would:
repr, equality and hashing by value, no assignment, copy and pickle, and the
same exception from each validating constructor, also under python -O.  The
namedtuple value classes are plain tuples with field names."""

import copy
import dataclasses
import pickle
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from cmbrauer.bounds import FORMULAS, BoundReport, LogFactor, SymbolicProduct, field_tower_constants
from cmbrauer.brauer import BrauerShape, GaloisFlags, MValuation
from cmbrauer.cm_census import CensusReport, ConductorBoundReport
from cmbrauer.grossencharakter import CurveOverQ, PsiValue, estimate_m
from cmbrauer.lattices import CMPair, LatticeDescriptor, parse_lattice
from cmbrauer.minkowski import MinkowskiConstant
from cmbrauer.quadratic import FieldSearch, FundamentalDiscriminant, Order

_K = "FundamentalDiscriminant(value=-4)"


def _examples():
    """A fresh instance of each public value class, with its repr in the
    dataclass format."""
    k = FundamentalDiscriminant(-4)
    formula = FORMULAS["faltings_GRH"]
    return (
        (k, _K),
        (Order(k, 2), f"Order(field={_K}, conductor=2)"),
        (FieldSearch((k,), 1, 10),
         f"FieldSearch(fields=({_K},), h_max=1, search_bound=10, certified_complete=False)"),
        (ConductorBoundReport(k, 1, 3, "max(d^2, 5)"),
         f"ConductorBoundReport(field={_K}, degree=1, bound=3, case_label='max(d^2, 5)')"),
        (CensusReport(1, ((-4, 2),), 2, False, 1),
         "CensusReport(degree=1, per_field_counts=((-4, 2),), total=2, certified_complete=False, cube_bound=1)"),
        (SymbolicProduct(Fraction(2), pi_exp=-1, sqrt_arg=3),
         "SymbolicProduct(rational=Fraction(2, 1), pi_exp=-1, sqrt_arg=3, log_factors=())"),
        (FORMULAS["faltings_GRH"],
         f"BoundFormula(bound_id='faltings_GRH', grh=True, build={formula.build!r}, "
         "expression='(2.73) * (109 + ln d)', params=('d',), optional=())"),
        (BoundReport("faltings_GRH", {"d": 2}, {}, 191, True, {}),
         "BoundReport(bound_id='faltings_GRH', inputs={'d': 2}, exact_symbolic={}, integer_bound=191, "
         "conditional=True, rounding_certificate={}, cross_check=None)"),
        (GaloisFlags(True, False), "GaloisFlags(K_in_k=True, two_torsion_rational=False)"),
        (BrauerShape(((2, 3), (2, 1))), "BrauerShape(prime_powers=((2, 3), (2, 1)))"),
        (MValuation(), "MValuation(valuations=())"),
        (CurveOverQ(-1, 0, -4), "CurveOverQ(a4=-1, a6=0, cm_disc=-4)"),
        (PsiValue(3, 2, 5, -4), "PsiValue(x=3, y=2, p=5, delta_k=-4)"),
        (CMPair(k, 1, 2), f"CMPair(field={_K}, f1=1, f2=2)"),
        (LatticeDescriptor(rank=20, disc=16), "LatticeDescriptor(rank=20, disc=16)"),
        (MinkowskiConstant(2, 24, ((2, 3), (3, 1))), "MinkowskiConstant(n=2, value=24, factorization=((2, 3), (3, 1)))"),
    )


_IDS = [type(v).__name__ for v, _ in _examples()]


def _fields(value) -> dict:
    return {name: getattr(value, name) for name in type(value).__slots__}


def _twin(value):
    # the frozen dataclass of the same name and fields, holding the same values
    twin = dataclasses.make_dataclass(type(value).__name__, list(_fields(value)), frozen=True)
    return twin(**_fields(value))


@pytest.mark.parametrize("i", range(len(_IDS)), ids=_IDS)
def test_repr_is_the_dataclass_format(i):
    value, text = _examples()[i]
    assert repr(value) == text == repr(_twin(value))


@pytest.mark.parametrize("i", range(len(_IDS)), ids=_IDS)
def test_equality_and_hash_go_by_value(i):
    (value, _), (again, _) = _examples()[i], _examples()[i]
    twin = _twin(value)
    assert value == again and not value != again
    # a class with the same fields and values is another value
    assert value != twin and twin != value
    try:
        expected = hash(twin)
    except TypeError:  # a dict or list field: unhashable, as the dataclass is
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(again) == expected


def test_equal_fields_in_two_classes_are_unequal():
    pairs = ((2, 1),)
    assert BrauerShape(pairs) != MValuation(pairs)
    assert FundamentalDiscriminant(-4) != -4 and FundamentalDiscriminant(-4) != (-4,)
    assert len({FundamentalDiscriminant(-4), FundamentalDiscriminant(-4), FundamentalDiscriminant(-3)}) == 2


@pytest.mark.parametrize("i", range(len(_IDS)), ids=_IDS)
def test_fields_cannot_be_assigned_or_deleted(i):
    value, text = _examples()[i]
    for name in (*type(value).__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("i", range(len(_IDS)), ids=_IDS)
def test_copy_and_pickle_keep_the_value(i):
    value, text = _examples()[i]
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value and repr(clone) == text


def _tuples():
    """An instance of each namedtuple value class, from the function that
    hands it out where there is one."""
    return (
        estimate_m(CurveOverQ(-1, 0, -4), 3, 50),
        parse_lattice(LatticeDescriptor(rank=4, disc=-16), "abelian"),
        field_tower_constants()["ab_endo"],
        LogFactor(Fraction(3, 2), Fraction(5), Fraction(7), 2),
    )


_TUPLE_IDS = [type(v).__name__ for v in _tuples()]


@pytest.mark.parametrize("i", range(len(_TUPLE_IDS)), ids=_TUPLE_IDS)
def test_namedtuple_values_are_plain_tuples(i):
    value = _tuples()[i]
    plain = tuple(getattr(value, name) for name in value._fields)
    assert isinstance(value, tuple) and value == plain and plain == value and hash(value) == hash(plain)
    assert repr(value) == f"{type(value).__name__}(" + ", ".join(
        f"{name}={v!r}" for name, v in zip(value._fields, plain)) + ")"
    for name in (*value._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value


def test_keyword_construction_and_defaults():
    k = FundamentalDiscriminant(value=-4)
    assert Order(field=k, conductor=1) == Order(k, 1)
    assert FieldSearch((k,), 1, 10) == FieldSearch(fields=(k,), h_max=1, search_bound=10, certified_complete=False)
    assert SymbolicProduct(Fraction(1)) == SymbolicProduct(Fraction(1), 0, 1, ())
    assert BoundReport("x", {}, {}, 1, False, {}).cross_check is None
    assert MValuation().valuations == () and MValuation().c == 1


# each validating constructor on a bad input, with the exception type and
# message the frozen dataclasses raised
_BAD_VALUES = (
    ("FundamentalDiscriminant(-5)", "ValueError",
     "-5 is not a fundamental discriminant of an imaginary quadratic field"),
    ("Order(FundamentalDiscriminant(-4), 0)", "ValueError", "conductor must be positive, got 0"),
    ("ConductorBoundReport(None, 1, 4, 'd^2')", "InternalCheckError", "conductor bound 4 exceeds 3 d^2 at d = 1"),
    ("CensusReport(1, ((-4, 2),), 3, False, 1)", "InternalCheckError", "census total 3 is not the sum of ((-4, 2),)"),
    ("SymbolicProduct(Fraction(0))", "InternalCheckError", "rational 0 or sqrt argument 1 is not positive"),
    ("SymbolicProduct(Fraction(1), sqrt_arg=0)", "InternalCheckError", "rational 1 or sqrt argument 0 is not positive"),
    ("SymbolicProduct(Fraction(1), log_factors=(LogFactor(Fraction(1), Fraction(1, 2), Fraction(0), 1),))",
     "InternalCheckError", "log factor LogFactor(coeff=Fraction(1, 1), arg=Fraction(1, 2), shift=Fraction(0, 1), "
     "power=1) needs arg >= 1 and power >= 1"),
    ("BrauerShape(((4, 1),))", "InternalCheckError", "factor Z/4^1 of ((4, 1),) is not a nontrivial prime power"),
    ("BrauerShape(((3, 0),))", "InternalCheckError", "factor Z/3^0 of ((3, 0),) is not a nontrivial prime power"),
    ("BrauerShape(((2, 1), (2, 2), (2, 3)))", "InternalCheckError",
     "((2, 1), (2, 2), (2, 3)) has rank above 2 at some prime"),
    ("MValuation(((4, 1),))", "ValueError", "valuation key 4 is not prime"),
    ("MValuation(((3, -1),))", "ValueError", "valuation at 3 must be nonnegative, got -1"),
    ("MValuation(((3, 1), (3, 2)))", "InternalCheckError", "duplicate primes in valuation map ((3, 1), (3, 2))"),
    ("CurveOverQ(0, 0, -4)", "ValueError", "singular model: 4*a4^3 + 27*a6^2 = 0"),
    ("CurveOverQ(-1, 0, -5)", "ValueError", "-5 is not an imaginary quadratic order discriminant"),
    ("PsiValue(3, 2, 7, -4)", "InternalCheckError", "norm of (3, 2) over -4 is not 7"),
    ("CMPair(FundamentalDiscriminant(-4), 1, 0)", "ValueError", "conductors must be positive, got (1, 0)"),
    ("LatticeDescriptor(rank=5, disc=1)", "ValueError", "rank must be one of (2, 3, 4, 18, 19, 20), got 5"),
    ("LatticeDescriptor(rank=4, disc=0)", "ValueError", "disc must be nonzero"),
    ("MinkowskiConstant(2, 25, ((2, 3), (3, 1)))", "InternalCheckError",
     "M(2) differs from the product over its factorization"),
)

_RAISE_ALL = textwrap.dedent("""
    from fractions import Fraction
    from cmbrauer.bounds import LogFactor, SymbolicProduct
    from cmbrauer.brauer import BrauerShape, MValuation
    from cmbrauer.cm_census import CensusReport, ConductorBoundReport
    from cmbrauer.grossencharakter import CurveOverQ, PsiValue
    from cmbrauer.lattices import CMPair, LatticeDescriptor
    from cmbrauer.minkowski import MinkowskiConstant
    from cmbrauer.quadratic import FundamentalDiscriminant, Order

    for source in SOURCES:
        try:
            eval(source)
        except Exception as e:
            print(type(e).__name__, e, sep="|")
        else:
            print("no exception", source, sep="|")
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_constructors_raise_as_the_dataclasses_did(flags):
    script = f"SOURCES = {[source for source, _, _ in _BAD_VALUES]!r}\n" + _RAISE_ALL
    out = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [f"{kind}|{message}" for _, kind, message in _BAD_VALUES]
