"""The package's error types, its soundness checks under python -O, and its
runtime dependencies: none, so sympy stays a test-only oracle."""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from cmbrauer import quadratic
from cmbrauer.errors import BudgetError, InternalCheckError

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cmbrauer"


def test_error_types():
    # the CLI maps ValueError to exit 2 and AssertionError to exit 70
    assert issubclass(BudgetError, ValueError) and issubclass(InternalCheckError, AssertionError)
    assert quadratic.InternalCheckError is InternalCheckError
    assert issubclass(quadratic.IntegralityError, InternalCheckError)


def test_no_module_imports_sympy():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "sympy"]
    assert offenders == []


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    assert any(req.startswith("sympy") for req in project["optional-dependencies"]["test"])


_BROKEN_INVARIANTS = textwrap.dedent("""
    from fractions import Fraction
    from cmbrauer import bounds, brauer, cm_census, lattices, quadratic, rounding
    from cmbrauer.errors import InternalCheckError

    def raises_internal(call):
        try:
            call()
        except InternalCheckError:
            return True
        return False

    pair = lattices.CMPair(quadratic.FundamentalDiscriminant(-4), 1, 2)
    field = quadratic.FundamentalDiscriminant(-3)
    checks = [
        raises_internal(lambda: rounding._ln_fixed(1, 2, 64)),
        raises_internal(lambda: bounds.SymbolicProduct(rational=Fraction(0))),
        raises_internal(lambda: bounds.SymbolicProduct(Fraction(1), log_factors=(
            bounds.LogFactor(Fraction(1), Fraction(1, 2), Fraction(0), 1),))),
        raises_internal(lambda: bounds._evaluate(bounds.SymbolicProduct(Fraction(1), log_factors=(
            bounds.LogFactor(Fraction(1), Fraction(2), Fraction(-1), 2),)), None)),
        raises_internal(lambda: cm_census.ConductorBoundReport(field, 1, 4, "d^2")),
        raises_internal(lambda: cm_census.CensusReport(1, ((-3, 1),), 2, False, 1)),
        raises_internal(lambda: brauer.MValuation(((3, 1), (3, 2)))),
    ]
    lattices.disc_hom = lambda p: Fraction(1)
    checks += [raises_internal(lambda: lattices.disc_ns_product(pair)),
               raises_internal(lambda: lattices.disc_ns_kummer(pair))]
    # at degree 2 the walk over Q(zeta_3) reaches f = 7, past a clause bound of 4
    cm_census._EXCEPTIONAL_FLOOR = {-3: 4}
    checks += [raises_internal(lambda: cm_census.cm_count_per_field(field, 2))]
    cm_census.class_number_field = lambda dk: 2
    checks += [raises_internal(lambda: cm_census.cm_count_per_field(field, 1))]
    cm_census._field_census = lambda k, d: ([], 1)
    checks += [raises_internal(lambda: cm_census.cm_count_total(1, 200))]
    # -211 lies past the sweep to 200 above, so the per-field count answers
    quadratic._count_forms_by_a = lambda delta_k: 0
    checks += [raises_internal(lambda: quadratic.class_number_field(-211))]
    # a sweep past the current one in which -23 has no form at all
    sweep = quadratic._sweep
    quadratic._sweep = lambda bound: [[0 if m == 23 else h for m, h in enumerate(c)] for c in sweep(bound)]
    checks += [raises_internal(lambda: quadratic._retained(300))]
    # an ln 2 enclosure with its ends swapped makes every ln of an x >= 2 empty
    ln2_lo, ln2_hi = rounding._LN2
    rounding._LN2 = (ln2_hi + 1, ln2_lo)
    checks += [raises_internal(lambda: bounds.eval_bound("faltings_GRH", {"d": 2}, assume_grh=True))]
    print(checks)
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_soundness_checks_survive_python_O(flags):
    out = subprocess.run([sys.executable, *flags, "-c", _BROKEN_INVARIANTS],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == str([True] * 15)
