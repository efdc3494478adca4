"""CLI envelopes: canonical JSON, exit codes, determinism, provenance."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cmbrauer import bounds, cli, cm_census, quadratic
from cmbrauer.bounds import FORMULAS, field_tower_constants
from cmbrauer.quadratic import IntegralityError
from oracles import argparse_reference, canonical_payload_reference, parse_eps_reference


# each needs a primality verdict for 2^89 - 1, which lies past psi_13
_PAST_PSI13 = (
    ["brauer-shape", "--ell", str(2 ** 89 - 1), "--m", "1"],
    ["lattice", "--kind", "abelian", "--rank", "4", "--disc", str(-(2 ** 89 - 1))],
)


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def run_json(args, capsys):
    code, out = run_cli(args, capsys)
    return code, json.loads(out)


def provenance_ids():
    # every provenance id some subcommand declares
    return frozenset(pid for name in cli.COMMANDS for pid in cli._command(name)[0].provenance)


def test_classnum_envelope(capsys):
    code, env = run_json(["classnum", "--disc", "-4", "--conductor", "4"], capsys)
    assert code == 0
    assert env["command"] == "classnum"
    assert env["result"] == {"h": "2", "order_discriminant": "-64"}
    assert env["inputs"] == {"disc": "-4", "conductor": "4"}
    assert env["provenance"] == "quadratic:class_number_order"
    assert env["conditional"] is False


def test_all_ints_are_decimal_strings(capsys):
    code, out = run_cli(["minkowski", "--n", "20"], capsys)
    assert code == 0
    env = json.loads(out)
    assert env["result"]["value"] == str(2 ** 38 * 3 ** 14 * 5 ** 6 * 7 ** 3 * 11 ** 2 * 13 * 17 * 19)
    assert env["result"]["factorization"] == {
        "2": "38", "3": "14", "5": "6", "7": "3", "11": "2", "13": "1", "17": "1", "19": "1",
    }

    def no_raw_ints(x):
        if isinstance(x, dict):
            for v in x.values():
                no_raw_ints(v)
        elif isinstance(x, list):
            for v in x:
                no_raw_ints(v)
        else:
            assert not isinstance(x, (int, float)) or isinstance(x, bool), x

    no_raw_ints(env)


def test_sorted_keys_and_compact(capsys):
    _, out = run_cli(["cm-count", "--degree", "1", "--disc-bound", "200"], capsys)
    assert out.startswith('{"command":"cm-count","conditional":false,"inputs":')
    assert ": " not in out and ", " not in out
    env = json.loads(out)
    assert env["result"]["total"] == "13"
    assert env["result"]["certified_complete"] is True


def test_fields_by_h_envelope(capsys):
    code, env = run_json(["fields-by-h", "--h", "1", "--disc-bound", "200"], capsys)
    assert code == 0
    assert env["result"]["count"] == "9"
    assert env["result"]["discriminants"] == [
        "-3", "-4", "-7", "-8", "-11", "-19", "-43", "-67", "-163",
    ]
    assert env["result"]["certified_complete"] is False


def test_lattice_both_directions(capsys):
    _, env = run_json(["lattice", "--delta-k", "-4", "--f1", "1", "--f2", "2"], capsys)
    assert env["result"] == {
        "conductor_lcm": "2", "disc_hom": "4", "disc_ns_kummer": "64", "disc_ns_product": "-16",
    }
    _, env = run_json(["lattice", "--kind", "kummer", "--rank", "20", "--disc", "64"], capsys)
    assert env["result"] == {"delta_k": "-4", "conductor_lcm": "2"}
    code, env = run_json(["lattice", "--delta-k", "-4", "--kind", "kummer"], capsys)
    assert code == 2 and "error" in env


def test_brauer_and_divisibility(capsys):
    _, env = run_json(["brauer-shape", "--ell", "2", "--m", "1", "--k-in-k"], capsys)
    assert env["result"] == {"cyclic_factors": ["2", "2"], "order": "4"}
    _, env = run_json(["divisibility", "--conductor", "1", "--degree", "2", "--delta-k", "-20"], capsys)
    assert env["result"] == {"bound": "288"}


def test_mell_estimate(capsys):
    code, env = run_json(
        ["mell-estimate", "--a4", "-1", "--a6", "0", "--cm-disc", "-4", "--ell", "2", "--budget", "10"],
        capsys,
    )
    assert code == 0
    assert env["result"] == {"is_upper_bound": True, "m_hat": "1", "samples_used": "1"}


def test_bound_subcommand(capsys):
    code, env = run_json(
        ["bound", "--id", "isog_pair", "--set", "f1=1", "--set", "f2=1",
         "--set", "delta_k=-4", "--set", "M_deg=2"],
        capsys,
    )
    assert code == 0
    assert env["result"]["integer_bound"] == "25"
    assert env["result"]["exact_symbolic"]["rational"] == "256"
    assert env["provenance"] == "bounds:isog_pair"

    code, env = run_json(
        ["bound", "--id", "isog_pair", "--set", "f1=1", "--set", "f2=1",
         "--set", "delta_k=-4", "--set", "M_deg=2", "--set", "class_number_one=true"],
        capsys,
    )
    assert env["result"]["integer_bound"] == "16"


def test_a_repeated_set_is_refused(capsys):
    for values in (("5", "6"), ("5", "5")):
        code, env = run_json(["bound", "--id", "faltings_GRH", *(f"--set=d={v}" for v in values),
                              "--assume-grh"], capsys)
        assert code == 2 and env["error"] == {"type": "_CliError", "message": "--set d is given more than once"}
    # the names are compared as written, so d and D are two inputs
    code, env = run_json(["bound", "--id", "faltings_GRH", "--set", "d=5", "--set", "D=5", "--assume-grh"], capsys)
    assert code == 2 and env["error"]["message"] == "faltings_GRH got unknown inputs: ['D']"


def test_bound_grh_gate(capsys):
    code, env = run_json(["bound", "--id", "ab_GRH", "--set", "L_deg=2"], capsys)
    assert code == 2
    assert env["error"]["type"] == "ValueError"
    code, env = run_json(["bound", "--id", "ab_GRH", "--set", "L_deg=2", "--assume-grh"], capsys)
    assert code == 0
    assert env["conditional"] is True


def test_bound_eps_and_cross_check(capsys):
    _, coarse = run_json(
        ["bound", "--id", "isog_pair", "--set", "f1=3", "--set", "f2=1",
         "--set", "delta_k=-7", "--set", "M_deg=3", "--eps", "1e-6"],
        capsys,
    )
    _, fine = run_json(
        ["bound", "--id", "isog_pair", "--set", "f1=3", "--set", "f2=1",
         "--set", "delta_k=-7", "--set", "M_deg=3", "--eps", "1e-12"],
        capsys,
    )
    assert int(fine["result"]["integer_bound"]) <= int(coarse["result"]["integer_bound"])
    assert coarse["inputs"]["eps"] == "1/1000000"

    code, env = run_json(
        ["bound", "--id", "uncond_lattice", "--set", "disc_lambda=16", "--set", "d=1",
         "--cross-check-intro"],
        capsys,
    )
    assert code == 0
    cc = env["result"]["cross_check"]
    assert cc["identity_holds"] is True
    assert cc["specialized_le_intro"] is True
    code, env = run_json(
        ["bound", "--id", "isog_pair", "--set", "f1=1", "--cross-check-intro"], capsys,
    )
    assert code == 2


def test_constants(capsys):
    _, env = run_json(["constants", "--name", "ab_endo"], capsys)
    assert env["result"]["value"] == "48"
    assert env["provenance"] == "towers:ab_endo"
    _, env = run_json(["constants"], capsys)
    assert set(env["result"]) == {
        "ab_endo", "kummer_full", "singular_cover", "kummer_nonisog",
        "rank20_double", "kummer_descent", "rank18_double", "rank18_quad",
    }
    assert env["provenance"] == "towers:all"


def test_exit_codes(capsys, monkeypatch):
    assert run_cli([], capsys)[0] == 2
    assert run_cli(["frobnicate"], capsys)[0] == 64
    assert run_cli(["classnum"], capsys)[0] == 2
    assert run_cli(["classnum", "--disc", "-5"], capsys)[0] == 2
    assert run_cli(["minkowski", "--n", "0"], capsys)[0] == 2
    assert run_cli(["k3-census", "--degree", "1"], capsys)[0] == 2
    assert run_cli(["bound", "--id", "isog_pair", "--set", "junk"], capsys)[0] == 2
    assert run_cli(["bound", "--id", "isogeny_brauer_multiplier", "--set", "d=2", "--set", "g=2",
                    "--set", "rho=1", "--eps", "0"], capsys)[0] == 2
    # a model without CM by the asserted field is bad input, not a certified bound
    assert run_cli(["mell-estimate", "--a4", "-6", "--a6", "-3", "--cm-disc", "-11", "--ell", "2",
                    "--budget", "50"], capsys)[0] == 2
    # an answer that needs an unproven primality verdict is refused, not guessed
    for argv in _PAST_PSI13:
        code, env = run_json(argv, capsys)
        assert code == 2 and env["error"]["type"] == "BudgetError", argv
    code, env = run_json(["frobnicate"], capsys)
    assert code == 64 and "unknown subcommand" in env["error"]["message"]
    # a help request is an error envelope carrying that parser's help text
    for args in (["classnum", "--help"], ["-h", "classnum"], ["classnum", "--disc", "-4", "--he"]):
        code, env = run_json(args, capsys)
        assert code == 2 and env["error"]["message"].startswith("usage: cmbrauer"), args
    # a conductor bound d^2 past the digit limit is refused before it is formed
    for args in (["conductor-bound", "--degree", str(10 ** 2500)],
                 ["conductor-bound", "--degree", str(10 ** 2500), "--delta-k", "-4"]):
        code, env = run_json(args, capsys)
        assert code == 2 and env["error"]["type"] == "BudgetError", args
        assert "more than 4300 digits" in env["error"]["message"]
    # a valid result past the int-to-str digit limit is an internal failure, not bad input
    monkeypatch.setattr(cm_census, "conductor_bound_over_degree", lambda d: 10 ** 5000)
    code, env = run_json(["conductor-bound", "--degree", "3"], capsys)
    assert code == 70 and "cannot render" in env["error"]["message"]
    # M(n) past n = 1331 is refused before it is computed
    code, env = run_json(["minkowski", "--n", "3000"], capsys)
    assert code == 2 and env["error"]["type"] == "BudgetError"


def test_internal_assertion_exits_70(capsys, monkeypatch):
    def boom(order):
        raise IntegralityError("forced for the exit-code contract")

    monkeypatch.setattr(quadratic, "class_number_order", boom)
    code, env = run_json(["classnum", "--disc", "-4"], capsys)
    assert code == 70
    assert env["error"]["type"] == "IntegralityError"


def test_os_error_inside_a_run_exits_70(tmp_path, capsys, monkeypatch):
    # the --output sink is the one place an OSError is bad input
    code, env = run_json(["classnum", "--disc", "-4", "--output", str(tmp_path / "no" / "x.json")], capsys)
    assert code == 2 and env["error"]["type"] == "FileNotFoundError"

    def timeout(order):
        raise TimeoutError("forced inside the run")

    monkeypatch.setattr(quadratic, "class_number_order", timeout)
    code, env = run_json(["classnum", "--disc", "-4", "--output", str(tmp_path / "x.json")], capsys)
    assert code == 70
    assert env["error"] == {"type": "TimeoutError", "message": "forced inside the run"}
    assert not (tmp_path / "x.json").exists()


def test_provenance_membership(capsys):
    samples = (
        ["classnum", "--disc", "-7"],
        ["minkowski", "--n", "4"],
        ["conductor-bound", "--degree", "3"],
        ["conductor-bound", "--degree", "2", "--delta-k", "-4"],
        ["cm-count", "--degree", "1"],
        ["k3-census", "--degree", "1", "--field-count", "9"],
        ["lattice", "--kind", "abelian", "--rank", "4", "--disc", "-16"],
        ["brauer-shape", "--ell", "3", "--m", "2"],
        ["divisibility", "--conductor", "2", "--degree", "1", "--delta-k", "-4"],
        ["bound", "--id", "faltings_GRH", "--set", "d=2", "--assume-grh"],
        ["constants"],
    )
    declared = provenance_ids()
    for args in samples:
        code, env = run_json(args, capsys)
        assert code == 0, args
        assert env["provenance"] in declared, args


def test_output_sink(tmp_path, capsys):
    sink = tmp_path / "out.json"
    code, out = run_cli(["classnum", "--disc", "-8", "--output", str(sink)], capsys)
    assert code == 0
    assert sink.read_text() == out
    # table on stdout, canonical JSON in the file
    sink2 = tmp_path / "out2.json"
    code, table = run_cli(
        ["classnum", "--disc", "-8", "--format", "table", "--output", str(sink2)], capsys
    )
    assert code == 0
    assert "{" not in table
    assert "classnum" in table
    assert sink2.read_text() == out
    # a sink that cannot be written, an empty path included, is an error envelope, not a traceback
    for sink_args in (["--output", str(tmp_path / "no" / "x.json")], ["--output", ""], ["--output="]):
        code, env = run_json(["classnum", "--disc", "-8", *sink_args], capsys)
        assert code == 2 and env["error"]["type"] == "FileNotFoundError", sink_args


def test_table_format(capsys):
    code, out = run_cli(["minkowski", "--n", "2", "--format", "table"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("command")
    assert any("24" in ln for ln in lines)


def test_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "cmbrauer", "bound", "--id", "kummer_nonisog_GRH",
           "--set", "d=3", "--assume-grh"]
    runs = [subprocess.run(cmd, capture_output=True, check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0].endswith(b"\n")
    json.loads(runs[0])


def test_a_reused_parser_keeps_no_state_between_calls(capsys):
    # each subcommand's parser is built once per process; an earlier --set must not leak
    second = ["bound", "--id", "faltings_GRH", "--assume-grh"]
    fresh = subprocess.run([sys.executable, "-m", "cmbrauer", *second], capture_output=True, text=True)
    assert run_cli(["bound", "--id", "faltings_GRH", "--set", "d=2", "--assume-grh"], capsys)[0] == 0
    assert run_cli(second, capsys) == (fresh.returncode, fresh.stdout)
    assert fresh.returncode == 2 and "missing inputs: ['d']" in fresh.stdout
    helps = [run_json(["bound", "--help"], capsys) for _ in range(2)]
    assert helps[0] == helps[1] and helps[0][1]["error"]["message"].startswith("usage: cmbrauer")


# one small call per subcommand, each into the layer it exercises
_ONE_PER_COMMAND = (
    ["classnum", "--disc", "-23", "--conductor", "3"],
    ["fields-by-h", "--h", "1", "--disc-bound", "50"],
    ["minkowski", "--n", "8"],
    ["conductor-bound", "--degree", "2", "--delta-k", "-4"],
    ["cm-count", "--degree", "1", "--disc-bound", "200"],
    ["k3-census", "--degree", "1", "--field-count", "9", "--refined-disc-bound", "200"],
    ["lattice", "--delta-k", "-4", "--f1", "1", "--f2", "2"],
    ["brauer-shape", "--ell", "2", "--m", "3"],
    ["divisibility", "--conductor", "2", "--degree", "3", "--delta-k", "-4"],
    ["mell-estimate", "--a4", "-1", "--a6", "0", "--cm-disc", "-4", "--ell", "3", "--budget", "500"],
    ["bound", "--id", "faltings_GRH", "--set", "d=5", "--eps", "1e-12", "--assume-grh"],
    ["constants"],
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_cli_never_imports_sympy(flags):
    script = (
        "import contextlib, io, sys\n"
        "from cmbrauer import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {list(_ONE_PER_COMMAND)!r}]\n"
        "print(codes, 'sympy' in sys.modules)\n"
    )
    assert {argv[0] for argv in _ONE_PER_COMMAND} == set(cli.COMMANDS)
    out = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, check=True)
    assert out.stdout == f"{[0] * len(_ONE_PER_COMMAND)} False\n"


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_cli_never_imports_dataclasses_or_inspect(flags):
    # with ast, dis and tokenize they would be over a tenth of a one-shot process
    script = (
        "import contextlib, io, sys\n"
        "from cmbrauer import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {list(_ONE_PER_COMMAND)!r}]\n"
        "print(codes, sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, check=True)
    assert out.stdout == f"{[0] * len(_ONE_PER_COMMAND)} []\n"


# subcommands that compute with ints alone, each into a different library layer
_INTEGER_ONLY = (
    ["classnum", "--disc", "-23", "--conductor", "3"],
    ["minkowski", "--n", "8"],
    ["cm-count", "--degree", "1", "--disc-bound", "200"],
)


@pytest.mark.parametrize("flags", [["-S"], ["-S", "-O"]], ids=["asserts", "optimized"])
def test_integer_commands_load_no_stdlib_they_never_compute_with(flags):
    # -S skips site, whose .pth files may preload some of these, so this is
    # what a clean interpreter loads; json and re with their enum, typing,
    # and fractions with decimal, were over a third of cmbrauer's share of
    # a classnum process
    script = (
        "import contextlib, io, sys\n"
        "from cmbrauer import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {list(_INTEGER_ONLY)!r}]\n"
        "print(codes, sorted({'json', 're', 'typing', 'enum', 'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, check=True)
    assert out.stdout == f"{[0] * len(_INTEGER_ONLY)} []\n"


_REFINED_ONLY = ["k3-census", "--degree", "1", "--refined-disc-bound", "200"]


@pytest.mark.parametrize("argv", [*_ONE_PER_COMMAND, _REFINED_ONLY], ids=" ".join)
def test_only_commands_that_compute_with_fractions_load_them(argv):
    # bound and constants through bounds, lattice for disc Hom, and the
    # singular K3 bound for its eps; every other answer is ints alone
    script = (
        "import contextlib, io, sys\n"
        "from cmbrauer import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(code, 'fractions' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    loads = argv[0] in ("bound", "constants", "lattice") or "--field-count" in argv
    assert out.stdout == f"0 {loads}\n"


_NO_FIELD_INPUT = (["constants"], ["bound", "--id", "ab_GRH", "--set", "L_deg=5", "--assume-grh"])


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_bounds_without_a_field_never_import_quadratic_or_lattices(flags):
    # bounds imports them only where a delta_k or a lattice is read
    script = (
        "import contextlib, io, sys\n"
        "from cmbrauer import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {list(_NO_FIELD_INPUT)!r}]\n"
        "print(codes, *sorted(m for m in sys.modules if m.startswith('cmbrauer.')))\n"
    )
    out = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, check=True)
    modules = " ".join(f"cmbrauer.{m}" for m in ("bounds", "cli", "errors", "minkowski", "primes", "rounding"))
    assert out.stdout == f"{[0] * len(_NO_FIELD_INPUT)} {modules}\n"


_MELL_ESTIMATES = (
    ["mell-estimate", "--a4", "-1", "--a6", "0", "--cm-disc", "-4", "--ell", "2", "--budget", "500"],
    ["mell-estimate", "--a4", "0", "--a6", "1", "--cm-disc", "-3", "--ell", "3", "--budget", "300"],
    ["mell-estimate", "--a4", "-35", "--a6", "-98", "--cm-disc", "-7", "--ell", "2", "--budget", "2"],
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_mell_estimate_never_imports_brauer(flags):
    # the scan's valuation lives in primes, so brauer is neither loaded nor compiled
    script = (
        "import contextlib, io, sys\n"
        "from cmbrauer import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {list(_MELL_ESTIMATES)!r}]\n"
        "print(codes, *sorted(m for m in sys.modules if m.startswith('cmbrauer.')))\n"
    )
    out = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, check=True)
    modules = " ".join(f"cmbrauer.{m}" for m in ("cli", "errors", "grossencharakter", "primes", "quadratic"))
    assert out.stdout == f"[0, 0, 2] {modules}\n"


_CENSUSES = (
    ["k3-census", "--degree", "12", "--field-count", "9"],
    ["k3-census", "--degree", "2", "--refined-disc-bound", "200"],
    ["cm-count", "--degree", "2", "--disc-bound", "200"],
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_census_commands_never_import_bounds(flags):
    # the singular K3 bound floors its ln enclosure inline, so bounds is neither loaded nor compiled
    script = (
        "import contextlib, io, sys\n"
        "from cmbrauer import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {list(_CENSUSES)!r}]\n"
        "print(codes, *sorted(m for m in sys.modules if m.startswith('cmbrauer.')))\n"
    )
    out = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, check=True)
    modules = " ".join(f"cmbrauer.{m}" for m in ("cli", "cm_census", "errors", "minkowski", "primes", "quadratic",
                                                 "rounding"))
    assert out.stdout == f"[0, 0, 0] {modules}\n"


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_every_command_answers_with_sympy_unimportable(flags):
    script = (
        "import contextlib, io, sys\n"
        "sys.modules['sympy'] = None\n"
        "from cmbrauer import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    print([cli.main(argv) for argv in {list(_ONE_PER_COMMAND + _PAST_PSI13)!r}], file=sys.stderr)\n"
    )
    out = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, check=True)
    assert out.stderr == f"{[0] * len(_ONE_PER_COMMAND) + [2] * len(_PAST_PSI13)}\n"


def _library_modules_loaded(argv, flags=()) -> set[str]:
    # the cmbrauer modules besides cli that a fresh process holds after
    # cli.main(argv) returns, or after the import alone when argv is None
    script = (
        "import contextlib, io, sys\n"
        "from cmbrauer import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {argv!r} is None or cli.main({argv!r})\n"
        "print(*sorted(m for m in sys.modules if m.startswith('cmbrauer.')))\n"
    )
    out = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, check=True)
    return {m.removeprefix("cmbrauer.") for m in out.stdout.split()} - {"cli"}


_USAGE_ERROR = ["classnum", "--disc", "x"]

# the library modules a process of each subcommand's argv loads: the
# runner's module and what it imports at its top, quadratic only where a
# discriminant is read, and minkowski only where M(n) is
_LOADS = {
    "classnum": {"errors", "primes", "quadratic"},
    "fields-by-h": {"errors", "primes", "quadratic"},
    "minkowski": {"errors", "minkowski", "primes"},
    "conductor-bound": {"cm_census", "errors", "minkowski", "primes", "quadratic"},
    "cm-count": {"cm_census", "errors", "minkowski", "primes", "quadratic"},
    "k3-census": {"cm_census", "errors", "minkowski", "primes", "quadratic", "rounding"},
    "lattice": {"errors", "lattices", "primes", "quadratic"},
    "brauer-shape": {"brauer", "errors", "primes"},
    "divisibility": {"brauer", "errors", "primes", "quadratic"},
    "mell-estimate": {"errors", "grossencharakter", "primes", "quadratic"},
    "bound": {"bounds", "errors", "rounding"},
    "constants": {"bounds", "errors", "minkowski", "primes", "rounding"},
}


@pytest.mark.parametrize("argv", [None, [], ["frobnicate"], pytest.param(_USAGE_ERROR, id="usage-error"),
                                  *_ONE_PER_COMMAND, pytest.param(_NO_FIELD_INPUT[1], id="bound-ab_GRH")],
                         ids=lambda argv: "import" if argv is None else " ".join(argv[:1]) or "missing")
def test_a_process_imports_only_its_subcommands_library(argv):
    loaded = _library_modules_loaded(argv)
    if not argv or argv in (["frobnicate"], _USAGE_ERROR):
        assert loaded == set()
        return
    if argv[0] == "minkowski":
        assert not loaded & {"quadratic", "rounding", "bounds"}, loaded
    assert ("bounds" in loaded) == (argv[0] in ("bound", "constants")), loaded
    assert loaded == _LOADS[argv[0]]


def test_every_runner_lives_in_a_library_module():
    # cli is the front end alone; a runner resolved in _command would load its library on a usage error
    for name in cli.COMMANDS:
        runner = cli._resolve(cli._command(name)[0].run)
        assert runner.__module__ != "cmbrauer.cli", name
        assert runner.__module__ == "cmbrauer." + cli._command(name)[0].run.partition(":")[0], name


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_only_a_help_request_imports_argparse(flags):
    # argv is read from the command table; argparse, and gettext with it, formats help alone
    script = (
        "import contextlib, io, sys\n"
        "from cmbrauer import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {[*_ONE_PER_COMMAND, _USAGE_ERROR]!r}]\n"
        "print(codes, sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = cli.main(['classnum', '--help'])\n"
        "print(code, out.getvalue())\n"
    )
    out = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, check=True)
    codes, helped = out.stdout.split("\n", 1)
    assert codes == f"{[0] * len(_ONE_PER_COMMAND) + [2]} []"
    code, envelope = helped.split(" ", 1)
    assert code == "2" and json.loads(envelope)["error"]["message"].startswith("usage: cmbrauer classnum [-h]")
    # the help text comes from the command table, which holds no runner's module
    assert _library_modules_loaded(["classnum", "--help"], flags) == set()


def test_multiplier_past_the_digit_limit_is_refused(capsys):
    # d^(g(2g-1) - rho) at 4300 digits renders; from 4301 on it is refused
    # before the power is formed, so even g = 10^6 ends at once
    def argv(d, g, rho):
        return ["bound", "--id", "isogeny_brauer_multiplier", "--set", f"d={d}", "--set", f"g={g}",
                "--set", f"rho={rho}"]

    code, env = run_json(argv(10, 47, 72), capsys)
    assert code == 0 and env["result"]["integer_bound"] == str(10 ** 4299)
    for d, g, rho in ((10, 47, 71), (2, 3000, 1), (2, 10 ** 6, 1)):
        start = time.perf_counter()
        code, env = run_json(argv(d, g, rho), capsys)
        assert time.perf_counter() - start < 1.0, (d, g, rho)
        assert code == 2 and env["error"]["type"] == "BudgetError", (d, g, rho)
        assert "more than 4300 digits" in env["error"]["message"]


def test_brauer_shape_past_the_digit_limit_is_refused(capsys):
    # the order, 2^m, 2^(2m) with --k-in-k or 2^(m+1) with rational 2-torsion,
    # renders at 4300 digits (2^14284) and is refused from 4301 on (2^14285)
    def argv(m, *flags):
        return ["brauer-shape", "--ell", "2", "--m", str(m), *flags]

    def envelope(m, factors, k_in_k=False, two_torsion=False):
        inputs = {"ell": "2", "k_in_k": k_in_k, "m": str(m), "two_torsion_rational": two_torsion}
        result = {"cyclic_factors": [str(q) for q in factors], "order": str(2 ** 14284)}
        return json.dumps({"command": "brauer-shape", "conditional": False, "inputs": inputs,
                           "provenance": "brauer:brauer_shape_maximal", "result": result},
                          sort_keys=True, separators=(",", ":")) + "\n"

    assert run_cli(argv(14284), capsys) == (0, envelope(14284, [2 ** 14284]))
    assert run_cli(argv(7142, "--k-in-k"), capsys) == (0, envelope(7142, [2 ** 7142] * 2, k_in_k=True))
    assert run_cli(argv(14283, "--two-torsion-rational"), capsys) == (
        0, envelope(14283, [2 ** 14283, 2], two_torsion=True))
    for args in (argv(14285), argv(7143, "--k-in-k"), argv(14284, "--two-torsion-rational"),
                 ["brauer-shape", "--ell", "3", "--m", "1000000"],
                 ["brauer-shape", "--ell", "3", "--m", str(10 ** 9), "--k-in-k"]):
        start = time.perf_counter()
        code, env = run_json(args, capsys)
        assert time.perf_counter() - start < 0.2, args
        assert code == 2 and env["error"]["type"] == "BudgetError", args
        assert "more than 4300 digits" in env["error"]["message"]


def test_eps_text_that_cannot_be_a_precision_is_refused_promptly(capsys):
    # Fraction raises ZeroDivisionError on a zero denominator, and would form
    # 10^999999999 before check_eps saw it; past +-4300 no exponent lands in [1e-18, 1)
    def run(eps):
        return run_json(["bound", "--id", "faltings_GRH", "--set", "d=2", "--assume-grh", "--eps", eps], capsys)

    for eps, message in (("1/0", "--eps has a zero denominator"), ("0/0", "--eps has a zero denominator"),
                         *((e, "--eps exponent must lie within +-4300")
                           for e in ("1e999999999", "1e-999999999", "1E+4301", "1e-4_301"))):
        start = time.perf_counter()
        code, env = run(eps)
        assert time.perf_counter() - start < 0.2, eps
        assert code == 2 and env["error"]["message"] == f"{message}, got {eps!r}", eps
    # an exponent within the limit reaches the range check
    code, env = run("1e-400")
    assert code == 2 and env["error"]["message"] == f"eps must lie in [1/1000000000000000000, 1), got 1/{10 ** 400}"


def test_census_inputs_past_their_caps_are_refused(capsys):
    # a sweep to 10^5, one class number near 10^9 and a census of degree 12
    # each take under a second
    for args in (["fields-by-h", "--h", "1", "--disc-bound", "100001"],
                 ["cm-count", "--degree", "1", "--disc-bound", "100001"],
                 ["k3-census", "--degree", "1", "--refined-disc-bound", str(10 ** 12)],
                 ["classnum", "--disc", str(-(10 ** 9 + 7))],
                 ["cm-count", "--degree", "13"],
                 ["cm-count", "--degree", "30", "--disc-bound", "100000"],
                 ["k3-census", "--degree", str(10 ** 9), "--field-count", "9", "--refined-disc-bound", "200"]):
        start = time.perf_counter()
        code, env = run_json(args, capsys)
        assert time.perf_counter() - start < 0.2, args
        assert code == 2 and env["error"]["type"] == "BudgetError", args
    code, env = run_json(["fields-by-h", "--h", "1", "--disc-bound", "100000"], capsys)
    assert code == 0 and env["result"]["count"] == "9"
    code, env = run_json(["cm-count", "--degree", "12", "--disc-bound", "300"], capsys)
    assert code == 0 and env["inputs"]["degree"] == "12"
    # the closed-form bounds need no census, so they have no degree cap
    code, env = run_json(["k3-census", "--degree", "1000", "--field-count", "9"], capsys)
    assert code == 0 and set(env["result"]) == {"log_bound", "strong_bound"}
    # but a bound past the digit limit is refused, before any ln
    start = time.perf_counter()
    code, env = run_json(["k3-census", "--degree", str(10 ** 1500), "--field-count", "9"], capsys)
    assert time.perf_counter() - start < 0.2
    assert code == 2 and env["error"]["type"] == "BudgetError" and "more than 4300 digits" in env["error"]["message"]


def test_large_class_number_is_prompt():
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "cmbrauer", "classnum", "--disc", "-59939555"],
                         capture_output=True, text=True, check=True).stdout
    assert time.perf_counter() - start < 2.0
    assert json.loads(out)["result"]["h"] == "1952"


def test_k3_census_at_1400_digits_is_prompt():
    # ln(3 d^2) of a 2,800-digit argument is one fixed-point series
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "cmbrauer", "k3-census", "--degree", str(10 ** 1400),
                          "--field-count", "9"], capture_output=True, text=True, check=True).stdout
    assert time.perf_counter() - start < 1.0
    assert set(json.loads(out)["result"]) == {"log_bound", "strong_bound"}


def test_large_prime_ell_exits_quickly(capsys):
    # the prime-power check once walked every prime up to ell^m
    start = time.perf_counter()
    code, env = run_json(["brauer-shape", "--ell", "1000000007", "--m", "1"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert env["result"] == {"cyclic_factors": ["1000000007"], "order": "1000000007"}


def test_large_budget_exits_quickly(capsys):
    # the scan stops at the first good prime past the 10^6 cap
    start = time.perf_counter()
    code, env = run_json(["mell-estimate", "--a4", "-1", "--a6", "0", "--cm-disc", "-4", "--ell", "2",
                          "--budget", "2000000"], capsys)
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert env["error"]["message"] == "point-count budget is p <= 1000000, got 1000003"
    assert env["error"]["type"] == "BudgetError"


def test_error_payload_is_canonical(capsys):
    code, out = run_cli(["classnum", "--disc", "-5"], capsys)
    assert code == 2
    env = json.loads(out)
    assert set(env) == {"command", "error"}
    assert set(env["error"]) == {"type", "message"}


class _Int(int):
    pass


class _Str(str):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


def test_canonical_payload_of_every_kind():
    payload = {
        "int": 10 ** 30, "str": "x", "true": True, "false": False, "none": None, "frac": Fraction(-3, 7),
        "list": [1, "a", None], "tuple": (2, Fraction(1, 2)), 5: {"nested": [[-4]]},
        "sub": _Dict(i=_Int(7), s=_Str("y"), lst=_List([_Int(8), (True,)])),
    }
    assert cli._canonical_payload(payload) == {
        "int": str(10 ** 30), "str": "x", "true": True, "false": False, "none": None, "frac": "-3/7",
        "list": ["1", "a", None], "tuple": ["2", "1/2"], "5": {"nested": [["-4"]]},
        "sub": {"i": "7", "s": "y", "lst": ["8", [True]]},
    }
    for bad in (1.5, {1}, b"x", [1, object()], {"k": frozenset()}):
        with pytest.raises(TypeError, match="cannot serialize"):
            cli._canonical_payload(bad)


class _Tuple(tuple):
    pass


class _Fraction(Fraction):
    pass


def _outcome(call, *args):
    # a call's value, or the type and message of what it raised
    try:
        return call(*args)
    except Exception as e:
        return type(e), str(e)


_KEY = st.text(max_size=3) | st.integers(-5, 5) | st.builds(_Int, st.integers(-5, 5)) | st.builds(_Str, st.text(max_size=2))
_PAYLOAD = st.recursive(
    st.text(max_size=4) | st.booleans() | st.none() | st.integers() | st.integers(-10 ** 40, 10 ** 40)
    | st.fractions() | st.builds(_Int, st.integers()) | st.builds(_Str, st.text(max_size=3))
    | st.builds(_Fraction, st.fractions())
    # kinds no payload may hold
    | st.floats() | st.binary(max_size=2) | st.frozensets(st.integers(), max_size=2),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.lists(inner, max_size=3).map(_List) | st.lists(inner, max_size=3).map(_Tuple)
    | st.dictionaries(_KEY, inner, max_size=4) | st.dictionaries(_KEY, inner, max_size=3).map(_Dict),
    max_leaves=20)


@settings(max_examples=500, deadline=None)
@given(_PAYLOAD)
def test_canonical_render_matches_the_isinstance_ladder(x):
    got = _outcome(lambda: cli._serialize(cli._canonical_payload(x)))
    want = _outcome(lambda: json.dumps(canonical_payload_reference(x), sort_keys=True, separators=(",", ":")))
    assert got == want
    assert isinstance(got, str) or got[0] is TypeError


def _eps_texts():
    for n in (4300, 4301):
        digits = "1" * n
        yield digits
        yield "1" + "_1" * (n - 1)  # n digits
        yield ("1_" * n)[:n]  # n characters
        yield "1/" + digits
        yield "0." + "0" * (n - 1) + "1"
        for sign in ("", "+", "-"):
            for e in ("e", "E"):
                yield f"1{e}{sign}{n}"
                yield f" 1{e}{sign}{n} "
    yield from ("1e-4_300", "1e-4_301", "2.5e-7", "\t1e-9\n", " 3/10000000 ", "1/0", "0/0", "0", "nan", "NaN",
                "inf", "", " ", "e", "1e", "e-9", "-1e-9", "1e-9e-9", "0.000_001", "1_e-9")


def test_parse_eps_matches_the_full_scan_on_edge_texts():
    for text in _eps_texts():
        assert _outcome(bounds._parse_eps, text) == _outcome(parse_eps_reference, text), text[:40]


@settings(max_examples=500, deadline=None)
@given(st.text("0123456789_eE+-./ \t\u0661", max_size=24)
       | st.from_regex(r"\A\s?[-+]?\d{0,5}(\.\d{0,5})?([eE][-+]?\d{1,4}(_\d)?)?\s?\Z")
       | st.fractions().map(str))
def test_parse_eps_matches_the_full_scan(text):
    assert _outcome(bounds._parse_eps, text) == _outcome(parse_eps_reference, text)


def test_commands_registry():
    assert len(cli.COMMANDS) == 12
    assert len(set(cli.COMMANDS)) == len(cli.COMMANDS) == len(cli.TABLE)
    assert set(cli.TABLE) == set(cli.COMMANDS)
    for pid in provenance_ids():
        area, _, name = pid.partition(":")
        assert area and name


_BOUND_SAMPLE_INPUTS = {
    "uncond_lattice": "disc_lambda=64 d=1",
    "lattice_k_isog": "disc_lambda=64 L_deg=2 delta_k=-4",
    "ab_lattice": "disc_lambda=-16 L_deg=2 delta_k=-4",
    "ab_GRH": "L_deg=2",
    "kummer_GRH": "L_deg=2",
    "singular_cover_GRH": "d=1",
    "isog_pair": "f1=1 f2=1 delta_k=-4 M_deg=2",
    "isog_pair_GRH": "M_over_k_deg=1 k_deg=2",
    "nonisog_GRH": "compositum_deg=1 d=1",
    "kummer_nonisog_GRH": "d=1",
    "isogeny_degree": "f1=1 delta_k=-4",
    "isogeny_degree_GRH": "d=1",
    "faltings_GRH": "d=1",
    "isogeny_brauer_multiplier": "d=2 g=2 rho=1",
}


def test_every_provenance_id_is_emitted(capsys):
    samples = [
        ["classnum", "--disc", "-7"],
        ["fields-by-h", "--h", "1", "--disc-bound", "50"],
        ["minkowski", "--n", "4"],
        ["conductor-bound", "--degree", "3"],
        ["conductor-bound", "--degree", "2", "--delta-k", "-4"],
        ["cm-count", "--degree", "1"],
        ["k3-census", "--degree", "1", "--field-count", "9"],
        ["lattice", "--delta-k", "-4", "--f1", "1", "--f2", "2"],
        ["lattice", "--kind", "abelian", "--rank", "4", "--disc", "-16"],
        ["brauer-shape", "--ell", "3", "--m", "2"],
        ["divisibility", "--conductor", "2", "--degree", "1", "--delta-k", "-4"],
        ["mell-estimate", "--a4", "-1", "--a6", "0", "--cm-disc", "-4", "--ell", "2", "--budget", "10"],
        ["constants"],
        *(["constants", "--name", name] for name in field_tower_constants()),
        *(["bound", "--id", bound_id, "--assume-grh", *(a for kv in sets.split() for a in ("--set", kv))]
          for bound_id, sets in _BOUND_SAMPLE_INPUTS.items()),
    ]
    emitted = set()
    for args in samples:
        code, env = run_json(args, capsys)
        assert code == 0, (args, env)
        emitted.add(env["provenance"])
    assert emitted == provenance_ids()


def _bound_argv(bound_id):
    sets = _BOUND_SAMPLE_INPUTS[bound_id].split()
    return ["bound", "--id", bound_id, "--assume-grh", *(a for kv in sets for a in ("--set", kv))]


@pytest.mark.parametrize("before, after", [
    (["--disc", "-4", "classnum"], ["classnum", "--disc", "-4"]),
    (["--disc=-4", "classnum"], ["classnum", "--disc=-4"]),
    (["--k-in-k", "brauer-shape", "--ell", "3", "--m", "2"], ["brauer-shape", "--ell", "3", "--m", "2", "--k-in-k"]),
    (["-h", "classnum"], ["classnum", "-h"]),
])
def test_options_may_come_before_the_subcommand(before, after, capsys):
    expected = run_cli(after, capsys)
    assert run_cli(before, capsys) == expected
    assert expected[0] == (2 if "-h" in after else 0)


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_a_help_request_gives_the_subcommands_help_wherever_it_stands(command, capsys):
    helps = [run_json(argv, capsys) for argv in ([command, "-h"], ["-h", command], ["--help", command])]
    assert helps[0] == helps[1] == helps[2]
    code, env = helps[0]
    assert code == 2 and env["error"]["message"].startswith(f"usage: cmbrauer {command} [-h]")
    assert cli._command(command)[0].help in env["error"]["message"]


def test_one_main_call_parses_argv_once(capsys, monkeypatch):
    parses = []
    parse = cli._parse

    def counted(command, argv):
        parses.append(command)
        return parse(command, argv)

    monkeypatch.setattr(cli, "_parse", counted)
    for argv in (*_ONE_PER_COMMAND, ["classnum"], ["--disc", "-4", "classnum"], ["bound", "--help"]):
        parses.clear()
        run_cli(argv, capsys)
        assert parses == [next(a for a in argv if not a.startswith('-'))], argv


@pytest.mark.parametrize("command", ["classnum", "lattice", "bound"])
def test_help_does_not_depend_on_the_terminal(command):
    # argparse would wrap at the terminal's width; help is rendered at 80 columns
    def help_text(columns):
        env = {k: v for k, v in os.environ.items() if k != "COLUMNS"}
        if columns is not None:
            env["COLUMNS"] = columns
        return subprocess.run([sys.executable, "-m", "cmbrauer", command, "-h"], env=env,
                              capture_output=True, text=True).stdout

    piped = help_text(None)
    assert json.loads(piped)["error"]["message"].startswith(f"usage: cmbrauer {command} [-h]")
    assert help_text("40") == help_text("200") == piped


def test_integers_past_the_digit_limit_are_refused(capsys):
    # each once formed a value that CPython will not render: exit 2 with its
    # limit text, or exit 70 "cannot render the result"
    ten_to = "1{}".format
    for argv in (["bound", "--id", "uncond_lattice", "--set", f"d={ten_to('0' * 2199)}", "--set", "disc_lambda=1"],
                 ["bound", "--id", "ab_GRH", "--set", f"L_deg={ten_to('0' * 1100)}", "--assume-grh"],
                 ["lattice", "--delta-k", "-4", "--f1", ten_to("0" * 2199), "--f2", "1"],
                 ["divisibility", "--conductor", ten_to("0" * 2199), "--degree", "1", "--delta-k", "-4"],
                 ["classnum", "--disc", "-4", "--conductor", ten_to("0" * 2200)],
                 ["bound", "--id", "faltings_GRH", "--set", "d=2", "--assume-grh", "--eps", "1e-4300"],
                 ["bound", "--id", "faltings_GRH", "--set", "d=2", "--assume-grh", "--eps", ten_to("0" * 4300)]):
        code, env = run_json(argv, capsys)
        assert code == 2 and env["error"]["type"] == "BudgetError", argv[:3]
        assert "more than 4300 digits" in env["error"]["message"], argv[:3]


def test_a_divisor_walk_past_its_cap_is_refused(capsys):
    # u*d = 2 * 10^k has (k + 2)(k + 1) divisors: 65,280 at k = 254, 65,792 at k = 255
    def run(k):
        start = time.perf_counter()
        out = run_json(["divisibility", "--conductor", "1", "--degree", "1" + "0" * k, "--delta-k", "-4"], capsys)
        assert time.perf_counter() - start < 1.0, k
        return out

    code, env = run(254)
    assert code == 2 and "divisor walk" not in env["error"]["message"]
    code, env = run(255)
    assert code == 2 and env["error"] == {"type": "BudgetError",
                                         "message": "u*d has 65792 divisors, past the divisor walk's cap 65536"}


# the fuzz mutates these valid argv: one per subcommand and direction, one per bound formula
_TEMPLATES = (*_ONE_PER_COMMAND, ["conductor-bound", "--degree", "3"], ["constants", "--name", "ab_endo"],
              ["lattice", "--kind", "kummer", "--rank", "20", "--disc", "64"], *map(_bound_argv, _BOUND_SAMPLE_INPUTS))
_JUNK = ("", "x", "-", "--", "-h", "--frobnicate", "=", "1/0", "0.5", "nan", "true", "-1e-9")
# 10^k for k uniform (st.integers favours small values), so half have more than 2,150 digits
_POWERS = st.builds(lambda sign, k: f"{sign}1{'0' * k}", st.sampled_from(("", "", "-")), st.sampled_from(range(4301)))
_INTEGERS = st.one_of(st.integers(-3, 20).map(str), _POWERS)
# the options whose size is the work take small values only
_SMALL = st.integers(-5, 200).map(str)
_FLAG_VALUES = {"--budget": _SMALL, "--disc-bound": _SMALL, "--refined-disc-bound": _SMALL,
                "--eps": st.one_of(st.sampled_from(("1e-6", "1e-12", "1/3", "1e-400", "1e-4300", "1/0")),
                                   _POWERS.map(lambda v: f"1/{v.lstrip('-')}"))}


_SET_NAMES = sorted({p for f in FORMULAS.values() for p in f.params})


@st.composite
def _fuzz_argv(draw):
    """A template with values replaced, flags dropped or added, junk put in,
    and the subcommand moved or left out."""
    command, *template = draw(st.sampled_from(_TEMPLATES))
    flags = {**cli._command(command)[0].args, "--format": {"choices": ("json", "table")}}

    def pick(*choices):
        # sampled_from, not one_of: one_of merges repeated branches
        return choices[draw(st.sampled_from(range(len(choices))))]

    junky = pick(True, False, False, False)

    def value(flag, old=None):
        if junky and pick(True, False, False, False):
            return draw(st.sampled_from(_JUNK))
        if "choices" in flags[flag]:
            # a template's --id keeps the inputs it names
            return old or draw(st.sampled_from(sorted(flags[flag]["choices"])))
        if flag == "--set":
            return f"{old.partition('=')[0] if old else draw(st.sampled_from(_SET_NAMES))}={draw(_INTEGERS)}"
        return draw(_FLAG_VALUES.get(flag, _INTEGERS))

    pairs = []  # [flag, value or None] of the template
    for token in template:
        if token.startswith("--"):
            pairs.append([token, None])
        else:
            pairs[-1][1] = token
    tokens = []
    for flag, old in pairs:
        action = pick("keep", "keep", "keep", "replace", "replace", "replace", "drop")
        if action == "drop" and not flags[flag].get("required"):
            continue
        new = value(flag, old) if old is not None and action == "replace" else old
        tokens += [flag] if new is None else [flag, new]
    if pick(True, False):
        flag = draw(st.sampled_from(sorted(flags)))
        tokens += [flag] if flags[flag].get("action") == "store_true" else [flag, value(flag)]
    if junky:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_JUNK)))
    at = pick(0, 0, 0, 0, 0, 0, draw(st.integers(0, len(tokens))), None)
    return tokens if at is None else [*tokens[:at], command, *tokens[at:]]


@settings(max_examples=400, deadline=2000, derandomize=True)
@given(_fuzz_argv())
def test_every_argv_ends_in_one_documented_envelope(argv):
    # in-process: exit 0, 2, 64 or 70 with exactly one document on stdout, a
    # JSON envelope unless a run succeeded with --format table, and no message
    # carrying CPython's int-to-str limit text; --output is left out, since it writes files
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(argv)
    out = stdout.getvalue()
    assert code in (0, 2, 64, 70), (argv, code, out)
    assert "set_int_max_str_digits" not in out, argv
    if code == 0 and not out.startswith("{"):
        assert out.startswith("command") and out.endswith("\n"), argv
        return
    assert out.endswith("\n") and out.count("\n") == 1, argv
    envelope = json.loads(out)
    assert ("result" in envelope) == (code == 0) != ("error" in envelope), argv


def _table_parse(command, argv):
    try:
        return cli._parse(command, list(argv)), None
    except cli._CliError as e:
        return None, str(e)


def _split_command(argv):
    # main's split: the first token not starting with "-" names the subcommand
    at = next((i for i, a in enumerate(argv) if not a.startswith("-")), None)
    return (None, argv) if at is None else (argv[at], [*argv[:at], *argv[at + 1:]])


@settings(max_examples=600, deadline=2000, derandomize=True)
@given(_fuzz_argv())
def test_the_table_parser_answers_as_argparse_does(argv):
    command, rest = _split_command(argv)
    if command in cli.TABLE:
        assert _table_parse(command, rest) == argparse_reference(command, rest), argv


_EDGE_ARGV = (
    # abbreviations, unique and ambiguous, and = forms
    "classnum --dis -4", "classnum --dis=-4", "classnum --he", "classnum --disc -4 --fo table", "cm-count --d 3",
    "cm-count --degree 2 --di=50", "lattice --f 1", "fields-by-h --h 1 --d 9", "fields-by-h --h 1 --disc-b 9",
    "classnum --disc -4 --format=table", "classnum --disc -4 --format=tab", "classnum --disc=", "classnum --disc=--",
    "brauer-shape --ell 3 --m 2 --k-in-k=1", "brauer-shape --ell 3 --m 2 --k-in=", "brauer-shape --ell 3 --m 2 --t",
    # negative values and option-like junk
    "classnum --disc -4", "classnum --disc -.5", "classnum --disc -1.", "bound --id ab_GRH --eps -1e-9",
    "classnum --disc -4 -1e-9", "classnum --disc -x", "classnum --disc -4 ---x", "classnum --disc -4 -=",
    "classnum --disc -4 --=", "classnum --disc -4 --=x", "classnum --disc -4 -",
    # repeats, the appending --set, and --
    "classnum --disc -4 --disc -7", "classnum --disc=x --disc -4", "bound --set d=1 --id ab_GRH --set=L_deg=2 --set",
    "bound --id ab_GRH --set=-- --set d=3", "classnum --disc -4 --", "classnum --disc -4 -- --disc", "classnum --disc -- -4",
    # help where -h is read, and its glued forms
    "classnum -h", "classnum -hh", "classnum -hx", "classnum -hhx", "classnum -h= --disc -4", "classnum --help=x",
    "classnum -help", "classnum --disc x -h", "classnum -h --disc x", "classnum --d -h", "cm-count -h --d",
    # the order of errors
    "classnum --conductor x", "classnum x --conductor y", "classnum --frob --disc -4 x", "lattice --kind x --rank y",
    "bound --id nope --set", "constants --name", "constants --name ab_endo --name x",
)


@pytest.mark.parametrize("argv", [a.split(" ") for a in _EDGE_ARGV] + [
    ["--disc", "-4", "classnum"], ["--disc=-4", "classnum", "--conductor", "3"], ["-h", "lattice"],
    ["--k-in-k", "brauer-shape", "--ell", "3", "--m", "2"], ["classnum", "--disc", " -4"], ["classnum", "--disc", "-4\n"],
    ["classnum", "--disc", "-4 x"], ["classnum", "--disc", "1_0"], ["classnum", "--disc", "1" + "0" * 4400],
    ["classnum", "", "--disc", "-4"]], ids=lambda argv: repr(argv)[:72])
def test_the_table_parser_answers_edge_argv_as_argparse_does(argv):
    command, rest = _split_command(argv)
    assert _table_parse(command, rest) == argparse_reference(command, rest)


# argparse 3.11's rule for a token that is a negative number, so a value
_ARGPARSE_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


@pytest.mark.parametrize("token", ["-5", "-5\n", "-5\n\n", "-.5", "-5.", "-", "--5", "-1e5", "-1_0",
                                   "-\u0663", "-\u00b2", "-0x1", "- 5"], ids=repr)
def test_the_negative_number_rule_is_argparses(token):
    # $ matches before one final newline, and \d is Unicode Nd: Arabic-Indic
    # three is a digit, superscript two is not
    assert cli._negative_number(token) == bool(_ARGPARSE_NEGATIVE_NUMBER.match(token))


@settings(max_examples=500, deadline=None)
@given(st.text("-.05\n \u0663\u00b2e_x", max_size=8))
def test_the_negative_number_rule_is_argparses_on_any_text(token):
    assert cli._negative_number(token) == bool(_ARGPARSE_NEGATIVE_NUMBER.match(token))


def test_a_negative_value_reaches_its_option(capsys):
    assert run_json(["classnum", "--disc", "-7", "--conductor", "2"], capsys) == (0, {
        "command": "classnum", "inputs": {"disc": "-7", "conductor": "2"}, "provenance": "quadratic:class_number_order",
        "result": {"h": "1", "order_discriminant": "-28"}, "conditional": False})
    # int() reads any Nd digits, so an Arabic-Indic -3 is the discriminant -3
    assert run_cli(["classnum", "--disc", "-\u0663"], capsys) == run_cli(["classnum", "--disc", "-3"], capsys)


def _explicit_dash_dash_argv():
    # each option of each subcommand given "=--" after a valid argv, and the
    # argv that once handed a runner the [] argparse stores for that value
    for argv in _ONE_PER_COMMAND:
        for flag in cli._command(argv[0])[1]:
            yield [*argv, f"{flag}=--"]
    for argv in ("bound --id ab_GRH --set=--", "classnum --disc=--", "fields-by-h --h=-- --disc-bound 10",
                 "cm-count --degree 1 --disc-bound=--", "classnum --dis=-- --disc -4"):
        yield argv.split(" ")


@pytest.mark.parametrize("argv", _explicit_dash_dash_argv(), ids=" ".join)
def test_an_explicit_dash_dash_value_is_refused(argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 2 and out.endswith("\n") and out.count("\n") == 1, (code, out)
    token = next(t for t in argv if t.endswith("=--"))
    option = cli._classify(cli._command(argv[0])[1], token)[0]
    expected = "ignored explicit argument '--'" if option.action in ("store_true", "help") else "expected one argument"
    assert json.loads(out)["error"] == {"type": "_CliError", "message": f"argument {option.name}: {expected}"}
