"""Command-line front end: one subcommand per library area, canonical JSON
envelopes on stdout.

Serialization is canonical: keys sorted, every integer rendered as a decimal
string (values routinely exceed 64 bits), byte-identical across runs.  Exit
codes: 0 success; 2 input validation, a help request (its error message is
the help text), an --output file that cannot be written, or a BudgetError:
an answer past what the library can certify or compute in bounded time; 64
unknown subcommand; 70 internal failure: a violated internal identity, or a
valid result that cannot be rendered.

Each subcommand is one entry of ``TABLE``, which names its runner as
"module:function" in the library module whose function it calls.  ``main``
imports that module only once ``_parse`` has read argv, so a one-shot process
compiles this front end, the runner's module and that module's top-level
imports, and nothing of the other subcommands.  A usage error or a help
request loads no library module, save bounds for bound and constants, whose
options and provenance ids come from its formulas and tower table.

``_parse`` reads argv from the entry's options as argparse 3.11 would, with
its abbreviations, ``--opt=value`` forms, negative values and error messages,
so envelopes stay as they were under argparse; argparse itself is imported
only to format a help text, at 80 columns whatever the terminal.

A process also imports only the stdlib its subcommand computes with.  The
front end needs sys, functools and collections, and renders through the
C encoder of _json, which json.dumps itself runs; json stays the tests'
oracle for the bytes.  classnum, fields-by-h, minkowski, conductor-bound,
cm-count, brauer-shape, divisibility, mell-estimate (with array) and
k3-census without --field-count add bisect and math, and never load json,
re, typing, enum, fractions or decimal.  bound, constants, lattice and
k3-census --field-count compute with Fractions, so they load fractions, and
with it re, enum, numbers and decimal.

A long-lived process keeps each subcommand's parsed table and resolved
runner; bounds keeps the parse of the last 16 distinct --eps texts.
"""

from __future__ import annotations

import sys
from _json import encode_basestring_ascii, make_encoder
from collections import namedtuple
from collections.abc import Callable
from functools import cache


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNKNOWN_COMMAND = 64
EXIT_INTERNAL = 70


class _CliError(Exception):
    pass


class _InternalError(Exception):
    pass


def _canonical_payload(x):
    """x with str keys, ints and Fractions as decimal strings, and tuples as
    lists, dispatched on its exact class."""
    kind = type(x)
    if kind is str or kind is bool or x is None:
        return x
    if kind is dict:
        return {k if type(k) is str else str(k): _canonical_payload(v) for k, v in x.items()}
    if kind is list or kind is tuple:
        return [_canonical_payload(v) for v in x]
    if kind is int:
        return str(x)
    return _canonical_subclass(x)


def _canonical_subclass(x):
    # an instance of a subclass of those classes is rendered as its base
    if isinstance(x, str):
        return x
    if isinstance(x, dict):
        return {str(k): _canonical_payload(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_canonical_payload(v) for v in x]
    if isinstance(x, int):
        return str(x)
    # a Fraction exists only once fractions is loaded, so a process that never
    # loads it needs no import to tell one apart
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(x, fractions.Fraction):
        return str(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


# the C encoder json.dumps(payload, sort_keys=True, separators=(",", ":"))
# runs, built once, without the json package, whose decoder alone loads re:
# no circular-reference markers, since _canonical_payload returns a fresh
# tree, and no default, since that tree holds only JSON types
_ENCODER = make_encoder(None, None, encode_basestring_ascii, None, ":", ",", True, False, True)


def _serialize(payload: dict) -> str:
    return "".join(_ENCODER(payload, 0))


def _format_table(payload: dict) -> str:
    # human view of the canonical payload; lossy and non-canonical by design
    rows = [("command", payload["command"]), ("provenance", payload["provenance"]),
            ("conditional", payload["conditional"])]

    def flatten(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                flatten(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, (list, tuple)):
            rows.append((prefix, " ".join(str(v) for v in value)))
        else:
            rows.append((prefix, value))

    flatten("inputs", payload["inputs"])
    flatten("result", payload["result"])
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


class _Command(namedtuple("_Command", "help args provenance run")):
    """``args`` maps each long option to its ``argparse.add_argument``
    keywords: ``_parse`` reads dest, action (store_true or append), type,
    choices, required and default, and help and metavar go to the help text
    alone.  ``run`` names the runner as "module:function" in cmbrauer; it
    takes the parsed arguments as keywords and returns the result, which
    carries ``provenance[0]``, or (result, provenance) or (result,
    provenance, conditional, inputs)."""

    __slots__ = ()


_REQUIRED_INT = {"type": int, "required": True}

# an entry whose choices and provenance ids come from its library names its
# builder, which returns that _Command's fields
TABLE: dict[str, _Command | str] = {
    "classnum": _Command(
        "class number of an imaginary quadratic order",
        {"--disc": {**_REQUIRED_INT, "help": "fundamental discriminant Delta_K"},
         "--conductor": {"type": int, "default": 1}},
        ("quadratic:class_number_order",), "quadratic:_cli_classnum"),
    "fields-by-h": _Command(
        "fields with class number at most h",
        {"--h": _REQUIRED_INT,
         "--disc-bound": {**_REQUIRED_INT, "help": "search |Delta_K| up to this bound"}},
        ("quadratic:enumerate_fields_by_class_number",), "quadratic:_cli_fields_by_h"),
    "minkowski": _Command(
        "Minkowski constant M(n)", {"--n": _REQUIRED_INT},
        ("minkowski:minkowski_M",), "minkowski:_cli_minkowski"),
    "conductor-bound": _Command(
        "largest conductor at a ring class degree",
        {"--degree": _REQUIRED_INT, "--delta-k": {"type": int}},
        ("cm_census:conductor_bound", "cm_census:conductor_bound_over_degree"), "cm_census:_cli_conductor_bound"),
    "cm-count": _Command(
        "CM j-invariant census over degree-d fields",
        {"--degree": _REQUIRED_INT, "--disc-bound": {"type": int, "default": 200}},
        ("cm_census:cm_count_total",), "cm_census:_cli_cm_count"),
    "k3-census": _Command(
        "singular K3 class count bounds",
        {"--degree": _REQUIRED_INT, "--field-count": {"type": int}, "--refined-disc-bound": {"type": int}},
        ("cm_census:singular_k3_bound",), "cm_census:_cli_k3_census"),
    "lattice": _Command(
        "CM lattice discriminants, both directions",
        {"--delta-k": {"type": int}, "--f1": {"type": int}, "--f2": {"type": int},
         "--kind": {"choices": ("abelian", "kummer")}, "--rank": {"type": int}, "--disc": {"type": int}},
        ("lattices:disc_identities", "lattices:parse_lattice"), "lattices:_cli_lattice"),
    "brauer-shape": _Command(
        "transcendental Brauer group, maximal order",
        {"--ell": _REQUIRED_INT, "--m": _REQUIRED_INT,
         "--k-in-k": {"action": "store_true", "help": "the CM field lies in the base field"},
         "--two-torsion-rational": {"action": "store_true"}},
        ("brauer:brauer_shape_maximal",), "brauer:_cli_brauer_shape"),
    "divisibility": _Command(
        "divisibility bound for Br(E x E)",
        {"--conductor": _REQUIRED_INT, "--degree": _REQUIRED_INT, "--delta-k": _REQUIRED_INT},
        ("brauer:divisibility_bound",), "brauer:_cli_divisibility"),
    "mell-estimate": _Command(
        "sampled upper bound on m_ell(E)",
        {"--a4": _REQUIRED_INT, "--a6": _REQUIRED_INT, "--cm-disc": _REQUIRED_INT, "--ell": _REQUIRED_INT,
         "--budget": {**_REQUIRED_INT, "help": "sample good primes up to this bound"}},
        ("grossencharakter:estimate_m",), "grossencharakter:_cli_mell_estimate"),
    "bound": "bounds:_cli_bound_command",
    "constants": "bounds:_cli_constants_command",
}

COMMANDS = tuple(TABLE)


# every subcommand's options besides its own and -h/--help
_COMMON_ARGS = {"--format": {"choices": ("json", "table"), "default": "json"},
                "--output": {"metavar": "PATH", "default": None}}


class _Option(namedtuple("_Option", "name dest action type choices required default")):
    """One option as argparse would hold it.  ``action`` is None (store the
    one value), "store_true", "append" or "help"; ``name`` is how a message
    names it."""

    __slots__ = ()


@cache
def _resolve(ref: str) -> Callable:
    """The function that "module:function" names in cmbrauer, its module
    imported on the first call; once per process."""
    module, _, name = ref.partition(":")
    return getattr(__import__(f"cmbrauer.{module}", fromlist=(name,)), name)


@cache
def _command(name: str) -> tuple[_Command, dict[str, _Option], dict[str, object]]:
    """TABLE[name], built if it names a builder, its options by option string
    in argparse's order, and the default of each dest; all once per process."""
    entry = TABLE[name]
    spec = _Command(*_resolve(entry)()) if type(entry) is str else entry
    help_option = _Option("-h/--help", "help", "help", None, None, False, None)
    options = {"-h": help_option, "--help": help_option}
    for flag, kwargs in {**_COMMON_ARGS, **spec.args}.items():
        action = kwargs.get("action")
        options[flag] = _Option(flag, kwargs.get("dest", flag[2:].replace("-", "_")), action, kwargs.get("type"),
                                kwargs.get("choices"), kwargs.get("required", False),
                                kwargs.get("default", False if action == "store_true" else None))
    return spec, options, {o.dest: o.default for o in options.values() if o.action != "help"}


def _help(name: str) -> str:
    """The help text of subcommand ``name``: argparse formats it from the same
    table, at 80 columns whatever the terminal, and never sees argv."""
    import argparse
    spec = _command(name)[0]
    parser = argparse.ArgumentParser(prog=f"cmbrauer {name}", description=spec.help,
                                     formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78))
    for flag, kwargs in {**_COMMON_ARGS, **spec.args}.items():
        parser.add_argument(flag, **kwargs)
    return parser.format_help()


def _negative_number(token: str) -> bool:
    r"""Whether argparse 3.11's ``^-\d+$|^-\d*\.\d+$`` matches ``token``, so
    that it is a value, never an option: "-", then decimal digits, or digits,
    a dot and at least one digit.  ``\d`` is Unicode Nd, as ``str.isdecimal``,
    and ``$`` also matches before one final newline."""
    if token[:1] != "-":
        return False
    whole, dot, fraction = (token[1:-1] if token[-1:] == "\n" else token[1:]).partition(".")
    if not dot:
        return whole.isdecimal()
    return (not whole or whole.isdecimal()) and fraction.isdecimal()


def _classify(options: dict[str, _Option], token: str):
    """None if ``token`` is a value, else (option, option string, explicit
    value or None); the option is None if it is unknown.  An abbreviation
    that fits more than one option is refused."""
    if not token or token[0] != "-":
        return None
    if token in options:
        return options[token], token, None
    if len(token) == 1:
        return None
    flag, sep, explicit = token.partition("=")
    if sep and flag in options:
        return options[flag], flag, explicit
    if token[1] == "-":  # a unique prefix of a long option, with or without its =value
        hits = [(options[f], f, explicit if sep else None) for f in options if f.startswith(flag)]
    else:  # a short option with its value glued on
        hits = [(options[f], f, token[2:] if f == token[:2] else None)
                for f in options if f == token[:2] or f.startswith(token)]
    if len(hits) > 1:
        raise _CliError(f"ambiguous option: {token} could match {', '.join(f for _, f, _ in hits)}")
    if hits:
        return hits[0]
    if _negative_number(token) or " " in token:
        return None
    return None, token, None


def _parse(name: str, argv: list[str]) -> dict:
    """The arguments of subcommand ``name`` by dest, read from argv as
    argparse 3.11 reads it.  An error, or a help request, is a _CliError
    carrying argparse's message: an ambiguous abbreviation anywhere before
    the first "--" comes first, then each option's own error in argv order,
    the help text where -h is read, missing required options and, last,
    the tokens no option took."""
    _, options, defaults = _command(name)
    end = argv.index("--") if "--" in argv else len(argv)
    found = [_classify(options, token) for token in argv[:end]]
    args = defaults.copy()
    seen = set()
    extras = []
    i = 0
    while i < len(argv):
        if i >= end or found[i] is None or found[i][0] is None:
            extras.append(argv[i])
            i += 1
            continue
        option, flag, explicit = found[i]
        i += 1
        if option.action in (None, "append"):
            if explicit is not None:
                token = explicit
            elif i < end and found[i] is None:
                token = argv[i]
                i += 1
            else:
                raise _CliError(f"argument {option.name}: expected one argument")
            seen.add(option.dest)
            value = _value(option, token)
            args[option.dest] = value if option.action is None else [*(args[option.dest] or ()), value]
            continue
        glued = [option]
        while explicit is not None:
            # -h is the one short option, and -hh reads as -h -h
            after = "-" + explicit[0] if flag[1] != "-" and explicit else None
            if after not in options:
                raise _CliError(f"argument {option.name}: ignored explicit argument {explicit!r}")
            option, flag, explicit = options[after], after, explicit[1:] or None
            glued.append(option)
        for option in glued:
            seen.add(option.dest)
            if option.action == "help":
                raise _CliError(_help(name))
            args[option.dest] = True
    missing = [o.name for o in options.values() if o.required and o.dest not in seen]
    if missing:
        raise _CliError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _CliError(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _value(option: _Option, token: str):
    """An option's value token converted and checked as argparse does."""
    if token == "--":  # --opt=--: argparse would store [], which no runner takes
        raise _CliError(f"argument {option.name}: expected one argument")
    value = token
    if option.type is not None:
        try:
            value = option.type(token)
        except ValueError:
            raise _CliError(f"argument {option.name}: invalid {option.type.__name__} value: {token!r}") from None
    if option.choices is not None and value not in option.choices:
        raise _CliError(f"argument {option.name}: invalid choice: {value!r} "
                        f"(choose from {', '.join(map(repr, option.choices))})")
    return value


def _emit_error(command, exc, code: int) -> int:
    payload = {"command": command, "error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stdout.write(_serialize(payload) + "\n")
    return code


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    at = next((i for i, a in enumerate(argv) if not a.startswith("-")), None)
    if at is None:
        return _emit_error(None, _CliError(f"missing subcommand; expected one of {', '.join(COMMANDS)}"), EXIT_USAGE)
    command = argv.pop(at)
    if command not in TABLE:
        return _emit_error(command, _CliError(f"unknown subcommand {command!r}"), EXIT_UNKNOWN_COMMAND)
    spec = _command(command)[0]
    try:
        args = _parse(command, argv)
        fmt, output = args.pop("format"), args.pop("output")
        answer = _resolve(spec.run)(**args)
        if type(answer) is not tuple:
            answer = answer, spec.provenance[0]
        result, provenance, conditional, inputs = (*answer, False, None) if len(answer) == 2 else answer
        if provenance not in spec.provenance:
            raise _InternalError(f"{command} emitted undeclared provenance {provenance!r}")
        envelope = {
            "command": command,
            "inputs": {k: v for k, v in args.items() if v is not None} if inputs is None else inputs,
            "result": result,
            "provenance": provenance,
            "conditional": conditional,
        }
        try:
            payload = _canonical_payload(envelope)
            canonical = _serialize(payload)
            text = _format_table(payload) if fmt == "table" else canonical
        except (ValueError, TypeError) as e:
            # the input was valid, so a result that cannot be rendered is not a usage error
            raise _InternalError(f"cannot render the result: {e}") from e
        if output is not None:
            try:
                with open(output, "w", encoding="utf-8") as fh:
                    fh.write(canonical + "\n")
            except OSError as e:  # a sink that cannot be written is bad input
                return _emit_error(command, e, EXIT_USAGE)
    except (_CliError, ValueError, KeyError) as e:
        return _emit_error(command, e, EXIT_USAGE)
    except (AssertionError, OSError, _InternalError) as e:
        # a violated internal identity (IntegralityError is an AssertionError) or a failed run, not bad input
        return _emit_error(command, e, EXIT_INTERNAL)
    sys.stdout.write(text + "\n")
    return EXIT_OK


if __name__ == "__main__":
    # a runner raises cmbrauer.cli._CliError, so this run is that module
    sys.modules.setdefault("cmbrauer.cli", sys.modules[__name__])
    sys.exit(main())
