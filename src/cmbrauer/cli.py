"""Command-line front end: one subcommand per library area, canonical JSON
envelopes on stdout.

Serialization is canonical: keys sorted, every integer rendered as a decimal
string (values routinely exceed 64 bits), byte-identical across runs.  Exit
codes: 0 success; 2 input validation, a help request (its error message is
the help text), an --output file that cannot be written, or a BudgetError:
an answer past what the library can certify or compute in bounded time; 64
unknown subcommand; 70 internal failure: a violated internal identity, or a
valid result that cannot be rendered.  Each subcommand is one entry of
``TABLE``.  A runner imports the library names it calls in its own body, so a
process loads only the library modules of the subcommand it runs.

``_parse`` reads argv from the entry's options as argparse 3.11 would, with
its abbreviations, ``--opt=value`` forms, negative values and error messages,
so envelopes stay as they were under argparse; argparse itself is imported
only to format a help text, at 80 columns whatever the terminal.

A process also imports only the stdlib its subcommand computes with.  The
front end needs sys, functools and collections.abc, and renders through the
C encoder of _json, which json.dumps itself runs; json stays the tests'
oracle for the bytes.  classnum, fields-by-h, minkowski, conductor-bound,
cm-count, brauer-shape, divisibility, mell-estimate (with array) and
k3-census without --field-count add bisect and math, and never load json,
re, typing, enum, fractions or decimal.  bound, constants, lattice and
k3-census --field-count compute with Fractions, so they load fractions, and
with it re, enum, numbers and decimal.
"""

from __future__ import annotations

import sys
from _json import encode_basestring_ascii, make_encoder
from collections.abc import Callable, Sequence
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
        return {str(k): _canonical_payload(v) for k, v in x.items()}
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


def _parse_set_args(pairs: list[str]) -> dict:
    inputs = {}
    for item in pairs:
        name, sep, raw = item.partition("=")
        if not sep or not name:
            raise _CliError(f"--set expects NAME=VALUE, got {item!r}")
        if raw.lower() in ("true", "false"):
            inputs[name] = raw.lower() == "true"
        else:
            try:
                inputs[name] = int(raw)
            except ValueError:
                raise _CliError(f"--set value for {name} must be an integer or true/false, got {raw!r}")
    return inputs


class _Answer:
    """A run's answer with another provenance than the entry's first id, a
    conditional flag, or an echo other than the parsed arguments."""

    __slots__ = ("result", "provenance", "conditional", "inputs")

    def __init__(self, result: dict, provenance: str, conditional: bool = False, inputs: dict | None = None):
        self.result = result
        self.provenance = provenance
        self.conditional = conditional
        self.inputs = inputs


class _Command:
    """``args`` maps each long option to its ``argparse.add_argument``
    keywords: ``_parse`` reads dest, action (store_true or append), type,
    choices, required and default, and help and metavar go to the help text
    alone.  ``run`` takes the parsed arguments as keywords and returns the
    result, which carries ``provenance[0]``, or an _Answer.  It imports the
    library names it calls when it runs."""

    __slots__ = ("help", "args", "provenance", "run")

    def __init__(self, help: str, args: dict[str, dict], provenance: tuple[str, ...], run: Callable):
        self.help = help
        self.args = args
        self.provenance = provenance
        self.run = run


def _classnum(disc, conductor):
    from .quadratic import FundamentalDiscriminant, Order, class_number_order
    order = Order(FundamentalDiscriminant(disc), conductor)
    return {"h": class_number_order(order), "order_discriminant": order.discriminant}


def _fields_by_h(h, disc_bound):
    from .quadratic import enumerate_fields_by_class_number
    search = enumerate_fields_by_class_number(h, disc_bound)
    return {
        "discriminants": [f.value for f in search.fields],
        "count": len(search.fields),
        "certified_complete": search.certified_complete,
    }


def _minkowski(n):
    from .minkowski import minkowski_M
    m = minkowski_M(n)
    return {"value": m.value, "factorization": {str(p): e for p, e in m.factorization}}


def _conductor_bound(degree, delta_k):
    from .cm_census import conductor_bound, conductor_bound_over_degree
    from .quadratic import FundamentalDiscriminant
    if delta_k is None:
        return _Answer({"bound": conductor_bound_over_degree(degree)},
                       "cm_census:conductor_bound_over_degree")
    rep = conductor_bound(FundamentalDiscriminant(delta_k), degree)
    return _Answer({"bound": rep.bound, "case": rep.case_label}, "cm_census:conductor_bound")


def _cm_count(degree, disc_bound):
    from .cm_census import cm_count_total
    rep = cm_count_total(degree, disc_bound)
    return {
        "total": rep.total,
        "certified_complete": rep.certified_complete,
        "cube_bound": rep.cube_bound,
        "per_field": {str(dk): c for dk, c in rep.per_field_counts},
    }


def _k3_census(degree, field_count, refined_disc_bound):
    from .cm_census import singular_k3_bound, singular_k3_refined_sum, singular_k3_strong_bound
    if field_count is None and refined_disc_bound is None:
        raise _CliError("k3-census needs --field-count or --refined-disc-bound")
    result = {}
    if field_count is not None:
        result["log_bound"] = singular_k3_bound(degree, field_count)
        result["strong_bound"] = singular_k3_strong_bound(degree, field_count)
    if refined_disc_bound is not None:
        result["refined_sum"] = singular_k3_refined_sum(degree, refined_disc_bound)
    return result


def _lattice(delta_k, f1, f2, kind, rank, disc):
    from .lattices import CMPair, LatticeDescriptor, disc_hom, disc_ns_kummer, disc_ns_product, parse_lattice
    from .quadratic import FundamentalDiscriminant
    compose = delta_k is not None or f1 is not None or f2 is not None
    parse = kind is not None or rank is not None or disc is not None
    if compose == parse:
        raise _CliError("lattice takes either --delta-k/--f1/--f2 or --kind/--rank/--disc")
    if compose:
        if None in (delta_k, f1, f2):
            raise _CliError("compose direction needs --delta-k, --f1 and --f2")
        pair = CMPair(FundamentalDiscriminant(delta_k), f1, f2)
        result = {
            "conductor_lcm": pair.conductor_lcm,
            "disc_hom": disc_hom(pair),
            "disc_ns_product": disc_ns_product(pair),
            "disc_ns_kummer": disc_ns_kummer(pair),
        }
        return _Answer(result, "lattices:disc_identities")
    if None in (kind, rank, disc):
        raise _CliError("parse direction needs --kind, --rank and --disc")
    data = parse_lattice(LatticeDescriptor(rank=rank, disc=disc), kind)
    return _Answer({"delta_k": data.field.value, "conductor_lcm": data.conductor_lcm},
                   "lattices:parse_lattice")


def _brauer_shape(ell, m, k_in_k, two_torsion_rational):
    from .brauer import GaloisFlags, brauer_shape_maximal
    flags = GaloisFlags(K_in_k=k_in_k, two_torsion_rational=two_torsion_rational)
    shape = brauer_shape_maximal(ell, m, flags)
    return {"cyclic_factors": list(shape.cyclic_factors), "order": shape.order}


def _divisibility(conductor, degree, delta_k):
    from .brauer import divisibility_bound
    return {"bound": divisibility_bound(conductor, degree, delta_k)}


def _mell_estimate(a4, a6, cm_disc, ell, budget):
    from .grossencharakter import CurveOverQ, estimate_m
    est = estimate_m(CurveOverQ(a4, a6, cm_disc), ell, budget)
    return {"m_hat": est.m_hat, "samples_used": est.samples_used, "is_upper_bound": True}


def _parse_eps(text: str) -> Fraction:
    """The --eps text as a Fraction.  A decimal exponent past MAX_DIGITS in
    magnitude, which check_eps could never accept, is refused before Fraction
    forms its power of ten; a digit run or a value past MAX_DIGITS digits too.
    Only ``bound --eps`` comes here, and bounds loads fractions anyway."""
    import re
    from fractions import Fraction

    from .errors import MAX_DIGITS, BudgetError, bounded_digits
    # no shorter text holds such a run, and no text without an e such an exponent
    if len(text) > MAX_DIGITS and any(len(run.replace("_", "")) > MAX_DIGITS
                                      for run in re.findall(r"[\d_]+", text)):
        raise BudgetError(f"--eps has a run of more than {MAX_DIGITS} digits")
    exponent = ("e" in text or "E" in text) and re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE)
    if exponent and abs(int(exponent[1])) > MAX_DIGITS:
        raise _CliError(f"--eps exponent must lie within +-{MAX_DIGITS}, got {text!r}")
    try:
        eps = Fraction(text)
    except ZeroDivisionError:
        raise _CliError(f"--eps has a zero denominator, got {text!r}") from None
    bounded_digits(max(abs(eps.numerator), eps.denominator), "--eps")
    return eps


def _bound(bound_id, settings, eps, assume_grh, cross_check_intro):
    from .bounds import compose_intro_bound, eval_bound
    inputs = _parse_set_args(settings)
    echo = dict(inputs)
    if eps is not None:
        eps = _parse_eps(eps)
        echo["eps"] = str(eps)
    if cross_check_intro:
        if bound_id != "uncond_lattice":
            raise _CliError("--cross-check-intro applies to --id uncond_lattice only")
        if set(inputs) != {"disc_lambda", "d"}:
            raise _CliError("--cross-check-intro needs exactly --set disc_lambda=... --set d=...")
        report = compose_intro_bound(inputs["disc_lambda"], inputs["d"], eps=eps)
    else:
        report = eval_bound(bound_id, inputs, eps=eps, assume_grh=assume_grh)
    result = {
        "integer_bound": report.integer_bound,
        "exact_symbolic": report.exact_symbolic,
        "rounding_certificate": report.rounding_certificate,
    }
    if report.cross_check is not None:
        result["cross_check"] = report.cross_check
    return _Answer(result, report.provenance, report.conditional, echo)


def _constants(name):
    from .bounds import field_tower_constants
    table = field_tower_constants()
    if name is None:
        result = {n: {"value": e.value, "description": e.description} for n, e in table.items()}
        return _Answer(result, "towers:all")
    entry = table[name]
    return _Answer({"value": entry.value, "description": entry.description}, entry.provenance)


def _bound_command() -> _Command:
    from .bounds import FORMULAS
    return _Command(
        "evaluate a registered uniform bound",
        {"--id": {"dest": "bound_id", "required": True, "choices": sorted(FORMULAS)},
         "--set": {"dest": "settings", "action": "append", "default": [], "metavar": "NAME=VALUE",
                   "help": "formula input; integers, or true/false for flags"},
         "--eps": {"help": "rounding precision, e.g. 1e-6"},
         "--assume-grh": {"action": "store_true"},
         "--cross-check-intro": {"action": "store_true",
                                 "help": "with --id uncond_lattice: attach the specialized-lattice cross check"}},
        tuple(f"bounds:{k}" for k in FORMULAS), _bound)


def _constants_command() -> _Command:
    from .bounds import field_tower_constants
    towers = field_tower_constants()
    return _Command(
        "exact descent-degree constants", {"--name": {"choices": sorted(towers)}},
        ("towers:all", *(e.provenance for e in towers.values())), _constants)


_REQUIRED_INT = {"type": int, "required": True}

# an entry whose choices and provenance ids come from its library is a builder
TABLE: dict[str, _Command | Callable[[], _Command]] = {
    "classnum": _Command(
        "class number of an imaginary quadratic order",
        {"--disc": {**_REQUIRED_INT, "help": "fundamental discriminant Delta_K"},
         "--conductor": {"type": int, "default": 1}},
        ("quadratic:class_number_order",), _classnum),
    "fields-by-h": _Command(
        "fields with class number at most h",
        {"--h": _REQUIRED_INT,
         "--disc-bound": {**_REQUIRED_INT, "help": "search |Delta_K| up to this bound"}},
        ("quadratic:enumerate_fields_by_class_number",), _fields_by_h),
    "minkowski": _Command(
        "Minkowski constant M(n)", {"--n": _REQUIRED_INT},
        ("minkowski:minkowski_M",), _minkowski),
    "conductor-bound": _Command(
        "largest conductor at a ring class degree",
        {"--degree": _REQUIRED_INT, "--delta-k": {"type": int}},
        ("cm_census:conductor_bound", "cm_census:conductor_bound_over_degree"), _conductor_bound),
    "cm-count": _Command(
        "CM j-invariant census over degree-d fields",
        {"--degree": _REQUIRED_INT, "--disc-bound": {"type": int, "default": 200}},
        ("cm_census:cm_count_total",), _cm_count),
    "k3-census": _Command(
        "singular K3 class count bounds",
        {"--degree": _REQUIRED_INT, "--field-count": {"type": int}, "--refined-disc-bound": {"type": int}},
        ("cm_census:singular_k3_bound",), _k3_census),
    "lattice": _Command(
        "CM lattice discriminants, both directions",
        {"--delta-k": {"type": int}, "--f1": {"type": int}, "--f2": {"type": int},
         "--kind": {"choices": ("abelian", "kummer")}, "--rank": {"type": int}, "--disc": {"type": int}},
        ("lattices:disc_identities", "lattices:parse_lattice"), _lattice),
    "brauer-shape": _Command(
        "transcendental Brauer group, maximal order",
        {"--ell": _REQUIRED_INT, "--m": _REQUIRED_INT,
         "--k-in-k": {"action": "store_true", "help": "the CM field lies in the base field"},
         "--two-torsion-rational": {"action": "store_true"}},
        ("brauer:brauer_shape_maximal",), _brauer_shape),
    "divisibility": _Command(
        "divisibility bound for Br(E x E)",
        {"--conductor": _REQUIRED_INT, "--degree": _REQUIRED_INT, "--delta-k": _REQUIRED_INT},
        ("brauer:divisibility_bound",), _divisibility),
    "mell-estimate": _Command(
        "sampled upper bound on m_ell(E)",
        {"--a4": _REQUIRED_INT, "--a6": _REQUIRED_INT, "--cm-disc": _REQUIRED_INT, "--ell": _REQUIRED_INT,
         "--budget": {**_REQUIRED_INT, "help": "sample good primes up to this bound"}},
        ("grossencharakter:estimate_m",), _mell_estimate),
    "bound": _bound_command,
    "constants": _constants_command,
}

COMMANDS = tuple(TABLE)


# every subcommand's options besides its own and -h/--help
_COMMON_ARGS = {"--format": {"choices": ("json", "table"), "default": "json"},
                "--output": {"metavar": "PATH", "default": None}}


class _Option:
    """One option as argparse would hold it.  ``action`` is None (store the
    one value), "store_true", "append" or "help"; ``name`` is how a message
    names it."""

    __slots__ = ("name", "dest", "action", "type", "choices", "required", "default")

    def __init__(self, name: str, dest: str, action: str | None, type: Callable | None,
                 choices: Sequence[str] | None, required: bool, default: object):
        self.name = name
        self.dest = dest
        self.action = action
        self.type = type
        self.choices = choices
        self.required = required
        self.default = default


@cache
def _command(name: str) -> tuple[_Command, dict[str, _Option]]:
    """TABLE[name], built if it is a builder, and its options by option
    string in argparse's order; both once per process."""
    entry = TABLE[name]
    spec = entry() if callable(entry) else entry
    help_option = _Option("-h/--help", "help", "help", None, None, False, None)
    options = {"-h": help_option, "--help": help_option}
    for flag, kwargs in {**_COMMON_ARGS, **spec.args}.items():
        action = kwargs.get("action")
        options[flag] = _Option(flag, kwargs.get("dest", flag[2:].replace("-", "_")), action, kwargs.get("type"),
                                kwargs.get("choices"), kwargs.get("required", False),
                                kwargs.get("default", False if action == "store_true" else None))
    return spec, options


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
    options = _command(name)[1]
    end = argv.index("--") if "--" in argv else len(argv)
    found = [_classify(options, token) for token in argv[:end]]
    args = {o.dest: o.default for o in options.values() if o.action != "help"}
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
        answer = spec.run(**args)
        if not isinstance(answer, _Answer):
            answer = _Answer(answer, spec.provenance[0])
        if answer.provenance not in spec.provenance:
            raise _InternalError(f"{command} emitted undeclared provenance {answer.provenance!r}")
        envelope = {
            "command": command,
            "inputs": {k: v for k, v in args.items() if v is not None} if answer.inputs is None else answer.inputs,
            "result": answer.result,
            "provenance": answer.provenance,
            "conditional": answer.conditional,
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
    sys.exit(main())
