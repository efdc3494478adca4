"""Output checks: every op against its recorded output, plus independent
anchors that do not come from a recording."""

from __future__ import annotations

import json

from .workloads import ISOG_PAIR_ANCHOR, digest

# the nine imaginary quadratic fields of class number one (Heegner, Baker, Stark)
NINE_FIELDS = [-3, -4, -7, -8, -11, -19, -43, -67, -163]
# Minkowski's constant M(20), written out from its prime factorization
M20 = 2 ** 38 * 3 ** 14 * 5 ** 6 * 7 ** 3 * 11 ** 2 * 13 * 17 * 19
DEGREE_ONE_CENSUS = 13
ISOG_PAIR_BOUND = 25
CONTRACT_CODES = (0, 2, 64, 70)


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv[:-1] else None


def _result(stdout: str) -> dict:
    return json.loads(stdout)["result"]


def cli_anchor(argv, stdout: str) -> str | None:
    """Anchor for the CLI argv that has one; None when it holds or none applies."""
    if "--format" in argv:
        return None
    command = argv[0] if argv else None
    if command == "fields-by-h" and _flag(argv, "--h") == "1" and int(_flag(argv, "--disc-bound")) >= 163:
        if _result(stdout)["discriminants"] != [str(d) for d in NINE_FIELDS]:
            return "anchor: the class-number-one fields are not the nine"
    elif command == "cm-count" and _flag(argv, "--degree") == "1" and int(_flag(argv, "--disc-bound")) >= 163:
        if _result(stdout)["total"] != str(DEGREE_ONE_CENSUS):
            return "anchor: the degree-one census is not 13"
    elif command == "minkowski" and _flag(argv, "--n") == "20":
        if _result(stdout)["value"] != str(M20):
            return "anchor: M(20) differs from its prime factorization"
    elif list(argv) == ISOG_PAIR_ANCHOR:
        if _result(stdout)["integer_bound"] != str(ISOG_PAIR_BOUND):
            return "anchor: the isog_pair bound at [M:Q] = 2 over Q(i) is not 25"
    return None


def error_envelope(stdout: str) -> bool:
    try:
        payload = json.loads(stdout)
    except ValueError:
        return False
    return isinstance(payload, dict) and "error" in payload


def contract_holds(code: int | None, stdout: str) -> bool:
    """The CLI contract: a JSON envelope on stdout and a documented exit code."""
    if code not in CONTRACT_CODES:
        return False
    try:
        json.loads(stdout)
    except ValueError:
        return False
    return True


def check(op: dict, value, golden: dict) -> str | None:
    """None when the op's output is right, else the reason it is not."""
    where, key = op["check"]
    if where == "cli":
        code, stdout = value["code"], value["stdout"]
        if [code, digest(stdout)] != golden["outputs"][key]:
            return f"cli {op['args']}: exit {code} or stdout differs from the recording"
        if op["tags"].get("error_path") and not (code in (2, 64) and error_envelope(stdout)):
            return f"cli {op['args']}: error path without an error envelope"
        return cli_anchor(op["args"], stdout)
    if where == "range":
        if digest(value) != golden["ranges"][key]:
            return f"{op['kind']}{op['args']}: result differs from the recording"
        if op["kind"] == "enumerate" and op["args"][0] == 1 and value["discs"] != NINE_FIELDS:
            return "anchor: the class-number-one fields are not the nine"
        if op["kind"] == "cm_count" and op["args"][0] == 1 and value["total"] != DEGREE_ONE_CENSUS:
            return "anchor: the degree-one census is not 13"
        return None
    if where in ("swept_orders", "fresh_orders"):
        if value != [golden[where][i] for i in key]:
            return "class_number_order batch differs from the recording"
        return None
    if where == "fd":
        # orders were built as f^2 * Delta_K, so the split is known in advance
        if value != key:
            return "fundamental_discriminant batch does not invert f^2 * Delta_K"
        return None
    if where == "mell":
        if value != golden["mell"][key]:
            return f"estimate_m{op['args']}: result differs from the recording"
        return None
    raise ValueError(f"unknown check {where!r}")
