"""Brute-force and independent counts that the tests check the package against.

No production path calls them.
"""

import argparse
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from cmbrauer import cli
from cmbrauer.errors import MAX_DIGITS, BudgetError, InternalCheckError, bounded_digits
from cmbrauer.primes import divisors
from cmbrauer.rounding import COARSE_EPS, DEFAULT_EPS, _decimal_places, _ln_grid, _pi_tier, _sqrt_grid, check_eps


def count_reduced_forms(disc: int) -> int:
    """The number of primitive reduced forms of discriminant disc < 0, counted
    by b in O(|disc|^(1/2+eps)) (Cohen, GTM 138, Sec. 5.3).

    For each b = disc (mod 2) with 0 <= b <= sqrt(|disc|/3), the forms with
    that |b| are (a, +-b, c) for the divisors a of (b^2 - disc)/4 with
    b <= a <= c; (a, -b, c) is reduced too unless b = 0, b = a or a = c.
    """
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError(f"{disc} is not a negative discriminant")
    h = 0
    for b in range(disc % 2, isqrt(-disc // 3) + 1, 2):
        n = (b * b - disc) // 4
        for a in divisors(n):
            c = n // a
            if c < a:
                break
            if a >= b and gcd(gcd(a, b), c) == 1:
                h += 1 if b == 0 or b == a or a == c else 2
    return h


@dataclass(frozen=True)
class QuadraticForm:
    """Positive definite integral binary quadratic form a*x^2 + b*x*y + c*y^2."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0 or self.discriminant >= 0:
            raise ValueError(f"form {(self.a, self.b, self.c)} is not positive definite")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_primitive(self) -> bool:
        return gcd(gcd(self.a, self.b), self.c) == 1

    @property
    def is_reduced(self) -> bool:
        # |b| <= a <= c, with b >= 0 when either inequality is an equality
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if b < 0 and (abs(b) == a or a == c):
            return False
        return True


def reduced_forms(disc: int) -> list[QuadraticForm]:
    """All primitive reduced positive definite forms of the given discriminant.

    Enumeration is bounded by |b| <= a <= sqrt(|disc|/3), in O(|disc|).  For
    fundamental discriminants every reduced form is automatically primitive;
    for non-fundamental ones the primitivity filter matters (disc -12 drops
    the imprimitive (2,2,2), for example).  The independent oracle for
    quadratic._count_forms_by_a and the retained sweep.
    """
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError(f"{disc} is not a negative discriminant")
    forms = []
    a_max = isqrt(-disc // 3)
    for a in range(1, a_max + 1):
        # b = -a is never reduced, so scan -a < b <= a
        for b in range(-a + 1, a + 1):
            num = b * b - disc
            c, rem = divmod(num, 4 * a)
            if rem:
                continue
            if c < a:
                continue
            if b < 0 and a == c:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            forms.append(QuadraticForm(a, b, c))
    return forms


def fractions(lo: int, hi: int, h: int) -> tuple[Fraction, Fraction]:
    """An integer enclosure (lo, hi, h) of cmbrauer.rounding as the Fraction
    endpoints (lo/h, hi/h)."""
    return Fraction(lo, h), Fraction(hi, h)


def bracket_product(sym, eps) -> tuple[tuple[Fraction, Fraction], dict]:
    """The enclosure (lo, hi) of a bounds.SymbolicProduct, and its rounding
    certificate; the bound is the floor of hi.

    Formed in Fraction arithmetic, factor by factor, with both endpoints
    carried along; every factor is positive, so a product's endpoints are the
    products of like endpoints, and 1/pi is enclosed by (1/pi_hi, 1/pi_lo).
    The oracle for bounds._evaluate, which forms only the upper endpoint, in
    integers.
    """
    pi_eps = COARSE_EPS if eps is None else eps
    fn_eps = DEFAULT_EPS if eps is None else eps
    cert: dict = {"pi_eps": str(pi_eps), "fn_eps": str(fn_eps)}
    s = _decimal_places(check_eps(fn_eps))
    lo = hi = Fraction(sym.rational)
    if sym.pi_exp != 0:
        pi_lo, pi_hi = fractions(*_pi_tier(check_eps(pi_eps)))
        cert["pi"] = [str(pi_lo), str(pi_hi)]
        e = abs(sym.pi_exp)
        if sym.pi_exp < 0:
            lo, hi = lo / pi_hi ** e, hi / pi_lo ** e
        else:
            lo, hi = lo * pi_lo ** e, hi * pi_hi ** e
    if sym.sqrt_arg != 1:
        sqrt_lo, sqrt_hi = fractions(*_sqrt_grid(sym.sqrt_arg, s))
        cert["sqrt"] = [str(sqrt_lo), str(sqrt_hi)]
        lo, hi = lo * sqrt_lo, hi * sqrt_hi
    for i, lf in enumerate(sym.log_factors):
        ln_lo, ln_hi = fractions(*_ln_grid(lf.arg, s))
        cert[f"ln_{i}"] = [str(ln_lo), str(ln_hi)]
        # coeff >= 0, so coeff * ln + shift is increasing in ln
        affine_lo, affine_hi = lf.coeff * ln_lo + lf.shift, lf.coeff * ln_hi + lf.shift
        if affine_lo <= 0:
            raise InternalCheckError(f"log factor {lf} may be nonpositive, so its power is not monotone")
        lo, hi = lo * affine_lo ** lf.power, hi * affine_hi ** lf.power
    return (lo, hi), cert


class _Refused(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse prints and exits on its own; raise its error or help text instead
    def error(self, message):
        raise _Refused(message)

    def print_help(self, file=None):
        raise _Refused(self.format_help())

    def _get_values(self, action, arg_strings):
        # the one carve-out from argparse: --opt=-- is refused as a missing
        # value, where argparse drops the "--" and stores []
        if action.option_strings and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


def argparse_reference(command: str, argv: list[str]) -> tuple[dict | None, str | None]:
    """argv parsed by the argparse parser the CLI once built for subcommand
    command from cli.TABLE: the arguments by dest and None, or None and the
    error message, which is the help text for a help request.  Matches the
    argparse of Python 3.11.7, at 80 columns, save that --opt=-- is refused as
    a missing value.  The oracle for cli._parse."""
    spec = cli._command(command)[0]
    parser = _Parser(prog=f"cmbrauer {command}", description=spec.help,
                     formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78))
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--output", metavar="PATH", default=None)
    for flag, kwargs in spec.args.items():
        parser.add_argument(flag, **kwargs)
    try:
        return vars(parser.parse_args(list(argv))), None
    except _Refused as e:
        return None, str(e)


def canonical_payload_reference(x):
    """x as the canonical payload, by an isinstance ladder: None, bools and
    strs as they are, dicts with str keys, lists and tuples as lists, ints and
    Fractions as decimal strings; anything else is a TypeError.  The oracle
    for cli._canonical_payload."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, dict):
        return {str(k): canonical_payload_reference(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [canonical_payload_reference(v) for v in x]
    if isinstance(x, (int, Fraction)):
        return str(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def parse_eps_reference(text: str) -> Fraction:
    """The --eps text as a Fraction, with every text scanned for a digit run
    and a decimal exponent past MAX_DIGITS before Fraction reads it.  The
    oracle for bounds._parse_eps, which scans only texts that could hold them."""
    if any(len(run.replace("_", "")) > MAX_DIGITS for run in re.findall(r"[\d_]+", text)):
        raise BudgetError(f"--eps has a run of more than {MAX_DIGITS} digits")
    exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE)
    if exponent and abs(int(exponent[1])) > MAX_DIGITS:
        raise cli._CliError(f"--eps exponent must lie within +-{MAX_DIGITS}, got {text!r}")
    try:
        eps = Fraction(text)
    except ZeroDivisionError:
        raise cli._CliError(f"--eps has a zero denominator, got {text!r}") from None
    bounded_digits(max(abs(eps.numerator), eps.denominator), "--eps")
    return eps
