"""The package's own exception types, and the digit budget that refuses a
power before it is formed."""

from math import log10

# CPython's default limit on int -> str conversion: a value past it could not be rendered
MAX_DIGITS = 4300
# the least integer with more than MAX_DIGITS digits, formed once rather than per check
DIGIT_LIMIT = 10 ** MAX_DIGITS


class InternalCheckError(AssertionError):
    """A violated internal identity: a bug, not bad input.  Raised explicitly,
    so the check also runs under python -O."""


class BudgetError(ValueError):
    """A valid input whose answer lies past what this package can certify or
    compute in bounded time: an integer at or above psi_13 whose primality or
    factorization is needed, a point-count scan past 10^6, a census or a class
    number past its cap, or a value with more digits than can be rendered,
    such as a bound, a Brauer group order or M(n) past n = 1331."""


def bounded_power(base: int, exp: int, what: str) -> int:
    """base ** exp for base >= 1 and exp >= 0; BudgetError, naming ``what``,
    when it has more than MAX_DIGITS digits.  The estimate exp * log10(base)
    refuses before the power is formed; short of it the power has at most
    MAX_DIGITS + 2 digits, and the exact test decides."""
    if (base > 1 and exp > (MAX_DIGITS + 1) / log10(base)) or (power := base ** exp) >= DIGIT_LIMIT:
        raise BudgetError(f"{what} has more than {MAX_DIGITS} digits")
    return power
