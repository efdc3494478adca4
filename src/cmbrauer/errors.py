"""The package's own exception types, the digit budget that refuses an
integer too long to render, a power before it is formed, and Frozen, the base
of the package's immutable value classes."""

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
    factorization is needed, a point-count scan past 10^6, a census, a class
    number or a divisor walk past its cap, or a value with more digits than
    can be rendered, such as a bound, a Brauer group order or M(n) past
    n = 1331."""


class Frozen:
    """An immutable value.  A subclass names its fields, in order, in
    __slots__, and its __init__ sets each one once with object.__setattr__
    and makes its checks, each an explicit raise.  Instances are equal when
    their classes are the same and their fields are equal, hash by their
    fields, show as Name(field=value, ...), and raise AttributeError when a
    field is assigned or deleted; copy and pickle go through the fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return self._fields()

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


def bounded_digits(value: int, what: str) -> int:
    """value itself; BudgetError, naming ``what``, when |value| has more than
    MAX_DIGITS digits, so that it could not be rendered."""
    if not -DIGIT_LIMIT < value < DIGIT_LIMIT:
        raise BudgetError(f"{what} has more than {MAX_DIGITS} digits")
    return value


def bounded_power(base: int, exp: int, what: str) -> int:
    """base ** exp for base >= 1 and exp >= 0; BudgetError, naming ``what``,
    when it has more than MAX_DIGITS digits.  The estimate exp * log10(base)
    refuses before the power is formed; short of it the power has at most
    MAX_DIGITS + 2 digits, and bounded_digits decides."""
    # past the estimate the power is not formed: DIGIT_LIMIT stands in for it
    power = DIGIT_LIMIT if base > 1 and exp > (MAX_DIGITS + 1) / log10(base) else base ** exp
    return bounded_digits(power, what)
