"""The package's own exception types; this module imports nothing."""


class InternalCheckError(AssertionError):
    """A violated internal identity: a bug, not bad input.  Raised explicitly,
    so the check also runs under python -O."""


class BudgetError(ValueError):
    """A valid input whose answer lies past what this package can certify or
    compute in bounded time: an integer at or above psi_13 whose primality or
    factorization is needed, a point-count scan past 10^6, or a bound with
    more digits than can be rendered."""
