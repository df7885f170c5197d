"""Exception types and the argument checks shared across the package."""

from numbers import Real


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance.

    Carries the last observed gap so callers can log or relax.
    """

    def __init__(self, message, delta=None):
        super().__init__(message)
        self.delta = delta


class CheckFailure(RuntimeError):
    """A numeric criterion or bound check failed (maps to CLI exit 2)."""


def check_count(value, name, low):
    """``value`` as an int when it is an integral real number >= ``low``;
    anything else, NaN and inf included, raises InvalidInputError."""
    if not (isinstance(value, Real) and value >= low and float(value).is_integer()):
        raise InvalidInputError(f"{name} must be an integer >= {low}")
    return int(value)
