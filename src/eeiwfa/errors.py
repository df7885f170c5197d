"""Exception types and the argument checks shared across the package. A
function that takes a batch raises the error of the batch as a whole."""

import math
import os
from numbers import Integral, Real


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


def is_real(value):
    """Whether ``value`` is a real number other than a bool (JSON ``true``)."""
    return isinstance(value, Real) and not isinstance(value, bool)


def check_count(value, name, low):
    """``value`` as an int when it is an integral real number >= ``low``;
    anything else, NaN and inf included, raises InvalidInputError. An int
    too large for a float is checked without one."""
    if not (is_real(value) and value >= low
            and (isinstance(value, Integral) or float(value).is_integer())):
        raise InvalidInputError(f"{name} must be an integer >= {low}")
    return int(value)


def check_real(value, name):
    """``value`` as a float when it is a real number, NaN and inf included."""
    if not is_real(value):
        raise InvalidInputError(f"{name} must be a number, got {value!r}")
    return float(value)


def check_number(value, name):
    """``value`` as a float when it is a real number other than NaN (inf
    included); anything else raises InvalidInputError."""
    value = check_real(value, name)
    if math.isnan(value):
        raise InvalidInputError(f"{name} must be a number other than NaN")
    return value


def check_path(value, name):
    """``value`` when it is a str or os.PathLike (``open`` takes an int as a
    file descriptor)."""
    if not isinstance(value, (str, os.PathLike)):
        raise InvalidInputError(f"{name} must be a path, got {value!r}")
    return value


def batch_of(value, name):
    """``(items, single)``: a list or tuple ``value`` as a list of its items,
    which must not be empty, or any other ``value`` as a batch of one, with
    ``single`` telling the two apart. Each batched function of the package
    takes its argument so and returns one result, or a list of them."""
    if not isinstance(value, (list, tuple)):
        return [value], True
    if not value:
        raise InvalidInputError(f"need at least one {name}")
    return list(value), False

