"""The scalar input rules shared by every module of the package.

Each check returns the accepted value and raises ValidationError with
the caller's field name first in the message. A bool is never accepted
as a number, although Python counts it as an int.
"""

from __future__ import annotations

import math

from .errors import ValidationError

# The largest unsigned 64-bit integer: the bound of seeds and trial indices.
UINT64_MAX = (1 << 64) - 1


def check_int(value, name: str, minimum: int, maximum: int | None = None) -> int:
    """An int (not a bool) in [minimum, maximum]; no upper bound when maximum is None."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{name} must be <= {maximum}, got {value}")
    return value


def check_number(
    value, name: str, minimum: float | None = None, maximum: float | None = None
) -> float:
    """A finite int or float (not a bool) in [minimum, maximum], as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ValidationError(f"{name} must be finite, got an integer too large for a float") from None
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if minimum is not None and x < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value!r}")
    if maximum is not None and x > maximum:
        raise ValidationError(f"{name} must be <= {maximum}, got {value!r}")
    return x


def as_tuple(items, name: str) -> tuple:
    """The items of an iterable, as a tuple."""
    try:
        return tuple(items)
    except TypeError:
        raise ValidationError(f"{name} must be iterable, got {items!r}") from None


def check_type(value, name: str, kind: type):
    """A value of the given type."""
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be of type {kind.__name__}, got {value!r}")
    return value
