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

# The most trials per choice: sim.compare's two batches use indices [0, 2n).
MAX_TRIALS = 1 << 63

# The most characters of a caller's value that an error message shows.
_SHOWN_CHARS = 80


def show(value) -> str:
    """A caller's value for an error message: its repr, cut to _SHOWN_CHARS.

    repr() of an int past the interpreter's int-to-str digit limit, or of
    a container holding one, raises ValueError; such a value is shown by
    its type alone, so no message can fail to format.
    """
    try:
        text = repr(value)
    except ValueError:
        return f"<{type(value).__name__} too large to show>"
    return text if len(text) <= _SHOWN_CHARS else text[: _SHOWN_CHARS - 3] + "..."


def check_int(value, name: str, minimum: int, maximum: int | None = None) -> int:
    """An int (not a bool) in [minimum, maximum]; no upper bound when maximum is None."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {show(value)}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {show(value)}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{name} must be <= {maximum}, got {show(value)}")
    return value


def check_number(
    value, name: str, minimum: float | None = None, maximum: float | None = None
) -> float:
    """A finite int or float (not a bool) in [minimum, maximum], as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {show(value)}")
    try:
        x = float(value)
    except OverflowError:
        raise ValidationError(f"{name} must be finite, got an integer too large for a float") from None
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be finite, got {show(value)}")
    if minimum is not None and x < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {show(value)}")
    if maximum is not None and x > maximum:
        raise ValidationError(f"{name} must be <= {maximum}, got {show(value)}")
    return x


def as_tuple(items, name: str) -> tuple:
    """The items of an iterable, as a tuple."""
    try:
        return tuple(items)
    except TypeError:
        raise ValidationError(f"{name} must be iterable, got {show(items)}") from None


def check_pair(value, name: str) -> tuple:
    """A tuple or list of two items, as a tuple; a dict, set or range is refused."""
    if not isinstance(value, (tuple, list)) or len(value) != 2:
        raise ValidationError(f"{name} must be a tuple or list of two items, got {show(value)}")
    return tuple(value)


def check_type(value, name: str, kind: type):
    """A value of the given type."""
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be of type {kind.__name__}, got {show(value)}")
    return value
