"""The base of the package's immutable records.

A record names its fields in __slots__, in the order of its __init__'s
parameters, and its __init__ checks its arguments and stores them with
set_field. Record makes it frozen and gives it equality and hashing over
the fields, a Name(field=value, ...) repr, replace() and pickling.

It takes the place of @dataclass(frozen=True), which imports inspect
(and ast, dis and tokenize with it) and compiles each class's methods
when the class is made, a cost that every CLI command paid at start.
"""

from __future__ import annotations


# How a record's __init__ stores a field past the frozen __setattr__.
set_field = object.__setattr__


class FrozenRecordError(AttributeError):
    """An attribute of a record was assigned or deleted."""


class Record:
    __slots__ = ()
    # The field names: each class adds its own __slots__ but a "__dict__".
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields += tuple(name for name in vars(cls).get("__slots__", ()) if name != "__dict__")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the named fields changed, checked as a new record is."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def __reduce__(self):
        # pickle and copy rebuild through __init__, as the frozen
        # __setattr__ refuses the default slot-by-slot restore.
        return (type(self), self._values())
