"""The shared behaviour of mmw's immutable value classes."""

from __future__ import annotations


class Record:
    """Base of an immutable value class whose fields are its ``__slots__``.

    A subclass sets its fields in its own ``__init__`` with
    ``object.__setattr__`` (``Minmatrix``, built most often, through its
    slots' own descriptors).  Instances are equal only to instances of the
    same class with equal fields, hash as the tuple of their fields and
    print as ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuild through __init__: pickle and copy cannot set slots past
        # the __setattr__ above.
        return type(self), self._values()
