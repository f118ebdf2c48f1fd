"""The shared behaviour of mmw's immutable value classes."""

from __future__ import annotations


class Record:
    """Base of an immutable value class whose fields are its ``__slots__``.

    Each subclass lists all its fields in its own ``__slots__``; the one
    constructor stores its values in that order, missing trailing ones from
    ``_defaults``.  Classes built in bulk on measured paths set their fields
    themselves, since a call through it costs up to 1.8 times as much: the
    formula nodes (``parse``, alpha; 470 vs 836 ns per node, decide ops
    1-17% slower), ``Minmatrix`` (``normalize``, ``collapse``), ``Frame``
    and ``Model`` (one per frame or valuation checked) and ``Substitution``
    (``enumerate_primes(3)`` builds 40,320: 51 vs 83 ms).  Instances are
    equal only to instances of the same class with equal fields, hash as
    the tuple of their fields and print as ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _defaults: tuple = ()

    def __init__(self, *values) -> None:
        names = self.__slots__
        if len(values) < len(names):
            values += self._defaults[len(values) - len(names):]
        if len(values) != len(names):
            raise TypeError(f"{type(self).__qualname__}() takes {len(names)} fields")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

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
