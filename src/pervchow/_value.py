"""The base of the package's value classes, its self-check error, and how a message quotes an input value.

A value class lists its fields in ``__slots__`` and sets them in its own
``__init__``; this base gives it equality, hashing and a field-by-field repr.
Writing these out, instead of generating them with :mod:`dataclasses`, keeps
``dataclasses`` and the ``inspect`` machinery it imports out of every command's
start-up.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any


class Value:
    """A frozen record over the fields named in ``__slots__``.

    ``==`` compares one tuple of the compared fields (every field but those the
    class keyword ``uncompared`` names), so a field that holds the same object
    on both sides is not compared by its own ``__eq__``; instances of different
    classes are never equal.  A record sets its fields once, through
    :meth:`_init`, which stores each field through its slot descriptor (the
    class looks the descriptors up once), and hashes that tuple, with each dict
    field taken as the set of its items, which is what dict equality compares.
    The repr is ``Name(field=value, ...)`` over every field.
    """

    __slots__ = ()

    def __init_subclass__(cls, *, uncompared: tuple[str, ...] = (), **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        compared = [name for name in cls.__slots__ if name not in uncompared]
        getter = attrgetter(*compared)
        # attrgetter of one name returns the value itself, not a 1-tuple
        cls._key = getter if len(compared) > 1 else staticmethod(lambda value: (getter(value),))
        # the slot descriptors' own setters, which bypass the refusing ``__setattr__``
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def _init(self, *values: Any) -> None:
        """Set the fields, in ``__slots__`` order."""
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(tuple(frozenset(v.items()) if isinstance(v, dict) else v for v in self._key(self)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild the record through ``__init__``, which takes the fields in order
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class VerificationError(RuntimeError):
    """A computed result failed its own exact check: a defect, never a property of the input."""


ECHO_CHARS = 64  # the most characters of an input value that an error message quotes


def echo(x: Any) -> str:
    """``repr(x)`` for an error message; a string (or repr) over ``ECHO_CHARS`` characters is cut and counted."""
    text = x if isinstance(x, str) else repr(x)
    return repr(x) if len(text) <= ECHO_CHARS else f"{text[:ECHO_CHARS]!r}... ({len(text)} characters)"
