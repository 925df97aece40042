"""Perversity sequences and per-stratum incidence bounds."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import index

from ._value import Value, echo


class GeneralizedBound(Value):
    """A nondecreasing sequence of nonnegative excess bounds, one per stratum.

    Entries are addressed 1-based: entry ``i`` bounds the allowed excess of
    incidence with the ``i``-th stratum.  Sums of perversities and pushforward
    transforms live here, and steps larger than one are allowed.  An empty
    bound is permitted (it matches a smooth variety with no declared strata).
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[int]) -> None:
        values = tuple(map(index, entries))
        if any(v < 0 for v in values):
            raise ValueError(f"bound entries must be nonnegative: {echo(list(values))}")
        if any(b < a for a, b in zip(values, values[1:])):
            raise ValueError(f"bound entries must be nondecreasing: {echo(list(values))}")
        self._init(values)

    @property
    def depth(self) -> int:
        return len(self.entries)

    def at(self, i: int) -> int:
        """Entry at 1-based index ``i``."""
        if not 1 <= i <= len(self.entries):
            raise IndexError(f"index {i} out of range 1..{len(self.entries)}")
        return self.entries[i - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)


def Perversity(entries: Iterable[int]) -> GeneralizedBound:
    """The bound of a perversity: it starts at 0 and steps by 0 or 1 (hence p_i <= i - 1)."""
    bound = GeneralizedBound(entries)
    values = bound.entries
    if not values:
        raise ValueError("a perversity needs at least one entry")
    if values[0] != 0:
        raise ValueError(f"p_1 must be 0: {echo(list(values))}")
    if any(b - a not in (0, 1) for a, b in zip(values, values[1:])):
        raise ValueError(f"perversity steps must be 0 or 1: {echo(list(values))}")
    return bound


def zero(d: int) -> GeneralizedBound:
    """The zero perversity of depth ``d``."""
    if d < 1:
        raise ValueError(f"depth must be at least 1, got {d}")
    return Perversity([0] * d)


def top(d: int) -> GeneralizedBound:
    """The top perversity p_i = i - 1 of depth ``d``."""
    if d < 1:
        raise ValueError(f"depth must be at least 1, got {d}")
    return Perversity(range(d))


def _require_same_depth(a: GeneralizedBound, b: GeneralizedBound) -> None:
    if a.depth != b.depth:
        raise ValueError(f"depth mismatch: {a.depth} vs {b.depth}")


def add(a: GeneralizedBound, b: GeneralizedBound) -> GeneralizedBound:
    """Entrywise sum.  The result is a plain bound; unit steps may fail."""
    _require_same_depth(a, b)
    return GeneralizedBound(x + y for x, y in zip(a, b))


def collapse_index(c: GeneralizedBound, i: int) -> int:
    """Index ``i - c_i`` of the stratum that collapse data ``c`` sends onto stratum ``i``."""
    j = i - c.at(i)
    if j < 1:
        raise ValueError(f"collapse entry c_{i}={echo(c.at(i))} exceeds {i - 1}")
    return j


def star_compose(p: GeneralizedBound, c: GeneralizedBound) -> GeneralizedBound:
    """Pushforward transform of ``p`` along collapse data ``c``.

    Entry ``i`` of the result is ``p[i - c_i] + c_i``.  The shifted index
    must stay in range, which every perversity ``c`` guarantees.
    """
    _require_same_depth(p, c)
    return GeneralizedBound(p.at(collapse_index(c, i)) + c.at(i) for i in range(1, p.depth + 1))


def leq(a: GeneralizedBound, b: GeneralizedBound) -> bool:
    """Entrywise comparison; the partial order of strictness of bounds."""
    _require_same_depth(a, b)
    return all(x <= y for x, y in zip(a, b))
