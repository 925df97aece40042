"""Stratification descriptors and the constructions applied to them.

Strata are dimension bookkeeping only: we record, for each 1-based index
``i``, a lower bound on the codimension of the ``i``-th closed stratum.
The geometric content of a computation lives in the incidence patterns
(:mod:`pervchow.cycles`, :mod:`pervchow.cocycles`) and in the cone model
(:mod:`pervchow.cones`).
"""

from __future__ import annotations

import operator

from ._value import Value, echo


class StratumSpec(Value):
    """One closed stratum: 1-based index, codimension lower bound, label."""

    __slots__ = ("index", "codim_lower_bound", "label")

    def __init__(self, index: int, codim_lower_bound: int, label: str = "") -> None:
        self._init(operator.index(index), operator.index(codim_lower_bound), label)


class Stratification(Value, uncompared=("model",)):
    """Depth-``k`` filtration descriptor of a ``d``-dimensional variety.

    ``model`` records how the descriptor was built: ``"generic"``, ``"vertex"``,
    or ``(fiber_dim, base)`` for a product with a smooth fiber over a base model.
    No computation reads it, so it takes no part in equality.
    """

    __slots__ = ("ambient_dim", "strata", "model")

    def __init__(self, ambient_dim: int, strata: tuple[StratumSpec, ...], model: str | tuple = "generic") -> None:
        self._init(operator.index(ambient_dim), tuple(strata), model)
        if self.ambient_dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        if len(self.strata) > self.ambient_dim:
            raise ValueError(
                f"depth {len(self.strata)} exceeds ambient dimension {self.ambient_dim}"
            )
        for pos, s in enumerate(self.strata, start=1):
            if s.index != pos:
                raise ValueError(f"stratum indices must run 1..depth, got {echo(s.index)} at position {pos}")
            if s.codim_lower_bound < s.index:
                raise ValueError(
                    f"stratum {s.index} codimension bound {echo(s.codim_lower_bound)} is below its index"
                )
            if s.codim_lower_bound > self.ambient_dim:
                raise ValueError(
                    f"stratum {s.index} codimension bound {echo(s.codim_lower_bound)} exceeds the ambient dimension"
                )

    @property
    def depth(self) -> int:
        return len(self.strata)

    def indices(self) -> tuple[int, ...]:
        return tuple(s.index for s in self.strata)


def isolated_vertex(d: int) -> Stratification:
    """Every stratum is a single point: codimension bound ``d`` at each index."""
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {echo(d)}")
    strata = tuple(StratumSpec(i, d, "vertex") for i in range(1, d + 1))
    return Stratification(d, strata, "vertex")


def product_with_fiber(s: Stratification, fiber_dim: int) -> Stratification:
    """Cross with a smooth fiber: codimension bounds persist, the ambient grows.

    Iterated products flatten, so crossing with fibers of dimensions ``m``
    and then ``n`` yields the same descriptor as crossing once with ``m + n``.
    """
    m = operator.index(fiber_dim)
    if m < 0:
        raise ValueError(f"fiber dimension must be nonnegative, got {echo(m)}")
    if m == 0:
        return s
    total, base = (s.model[0] + m, s.model[1]) if isinstance(s.model, tuple) else (m, s.model)
    return Stratification(s.ambient_dim + m, s.strata, (total, base))


def suspend(s: Stratification) -> Stratification:
    """Suspension: every stratum gains a dimension along with the ambient."""
    return Stratification(s.ambient_dim + 1, s.strata, s.model)
