"""Stratification descriptors and the constructions applied to them.

Strata are dimension bookkeeping only: we record, for the ``i``-th closed
stratum, a lower bound on its codimension and a label, and ``i`` is its
1-based position.  The geometric content of a computation lives in the
incidence patterns (:mod:`pervchow.cycles`, :mod:`pervchow.cocycles`) and in
the cone model (:mod:`pervchow.cones`).
"""

from __future__ import annotations

import operator

from ._value import Value, echo


def _model(model: str | tuple) -> str | tuple:
    """``model`` if it is ``"generic"``, ``"vertex"`` or a ``(fiber_dim, base)`` pair over such a model."""
    if model in ("generic", "vertex"):
        return model
    if not (isinstance(model, tuple) and len(model) == 2):
        raise ValueError(f"unknown stratification model {echo(model)}")
    if (fiber_dim := operator.index(model[0])) < 0:
        raise ValueError(f"fiber dimension must be nonnegative, got {echo(fiber_dim)}")
    return fiber_dim, _model(model[1])


class Stratification(Value, uncompared=("model",)):
    """Depth-``k`` filtration descriptor of a ``d``-dimensional variety.

    ``strata`` holds one ``(codim, label)`` pair per stratum, the ``i``-th
    pair for stratum ``i``.  ``model`` records how the descriptor was built:
    ``"generic"``, ``"vertex"``, or ``(fiber_dim, base)`` for a product with a
    smooth fiber over a base model.  No computation reads it, so it takes no
    part in equality.
    """

    __slots__ = ("ambient_dim", "strata", "model")

    def __init__(self, ambient_dim: int, strata: tuple[tuple[int, str], ...], model: str | tuple = "generic") -> None:
        pairs = tuple((operator.index(codim), label) for codim, label in strata)
        self._init(operator.index(ambient_dim), pairs, _model(model))
        if self.ambient_dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        if len(pairs) > self.ambient_dim:
            raise ValueError(f"depth {len(pairs)} exceeds ambient dimension {self.ambient_dim}")
        for i, (codim, label) in enumerate(pairs, start=1):
            if not isinstance(label, str):
                raise TypeError(f"label of stratum {i} must be a string, got {type(label).__name__}")
            if codim < i:
                raise ValueError(f"stratum {i} codimension bound {echo(codim)} is below its index")
            if codim > self.ambient_dim:
                raise ValueError(f"stratum {i} codimension bound {echo(codim)} exceeds the ambient dimension")

    @property
    def depth(self) -> int:
        return len(self.strata)

    def indices(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.strata) + 1))


def isolated_vertex(d: int) -> Stratification:
    """Every stratum is a single point: codimension bound ``d`` at each index."""
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {echo(d)}")
    return Stratification(d, ((d, "vertex"),) * d, "vertex")


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
