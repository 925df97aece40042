"""Incidence calculus for generalized cocycles (correspondences over strata).

A correspondence of codimension ``t`` in ``X x Y`` is generically
equidimensional over ``X``; its failure over each stratum is a per-stratum
fiber-dimension excess.  Join, hyperplane slicing and the cap product act on
these excess profiles by exact arithmetic.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import index

from ._value import Value, echo
from .cycles import CyclePattern, Incidence, JointPattern, _normalize_incidence, _require_depth
from .cycles import _require_shared, _verdict
from .perversity import GeneralizedBound
from .strata import Stratification


class CocyclePattern(Value):
    """Fiber-dimension excess of a correspondence over each stratum.

    Fibers over the open stratum have dimension ``target_dim - t``; over a
    point of stratum ``i`` the dimension may exceed that by at most
    ``excess[i]``.  Excess profiles need not be monotone (they are read per
    locally closed stratum), but can never push a fiber past ``target_dim``.
    """

    __slots__ = ("strata", "t", "target_dim", "excess")

    def __init__(self, strata: Stratification, t: int, target_dim: int, excess: Mapping[int, int]) -> None:
        t, target_dim = index(t), index(target_dim)
        if not 0 <= t <= target_dim:
            raise ValueError(
                f"codimension t={echo(t)} must lie in 0..target_dim={echo(target_dim)}"
            )
        table = _normalize_incidence(strata, excess, "excess")
        for i, v in table.items():
            if v < 0:
                raise ValueError(f"excess at stratum {i} must be nonnegative")
            if v > t:
                raise ValueError(
                    f"excess {echo(v)} at stratum {i} pushes the fiber past the target dimension"
                )
        self._init(strata, t, target_dim, table)


def _require_projective(pattern: CocyclePattern, op: str) -> None:
    """The precondition of join, slicing and cap: values in a projective space of codimension ``t``."""
    if pattern.target_dim != pattern.t:
        raise ValueError(f"{op} needs a cocycle valued in a projective space of its codimension")


def cocycle_report(pattern: CocyclePattern, bound: GeneralizedBound) -> list[tuple[bool, str]]:
    """Per-stratum ``(ok, text)`` rows for the excess inequality excess_i <= p_i."""
    _require_depth(pattern.strata, bound)
    return [_verdict(f"i={i}", pattern.excess[i], bound.at(i), "p_i", what="excess") for i in pattern.strata.indices()]


def check_cocycle(pattern: CocyclePattern, bound: GeneralizedBound) -> bool:
    """True iff the fiber excess over every stratum is within the bound."""
    return all(ok for ok, _ in cocycle_report(pattern, bound))


def join(a: CocyclePattern, b: CocyclePattern) -> CocyclePattern:
    """Fiberwise linear join of two projective-space valued cocycles.

    Requires codimension to match the target dimension on both sides (the
    cup-product situation).  Fibers of a join are joins of fibers, so
    dimensions add plus one and excess profiles add exactly.
    """
    _require_shared(a.strata, b.strata, "join")
    _require_projective(a, "join (first factor)")
    _require_projective(b, "join (second factor)")
    excess = {i: a.excess[i] + b.excess[i] for i in a.strata.indices()}
    return CocyclePattern(a.strata, a.t + b.t, a.target_dim + b.target_dim + 1, excess)


def slice_with_hyperplanes(pattern: CocyclePattern, count: int) -> CyclePattern:
    """Slice a projective-space valued cocycle with ``t`` generic hyperplanes.

    The result is a cycle of dimension ``d - t`` on the base whose incidence
    with stratum ``i`` is ``d - i + excess(i) - t`` (EMPTY when negative,
    capped at the ambient bound ``d - t``).  Genericity of the hyperplanes is
    assumed, never certified.
    """
    if index(count) != pattern.t:
        raise ValueError(f"need exactly t={echo(pattern.t)} hyperplanes, got {echo(count)}")
    _require_projective(pattern, "slicing")
    d, t = pattern.strata.ambient_dim, pattern.t
    if t > d:
        raise ValueError(
            f"slicing a codimension-{echo(t)} cocycle on a {echo(d)}-fold would land in negative dimension"
        )
    # slicing is the cap product with the fundamental class, of incidence d - i
    fundamental = CyclePattern(pattern.strata, d, {i: d - i for i in pattern.strata.indices()})
    return cap_pattern(pattern, fundamental)


def slice_against(a: CocyclePattern, b: CyclePattern) -> JointPattern:
    """Properness certificate of a sliced cocycle against a chosen cycle.

    Generic hyperplanes make the slice meet the given cycle's part of each
    stratum with codimension at least ``t - excess(i)``; the returned joint
    pattern records those bounds.  It satisfies the pairwise intersection
    condition at the sum of any profiles the two inputs satisfy.
    """
    _require_shared(a.strata, b.strata, "slice certificate")
    sliced = slice_with_hyperplanes(a, a.t)
    if b.r < a.t:  # the slice misses a cycle of dimension below its codimension
        return JointPattern(sliced, b, dict.fromkeys(a.strata.indices()), None)
    # the slice meets b inside both the slice itself and the cap of a with b
    capped = cap_pattern(a, b)
    joint = {
        i: None if v is None or sliced.incidence[i] is None else min(v, sliced.incidence[i])
        for i, v in capped.incidence.items()
    }
    return JointPattern(sliced, b, joint, capped.r)


def cap_pattern(a: CocyclePattern, b: CyclePattern) -> CyclePattern:
    """Cap a codimension-``t`` cocycle with an ``r``-cycle pattern.

    Realized as: restrict the correspondence over the cycle, then slice with
    ``t`` generic hyperplanes.  Incidences combine additively, so a cocycle
    within excess ``p`` capped with a cycle within ``q`` lands within
    ``p + q``.
    """
    _require_shared(a.strata, b.strata, "cap")
    _require_projective(a, "cap")
    if b.r < a.t:
        raise ValueError(f"cycle dimension {echo(b.r)} is below the cocycle codimension {echo(a.t)}")
    t = a.t
    r = b.r - t
    incidence: dict[int, Incidence] = {}
    for i in a.strata.indices():
        base = b.incidence[i]
        if base is None:
            incidence[i] = None
            continue
        v = base + a.excess[i] - t
        incidence[i] = None if v < 0 else min(v, r)
    return CyclePattern(a.strata, r, incidence)


def morphism_fiber_pattern(
    strata: Stratification, fiber_dims: Mapping[int, int], n: int
) -> CocyclePattern:
    """Cocycle pattern of the transposed graph of a dominant morphism.

    ``fiber_dims[i]`` is the maximal fiber dimension over points of stratum
    ``i`` of a dominant ``f: Y -> X`` with ``dim Y = n``; the generic fiber
    has dimension ``n - d`` and the graph is a codimension-``d``
    correspondence whose excess is the fiber jump.
    """
    d = strata.ambient_dim
    if n < d:
        raise ValueError(f"a dominant morphism needs dim Y = {echo(n)} >= dim X = {echo(d)}")
    generic = n - d
    excess = {}
    for key, dim in fiber_dims.items():
        i, dim = index(key), index(dim)
        if dim < generic:
            raise ValueError(
                f"fiber dimension {echo(dim)} at stratum {i} below the generic value {echo(generic)}"
            )
        excess[i] = dim - generic
    return CocyclePattern(strata, d, n, excess)

