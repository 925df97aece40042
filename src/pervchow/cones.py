"""Intersection calculus on projective cones over smooth presented bases.

A cone of dimension ``d = n + 1`` over a base ``X`` of dimension ``n`` is
stratified by its vertex alone, so a single integer ``p`` (the allowed
vertex excess) controls everything.  A cycle class either passes through the
vertex (``r - d + p >= 0``: a cone over a base class one dimension down) or
avoids it (payload a base class of the same dimension).  Products are
computed in the base ring and sliced by the hyperplane class where the
geometry demands it.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum
from operator import index
from types import MappingProxyType
from typing import TYPE_CHECKING

from . import chow
from ._value import Value, echo
from .chow import ChowClass, ChowRingPresentation, quadric_surface
from .abgroup import FpAbelianGroup, GroupMap, identity

# The incidence calculus is imported by the three functions that build its
# values, so that products, pairings, maps and groups on cones do not load it.
if TYPE_CHECKING:
    from .cycles import CyclePattern
    from .perversity import GeneralizedBound
    from .strata import Stratification


class Mode(Enum):
    ALLOWED = "allowed"
    DISALLOWED = "disallowed"


class ConeProductError(ValueError):
    """The requested product falls outside the defined pairing cases."""


def mode_for(d: int, r: int, p: int) -> Mode:
    """Whether dimension ``r`` at vertex bound ``p`` may meet the vertex."""
    return Mode.ALLOWED if r > 0 and r - d + p >= 0 else Mode.DISALLOWED


class ConeVariety(Value):
    """Projective cone over a presented smooth base, stratified by its vertex."""

    __slots__ = ("base",)

    def __init__(self, base: ChowRingPresentation) -> None:
        self._init(base)

    @property
    def cone_dim(self) -> int:
        return self.base.dim + 1

    @property
    def stratification(self) -> Stratification:
        from .strata import isolated_vertex

        return isolated_vertex(self.cone_dim)

    def hyperplane_class(self) -> ChowClass:
        return self.base.hyperplane_class()

    def mode(self, r: int, p: int) -> Mode:
        return mode_for(self.cone_dim, r, p)

    def payload_codim(self, r: int, p: int) -> int:
        """Base codimension housing classes of dimension ``r`` at bound ``p``."""
        n = self.base.dim
        return n - (r - 1) if self.mode(r, p) is Mode.ALLOWED else n - r

    def cls(self, r: int, p: int, coeffs) -> "ConeClass":
        r, p = _check_range(self, r, p)
        payload = self.base.make(self.payload_codim(r, p), coeffs)
        return ConeClass(self, r, p, payload)


def _check_range(cone: ConeVariety, r: int, p: int) -> tuple[int, int]:
    r, p = index(r), index(p)
    if not 0 <= r <= cone.cone_dim:
        raise ValueError(f"cycle dimension {echo(r)} outside 0..{cone.cone_dim}")
    if p < 0:
        raise ValueError("vertex bound must be nonnegative")
    return r, p


class ConeClass(Value):
    """A cycle class on a cone: dimension, vertex bound and base payload."""

    __slots__ = ("cone", "r", "p", "payload")

    def __init__(self, cone: ConeVariety, r: int, p: int, payload: ChowClass) -> None:
        self._init(cone, *_check_range(cone, r, p), payload)
        if self.payload.ring != self.cone.base:
            raise ValueError("payload lives over a different base presentation")
        expected = self.cone.payload_codim(self.r, self.p)
        if self.payload.codim != expected:
            raise ValueError(
                f"payload codimension {self.payload.codim} inconsistent with mode "
                f"{self.mode.value} at (r={self.r}, p={self.p}); expected {expected}"
            )

    @property
    def mode(self) -> Mode:
        return self.cone.mode(self.r, self.p)

    @property
    def is_zero(self) -> bool:
        return self.payload.is_zero

    def __add__(self, other: "ConeClass") -> "ConeClass":
        if self.cone != other.cone or self.r != other.r or self.p != other.p:
            raise ValueError("classes live in different groups")
        return ConeClass(self.cone, self.r, self.p, self.payload + other.payload)


def chow_group(cone: ConeVariety, r: int, p: int) -> FpAbelianGroup:
    """The cycle class group in dimension ``r`` at vertex bound ``p``."""
    return cone.base.group(cone.payload_codim(*_check_range(cone, r, p)))


def comparison_map(cone: ConeVariety, r: int, p_from: int, p_to: int) -> GroupMap:
    """Canonical map obtained by relaxing the vertex bound.

    Identity while the mode is unchanged; when relaxing turns a
    vertex-avoiding class into a cone class, the payload is multiplied by
    the hyperplane class (the cone on a hyperplane section).
    """
    source = chow_group(cone, r, p_from)
    target = chow_group(cone, r, p_to)
    if p_from > p_to:
        raise ValueError(f"bounds must relax: {echo(p_from)} > {echo(p_to)}")
    if cone.mode(r, p_from) is cone.mode(r, p_to):
        matrix = identity(source.rank)
    else:
        k = cone.payload_codim(r, p_from)
        columns = []
        for sym in cone.base.basis_at(k):
            image = chow.mul(cone.base.basis_class(sym), cone.hyperplane_class())
            columns.append(list(image.coeffs))
        matrix = [[col[i] for col in columns] for i in range(target.rank)]
    return GroupMap(source, target, tuple(tuple(row) for row in matrix))


def intersect(a: ConeClass, b: ConeClass) -> ConeClass:
    """The three-case static intersection product on a cone.

    Both classes through the vertex: product of base payloads, provided the
    result is at least a curve.  One through, one avoiding: base product,
    reported at the summed bound (sliced by the hyperplane when that bound
    lets the result meet the vertex).  Both avoiding: base product sliced by
    the hyperplane section once.
    """
    if a.cone != b.cone:
        raise ConeProductError("classes live on different cones")
    cone = a.cone
    d = cone.cone_dim
    r = a.r + b.r - d
    if r < 0:
        raise ConeProductError(
            f"no product in negative dimension: r+s-d = {a.r}+{b.r}-{d} = {r} < 0"
        )
    p = a.p + b.p
    if a.mode is Mode.ALLOWED and b.mode is Mode.ALLOWED:
        if r < 1:
            raise ConeProductError(
                "both classes may meet the vertex, so the product needs "
                f"r+s-d >= 1; got {a.r}+{b.r}-{d} = {r}"
            )
        return ConeClass(cone, r, p, chow.mul(a.payload, b.payload))
    if a.mode is Mode.DISALLOWED and b.mode is Mode.DISALLOWED:
        sliced = chow.mul(chow.mul(a.payload, b.payload), cone.hyperplane_class())
        return ConeClass(cone, r, p, sliced)
    payload = chow.mul(a.payload, b.payload)
    if mode_for(d, r, p) is Mode.ALLOWED:
        payload = chow.mul(payload, cone.hyperplane_class())
    return ConeClass(cone, r, p, payload)


def degree_pairing(a: ConeClass, b: ConeClass) -> int:
    """Degree of the zero-dimensional product of complementary classes."""
    d = a.cone.cone_dim
    if a.r + b.r != d:
        raise ConeProductError(
            f"degree pairing needs r+s = d: {a.r}+{b.r} != {d}"
        )
    return chow.degree(intersect(a, b).payload)


def cartier_coherence_check(a: ConeClass, b: ConeClass) -> bool:
    """Both evaluation orders of the vertex-avoiding product agree.

    Multiplying the payloads first and slicing by the hyperplane afterwards
    must match slicing one factor first and multiplying then.
    """
    if a.mode is not Mode.DISALLOWED or b.mode is not Mode.DISALLOWED:
        raise ConeProductError("the coherence identity concerns vertex-avoiding classes")
    h = a.cone.hyperplane_class()
    lhs = intersect(a, b).payload
    rhs = chow.mul(chow.mul(a.payload, h), b.payload)
    return lhs == rhs


def class_to_pattern(a: ConeClass) -> CyclePattern:
    """Incidence pattern of a cone class on the vertex stratification.

    A nonzero class through the vertex meets every stratum in the vertex
    point (dimension 0); vertex-avoiding or zero classes miss all strata.
    """
    from .cycles import CyclePattern, empty_pattern

    strata = a.cone.stratification
    if a.is_zero or a.mode is Mode.DISALLOWED:
        return empty_pattern(strata, a.r)
    return CyclePattern(strata, a.r, {i: 0 for i in strata.indices()})


def vertex_bound(d: int, p: int) -> GeneralizedBound:
    """The minimal depth-``d`` bound whose vertex entry is ``p``.

    This is the canonical representative of "any perversity with last entry
    ``p``": entries ramp up as late as possible.  For ``p <= d - 1`` it is an
    honest perversity.
    """
    if d < 1:
        raise ValueError("depth must be at least 1")
    if p < 0:
        raise ValueError("vertex bound must be nonnegative")
    from .perversity import GeneralizedBound

    return GeneralizedBound(max(0, p - d + i) for i in range(1, d + 1))


class ZobelCatalog(Value):
    """The cone over the quadric surface with its named classes and tables.

    ``classes`` holds the standard actors: the two cone divisors ``Ce`` and
    ``Cf`` over the rulings, a vertex-avoiding hyperplane section ``H``, the
    two rulings ``L`` and ``M`` sitting in the smooth locus, the cone line
    ``N`` through the vertex, and ``D``, the cone over a horizontal ruling
    (the same class as ``Ce``).  ``expected_*`` freeze the known group,
    comparison and pairing tables for verification: groups are keyed by
    ``(r, p)``, comparison maps by ``(r, p_from, p_to)``, and pairings by
    ``"<left>*<right>"`` class names; the rejected pair carries its two
    operands under ``"operands"``.  The catalog is unhashable on purpose:
    its pairing table nests dicts, and nothing keys on a catalog.
    """

    __slots__ = ("cone", "classes", "expected_groups", "expected_comparisons", "expected_pairings")
    __hash__ = None

    def __init__(
        self,
        cone: ConeVariety,
        classes: Mapping[str, ConeClass],
        expected_groups: Mapping[tuple[int, int], tuple[int, tuple[int, ...]]],
        expected_comparisons: Mapping[tuple[int, int, int], tuple[tuple[int, ...], ...]],
        expected_pairings: Mapping[str, Mapping],
    ) -> None:
        self._init(cone, classes, expected_groups, expected_comparisons, expected_pairings)


def zobel() -> ZobelCatalog:
    """Catalog for the cone over the quadric surface.

    Basis conventions on the quadric: ``e`` is the class of a horizontal
    ruling ``P^1 x {pt}``, ``f`` of a vertical ruling ``{pt} x P^1``; then
    ``L = P^1 x q`` has class ``e``, ``M = p x P^1`` has class ``f`` and
    ``D`` is the cone over a horizontal ruling.
    """
    cone = ConeVariety(quadric_surface())
    classes = {
        "Ce": cone.cls(2, 1, [1, 0]),
        "Cf": cone.cls(2, 1, [0, 1]),
        "D": cone.cls(2, 1, [1, 0]),
        "H": cone.cls(2, 0, [1]),
        "L": cone.cls(1, 0, [1, 0]),
        "M": cone.cls(1, 0, [0, 1]),
        "N": cone.cls(1, 2, [1]),
    }
    expected_groups = {
        (0, 0): (1, ()), (0, 1): (1, ()), (0, 2): (1, ()),
        (1, 0): (2, ()), (1, 1): (2, ()), (1, 2): (1, ()),
        (2, 0): (1, ()), (2, 1): (2, ()), (2, 2): (2, ()),
        (3, 0): (1, ()), (3, 1): (1, ()), (3, 2): (1, ()),
    }
    expected_comparisons = {
        (2, 0, 1): ((1,), (1,)),
        (2, 1, 2): ((1, 0), (0, 1)),
        (1, 0, 1): ((1, 0), (0, 1)),
        (1, 0, 2): ((1, 1),),
    }
    top2, top1 = cone.cls(2, 2, [1, 0]), cone.cls(1, 2, [1])  # both at the top bound
    expected_pairings = {
        "Ce*Cf": {"kind": "class", "mode": "allowed", "r": 1, "p": 2, "payload": (1,)},
        "Ce*Ce": {"kind": "class", "mode": "allowed", "r": 1, "p": 2, "payload": (0,)},
        "D*L": {"kind": "degree", "value": 0},
        "D*M": {"kind": "degree", "value": 1},
        "H*L": {"kind": "degree", "value": 1},
        "H*M": {"kind": "degree", "value": 1},
        "H*N": {"kind": "degree", "value": 1},
        "H*H": {"kind": "class", "mode": "disallowed", "r": 1, "p": 0, "payload": (1, 1)},
        "H*Ce": {"kind": "class", "mode": "disallowed", "r": 1, "p": 1, "payload": (1, 0)},
        "top(r=2)*top(r=1)": {"kind": "rejected", "operands": (top2, top1)},
    }
    return ZobelCatalog(
        cone,
        MappingProxyType(classes),
        MappingProxyType(expected_groups),
        MappingProxyType(expected_comparisons),
        MappingProxyType(expected_pairings),
    )
