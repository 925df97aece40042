"""Incidence certificates for cycles on stratified varieties.

Patterns declare, stratum by stratum, the dimension of a cycle's incidence;
membership checks, pullback/pushforward/suspension transforms and family
certificates are pure arithmetic on those declarations.  Soundness of a
declaration is the caller's responsibility (the cone model derives its
patterns automatically).
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import index

from ._value import Value, echo
from .perversity import GeneralizedBound, collapse_index
from .strata import Stratification, product_with_fiber
from .strata import suspend as suspend_strata

# Incidence value for "the intersection is empty"; kept distinct from any
# integer dimension so emptiness survives serialization unambiguously.
EMPTY = None

Incidence = int | None


def _show(value: Incidence) -> str:
    """An incidence value in messages, spelled as documents spell it."""
    return "empty" if value is None else echo(value)


def _normalize_incidence(
    strata: Stratification, data: Mapping[int, Incidence], what: str
) -> dict[int, Incidence]:
    """Per-stratum data keyed by exactly the indices of ``strata``."""
    table = {index(key): (None if value is None else index(value)) for key, value in data.items()}
    if set(table) != set(strata.indices()):
        raise ValueError(
            f"{what} must declare exactly the stratum indices {echo(list(strata.indices()))}, got {echo(sorted(table))}"
        )
    return table


def _require_shared(a: Stratification, b: Stratification, op: str) -> None:
    """The precondition of ``op`` on two operands: both live on one stratification."""
    if a != b:
        raise ValueError(f"{op} needs a shared stratification")


class CyclePattern(Value, uncompared=("label",)):
    """Declared incidence dimensions of an ``r``-cycle with each stratum.

    ``incidence[i]`` is the dimension of the intersection of the support
    with stratum ``i``; ``EMPTY`` means the intersection is empty.  Values
    never exceed ``r``.  On a nested filtration honest declarations are
    nonincreasing in ``i``; that is not enforced, because slicing a
    correspondence reports per-stratum (locally closed) dimensions which may
    legitimately jump.
    """

    __slots__ = ("strata", "r", "incidence", "label")

    def __init__(
        self, strata: Stratification, r: int, incidence: Mapping[int, Incidence], label: str | None = None
    ) -> None:
        if (r := index(r)) < 0:
            raise ValueError("cycle dimension must be nonnegative")
        table = _normalize_incidence(strata, incidence, "incidence")
        for i, v in table.items():
            if v is not None and not 0 <= v <= r:
                raise ValueError(
                    f"incidence {echo(v)} at stratum {i} outside 0..r={echo(r)} (use EMPTY for no intersection)"
                )
        self._init(strata, r, table, label)


def empty_pattern(strata: Stratification, r: int) -> CyclePattern:
    """Pattern of a cycle missing every stratum."""
    return CyclePattern(strata, r, {i: EMPTY for i in strata.indices()})


def _require_depth(strata: Stratification, bound: GeneralizedBound) -> None:
    if bound.depth != strata.depth:
        raise ValueError(
            f"depth mismatch: bound has {bound.depth} entries, stratification depth is {strata.depth}"
        )


def _verdict(
    label: str,
    value: Incidence,
    limit: int,
    formula: str,
    what: str = "dim",
    empty: str = "empty intersection passes",
) -> tuple[bool, str]:
    """The inequality ``value <= limit`` (EMPTY passes every limit) and its explanation."""
    if value is None:
        return True, f"{label}: {empty}"
    ok = value <= limit
    return ok, f"{label}: {what} {value} <= {formula} = {limit}: " + ("ok" if ok else "violated")


def _membership(pattern: CyclePattern, i: int, p_i: int) -> tuple[bool, str]:
    """Verdict for dim(Z cap S_i) <= r - i + p_i."""
    r = pattern.r
    formula = f"r-i+p_i = {r}-{i}+{p_i}"
    return _verdict(
        f"i={i}", pattern.incidence[i], r - i + p_i, formula, empty="empty intersection passes every bound"
    )


def perversity_report(pattern: CyclePattern, bound: GeneralizedBound) -> list[tuple[bool, str]]:
    """Per-stratum ``(ok, text)`` rows for the membership inequality dim <= r - i + p_i."""
    _require_depth(pattern.strata, bound)
    return [_membership(pattern, i, bound.at(i)) for i in pattern.strata.indices()]


def check_perversity(pattern: CyclePattern, bound: GeneralizedBound) -> bool:
    """True iff incidence(i) <= r - i + p_i for every stratum."""
    return all(ok for ok, _ in perversity_report(pattern, bound))


class JointPattern(Value):
    """Pairwise incidence data for two cycle patterns on one stratification.

    ``joint[i]`` declares the dimension of the triple intersection of the
    two supports with stratum ``i``; ``total`` is the dimension of the
    intersection of the supports themselves.
    """

    __slots__ = ("a", "b", "joint", "total")

    def __init__(self, a: CyclePattern, b: CyclePattern, joint: Mapping[int, Incidence], total: Incidence) -> None:
        _require_shared(a.strata, b.strata, "joint pattern")
        table = _normalize_incidence(a.strata, joint, "joint")
        total = None if total is None else index(total)
        if total is not None and total < 0:
            raise ValueError("total intersection dimension must be nonnegative or EMPTY")
        for i, v in table.items():
            if v is None:
                continue
            if v < 0:
                raise ValueError(f"joint dimension at stratum {i} must be nonnegative or EMPTY")
            if total is None or v > total:
                raise ValueError(f"joint({i})={echo(v)} exceeds the declared total {_show(total)}")
            for side in (a, b):
                cap = side.incidence[i]
                if cap is None or v > cap:
                    raise ValueError(
                        f"joint({i})={echo(v)} exceeds a factor's incidence {_show(cap)} at stratum {i}"
                    )
        self._init(a, b, table, total)


def star_report(joint: JointPattern, c: GeneralizedBound) -> list[tuple[bool, str]]:
    """``(ok, text)`` rows, the total then each stratum, for the pairwise intersection condition with shifts ``c``."""
    strata = joint.a.strata
    _require_depth(strata, c)
    r, s, d = joint.a.r, joint.b.r, strata.ambient_dim
    expected = r + s - d
    rows = [_verdict("total", joint.total, expected, f"r+s-d = {r}+{s}-{d}")]
    for i in strata.indices():
        limit = expected - (i - c.at(i))
        formula = f"r+s-d-(i-c_i) = {expected}-({i}-{c.at(i)})"
        rows.append(_verdict(f"i={i}", joint.joint[i], limit, formula))
    return rows


def check_star(joint: JointPattern, c: GeneralizedBound) -> bool:
    """True iff the pair can be intersected statically with shift data ``c``."""
    return all(ok for ok, _ in star_report(joint, c))


def _shifted(pattern: CyclePattern, strata: Stratification, e: int) -> CyclePattern:
    """``pattern`` carried to ``strata`` with its dimension and every incidence raised by ``e``."""
    incidence = {i: (None if v is None else v + e) for i, v in pattern.incidence.items()}
    return CyclePattern(strata, pattern.r + e, incidence, pattern.label)


def flat_pullback(pattern: CyclePattern, e: int) -> CyclePattern:
    """Pull back along a flat stratified map of relative dimension ``e``."""
    if e < 0:
        raise ValueError("relative dimension must be nonnegative")
    return _shifted(pattern, product_with_fiber(pattern.strata, e), e)


def proper_pushforward(pattern: CyclePattern, c: GeneralizedBound) -> CyclePattern:
    """Push forward along a proper map collapsing strata by ``c``.

    The source stratum over target stratum ``i`` has index ``i - c_i``, so
    the image's incidence at ``i`` is bounded by the input's at ``i - c_i``.
    If the input satisfies a bound ``p`` the output satisfies the transform
    of ``p`` by ``c`` (see :func:`pervchow.perversity.star_compose`).
    """
    _require_depth(pattern.strata, c)
    incidence = {i: pattern.incidence[collapse_index(c, i)] for i in pattern.strata.indices()}
    return CyclePattern(pattern.strata, pattern.r, incidence, pattern.label)


def suspend_pattern(pattern: CyclePattern) -> CyclePattern:
    """Suspension: the cycle and all its incidences gain one dimension."""
    return _shifted(pattern, suspend_strata(pattern.strata), 1)


def sum_patterns(a: CyclePattern, b: CyclePattern) -> CyclePattern:
    """Pattern of a sum of effective cycles: supports union, dimensions max."""
    if a.strata != b.strata or a.r != b.r:
        raise ValueError("summed patterns need equal stratification and dimension")
    incidence: dict[int, Incidence] = {}
    for i in a.strata.indices():
        x, y = a.incidence[i], b.incidence[i]
        if x is None:
            incidence[i] = y
        elif y is None:
            incidence[i] = x
        else:
            incidence[i] = max(x, y)
    return CyclePattern(a.strata, a.r, incidence)


class FamilyCertificate(Value):
    """Certificate for a rational equivalence through a flat family over a line.

    The certificate is structural: it records the family's fiber patterns
    and endpoints, and the checker validates the stated conditions.  It
    cannot refute geometric existence of such a family.
    """

    __slots__ = ("generic_fiber", "special_fibers", "endpoints", "flat_over_line", "effective_variant")

    def __init__(
        self,
        generic_fiber: CyclePattern,
        special_fibers: tuple[tuple[str, CyclePattern], ...],
        endpoints: tuple[CyclePattern, CyclePattern],
        flat_over_line: bool,
        effective_variant: CyclePattern | None = None,
    ) -> None:
        fibers = tuple((t, pat) for t, pat in special_fibers)
        self._init(generic_fiber, fibers, endpoints, flat_over_line, effective_variant)
        labels = [t for t, _ in fibers]
        if not all(isinstance(t, str) for t in labels):
            raise TypeError("fiber parameter labels must be strings")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate fiber parameter labels")
        strata, r = self.generic_fiber.strata, self.generic_fiber.r
        for pat in self.patterns():
            if pat.strata != strata or pat.r != r:
                raise ValueError("all certificate patterns must share stratification and dimension")

    def patterns(self) -> list[CyclePattern]:
        """Every pattern the certificate declares, each of which must lie in the bound."""
        variant = [] if self.effective_variant is None else [self.effective_variant]
        return [self.generic_fiber, *(p for _, p in self.special_fibers), *self.endpoints, *variant]


def check_family_certificate(cert: FamilyCertificate, bound: GeneralizedBound) -> bool:
    """Validate flatness, fiberwise membership and endpoint matching.

    With an effective variant ``E`` present the fibers at 0 and 1 must equal
    endpoint + E; otherwise they must equal the endpoints themselves.
    """
    fibers = dict(cert.special_fibers)
    for label in ("0", "1"):
        if label not in fibers:
            raise ValueError(f"missing endpoint fiber at parameter {label}")
    if not cert.flat_over_line:
        return False
    if not all(check_perversity(pat, bound) for pat in cert.patterns()):
        return False
    w0, w1 = cert.endpoints
    if cert.effective_variant is not None:
        w0 = sum_patterns(w0, cert.effective_variant)
        w1 = sum_patterns(w1, cert.effective_variant)
    return fibers["0"] == w0 and fibers["1"] == w1
