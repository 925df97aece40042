"""JSON conversion for every value the command-line surface exchanges.

All documents are plain JSON: integer arrays for bounds and matrices,
string-keyed maps for per-stratum data (with ``"empty"`` marking an empty
intersection), and named built-ins for rings and cones.  Emitted documents
re-parse to equal values.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any

from ._value import ECHO_CHARS, echo

# The layers are imported by the functions that build their values, so that
# reading a matrix loads neither the cone model nor the incidence calculus.
if TYPE_CHECKING:
    from .abgroup import FpAbelianGroup, GroupMap, SmithForm
    from .chow import ChowRingPresentation
    from .cocycles import CocyclePattern
    from .cones import ConeClass, ConeVariety
    from .cycles import CyclePattern, JointPattern
    from .perversity import GeneralizedBound
    from .strata import ModelTag, Stratification

SCHEMA_VERSION = 1

# Largest d of the ``vertex<d>`` shorthand, which builds d strata; checked from
# the digits, so an over-long shorthand is rejected before anything is built.
MAX_VERTEX_DIM = 1024

# Largest row or column count of a matrix document, ``ncols`` included, and
# largest rank or relation count of a group and relation count of a ring
# codimension; and the largest total bit length of the entries of a matrix, of a
# group's relations, of a group map's matrix and of a ring codimension's relations.
# Both are checked before any Smith or Hermite form, whose n³ steps grow with the
# entries: on a 2-vCPU VM 64×64 in [-9, 9] (about 16,000 bits) takes 0.4 s, no
# shape up to 64×64 at 32,768 bits took over 0.7 s, and 16×16 with 1000-bit entries 3.2 s.
MAX_MATRIX_DIM = 64
MAX_MATRIX_BITS = 32768

# Most digits of an integer field or literal, checked before ``int`` reads it: the
# interpreter's default int-to-str limit, fixed so that no interpreter setting moves it.
MAX_INT_DIGITS = sys.int_info.default_max_str_digits

# Most nonzero structure constants a ring document may list, counted before the
# ring is built, once per distinct listed pair: a pair listed again in the same
# order (with an equal combination) is not counted again, the other order is.
# Associativity costs about k⁵ in a document whose products are full
# combinations of k symbols per codimension: 42 per level (112,014 constants)
# took 9.6 s on a 2-vCPU VM.  Every built-in within the basis limit fits:
# ``P127`` is the largest, with 4032.
MAX_RING_CONSTANTS = 4096


class InputError(ValueError):
    """A document does not match the expected schema."""

    detail = ""  # the message without the ``bad <document>:`` that :func:`_reading` puts first


@contextmanager
def _reading(what: str) -> Iterator[None]:
    """The malformed-document rule: a missing key or a wrong type or value is ``bad <what>``."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        error = InputError(f"bad {what}: {exc}")
        error.detail = str(exc)
        raise error from exc


def _part(data: Mapping, field: str, read: Callable[..., Any], *args: Any) -> Any:
    """``read`` on the ``field`` document inside another: an error reads ``<field>: <message>``."""
    try:
        return read(data[field], *args)  # a missing field is the outer reader's KeyError
    except InputError as exc:
        raise InputError(f"{field}: {exc.detail or exc}") from exc


def _check_dim(count: int, what: str, unit: str, limit: int = MAX_MATRIX_DIM) -> None:
    """Reject a count of rows, columns, generators, relations or entry bits above its limit."""
    if count > limit:
        raise InputError(f"{what} takes at most {limit} {unit}, got {count}")


def _shape(data: Any, types: type | tuple[type, ...], what: str, shape: str) -> Any:
    """``data`` if it is one of ``types``; otherwise the error ``<what> must be <shape>, got <type>``."""
    if not isinstance(data, types):
        raise InputError(f"{what} must be {shape}, got {type(data).__name__}")
    return data


def _int(x: Any, what: str = "integer") -> int:
    """An integer field ``what``: a JSON integer or a digit string within the digit limit, never a bool or float."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise InputError(f"expected an integer, got {echo(x)}")
    if isinstance(x, str) and len(x) > MAX_INT_DIGITS and (digits := sum(map(str.isdigit, x))) > MAX_INT_DIGITS:
        raise InputError(f"{what} has {digits} digits; the limit is {MAX_INT_DIGITS}")
    try:
        return int(x)
    except ValueError:  # int() would quote at most 200 characters of x, and not say how many there were
        raise ValueError(f"invalid literal for int() with base 10: {echo(x)}") from None


def json_int(literal: str) -> int:
    """A JSON integer literal, for ``json.loads(..., parse_int=json_int)``: measured as :func:`_int` measures."""
    return _int(literal, "JSON integer")


def json_object(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object, for ``json.loads(..., object_pairs_hook=json_object)``: a key given twice is malformed."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen: set[str] = set()
        repeated = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise InputError(f"JSON object repeats the key {echo(repeated)}")
    return doc


def _shown(text: str) -> str:
    """A number or key as a message shows it: whole when short, through :func:`echo` when over ``ECHO_CHARS``."""
    return text if len(text) <= ECHO_CHARS else echo(text)


def _one_key_each(table: dict[int, Any], data: Mapping, what: str, noun: str) -> dict[int, Any]:
    """``table``, read from the object ``data`` by integer keys, unless two keys of ``data`` name one integer."""
    if len(table) < len(data):  # keys were read by _int, so int() reads each again
        first: dict[int, Any] = {}
        for key in data:
            if (other := first.setdefault(number := int(key), key)) is not key:
                named = (  # two cut quotes would pass 200 characters, so two long keys go by their lengths
                    f"{echo(other)} and {echo(key)} name one {noun}" if min(len(other), len(key)) <= ECHO_CHARS
                    else f"of {len(other)} and {len(key)} characters both name {noun} {_shown(str(number))}"
                )
                raise InputError(f"{what} keys {named}")
    return table


def _int_list(data: Any, what: str) -> list[int]:
    """Every integer array of a document: a list, each entry read by :func:`_int`; ``"11"`` is not ``[1, 1]``."""
    if not isinstance(data, (list, tuple)):  # not _shape: this runs once per matrix row
        raise InputError(f"{what} must be a list of integers, got {type(data).__name__}")
    try:
        return [_int(c) for c in data]
    except ValueError as exc:
        raise InputError(f"{what}: {exc}") from None


def _int_rows(data: Any, what: str, owner: str, unit: str, row: Callable[[int], str] | None = None) -> list[list[int]]:
    """Every list of integer rows: ``owner``'s ``unit``, counted before any row ``row(n)`` is read, then its bits."""
    _shape(data, (list, tuple), what, "a list of integer rows")
    _check_dim(len(data), owner, unit)
    rows = [_int_list(r, row(n) if row else f"{what} row {n}") for n, r in enumerate(data)]
    _check_dim(sum(x.bit_length() for r in rows for x in r), owner, "bits of entries", MAX_MATRIX_BITS)
    return rows


# -- bounds ------------------------------------------------------------


def bound_to_json(bound: GeneralizedBound) -> list[int]:
    return list(bound.entries)


def parse_bound(data: Any, *, perversity: bool = False) -> GeneralizedBound:
    from .perversity import GeneralizedBound, Perversity

    entries = _int_list(data, "bound")
    try:
        return Perversity(entries) if perversity else GeneralizedBound(entries)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


# -- stratifications ---------------------------------------------------


def _model_to_json(tag: ModelTag) -> Any:
    if tag.kind == "generic":
        return "generic"
    if tag.kind == "isolated_vertex":
        return "vertex"
    return {"kind": "product", "fiber_dim": tag.fiber_dim, "base": _model_to_json(tag.base)}


def _model_from_json(data: Any) -> ModelTag:
    from .strata import GENERIC, ISOLATED_VERTEX, ModelTag

    if data in (None, "generic"):
        return GENERIC
    if data in ("vertex", "isolated_vertex"):
        return ISOLATED_VERTEX
    if isinstance(data, Mapping) and data.get("kind") == "product":
        return ModelTag(
            "product",
            fiber_dim=_int(data["fiber_dim"], "fiber_dim"),
            base=_model_from_json(data.get("base", "generic")),
        )
    raise InputError(f"unknown stratification model {echo(data)}")


def stratification_to_json(s: Stratification) -> dict:
    return {
        "dim": s.ambient_dim,
        "strata": [
            {"i": st.index, "codim": st.codim_lower_bound, "label": st.label}
            for st in s.strata
        ],
        "model": _model_to_json(s.model),
    }


def parse_stratification(data: Any) -> Stratification:
    from .strata import Stratification, StratumSpec, isolated_vertex

    if isinstance(data, str):
        m = re.fullmatch(r"vertex0*(\d+)", data.strip())
        if m:
            digits = m.group(1)
            if len(digits) > len(str(MAX_VERTEX_DIM)) or int(digits) > MAX_VERTEX_DIM:
                raise InputError(f"vertex<d> takes d up to {MAX_VERTEX_DIM}, got {_shown(digits)}")
            return isolated_vertex(int(digits))
        raise InputError(f"unknown stratification shorthand {echo(data)} (expected vertex<d>)")
    if not isinstance(data, Mapping):
        raise InputError("a stratification must be an object or a shorthand string")
    with _reading("stratification document"):
        specs = _shape(data["strata"], (list, tuple), "strata", "a list of stratum objects")
        for n, st in enumerate(specs):
            _shape(st, Mapping, f"stratum {n}", "an object")
            _shape(st.get("label", ""), str, f"label of stratum {n}", "a string")
        strata = tuple(
            StratumSpec(_int(st["i"], "i"), _int(st["codim"], "codim"), st.get("label", "")) for st in specs
        )
        return Stratification(_int(data["dim"], "dim"), strata, _model_from_json(data.get("model")))


# -- cycle/joint patterns ----------------------------------------------


def _incidence_to_json(table: Mapping[int, int | None]) -> dict:
    return {str(i): ("empty" if v is None else v) for i, v in sorted(table.items())}


def _incidence_from_json(data: Any, what: str) -> dict[int, int | None]:
    _shape(data, Mapping, what, "an object keyed by stratum index")
    table: dict[int, int | None] = {}
    for key, value in data.items():
        try:
            i = _int(key)
        except (TypeError, ValueError) as exc:
            raise InputError(f"{what} key {echo(key)} is not a stratum index") from exc
        if value == "empty" or value is None:
            table[i] = None
        else:
            try:
                table[i] = _int(value)
            except (TypeError, ValueError) as exc:
                raise InputError(f"{what} value {echo(value)} is not an integer or 'empty'") from exc
    return _one_key_each(table, data, what, "stratum index")


def pattern_to_json(p: CyclePattern) -> dict:
    doc = {"dim": p.r, "incidence": _incidence_to_json(p.incidence)}
    if p.label:
        doc["label"] = p.label
    return doc


def parse_pattern(data: Any, strata: Stratification) -> CyclePattern:
    from .cycles import CyclePattern

    if not isinstance(data, Mapping):
        raise InputError("a cycle pattern must be an object")
    with _reading("cycle pattern"):
        return CyclePattern(
            strata,
            _int(data["dim"], "dim"),
            _incidence_from_json(data["incidence"], "incidence"),
            _shape(data.get("label"), (str, type(None)), "label", "a string"),
        )


def joint_to_json(j: JointPattern) -> dict:
    return {
        "a": pattern_to_json(j.a),
        "b": pattern_to_json(j.b),
        "joint": _incidence_to_json(j.joint),
        "total": "empty" if j.total is None else j.total,
    }


def parse_joint(data: Any, strata: Stratification) -> JointPattern:
    from .cycles import JointPattern

    if not isinstance(data, Mapping):
        raise InputError("a joint pattern must be an object")
    with _reading("joint pattern"):
        total = data["total"]
        total = None if total in ("empty", None) else _int(total, "total")
        return JointPattern(
            _part(data, "a", parse_pattern, strata),
            _part(data, "b", parse_pattern, strata),
            _incidence_from_json(data["joint"], "joint"),
            total,
        )


# -- cocycle patterns ----------------------------------------------------


def cocycle_to_json(c: CocyclePattern) -> dict:
    return {
        "t": c.t,
        "targetDim": c.target_dim,
        "excess": {str(i): v for i, v in sorted(c.excess.items())},
    }


def parse_cocycle(data: Any, strata: Stratification) -> CocyclePattern:
    from .cocycles import CocyclePattern

    if not isinstance(data, Mapping):
        raise InputError("a cocycle pattern must be an object")
    with _reading("cocycle pattern"):
        given = _shape(data["excess"], Mapping, "excess", "an object keyed by stratum index")
        excess = _one_key_each({_int(k, "excess key"): _int(v, "excess value") for k, v in given.items()},
                               given, "excess", "stratum index")
        return CocyclePattern(strata, _int(data["t"], "t"), _int(data["targetDim"], "targetDim"), excess)


# -- ring presentations and cones ----------------------------------------


def ring_to_json(ring: ChowRingPresentation) -> dict:
    doc = {
        "name": ring.name,
        "dim": ring.dim,
        "basis": [list(level) for level in ring.basis],
        "products": [  # a copy of each stored combination, its terms sorted
            {"a": a, "b": b, "value": dict(sorted(combo.items())) if len(combo) > 1 else dict(combo)}
            for a, b, combo in ring.products()
        ],
        "hyperplane": list(ring.hyperplane),
        "degree": list(ring.degree_functional),
    }
    if ring.relations:
        doc["relations"] = {
            str(k): [list(row) for row in rows] for k, rows in sorted(ring.relations.items())
        }
    return doc


def _check_basis(basis: Any, name: str) -> None:
    """Reject a document ``basis`` that is not a list of string lists or is over the basis limit.

    Levels are checked and counted before any symbol is read, so an
    over-long basis is rejected at its size.
    """
    from .chow import check_basis_size

    for k, level in enumerate(_shape(basis, (list, tuple), "basis", "a list of symbol lists")):
        if not isinstance(level, (list, tuple)):  # no per-level call: P127 has 128 levels
            raise InputError(f"basis level {k} must be a list of symbols, got {type(level).__name__}")
    check_basis_size(sum(map(len, basis)), name)
    for k, level in enumerate(basis):
        for sym in level:
            if not isinstance(sym, str):
                raise InputError(f"basis symbol {echo(sym)} in codim {k} must be a string")


def _relations(data: Any) -> dict[int, list[list[int]]]:
    """A document's ``relations``: integer rows keyed by codimension, each level checked against the limits."""
    _shape(data, Mapping, "relations", "an object keyed by codimension")
    levels = {}
    for key, rows in data.items():
        k, shown = _int(key, "relations key"), _shown(str(key))
        levels[k] = _int_rows(
            rows, f"relations in codim {shown}", f"ring codimension {shown}", "relations",
            lambda n: f"relation row {n} in codim {shown}",
        )
    return _one_key_each(levels, data, "relations", "codimension")


def _products(entries: Any) -> tuple[dict[tuple[str, str], dict[str, int]], int]:
    """A document's ``products`` as a table of nonzero constants, and their count.

    One pass reads each constant once; ``_int`` runs only on values that are
    not already integers.  A pair listed twice in the same order must give
    equal combinations and is counted once; the constructor compares the two
    orders of a pair.
    """
    _shape(entries, (list, tuple), "products", "a list of objects")
    products: dict[tuple[str, str], dict[str, int]] = {}
    constants = 0
    for n, entry in enumerate(entries):
        if not isinstance(entry, (dict, Mapping)):  # dict first, to skip the ABC check
            raise InputError(f"products entry {n} must be an object, got {type(entry).__name__}")
        a, b = entry["a"], entry["b"]
        if type(a) is not str or type(b) is not str:  # exact types first, to skip two calls per entry
            for factor in (a, b):
                if not isinstance(factor, str):
                    raise InputError(f"factor {echo(factor)} of products entry {n} must be a string")
        value = entry["value"]
        if not isinstance(value, (dict, Mapping)):
            raise InputError(f"value of product ({echo(a)}, {echo(b)}) must be an object, got {type(value).__name__}")
        combo: dict[str, int] = {}
        for sym, c in value.items():
            if type(c) is not int:
                c = _int(c, f"coefficient of {echo(sym)} in product ({echo(a)}, {echo(b)})")
            if c:
                combo[str(sym)] = c
        pair = (a, b)
        old = products.get(pair)
        if old is None:
            products[pair] = combo
            constants += len(combo)
        elif old != combo:
            raise InputError(f"inconsistent products for pair ({echo(min(pair))}, {echo(max(pair))})")
    return products, constants


def parse_ring(data: Any) -> ChowRingPresentation:
    from .chow import ChowRingPresentation, builtin

    if isinstance(data, str):
        try:
            return builtin(data)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if not isinstance(data, Mapping):
        raise InputError("a ring must be a built-in name or a presentation object")
    with _reading("ring presentation"):
        name = str(data.get("name", "user"))
        _check_basis(data.get("basis", ()), name)
        products, constants = _products(data.get("products", []))
        if constants > MAX_RING_CONSTANTS:
            raise InputError(
                f"ring {echo(name)} has {constants} nonzero structure constants; the limit is {MAX_RING_CONSTANTS}"
            )
        relations = _relations(data.get("relations", {}))
        return ChowRingPresentation(
            name,
            _int(data["dim"], "dim"),
            data["basis"],
            products,
            _int_list(data.get("hyperplane", []), "hyperplane"),
            _int_list(data["degree"], "degree"),
            relations or None,
        )


def parse_cone(data: Any) -> ConeVariety:
    from .cones import ConeVariety

    if isinstance(data, str) and data.strip() == "zobel":
        data = "quadric"  # the catalog's cone, read without building the catalog
    if isinstance(data, Mapping) and "base" in data:
        return ConeVariety(parse_ring(data["base"]))
    if isinstance(data, str):
        return ConeVariety(parse_ring(data))
    raise InputError("a cone must be 'zobel', a base ring name, or {'base': ...}")


# The coefficients are comma-separated integers ("(1,,0)" and "(1-2)" are not a
# payload); each run of spaces has one place to go, so no input backtracks quadratically.
_CLASS_RE = re.compile(r"(allowed|disallowed):(\d+)(?::(\d+))?:\(\s*(?:(-?\d+(?:\s*,\s*-?\d+)*)\s*)?\)")


def cone_class_to_json(c: ConeClass) -> dict:
    return {
        "mode": c.mode.value,
        "r": c.r,
        "p": c.p,
        "payload": list(c.payload.coeffs),
    }


def parse_cone_class(data: Any, cone: ConeVariety) -> ConeClass:
    """Parse ``{"r", "p", "payload"}`` or compact ``mode:r[:p]:(c1,c2)``."""
    d = cone.cone_dim
    if isinstance(data, str):
        m = _CLASS_RE.fullmatch(data.strip())
        if not m:
            raise InputError(f"bad class spec {echo(data)}; expected mode:r[:p]:(coeffs) or a JSON object")
        mode, r = m.group(1), _int(m.group(2), "r")
        if m.group(3) is not None:
            p = _int(m.group(3), "p")
        else:
            p = max(0, d - r) if mode == "allowed" else 0
        coeffs = [_int(x, f"payload entry {n}") for n, x in enumerate(m.group(4).split(","))] if m.group(4) else []
        try:
            cls = cone.cls(r, p, coeffs)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        if cls.mode.value != mode:
            raise InputError(
                f"(r={r}, p={p}) gives a {cls.mode.value} class, but the string says {mode}"
            )
        return cls
    if isinstance(data, Mapping):
        with _reading("cone class"):
            payload = data["payload"]
            if isinstance(payload, Mapping):
                payload = {s: _int(c, f"payload entry {echo(s)}") for s, c in payload.items()}
            else:
                payload = _int_list(payload, "payload")
            cls = cone.cls(_int(data["r"], "r"), _int(data["p"], "p"), payload)
        declared = data.get("mode")
        if declared is not None and declared != cls.mode.value:
            raise InputError(f"declared mode {echo(declared)} inconsistent with (r={cls.r}, p={cls.p})")
        return cls
    raise InputError("a cone class must be a compact string or an object")


# -- groups, maps and Smith forms -----------------------------------------


def group_to_json(group: FpAbelianGroup) -> dict:
    from .abgroup import invariant_factors, name_of

    free, torsion = invariant_factors(group)
    return {
        "rank": group.rank,
        "relations": [list(r) for r in group.relations],
        "free_rank": free,
        "torsion": list(torsion),
        "name": name_of(free, torsion),
    }


def parse_group(data: Any) -> FpAbelianGroup:
    from .abgroup import FpAbelianGroup

    if not isinstance(data, Mapping):
        raise InputError("a group must be an object with rank and relations")
    with _reading("group presentation"):
        rank = _int(data["rank"], "rank")
        _check_dim(rank, "a group", "generators")
        relations = _int_rows(data.get("relations", []), "relations", "a group", "relations")
        return FpAbelianGroup(rank, relations)


def map_to_json(m: GroupMap) -> dict:
    return {
        "source": group_to_json(m.source),
        "target": group_to_json(m.target),
        "matrix": [list(row) for row in m.matrix],
    }


def parse_group_map(data: Any) -> GroupMap:
    from .abgroup import GroupMap

    if not isinstance(data, Mapping):
        raise InputError("a group map must be an object")
    with _reading("group map"):
        source, target = _part(data, "source", parse_group), _part(data, "target", parse_group)
        matrix = _int_rows(data["matrix"], "matrix", "a group map", "rows")
        return GroupMap(source, target, matrix)


def parse_matrix(data: Any, ncols: int | None = None) -> list[list[int]]:
    """Integer rows of equal length; ``ncols`` is the width of a matrix with no rows."""
    rows = _int_rows(data, "matrix", "a matrix", "rows")
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise InputError("matrix rows have unequal lengths")
    _check_dim(max(len(rows[0]) if rows else 0, ncols or 0), "a matrix", "columns")
    return rows


def smith_to_json(form: SmithForm) -> dict:
    return {
        "U": [list(r) for r in form.U],
        "S": [list(r) for r in form.S],
        "V": [list(r) for r in form.V],
        "diagonal": list(form.diagonal()),
    }
