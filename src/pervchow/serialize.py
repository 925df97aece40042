"""JSON conversion for every value the command-line surface exchanges.

All documents are plain JSON: integer arrays for bounds and matrices,
string-keyed maps for per-stratum data (with ``"empty"`` marking an empty
intersection), and named built-ins for rings and cones.  Emitted documents
re-parse to equal values.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from typing import Any

from .abgroup import FpAbelianGroup, GroupMap, SmithForm, describe, invariant_factors
from .chow import ChowRingPresentation, builtin
from .cocycles import CocyclePattern
from .cones import ConeClass, ConeVariety, zobel
from .cycles import CyclePattern, JointPattern
from .perversity import GeneralizedBound, Perversity
from .strata import GENERIC, ISOLATED_VERTEX, ModelTag, Stratification, StratumSpec, isolated_vertex

SCHEMA_VERSION = 1


class InputError(ValueError):
    """A document does not match the expected schema."""


def _int(x: Any) -> int:
    """An integer field: a JSON integer or a digit string, never a bool or float."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise InputError(f"expected an integer, got {x!r}")
    return int(x)


# -- bounds ------------------------------------------------------------


def bound_to_json(bound: GeneralizedBound) -> list[int]:
    return list(bound.entries)


def parse_bound(data: Any, *, perversity: bool = False) -> GeneralizedBound:
    if isinstance(data, GeneralizedBound):
        entries: Any = list(data.entries)
    elif isinstance(data, (list, tuple)):
        entries = data
    else:
        raise InputError(f"a bound must be an integer array, got {type(data).__name__}")
    try:
        entries = [_int(v) for v in entries]
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
    if data in (None, "generic"):
        return GENERIC
    if data in ("vertex", "isolated_vertex"):
        return ISOLATED_VERTEX
    if isinstance(data, Mapping) and data.get("kind") == "product":
        return ModelTag(
            "product",
            fiber_dim=_int(data["fiber_dim"]),
            base=_model_from_json(data.get("base", "generic")),
        )
    raise InputError(f"unknown stratification model {data!r}")


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
    if isinstance(data, Stratification):
        return data
    if isinstance(data, str):
        m = re.fullmatch(r"vertex(\d+)", data.strip())
        if m:
            return isolated_vertex(_int(m.group(1)))
        raise InputError(f"unknown stratification shorthand {data!r} (expected vertex<d>)")
    if not isinstance(data, Mapping):
        raise InputError("a stratification must be an object or a shorthand string")
    try:
        strata = tuple(
            StratumSpec(_int(st["i"]), _int(st["codim"]), str(st.get("label", "")))
            for st in data["strata"]
        )
        return Stratification(_int(data["dim"]), strata, _model_from_json(data.get("model")))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad stratification document: {exc}") from exc


# -- cycle/joint patterns ----------------------------------------------


def _incidence_to_json(table: Mapping[int, int | None]) -> dict:
    return {str(i): ("empty" if v is None else v) for i, v in sorted(table.items())}


def _incidence_from_json(data: Any, what: str) -> dict[int, int | None]:
    if not isinstance(data, Mapping):
        raise InputError(f"{what} must be an object keyed by stratum index")
    table: dict[int, int | None] = {}
    for key, value in data.items():
        try:
            i = _int(key)
        except (TypeError, ValueError) as exc:
            raise InputError(f"{what} key {key!r} is not a stratum index") from exc
        if value == "empty" or value is None:
            table[i] = None
        else:
            try:
                table[i] = _int(value)
            except (TypeError, ValueError) as exc:
                raise InputError(f"{what} value {value!r} is not an integer or 'empty'") from exc
    return table


def pattern_to_json(p: CyclePattern) -> dict:
    doc = {"dim": p.r, "incidence": _incidence_to_json(p.incidence)}
    if p.label:
        doc["label"] = p.label
    return doc


def parse_pattern(data: Any, strata: Stratification) -> CyclePattern:
    if isinstance(data, CyclePattern):
        return data
    if not isinstance(data, Mapping):
        raise InputError("a cycle pattern must be an object")
    try:
        return CyclePattern(
            strata,
            _int(data["dim"]),
            _incidence_from_json(data["incidence"], "incidence"),
            data.get("label"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad cycle pattern: {exc}") from exc


def joint_to_json(j: JointPattern) -> dict:
    return {
        "a": pattern_to_json(j.a),
        "b": pattern_to_json(j.b),
        "joint": _incidence_to_json(j.joint),
        "total": "empty" if j.total is None else j.total,
    }


def parse_joint(data: Any, strata: Stratification) -> JointPattern:
    if not isinstance(data, Mapping):
        raise InputError("a joint pattern must be an object")
    try:
        total = data["total"]
        total = None if total in ("empty", None) else _int(total)
        return JointPattern(
            parse_pattern(data["a"], strata),
            parse_pattern(data["b"], strata),
            _incidence_from_json(data["joint"], "joint"),
            total,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad joint pattern: {exc}") from exc


# -- cocycle patterns ----------------------------------------------------


def cocycle_to_json(c: CocyclePattern) -> dict:
    return {
        "t": c.t,
        "targetDim": c.target_dim,
        "excess": {str(i): v for i, v in sorted(c.excess.items())},
    }


def parse_cocycle(data: Any, strata: Stratification) -> CocyclePattern:
    if isinstance(data, CocyclePattern):
        return data
    if not isinstance(data, Mapping):
        raise InputError("a cocycle pattern must be an object")
    try:
        excess = {_int(k): _int(v) for k, v in data["excess"].items()}
        return CocyclePattern(strata, _int(data["t"]), _int(data["targetDim"]), excess)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"bad cocycle pattern: {exc}") from exc


# -- ring presentations and cones ----------------------------------------


def ring_to_json(ring: ChowRingPresentation) -> dict:
    # emit each stored pair once, in sorted order; unit rows are implicit
    products = [
        {"a": a, "b": b, "value": dict(sorted(ring.pair_product(a, b).items()))}
        for (a, b) in sorted(ring._table)
        if ring.pair_product(a, b) and a != ring.unit and b != ring.unit
    ]
    doc = {
        "name": ring.name,
        "dim": ring.dim,
        "basis": [list(level) for level in ring.basis],
        "products": products,
        "hyperplane": list(ring.hyperplane),
        "degree": list(ring.degree_functional),
    }
    if ring.relations:
        doc["relations"] = {
            str(k): [list(row) for row in rows] for k, rows in sorted(ring.relations.items())
        }
    return doc


def parse_ring(data: Any) -> ChowRingPresentation:
    if isinstance(data, ChowRingPresentation):
        return data
    if isinstance(data, str):
        try:
            return builtin(data)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if not isinstance(data, Mapping):
        raise InputError("a ring must be a built-in name or a presentation object")
    try:
        products = {
            (str(entry["a"]), str(entry["b"])): {
                str(s): _int(c) for s, c in entry["value"].items()
            }
            for entry in data.get("products", [])
        }
        relations = {
            _int(k): [list(map(_int, row)) for row in rows]
            for k, rows in data.get("relations", {}).items()
        }
        return ChowRingPresentation(
            str(data.get("name", "user")),
            _int(data["dim"]),
            data["basis"],
            products,
            [_int(c) for c in data.get("hyperplane", [])],
            [_int(c) for c in data["degree"]],
            relations or None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad ring presentation: {exc}") from exc


def parse_cone(data: Any) -> ConeVariety:
    if isinstance(data, ConeVariety):
        return data
    if isinstance(data, str) and data.strip() == "zobel":
        return zobel().cone
    if isinstance(data, Mapping) and "base" in data:
        return ConeVariety(parse_ring(data["base"]))
    if isinstance(data, str):
        return ConeVariety(parse_ring(data))
    raise InputError("a cone must be 'zobel', a base ring name, or {'base': ...}")


_CLASS_RE = re.compile(
    r"(allowed|disallowed):(\d+)(?::(\d+))?:\(([-0-9,\s]*)\)"
)


def cone_class_to_json(c: ConeClass) -> dict:
    return {
        "mode": c.mode.value,
        "r": c.r,
        "p": c.p,
        "payload": list(c.payload.coeffs),
    }


def parse_cone_class(data: Any, cone: ConeVariety) -> ConeClass:
    """Parse ``{"r", "p", "payload"}`` or compact ``mode:r[:p]:(c1,c2)``."""
    if isinstance(data, ConeClass):
        return data
    d = cone.cone_dim
    if isinstance(data, str):
        m = _CLASS_RE.fullmatch(data.strip())
        if not m:
            raise InputError(
                f"bad class spec {data!r}; expected mode:r[:p]:(coeffs) or a JSON object"
            )
        mode, r = m.group(1), _int(m.group(2))
        if m.group(3) is not None:
            p = _int(m.group(3))
        else:
            p = max(0, d - r) if mode == "allowed" else 0
        coeffs = [_int(x) for x in m.group(4).split(",") if x.strip()] if m.group(4).strip() else []
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
        try:
            payload = data["payload"]
            if isinstance(payload, Mapping):
                payload = {s: _int(c) for s, c in payload.items()}
            else:
                payload = [_int(c) for c in payload]
            cls = cone.cls(_int(data["r"]), _int(data["p"]), payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad cone class: {exc}") from exc
        declared = data.get("mode")
        if declared is not None and declared != cls.mode.value:
            raise InputError(
                f"declared mode {declared!r} inconsistent with (r={cls.r}, p={cls.p})"
            )
        return cls
    raise InputError("a cone class must be a compact string or an object")


# -- groups, maps and Smith forms -----------------------------------------


def group_to_json(group: FpAbelianGroup) -> dict:
    free, torsion = invariant_factors(group)
    return {
        "rank": group.rank,
        "relations": [list(r) for r in group.relations],
        "free_rank": free,
        "torsion": list(torsion),
        "name": describe(group),
    }


def parse_group(data: Any) -> FpAbelianGroup:
    if isinstance(data, FpAbelianGroup):
        return data
    if not isinstance(data, Mapping):
        raise InputError("a group must be an object with rank and relations")
    try:
        return FpAbelianGroup(
            _int(data["rank"]),
            tuple(tuple(_int(x) for x in row) for row in data.get("relations", [])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad group presentation: {exc}") from exc


def map_to_json(m: GroupMap) -> dict:
    return {
        "source": group_to_json(m.source),
        "target": group_to_json(m.target),
        "matrix": [list(row) for row in m.matrix],
    }


def parse_group_map(data: Any) -> GroupMap:
    if isinstance(data, GroupMap):
        return data
    if not isinstance(data, Mapping):
        raise InputError("a group map must be an object")
    try:
        return GroupMap(
            parse_group(data["source"]),
            parse_group(data["target"]),
            tuple(tuple(_int(x) for x in row) for row in data["matrix"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad group map: {exc}") from exc


def parse_matrix(data: Any) -> list[list[int]]:
    if not isinstance(data, (list, tuple)):
        raise InputError("a matrix must be an array of integer rows")
    try:
        rows = [[_int(x) for x in row] for row in data]
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad matrix: {exc}") from exc
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise InputError("matrix rows have unequal lengths")
    return rows


def smith_to_json(form: SmithForm) -> dict:
    return {
        "U": [list(r) for r in form.U],
        "S": [list(r) for r in form.S],
        "V": [list(r) for r in form.V],
        "diagonal": list(form.diagonal()),
    }
