"""Command-line surface: JSON in, verdicts and values out.

Every subcommand reads inline JSON, @-free file paths or shorthand strings,
runs one library operation, and emits a deterministic report.  Exit code 0
means every verdict passed, 1 means a check failed, 2 means the input was
malformed or a precondition was violated.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from . import abgroup, cocycles, cones, cycles, serialize
from .perversity import GeneralizedBound
from .serialize import SCHEMA_VERSION, InputError
from .strata import Stratification
from .strata import suspend as suspend_strata


@dataclass
class Verdict:
    check: str
    ok: bool
    explanation: str


@dataclass
class Report:
    command: str
    verdicts: list[Verdict] = field(default_factory=list)
    values: dict[str, Any] = field(default_factory=dict)
    error: str | None = None
    pretty: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and all(v.ok for v in self.verdicts)

    @property
    def exit_code(self) -> int:
        if self.error is not None:
            return 2
        return 0 if self.ok else 1

    def to_json(self) -> dict:
        doc: dict[str, Any] = {"schema": SCHEMA_VERSION, "command": self.command, "ok": self.ok}
        if self.error is not None:
            doc["error"] = {"message": self.error}
        else:
            doc["verdicts"] = [
                {"check": v.check, "ok": v.ok, "explanation": v.explanation}
                for v in self.verdicts
            ]
            doc["values"] = self.values
        return doc

    def render(self, pretty: bool) -> str:
        if not pretty:
            return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
        lines = [f"command: {self.command}"]
        if self.error is not None:
            lines.append(f"error: {self.error}")
        else:
            for v in self.verdicts:
                lines.append(f"[{'PASS' if v.ok else 'FAIL'}] {v.check}: {v.explanation}")
            if self.values:
                lines.append(json.dumps(self.values, indent=2, sort_keys=True))
        lines.append(f"result: {'ok' if self.ok else 'failed'} (exit {self.exit_code})")
        return "\n".join(lines) + "\n"


def _load(text: str) -> Any:
    """Inline JSON, a path to a JSON file, or a shorthand string."""
    s = text.strip()
    if s.startswith(("{", "[")):
        try:
            return json.loads(s)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
    path = Path(s)
    if path.suffix == ".json" or path.is_file():
        try:
            return json.loads(path.read_text())
        except OSError as exc:
            raise InputError(f"cannot read {s!r}: {exc}") from exc
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InputError(f"invalid JSON in {s!r}: {exc}") from exc
    return s


def _strata(args: argparse.Namespace) -> Stratification:
    return serialize.parse_stratification(_load(args.strata))


def _bound(text: str, *, perversity: bool = False) -> GeneralizedBound:
    return serialize.parse_bound(_load(text), perversity=perversity)


# -- command handlers ----------------------------------------------------


def _cmd_validate(args: argparse.Namespace, report: Report) -> None:
    strata = None
    if any(getattr(args, name) is not None for name in ("pattern", "cocycle", "joint")):
        if args.strata is None:
            raise InputError("--strata is required to validate patterns")
        strata = _strata(args)
    parsers: list[tuple[str, Callable[[Any], Any]]] = [
        ("perversity", lambda doc: serialize.parse_bound(doc, perversity=True)),
        ("bound", serialize.parse_bound),
        ("strata", serialize.parse_stratification),
        ("ring", serialize.parse_ring),
        ("pattern", lambda doc: serialize.parse_pattern(doc, strata)),
        ("cocycle", lambda doc: serialize.parse_cocycle(doc, strata)),
        ("joint", lambda doc: serialize.parse_joint(doc, strata)),
    ]
    provided = [(name, parse) for name, parse in parsers if getattr(args, name) is not None]
    if not provided:
        raise InputError("nothing to validate; pass at least one document")
    for name, parse in provided:
        try:
            parse(_load(getattr(args, name)))
            report.verdicts.append(Verdict(f"valid-{name}", True, f"{name} document is valid"))
        except InputError as exc:
            report.verdicts.append(Verdict(f"valid-{name}", False, str(exc)))


def _summarize(rows: list[tuple], passed: bool) -> str:
    return "; ".join(text for *_, text in rows) if rows else ("ok" if passed else "failed")


def _cmd_check_cycle(args: argparse.Namespace, report: Report) -> None:
    strata = _strata(args)
    pattern = serialize.parse_pattern(_load(args.pattern), strata)
    bound = _bound(args.perversity)
    rows = cycles.perversity_report(pattern, bound)
    ok = all(r[1] for r in rows)
    report.verdicts.append(Verdict("check-cycle", ok, _summarize(rows, ok)))
    report.values["pattern"] = serialize.pattern_to_json(pattern)
    report.values["perversity"] = serialize.bound_to_json(bound)


def _cmd_check_cocycle(args: argparse.Namespace, report: Report) -> None:
    strata = _strata(args)
    pattern = serialize.parse_cocycle(_load(args.cocycle), strata)
    bound = _bound(args.perversity)
    rows = cocycles.cocycle_report(pattern, bound)
    ok = all(r[1] for r in rows)
    report.verdicts.append(Verdict("check-cocycle", ok, _summarize(rows, ok)))
    report.values["cocycle"] = serialize.cocycle_to_json(pattern)
    report.values["perversity"] = serialize.bound_to_json(bound)


def _cmd_check_star(args: argparse.Namespace, report: Report) -> None:
    strata = _strata(args)
    joint = serialize.parse_joint(_load(args.joint), strata)
    c = _bound(args.c)
    rows = cycles.star_report(joint, c)
    ok = all(r[1] for r in rows)
    report.verdicts.append(Verdict("check-star", ok, _summarize(rows, ok)))
    report.values["joint"] = serialize.joint_to_json(joint)
    report.values["c"] = serialize.bound_to_json(c)


def _cmd_push(args: argparse.Namespace, report: Report) -> None:
    strata = _strata(args)
    pattern = serialize.parse_pattern(_load(args.pattern), strata)
    c = _bound(args.c, perversity=True)
    out = cycles.proper_pushforward(pattern, c)
    report.values["pattern"] = serialize.pattern_to_json(out)
    report.values["strata"] = serialize.stratification_to_json(out.strata)


def _cmd_pull(args: argparse.Namespace, report: Report) -> None:
    strata = _strata(args)
    pattern = serialize.parse_pattern(_load(args.pattern), strata)
    out = cycles.flat_pullback(pattern, args.e)
    report.values["pattern"] = serialize.pattern_to_json(out)
    report.values["strata"] = serialize.stratification_to_json(out.strata)


def _cmd_suspend(args: argparse.Namespace, report: Report) -> None:
    strata = _strata(args)
    if args.pattern is not None:
        out = cycles.suspend_pattern(serialize.parse_pattern(_load(args.pattern), strata))
        report.values["pattern"] = serialize.pattern_to_json(out)
        report.values["strata"] = serialize.stratification_to_json(out.strata)
    else:
        report.values["strata"] = serialize.stratification_to_json(suspend_strata(strata))


def _cmd_join(args: argparse.Namespace, report: Report) -> None:
    strata = _strata(args)
    a = serialize.parse_cocycle(_load(args.a), strata)
    b = serialize.parse_cocycle(_load(args.b), strata)
    out = cocycles.join(a, b)
    report.values["cocycle"] = serialize.cocycle_to_json(out)


def _cmd_slice(args: argparse.Namespace, report: Report) -> None:
    strata = _strata(args)
    pattern = serialize.parse_cocycle(_load(args.cocycle), strata)
    count = args.count if args.count is not None else pattern.t
    out = cocycles.slice_with_hyperplanes(pattern, count)
    report.values["pattern"] = serialize.pattern_to_json(out)
    if args.against is not None:
        other = serialize.parse_pattern(_load(args.against), strata)
        report.values["joint"] = serialize.joint_to_json(cocycles.slice_against(pattern, other))


def _cmd_cap(args: argparse.Namespace, report: Report) -> None:
    strata = _strata(args)
    a = serialize.parse_cocycle(_load(args.cocycle), strata)
    b = serialize.parse_pattern(_load(args.pattern), strata)
    out = cocycles.cap_pattern(a, b)
    report.values["pattern"] = serialize.pattern_to_json(out)


def _cmd_groups(args: argparse.Namespace, report: Report) -> None:
    cone = serialize.parse_cone(_load(args.cone))
    group = cones.chow_group(cone, args.r, args.p)
    report.values["group"] = serialize.group_to_json(group)


def _cmd_intersect(args: argparse.Namespace, report: Report) -> None:
    cone = serialize.parse_cone(_load(args.cone))
    a = serialize.parse_cone_class(_load(args.a), cone)
    b = serialize.parse_cone_class(_load(args.b), cone)
    out = cones.intersect(a, b)
    report.values["class"] = serialize.cone_class_to_json(out)


def _pairing_value(result: cones.ConeClass) -> Any:
    from . import chow

    if result.r == 0:
        return chow.degree(result.payload)
    coeffs = list(result.payload.coeffs)
    return coeffs[0] if len(coeffs) == 1 else coeffs


def _cmd_pairing(args: argparse.Namespace, report: Report) -> None:
    cone = serialize.parse_cone(_load(args.cone))
    a = serialize.parse_cone_class(_load(args.a), cone)
    b = serialize.parse_cone_class(_load(args.b), cone)
    result = cones.intersect(a, b)
    report.values["class"] = serialize.cone_class_to_json(result)
    report.values["value"] = _pairing_value(result)


def _cmd_compare(args: argparse.Namespace, report: Report) -> None:
    cone = serialize.parse_cone(_load(args.cone))
    m = cones.comparison_map(cone, args.r, args.p_from, args.p_to)
    report.values["map"] = serialize.map_to_json(m)


def _cmd_snf(args: argparse.Namespace, report: Report) -> None:
    matrix = serialize.parse_matrix(_load(args.matrix))
    form = abgroup.smith_normal_form(matrix, ncols=args.ncols)
    report.verdicts.append(
        Verdict("snf-contract", True, "U*M*V = S with unimodular U, V and a divisibility chain")
    )
    report.values["snf"] = serialize.smith_to_json(form)


def _cmd_exact(args: argparse.Namespace, report: Report) -> None:
    f = serialize.parse_group_map(_load(args.f))
    g = serialize.parse_group_map(_load(args.g))
    try:
        verdict = abgroup.is_exact_at_middle(f, g)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report.verdicts.append(
        Verdict(
            "exact-at-middle",
            verdict,
            "image(f) == kernel(g) in the middle group"
            if verdict
            else "image(f) != kernel(g) in the middle group",
        )
    )
    report.values["exact"] = verdict


def _comparison_key(r: int, p_from: int, p_to: int) -> str:
    return f"r{r}:{p_from}->{p_to}"


def _catalog_values(catalog: cones.ZobelCatalog) -> dict[str, Any]:
    values: dict[str, Any] = {"cone": "zobel", "base": catalog.cone.base.name}
    values["groups"] = {
        f"r={r},p={p}": serialize.group_to_json(cones.chow_group(catalog.cone, r, p))
        for (r, p) in sorted(catalog.expected_groups)
    }
    values["comparisons"] = {
        _comparison_key(*key): [list(row) for row in cones.comparison_map(catalog.cone, *key).matrix]
        for key in sorted(catalog.expected_comparisons)
    }
    values["classes"] = {
        name: serialize.cone_class_to_json(cls) for name, cls in sorted(catalog.classes.items())
    }
    pairings: dict[str, Any] = {}
    for key in sorted(catalog.expected_pairings):
        expected = catalog.expected_pairings[key]
        if expected["kind"] == "rejected":
            try:
                cones.intersect(*expected["operands"])
                pairings[key] = {"kind": "unexpected-success"}
            except cones.ConeProductError as exc:
                pairings[key] = {"kind": "rejected", "message": str(exc)}
            continue
        left, right = key.split("*")
        a, b = catalog.classes[left], catalog.classes[right]
        if expected["kind"] == "degree":
            pairings[key] = {"kind": "degree", "value": cones.degree_pairing(a, b)}
        else:
            result = cones.intersect(a, b)
            doc = serialize.cone_class_to_json(result)
            doc["kind"] = "class"
            pairings[key] = doc
    values["pairings"] = pairings
    return values


def _catalog_verdicts(catalog: cones.ZobelCatalog, values: dict[str, Any]) -> list[Verdict]:
    verdicts = []
    for (r, p), (free, torsion) in sorted(catalog.expected_groups.items()):
        got = values["groups"][f"r={r},p={p}"]
        ok = got["free_rank"] == free and tuple(got["torsion"]) == tuple(torsion)
        verdicts.append(
            Verdict(
                f"group[r={r},p={p}]",
                ok,
                f"expected free rank {free}, torsion {list(torsion)}; got {got['name']}",
            )
        )
    for key, matrix in sorted(catalog.expected_comparisons.items()):
        name = _comparison_key(*key)
        got = values["comparisons"][name]
        ok = [list(row) for row in matrix] == got
        verdicts.append(Verdict(f"comparison[{name}]", ok, f"expected {[list(r) for r in matrix]}, got {got}"))
    for key, expected in sorted(catalog.expected_pairings.items()):
        got = values["pairings"][key]
        if expected["kind"] == "rejected":
            ok = got["kind"] == "rejected"
            text = "undefined pairing rejected" if ok else f"expected rejection, got {got}"
        elif expected["kind"] == "degree":
            ok = got["kind"] == "degree" and got["value"] == expected["value"]
            text = f"expected degree {expected['value']}, got {got.get('value')}"
        else:
            ok = (
                got["kind"] == "class"
                and got["mode"] == expected["mode"]
                and got["r"] == expected["r"]
                and got["p"] == expected["p"]
                and got["payload"] == list(expected["payload"])
            )
            text = f"expected {expected['mode']} payload {list(expected['payload'])}, got {got.get('payload')}"
        verdicts.append(Verdict(f"pairing[{key}]", ok, text))
    return verdicts


def _cmd_catalog(args: argparse.Namespace, report: Report) -> None:
    if args.name != "zobel":
        raise InputError(f"unknown catalog {args.name!r}; available: zobel")
    catalog = cones.zobel()
    values = _catalog_values(catalog)
    report.values.update(values)
    if args.verify:
        report.verdicts.extend(_catalog_verdicts(catalog, values))


def _cmd_schema(args: argparse.Namespace, report: Report) -> None:
    report.values["schema_of"] = args.name
    report.values.update(emit_schema(args.name))


# -- the command table -----------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One subcommand: its handler, what it does, and what it reads.

    ``inputs`` maps each flag or positional name to its schema text and the
    keywords that declare it to argparse.  The ``schema`` command, the
    argument parser and dispatch are all derived from :data:`COMMANDS`.
    """

    handler: Callable[[argparse.Namespace, Report], None]
    description: str
    inputs: dict[str, tuple[str, dict[str, Any]]]


_PLAIN: dict[str, Any] = {}  # argparse defaults: an optional flag or a required positional
_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}
_STRATA = ("stratification document or vertex<d>", _REQUIRED)
_CONE = ("'zobel', a built-in base name, or {base: <ring>}", _REQUIRED)
_COCYCLE = ("cocycle with t == targetDim", _REQUIRED)
_CONE_CLASS = ("cone class {r, p, payload} or mode:r[:p]:(coeffs)", _REQUIRED)
_GROUP_MAP = ("group map {source: {rank, relations}, target: {...}, matrix}", _REQUIRED)

COMMANDS: dict[str, Command] = {
    "validate": Command(_cmd_validate, "Validate any provided documents against their schemas.", {
        "--perversity": ("integer array [p_1, ..., p_d], p_1 = 0, unit steps", _PLAIN),
        "--bound": ("nondecreasing array of nonnegative integers", _PLAIN),
        "--strata": ("stratification object {dim, strata: [{i, codim, label}], model} or vertex<d>", _PLAIN),
        "--pattern": ("cycle pattern {dim, incidence: {\"1\": int|\"empty\", ...}} (needs --strata)", _PLAIN),
        "--cocycle": ("cocycle {t, targetDim, excess: {\"1\": int, ...}} (needs --strata)", _PLAIN),
        "--joint": ("joint pattern {a, b, joint, total} (needs --strata)", _PLAIN),
        "--ring": ("ring presentation object or built-in name", _PLAIN),
    }),
    "check-cycle": Command(_cmd_check_cycle, "Check a cycle pattern against a perversity-style bound.", {
        "--pattern": ("cycle pattern {dim, incidence: {\"1\": int|\"empty\", ...}}", _REQUIRED),
        "--perversity": ("integer array bound", _REQUIRED),
        "--strata": _STRATA,
    }),
    "check-cocycle": Command(_cmd_check_cocycle, "Check a cocycle excess profile against a bound.", {
        "--cocycle": ("cocycle {t, targetDim, excess: {\"1\": int, ...}}", _REQUIRED),
        "--perversity": ("integer array bound", _REQUIRED),
        "--strata": _STRATA,
    }),
    "check-star": Command(_cmd_check_star, "Check the pairwise intersection condition for two patterns.", {
        "--joint": (
            "joint pattern {a: pattern, b: pattern, joint: {\"1\": int|\"empty\"}, total: int|\"empty\"}",
            _REQUIRED,
        ),
        "--c": ("integer array shift bound c", _REQUIRED),
        "--strata": _STRATA,
    }),
    "push": Command(_cmd_push, "Proper pushforward of a cycle pattern along collapse data.", {
        "--pattern": ("cycle pattern", _REQUIRED),
        "--c": ("collapse perversity [c_1, ..., c_d]", _REQUIRED),
        "--strata": _STRATA,
    }),
    "pull": Command(_cmd_pull, "Flat pullback of a cycle pattern by relative dimension e.", {
        "--pattern": ("cycle pattern", _REQUIRED),
        "--e": ("relative dimension (nonnegative integer)", _REQUIRED_INT),
        "--strata": _STRATA,
    }),
    "suspend": Command(_cmd_suspend, "Suspend a stratification, and a pattern if provided.", {
        "--strata": _STRATA,
        "--pattern": ("optional cycle pattern", _PLAIN),
    }),
    "join": Command(_cmd_join, "Fiberwise join of two projective-space valued cocycles.", {
        "--a": _COCYCLE,
        "--b": _COCYCLE,
        "--strata": _STRATA,
    }),
    "slice": Command(_cmd_slice, "Slice a cocycle with t generic hyperplanes into a cycle pattern.", {
        "--cocycle": _COCYCLE,
        "--count": ("optional hyperplane count (defaults to t; must equal t)", {"type": int}),
        "--against": ("optional cycle pattern; adds a properness joint-pattern certificate", _PLAIN),
        "--strata": _STRATA,
    }),
    "cap": Command(_cmd_cap, "Cap product of a cocycle with a cycle pattern.", {
        "--cocycle": _COCYCLE,
        "--pattern": ("cycle pattern of dimension >= t", _REQUIRED),
        "--strata": _STRATA,
    }),
    "groups": Command(_cmd_groups, "Cycle class group of a cone in dimension r at vertex bound p.", {
        "--cone": _CONE,
        "--r": ("cycle dimension", _REQUIRED_INT),
        "--p": ("vertex excess bound", _REQUIRED_INT),
    }),
    "intersect": Command(_cmd_intersect, "Three-case intersection product of two cone classes.", {
        "--cone": _CONE,
        "--a": _CONE_CLASS,
        "--b": _CONE_CLASS,
    }),
    "pairing": Command(_cmd_pairing, "Intersection pairing value (degree when the product has dimension 0).", {
        "--cone": _CONE,
        "--a": ("cone class document or compact spec", _REQUIRED),
        "--b": ("cone class document or compact spec", _REQUIRED),
    }),
    "compare": Command(_cmd_compare, "Canonical comparison map between vertex bounds p-from <= p-to.", {
        "--cone": _CONE,
        "--r": ("cycle dimension", _REQUIRED_INT),
        "--p-from": ("smaller vertex bound", _REQUIRED_INT),
        "--p-to": ("larger vertex bound", _REQUIRED_INT),
    }),
    "snf": Command(_cmd_snf, "Smith normal form of an integer matrix.", {
        "--matrix": ("array of integer rows", _REQUIRED),
        "--ncols": ("optional column count for matrices with no rows", {"type": int}),
    }),
    "exact": Command(_cmd_exact, "Exactness of A -f-> B -g-> C at the middle group.", {
        "--f": _GROUP_MAP,
        "--g": _GROUP_MAP,
    }),
    "catalog": Command(_cmd_catalog, "Print the group/comparison/pairing table of a named catalog.", {
        "name": ("catalog name (zobel)", _PLAIN),
        "--verify": ("also check the table against its frozen expectations", {"action": "store_true"}),
    }),
    "schema": Command(_cmd_schema, "Print the input schema for a command.", {
        "name": ("command name", _PLAIN),
    }),
}

_HANDLERS = {name: command.handler for name, command in COMMANDS.items()}


def emit_schema(name: str) -> dict:
    """The input schema document for command ``name``."""
    if name not in COMMANDS:
        raise InputError(f"unknown command {name!r}")
    command = COMMANDS[name]
    return {
        "schema": SCHEMA_VERSION,
        "command": name,
        "description": command.description,
        "inputs": {flag: text for flag, (text, _) in command.inputs.items()},
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pervchow",
        description="Exact checks and products for perversity incidence data on stratified varieties.",
    )
    parser.add_argument("--pretty", action="store_true", help="human-readable output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.description, description=command.description)
        # SUPPRESS keeps a --pretty given before the command from being reset
        p.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS, help="human-readable output")
        for flag, (text, keywords) in command.inputs.items():
            p.add_argument(flag, help=text, **keywords)
    return parser


def run(argv: list[str]) -> Report:
    """Parse arguments, dispatch, and return the report (no printing)."""
    args = build_parser().parse_args(argv)
    report = Report(command=args.command, pretty=args.pretty)
    try:
        _HANDLERS[args.command](args, report)
    except ValueError as exc:  # covers InputError and precondition violations
        report.error = str(exc)
    return report


def main(argv: list[str] | None = None) -> int:
    report = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(report.render(report.pretty))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
