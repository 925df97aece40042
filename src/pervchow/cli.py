"""Command-line surface: JSON in, verdicts and values out.

Every subcommand reads inline JSON, @-free file paths or shorthand strings,
runs one library operation, and emits a deterministic report.  The command
table names each input's document kind; ``run`` reads every document of the
command before its handler runs.  A handler returns the verdicts and values
it found, and ``run`` builds the one report from them; a result that fails
its own exact check is reported as that one verdict.  Exit code 0 means every
verdict passed, 1 means a check failed, 2 means the input was malformed, a
precondition was violated, or the command stopped on an error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, NoReturn

# Each handler imports the layer modules it calls, and ``serialize`` imports a
# layer only in the parsers and renderers that build its values, so a command
# compiles and loads only those: ``snf`` never loads the cone model, ``schema``
# no layer.
from . import serialize
from ._value import Value, VerificationError, echo
from .serialize import SCHEMA_VERSION, InputError


@contextmanager
def _whole_integers() -> Iterator[None]:
    """Lift the interpreter's int-to-str limit, then restore it: inputs meet only the readers' fixed limits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class Verdict(Value):
    """One named check of a report, whether it passed, and why."""

    __slots__ = ("check", "ok", "explanation")

    def __init__(self, check: str, ok: bool, explanation: str) -> None:
        self._init(check, ok, explanation)


Found = tuple[list[Verdict], dict[str, Any]]  # what a handler returns: its verdicts and its values


class Report(Value):
    """What a command produced: its verdicts and values, or the error that stopped it."""

    __slots__ = ("command", "verdicts", "values", "error", "pretty")

    def __init__(
        self,
        command: str,
        verdicts: list[Verdict] | None = None,
        values: dict[str, Any] | None = None,
        error: str | None = None,
        pretty: bool = False,
    ) -> None:
        self._init(command, [] if verdicts is None else verdicts, {} if values is None else values, error, pretty)

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

    @_whole_integers()
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
    """Inline JSON, a path to a JSON file, or a shorthand string; all JSON is parsed in one place."""
    s, where = text.strip(), ""
    if not s.startswith(("{", "[")):
        path = Path(s)
        try:
            is_file = path.is_file()
        except OSError:  # a name the file system cannot hold, such as an over-long one
            is_file = False
        if path.suffix != ".json" and not is_file:
            return s
        try:
            where, s = f" in {echo(s)}", path.read_text()
        except OSError as exc:  # the message of exc would quote the path whole
            reason = f"[Errno {exc.errno}] {exc.strerror}: {echo(exc.filename)}"
            raise InputError(f"cannot read {echo(s)}: {reason}") from exc
    try:
        return json.loads(s, parse_int=serialize.json_int, object_pairs_hook=serialize.json_object)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"invalid JSON{where}: {exc}") from exc
    except InputError as exc:  # from the hooks: a repeated key or an over-long integer literal
        if not where:
            raise
        raise InputError(f"{exc}{where}") from exc


# How each kind of document is read, on what it needs of ``args``: the strata
# or the cone (both read first), or the matrix width.  Each entry looks up its
# ``serialize`` parser when called, so a parser patched there is used.
_KINDS: dict[str, Callable[[Any, argparse.Namespace], Any]] = {
    "strata": lambda doc, _: serialize.parse_stratification(doc),
    "cone": lambda doc, _: serialize.parse_cone(doc),
    "bound": lambda doc, _: serialize.parse_bound(doc),
    "perversity": lambda doc, _: serialize.parse_bound(doc, perversity=True),
    "ring": lambda doc, _: serialize.parse_ring(doc),
    "pattern": lambda doc, args: serialize.parse_pattern(doc, args.strata),
    "cocycle": lambda doc, args: serialize.parse_cocycle(doc, args.strata),
    "joint": lambda doc, args: serialize.parse_joint(doc, args.strata),
    "class": lambda doc, args: serialize.parse_cone_class(doc, args.cone),
    "map": lambda doc, _: serialize.parse_group_map(doc),
    "matrix": lambda doc, args: serialize.parse_matrix(doc, args.ncols),
}


def _read_inputs(args: argparse.Namespace, inputs: dict[str, tuple[str, str | None, dict[str, Any]]]) -> None:
    """Replace each document in ``args`` by its value, ``--strata`` or ``--cone`` first."""
    for flag in sorted(inputs, key=lambda flag: flag not in ("--strata", "--cone")):
        dest, kind = flag.lstrip("-").replace("-", "_"), inputs[flag][1]
        if kind is not None and getattr(args, dest) is not None:
            setattr(args, dest, _KINDS[kind](_load(getattr(args, dest)), args))


# -- command handlers ----------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> Found:
    # each document is read here, so that a malformed one is a failing verdict
    texts = {flag[2:]: getattr(args, flag[2:]) for flag in COMMANDS["validate"].inputs}
    provided = {name: text for name, text in texts.items() if text is not None}
    if not provided:
        raise InputError("nothing to validate; pass at least one document")
    if {"pattern", "cocycle", "joint"} & set(provided):
        if args.strata is None:
            raise InputError("--strata is required to validate patterns")
        args.strata = _KINDS["strata"](_load(args.strata), args)
    verdicts = []
    for name, text in provided.items():
        try:
            _KINDS[name](_load(text), args)
            verdicts.append(Verdict(f"valid-{name}", True, f"{name} document is valid"))
        except InputError as exc:
            verdicts.append(Verdict(f"valid-{name}", False, str(exc)))
    return verdicts, {}


def _check(command: str, rows: list[tuple[bool, str]], **values: Any) -> Found:
    """One verdict over per-stratum ``(ok, text)`` rows: it passes iff every row does."""
    return [Verdict(command, all(ok for ok, _ in rows), "; ".join(text for _, text in rows) or "ok")], values


def _cmd_check_cycle(args: argparse.Namespace) -> Found:
    from . import cycles

    rows = cycles.perversity_report(args.pattern, args.perversity)
    pattern, perversity = serialize.pattern_to_json(args.pattern), serialize.bound_to_json(args.perversity)
    return _check(args.command, rows, pattern=pattern, perversity=perversity)


def _cmd_check_cocycle(args: argparse.Namespace) -> Found:
    from . import cocycles

    rows = cocycles.cocycle_report(args.cocycle, args.perversity)
    cocycle, perversity = serialize.cocycle_to_json(args.cocycle), serialize.bound_to_json(args.perversity)
    return _check(args.command, rows, cocycle=cocycle, perversity=perversity)


def _cmd_check_star(args: argparse.Namespace) -> Found:
    from . import cycles

    rows = cycles.star_report(args.joint, args.c)
    return _check(args.command, rows, joint=serialize.joint_to_json(args.joint), c=serialize.bound_to_json(args.c))


def _pattern_values(out: Any) -> Found:
    """No verdicts; the pattern ``out`` and its stratification."""
    return [], {"pattern": serialize.pattern_to_json(out), "strata": serialize.stratification_to_json(out.strata)}


def _cmd_push(args: argparse.Namespace) -> Found:
    from . import cycles

    return _pattern_values(cycles.proper_pushforward(args.pattern, args.c))


def _cmd_pull(args: argparse.Namespace) -> Found:
    from . import cycles

    return _pattern_values(cycles.flat_pullback(args.pattern, args.e))


def _cmd_suspend(args: argparse.Namespace) -> Found:
    from . import cycles, strata

    if args.pattern is not None:
        return _pattern_values(cycles.suspend_pattern(args.pattern))
    return [], {"strata": serialize.stratification_to_json(strata.suspend(args.strata))}


def _cmd_join(args: argparse.Namespace) -> Found:
    from . import cocycles

    return [], {"cocycle": serialize.cocycle_to_json(cocycles.join(args.a, args.b))}


def _cmd_slice(args: argparse.Namespace) -> Found:
    from . import cocycles

    count = args.count if args.count is not None else args.cocycle.t
    values = {"pattern": serialize.pattern_to_json(cocycles.slice_with_hyperplanes(args.cocycle, count))}
    if args.against is not None:
        values["joint"] = serialize.joint_to_json(cocycles.slice_against(args.cocycle, args.against))
    return [], values


def _cmd_cap(args: argparse.Namespace) -> Found:
    from . import cocycles

    return [], {"pattern": serialize.pattern_to_json(cocycles.cap_pattern(args.cocycle, args.pattern))}


def _cmd_groups(args: argparse.Namespace) -> Found:
    from . import cones

    return [], {"group": serialize.group_to_json(cones.chow_group(args.cone, args.r, args.p))}


def _cmd_intersect(args: argparse.Namespace) -> Found:
    from . import cones

    return [], {"class": serialize.cone_class_to_json(cones.intersect(args.a, args.b))}


def _cmd_pairing(args: argparse.Namespace) -> Found:
    from . import chow, cones

    result = cones.intersect(args.a, args.b)
    if result.r == 0:
        value = chow.degree(result.payload)
    else:
        coeffs = list(result.payload.coeffs)
        value = coeffs[0] if len(coeffs) == 1 else coeffs
    return [], {"class": serialize.cone_class_to_json(result), "value": value}


def _cmd_compare(args: argparse.Namespace) -> Found:
    from . import cones

    return [], {"map": serialize.map_to_json(cones.comparison_map(args.cone, args.r, args.p_from, args.p_to))}


def _cmd_snf(args: argparse.Namespace) -> Found:
    from . import abgroup

    form = abgroup.smith_normal_form(args.matrix, ncols=args.ncols)
    verdict = Verdict("snf-contract", True, "U*M*V = S with unimodular U, V and a divisibility chain")
    return [verdict], {"snf": serialize.smith_to_json(form)}


def _cmd_exact(args: argparse.Namespace) -> Found:
    from . import abgroup

    exact = abgroup.is_exact_at_middle(args.f, args.g)
    text = f"image(f) {'==' if exact else '!='} kernel(g) in the middle group"
    return [Verdict("exact-at-middle", exact, text)], {"exact": exact}


def _cmd_catalog(args: argparse.Namespace) -> Found:
    from . import cones

    if args.name != "zobel":
        raise InputError(f"unknown catalog {echo(args.name)}; available: zobel")
    catalog = cones.zobel()
    cone = catalog.cone
    verdicts = []
    groups: dict[str, Any] = {}
    for (r, p), (free, torsion) in sorted(catalog.expected_groups.items()):
        got = groups[f"r={r},p={p}"] = serialize.group_to_json(cones.chow_group(cone, r, p))
        ok = got["free_rank"] == free and tuple(got["torsion"]) == tuple(torsion)
        text = f"expected free rank {free}, torsion {list(torsion)}; got {got['name']}"
        verdicts.append(Verdict(f"group[r={r},p={p}]", ok, text))
    comparisons: dict[str, Any] = {}
    for (r, p_from, p_to), matrix in sorted(catalog.expected_comparisons.items()):
        name = f"r{r}:{p_from}->{p_to}"
        got = comparisons[name] = [list(row) for row in cones.comparison_map(cone, r, p_from, p_to).matrix]
        expected = [list(row) for row in matrix]
        verdicts.append(Verdict(f"comparison[{name}]", expected == got, f"expected {expected}, got {got}"))
    pairings: dict[str, Any] = {}
    for key, expected in sorted(catalog.expected_pairings.items()):
        if expected["kind"] == "rejected":
            try:
                cones.intersect(*expected["operands"])
                got = {"kind": "unexpected-success"}
            except cones.ConeProductError as exc:
                got = {"kind": "rejected", "message": str(exc)}
            ok = got["kind"] == "rejected"
            text = "undefined pairing rejected" if ok else f"expected rejection, got {got}"
        else:
            left, right = key.split("*")
            a, b = catalog.classes[left], catalog.classes[right]
            if expected["kind"] == "degree":
                got = {"kind": "degree", "value": cones.degree_pairing(a, b)}
                ok = got["value"] == expected["value"]
                text = f"expected degree {expected['value']}, got {got['value']}"
            else:
                got = {**serialize.cone_class_to_json(cones.intersect(a, b)), "kind": "class"}
                payload = list(expected["payload"])
                ok = all(got[k] == expected[k] for k in ("mode", "r", "p")) and got["payload"] == payload
                text = f"expected {expected['mode']} payload {payload}, got {got['payload']}"
        pairings[key] = got
        verdicts.append(Verdict(f"pairing[{key}]", ok, text))
    return (verdicts if args.verify else []), dict(
        cone="zobel",
        base=cone.base.name,
        groups=groups,
        comparisons=comparisons,
        classes={name: serialize.cone_class_to_json(cls) for name, cls in sorted(catalog.classes.items())},
        pairings=pairings,
    )


def _cmd_schema(args: argparse.Namespace) -> Found:
    return [], {"schema_of": args.name, **emit_schema(args.name)}


# -- the command table -----------------------------------------------------


class Command(Value):
    """One subcommand: its handler, what it does, and what it reads.

    The handler takes the parsed arguments, with every document already read,
    and returns ``(verdicts, values)``: a list of :class:`Verdict` and a dict
    of JSON values.  ``inputs`` maps each flag or positional name to its schema text, its
    document kind (a key of ``_KINDS``; None for a plain argument) and its
    argparse keywords.  The ``schema`` command, the argument parser, the
    reading of documents and dispatch all derive from :data:`COMMANDS`.
    """

    __slots__ = ("handler", "description", "inputs")

    def __init__(
        self,
        handler: Callable[[argparse.Namespace], Found],
        description: str,
        inputs: dict[str, tuple[str, str | None, dict[str, Any]]],
    ) -> None:
        self._init(handler, description, inputs)


def _int_arg(text: str) -> int:
    """An integer flag, measured as ``serialize`` measures an integer field; argparse names the flag first."""
    try:
        return serialize._int(text, "the value")
    except InputError as exc:  # over the digit limit
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {echo(text)}") from None


_PLAIN: dict[str, Any] = {}  # argparse defaults: an optional flag or a required positional
_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": _int_arg, "required": True}
_STRATA = ("stratification document or vertex<d>", "strata", _REQUIRED)
_CONE = ("'zobel', a built-in base name, or {base: <ring>}", "cone", _REQUIRED)
_COCYCLE = ("cocycle with t == targetDim", "cocycle", _REQUIRED)
_CONE_CLASS = ("cone class {r, p, payload} or mode:r[:p]:(coeffs)", "class", _REQUIRED)
_GROUP_MAP = ("group map {source: {rank, relations}, target: {...}, matrix}", "map", _REQUIRED)

COMMANDS: dict[str, Command] = {
    "validate": Command(_cmd_validate, "Validate any provided documents against their schemas.", {
        "--perversity": ("integer array [p_1, ..., p_d], p_1 = 0, unit steps", None, _PLAIN),
        "--bound": ("nondecreasing array of nonnegative integers", None, _PLAIN),
        "--strata": ("stratification object {dim, strata: [{i, codim, label}], model} or vertex<d>", None, _PLAIN),
        "--ring": ("ring presentation object or built-in name", None, _PLAIN),
        "--pattern": ("cycle pattern {dim, incidence: {\"1\": int|\"empty\", ...}} (needs --strata)", None, _PLAIN),
        "--cocycle": ("cocycle {t, targetDim, excess: {\"1\": int, ...}} (needs --strata)", None, _PLAIN),
        "--joint": ("joint pattern {a, b, joint, total} (needs --strata)", None, _PLAIN),
    }),
    "check-cycle": Command(_cmd_check_cycle, "Check a cycle pattern against a perversity-style bound.", {
        "--pattern": ("cycle pattern {dim, incidence: {\"1\": int|\"empty\", ...}}", "pattern", _REQUIRED),
        "--perversity": ("integer array bound", "bound", _REQUIRED),
        "--strata": _STRATA,
    }),
    "check-cocycle": Command(_cmd_check_cocycle, "Check a cocycle excess profile against a bound.", {
        "--cocycle": ("cocycle {t, targetDim, excess: {\"1\": int, ...}}", "cocycle", _REQUIRED),
        "--perversity": ("integer array bound", "bound", _REQUIRED),
        "--strata": _STRATA,
    }),
    "check-star": Command(_cmd_check_star, "Check the pairwise intersection condition for two patterns.", {
        "--joint": (
            "joint pattern {a: pattern, b: pattern, joint: {\"1\": int|\"empty\"}, total: int|\"empty\"}",
            "joint",
            _REQUIRED,
        ),
        "--c": ("integer array shift bound c", "bound", _REQUIRED),
        "--strata": _STRATA,
    }),
    "push": Command(_cmd_push, "Proper pushforward of a cycle pattern along collapse data.", {
        "--pattern": ("cycle pattern", "pattern", _REQUIRED),
        "--c": ("collapse perversity [c_1, ..., c_d]", "perversity", _REQUIRED),
        "--strata": _STRATA,
    }),
    "pull": Command(_cmd_pull, "Flat pullback of a cycle pattern by relative dimension e.", {
        "--pattern": ("cycle pattern", "pattern", _REQUIRED),
        "--e": ("relative dimension (nonnegative integer)", None, _REQUIRED_INT),
        "--strata": _STRATA,
    }),
    "suspend": Command(_cmd_suspend, "Suspend a stratification, and a pattern if provided.", {
        "--strata": _STRATA,
        "--pattern": ("optional cycle pattern", "pattern", _PLAIN),
    }),
    "join": Command(_cmd_join, "Fiberwise join of two projective-space valued cocycles.", {
        "--a": _COCYCLE,
        "--b": _COCYCLE,
        "--strata": _STRATA,
    }),
    "slice": Command(_cmd_slice, "Slice a cocycle with t generic hyperplanes into a cycle pattern.", {
        "--cocycle": _COCYCLE,
        "--count": ("optional hyperplane count (defaults to t; must equal t)", None, {"type": _int_arg}),
        "--against": ("optional cycle pattern; adds a properness joint-pattern certificate", "pattern", _PLAIN),
        "--strata": _STRATA,
    }),
    "cap": Command(_cmd_cap, "Cap product of a cocycle with a cycle pattern.", {
        "--cocycle": _COCYCLE,
        "--pattern": ("cycle pattern of dimension >= t", "pattern", _REQUIRED),
        "--strata": _STRATA,
    }),
    "groups": Command(_cmd_groups, "Cycle class group of a cone in dimension r at vertex bound p.", {
        "--cone": _CONE,
        "--r": ("cycle dimension", None, _REQUIRED_INT),
        "--p": ("vertex excess bound", None, _REQUIRED_INT),
    }),
    "intersect": Command(_cmd_intersect, "Three-case intersection product of two cone classes.", {
        "--cone": _CONE,
        "--a": _CONE_CLASS,
        "--b": _CONE_CLASS,
    }),
    "pairing": Command(_cmd_pairing, "Intersection pairing value (degree when the product has dimension 0).", {
        "--cone": _CONE,
        "--a": ("cone class document or compact spec", "class", _REQUIRED),
        "--b": ("cone class document or compact spec", "class", _REQUIRED),
    }),
    "compare": Command(_cmd_compare, "Canonical comparison map between vertex bounds p-from <= p-to.", {
        "--cone": _CONE,
        "--r": ("cycle dimension", None, _REQUIRED_INT),
        "--p-from": ("smaller vertex bound", None, _REQUIRED_INT),
        "--p-to": ("larger vertex bound", None, _REQUIRED_INT),
    }),
    "snf": Command(_cmd_snf, "Smith normal form of an integer matrix.", {
        "--matrix": ("array of integer rows", "matrix", _REQUIRED),
        "--ncols": ("optional column count for matrices with no rows", None, {"type": _int_arg}),
    }),
    "exact": Command(_cmd_exact, "Exactness of A -f-> B -g-> C at the middle group.", {
        "--f": _GROUP_MAP,
        "--g": _GROUP_MAP,
    }),
    "catalog": Command(_cmd_catalog, "Print the group/comparison/pairing table of a named catalog.", {
        "name": ("catalog name (zobel)", None, _PLAIN),
        "--verify": ("also check the table against its frozen expectations", None, {"action": "store_true"}),
    }),
    "schema": Command(_cmd_schema, "Print the input schema for a command.", {
        "name": ("command name", None, _PLAIN),
    }),
}

_HANDLERS = {name: command.handler for name, command in COMMANDS.items()}


def emit_schema(name: str) -> dict:
    """The input schema document for command ``name``."""
    if name not in COMMANDS:
        raise InputError(f"unknown command {echo(name)}")
    command = COMMANDS[name]
    return {
        "schema": SCHEMA_VERSION,
        "command": name,
        "description": command.description,
        "inputs": {flag: text for flag, (text, _, _) in command.inputs.items()},
    }


class _UsageError(InputError):
    """Arguments the parser rejects; ``command`` names the (sub)command whose parser rejected them."""

    def __init__(self, command: str, message: str) -> None:
        super().__init__(message)
        self.command = command


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        # the default prints usage to stderr and exits; report it like any malformed input
        raise _UsageError(self.prog.removeprefix("pervchow "), message)


def _add_inputs(parser: argparse.ArgumentParser, command: Command) -> argparse.ArgumentParser:
    # SUPPRESS keeps a --pretty given before the command from being reset
    parser.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS, help="human-readable output")
    for flag, (text, _, keywords) in command.inputs.items():
        parser.add_argument(flag, help=text, **keywords)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pervchow",
        description="Exact checks and products for perversity incidence data on stratified varieties.",
    )
    parser.add_argument("--pretty", action="store_true", help="human-readable output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        _add_inputs(sub.add_parser(name, help=command.description, description=command.description), command)
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser that :func:`build_parser` adds for command ``name``, built alone."""
    command = COMMANDS[name]
    return _add_inputs(_Parser(prog=f"pervchow {name}", description=command.description), command)


def _parse(argv: list[str]) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` returns, building one command's parser when that is enough.

    The command is the first token other than ``--pretty``.  When it names a
    command, that command's parser reads the tokens after it, as the full
    parser would hand them over.  Anything else (top-level ``-h``, a missing,
    unknown or abbreviated command) and any argv the one parser rejects or
    leaves unread goes to the full parser, so every usage error and help text
    comes from it unchanged.
    """
    lead = 0
    while lead < len(argv) and argv[lead] == "--pretty":
        lead += 1
    if lead < len(argv) and argv[lead] in COMMANDS:
        args = argparse.Namespace(pretty=lead > 0, command=argv[lead])
        try:
            args, extras = _command_parser(argv[lead]).parse_known_args(argv[lead + 1 :], args)
            if not extras:
                return args
        except _UsageError:
            pass  # reported below, by the full parser
    return build_parser().parse_args(argv)


@_whole_integers()
def run(argv: list[str]) -> Report:
    """Parse arguments, read the documents, dispatch, and return the report (no printing)."""
    try:
        args = _parse(argv)
    except _UsageError as exc:
        return Report(command=exc.command, error=str(exc))
    try:
        _read_inputs(args, COMMANDS[args.command].inputs)
        verdicts, values = _HANDLERS[args.command](args)
    except ValueError as exc:  # covers InputError and precondition violations
        return Report(args.command, error=str(exc), pretty=args.pretty)
    except VerificationError as exc:  # a result failed its own exact check: that verdict alone is reported
        verdicts, values = [Verdict("self-check", False, str(exc))], {}
    except Exception as exc:  # anything else is still a report: no input ends in a traceback
        return Report(args.command, error=f"unexpected {type(exc).__name__}: {exc}", pretty=args.pretty)
    return Report(args.command, verdicts, values, pretty=args.pretty)


def main(argv: list[str] | None = None) -> int:
    report = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(report.render(report.pretty))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
