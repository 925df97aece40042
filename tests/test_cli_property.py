"""The exit-code contract over generated argv, in process through ``cli.run``.

Every command of ``cli.COMMANDS`` is drawn with inputs from a pool of valid
documents of the kind the command table declares, mutated ones (a key or
element dropped, an array and an object swapped, a scalar of the wrong type,
an integer array or row list written as a string of its digits), documents of
another kind, and oversized ones.  Whatever the input, the report exits 0, 1
or 2, renders as JSON with the schema key, and no exception escapes; a
document with a digit string where an integer array belongs never exits 0.
``run`` builds only the chosen command's parser; a differential property
checks that it answers every argv, usage errors and help included, as the
full parser does.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pervchow import cli
from pervchow.cli import _KINDS, COMMANDS, run

# Sizes of the oversized inputs; every one must be rejected well before it is built.
DEEP = 3000  # nesting depth of JSON documents and of product(...) shorthands
BIG_P = 2000  # P<n> and a document ring of that dimension
BIG_VERTEX = 10**8  # vertex<d>
DIGITS = 5000  # digits of an integer entry
RANK = 65  # generators of a group and relation rows of a group or of a ring codimension

PATTERNS = [
    {"dim": 1, "incidence": {"1": "empty", "2": "empty", "3": "empty"}},
    {"dim": 2, "incidence": {"1": 1, "2": 0, "3": 0}},
    {"dim": 1, "incidence": {"1": 0, "2": 0, "3": 0}},
    {"dim": 1, "incidence": {"1": 0, "2": "empty"}},
]
RINGS = [
    {"dim": 1, "basis": [["1"], ["a"]], "hyperplane": [1], "degree": [0], "relations": {"1": [[2]]}},
    {"dim": 2, "basis": [["1"], ["h"], ["h2"]], "products": [{"a": "h", "b": "h", "value": {"h2": 1}}],
     "hyperplane": [1], "degree": [1]},
]

VALID = {
    "strata": [
        "vertex3",
        "vertex3",
        "vertex2",
        {"dim": 3, "strata": [{"i": 1, "codim": 1, "label": "curve"}, {"i": 2, "codim": 2}, {"i": 3, "codim": 3}]},
    ],
    "pattern": PATTERNS,
    "cocycle": [
        {"t": 1, "targetDim": 1, "excess": {"1": 0, "2": 0, "3": 1}},
        {"t": 1, "targetDim": 3, "excess": {"1": 0, "2": 0, "3": 0}},
        {"t": 2, "targetDim": 2, "excess": {"1": 0, "2": 1, "3": 2}},
    ],
    "joint": [{"a": PATTERNS[0], "b": PATTERNS[1], "joint": {"1": "empty", "2": "empty", "3": "empty"}, "total": 0}],
    "bound": [[0, 0, 0], [0, 1, 2], [0, 0, 1], [0, 1]],
    "perversity": [[0, 0, 0], [0, 1, 2], [0, 0, 1], [0, 1, 1], [0, 1]],
    "ring": ["P2", "quadric", *RINGS],
    "cone": ["zobel", "P2", "product(P1,P1)", *({"base": ring} for ring in RINGS)],
    "class": ["allowed:2:(1,0)", "allowed:2:(0,1)", "allowed:1:(1)", {"r": 2, "p": 1, "payload": [1, 0]}],
    "matrix": [[[2, 4], [6, 8]], [], [[1, 2, 3]], [[0]]],
    "map": [
        {"source": {"rank": 1}, "target": {"rank": 1, "relations": [[2]]}, "matrix": [[1]]},
        {"source": {"rank": 1}, "target": {"rank": 1}, "matrix": [[2]]},
    ],
    "name": ["zobel", "nosuch", "snf", "join"],
}

OVERSIZED = [
    f"P{BIG_P}",
    f"vertex{BIG_VERTEX}",
    "[" * DEEP + "]" * DEEP,
    '{"a":' * DEEP + "1" + "}" * DEEP,
    "product(point," * DEEP + "P1" + ")" * DEEP,
    "product(" * DEEP + "point" + ",point)" * DEEP,
    json.dumps({"dim": BIG_P, "basis": [["1"]] + [[f"h{k}"] for k in range(1, BIG_P + 1)], "degree": [1]}),
    "[[" + "9" * DIGITS + "]]",
    json.dumps({"source": {"rank": RANK}, "target": {"rank": RANK}, "matrix": [[1] * RANK] * RANK}),
    json.dumps({"source": {"rank": 1}, "target": {"rank": 1, "relations": [[2]] * RANK}, "matrix": [[1]]}),
    json.dumps({**RINGS[0], "relations": {"1": [[2]] * RANK}}),
]

WRONG_SCALARS = ["x", 1.5, True, None, -1, [], {}]


def _is_int_array(doc):
    return isinstance(doc, list) and all(isinstance(x, int) for x in doc)


def array_places(doc, path=()):
    """Paths to the integer arrays and lists of integer rows inside ``doc``."""
    if _is_int_array(doc) or isinstance(doc, list) and all(map(_is_int_array, doc)):
        yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from array_places(value, (*path, key))


def digits(doc):
    """The string of an integer array's or row list's digits: [[2, 4], [6, 8]] is "2468"."""
    return "".join(digits(x) if isinstance(x, list) else str(x) for x in doc)


def replaced(doc, path, value):
    if not path:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[path[0]] = replaced(doc[path[0]], path[1:], value)
    return out


@st.composite
def digit_string(draw, doc):
    """``doc`` with one integer array or row list inside it written as the string of its digits."""
    path = draw(st.sampled_from(list(array_places(doc))))
    at = doc
    for key in path:
        at = at[key]
    return replaced(doc, path, digits(at))


@st.composite
def mutated(draw, doc):
    """``doc`` with one change at a drawn place inside it."""
    if isinstance(doc, (dict, list)) and doc and draw(st.booleans()):
        key = draw(st.sampled_from(list(doc) if isinstance(doc, dict) else range(len(doc))))
        out = dict(doc) if isinstance(doc, dict) else list(doc)
        out[key] = draw(mutated(doc[key]))
        return out
    op = draw(st.sampled_from(["drop", "swap", "scalar", "digits"]))
    if op == "digits" and () in array_places(doc):
        return digits(doc)
    if op == "drop" and doc and isinstance(doc, dict):
        key = draw(st.sampled_from(list(doc)))
        return {k: v for k, v in doc.items() if k != key}
    if op == "drop" and doc and isinstance(doc, list):
        return doc[:-1]
    if op == "swap" and isinstance(doc, dict):
        return list(doc.values())
    if op == "swap" and isinstance(doc, list):
        return {str(i): v for i, v in enumerate(doc)}
    return draw(st.sampled_from(WRONG_SCALARS))


def _text(doc):
    return doc if isinstance(doc, str) else json.dumps(doc)


@st.composite
def document(draw, kind):
    source = draw(st.sampled_from(["valid"] * 6 + ["mutated"] * 2 + ["other kind", "oversized"]))
    if source == "oversized":
        return draw(st.sampled_from(OVERSIZED))
    if source == "other kind":
        kind = draw(st.sampled_from(sorted(VALID)))
    doc = draw(st.sampled_from(VALID[kind]))
    return _text(draw(mutated(doc)) if source == "mutated" else doc)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for flag, (_, kind, keywords) in COMMANDS[command].inputs.items():
        if draw(st.integers(0, 9)) == 0:  # now and then a flag is left out, even a required one
            continue
        if keywords.get("action") == "store_true":
            argv.append(flag)
            continue
        if keywords.get("type") is cli._int_arg:
            value = str(draw(st.integers(-2, 4)))
        else:
            # a plain input draws from the pool named after it: validate's flags, a catalog or command name
            value = draw(document(kind or flag.lstrip("-")))
        argv += [value] if flag == "name" else [flag, value]
    where = draw(st.sampled_from(["none", "before", "after"]))
    if where == "before":
        argv.insert(0, "--pretty")
    elif where == "after":
        argv.append("--pretty")
    return argv


@settings(
    max_examples=300, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(argvs())
def test_every_argv_keeps_the_exit_code_contract(argv):
    report = run(argv)
    assert report.exit_code in (0, 1, 2)
    doc = json.loads(report.render(False))
    assert doc["schema"] == 1 and doc["ok"] is (report.exit_code == 0)
    if report.exit_code == 2:
        assert doc["error"]["message"]
        # the run-wide guard is a net for faults, not a rule any input relies on
        assert not report.error.startswith("unexpected "), argv
    report.render(True)


def has_arrays(doc):
    return next(array_places(doc), None) is not None  # the path of a top-level array is ()


# the document kinds whose valid pool holds an integer array or row list
ARRAY_KINDS = sorted(kind for kind, docs in VALID.items() if any(map(has_arrays, docs)))


@st.composite
def digit_argvs(draw):
    """An argv of valid documents but one, which has a digit string where an integer array or row list belongs."""
    targets = [
        (name, flag)
        for name, command in COMMANDS.items()
        for flag, (_, kind, _) in command.inputs.items()
        if (kind or flag.lstrip("-")) in ARRAY_KINDS
    ]
    command, target = draw(st.sampled_from(targets))
    argv = [command]
    for flag, (_, kind, keywords) in COMMANDS[command].inputs.items():
        pool = VALID.get(kind or flag.lstrip("-"), [])
        if flag == target:
            value = _text(draw(digit_string(draw(st.sampled_from([d for d in pool if has_arrays(d)])))))
        elif keywords.get("action") == "store_true":
            if draw(st.booleans()):
                argv.append(flag)
            continue
        elif keywords.get("type") is cli._int_arg:
            value = str(draw(st.integers(-2, 4)))
        elif not keywords.get("required") and draw(st.booleans()):
            continue
        else:
            value = _text(draw(st.sampled_from(pool)))
        argv += [value] if flag == "name" else [flag, value]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(digit_argvs())
def test_a_digit_string_for_an_integer_array_never_exits_0(argv):
    # "11" is not [1, 1]: no command reads a string as a list of digits
    assert run(argv).exit_code in (1, 2), argv


def test_digit_strings_reach_every_array_kind():
    assert ARRAY_KINDS == ["bound", "class", "cone", "map", "matrix", "perversity", "ring"]
    assert digits([[2, -4], [6, 8]]) == "2-468" and digits([]) == ""
    ring = VALID["ring"][2]
    assert list(array_places(ring)) == [("hyperplane",), ("degree",), ("relations", "1"), ("relations", "1", 0)]


def test_command_table_declares_readable_kinds():
    # checked over the whole table, not only where the property happens to draw
    for name, command in COMMANDS.items():
        kinds = {flag: kind for flag, (_, kind, _) in command.inputs.items()}
        assert set(kinds.values()) <= {None, *_KINDS}, name
        if {"pattern", "cocycle", "joint"} & set(kinds.values()):
            assert "--strata" in kinds, name  # read on the stratification
        if "class" in kinds.values():
            assert "--cone" in kinds, name  # read on the cone
    # validate reads each document itself, by the kind its flag is named after
    assert all(flag[2:] in _KINDS for flag in COMMANDS["validate"].inputs)
    assert set(_KINDS) <= set(VALID)  # the property has a pool of every kind


# Edits of a generated argv that reach the parser's corners: a flag or a value
# dropped, a token added, a flag or command abbreviated, --pretty on both
# sides, -h at either level, an unknown command, and tokens argparse treats
# specially (the -- separator and the ambiguous --=x).
EXTRA_TOKENS = ["--bogus", "x", "-1", "--pretty=1", "--", "--=x", "-h", "--help", "-x", "--matrix", "--strata",
                "vertex3"]
UNKNOWN_COMMANDS = ["sn", "check", "nosuch", "", "-", "SNF", "--snf"]


@st.composite
def edited_argvs(draw):
    argv = draw(argvs())
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["drop", "extra", "abbreviate", "pretty", "help", "command"]))
        at = draw(st.integers(0, len(argv)))
        if edit == "drop" and argv:
            del argv[min(at, len(argv) - 1)]
        elif edit == "extra":
            argv.insert(at, draw(st.sampled_from(EXTRA_TOKENS)))
        elif edit == "abbreviate":
            # --pre for --pretty, --mat for --matrix, -- and --p where they are ambiguous
            flags = [n for n, token in enumerate(argv) if token.startswith("--") and len(token) > 2]
            if flags:
                n = draw(st.sampled_from(flags))
                argv[n] = argv[n][: draw(st.integers(2, len(argv[n])))]
        elif edit == "pretty":
            argv = ["--pretty", *argv, "--pretty"]
        elif edit == "help":
            where = draw(st.sampled_from([0, min(1, len(argv)), len(argv)]))  # top level, after the command, last
            argv.insert(where, draw(st.sampled_from(["-h", "--help"])))
        elif argv:
            name = next((token for token in argv if token in COMMANDS), None)
            prefix = [name[: draw(st.integers(1, len(name)))]] if name else []
            new = draw(st.sampled_from(UNKNOWN_COMMANDS + prefix))
            argv = [new if token == name else token for token in argv]
    return argv


def outcome(argv):
    """The report's exit code, document and text as ``main`` prints it, or a SystemExit's code; with what was printed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            report = run(list(argv))
        except SystemExit as exc:
            return "SystemExit", exc.code, out.getvalue(), err.getvalue()
    return report.exit_code, report.to_json(), report.render(report.pretty), out.getvalue(), err.getvalue()


FULL_PARSER = cli.build_parser()


@settings(
    max_examples=2000, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(edited_argvs())
def test_one_command_parser_answers_as_the_full_parser(argv):
    with mock.patch.object(cli, "_parse", FULL_PARSER.parse_args):
        expected = outcome(argv)
    assert outcome(argv) == expected, argv


def test_a_well_formed_argv_builds_only_its_command_parser():
    def no_full_parser():
        raise AssertionError("the full parser was built")

    with mock.patch.object(cli, "build_parser", no_full_parser):
        for argv in (
            ["snf", "--matrix", "[[2,4],[6,8]]"],
            ["--pretty", "schema", "snf", "--pretty"],
            ["snf", "--mat", "[[1]]", "--pre"],
        ):
            assert run(argv).exit_code == 0


def test_each_command_parser_is_the_full_parsers_subparser():
    subparsers = next(action for action in FULL_PARSER._actions if action.dest == "command").choices
    assert list(subparsers) == list(COMMANDS)
    for name, sub in subparsers.items():
        assert cli._command_parser(name).format_help() == sub.format_help(), name
