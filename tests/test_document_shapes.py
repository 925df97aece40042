"""Documents of the wrong shape, for every document kind but rings.

Every integer array of a document is read by ``serialize._int_list`` and every
list of integer rows by ``serialize._int_rows``, so a string is never read as
a list of digits.  Each case below gives a document with one field of the
wrong shape: the command that reads it exits 2 with a message naming the
field, and ``validate`` fails the verdict for the kinds it reads.
(``tests/test_ring_documents.py`` holds the same table for rings.)
"""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

from pervchow import chow, serialize
from pervchow.cli import run
from pervchow.serialize import InputError, parse_group, parse_matrix

STRATA = "vertex3"
PATTERN = {"dim": 1, "incidence": {"1": 0, "2": 0, "3": 0}}
COCYCLE = {"t": 1, "targetDim": 1, "excess": {"1": 0, "2": 0, "3": 1}}
JOINT = {"a": PATTERN, "b": PATTERN, "joint": {"1": 0, "2": 0, "3": 0}, "total": 0}
STRATIFICATION = {
    "dim": 3, "strata": [{"i": 1, "codim": 1, "label": "curve"}, {"i": 2, "codim": 2}, {"i": 3, "codim": 3}]
}
BOUND = [0, 0, 0]
CLASS = {"r": 2, "p": 1, "payload": [1, 0]}
F = {"source": {"rank": 2}, "target": {"rank": 1}, "matrix": [[1, 0]]}
G = {"source": {"rank": 1}, "target": {"rank": 1}, "matrix": [[0]]}


def _text(doc):
    return doc if isinstance(doc, str) else json.dumps(doc)


# The command that reads each kind, with the document in place of ``doc``.
COMMANDS = {
    "bound": lambda doc: ["check-cycle", "--pattern", _text(PATTERN), "--perversity", doc, "--strata", STRATA],
    "perversity": lambda doc: ["push", "--pattern", _text(PATTERN), "--c", doc, "--strata", STRATA],
    "strata": lambda doc: ["check-cycle", "--pattern", _text(PATTERN), "--perversity", _text(BOUND), "--strata", doc],
    "pattern": lambda doc: ["check-cycle", "--pattern", doc, "--perversity", _text(BOUND), "--strata", STRATA],
    "cocycle": lambda doc: ["check-cocycle", "--cocycle", doc, "--perversity", _text(BOUND), "--strata", STRATA],
    "joint": lambda doc: ["check-star", "--joint", doc, "--c", _text(BOUND), "--strata", STRATA],
    "class": lambda doc: ["intersect", "--cone", "zobel", "--a", doc, "--b", "allowed:2:(0,1)"],
    "map": lambda doc: ["exact", "--f", doc, "--g", _text(G)],
    "matrix": lambda doc: ["snf", "--matrix", doc],
}
VALIDATED = {"bound", "perversity", "strata", "pattern", "cocycle", "joint"}


def with_(doc, **fields):
    return {**doc, **fields}


def stratum_label(label):
    strata = [dict(STRATIFICATION["strata"][0], label=label), *STRATIFICATION["strata"][1:]]
    return with_(STRATIFICATION, strata=strata)


SHAPES = [
    # a digit string is not a list of digits: "000" is not [0, 0, 0]
    ("bound", "000", "bound must be a list of integers, got str"),
    ("bound", {"1": 0}, "bound must be a list of integers, got dict"),
    ("bound", [0, [0], 0], "bound: expected an integer, got [0]"),
    ("perversity", "012", "bound must be a list of integers, got str"),
    ("perversity", [0, "x", 2], "bound: invalid literal for int() with base 10: 'x'"),
    ("strata", with_(STRATIFICATION, strata="ab"), "strata must be a list of stratum objects, got str"),
    ("strata", with_(STRATIFICATION, strata={"1": {"i": 1}}), "strata must be a list of stratum objects, got dict"),
    ("strata", with_(STRATIFICATION, strata=["a", "b", "c"]), "stratum 0 must be an object, got str"),
    ("strata", stratum_label([3]), "label of stratum 0 must be a string, got list"),
    ("strata", stratum_label(3), "label of stratum 0 must be a string, got int"),
    ("pattern", with_(PATTERN, label=[1, 2]), "label must be a string, got list"),
    ("pattern", with_(PATTERN, label=7), "label must be a string, got int"),
    ("pattern", with_(PATTERN, incidence=[0, 0, 0]), "incidence must be an object keyed by stratum index, got list"),
    ("cocycle", with_(COCYCLE, excess=[0]), "excess must be an object keyed by stratum index, got list"),
    ("cocycle", with_(COCYCLE, excess="001"), "excess must be an object keyed by stratum index, got str"),
    ("joint", with_(JOINT, joint=[0, 0, 0]), "joint must be an object keyed by stratum index, got list"),
    ("joint", with_(JOINT, a=with_(PATTERN, label={"x": 1})), "label must be a string, got dict"),
    ("class", with_(CLASS, payload="10"), "payload must be a list of integers, got str"),
    ("class", with_(CLASS, payload=10), "payload must be a list of integers, got int"),
    ("map", with_(F, matrix=["10"]), "matrix row 0 must be a list of integers, got str"),
    ("map", with_(F, source={"rank": 1}, matrix=["1"]), "matrix row 0 must be a list of integers, got str"),
    ("map", with_(F, matrix="10"), "matrix must be a list of integer rows, got str"),
    ("map", with_(F, matrix=[[1, "y"]]), "matrix row 0: invalid literal for int() with base 10: 'y'"),
    ("map", with_(F, target={"rank": 1, "relations": ["2"]}), "relations row 0 must be a list of integers, got str"),
    ("map", with_(F, target={"rank": 1, "relations": "2"}), "relations must be a list of integer rows, got str"),
    ("map", with_(F, source={"rank": 2, "relations": [[0, 0], 1]}),
     "relations row 1 must be a list of integers, got int"),
    ("matrix", ["12", "34"], "matrix row 0 must be a list of integers, got str"),
    ("matrix", "1234", "matrix must be a list of integer rows, got str"),
    ("matrix", {"0": [1, 2]}, "matrix must be a list of integer rows, got dict"),
    ("matrix", [[1, 2], 3], "matrix row 1 must be a list of integers, got int"),
    ("matrix", [[1, 2], [3, 4.5]], "matrix row 1: expected an integer, got 4.5"),
]
SHAPE_IDS = [
    "bound-digits", "bound-object", "bound-list-entry", "perversity-digits", "perversity-letter",
    "strata-string", "strata-object", "stratum-string", "stratum-label-list", "stratum-label-int",
    "pattern-label-list", "pattern-label-int", "incidence-list", "excess-list", "excess-string",
    "joint-list", "joint-factor-label-object", "payload-digits", "payload-int",
    "map-row-string", "map-row-digits", "map-matrix-string", "map-entry-letter", "relation-row-string",
    "relations-string", "relation-row-int",
    "matrix-row-strings", "matrix-string", "matrix-object", "matrix-row-int", "matrix-entry-float",
]


class TestShapes:
    def test_the_base_documents_are_read(self):
        for kind, argv in COMMANDS.items():
            base = {"bound": BOUND, "perversity": BOUND, "strata": STRATIFICATION, "pattern": PATTERN,
                    "cocycle": COCYCLE, "joint": JOINT, "class": CLASS, "map": F, "matrix": [[1, 2], [3, 4]]}[kind]
            report = run(argv(_text(base)))
            assert report.exit_code in (0, 1), (kind, report.error)

    @pytest.mark.parametrize("kind, doc, message", SHAPES, ids=SHAPE_IDS)
    def test_the_command_exits_2_and_names_the_field(self, kind, doc, message):
        report = run(COMMANDS[kind](_text(doc)))
        assert report.exit_code == 2
        assert report.error.endswith(message), report.error
        assert json.loads(report.render(False))["schema"] == 1

    @pytest.mark.parametrize("kind, doc, message", [s for s in SHAPES if s[0] in VALIDATED],
                             ids=[i for i, s in zip(SHAPE_IDS, SHAPES) if s[0] in VALIDATED])
    def test_validate_fails_the_verdict(self, kind, doc, message):
        argv = ["validate", f"--{kind}", _text(doc)]
        if kind in ("pattern", "cocycle", "joint"):
            argv += ["--strata", STRATA]
        report = run(argv)
        assert report.exit_code == 1
        failed = [v for v in report.verdicts if not v.ok]
        assert [v.check for v in failed] == [f"valid-{kind}"]
        assert failed[0].explanation.endswith(message)


def group_map(source, target, matrix):
    return json.dumps({"source": source, "target": target, "matrix": matrix})


class TestProbes:
    """Documents that got answers while their readers iterated any iterable, and rejections no other test reaches."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["snf", "--matrix", '["12","34"]'], "matrix row 0 must be a list of integers, got str"),
            (["exact", "--f", group_map({"rank": 1}, {"rank": 2}, ["1", "0"]),
              "--g", group_map({"rank": 2}, {"rank": 1}, [[0, 1]])],
             "matrix row 0 must be a list of integers, got str"),
            (["exact", "--f", group_map({"rank": 2}, {"rank": 1}, ["01"]),
              "--g", group_map({"rank": 1}, {"rank": 1}, [[0]])],
             "matrix row 0 must be a list of integers, got str"),
            (["exact", "--f", group_map({"rank": 1}, {"rank": 2, "relations": ["02"]}, [[1], [0]]),
              "--g", group_map({"rank": 2}, {"rank": 1}, [[0, 1]])],
             "relations row 0 must be a list of integers, got str"),
            (["exact", "--f", group_map({"rank": 1}, {"rank": 0}, ""),
              "--g", group_map({"rank": 0}, {"rank": 1}, [[]])],
             "matrix must be a list of integer rows, got str"),
            (["intersect", "--cone", "zobel", "--a", '{"r": 2, "p": 1, "payload": "10"}', "--b", "allowed:2:(0,1)"],
             "payload must be a list of integers, got str"),
            (["pairing", "--cone", "zobel", "--a", '{"r": 2, "p": 1, "payload": "10"}', "--b", "allowed:2:(0,1)"],
             "payload must be a list of integers, got str"),
            (["check-cocycle", "--cocycle", '{"t": 1, "targetDim": 1, "excess": [0]}', "--perversity", "[0,0,0]",
              "--strata", STRATA], "excess must be an object keyed by stratum index, got list"),
            (["check-cycle", "--pattern", json.dumps(PATTERN), "--perversity", "[0,0,0]",
              "--strata", '{"dim": 3, "strata": "ab"}'], "strata must be a list of stratum objects, got str"),
            (["check-cycle", "--pattern", json.dumps(with_(PATTERN, label=[1, 2])), "--perversity", "[0,0,0]",
              "--strata", STRATA], "label must be a string, got list"),
            # rejections that no other test reaches
            (["snf", "--matrix", "[[1,2],[3]]"], "matrix rows have unequal lengths"),
            (["intersect", "--cone", "P2", "--a", "allowed:1:0:(1)", "--b", "allowed:2:(1)"],
             "(r=1, p=0) gives a disallowed class, but the string says allowed"),
            (["intersect", "--cone", "P2", "--a", '{"r": 1, "p": 0, "payload": [1], "mode": "allowed"}',
              "--b", "allowed:2:(1)"], "declared mode 'allowed' inconsistent with (r=1, p=0)"),
            (["suspend", "--strata", '{"dim": 1, "strata": [], "model": "cone"}'],
             "bad stratification document: unknown stratification model 'cone'"),
            (["groups", "--cone", "product(P1)", "--r", "0", "--p", "0"], "cannot split product arguments in 'P1'"),
            (["groups", "--cone", "product(P1,\nP1)", "--r", "0", "--p", "0"],
             "unknown built-in presentation 'product(P1,\\nP1)'"),
            (["groups", "--cone", "product(" * 3000 + "point" + ",point)" * 3000, "--r", "0", "--p", "0"],
             "built-in presentation nested too deeply"),
        ],
        ids=["snf-digit-rows", "map-digit-rows", "map-digit-row", "relation-digits", "rank-0-empty-string",
             "intersect-payload", "pairing-payload", "excess-list", "strata-string", "pattern-label-list",
             "matrix-ragged", "class-string-mode", "class-document-mode", "strata-model", "product-one-argument",
             "builtin-name-newline", "builtin-name-too-deep"],
    )
    def test_probe_exits_2_and_names_the_field(self, argv, message):
        report = run(argv)
        assert report.exit_code == 2
        assert report.error.endswith(message), report.error

    def test_spaces_around_product_arguments_are_read(self):
        report = run(["groups", "--cone", "product( P1 , P1 )", "--r", "0", "--p", "0"])
        assert report.exit_code == 0, report.error
        assert chow.builtin("product( P1 , P1 )") == chow.builtin("product(P1,P1)")


class TestRowsAreCountedFirst:
    LIMIT = serialize.MAX_MATRIX_DIM

    def count_row_reads(self, read):
        with mock.patch.object(serialize, "_int_list", wraps=serialize._int_list) as rows:
            with pytest.raises(InputError) as exc:
                read()
        return rows.call_count, str(exc.value)

    def test_group_relations(self):
        doc = {"rank": 1, "relations": [[2]] * self.LIMIT + ["x"]}
        reads, message = self.count_row_reads(lambda: parse_group(doc))
        assert message == "bad group presentation: a group takes at most 64 relations, got 65"
        assert reads == 0
        report = run(["exact", "--f", json.dumps({"source": {"rank": 1}, "target": doc, "matrix": [[1]]}),
                      "--g", json.dumps({"source": doc, "target": {"rank": 1}, "matrix": [[1]]})])
        assert report.exit_code == 2
        assert report.error.endswith("a group takes at most 64 relations, got 65")

    def test_matrix_rows(self):
        reads, message = self.count_row_reads(lambda: parse_matrix([[1]] * self.LIMIT + ["x"]))
        assert (reads, message) == (0, "a matrix takes at most 64 rows, got 65")

    def test_map_rows(self):
        doc = {"source": {"rank": 1}, "target": {"rank": 1}, "matrix": [[1]] * self.LIMIT + ["x"]}
        report = run(["exact", "--f", json.dumps(doc), "--g", json.dumps(doc)])
        assert report.error == "bad group map: a group map takes at most 64 rows, got 65"

    def test_ring_relations(self):
        ring = {"dim": 1, "basis": [["1"], ["a"]], "hyperplane": [1], "degree": [1],
                "relations": {"1": [[2]] * self.LIMIT + ["x"]}}
        reads, message = self.count_row_reads(lambda: serialize.parse_ring(ring))
        assert message == "bad ring presentation: ring codimension 1 takes at most 64 relations, got 65"
        assert reads == 0

    def test_rows_at_the_limit_are_read(self):
        assert len(parse_matrix([["1"]] * self.LIMIT)) == self.LIMIT
        assert parse_group({"rank": 1, "relations": [["2"]] * self.LIMIT}).relations == ((2,),) * self.LIMIT


class TestLabels:
    EMPTY = {"dim": 1, "incidence": {"1": "empty", "2": "empty", "3": "empty"}}  # passes every bound

    def check_cycle(self, pattern, strata=STRATA):
        return run(["check-cycle", "--pattern", json.dumps(pattern), "--perversity", "[0,0,0]", "--strata",
                    _text(strata)])

    def test_a_string_pattern_label_is_echoed(self):
        report = self.check_cycle(with_(self.EMPTY, label="curve"))
        assert report.exit_code == 0 and report.values["pattern"]["label"] == "curve"

    @pytest.mark.parametrize("label", [{}, {"label": None}, {"label": ""}], ids=["absent", "null", "empty"])
    def test_no_pattern_label_is_echoed_as_none(self, label):
        report = self.check_cycle({**self.EMPTY, **label})
        assert report.exit_code == 0 and "label" not in report.values["pattern"]

    def test_stratum_labels_are_kept_as_strings(self):
        report = run(["push", "--pattern", json.dumps(PATTERN), "--c", "[0,0,0]", "--strata",
                      json.dumps(STRATIFICATION)])
        assert report.exit_code == 0
        assert [st["label"] for st in report.values["strata"]["strata"]] == ["curve", "", ""]
        assert run(["validate", "--strata", json.dumps(stratum_label("3"))]).exit_code == 0

    def test_a_non_string_stratum_label_is_not_converted(self):
        # it used to be str()-converted, so [3] became "[3]"
        report = self.check_cycle(PATTERN, stratum_label([3]))
        assert report.exit_code == 2
        assert report.error == "bad stratification document: label of stratum 0 must be a string, got list"


class TestCompactClasses:
    """The compact ``mode:r[:p]:(c1,c2)`` string takes comma-separated integers only."""

    def intersect(self, a):
        return run(["intersect", "--cone", "zobel", "--a", a, "--b", "allowed:2:(0,1)"])

    @pytest.mark.parametrize("spec", ["allowed:2:(1,,0)", "allowed:2:(1,0,)", "allowed:2:(,1,0)", "allowed:2:(1-0)",
                                      "allowed:2:(-)", "allowed:2:(1 0)"])
    def test_a_malformed_coefficient_list_exits_2(self, spec):
        # "(1,,0)" and "(1,0,)" used to read as (1, 0)
        report = self.intersect(spec)
        assert report.exit_code == 2
        assert report.error == f"bad class spec {spec!r}; expected mode:r[:p]:(coeffs) or a JSON object"

    @pytest.mark.parametrize("spec", ["allowed:2:(1,0)", "allowed:2:( 1 , 0 )", "allowed:2:1:(1, 0)"])
    def test_spaced_coefficients_still_read(self, spec):
        assert self.intersect(spec).to_json() == self.intersect("allowed:2:(1,0)").to_json()

    def test_a_long_run_of_spaces_is_rejected_at_once(self):
        start = time.perf_counter()
        assert self.intersect("allowed:2:(" + " " * 100_000 + "x)").exit_code == 2
        assert time.perf_counter() - start < 1.0


class TestNestedDocuments:
    """A document read inside another gets one ``bad <document>:`` prefix, for
    the document passed, then the inner field and the inner message."""

    def test_group_map_names_the_group(self):
        f = with_(F, target={"rank": 1, "relations": ["02"]})
        report = run(COMMANDS["map"](_text(f)))
        assert report.exit_code == 2
        assert report.error == "bad group map: target: relations row 0 must be a list of integers, got str"
        report = run(COMMANDS["map"](_text(with_(F, source=[2]))))
        assert report.error == "bad group map: source: a group must be an object with rank and relations"

    def test_joint_pattern_names_the_factor(self):
        report = run(COMMANDS["joint"](_text(with_(JOINT, b=with_(PATTERN, label=5)))))
        assert report.exit_code == 2
        assert report.error == "bad joint pattern: b: label must be a string, got int"
        report = run(["validate", "--joint", _text(with_(JOINT, a=with_(PATTERN, dim="x"))), "--strata", STRATA])
        assert [v.explanation for v in report.verdicts if not v.ok] == [
            "bad joint pattern: a: invalid literal for int() with base 10: 'x'"]

    def test_a_missing_inner_document_is_named_as_before(self):
        joint = {key: value for key, value in JOINT.items() if key != "a"}
        assert run(COMMANDS["joint"](_text(joint))).error == "bad joint pattern: 'a'"

    def test_documents_read_alone_keep_their_prefix(self):
        with pytest.raises(InputError) as exc:
            parse_group({"rank": 1, "relations": ["02"]})
        assert str(exc.value) == "bad group presentation: relations row 0 must be a list of integers, got str"
        report = run(COMMANDS["pattern"](_text(with_(PATTERN, label=5))))
        assert report.error == "bad cycle pattern: label must be a string, got int"


class TestLongIntegers:
    """Integers past ``serialize.MAX_INT_DIGITS`` (4300) are measured before ``int``
    reads them, and the message names the limit and the field.  No interpreter
    setting moves that limit, and results print whole."""

    NINES = "9" * 5000

    def assert_rejected(self, argv, message):
        report = run(argv)
        assert report.exit_code == 2
        assert report.error == message
        assert "set_int_max_str_digits" not in report.render(False)

    def test_digit_string_in_an_integer_field(self):
        self.assert_rejected(COMMANDS["pattern"](_text(with_(PATTERN, dim=self.NINES))),
                             "bad cycle pattern: dim has 5000 digits; the limit is 4300")
        self.assert_rejected(COMMANDS["matrix"](_text([[1], [self.NINES]])),
                             "matrix row 1: integer has 5000 digits; the limit is 4300")

    def test_compact_class_coefficient(self):
        self.assert_rejected(COMMANDS["class"](f"allowed:2:({self.NINES},0)"),
                             "payload entry 0 has 5000 digits; the limit is 4300")

    def test_json_integer_literal(self):
        self.assert_rejected(["snf", "--matrix", f"[[-{self.NINES}]]"], "JSON integer has 5000 digits; the limit is 4300")

    def test_projective_space_name(self):
        self.assert_rejected(["groups", "--cone", f"P{self.NINES}", "--r", "1", "--p", "0"],
                             "P<n> with a 5000-digit n has over 128 basis symbols")
        # leading zeros are not digits of n, and a four-digit n still reports its basis size
        assert run(["groups", "--cone", "P" + "0" * 5000 + "2", "--r", "1", "--p", "0"]).exit_code == 0
        assert run(["groups", "--cone", "P2000", "--r", "1", "--p", "0"]).error.endswith(
            "2001 basis symbols; the limit is 128")

    def test_integers_at_the_limit_are_read(self):
        at_limit = "9" * 4300
        report = run(["snf", "--matrix", f"[[{at_limit}]]"])
        assert report.exit_code == 0
        report = run(COMMANDS["matrix"](_text([[at_limit]])))
        assert report.exit_code == 0

    @pytest.mark.parametrize("setting", ["0", "640"])
    @pytest.mark.parametrize("field", ["literal", "string"])
    def test_no_interpreter_setting_moves_the_limit(self, setting, field):
        assert serialize.MAX_INT_DIGITS == 4300
        env = {**os.environ, "PYTHONINTMAXSTRDIGITS": setting, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(serialize.__file__).parent.parent), os.environ.get("PYTHONPATH")]))}

        def child(digits):
            argv = ["snf", "--matrix", "[[%s]]" % (f'"{"7" * digits}"' if field == "string" else "7" * digits)]
            proc = subprocess.run([sys.executable, "-m", "pervchow.cli", *argv], env=env, capture_output=True,
                                  text=True, timeout=60)
            return proc.returncode, json.loads(proc.stdout)

        code, doc = child(5000)
        assert code == 2
        assert doc["error"]["message"].endswith("has 5000 digits; the limit is 4300")
        code, doc = child(1000)
        assert code == 0
        assert doc["values"]["snf"]["diagonal"] == [int("7" * 1000)]


BIG_PATTERN_DIM = int("9" * 4300)
# a dim-1 ring with two codimension-1 symbols and 2×2 relations of 8000-bit
# entries (32,000 bits, inside the bit limit): its codimension-1 group is cyclic
# of order the determinant, which has over 4300 digits
TORSION_RELATIONS = [[(1 << 7999) + 3, 1 << 7998], [1 << 7997, (1 << 7999) + 5]]
TORSION = abs(TORSION_RELATIONS[0][0] * TORSION_RELATIONS[1][1] - TORSION_RELATIONS[0][1] * TORSION_RELATIONS[1][0])
TORSION_RING = {"dim": 1, "basis": [["1"], ["a", "b"]], "hyperplane": [1, 0], "degree": [0, 0],
                "relations": {"1": TORSION_RELATIONS}}

# Results past 4300 digits, each from a valid document: every number prints whole.
LONG_RESULTS = {
    "check-cycle": ["check-cycle", "--pattern", _text({"dim": BIG_PATTERN_DIM, "incidence": {"1": 0}}),
                    "--perversity", _text([BIG_PATTERN_DIM]), "--strata", "vertex1"],
    "check-star": ["check-star", "--joint", _text(
        {"a": {"dim": BIG_PATTERN_DIM, "incidence": {"1": 0}}, "b": {"dim": BIG_PATTERN_DIM, "incidence": {"1": 0}},
         "joint": {"1": 0}, "total": 0}), "--c", "[0]", "--strata", "vertex1"],
    "groups": ["groups", "--cone", _text({"base": TORSION_RING}), "--r", "1", "--p", "1"],
    "compare": ["compare", "--cone", _text({"base": TORSION_RING}), "--r", "1", "--p-from", "0", "--p-to", "1"],
}


@pytest.mark.parametrize("command", LONG_RESULTS)
def test_results_past_the_digit_limit_print_whole(command):
    limit = sys.get_int_max_str_digits()
    report = run(LONG_RESULTS[command])
    assert report.exit_code == 0, report.error
    text = report.render(False)
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        doc = json.loads(text)
        assert doc["ok"] is True and re.search(r"\d{4301}", text)
        if command in ("groups", "compare"):
            values = doc["values"]
            group = values["group"] if command == "groups" else values["map"]["target"]
            assert group["name"] == f"Z/{TORSION}"
    finally:
        sys.set_int_max_str_digits(limit)


COCYCLE_T0 = with_(COCYCLE, t=0, targetDim=0, excess={"1": 0, "2": 0, "3": 0})  # sliced by --count 0

# Each integer flag with its value in place of ``n``.
INT_FLAGS = {
    "--r": lambda n: ["groups", "--cone", "P2", "--r", n, "--p", "0"],
    "--p": lambda n: ["groups", "--cone", "P2", "--r", "0", "--p", n],
    "--p-from": lambda n: ["compare", "--cone", "P2", "--r", "0", "--p-from", n, "--p-to", "1"],
    "--p-to": lambda n: ["compare", "--cone", "P2", "--r", "0", "--p-from", "0", "--p-to", n],
    "--ncols": lambda n: ["snf", "--matrix", "[]", "--ncols", n],
    "--e": lambda n: ["pull", "--pattern", '{"dim":1,"incidence":{"1":"empty"}}', "--e", n, "--strata", "vertex1"],
    "--count": lambda n: ["slice", "--cocycle", _text(COCYCLE_T0), "--count", n, "--strata", STRATA],
}


BIG = int("9" * 4300)  # the longest integer literal a document may hold
SYMBOL = "s" * 5000
P2_RING = {"dim": 2, "basis": [["1"], ["h"], ["p"]], "hyperplane": [1], "degree": [1]}
WIDE_RING = {  # 65 codimension-1 symbols, every ordered pair of them listed: 4225 structure constants
    "dim": 2, "basis": [["1"], [f"a{i}" for i in range(65)], ["p"]], "hyperplane": [1] * 65, "degree": [1],
    "products": [{"a": f"a{i}", "b": f"a{j}", "value": {"p": 1}} for i in range(65) for j in range(65)],
}


def cone_over(ring):
    return ["groups", "--cone", _text({"base": ring}), "--r", "0", "--p", "0"]


# A command whose error message quotes a long input value, by the layer that raises it.
LONG_VALUES = {
    "cones-cycle-dimension": INT_FLAGS["--r"](str(BIG)),
    "cones-bounds-relax": ["compare", "--cone", "P2", "--r", "0", "--p-from", str(BIG), "--p-to", "0"],
    "cocycles-hyperplane-count": ["slice", "--cocycle", _text(COCYCLE), "--count", str(BIG), "--strata", STRATA],
    "cocycles-slice-dimension": ["slice", "--cocycle", _text(with_(COCYCLE, t=BIG, targetDim=BIG)),
                                 "--count", str(BIG), "--strata", STRATA],
    "cocycles-codimension": COMMANDS["cocycle"](_text(with_(COCYCLE, t=BIG))),
    "cocycles-excess": COMMANDS["cocycle"](_text(with_(COCYCLE, targetDim=BIG, excess={"1": BIG, "2": 0, "3": 0}))),
    "cocycles-cap": ["cap", "--cocycle", _text(with_(COCYCLE, t=BIG, targetDim=BIG)), "--pattern", _text(PATTERN),
                     "--strata", STRATA],
    "cycles-incidence": COMMANDS["pattern"](_text(with_(PATTERN, incidence={"1": BIG, "2": 0, "3": 0}))),
    "cycles-dimension": COMMANDS["pattern"](_text(with_(PATTERN, dim=BIG, incidence={"1": -1, "2": 0, "3": 0}))),
    "cycles-indices": COMMANDS["pattern"](_text(with_(PATTERN, incidence={str(i): 0 for i in range(1, 2000)}))),
    "cycles-joint": COMMANDS["joint"](_text(with_(JOINT, joint={"1": BIG, "2": 0, "3": 0}))),
    "perversity-bound": COMMANDS["bound"](_text([5] + [0] * 20000)),
    "perversity-steps": COMMANDS["perversity"](_text([0] * 20000 + [5])),
    "strata-index": COMMANDS["strata"](_text(with_(STRATIFICATION, strata=[{"i": BIG, "codim": 1}]))),
    "strata-codimension": COMMANDS["strata"](_text(with_(STRATIFICATION, strata=[{"i": 1, "codim": -BIG}]))),
    "strata-fiber-dim": COMMANDS["strata"](_text(with_(STRATIFICATION, model={"kind": "product", "fiber_dim": -BIG}))),
    "chow-dimension": cone_over(with_(P2_RING, dim=BIG)),
    "chow-basis-symbol": cone_over(with_(P2_RING, basis=[["1"], [SYMBOL, SYMBOL], ["p"]], hyperplane=[1, 1])),
    "chow-product-symbol": cone_over(with_(P2_RING, products=[{"a": SYMBOL, "b": "h", "value": {"p": 1}}])),
    "chow-relation-codimension": cone_over(with_(P2_RING, relations={str(BIG): [[1]]})),
    "chow-relation": cone_over(with_(P2_RING, relations={"1": [[1] * 20000]})),
    "serialize-ring-name": cone_over(with_(WIDE_RING, name=SYMBOL)),
    "serialize-basis-symbol": cone_over(with_(P2_RING, basis=[["1"], [[0] * 3000], ["p"]])),
    "serialize-product-factor": cone_over(with_(P2_RING, products=[{"a": [0] * 3000, "b": "h", "value": {"p": 1}}])),
    "serialize-product-value": cone_over(with_(P2_RING, products=[{"a": SYMBOL, "b": SYMBOL, "value": 1}])),
    "serialize-product-coefficient": cone_over(
        with_(P2_RING, products=[{"a": SYMBOL, "b": "h", "value": {SYMBOL: "9" * 5000}}])),
    "serialize-product-conflict": cone_over(with_(P2_RING, products=[
        {"a": SYMBOL, "b": "h", "value": {"p": 1}}, {"a": SYMBOL, "b": "h", "value": {"p": 2}}])),
    "serialize-payload-entry": COMMANDS["class"](_text({"r": 2, "p": 1, "payload": {SYMBOL: "9" * 5000}})),
    "abgroup-relation": COMMANDS["map"](_text(with_(F, target={"rank": 1, "relations": [[1] * 60]}))),
    "abgroup-map-row": COMMANDS["map"](_text(with_(F, matrix=[[1] * 60]))),
    "abgroup-map-relation": COMMANDS["map"](_text(with_(F, source={"rank": 2, "relations": [[2 ** 4000, 0]]}))),
    "abgroup-ncols": INT_FLAGS["--ncols"](str(-BIG)),
    "cli-file-path": COMMANDS["matrix"]("/nonexistent/" + "d/" * 2000 + "matrix.json"),
}

class TestLongValuesInMessages:
    """An integer flag is measured as an integer field is, and a message quotes at
    most a fixed prefix of an input value; short values are quoted whole, as before."""

    NINES = "9" * 5000

    def error(self, argv):
        report = run(argv)
        assert report.exit_code == 2
        assert len(report.error) < 200, report.error[:300]
        return report.error

    @pytest.mark.parametrize("flag", INT_FLAGS)
    def test_an_over_long_integer_flag_names_the_flag_and_the_limit(self, flag):
        assert run(INT_FLAGS[flag]("0")).exit_code == 0
        message = f"argument {flag}: the value has 5000 digits; the limit is 4300"
        assert self.error(INT_FLAGS[flag](self.NINES)) == message

    @pytest.mark.parametrize("flag", INT_FLAGS)
    def test_a_short_bad_integer_flag_reads_as_before(self, flag):
        assert self.error(INT_FLAGS[flag]("x1")) == f"argument {flag}: invalid int value: 'x1'"

    def test_an_over_long_non_integer_flag_is_cut(self):
        error = self.error(INT_FLAGS["--r"]("x" * 5000))
        assert error == f"argument --r: invalid int value: {'x' * 64!r}... (5000 characters)"

    def test_incidence_key(self):
        error = self.error(COMMANDS["pattern"](_text(with_(PATTERN, incidence={self.NINES: 0}))))
        assert error == f"bad cycle pattern: incidence key {'9' * 64!r}... (5000 characters) is not a stratum index"
        assert self.error(COMMANDS["pattern"](_text(with_(PATTERN, incidence={"a": 0})))) == (
            "bad cycle pattern: incidence key 'a' is not a stratum index")

    def test_incidence_value(self):
        error = self.error(COMMANDS["pattern"](_text(with_(PATTERN, incidence={"1": self.NINES}))))
        cut = f"{'9' * 64!r}... (5000 characters)"
        assert error == f"bad cycle pattern: incidence value {cut} is not an integer or 'empty'"
        assert self.error(COMMANDS["pattern"](_text(with_(PATTERN, incidence={"1": "b"})))) == (
            "bad cycle pattern: incidence value 'b' is not an integer or 'empty'")

    def test_built_in_name(self):
        error = self.error(["groups", "--cone", "Q" * 100000, "--r", "0", "--p", "0"])
        assert error == f"unknown built-in presentation {'Q' * 64!r}... (100000 characters)"
        assert self.error(["groups", "--cone", "Q", "--r", "0", "--p", "0"]) == "unknown built-in presentation 'Q'"

    def test_vertex_shorthand(self):
        assert self.error(COMMANDS["strata"]("vertex" + self.NINES)) == (
            f"vertex<d> takes d up to 1024, got {'9' * 64!r}... (5000 characters)")
        assert self.error(COMMANDS["strata"]("vertex2000")) == "vertex<d> takes d up to 1024, got 2000"

    @pytest.mark.parametrize("key", ["9" * 4300, "0" * 4000 + "1"])
    def test_relation_codimension_key(self, key):
        too_many = [[1]] * 65
        error = self.error(cone_over(with_(P2_RING, relations={key: too_many})))
        assert error == (f"bad ring presentation: ring codimension {key[:64]!r}... ({len(key)} characters) "
                         "takes at most 64 relations, got 65")
        assert self.error(cone_over(with_(P2_RING, relations={"1": too_many}))) == (
            "bad ring presentation: ring codimension 1 takes at most 64 relations, got 65")

    @pytest.mark.parametrize("layer", LONG_VALUES)
    def test_a_layer_message_quotes_a_long_value_cut(self, layer):
        report = run(LONG_VALUES[layer])
        assert report.exit_code == 2
        assert len(report.error) < 300 and "characters)" in report.error, report.error[:400]

    def test_an_over_long_non_integer_string_field_is_cut(self):
        error = self.error(COMMANDS["pattern"](_text(with_(PATTERN, dim="d" * 5000))))
        assert error == f"bad cycle pattern: invalid literal for int() with base 10: {'d' * 64!r}... (5000 characters)"

    def test_a_short_non_integer_string_field_reads_as_before(self):
        error = self.error(COMMANDS["pattern"](_text(with_(PATTERN, dim="abc"))))
        assert error == "bad cycle pattern: invalid literal for int() with base 10: 'abc'"


ONE_DIM_RING = {"dim": 1, "basis": [["1"], ["a"]], "hyperplane": [1], "degree": [0]}
PATTERN_1 = {"dim": 1, "incidence": {"1": 0}}  # on vertex1, whose one stratum is 1
# each integer-keyed table, as a command given that table; the message prefix; what its keys name
KEYED_TABLES = {
    "incidence": (
        lambda keys: ["check-cycle", "--pattern", _text(with_(PATTERN_1, incidence=keys)), "--perversity", "[0]",
                      "--strata", "vertex1"],
        "bad cycle pattern: incidence", "stratum index",
    ),
    "joint": (
        lambda keys: ["check-star", "--joint", _text({"a": PATTERN_1, "b": PATTERN_1, "joint": keys, "total": 0}),
                      "--c", "[0]", "--strata", "vertex1"],
        "bad joint pattern: joint", "stratum index",
    ),
    "excess": (
        lambda keys: ["check-cocycle", "--cocycle", _text({"t": 1, "targetDim": 1, "excess": keys}),
                      "--perversity", "[0]", "--strata", "vertex1"],
        "bad cocycle pattern: excess", "stratum index",
    ),
    "relations": (lambda keys: cone_over(with_(ONE_DIM_RING, relations=keys)), "bad ring presentation: relations",
                  "codimension"),
}


class TestDuplicateIntegerKeys:
    """Two keys of an integer-keyed object that name one integer exit 2 naming both, in either order.
    A reader that kept the last of the two would check ``{"1": 1, "01": "empty"}`` with exit 0 and the
    other order with exit 1, and read ``relations`` ``{"1": [[2]], "01": [[3]]}`` as Z/3."""

    VALUES = {"incidence": (1, "empty"), "joint": (0, 1), "excess": (1, 0), "relations": ([[2]], [[3]])}

    @pytest.mark.parametrize("table", KEYED_TABLES)
    def test_both_keys_are_named_in_either_order(self, table):
        command, prefix, noun = KEYED_TABLES[table]
        first, second = self.VALUES[table]
        for keys, named in (({"1": first, "01": second}, "'1' and '01'"), ({"01": second, "1": first}, "'01' and '1'")):
            report = run(command(keys))
            assert report.exit_code == 2
            assert report.error == f"{prefix} keys {named} name one {noun}"
            assert len(report.error) < 200
        assert run(command({"1": first})).exit_code in (0, 1)

    @pytest.mark.parametrize("table", KEYED_TABLES)
    def test_long_keys_are_quoted_cut(self, table):
        command, prefix, noun = KEYED_TABLES[table]
        value = self.VALUES[table][0]
        long_key = "0" * 4000 + "1"
        report = run(command({"1": value, long_key: value}))
        assert report.error == f"{prefix} keys '1' and {long_key[:64]!r}... (4001 characters) name one {noun}"
        report = run(command({"0" * 3000 + "1": value, long_key: value}))
        assert report.exit_code == 2 and len(report.error) < 200
        assert report.error == f"{prefix} keys of 3001 and 4001 characters both name {noun} 1"
        number = "9" * 100  # the integer the two keys share is cut too
        report = run(command({"0" * 3000 + number: value, "0" * 4000 + number: value}))
        shared = f"{number[:64]!r}... (100 characters)"
        assert report.error == f"{prefix} keys of 3100 and 4100 characters both name {noun} {shared}"
        assert len(report.error) < 200


class TestRepeatedLiteralKeys:
    """A JSON object that gives one key twice exits 2, and fails its ``valid-*`` verdict under ``validate``.
    ``json`` alone keeps the last value, so ``{"dim": 1, "dim": 0, ...}`` would be checked as a dimension-0 cycle."""

    PATTERN = '{"dim": 1, "dim": 0, "incidence": {"1": 0}}'
    # a product entry inside the ring that gives its coefficient of p twice, with one value
    RING = _text(with_(P2_RING, products=[{"a": "h", "b": "h", "value": {"p": 1}}])).replace(
        '{"p": 1}', '{"p": 1, "p": 1}'
    )

    def check(self, pattern):
        return ["check-cycle", "--pattern", pattern, "--perversity", "[0]", "--strata", "vertex1"]

    def test_a_top_level_key(self):
        report = run(self.check(self.PATTERN))
        assert report.exit_code == 2 and report.error == "JSON object repeats the key 'dim'"
        assert run(self.check(_text(PATTERN_1))).exit_code == 0

    def test_a_key_inside_a_ring_document(self):
        def cone(ring):
            return ["groups", "--cone", f'{{"base": {ring}}}', "--r", "0", "--p", "0"]

        report = run(cone(self.RING))
        assert report.exit_code == 2 and report.error == "JSON object repeats the key 'p'"
        assert run(cone(self.RING.replace(', "p": 1}', "}"))).exit_code == 0

    @pytest.mark.parametrize("kind, argv, key", [
        ("pattern", ["--pattern", PATTERN, "--strata", "vertex1"], "dim"),
        ("ring", ["--ring", RING], "p"),
    ])
    def test_validate_fails_the_verdict(self, kind, argv, key):
        report = run(["validate", *argv])
        assert report.exit_code == 1
        assert [(v.check, v.ok, v.explanation) for v in report.verdicts if v.check == f"valid-{kind}"] == [
            (f"valid-{kind}", False, f"JSON object repeats the key {key!r}")
        ]
        assert all(v.ok for v in report.verdicts if v.check != f"valid-{kind}")

    def test_a_long_key_is_quoted_cut(self):
        key = "k" * 5000
        report = run(self.check(f'{{"dim": 1, "incidence": {{"1": 0}}, "{key}": 1, "{key}": 2}}'))
        assert report.exit_code == 2 and len(report.error) < 200
        assert report.error == f"JSON object repeats the key {key[:64]!r}... (5000 characters)"
