import json
import math
import random
import sys
import time
from pathlib import Path

import pytest

from pervchow.chow import builtin
from pervchow.cli import emit_schema, main, run
from pervchow.serialize import MAX_RING_CONSTANTS, parse_pattern, parse_ring, parse_stratification, ring_to_json

GOLDEN = Path(__file__).parent / "golden"

L_PATTERN = json.dumps({"dim": 1, "incidence": {"1": "empty", "2": "empty", "3": "empty"}})
N_PATTERN = json.dumps({"dim": 1, "incidence": {"1": 0, "2": 0, "3": 0}})


def machine(report):
    return report.render(pretty=False)


class TestCheckCycle:
    def test_vertex_avoiding_line_passes(self):
        report = run(
            ["check-cycle", "--pattern", L_PATTERN, "--perversity", "[0,0,0]", "--strata", "vertex3"]
        )
        assert report.exit_code == 0
        assert report.verdicts[0].ok

    def test_cone_line_fails_zero(self):
        report = run(
            ["check-cycle", "--pattern", N_PATTERN, "--perversity", "[0,0,0]", "--strata", "vertex3"]
        )
        assert report.exit_code == 1
        assert "violated" in report.verdicts[0].explanation

    def test_cone_line_passes_top(self):
        report = run(
            ["check-cycle", "--pattern", N_PATTERN, "--perversity", "[0,1,2]", "--strata", "vertex3"]
        )
        assert report.exit_code == 0

    def test_pattern_from_file(self, tmp_path):
        path = tmp_path / "L.json"
        path.write_text(L_PATTERN)
        report = run(
            ["check-cycle", "--pattern", str(path), "--perversity", "[0,0,0]", "--strata", "vertex3"]
        )
        assert report.exit_code == 0

    def test_malformed_input_exits_2(self):
        report = run(
            ["check-cycle", "--pattern", "{not json", "--perversity", "[0,0,0]", "--strata", "vertex3"]
        )
        assert report.exit_code == 2
        assert report.error is not None

    def test_bad_bound_exits_2(self):
        report = run(
            ["check-cycle", "--pattern", L_PATTERN, "--perversity", "[1,0]", "--strata", "vertex3"]
        )
        assert report.exit_code == 2


class TestPairingAndIntersect:
    def test_divisor_pairing_is_one(self):
        report = run(
            ["pairing", "--cone", "zobel", "--a", "allowed:2:(1,0)", "--b", "allowed:2:(0,1)"]
        )
        assert report.exit_code == 0
        assert report.values["value"] == 1

    def test_degree_pairing_value(self):
        report = run(
            ["pairing", "--cone", "zobel", "--a", "allowed:2:(1,0)", "--b", "disallowed:1:(0,1)"]
        )
        assert report.values["value"] == 1

    def test_rejected_pairing_exits_2(self):
        report = run(
            ["pairing", "--cone", "zobel", "--a", "allowed:2:2:(1,0)", "--b", "allowed:1:(1)"]
        )
        assert report.exit_code == 2
        assert "r+s-d >= 1" in report.error

    def test_intersect_emits_class(self):
        report = run(
            ["intersect", "--cone", "zobel", "--a", "disallowed:2:(1)", "--b", "disallowed:2:(1)"]
        )
        assert report.values["class"] == {"mode": "disallowed", "r": 1, "p": 0, "payload": [1, 1]}

    def test_compact_spec_mode_checked(self):
        report = run(
            ["intersect", "--cone", "zobel", "--a", "allowed:2:0:(1,0)", "--b", "allowed:2:(0,1)"]
        )
        assert report.exit_code == 2  # p=0 makes dimension 2 vertex-avoiding

    def test_json_class_document(self):
        doc = json.dumps({"r": 2, "p": 1, "payload": [1, 0]})
        report = run(["intersect", "--cone", "zobel", "--a", doc, "--b", doc])
        assert report.exit_code == 0
        assert report.values["class"]["payload"] == [0]


class TestTorsionProbes:
    """Products are taken on representatives, so ring relations must form an ideal the degree kills."""

    # codimension 1 is Z/2, yet h times the relation 2h is 2p, which is no relation
    NOT_AN_IDEAL = {
        "dim": 2, "basis": [["1"], ["h"], ["p"]], "products": [{"a": "h", "b": "h", "value": {"p": 1}}],
        "hyperplane": [1], "degree": [1], "relations": {"1": [[2]]},
    }
    # the same with relations 4h and 6h: the check multiplies their Hermite
    # basis 2h, which was not written, and the error names the first row given
    NOT_AN_IDEAL_TWO_ROWS = dict(NOT_AN_IDEAL, relations={"1": [[4], [6]]})
    # the relation 2a in the top codimension has degree 2
    NONZERO_DEGREE = {"dim": 1, "basis": [["1"], ["a"]], "hyperplane": [1], "degree": [1], "relations": {"1": [[2]]}}

    def test_pairing_on_a_non_ideal_exits_2(self):
        # (0) and (2) are one class in Z/2, and they once paired to 0 and 2 with exit 0
        cone = json.dumps({"base": self.NOT_AN_IDEAL})
        for b in range(4):
            report = run(["pairing", "--cone", cone, "--a", "disallowed:2:(1)", "--b", f"disallowed:1:({b})"])
            assert report.exit_code == 2
            assert report.error.endswith("relation [2] in codim 1 times 'h' is not a relation")

    @pytest.mark.parametrize("ring, needle", [
        (NOT_AN_IDEAL, "relation [2] in codim 1 times 'h' is not a relation"),
        (NOT_AN_IDEAL_TWO_ROWS, "relation [4] in codim 1 times 'h' is not a relation"),
        (NONZERO_DEGREE, "relation [2] in codim 1 has nonzero degree"),
    ], ids=["not-an-ideal", "not-an-ideal-two-rows", "nonzero-degree"])
    def test_probes_fail_validation(self, ring, needle):
        report = run(["validate", "--ring", json.dumps(ring)])
        assert report.exit_code == 1
        assert [(v.check, v.ok) for v in report.verdicts] == [("valid-ring", False)]
        assert report.verdicts[0].explanation.endswith(needle)
        assert run(["groups", "--cone", json.dumps({"base": ring}), "--r", "1", "--p", "1"]).exit_code == 2


class TestGroupsCompareSnfExact:
    def test_groups(self):
        report = run(["groups", "--cone", "zobel", "--r", "1", "--p", "2"])
        assert report.values["group"]["free_rank"] == 1
        assert report.values["group"]["name"] == "Z"

    def test_compare(self):
        report = run(["compare", "--cone", "zobel", "--r", "2", "--p-from", "0", "--p-to", "1"])
        assert report.values["map"]["matrix"] == [[1], [1]]

    def test_zobel_names_the_cone_over_the_quadric(self):
        from pervchow.cones import zobel
        from pervchow.serialize import parse_cone

        assert parse_cone("zobel") == parse_cone(" quadric ") == zobel().cone
        for tail in (
            ["intersect", "--a", "allowed:2:(1,0)", "--b", "allowed:2:(0,1)"],
            ["pairing", "--a", "allowed:2:(1,0)", "--b", "allowed:2:(0,1)"],
            ["groups", "--r", "1", "--p", "2"],
            ["compare", "--r", "2", "--p-from", "0", "--p-to", "1"],
        ):
            zobel_report = run([tail[0], "--cone", "zobel", *tail[1:]])
            assert machine(zobel_report) == machine(run([tail[0], "--cone", "quadric", *tail[1:]]))
            assert zobel_report.exit_code == 0

    def test_cone_over_named_base(self):
        report = run(["groups", "--cone", json.dumps({"base": "P2"}), "--r", "2", "--p", "1"])
        assert report.values["group"]["name"] == "Z"

    def test_cone_over_inline_presentation(self):
        ring = {
            "name": "user",
            "dim": 1,
            "basis": [["1"], ["a"]],
            "products": [],
            "hyperplane": [1],
            "degree": [0],
            "relations": {"1": [[2]]},
        }
        report = run(["groups", "--cone", json.dumps({"base": ring}), "--r", "1", "--p", "1"])
        assert report.values["group"]["name"] == "Z/2"

    def test_one_smith_form_per_torsion_group(self, monkeypatch):
        from pervchow import abgroup

        calls = []
        smith = abgroup.smith_normal_form
        monkeypatch.setattr(abgroup, "smith_normal_form", lambda *a, **k: calls.append(a) or smith(*a, **k))
        ring = {"dim": 1, "basis": [["1"], ["a"]], "hyperplane": [1], "degree": [0], "relations": {"1": [[2]]}}
        cone = json.dumps({"base": ring})
        report = run(["groups", "--cone", cone, "--r", "1", "--p", "1"])
        assert report.values["group"]["name"] == "Z/2" and len(calls) == 1
        calls.clear()
        # Z/2 -> Z/2: one form for each group; the map's relation check reads a Hermite basis
        report = run(["compare", "--cone", cone, "--r", "1", "--p-from", "1", "--p-to", "2"])
        assert report.values["map"]["target"]["name"] == "Z/2" and len(calls) == 2

    @staticmethod
    def smith_calls(monkeypatch):
        from pervchow import abgroup

        calls = []
        smith = abgroup.smith_normal_form
        monkeypatch.setattr(abgroup, "smith_normal_form", lambda *a, **k: calls.append(a) or smith(*a, **k))
        return calls

    def test_relation_checks_run_no_smith_form(self, monkeypatch):
        from pervchow.abgroup import FpAbelianGroup, GroupMap

        calls = self.smith_calls(monkeypatch)
        # h times the relation 2h is the relation 2p, and 2p has degree 0
        ring = {
            "dim": 2, "basis": [["1"], ["h"], ["p"]], "products": [{"a": "h", "b": "h", "value": {"p": 1}}],
            "hyperplane": [1], "degree": [0], "relations": {"1": [[2]], "2": [[2]]},
        }
        assert run(["validate", "--ring", json.dumps(ring)]).exit_code == 0
        # Z/2 + Z/3 -> Z/6 + Z, (x, y) -> (3x + 2y, 0)
        source = FpAbelianGroup(2, ((2, 0), (0, 3)))
        target = FpAbelianGroup(2, ((6, 0),))
        GroupMap(source, target, ((3, 2), (0, 0)))
        with pytest.raises(ValueError, match="does not send relation"):
            GroupMap(source, target, ((1, 2), (0, 0)))
        assert calls == []

    def test_exact_runs_no_smith_form(self, monkeypatch):
        # the kernel comes from a certified Hermite form, and the report names no group
        calls = self.smith_calls(monkeypatch)
        f = json.dumps({"source": {"rank": 1}, "target": {"rank": 1}, "matrix": [[2]]})
        g = json.dumps({"source": {"rank": 1}, "target": {"rank": 1, "relations": [[2]]}, "matrix": [[1]]})
        assert run(["exact", "--f", f, "--g", g]).values["exact"] is True
        assert calls == []

    def test_snf(self):
        report = run(["snf", "--matrix", "[[2,4],[6,8]]"])
        assert report.exit_code == 0
        assert report.values["snf"]["diagonal"] == [2, 4]
        u = report.values["snf"]["U"]
        v = report.values["snf"]["V"]
        s = report.values["snf"]["S"]
        m = [[2, 4], [6, 8]]
        prod = [[sum(u[i][k] * m[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
        prod = [[sum(prod[i][k] * v[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
        assert prod == s

    def test_snf_24x24_report_is_json(self, capsys):
        # Euclidean transforms once reached thousands of digits here, past
        # the int-to-str limit, so rendering raised and the CLI exited 1.
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            matrix = [[rng.randint(-9, 9) for _ in range(24)] for _ in range(24)]
            assert main(["snf", "--matrix", json.dumps(matrix)]) == 0
            assert json.loads(capsys.readouterr().out)["schema"] == 1

    def test_snf_prints_integers_past_the_digit_limit(self, capsys):
        # the lcm on the diagonal has about 8000 digits, past int-to-str's 4300
        a, b = int("7" * 4000), int("3" * 3999 + "1")
        matrix = f"[[{'7' * 4000},0],[0,{'3' * 3999}1]]"
        limit = sys.get_int_max_str_digits()
        for extra in ([], ["--pretty"]):
            assert main(["snf", "--matrix", matrix, *extra]) == 0
            assert sys.get_int_max_str_digits() == limit
            out = capsys.readouterr().out
            sys.set_int_max_str_digits(0)
            try:
                if extra:
                    out = out[out.index("{") : out.rindex("}") + 1]
                    doc = {"values": json.loads(out)}
                else:
                    doc = json.loads(out)
                    assert doc["schema"] == 1 and doc["ok"] is True
                assert doc["values"]["snf"]["diagonal"] == [math.gcd(a, b), math.lcm(a, b)]
            finally:
                sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("limit", [640, 0])
    @pytest.mark.parametrize("outcome", ["ok", "input-error", "self-check"])
    def test_the_interpreter_limit_is_the_same_after_each_command(self, monkeypatch, capsys, limit, outcome):
        from pervchow import abgroup

        digits = {"ok": 1000, "input-error": 5000, "self-check": 1}[outcome]
        argv = ["snf", "--matrix", f"[[{'7' * digits}, 0], [0, 2]]"]
        if outcome == "self-check":
            real = abgroup._hnf

            def corrupted(a, t):
                h, w = real(a, t)
                w[0][0] += 1
                return h, w

            monkeypatch.setattr(abgroup, "_hnf", corrupted)
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            report = run(argv)
            assert sys.get_int_max_str_digits() == limit
            assert report.exit_code == {"ok": 0, "input-error": 2, "self-check": 1}[outcome]
            for pretty in (False, True):
                report.render(pretty)
                assert sys.get_int_max_str_digits() == limit
            assert main(argv) == report.exit_code
            assert sys.get_int_max_str_digits() == limit
        finally:
            sys.set_int_max_str_digits(before)
        assert capsys.readouterr().out == report.render(False)

    def test_snf_input_keeps_the_digit_limit(self):
        report = run(["snf", "--matrix", f"[[{'7' * 5000}]]"])
        assert report.exit_code == 2
        assert "limit" in report.error

    def test_exact_true(self):
        f = json.dumps(
            {"source": {"rank": 1}, "target": {"rank": 1}, "matrix": [[2]]}
        )
        g = json.dumps(
            {"source": {"rank": 1}, "target": {"rank": 1, "relations": [[2]]}, "matrix": [[1]]}
        )
        report = run(["exact", "--f", f, "--g", g])
        assert report.exit_code == 0
        assert report.values["exact"] is True

    def test_exact_false_exits_1(self):
        f = json.dumps({"source": {"rank": 1}, "target": {"rank": 1}, "matrix": [[0]]})
        report = run(["exact", "--f", f, "--g", f])
        assert report.exit_code == 1


class TestTransformCommands:
    def test_push(self):
        report = run(
            ["push", "--pattern", N_PATTERN, "--c", "[0,0,1]", "--strata", "vertex3"]
        )
        assert report.exit_code == 0
        assert report.values["pattern"]["incidence"] == {"1": 0, "2": 0, "3": 0}

    def test_pull_shifts_everything(self):
        report = run(["pull", "--pattern", N_PATTERN, "--e", "2", "--strata", "vertex3"])
        assert report.values["pattern"]["dim"] == 3
        assert report.values["pattern"]["incidence"]["1"] == 2
        assert report.values["strata"]["dim"] == 5

    def test_suspend(self):
        report = run(["suspend", "--strata", "vertex3", "--pattern", N_PATTERN])
        assert report.values["pattern"]["dim"] == 2
        assert report.values["strata"]["dim"] == 4

    def test_join_slice_cap(self):
        a = json.dumps({"t": 1, "targetDim": 1, "excess": {"1": 0, "2": 0, "3": 1}})
        b = json.dumps({"t": 1, "targetDim": 1, "excess": {"1": 0, "2": 1, "3": 1}})
        joined = run(["join", "--a", a, "--b", b, "--strata", "vertex3"])
        assert joined.values["cocycle"] == {
            "t": 2,
            "targetDim": 3,
            "excess": {"1": 0, "2": 1, "3": 2},
        }
        sliced = run(["slice", "--cocycle", a, "--strata", "vertex3"])
        assert sliced.values["pattern"]["dim"] == 2
        capped = run(["cap", "--cocycle", a, "--pattern", N_PATTERN, "--strata", "vertex3"])
        assert capped.values["pattern"]["dim"] == 0

    def test_check_star(self):
        joint = json.dumps(
            {
                "a": {"dim": 2, "incidence": {"1": 0, "2": 0, "3": 0}},
                "b": {"dim": 1, "incidence": {"1": "empty", "2": "empty", "3": "empty"}},
                "joint": {"1": "empty", "2": "empty", "3": "empty"},
                "total": "empty",
            }
        )
        report = run(["check-star", "--joint", joint, "--c", "[0,0,0]", "--strata", "vertex3"])
        assert report.exit_code == 0

    def test_check_cocycle(self):
        doc = json.dumps({"t": 3, "targetDim": 3, "excess": {"1": 0, "2": 0, "3": 1}})
        good = run(["check-cocycle", "--cocycle", doc, "--perversity", "[0,1,1]", "--strata", "vertex3"])
        assert good.exit_code == 0
        bad = run(["check-cocycle", "--cocycle", doc, "--perversity", "[0,0,0]", "--strata", "vertex3"])
        assert bad.exit_code == 1

    def test_validate(self):
        report = run(["validate", "--perversity", "[0,1,1]", "--strata", "vertex3"])
        assert report.exit_code == 0
        report = run(["validate", "--perversity", "[0,2,2]"])
        assert report.exit_code == 1


class TestRoundTripAndDeterminism:
    def test_emitted_values_reparse(self):
        from pervchow.cones import zobel
        from pervchow.serialize import parse_cocycle, parse_cone_class

        cocycle_doc = json.dumps({"t": 1, "targetDim": 1, "excess": {"1": 0, "2": 0, "3": 1}})
        joined = run(["join", "--a", cocycle_doc, "--b", cocycle_doc, "--strata", "vertex3"])
        strata = parse_stratification("vertex3")
        out = parse_cocycle(joined.values["cocycle"], strata)
        assert out.t == 2 and out.excess == {1: 0, 2: 0, 3: 2}

        result = run(["intersect", "--cone", "zobel", "--a", "allowed:2:(1,0)", "--b", "allowed:2:(0,1)"])
        cls = parse_cone_class(result.values["class"], zobel().cone)
        assert cls.payload.coeffs == (1,)

    def test_pattern_round_trip(self):
        report = run(["pull", "--pattern", N_PATTERN, "--e", "1", "--strata", "vertex3"])
        strata = parse_stratification(report.values["strata"])
        pattern = parse_pattern(report.values["pattern"], strata)
        again = run(
            [
                "check-cycle",
                "--pattern",
                json.dumps(report.values["pattern"]),
                "--perversity",
                "[0,1,2]",
                "--strata",
                json.dumps(report.values["strata"]),
            ]
        )
        assert again.exit_code in (0, 1)
        assert pattern.r == 2

    def test_byte_identical_runs(self):
        argv = ["catalog", "zobel", "--verify"]
        assert machine(run(argv)) == machine(run(argv))

    def test_schema_emission(self):
        doc = emit_schema("check-star")
        text = json.dumps(doc)
        for needle in ("joint", "total", "c"):
            assert needle in text
        doc = emit_schema("groups")
        text = json.dumps(doc)
        for needle in ("cone", "r", "p"):
            assert needle in text
        with pytest.raises(ValueError):
            emit_schema("bogus")

    def test_schema_command(self):
        report = run(["schema", "check-star"])
        assert report.exit_code == 0
        assert "--joint" in report.values["inputs"]


class TestCatalog:
    def test_verify_exits_zero(self):
        report = run(["catalog", "zobel", "--verify"])
        assert report.exit_code == 0
        assert all(v.ok for v in report.verdicts)

    def test_unknown_catalog(self):
        report = run(["catalog", "unknown"])
        assert report.exit_code == 2

    def test_golden_file(self):
        expected = (GOLDEN / "catalog_zobel.json").read_text()
        assert machine(run(["catalog", "zobel", "--verify"])) == expected

    def test_main_prints_and_returns(self, capsys):
        code = main(["catalog", "zobel", "--verify"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["ok"] is True

    def test_pretty_output(self, capsys):
        code = main(["--pretty", "check-cycle", "--pattern", N_PATTERN, "--perversity", "[0,0,0]", "--strata", "vertex3"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL" in captured.out


class TestCommandContract:
    """The command surface that scripts and tools rely on."""

    def test_schema_golden_all_commands(self):
        from pervchow import cli

        golden = json.loads((GOLDEN / "schema_commands.json").read_text())
        assert sorted(golden) == sorted(cli._HANDLERS)
        assert len(golden) == 18
        for command, doc in golden.items():
            expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
            assert machine(run(["schema", command])) == expected, command

    def test_pretty_before_or_after_command(self, capsys):
        argv = ["check-cycle", "--pattern", N_PATTERN, "--perversity", "[0,0,0]", "--strata", "vertex3"]
        outputs = []
        for args in (["--pretty", *argv], [*argv, "--pretty"], [argv[0], "--pretty", *argv[1:]]):
            assert main(args) == 1
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].startswith("command: check-cycle\n[FAIL]")
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().out)["ok"] is False

    def test_run_dispatches_through_handlers_at_call_time(self, monkeypatch):
        from pervchow import cli

        seen = []

        def fake(args):
            seen.append(args.matrix)
            return [], {"fake": True}

        monkeypatch.setitem(cli._HANDLERS, "snf", fake)
        report = run(["snf", "--matrix", "[[2]]"])
        assert seen == [[[2]]]  # run reads the document before the handler runs
        assert report.values == {"fake": True}

    @pytest.mark.parametrize(
        "case",
        json.loads((GOLDEN / "calculus_cli.json").read_text()),
        ids=lambda case: next(arg for arg in case["argv"] if arg != "--pretty"),
    )
    def test_calculus_golden(self, case, capsys):
        # seeded cases over the nine incidence-calculus commands: passing,
        # failed checks, violated preconditions, and --pretty on either side
        assert main(case["argv"]) == case["exit"]
        assert capsys.readouterr().out == case["stdout"]


class TestSelfCheckFailure:
    """A result that fails its own exact check exits 1 with a JSON report, not a traceback."""

    def test_corrupted_smith_form_exits_1(self, monkeypatch, capsys):
        from pervchow import abgroup

        real = abgroup._hnf

        def corrupted(a, t):
            h, w = real(a, t)
            if w and w[0]:
                w[0][0] += 1
            return h, w

        monkeypatch.setattr(abgroup, "_hnf", corrupted)
        assert main(["snf", "--matrix", "[[2,4],[6,8]]"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1 and doc["ok"] is False
        assert doc["verdicts"] == [
            {"check": "self-check", "ok": False, "explanation": "Smith form does not reproduce the input matrix"}
        ]

    def test_failed_lattice_witness_exits_1(self, monkeypatch):
        from pervchow import abgroup

        real = abgroup._hnf

        def corrupted(a, t):
            h, w = real(a, t)
            if w and w[0]:
                w[0][0] += 1  # a transform that no longer gives the Hermite basis
            return h, w

        monkeypatch.setattr(abgroup, "_hnf", corrupted)
        g = json.dumps({"source": {"rank": 1}, "target": {"rank": 1, "relations": [[2]]}, "matrix": [[1]]})
        f = json.dumps({"source": {"rank": 1}, "target": {"rank": 1}, "matrix": [[2]]})
        report = run(["exact", "--f", f, "--g", g])
        assert report.exit_code == 1
        assert [(v.check, v.ok, v.explanation) for v in report.verdicts] == [
            ("self-check", False, "Hermite transform does not reproduce the basis")
        ]

    def test_failed_self_check_reports_that_verdict_alone(self, monkeypatch):
        # what the handler found before its check failed is not reported
        from pervchow import cli
        from pervchow._value import VerificationError

        def failing(args):
            verdicts, values = cli._cmd_snf(args)
            assert verdicts and values
            raise VerificationError("Smith form does not reproduce the input matrix")

        monkeypatch.setitem(cli._HANDLERS, "snf", failing)
        report = run(["snf", "--matrix", "[[2]]"])
        assert report.exit_code == 1 and report.error is None and report.values == {}
        assert [(v.check, v.ok, v.explanation) for v in report.verdicts] == [
            ("self-check", False, "Smith form does not reproduce the input matrix")
        ]
        assert json.loads(machine(report))["values"] == {}

    def test_recursion_error_is_not_a_check_failure(self, monkeypatch):
        # RecursionError is a RuntimeError too, but no failed self-check: run reports it with exit 2
        from pervchow import cli

        def deep(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setitem(cli._HANDLERS, "snf", deep)
        report = run(["snf", "--matrix", "[[2]]"])
        assert report.exit_code == 2 and report.verdicts == []
        assert report.error == "unexpected RecursionError: maximum recursion depth exceeded"
        assert json.loads(machine(report))["error"] == {"message": report.error}


class TestHostileInput:
    """Malformed numbers and pathological JSON exit 2 with a report."""

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        for source in (str(path), "[" * 100000):
            assert main(["snf", "--matrix", source]) == 2
            doc = json.loads(capsys.readouterr().out)
            assert doc["schema"] == 1 and "JSON" in doc["error"]["message"]

    @pytest.mark.parametrize("long_path", [False, True], ids=["short-path", "long-path"])
    @pytest.mark.parametrize("argv, text, message", [
        (["check-cycle", "--perversity", "[0,0,0]", "--strata", "vertex3", "--pattern"],
         '{"dim": 1, "dim": 2, "incidence": {}}', "JSON object repeats the key 'dim'"),
        (["snf", "--matrix"], "[[" + "9" * 5000 + "]]", "JSON integer has 5000 digits; the limit is 4300"),
    ], ids=["repeated-key", "long-integer"])
    def test_document_errors_name_the_file(self, tmp_path, argv, text, message, long_path):
        from pervchow._value import echo

        path = tmp_path / "doc.json"
        path.write_text(text)
        # each "./" is dropped when the path is opened, so the file is read through a 5000-character name
        source = str(path) if not long_path else f"{tmp_path}/{'./' * 2500}doc.json"
        report = run(argv + [source])
        assert report.exit_code == 2 and report.verdicts == []
        assert report.error == f"{message} in {echo(source)}"
        assert len(report.error) < 200
        # inline, the same document's message names no file
        assert run(argv + [text]).error == message

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-cycle", "--pattern", L_PATTERN, "--perversity", "[0,0.9,1.5]", "--strata", "vertex3"],
            ["check-cycle", "--pattern", L_PATTERN, "--perversity", "[0,false,true]", "--strata", "vertex3"],
            ["check-cycle", "--pattern", L_PATTERN, "--perversity", "[0,null,1]", "--strata", "vertex3"],
            ["snf", "--matrix", "[[1.5]]"],
            ["snf", "--matrix", "[[true]]"],
            ["intersect", "--cone", "zobel", "--a", '{"r":2.5,"p":1,"payload":[1.9,0]}', "--b", "allowed:2:(0,1)"],
            ["intersect", "--cone", "zobel", "--a", '{"r":2,"p":1,"payload":[1.9,0]}', "--b", "allowed:2:(0,1)"],
            ["groups", "--cone", '{"base":{"dim":1,"basis":[["1"],["h"]],"hyperplane":[1],"degree":[1.5]}}', "--r", "1", "--p", "0"],
            ["pull", "--pattern", '{"dim":1.0,"incidence":{"1":0}}', "--e", "1", "--strata", "vertex1"],
            ["join", "--a", '{"t":1,"targetDim":1,"excess":{"1":true}}', "--b",
             '{"t":1,"targetDim":1,"excess":{"1":0}}', "--strata", "vertex1"],
            ["exact", "--f", '{"source":{"rank":1},"target":{"rank":1.0},"matrix":[[1]]}', "--g",
             '{"source":{"rank":1},"target":{"rank":0},"matrix":[]}'],
        ],
    )
    def test_non_integer_numbers_exit_2(self, argv):
        report = run(argv)
        assert report.exit_code == 2, report.values
        assert "integer" in report.error

    def test_over_long_argument_exits_2(self, capsys):
        # too long for a file name, so it is read as a shorthand, not a path
        for argv in (["snf", "--matrix", "a" * 5000], ["suspend", "--strata", "v" * 5000]):
            assert main(argv) == 2
            doc = json.loads(capsys.readouterr().out)
            assert doc["schema"] == 1 and doc["ok"] is False and doc["error"]["message"]

    @pytest.mark.parametrize(
        "argv, command, needle",
        [
            (["check-cycle", "--pattern", "x"], "check-cycle", "the following arguments are required"),
            (["nosuch"], "pervchow", "invalid choice: 'nosuch'"),
            (["groups", "--cone", "zobel", "--r", "x", "--p", "0"], "groups", "invalid int value: 'x'"),
        ],
        ids=["missing-flags", "unknown-command", "bad-integer"],
    )
    def test_usage_errors_are_reports(self, argv, command, needle, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["schema"] == 1 and doc["ok"] is False and doc["command"] == command
        assert needle in doc["error"]["message"]
        assert captured.err == ""

    def test_help_still_exits_0(self, capsys):
        for argv in (["--help"], ["check-cycle", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith("usage: pervchow")

    def test_negative_ncols_exits_2(self):
        report = run(["snf", "--matrix", "[]", "--ncols", "-3"])
        assert report.exit_code == 2
        assert "ncols" in report.error

    # a dim-2000 document ring: one symbol per codimension and no products,
    # whose associativity walk alone would visit about 10^8 triples
    LONG_RING = json.dumps({
        "dim": 2000,
        "basis": [["1"]] + [[f"h{k}"] for k in range(1, 2001)],
        "hyperplane": [1],
        "degree": [1],
    })

    @pytest.mark.parametrize(
        "cone, needle",
        [
            ("P2000", "2001 basis symbols; the limit is 128"),
            ("product(P100,P100)", "10201 basis symbols; the limit is 128"),
            ("P128", "129 basis symbols; the limit is 128"),
            (json.dumps({"base": json.loads(LONG_RING)}), "2001 basis symbols; the limit is 128"),
            ("product(point," * 3000 + "P1" + ")" * 3000, "nested too deeply"),
            ("product(" * 3000 + "point" + ",point)" * 3000, "nested too deeply"),
        ],
        ids=["P2000", "product-P100-P100", "P128", "document", "deep-nesting", "deep-left-nesting"],
    )
    def test_oversized_ring_exits_2_before_building(self, cone, needle, capsys):
        start = time.perf_counter()
        assert main(["groups", "--cone", cone, "--r", "1", "--p", "0"]) == 2
        assert time.perf_counter() - start < 1.0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1 and doc["ok"] is False
        assert needle in doc["error"]["message"]

    def test_oversized_document_ring_fails_validation(self):
        report = run(["validate", "--ring", self.LONG_RING])
        assert report.exit_code == 1
        assert "the limit is 128" in report.verdicts[0].explanation

    @staticmethod
    def dense_ring(k1, k2, k3):
        """A dim-3 ring document with k1, k2, k3 symbols per codimension.

        Every product of two non-unit symbols is the sum of all symbols of its
        codimension, which is associative: (ab)c = a(bc) = k2 times the sum of
        codimension 3.
        """
        basis = [["1"]] + [[f"s{k}_{n}" for n in range(size)] for k, size in enumerate((k1, k2, k3), 1)]
        products = [
            {"a": a, "b": b, "value": dict.fromkeys(basis[i + j], 1)}
            for i, j in ((1, 1), (1, 2))
            for n, a in enumerate(basis[i])
            for b in basis[j][n if i == j else 0 :]
        ]
        return {"dim": 3, "basis": basis, "products": products, "hyperplane": [1] + [0] * (k1 - 1), "degree": [1] * k3}

    @pytest.mark.parametrize(
        "sizes, code, constants",
        [((42, 42, 42), 2, 112014), ((15, 13, 13), 0, MAX_RING_CONSTANTS - 1)],
        ids=["42-per-level", "just-inside-the-limit"],
    )
    def test_dense_ring_document_is_bounded_before_building(self, sizes, code, constants):
        doc = self.dense_ring(*sizes)
        assert sum(len(entry["value"]) for entry in doc["products"]) == constants
        cone = json.dumps({"base": doc})
        start = time.perf_counter()
        report = run(["groups", "--cone", cone, "--r", "1", "--p", "0"])
        assert time.perf_counter() - start < 1.0
        assert report.exit_code == code, report.error
        if code == 2:
            assert f"{constants} nonzero structure constants; the limit is {MAX_RING_CONSTANTS}" in report.error

    def test_largest_builtin_ring_round_trips_under_the_constant_limit(self):
        ring = builtin("P127")
        doc = ring_to_json(ring)
        assert sum(len(entry["value"]) for entry in doc["products"]) == 4032
        assert parse_ring(doc) == ring

    def test_ring_document_of_the_wrong_shape_exits_2(self):
        # "relations" must be an object keyed by codimension, and "[1]" has no items()
        cone = '{"base":{"dim":1,"basis":[["1"],["h"]],"degree":[1],"relations":[1]}}'
        report = run(["groups", "--cone", cone, "--r", "0", "--p", "0"])
        assert report.exit_code == 2
        assert report.error.startswith("bad ring presentation:")

    def test_ring_product_value_of_the_wrong_shape_fails_validation(self):
        ring = {"dim": 1, "basis": [["1"], ["h"]], "degree": [1], "products": [{"a": "h", "b": "h", "value": [1]}]}
        report = run(["validate", "--ring", json.dumps(ring)])
        assert report.exit_code == 1
        assert [(v.check, v.ok) for v in report.verdicts] == [("valid-ring", False)]
        assert report.verdicts[0].explanation.startswith("bad ring presentation:")
        assert json.loads(machine(report))["schema"] == 1

    def test_oversized_vertex_shorthand_exits_2_before_building(self):
        start = time.perf_counter()
        report = run(["suspend", "--strata", "vertex100000000"])
        assert time.perf_counter() - start < 1.0
        assert report.exit_code == 2
        assert report.error == "vertex<d> takes d up to 1024, got 100000000"
        assert run(["suspend", "--strata", "vertex1025"]).exit_code == 2

    def test_vertex_limit_admits_vertex1024(self):
        assert parse_stratification("vertex1024").depth == 1024
        assert parse_stratification("vertex01024").depth == 1024
        assert run(["suspend", "--strata", "vertex1024"]).exit_code == 0

    def test_oversized_ncols_exits_2_before_building(self):
        start = time.perf_counter()
        report = run(["snf", "--matrix", "[]", "--ncols", "100000000"])
        assert time.perf_counter() - start < 1.0
        assert report.exit_code == 2
        assert report.error == "a matrix takes at most 64 columns, got 100000000"

    @pytest.mark.parametrize("rows, digits", [(8, 4000), (16, 302)], ids=["8x8-4000-digits", "16x16-1000-bits"])
    def test_oversized_entries_exit_2_before_building(self, rows, digits):
        # random entries: before the bit limit these took about 11 s and 3 s to answer
        rng = random.Random(rows)
        matrix = [[rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(rows)]
                  for _ in range(rows)]
        start = time.perf_counter()
        report = run(["snf", "--matrix", json.dumps(matrix)])
        assert time.perf_counter() - start < 1.0
        assert report.exit_code == 2
        bits = sum(x.bit_length() for row in matrix for x in row)
        assert report.error == f"a matrix takes at most 32768 bits of entries, got {bits}"

    def test_matrix_limit_admits_64_and_rejects_65_rows(self):
        rng = random.Random(64)
        square = [[rng.randint(-9, 9) for _ in range(64)] for _ in range(64)]
        assert run(["snf", "--matrix", json.dumps(square)]).exit_code == 0
        assert run(["snf", "--matrix", "[]", "--ncols", "64"]).exit_code == 0
        report = run(["snf", "--matrix", json.dumps([[1]] * 65)])
        assert report.exit_code == 2
        assert report.error == "a matrix takes at most 64 rows, got 65"

    @staticmethod
    def identity_map(rank, target_relations=()):
        matrix = [[int(i == j) for j in range(rank)] for i in range(rank)]
        target = {"rank": rank, "relations": [list(row) for row in target_relations]}
        return json.dumps({"source": {"rank": rank}, "target": target, "matrix": matrix})

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["exact", "--f", identity_map(65), "--g", identity_map(65)], "a group takes at most 64 generators, got 65"),
            (["exact", "--f", identity_map(1), "--g", identity_map(1, [[2]] * 65)],
             "a group takes at most 64 relations, got 65"),
            (["groups", "--cone", json.dumps({"base": {
                "dim": 1, "basis": [["1"], ["a"]], "hyperplane": [1], "degree": [0], "relations": {"1": [[2]] * 65}}}),
              "--r", "1", "--p", "1"], "ring codimension 1 takes at most 64 relations, got 65"),
        ],
        ids=["map-rank-65", "65-group-relations", "65-ring-relations"],
    )
    def test_oversized_group_exits_2_before_any_smith_form(self, argv, needle):
        start = time.perf_counter()
        report = run(argv)
        assert time.perf_counter() - start < 1.0
        assert report.exit_code == 2
        assert report.error.endswith(needle)

    @pytest.mark.parametrize(
        "relation_bits, needle",
        [(3000, "a group takes at most 32768 bits of entries, got "),
         (4, "a group map takes at most 32768 bits of entries, got "),
         (4000, "ring codimension 1 takes at most 32768 bits of entries, got ")],
        ids=["3000-bit-relations", "3000-bit-map", "4000-bit-ring-relations"],
    )
    def test_oversized_group_entries_exit_2_before_any_lattice(self, relation_bits, needle):
        # a rank-8 map of 3000-bit entries into 8 relation rows: before the bit
        # limit `exact` took 4-7 s to answer; 16 relations on 16 ring symbols
        # with 4000-bit entries took 7.8 s to validate and longer to answer `groups`
        rng = random.Random(8)

        def entries(bits, n=8):
            return [[rng.choice((-1, 1)) * rng.getrandbits(bits) for _ in range(n)] for _ in range(n)]

        if needle.startswith("ring"):
            ring = {"dim": 1, "basis": [["1"], [f"a{i}" for i in range(16)]], "hyperplane": [1] * 16,
                    "degree": [0] * 16, "relations": {"1": entries(relation_bits, 16)}}
            runs = [["groups", "--cone", json.dumps({"base": ring}), "--r", "1", "--p", "1"],
                    ["validate", "--ring", json.dumps(ring)]]
        else:
            target = {"rank": 8, "relations": entries(relation_bits)}
            g = json.dumps({"source": {"rank": 8}, "target": target, "matrix": entries(3000)})
            runs = [["exact", "--f", self.identity_map(8), "--g", g]]
        for argv in runs:
            start = time.perf_counter()
            report = run(argv)
            assert time.perf_counter() - start < 1.0
            if argv[0] == "validate":
                [verdict] = report.verdicts
                assert verdict.check == "valid-ring" and not verdict.ok and needle in verdict.explanation
            else:
                assert report.exit_code == 2
                assert needle in report.error

    def test_group_limit_admits_64(self):
        # doubling on Z^64, then the quotient onto (Z/2)^64: exact, with 64 generators and 64 relations
        two = [[2 * (i == j) for j in range(64)] for i in range(64)]
        double = json.dumps({"source": {"rank": 64}, "target": {"rank": 64}, "matrix": two})
        assert run(["exact", "--f", double, "--g", self.identity_map(64, two)]).exit_code == 0
        ring = {"dim": 1, "basis": [["1"], ["a"]], "hyperplane": [1], "degree": [0], "relations": {"1": [[2]] * 64}}
        report = run(["groups", "--cone", json.dumps({"base": ring}), "--r", "1", "--p", "1"])
        assert report.values["group"]["name"] == "Z/2"

    def test_exact_answers_at_the_group_limit_in_time(self):
        # rank-64 maps into a group with 64 random relation rows in [-9, 9]: the Hermite
        # form of g's graph (128 rows) is the costliest part; about 1.4-1.8 s on a 2-vCPU VM
        rng = random.Random(64)

        def square():
            return [[rng.randint(-9, 9) for _ in range(64)] for _ in range(64)]

        target = {"rank": 64, "relations": square()}
        g = json.dumps({"source": {"rank": 64}, "target": target, "matrix": square()})
        f = json.dumps({"source": {"rank": 64}, "target": {"rank": 64}, "matrix": square()})
        start = time.perf_counter()
        report = run(["exact", "--f", f, "--g", g])
        assert time.perf_counter() - start < 5.0
        assert report.exit_code == 1
        assert [(v.check, v.ok) for v in report.verdicts] == [("exact-at-middle", False)]

    def test_slice_reads_against_before_slicing(self):
        # every document is read before the handler runs, so a malformed
        # --against is reported ahead of the hyperplane-count precondition
        cocycle = '{"t":1,"targetDim":1,"excess":{"1":0,"2":0,"3":1}}'
        argv = ["slice", "--cocycle", cocycle, "--count", "2", "--strata", "vertex3"]
        assert run(argv).error == "need exactly t=1 hyperplanes, got 2"
        report = run(argv + ["--against", "[1]"])
        assert report.exit_code == 2
        assert report.error == "a cycle pattern must be an object"

    def test_ring_limit_admits_the_rings_in_use(self):
        # the largest built-ins the tests and the benchmark construct
        for name in ("P40", "product(P5,P5)", "product(quadric,P8)", "product(product(P2,P2),P3)"):
            assert run(["groups", "--cone", name, "--r", "1", "--p", "0"]).exit_code == 0
