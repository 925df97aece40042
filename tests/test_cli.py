import json
import random
from pathlib import Path

import pytest

from pervchow.cli import emit_schema, main, run
from pervchow.serialize import parse_pattern, parse_stratification

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


class TestGroupsCompareSnfExact:
    def test_groups(self):
        report = run(["groups", "--cone", "zobel", "--r", "1", "--p", "2"])
        assert report.values["group"]["free_rank"] == 1
        assert report.values["group"]["name"] == "Z"

    def test_compare(self):
        report = run(["compare", "--cone", "zobel", "--r", "2", "--p-from", "0", "--p-to", "1"])
        assert report.values["map"]["matrix"] == [[1], [1]]

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
            "degree": [1],
            "relations": {"1": [[2]]},
        }
        report = run(["groups", "--cone", json.dumps({"base": ring}), "--r", "1", "--p", "1"])
        assert report.values["group"]["name"] == "Z/2"

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

        def fake(args, report):
            seen.append(args.matrix)
            report.values["fake"] = True

        monkeypatch.setitem(cli._HANDLERS, "snf", fake)
        report = run(["snf", "--matrix", "[[2]]"])
        assert seen == ["[[2]]"]
        assert report.values == {"fake": True}


class TestHostileInput:
    """Malformed numbers and pathological JSON exit 2 with a report."""

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        for source in (str(path), "[" * 100000):
            assert main(["snf", "--matrix", source]) == 2
            doc = json.loads(capsys.readouterr().out)
            assert doc["schema"] == 1 and "JSON" in doc["error"]["message"]

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

    def test_negative_ncols_exits_2(self):
        report = run(["snf", "--matrix", "[]", "--ncols", "-3"])
        assert report.exit_code == 2
        assert "ncols" in report.error
