import json

import pytest

from pervchow.cli import run
from pervchow.serialize import parse_stratification, stratification_to_json
from pervchow.strata import (
    Stratification,
    StratumSpec,
    isolated_vertex,
    product_with_fiber,
    suspend,
)


class TestIsolatedVertex:
    def test_depth_three(self):
        s = isolated_vertex(3)
        assert s.ambient_dim == 3
        assert s.depth == 3
        assert all(st.codim_lower_bound == 3 for st in s.strata)
        assert all(st.label == "vertex" for st in s.strata)

    def test_depth_one(self):
        s = isolated_vertex(1)
        assert s.depth == 1
        assert s.strata[0].codim_lower_bound == 1

    def test_depth_four(self):
        s = isolated_vertex(4)
        assert s.indices() == (1, 2, 3, 4)
        assert all(st.codim_lower_bound == 4 for st in s.strata)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            isolated_vertex(0)


class TestValidation:
    def test_codim_below_index_rejected(self):
        with pytest.raises(ValueError):
            Stratification(3, (StratumSpec(1, 0),))

    def test_noncontiguous_indices_rejected(self):
        with pytest.raises(ValueError):
            Stratification(3, (StratumSpec(2, 2),))

    def test_depth_beyond_ambient_rejected(self):
        with pytest.raises(ValueError):
            Stratification(1, (StratumSpec(1, 1), StratumSpec(2, 2)))

    def test_smooth_descriptor_allowed(self):
        s = Stratification(2, ())
        assert s.depth == 0


class TestProductAndSuspend:
    def test_product_keeps_bounds(self):
        s = product_with_fiber(isolated_vertex(3), 1)
        assert s.ambient_dim == 4
        assert s.depth == 3
        assert all(st.codim_lower_bound == 3 for st in s.strata)
        assert s.model == (1, "vertex")

    def test_product_with_zero_fiber_is_identity(self):
        s = isolated_vertex(2)
        assert product_with_fiber(s, 0) is s

    def test_product_preserves_generic_bounds(self):
        base = Stratification(3, (StratumSpec(1, 2, "sing"),), "generic")
        out = product_with_fiber(base, 2)
        assert out.ambient_dim == 5
        assert out.strata == base.strata

    def test_suspend_vertex(self):
        s = suspend(isolated_vertex(2))
        assert s.ambient_dim == 3
        assert s.depth == 2
        assert all(st.codim_lower_bound == 2 for st in s.strata)

    def test_iterated_suspension_raises_ambient(self):
        s = isolated_vertex(2)
        for t in range(1, 4):
            s = suspend(s)
            assert s.ambient_dim == 2 + t

    def test_suspend_smooth_is_smooth(self):
        s = suspend(Stratification(2, ()))
        assert s.depth == 0 and s.ambient_dim == 3

    def test_suspend_commutes_with_product(self):
        for base in (isolated_vertex(2), Stratification(3, (StratumSpec(1, 2, "s"),))):
            for n in (0, 1, 3):
                left = suspend(product_with_fiber(base, n))
                right = product_with_fiber(suspend(base), n)
                assert left == right


class TestJson:
    def test_round_trip_vertex(self):
        s = isolated_vertex(3)
        parsed = parse_stratification(stratification_to_json(s))
        # the model takes no part in equality, so compare it on its own
        assert parsed == s and parsed.model == s.model

    def test_round_trip_product(self):
        s = product_with_fiber(isolated_vertex(2), 2)
        parsed = parse_stratification(stratification_to_json(s))
        assert parsed == s and parsed.model == s.model

    def test_vertex_shorthand(self):
        assert parse_stratification("vertex3") == isolated_vertex(3)

    def test_model_string_is_vertex(self):
        doc = stratification_to_json(isolated_vertex(2))
        assert doc["model"] == "vertex"

    def test_explicit_document(self):
        doc = {
            "dim": 3,
            "strata": [{"i": 1, "codim": 2, "label": "sing"}],
            "model": "generic",
        }
        s = parse_stratification(doc)
        assert s.ambient_dim == 3
        assert s.strata == (StratumSpec(1, 2, "sing"),)


def test_a_negative_fiber_dimension_is_rejected():
    doc = {"dim": 1, "strata": [{"i": 1, "codim": 1}], "model": {"kind": "product", "fiber_dim": -5}}
    report = run(["suspend", "--strata", json.dumps(doc)])
    assert report.exit_code == 2
    assert report.error == "bad stratification document: fiber_dim must be nonnegative, got -5"
    # a nonnegative fiber is still read, a zero one included
    doc["model"]["fiber_dim"] = 0
    assert run(["suspend", "--strata", json.dumps(doc)]).exit_code == 0


# -- the model: a plain value that serialize alone spells as a document -----------------------------

VERTEX_ON_VERTEX = {"kind": "product", "fiber_dim": 1, "base": "vertex"}
PRODUCT_OF_PRODUCT = {"kind": "product", "fiber_dim": 3, "base": {"kind": "product", "fiber_dim": 0, "base": "generic"}}


@pytest.mark.parametrize(
    "given, printed",
    [
        (None, "generic"),
        ("generic", "generic"),
        ("vertex", "vertex"),
        ("isolated_vertex", "vertex"),
        ({"kind": "product", "fiber_dim": 1}, {"kind": "product", "fiber_dim": 1, "base": "generic"}),
        ({"kind": "product", "fiber_dim": "1", "base": "isolated_vertex"}, VERTEX_ON_VERTEX),
        (PRODUCT_OF_PRODUCT, PRODUCT_OF_PRODUCT),
        ({**PRODUCT_OF_PRODUCT, "base": {**PRODUCT_OF_PRODUCT["base"], "base": None}}, PRODUCT_OF_PRODUCT),
    ],
    ids=["null", "generic", "vertex", "isolated_vertex", "product", "product-spelled", "nested", "nested-null"],
)
def test_every_model_spelling_reads_and_prints_back(given, printed):
    doc = {"dim": 2, "strata": [{"i": 1, "codim": 1}], "model": given}
    report = run(["suspend", "--strata", json.dumps(doc)])
    assert report.exit_code == 0
    assert report.values["strata"]["model"] == printed
    # a read nested product stays nested; only product_with_fiber flattens
    assert run(["suspend", "--strata", json.dumps(report.values["strata"])]).values["strata"]["model"] == printed


def test_pull_of_a_pull_and_suspend_of_a_product_print_one_flat_product():
    first = run(["pull", "--pattern", '{"dim":1,"incidence":{"1":0,"2":0}}', "--e", "1", "--strata", "vertex2"])
    assert first.values["strata"]["model"] == VERTEX_ON_VERTEX
    pattern, strata = (json.dumps(first.values[key]) for key in ("pattern", "strata"))
    second = run(["pull", "--pattern", pattern, "--e", "2", "--strata", strata])
    flat = {"kind": "product", "fiber_dim": 3, "base": "vertex"}
    assert second.values["strata"]["model"] == flat and second.values["strata"]["dim"] == 5
    suspended = run(["suspend", "--strata", json.dumps(second.values["strata"])])
    assert suspended.values["strata"]["model"] == flat and suspended.values["strata"]["dim"] == 6
    assert product_with_fiber(product_with_fiber(isolated_vertex(2), 1), 2).model == (3, "vertex")


def test_a_bool_fiber_dimension_prints_as_an_int():
    doc = stratification_to_json(product_with_fiber(isolated_vertex(1), True))
    assert json.dumps(doc["model"]) == '{"kind": "product", "fiber_dim": 1, "base": "vertex"}'


@pytest.mark.parametrize(
    "model, error",
    [
        ({"kind": "product", "fiber_dim": -5, "base": "cone"}, "unknown stratification model 'cone'"),
        ({"kind": "product", "fiber_dim": -5, "base": {"kind": "product", "fiber_dim": -1}},
         "fiber_dim must be nonnegative, got -1"),
        ({"kind": "product", "fiber_dim": "x", "base": "cone"}, "invalid literal for int() with base 10: 'x'"),
        ({"kind": "product", "fiber_dim": True}, "expected an integer, got True"),
        ({"kind": "product", "base": "cone"}, "'fiber_dim'"),
        ({"kind": "cone"}, "unknown stratification model {'kind': 'cone'}"),
    ],
    ids=["negative-bad-base", "negative-negative-base", "text-bad-base", "bool", "missing", "unknown-kind"],
)
def test_a_model_with_several_faults_reports_the_first_read(model, error):
    # the fiber dimension is read, then the base, then the fiber dimension's sign is checked
    doc = {"dim": 1, "strata": [{"i": 1, "codim": 1}], "model": model}
    report = run(["suspend", "--strata", json.dumps(doc)])
    assert report.exit_code == 2
    assert report.error == f"bad stratification document: {error}"
