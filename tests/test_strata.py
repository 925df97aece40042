import json

import pytest

from pervchow.cli import run
from pervchow.serialize import parse_stratification, stratification_to_json
from pervchow.strata import (
    GENERIC,
    ModelTag,
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
        assert s.model.kind == "product" and s.model.fiber_dim == 1

    def test_product_with_zero_fiber_is_identity(self):
        s = isolated_vertex(2)
        assert product_with_fiber(s, 0) is s

    def test_product_preserves_generic_bounds(self):
        base = Stratification(3, (StratumSpec(1, 2, "sing"),), GENERIC)
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
        # the tag takes no part in equality, so compare it on its own
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
    with pytest.raises(ValueError, match="fiber_dim must be nonnegative, got -1"):
        ModelTag("product", fiber_dim=-1, base=GENERIC)
    doc = {"dim": 1, "strata": [{"i": 1, "codim": 1}], "model": {"kind": "product", "fiber_dim": -5}}
    report = run(["suspend", "--strata", json.dumps(doc)])
    assert report.exit_code == 2
    assert report.error == "bad stratification document: fiber_dim must be nonnegative, got -5"
    # a nonnegative fiber is still read, a zero one included
    doc["model"]["fiber_dim"] = 0
    assert run(["suspend", "--strata", json.dumps(doc)]).exit_code == 0
