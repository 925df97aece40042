import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pervchow
from pervchow.cli import run
from pervchow.cycles import CyclePattern
from pervchow.serialize import InputError, parse_pattern, parse_stratification, pattern_to_json, stratification_to_json
from pervchow.strata import Stratification, isolated_vertex, product_with_fiber, suspend


class TestIsolatedVertex:
    def test_depth_three(self):
        s = isolated_vertex(3)
        assert s.ambient_dim == 3
        assert s.depth == 3
        assert s.strata == ((3, "vertex"),) * 3

    def test_depth_one(self):
        s = isolated_vertex(1)
        assert s.depth == 1
        assert s.strata == ((1, "vertex"),)

    def test_depth_four(self):
        s = isolated_vertex(4)
        assert s.indices() == (1, 2, 3, 4)
        assert all(codim == 4 for codim, _ in s.strata)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            isolated_vertex(0)


class TestValidation:
    def test_codim_below_index_rejected(self):
        with pytest.raises(ValueError):
            Stratification(3, ((0, ""),))

    def test_noncontiguous_indices_rejected(self):
        # a stratum's index is its position, so only a document can state another one
        with pytest.raises(InputError, match=r"stratum indices must run 1\.\.depth, got 2 at position 1"):
            parse_stratification({"dim": 3, "strata": [{"i": 2, "codim": 2}]})

    def test_depth_beyond_ambient_rejected(self):
        with pytest.raises(ValueError):
            Stratification(1, ((1, ""), (2, "")))

    def test_smooth_descriptor_allowed(self):
        s = Stratification(2, ())
        assert s.depth == 0


class TestProductAndSuspend:
    def test_product_keeps_bounds(self):
        s = product_with_fiber(isolated_vertex(3), 1)
        assert s.ambient_dim == 4
        assert s.depth == 3
        assert all(codim == 3 for codim, _ in s.strata)
        assert s.model == (1, "vertex")

    def test_product_with_zero_fiber_is_identity(self):
        s = isolated_vertex(2)
        assert product_with_fiber(s, 0) is s

    def test_product_preserves_generic_bounds(self):
        base = Stratification(3, ((2, "sing"),), "generic")
        out = product_with_fiber(base, 2)
        assert out.ambient_dim == 5
        assert out.strata == base.strata

    def test_suspend_vertex(self):
        s = suspend(isolated_vertex(2))
        assert s.ambient_dim == 3
        assert s.depth == 2
        assert all(codim == 2 for codim, _ in s.strata)

    def test_iterated_suspension_raises_ambient(self):
        s = isolated_vertex(2)
        for t in range(1, 4):
            s = suspend(s)
            assert s.ambient_dim == 2 + t

    def test_suspend_smooth_is_smooth(self):
        s = suspend(Stratification(2, ()))
        assert s.depth == 0 and s.ambient_dim == 3

    def test_suspend_commutes_with_product(self):
        for base in (isolated_vertex(2), Stratification(3, ((2, "s"),))):
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
        assert s.strata == ((2, "sing"),)
        assert s == Stratification(3, ((2, "sing"),)) and s.indices() == (1,)
        assert stratification_to_json(s) == doc

    def test_a_stratum_is_its_position(self):
        with pytest.raises(AttributeError, match="StratumSpec"):
            pervchow.StratumSpec
        assert isolated_vertex(3).indices() == (1, 2, 3) and Stratification(2, ()).indices() == ()


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


# -- the constructor accepts only the models a document can spell -------------------------------------


@pytest.mark.parametrize(
    "model",
    ["cone", "isolated_vertex", (1, "weird"), (-1, "vertex"), (1,), (1, "vertex", 2), (1.0, "vertex"), ("1", "vertex"),
     [1, "vertex"], 5, None, (1, (-2, "generic"))],
)
def test_a_model_no_document_spells_is_refused(model):
    with pytest.raises((TypeError, ValueError)):
        Stratification(1, ((1, "s"),), model)


def test_a_product_model_stores_its_fiber_dimension_as_an_int():
    s = Stratification(2, (), (True, (0, "vertex")))
    assert s.model == (1, (0, "vertex")) and type(s.model[0]) is int
    assert parse_stratification(stratification_to_json(s)).model == s.model


# -- every descriptor and labelled pattern prints a document that reads back ------------------------

LABELS = st.text(max_size=6)
MODELS = st.recursive(st.sampled_from(["generic", "vertex"]), lambda base: st.tuples(st.integers(0, 4), base), max_leaves=3)


@st.composite
def listed(draw):
    """A descriptor from a random (codim, label) list, one pair per stratum."""
    d = draw(st.integers(0, 6))
    depth = draw(st.integers(0, d))
    pairs = tuple((draw(st.integers(i, d)), draw(LABELS)) for i in range(1, depth + 1))
    return Stratification(d, pairs, draw(MODELS))


@st.composite
def built(draw):
    """A descriptor from a chain of the constructions, starting at an isolated vertex."""
    s = isolated_vertex(draw(st.integers(1, 5)))
    for step in draw(st.lists(st.sampled_from(["product", "suspend"]), max_size=4)):
        s = product_with_fiber(s, draw(st.integers(0, 3))) if step == "product" else suspend(s)
    return s


@st.composite
def labelled(draw, strata):
    """A cycle pattern on ``strata``, labelled or not."""
    s = draw(strata)
    r = draw(st.integers(0, s.ambient_dim + 2))
    incidence = {i: draw(st.none() | st.integers(0, r)) for i in s.indices()}
    # a pattern labelled "" prints no label and reads back unlabelled, so labels here are never empty
    return CyclePattern(s, r, incidence, draw(st.none() | st.text(min_size=1, max_size=6)))


@settings(max_examples=200, deadline=None)
@given(labelled(listed() | built()))
def test_descriptors_and_patterns_read_back_equal(pattern):
    s = pattern.strata
    doc = json.loads(json.dumps(stratification_to_json(s)))
    assert [stratum["i"] for stratum in doc["strata"]] == list(s.indices())
    again = parse_stratification(doc)
    assert again == s and again.model == s.model and again.strata == s.strata
    read = parse_pattern(json.loads(json.dumps(pattern_to_json(pattern))), again)
    assert read == pattern and read.label == pattern.label


# -- a fault in a stratification document reports its own message ------------------------------------


def faulty_document(rng, faults):
    """A valid descriptor document with each named fault put in, and the message of each fault."""
    d = rng.randint(1, 5)
    depth = rng.randint(1, d)
    doc = {"dim": d, "strata": [{"i": i, "codim": rng.randint(i, d), "label": "s"} for i in range(1, depth + 1)]}
    messages = {}
    for fault in faults:
        k = rng.randrange(depth)
        stratum = doc["strata"][k]
        if fault == "index":
            stratum["i"] = rng.choice([v for v in range(-1, depth + 3) if v != k + 1])
        elif fault == "codim below":
            stratum["codim"] = rng.randint(-2, k)
        elif fault == "codim above":
            stratum["codim"] = d + rng.randint(1, 3)
        elif fault == "depth":
            doc["dim"] = depth - rng.randint(1, depth)
        elif fault == "negative dim":
            doc["dim"] = -rng.randint(1, 3)
        else:
            doc["model"] = "cone"
    return doc


def first_fault(doc):
    """The message the reader reports: the model is read, then the stated indices checked, then the rest."""
    strata, dim = doc["strata"], doc["dim"]
    if doc.get("model") == "cone":
        return "unknown stratification model 'cone'"
    for pos, stratum in enumerate(strata, start=1):
        if stratum["i"] != pos:
            return f"stratum indices must run 1..depth, got {stratum['i']} at position {pos}"
    if dim < 0:
        return "ambient dimension must be nonnegative"
    if len(strata) > dim:
        return f"depth {len(strata)} exceeds ambient dimension {dim}"
    for i, stratum in enumerate(strata, start=1):
        if stratum["codim"] < i:
            return f"stratum {i} codimension bound {stratum['codim']} is below its index"
        if stratum["codim"] > dim:
            return f"stratum {i} codimension bound {stratum['codim']} exceeds the ambient dimension"
    return None


FAULTS = ["index", "codim below", "codim above", "depth", "negative dim", "model"]


@pytest.mark.parametrize("fault", FAULTS)
def test_a_document_with_one_fault_reports_that_fault(fault):
    rng = random.Random(FAULTS.index(fault))
    for _ in range(40):
        doc = faulty_document(rng, [fault])
        report = run(["suspend", "--strata", json.dumps(doc)])
        assert report.exit_code == 2
        assert report.error == f"bad stratification document: {first_fault(doc)}"


def test_a_document_with_several_faults_reports_the_first_in_reading_order():
    rng = random.Random(7)
    for _ in range(300):
        doc = faulty_document(rng, rng.sample(FAULTS, rng.randint(2, 3)))
        report = run(["suspend", "--strata", json.dumps(doc)])
        assert report.exit_code == 2
        assert report.error == f"bad stratification document: {first_fault(doc)}"
