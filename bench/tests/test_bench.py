"""Tests of the benchmark itself: seeded inputs, oracles and span analysis.

    python3 -m pytest bench/tests -q
"""

import json
import signal
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from pervchow import abgroup, chow, cones  # noqa: E402


@pytest.fixture(autouse=True)
def deadline_handler():
    previous = signal.signal(signal.SIGALRM, run._deadline)
    yield
    signal.signal(signal.SIGALRM, previous)


def rounds(name, seed, count):
    return list(islice(workloads.op_stream(workloads.make(name, ROOT), seed), count))


# -- seeded inputs ---------------------------------------------------------


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_ops(name):
    assert rounds(name, 7, 3) == rounds(name, 7, 3)
    assert rounds(name, 7, 3) != rounds(name, 8, 3)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_rounds_have_a_fixed_composition(name):
    def shape(ops):
        return sorted(op.kind for op in ops)

    first, second = rounds(name, 5, 2)
    assert shape(first) == shape(second)


# -- oracles reject corrupted answers ------------------------------------------


def test_determinantal_divisors_reject_a_wrong_diagonal():
    m = [[2, 4], [6, 8]]
    assert oracles.determinantal_invariants(m, abgroup.det) == [2, 4]
    assert oracles.check_smith_diagonal(m, [2, 4], abgroup.det) is None
    assert "determinantal" in oracles.check_smith_diagonal(m, [2, 8], abgroup.det)


@pytest.mark.skipif(not oracles.HAVE_SYMPY, reason="sympy does not import")
def test_sympy_rejects_a_wrong_diagonal():
    import random

    m = workloads.random_matrix(random.Random(1), 9, 9)
    diagonal = list(abgroup.smith_normal_form(m).diagonal())
    assert oracles.check_smith_diagonal(m, diagonal, abgroup.det) is None
    corrupted = diagonal[:-1] + [diagonal[-1] * 2]
    assert "sympy" in oracles.check_smith_diagonal(m, corrupted, abgroup.det)


def test_constructed_diagonal_rejects_a_wrong_one():
    import random

    b = workloads.built(random.Random(2), 8, 8, [1, 1, 2, 6])
    assert oracles.check_smith_diagonal(b.rows, b.diag, abgroup.det, b.diag) is None
    wrong = b.diag[:3] + [12] + b.diag[4:]
    assert "constructed" in oracles.check_smith_diagonal(b.rows, wrong, abgroup.det, b.diag)


def test_witness_check_rejects_corrupted_witnesses():
    gens = [[2, 0], [0, 3]]
    assert oracles.check_witness(gens, [4, 3], [2, 1], inside=True) is None
    assert oracles.check_witness(gens, [4, 3], [2, 2], inside=True)
    assert oracles.check_witness(gens, [4, 3], None, inside=True)
    assert oracles.check_witness(gens, [1, 0], [0, 0], inside=False)
    assert oracles.check_witness(gens, [1, 0], None, inside=False) is None


def test_constructed_lattice_targets_are_where_they_claim():
    import random

    rng = random.Random(3)
    b = workloads.built(rng, 6, 8, [1, 1, 1, 1, 1, 3])
    for _ in range(5):
        assert abgroup.lattice_solve(b.rows, b.inside(rng)) is not None
        assert abgroup.lattice_solve(b.rows, b.outside(rng)) is None


def test_lattice_core_check_rejects_flipped_answers():
    w = workloads.LatticeCore()
    for op in next(workloads.op_stream(w, 4)):
        outcome = w.execute({}, op)
        assert w.check({}, op, outcome) is None
        if op.kind in ("subset", "exact"):
            assert w.check({}, op, ("ok", not outcome[1]))[0] == "wrong"
        if op.kind == "invariants":
            free, torsion = outcome[1]
            assert w.check({}, op, ("ok", (free + 1, torsion)))[0] == "wrong"


@pytest.mark.parametrize("base", ["P5", "product(P2,P3)", "product(quadric,P2)"])
def test_cone_closed_forms_reject_corrupted_results(base):
    import random

    cone = cones.ConeVariety(chow.builtin(base))
    model = oracles.ProjectiveProduct(base)
    d = model.dim + 1
    rng = random.Random(4)
    a = workloads.random_class(rng, model, 1, d)
    b = workloads.random_class(rng, model, d - 1, 0)
    pairing = cones.degree_pairing(cone.cls(*a), cone.cls(*b))
    check = workloads.check_cone_op
    assert check(cone.base, "degree_pairing", [a, b], ("ok", pairing)) is None
    assert check(cone.base, "degree_pairing", [a, b], ("ok", pairing + 1))

    x = workloads.random_class(rng, model, d, d)
    y = workloads.random_class(rng, model, d - 1, d)
    product = cones.intersect(cone.cls(*x), cone.cls(*y))
    assert check(cone.base, "intersect", [x, y], ("ok", product)) is None
    ones = product.payload.ring.make(product.payload.codim, [1] * len(product.payload.coeffs))
    shifted = cones.ConeClass(cone, product.r, product.p, product.payload + ones)
    assert check(cone.base, "intersect", [x, y], ("ok", shifted))

    too_small = workloads.random_class(rng, model, 0, 0)
    assert check(cone.base, "intersect", [too_small, too_small], ("ok", product))
    with pytest.raises(cones.ConeProductError) as rejection:
        cones.intersect(cone.cls(*too_small), cone.cls(*too_small))
    assert check(cone.base, "intersect", [too_small, too_small], ("raised", rejection.value)) is None

    # a defined product that is rejected is a wrong answer, not a crash
    assert check(cone.base, "intersect", [x, y], ("raised", rejection.value))[0] == "wrong"
    assert check(cone.base, "intersect", [x, y], ("raised", ValueError("boom")))[0] == "failed"


def test_ring_build_check_rejects_a_changed_round_trip():
    w = workloads.RingBuild()
    op = workloads.Op("build", {"name": "product(P2,P3)"})
    ring, doc, again = w.execute({}, op)[1]
    assert w.check({}, op, ("ok", (ring, doc, again))) is None
    assert w.check({}, op, ("ok", (ring, doc, chow.builtin("product(P3,P2)"))))[0] == "wrong"
    assert w.check({}, op, ("ok", (chow.builtin("P5"), doc, again)))[0] == "wrong"


def test_cli_checks_reject_bad_reports():
    golden = (ROOT / "tests" / "golden" / "catalog_zobel.json").read_text()
    assert oracles.check_golden(golden, golden) is None
    assert oracles.check_golden(golden.replace("1", "2", 1), golden)
    assert oracles.check_cli_document("not json", 0)[1]
    assert oracles.check_cli_document(json.dumps({"schema": 2}), 0)[1]
    assert oracles.check_cli_document(json.dumps({"schema": 1}), 2)[1]
    assert oracles.check_cli_document(json.dumps({"schema": 1, "error": {"message": "x"}}), 2)[1] is None

    w = workloads.CliMix(ROOT)
    ctx = w.setup()
    ctx["inprocess"] = True
    for op in next(workloads.op_stream(w, 6)):
        if op.kind == "snf" and len(op.args["matrix"]) > 8:
            continue  # large renders can hit the known int->str limit
        outcome = w.execute(ctx, op)
        assert w.check(ctx, op, outcome) is None, op
        code, out, err = outcome
        assert w.check(ctx, op, (3, out, err))[0] == "failed"
        # another contract exit code on a clean exit is a wrong verdict (a flipped check-cycle too)
        flipped = {0: 1, 1: 0, 2: 0}[code]
        assert w.check(ctx, op, (flipped, out, err))[0] == "wrong", op
        assert w.check(ctx, op, (code, out, "Traceback (most recent call last):\nValueError: x"))[0] == "failed"
        if op.kind in ("snf", "groups", "compare", "product") and code == 0:
            doc = json.loads(out)
            doc["values"] = {k: _corrupt(v) for k, v in doc["values"].items()}
            assert w.check(ctx, op, (code, json.dumps(doc), err))[0] == "wrong", op


def test_cli_children_report_their_own_peak():
    code, out, err, peak_kib = workloads.run_cli(ROOT, ["schema", "snf"])
    assert code == 0 and json.loads(out)["schema"] == 1
    assert workloads.PEAK_MARK not in err
    assert 0 < peak_kib < 200 * 1024


def _corrupt(value):
    if isinstance(value, dict):
        return {k: _corrupt(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_corrupt(v) for v in value]
    if isinstance(value, int) and not isinstance(value, bool):
        return value + 1
    return value


# -- spans -------------------------------------------------------------------


def span(name, start, end, parent):
    return [name, start, end, parent, None, None]


def test_self_time_subtracts_nested_children():
    tree = [
        span("a", 0, 100, -1),
        span("b", 10, 40, 0),
        span("c", 20, 30, 1),
        span("d", 50, 70, 0),
    ]
    assert spans.self_times(tree) == [50, 20, 10, 20]


def test_self_time_counts_overlapping_children_once():
    tree = [span("a", 0, 100, -1), span("b", 10, 40, 0), span("c", 30, 50, 0), span("d", 90, 130, 0)]
    assert spans.self_times(tree)[0] == 100 - 40 - 10


def test_layer_metrics_use_self_time_per_call():
    tree = [
        span("cli.run", 0, 10_000_000, -1),
        span("cli.handler", 2_000_000, 9_000_000, 0),
        span("chow.mul", 3_000_000, 4_000_000, 1),
        span("cli.run", 20_000_000, 23_000_000, -1),
    ]
    metrics = spans.layer_metrics(tree, set())
    assert metrics["cli.parse_args_ms"] == (3.0, "ms")  # (3 + 3) ms of self time over two calls
    assert metrics["cli.handler_ms"] == (6.0, "ms")
    assert metrics["chow.mul_us"] == (1000.0, "us")
    assert metrics["chow.mul_calls"] == (1, "count")
    assert metrics["trace.spans"] == (4, "count")


def test_tracer_restores_the_original_functions():
    original = abgroup.smith_normal_form
    tracer = spans.Tracer()
    with tracer:
        assert abgroup.smith_normal_form is not original
        tracer.active = True
        abgroup.lattice_solve([[2]], [4])
        tracer.active = False
    assert abgroup.smith_normal_form is original
    assert tracer.cost_ns > 0
    names = [rec[spans.NAME] for rec in tracer.spans]
    assert names == ["abgroup.lattice_solve", "abgroup.snf"]
    assert tracer.spans[1][spans.PARENT] == 0


def test_traced_counts_repeat_exactly():
    w = workloads.LatticeCore()
    ops = next(workloads.op_stream(w, 9))
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer:
            run.replay(w, w.setup(), ops, SpeedProbe(), tracer)
        metrics = spans.layer_metrics(tracer.spans, tracer.snf_inputs)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "bits", "ratio")})
    assert counts[0] == counts[1]
    assert counts[0]["abgroup.snf_calls"] > 0
