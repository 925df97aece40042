"""The four workloads: seeded op generation, execution and checking.

Each workload yields an endless stream of rounds from its seed.  A round
has a fixed composition (the same op kinds and sizes in every round, in a
seeded order, with seeded payloads), so runs on different seeds do the
same kind of work and a run always ends on a round boundary.

``execute`` is the only timed call.  ``check`` compares the outcome with an
independent oracle and returns ``None`` or ``(kind, text)``, where kind is
``"failed"`` (an unexpected exception, a traceback, an exit code outside the
contract, or a missed deadline) or ``"wrong"`` (the program finished cleanly
with an answer that disagrees with the oracle: a wrong value, a wrong verdict
or exit code, a product rejected that is defined, or a report that breaks the
contract).
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import oracles


OP_DEADLINE_S = 60  # an op without a result by then counts as failed


class Deadline(Exception):
    """An op ran past ``OP_DEADLINE_S``."""


@dataclass
class Op:
    kind: str
    args: dict


def _rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


def op_stream(workload, seed):
    """Rounds of ops for ``seed``; identical for identical seeds."""
    index = 0
    while True:
        yield workload.make_round(_rng(workload.name, seed, index))
        index += 1


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the benchmark records the failure and goes on
        return ("raised", exc)


def _raised(outcome, what):
    status, value = outcome
    if status == "raised":
        return ("failed", f"{what} raised {type(value).__name__}: {value}")
    return None


# -- integer matrices built with known structure ------------------------------


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def unimodular(rng, n, steps):
    """A random product of elementary row operations (determinant +-1)."""
    u = identity(n)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        u[i] = [a + k * b for a, b in zip(u[i], u[j])]
    if n and rng.random() < 0.5:
        u[0] = [-x for x in u[0]]
    return u


def random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


@dataclass
class Built:
    """``G = U * D * V`` with ``U``, ``V`` unimodular and ``D`` diagonal.

    ``diag`` is a divisibility chain (zeros last), so it is the Smith
    diagonal of ``G``; ``y * D * V`` lies in the row lattice of ``G``.
    """

    rows: list
    diag: list
    v: list

    def inside(self, rng):
        m = len(self.rows)
        y = [rng.randint(-3, 3) for _ in range(m)]
        yd = [y[j] * self.diag[j] if j < len(self.diag) else 0 for j in range(len(self.v))]
        return oracles.vec_mat(yd, self.v)

    def outside(self, rng):
        n = len(self.v)
        free = [j for j in range(n) if j >= len(self.diag) or self.diag[j] != 1]
        j = rng.choice(free)
        y = [rng.randint(-3, 3) for _ in range(len(self.rows))]
        yd = [y[i] * self.diag[i] if i < len(self.diag) else 0 for i in range(n)]
        yd[j] += 1  # off the lattice: not divisible by diag[j] (>= 2), or nonzero where diag is 0
        return oracles.vec_mat(yd, self.v)


def built(rng, m, n, diag):
    full = list(diag) + [0] * (min(m, n) - len(diag))
    d = [[full[i] if i == j and i < len(full) else 0 for j in range(n)] for i in range(m)]
    v = unimodular(rng, n, 2 * n)
    rows = oracles.mat_mul(oracles.mat_mul(unimodular(rng, m, 2 * m), d), v)
    return Built(rows, full, v)


def exact_pair(rng, k, a, exact):
    """Maps ``Z^a -F-> Z^k -W-> C`` with ``C = Z^k / columns(W F)``.

    ``F`` has full column rank, so the sequence is exact; doubling one
    relation of ``C`` makes the kernel of the second map strictly smaller
    than the image of the first.
    """
    f = built(rng, k, a, [1] * (a - 1) + [rng.choice((1, 2, 3))]).rows
    w = unimodular(rng, k, 2 * k)
    wf = oracles.mat_mul(w, f)
    relations = [[wf[i][j] for i in range(k)] for j in range(a)]
    if not exact:
        relations[0] = [2 * x for x in relations[0]]
    f_doc = {"source": {"rank": a}, "target": {"rank": k}, "matrix": f}
    g_doc = {"source": {"rank": k}, "target": {"rank": k, "relations": relations}, "matrix": w}
    return f_doc, g_doc


# -- lattice_core ------------------------------------------------------------


class LatticeCore:
    """In-process calls into the integer lattice core (``abgroup``)."""

    name = "lattice_core"
    trace_rounds = 12
    # (n, entry bound) of the random square matrices.  With entries in
    # [-9, 9], a few 24 x 24 matrices in a hundred take seconds (one took
    # 23 s) and so did one 22 x 22 in a few hundred (16 s), so a run's length
    # would depend on its seed.  [-3, 3] keeps the growth (thousands of bits;
    # the slowest of 400 such 24 x 24 matrices took 1 s).  cli_mix keeps
    # [-9, 9] at 24 x 24.
    SQUARE = ((4, 9), (6, 9), (8, 9), (12, 9), (16, 9), (20, 9), (22, 3), (24, 3))

    def make_round(self, rng):
        ops = [Op("snf", {"matrix": random_matrix(rng, n, n, -b, b)}) for n, b in self.SQUARE]
        ops += [Op("snf", {"matrix": random_matrix(rng, m, n)}) for m, n in ((6, 10), (12, 7))]
        for m, n, diag in ((10, 10, [1] * 7), (8, 8, [1, 1, 1, 1, 2, 2, 6, 12])):
            b = built(rng, m, n, diag)
            ops.append(Op("snf", {"matrix": b.rows, "known": b.diag}))
        for n, diag in ((10, [1] * 6 + [2, 4]), (12, [1] * 9 + [3, 6])):
            b = built(rng, n, n, diag)
            ops.append(Op("invariants", {"rank": n, "relations": b.rows, "diag": b.diag}))
        for inside in (True, False):
            b = built(rng, 8, 10, [1] * 6 + [2, 4])
            target = b.inside(rng) if inside else b.outside(rng)
            ops.append(Op("solve", {"generators": b.rows, "target": target, "inside": inside}))
        for inside in (True, False):
            b = built(rng, 6, 8, [1] * 5 + [3])
            inner = [b.inside(rng) for _ in range(3)] + ([] if inside else [b.outside(rng)])
            rng.shuffle(inner)
            ops.append(Op("subset", {"inner": inner, "outer": b.rows, "inside": inside}))
        for exact in (True, False):
            f, g = exact_pair(rng, 6, 3, exact)
            ops.append(Op("exact", {"f": f, "g": g, "exact": exact}))
        rng.shuffle(ops)
        return ops

    def setup(self):
        return {}

    def execute(self, ctx, op):
        from pervchow import abgroup

        a = op.args
        if op.kind == "snf":
            return _outcome(abgroup.smith_normal_form, a["matrix"])
        if op.kind == "invariants":
            return _outcome(lambda: abgroup.invariant_factors(abgroup.FpAbelianGroup(a["rank"], a["relations"])))
        if op.kind == "solve":
            return _outcome(abgroup.lattice_solve, a["generators"], a["target"])
        if op.kind == "subset":
            return _outcome(abgroup.lattice_subset, a["inner"], a["outer"])
        if op.kind == "exact":
            return _outcome(lambda: abgroup.is_exact_at_middle(_group_map(a["f"]), _group_map(a["g"])))
        raise ValueError(op.kind)

    def check(self, ctx, op, outcome):
        from pervchow import abgroup

        bad = _raised(outcome, op.kind)
        if bad:
            return bad
        value, a = outcome[1], op.args
        if op.kind == "snf":
            problem = oracles.check_smith_diagonal(a["matrix"], value.diagonal(), abgroup.det, a.get("known"))
        elif op.kind == "invariants":
            nonzero = [d for d in a["diag"] if d]
            want = (a["rank"] - len(nonzero), tuple(d for d in nonzero if d > 1))
            problem = None if value == want else f"invariants {value} differ from the constructed {want}"
        elif op.kind == "solve":
            problem = oracles.check_witness(a["generators"], a["target"], value, a["inside"])
        else:
            want = a["inside"] if op.kind == "subset" else a["exact"]
            problem = None if value is want else f"{op.kind} answered {value}, expected {want}"
        return ("wrong", problem) if problem else None


def _group_map(doc):
    from pervchow import abgroup

    def group(g):
        return abgroup.FpAbelianGroup(g["rank"], tuple(tuple(r) for r in g.get("relations", ())))

    return abgroup.GroupMap(group(doc["source"]), group(doc["target"]), tuple(tuple(r) for r in doc["matrix"]))


# -- ring_build --------------------------------------------------------------


RING_NAMES = (
    [f"P{n}" for n in range(10, 41)]
    + [f"product(P{a},P{b})" for a in range(2, 6) for b in range(2, 6)]
    + [f"product(quadric,P{n})" for n in range(2, 9)]
    + [
        "product(product(P1,P1),P1)",
        "product(product(P1,P1),P2)",
        "product(product(P1,P2),P2)",
        "product(product(P2,P2),P2)",
        "product(product(P1,P1),P3)",
        "product(product(P1,P2),P3)",
        "product(product(quadric,P1),P2)",
        "product(P1,product(P2,P2))",
        "product(product(P2,P2),P3)",
    ]
)


class RingBuild:
    """Construction of ring presentations plus a JSON round trip; no queries."""

    name = "ring_build"
    trace_rounds = 1

    def make_round(self, rng):
        names = list(RING_NAMES)
        rng.shuffle(names)
        return [Op("build", {"name": name}) for name in names]

    def setup(self):
        return {}

    def execute(self, ctx, op):
        from pervchow import chow, serialize

        def build():
            ring = chow.builtin(op.args["name"])
            doc = serialize.ring_to_json(ring)
            return ring, doc, serialize.parse_ring(doc)

        return _outcome(build)

    def check(self, ctx, op, outcome):
        from pervchow import chow, serialize

        bad = _raised(outcome, "build")
        if bad:
            return bad
        ring, doc, again = outcome[1]
        model = _model(op.args["name"])
        sizes = [len(ring.basis_at(k)) for k in range(ring.dim + 1)]
        want = [model.rank(k) for k in range(model.dim + 1)]
        if sizes != want:
            return ("wrong", f"basis sizes {sizes}, closed form {want}")
        h = ring.hyperplane_class()
        top = ring.unit_class()
        for _ in range(ring.dim):
            top = chow.mul(top, h)
        if chow.degree(top) != model.segre_degree():
            return ("wrong", f"degree of h^{ring.dim} is {chow.degree(top)}, closed form {model.segre_degree()}")
        if again != ring or serialize.ring_to_json(again) != doc:
            return ("wrong", "JSON round trip changed the ring")
        return None


# -- cone_queries ------------------------------------------------------------

CONE_BASES = ("product(P4,P4)", "product(quadric,P3)", "P12", "zobel")


@functools.cache
def _model(name):
    return oracles.ProjectiveProduct("quadric" if name == "zobel" else name)


def random_class(rng, model, r=None, p=None):
    d = model.dim + 1
    r = rng.randint(0, d) if r is None else r
    p = rng.randint(0, d) if p is None else p
    rank = model.rank(oracles.payload_codim(model.dim, r, p))
    return (r, p, [rng.randint(-3, 3) for _ in range(rank)])


def cone_round(rng, name):
    """Nine queries on one cone; some of them must be rejected."""
    model = _model(name)
    d = model.dim + 1
    ops = []
    for _ in range(2):  # defined: r + s - d >= 1
        r = rng.randint(1, d)
        ops.append(("intersect", random_class(rng, model, r), random_class(rng, model, rng.randint(d + 1 - r, d))))
    r = rng.randint(0, d - 1)  # undefined: r + s - d < 0
    ops.append(("intersect", random_class(rng, model, r), random_class(rng, model, rng.randint(0, d - 1 - r))))
    for _ in range(2):
        r = rng.randint(0, d)
        ops.append(("degree_pairing", random_class(rng, model, r), random_class(rng, model, d - r)))
    r = rng.randint(0, d)
    p_from = rng.randint(0, d)
    ops.append(("comparison_map", r, p_from, rng.randint(p_from, d)))
    ops.append(("chow_group", rng.randint(0, d), rng.randint(0, d)))
    r = rng.randint(1, d - 1)
    s = rng.randint(d - r, d - 1)
    p = d if rng.random() < 0.3 else rng.randint(0, d - r - 1)  # p = d lets the first class meet the vertex
    ops.append(("cartier", random_class(rng, model, r, p), random_class(rng, model, s, rng.randint(0, d - s - 1))))
    ops.append(("class_to_pattern", random_class(rng, model)))
    return [Op(kind, {"cone": name, "args": list(args)}) for kind, *args in ops]


class ConeQueries:
    """Queries on cones whose rings are built in set-up."""

    name = "cone_queries"
    trace_rounds = 100

    def make_round(self, rng):
        ops = [op for name in CONE_BASES for op in cone_round(rng, name)]
        rng.shuffle(ops)
        return ops

    def setup(self):
        from pervchow import chow, cones

        return {
            "cones": {
                name: cones.zobel().cone if name == "zobel" else cones.ConeVariety(chow.builtin(name))
                for name in CONE_BASES
            }
        }

    def execute(self, ctx, op):
        from pervchow import cones

        cone = ctx["cones"][op.args["cone"]]
        args = op.args["args"]
        if op.kind in ("intersect", "degree_pairing", "cartier"):
            fn = {
                "intersect": cones.intersect,
                "degree_pairing": cones.degree_pairing,
                "cartier": cones.cartier_coherence_check,
            }[op.kind]
            return _outcome(lambda: fn(cone.cls(*args[0]), cone.cls(*args[1])))
        if op.kind == "comparison_map":
            return _outcome(cones.comparison_map, cone, *args)
        if op.kind == "chow_group":
            return _outcome(cones.chow_group, cone, *args)
        if op.kind == "class_to_pattern":
            return _outcome(lambda: cones.class_to_pattern(cone.cls(*args[0])))
        raise ValueError(op.kind)

    def check(self, ctx, op, outcome):
        return check_cone_op(ctx["cones"][op.args["cone"]].base, op.kind, op.args["args"], outcome)


def _poly_class(model, base, r, p, coeffs):
    return (r, p, model.poly(base.basis_at(oracles.payload_codim(model.dim, r, p)), coeffs))


def check_cone_op(base, kind, args, outcome):
    """Compare a cone query outcome with the closed-form model of ``base``."""
    from pervchow.cones import ConeProductError

    model = _model(base.name)
    d = model.dim + 1
    status, value = outcome
    if kind in ("intersect", "degree_pairing", "cartier"):
        a, b = (_poly_class(model, base, *c) for c in args[:2])
        if kind == "intersect":
            want = oracles.expected_product(model, a, b)
        elif kind == "degree_pairing":
            want = oracles.expected_degree(model, a, b)
        else:
            both_avoid = not oracles.vertex_allowed(d, a[0], a[1]) and not oracles.vertex_allowed(d, b[0], b[1])
            want = True if both_avoid and oracles.expected_product(model, a, b) is not None else None
        rejected = status == "raised" and isinstance(value, ConeProductError)
        if want is None:
            return None if rejected else ("wrong", f"{kind} should be rejected, got {status} {value!r}")
        if rejected:
            return ("wrong", f"{kind} rejected a product the closed form defines: {value}")
        bad = _raised(outcome, kind)
        if bad:
            return bad
        if kind == "intersect":
            r, p, poly = want
            got = (value.r, value.p, model.poly(value.payload.ring.basis_at(value.payload.codim), value.payload.coeffs))
            mode = "allowed" if oracles.vertex_allowed(d, r, p) else "disallowed"
            if got != (r, p, poly) or value.mode.value != mode:
                return ("wrong", f"intersect gave {got}, closed form {(r, p, poly)}")
            return None
        return None if value == want else ("wrong", f"{kind} gave {value}, closed form {want}")
    bad = _raised(outcome, kind)
    if bad:
        return bad
    if kind == "comparison_map":
        r, p_from, p_to = args
        src = base.basis_at(oracles.payload_codim(model.dim, r, p_from))
        dst = base.basis_at(oracles.payload_codim(model.dim, r, p_to))
        want = oracles.expected_comparison(model, src, dst, r, p_from, p_to)
        got = [list(row) for row in value.matrix]
        return None if got == want else ("wrong", f"comparison matrix {got}, closed form {want}")
    if kind == "chow_group":
        r, p = args
        want = model.rank(oracles.payload_codim(model.dim, r, p))
        if value.rank != want or value.relations:
            return ("wrong", f"group of rank {value.rank}, closed form Z^{want}")
        return None
    if kind == "class_to_pattern":
        r, p, coeffs = args[0]
        want = oracles.expected_pattern(d, r, p, not any(coeffs))
        if value.r != r or dict(value.incidence) != want:
            return ("wrong", f"pattern {dict(value.incidence)}, closed form {want}")
        return None
    raise ValueError(kind)


# -- cli_mix -----------------------------------------------------------------

SCHEMA_COMMANDS = (
    "validate", "check-cycle", "check-cocycle", "check-star", "push", "pull", "suspend", "join",
    "slice", "cap", "groups", "intersect", "pairing", "compare", "snf", "exact", "catalog", "schema",
)

N3 = json.dumps({"dim": 1, "incidence": {"1": 0, "2": 0, "3": 0}})
MALFORMED = (
    ["check-cycle", "--pattern", "{not json", "--perversity", "[0,0,0]", "--strata", "vertex3"],
    ["check-cycle", "--pattern", N3, "--perversity", "[1,0]", "--strata", "vertex3"],
    ["snf", "--matrix", "[[1,2],[3]]"],
    ["intersect", "--cone", "zobel", "--a", "allowed:2:0:(1,0)", "--b", "allowed:2:(0,1)"],
    ["groups", "--cone", "P-1", "--r", "1", "--p", "0"],
    ["exact", "--f", '{"source": {"rank": 2}, "target": {"rank": 1}, "matrix": [[1]]}',
     "--g", '{"source": {"rank": 1}, "target": {"rank": 1}, "matrix": [[1]]}'],
)
SNF_SIZES = (2, 8, 16, 24)
CONTRACT_EXITS = (0, 1, 2)  # success, a check that does not hold, malformed input or undefined product
CLI_CONES = ("zobel", "P6", "product(P2,P2)")


def _pattern(rng, d, r=None):
    r = rng.randint(0, d) if r is None else r
    return {"dim": r, "incidence": {str(i): rng.choice(("empty", rng.randint(0, r))) for i in range(1, d + 1)}}


def _bound(rng, d, perversity=False):
    out, level = [], 0
    for i in range(d):
        if i:
            level += rng.choice((0, 1)) if perversity else rng.choice((0, 0, 1, 2))
        out.append(level)
    return out


def _cocycle(rng, d, t):
    return {"t": t, "targetDim": t, "excess": {str(i): rng.randint(0, t) for i in range(1, d + 1)}}


def _inc(v):
    return None if v == "empty" else v


def _cli_calculus(rng, kind):
    d = rng.randint(3, 6)
    strata = f"vertex{d}"
    if kind == "check-cycle":
        pat, bound = _pattern(rng, d), _bound(rng, d)
        ok = all(
            _inc(v) is None or _inc(v) <= pat["dim"] - i + bound[i - 1]
            for i, v in ((int(k), v) for k, v in pat["incidence"].items())
        )
        argv = ["check-cycle", "--pattern", json.dumps(pat), "--perversity", json.dumps(bound)]
        return argv + ["--strata", strata], 0 if ok else 1
    if kind == "check-star":
        a, b = _pattern(rng, d), _pattern(rng, d)
        r, s = a["dim"], b["dim"]
        total = rng.choice(("empty", rng.randint(0, min(r, s))))
        c = _bound(rng, d)
        expected = r + s - d
        ok = total == "empty" or total <= expected
        joint = {}
        for i in range(1, d + 1):
            caps = (_inc(a["incidence"][str(i)]), _inc(b["incidence"][str(i)]))
            if total == "empty" or None in caps or rng.random() < 0.5:
                joint[str(i)] = "empty"
                continue
            v = rng.randint(0, min(total, *caps))
            joint[str(i)] = v
            ok = ok and v <= expected - (i - c[i - 1])
        doc = {"a": a, "b": b, "joint": joint, "total": total}
        return ["check-star", "--joint", json.dumps(doc), "--c", json.dumps(c), "--strata", strata], 0 if ok else 1
    if kind == "slice":
        t = rng.randint(1, d)
        return ["slice", "--cocycle", json.dumps(_cocycle(rng, d, t)), "--strata", strata], 0
    if kind == "cap":
        t = rng.randint(1, d)
        pat = _pattern(rng, d, rng.randint(t, d))
        cocycle = json.dumps(_cocycle(rng, d, t))
        return ["cap", "--cocycle", cocycle, "--pattern", json.dumps(pat), "--strata", strata], 0
    if kind == "join":
        a, b = (json.dumps(_cocycle(rng, d, rng.randint(1, d))) for _ in range(2))
        return ["join", "--a", a, "--b", b, "--strata", strata], 0
    if kind == "push":
        c = _bound(rng, d, perversity=True)
        return ["push", "--pattern", json.dumps(_pattern(rng, d)), "--c", json.dumps(c), "--strata", strata], 0
    if kind == "pull":
        e = str(rng.randint(0, 3))
        return ["pull", "--pattern", json.dumps(_pattern(rng, d)), "--e", e, "--strata", strata], 0
    raise ValueError(kind)


def _class_arg(rng, model, cls):
    r, p, coeffs = cls
    if rng.random() < 0.5:
        return json.dumps({"r": r, "p": p, "payload": coeffs})
    mode = "allowed" if oracles.vertex_allowed(model.dim + 1, r, p) else "disallowed"
    return f"{mode}:{r}:{p}:({','.join(map(str, coeffs))})"


class CliMix:
    """``python -m pervchow.cli`` commands, one child process at a time."""

    name = "cli_mix"
    trace_rounds = 6
    CALCULUS = ("check-cycle", "check-star", "slice", "cap", "join", "push", "pull")

    def __init__(self, root):
        self.root = Path(root)

    def make_round(self, rng):
        ops = [Op("catalog", {"argv": ["catalog", "zobel", "--verify"], "exit": 0})]
        for _ in range(2):
            cone = rng.choice(CLI_CONES)
            model = _model(cone)
            command = rng.choice(("pairing", "intersect"))
            a, b = random_class(rng, model), random_class(rng, model)
            argv = [command, "--cone", cone, "--a", _class_arg(rng, model, a), "--b", _class_arg(rng, model, b)]
            defined = oracles.expected_product(model, (a[0], a[1], {}), (b[0], b[1], {})) is not None
            ops.append(Op("product", {"argv": argv, "exit": 0 if defined else 2, "cone": cone, "a": a, "b": b}))
        for _ in range(2):
            n = rng.randint(1, 20)
            d = n + 1
            if rng.random() < 0.5:
                r, p = rng.randint(0, d), rng.randint(0, d)
                argv = ["groups", "--cone", f"P{n}", "--r", str(r), "--p", str(p)]
                ops.append(Op("groups", {"argv": argv, "exit": 0, "cone": f"P{n}", "r": r, "p": p}))
            else:
                r, p_from = rng.randint(0, d), rng.randint(0, d)
                p_to = rng.randint(p_from, d)
                argv = ["compare", "--cone", f"P{n}", "--r", str(r), "--p-from", str(p_from), "--p-to", str(p_to)]
                args = {"argv": argv, "exit": 0, "cone": f"P{n}", "r": r, "p_from": p_from, "p_to": p_to}
                ops.append(Op("compare", args))
        for kind in self.CALCULUS:
            argv, code = _cli_calculus(rng, kind)
            ops.append(Op("calculus", {"argv": argv, "exit": code}))
        exact = rng.random() < 0.5
        k = rng.randint(2, 4)
        f, g = exact_pair(rng, k, rng.randint(1, k), exact)
        argv = ["exact", "--f", json.dumps(f), "--g", json.dumps(g)]
        ops.append(Op("exact", {"argv": argv, "exit": 0 if exact else 1}))
        for n in SNF_SIZES:
            matrix = random_matrix(rng, n, n)
            ops.append(Op("snf", {"argv": ["snf", "--matrix", json.dumps(matrix)], "exit": 0, "matrix": matrix}))
        name = rng.choice(SCHEMA_COMMANDS)
        ops.append(Op("schema", {"argv": ["schema", name], "exit": 0, "name": name}))
        for argv in rng.sample(MALFORMED, 2):
            ops.append(Op("malformed", {"argv": list(argv), "exit": 2}))
        rng.shuffle(ops)
        return ops

    def setup(self):
        golden = (self.root / "tests" / "golden" / "catalog_zobel.json").read_text()
        return {"golden": golden, "rings": {}, "inprocess": False, "peak_kib": 0}

    def execute(self, ctx, op):
        if ctx["inprocess"]:
            return run_inprocess(op.args["argv"])
        code, out, err, peak_kib = run_cli(self.root, op.args["argv"])
        ctx["peak_kib"] = max(ctx["peak_kib"], peak_kib)
        return code, out, err

    def check(self, ctx, op, outcome):
        code, out, err = outcome
        a = op.args
        if code is None:
            return ("failed", err)
        if "Traceback" in err:
            return ("failed", f"exit {code} with a traceback: {err.strip().splitlines()[-1]}")
        if code != a["exit"]:
            # a clean exit with another contract code is a wrong verdict, not a crash
            clean = code in CONTRACT_EXITS and a["exit"] in CONTRACT_EXITS
            return ("wrong" if clean else "failed", f"exit {code}, expected {a['exit']}")
        if op.kind == "catalog":
            problem = oracles.check_golden(out, ctx["golden"])
        else:
            doc, problem = oracles.check_cli_document(out, a["exit"])
            problem = problem or self._check_values(ctx, op, doc)
        return ("wrong", problem) if problem else None

    def _check_values(self, ctx, op, doc):
        from pervchow import abgroup

        a = op.args
        if a["exit"] != 0:
            return None
        values = doc.get("values", {})
        if op.kind == "snf":
            return oracles.check_smith_diagonal(a["matrix"], values["snf"]["diagonal"], abgroup.det)
        if op.kind == "schema":
            return None if values.get("command") == a["name"] else f"schema of {values.get('command')!r}"
        if op.kind == "groups":
            model = _model(a["cone"])
            want = model.rank(oracles.payload_codim(model.dim, a["r"], a["p"]))
            group = values["group"]
            ok = group["free_rank"] == want and group["torsion"] == []
            return None if ok else f"group {group['name']}, closed form Z^{want}"
        if op.kind == "compare":
            model = _model(a["cone"])
            ring = _ring(ctx, a["cone"])
            src = ring.basis_at(oracles.payload_codim(model.dim, a["r"], a["p_from"]))
            dst = ring.basis_at(oracles.payload_codim(model.dim, a["r"], a["p_to"]))
            want = oracles.expected_comparison(model, src, dst, a["r"], a["p_from"], a["p_to"])
            got = values["map"]["matrix"]
            return None if got == want else f"comparison {got}, closed form {want}"
        if op.kind == "product":
            ring = _ring(ctx, a["cone"])
            model = _model(a["cone"])
            x, y = _poly_class(model, ring, *a["a"]), _poly_class(model, ring, *a["b"])
            r, p, poly = oracles.expected_product(model, x, y)
            got = values["class"]
            want_vec = model.vector(ring.basis_at(oracles.payload_codim(model.dim, r, p)), poly)
            if (got["r"], got["p"], got["payload"]) != (r, p, want_vec):
                return f"class {got}, closed form r={r} p={p} payload={want_vec}"
            if "value" in values and r == 0 and values["value"] != model.degree(poly):
                return f"pairing value {values['value']}, closed form {model.degree(poly)}"
        return None


def _ring(ctx, cone):
    """The program's ring for ``cone``, built once, for its basis order."""
    from pervchow import chow

    if cone not in ctx["rings"]:
        ctx["rings"][cone] = chow.builtin("quadric" if cone == "zobel" else cone)
    return ctx["rings"][cone]


def run_python(root, args):
    """``python <args>`` in a child with ``src/`` on its path: (exit code, stdout, stderr).

    The exit code is ``None`` when the child ran past the deadline and was killed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(root) / "src")
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=root, env=env, capture_output=True, text=True, timeout=OP_DEADLINE_S
        )
    except (subprocess.TimeoutExpired, Deadline):  # the child has been killed
        return None, "", f"no result within {OP_DEADLINE_S} s"
    return proc.returncode, proc.stdout, proc.stderr


# Runs the CLI as ``python -m pervchow.cli`` does, then writes the child's own
# peak resident set to stderr.  That is VmHWM, which belongs to the memory map
# exec creates; ru_maxrss would carry over the spawning process's peak.
PEAK_MARK = "bench-peak-kib "
CLI_LAUNCHER = f"""\
import runpy
try:
    runpy.run_module("pervchow.cli", run_name="__main__", alter_sys=True)
finally:
    import sys
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    sys.stderr.write("{PEAK_MARK}" + peak + "\\n")
"""


def run_cli(root, argv):
    """One CLI command in a child: (exit code, stdout, stderr, peak KiB)."""
    code, out, err = run_python(root, ["-c", CLI_LAUNCHER, *argv])
    lines = err.splitlines(keepends=True)
    peaks = [int(line[len(PEAK_MARK) :]) for line in lines if line.startswith(PEAK_MARK)]
    err = "".join(line for line in lines if not line.startswith(PEAK_MARK))
    return code, out, err, max(peaks, default=0)


def run_inprocess(argv):
    """What ``python -m pervchow.cli`` would print and return, without a new process."""
    from pervchow import cli

    try:
        report = cli.run(list(argv))
        text = report.render(False)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), "", "argparse exit"
    except Exception:  # an escaping exception ends the real process with a traceback
        return 1, "", traceback.format_exc()
    return report.exit_code, text, ""


def make(name, root):
    workloads = {
        "cli_mix": lambda: CliMix(root),
        "lattice_core": LatticeCore,
        "ring_build": RingBuild,
        "cone_queries": ConeQueries,
    }
    return workloads[name]()


NAMES = ("cli_mix", "lattice_core", "ring_build", "cone_queries")
