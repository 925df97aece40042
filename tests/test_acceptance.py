"""Acceptance suite: every criterion asserted exactly, zero tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import pervchow as pc
from pervchow import chow
from pervchow.cli import run
from pervchow.cocycles import CocyclePattern
from pervchow.cycles import EMPTY, CyclePattern
from pervchow.perversity import GeneralizedBound, Perversity

GOLDEN = Path(__file__).parent / "golden"


def all_perversities(d):
    out = []
    for steps in itertools.product((0, 1), repeat=d - 1):
        entries = [0]
        for s in steps:
            entries.append(entries[-1] + s)
        out.append(Perversity(entries))
    return out


def all_bounds(d, cap):
    return [
        GeneralizedBound(c)
        for c in itertools.combinations_with_replacement(range(cap + 1), d)
    ]


def test_criterion_1_zobel_group_table():
    cone = pc.zobel().cone
    expected = {
        (2, 1): (2, ()), (2, 2): (2, ()), (2, 0): (1, ()),
        (1, 0): (2, ()), (1, 1): (2, ()), (1, 2): (1, ()),
    }
    for (r, p), shape in expected.items():
        assert pc.invariant_factors(pc.chow_group(cone, r, p)) == shape


def test_criterion_2_zobel_comparison_maps():
    cone = pc.zobel().cone
    assert pc.comparison_map(cone, 2, 0, 1).matrix == ((1,), (1,))
    assert pc.comparison_map(cone, 1, 0, 2).matrix == ((1, 1),)


def test_criterion_3_zobel_pairing_exhaustive():
    cone = pc.zobel().cone
    for a, b, c, d in itertools.product(range(-5, 6), repeat=4):
        x = cone.cls(2, 1, [a, b])
        y = cone.cls(2, 1, [c, d])
        out = pc.intersect(x, y)
        assert out.payload.coeffs == (a * d + b * c,)


def test_criterion_4_zobel_negative_result():
    cat = pc.zobel()
    cone = cat.cone
    # both classes at top perversity with r+s-d = 0: rejected
    with pytest.raises(pc.ConeProductError, match="r\\+s-d >= 1"):
        pc.intersect(cone.cls(2, 2, [1, 0]), cone.cls(1, 2, [1]))
    report = run(["pairing", "--cone", "zobel", "--a", "allowed:2:2:(1,0)", "--b", "allowed:1:(1)"])
    assert report.exit_code == 2
    # D meets L in nothing and M in a single smooth point
    assert pc.degree_pairing(cat.classes["D"], cat.classes["L"]) == 0
    assert pc.intersect(cat.classes["D"], cat.classes["L"]).is_zero
    assert pc.degree_pairing(cat.classes["D"], cat.classes["M"]) == 1


def test_criterion_5_perversity_membership():
    cat = pc.zobel()
    l_pattern = pc.class_to_pattern(cat.classes["L"])
    m_pattern = pc.class_to_pattern(cat.classes["M"])
    n_pattern = pc.class_to_pattern(cat.classes["N"])
    assert pc.check_perversity(l_pattern, pc.zero(3))
    assert pc.check_perversity(m_pattern, pc.zero(3))
    for p in all_perversities(3):
        verdict = pc.check_perversity(n_pattern, p)
        assert verdict == (p.at(3) == 2)


def test_criterion_6_cone_over_p2_oracle():
    """Hand oracle from Z[h]/h^3: all groups are Z, three pairing cases."""
    cone = pc.ConeVariety(pc.projective_space(2))
    for r in range(4):
        for p in range(3):
            assert pc.invariant_factors(pc.chow_group(cone, r, p)) == (1, ())
    # case 1: two cone divisors meet in the cone over a point (h * h = h^2)
    out = pc.intersect(cone.cls(2, 1, [1]), cone.cls(2, 1, [1]))
    assert out.mode is pc.Mode.ALLOWED and out.payload.coeffs == (1,)
    # case 2: cone divisor against a vertex-avoiding line: degree h.h = 1
    assert pc.degree_pairing(cone.cls(2, 1, [1]), cone.cls(1, 0, [1])) == 1
    # case 3: two vertex-avoiding hyperplane sections: (1*1).h = h, and the
    # leftover class has h^2-degree 1 after one more hyperplane slice
    out = pc.intersect(cone.cls(2, 0, [1]), cone.cls(2, 0, [1]))
    assert out.mode is pc.Mode.DISALLOWED and out.payload.coeffs == (1,)
    assert chow.degree(chow.mul(out.payload, cone.hyperplane_class())) == 1
    assert pc.degree_pairing(cone.cls(2, 0, [1]), cone.cls(1, 0, [1])) == 1


def test_criterion_7a_perversity_arithmetic_laws():
    for d in range(1, 5):
        perversities = all_perversities(d)
        z, t = pc.zero(d), pc.top(d)
        for p in perversities:
            assert pc.leq(z, p) and pc.leq(p, t)
            assert pc.star_compose(p, z) == p
            assert pc.star_compose(z, p) == p
        bounds = all_bounds(d, 2) if d <= 3 else all_bounds(d, 1)
        for a in bounds:
            assert pc.leq(a, a)
            assert pc.add(a, GeneralizedBound([0] * d)) == a
            for b in bounds:
                assert pc.add(a, b) == pc.add(b, a)
                if pc.leq(a, b) and pc.leq(b, a):
                    assert a == b
                for c in bounds[:10]:
                    assert pc.add(pc.add(a, b), c) == pc.add(a, pc.add(b, c))
                    if pc.leq(a, b) and pc.leq(b, c):
                        assert pc.leq(a, c)


def _monotone_patterns(strata, r, cap):
    values = list(range(min(r, cap) + 1))
    out = []
    for combo in itertools.product([EMPTY] + values, repeat=strata.depth):
        ok = True
        for a, b in zip(combo, combo[1:]):
            if a is EMPTY and b is not EMPTY:
                ok = False
            elif a is not EMPTY and b is not EMPTY and b > a:
                ok = False
        if ok:
            out.append(CyclePattern(strata, r, dict(zip(strata.indices(), combo))))
    return out


def test_criterion_7b_incidence_calculus_sweeps():
    for d in (2, 3, 4):
        strata = pc.isolated_vertex(d)
        bounds = all_bounds(d, 3)
        patterns = _monotone_patterns(strata, 2, 3)
        for pattern in patterns:
            for p in bounds:
                if not pc.check_perversity(pattern, p):
                    continue
                # pushforward soundness: p-members land in star_compose(p, c)
                for c in all_perversities(d):
                    pushed = pc.proper_pushforward(pattern, c)
                    assert pc.check_perversity(pushed, pc.star_compose(p, c))
                # suspension and flat pullback preserve membership
                assert pc.check_perversity(pc.suspend_pattern(pattern), p)
                assert pc.check_perversity(pc.flat_pullback(pattern, 1), p)
    # join additivity, slicing bound, cap duality (depth 3, excess <= 3)
    strata = pc.isolated_vertex(3)
    fundamental = CyclePattern(strata, 3, {i: 3 - i for i in strata.indices()})
    for t in (1, 2):
        combos = itertools.product(range(min(t, 3) + 1), repeat=3)
        for combo in combos:
            cocycle = CocyclePattern(strata, t, t, dict(zip(strata.indices(), combo)))
            for p in all_bounds(3, 3):
                if not pc.check_cocycle(cocycle, p):
                    continue
                sliced = pc.slice_with_hyperplanes(cocycle, t)
                assert pc.check_perversity(sliced, p)
                assert pc.check_perversity(pc.cap_pattern(cocycle, fundamental), p)
                other = CocyclePattern(strata, t, t, {i: min(p.at(i), t) for i in strata.indices()})
                joined = pc.join(cocycle, other)
                assert pc.check_cocycle(joined, pc.add(p, p))


def _rational_det(m):
    n = len(m)
    if n == 0:
        return Fraction(1)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for i in range(col + 1, n):
            factor = a[i][col] * inv
            for j in range(col, n):
                a[i][j] -= factor * a[col][j]
    return det


def test_criterion_7c_abgroup_contracts():
    rng = random.Random(777)
    for _ in range(500):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        form = pc.smith_normal_form(matrix)
        u = [list(r) for r in form.U]
        s = [list(r) for r in form.S]
        v = [list(r) for r in form.V]
        prod = [
            [sum(u[i][k] * matrix[k][j] for k in range(rows)) for j in range(cols)]
            for i in range(rows)
        ]
        prod = [
            [sum(prod[i][k] * v[k][j] for k in range(cols)) for j in range(cols)]
            for i in range(rows)
        ]
        assert prod == s
        assert abs(_rational_det(u)) == 1 and abs(_rational_det(v)) == 1
        diag = [s[i][i] for i in range(min(rows, cols))]
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
    # exactness checker against brute-force enumeration on ranks <= 3
    Z = pc.FpAbelianGroup(1)
    ZZ = pc.FpAbelianGroup(2)
    Z2 = pc.FpAbelianGroup(1, ((2,),))

    def brute_member(gens, target, bound=6):
        if not gens:
            return all(x == 0 for x in target)
        for combo in itertools.product(range(-bound, bound + 1), repeat=len(gens)):
            if [sum(c * g[j] for c, g in zip(combo, gens)) for j in range(len(target))] == list(target):
                return True
        return False

    double = pc.GroupMap(Z, Z, ((2,),))
    quotient = pc.GroupMap(Z, Z2, ((1,),))
    assert pc.is_exact_at_middle(double, quotient)
    for x in range(-5, 6):
        assert brute_member([[2]], [x]) == (x % 2 == 0)
    include = pc.GroupMap(Z, ZZ, ((1,), (0,)))
    project = pc.GroupMap(ZZ, Z, ((0, 1),))
    assert pc.is_exact_at_middle(include, project)
    for x, y in itertools.product(range(-3, 4), repeat=2):
        in_image = brute_member([[1, 0]], [x, y])
        in_kernel = (x * 0 + y * 1) == 0
        assert in_image == in_kernel
    triple = pc.GroupMap(Z, Z, ((3,),))
    assert not pc.is_exact_at_middle(triple, quotient)
    assert brute_member([[3]], [1]) is False  # witness of the gap: 1 not in 3Z


def test_criterion_7d_cross_case_and_cartier():
    cone = pc.zobel().cone
    disallowed = [cone.cls(2, 0, [1]), cone.cls(1, 0, [1, 0]), cone.cls(1, 0, [0, 1])]
    for x, y in itertools.product(disallowed, repeat=2):
        if x.r + y.r - cone.cone_dim < 0:
            continue
        assert pc.cartier_coherence_check(x, y)
    # cross-case coherence: lift-then-intersect equals intersect-then-compare
    lift = pc.comparison_map(cone, 2, 0, 1)
    lifted = cone.cls(2, 1, [sum(row) for row in lift.matrix])
    low = cone.cls(2, 0, [1])
    for coeffs in itertools.product(range(-2, 3), repeat=2):
        other = cone.cls(2, 1, list(coeffs))
        via_case1 = pc.intersect(lifted, other)
        via_case2 = pc.intersect(low, other)
        m = pc.comparison_map(cone, via_case2.r, via_case2.p, via_case1.p)
        pushed = tuple(
            sum(m.matrix[i][j] * via_case2.payload.coeffs[j] for j in range(len(via_case2.payload.coeffs)))
            for i in range(len(m.matrix))
        )
        assert pushed == via_case1.payload.coeffs


def test_criterion_8_cli_catalog_verify():
    report = run(["catalog", "zobel", "--verify"])
    assert report.exit_code == 0
    rendered = report.render(pretty=False)
    assert rendered == (GOLDEN / "catalog_zobel.json").read_text()
    assert json.loads(rendered)["ok"] is True
