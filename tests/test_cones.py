import itertools
import random

import pytest

from pervchow import chow
from pervchow.abgroup import (
    FpAbelianGroup, GroupMap, _kernel, describe, invariant_factors, lattice_solve, smith_normal_form,
)
from pervchow.chow import projective_space, quadric_surface
from pervchow.cones import (
    ConeClass,
    ConeProductError,
    ConeVariety,
    Mode,
    cartier_coherence_check,
    chow_group,
    class_to_pattern,
    comparison_map,
    degree_pairing,
    intersect,
    mode_for,
    vertex_bound,
    zobel,
)
from pervchow.cycles import EMPTY, JointPattern, check_perversity, check_star
from pervchow.perversity import GeneralizedBound
from pervchow.serialize import InputError, parse_ring

QCONE = ConeVariety(quadric_surface())
P2CONE = ConeVariety(projective_space(2))


class TestModes:
    def test_mode_threshold(self):
        # dimension 2 on a 3-fold cone: vertex contact needs p >= 1
        assert mode_for(3, 2, 0) is Mode.DISALLOWED
        assert mode_for(3, 2, 1) is Mode.ALLOWED
        assert mode_for(3, 2, 2) is Mode.ALLOWED

    def test_points_never_allowed(self):
        for p in range(5):
            assert mode_for(3, 0, p) is Mode.DISALLOWED

    def test_fundamental_class_always_allowed(self):
        for p in range(3):
            assert mode_for(3, 3, p) is Mode.ALLOWED

    def test_payload_codim_consistency_enforced(self):
        with pytest.raises(ValueError):
            ConeClass(QCONE, 2, 1, quadric_surface().unit_class())

    def test_range_validation(self):
        with pytest.raises(ValueError):
            QCONE.cls(4, 0, [1])
        with pytest.raises(ValueError):
            QCONE.cls(1, -1, [1, 0])


class TestGroups:
    def test_zobel_table(self):
        expected = {
            (2, 0): "Z", (2, 1): "Z^2", (2, 2): "Z^2",
            (1, 0): "Z^2", (1, 1): "Z^2", (1, 2): "Z",
            (0, 0): "Z", (3, 0): "Z",
        }
        for (r, p), name in expected.items():
            assert describe(chow_group(QCONE, r, p)) == name

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            chow_group(QCONE, 4, 0)

    def test_p2_cone_everything_rank_one(self):
        # A_*(P^2) has rank one in every degree, so every group is Z
        for r in range(4):
            for p in range(3):
                assert invariant_factors(chow_group(P2CONE, r, p)) == (1, ())


class TestComparisons:
    def test_divisor_map_hits_diagonal(self):
        m = comparison_map(QCONE, 2, 0, 1)
        assert m.matrix == ((1,), (1,))

    def test_curve_map_sums(self):
        m = comparison_map(QCONE, 1, 0, 2)
        assert m.matrix == ((1, 1),)

    def test_identity_when_modes_agree(self):
        assert comparison_map(QCONE, 1, 0, 1).matrix == ((1, 0), (0, 1))
        assert comparison_map(QCONE, 2, 1, 2).matrix == ((1, 0), (0, 1))
        assert comparison_map(QCONE, 2, 1, 1).matrix == ((1, 0), (0, 1))

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            comparison_map(QCONE, 2, 1, 0)


def zobel_basis_classes(catalog):
    cone = catalog.cone
    return {
        "Ce": cone.cls(2, 1, [1, 0]),
        "Cf": cone.cls(2, 1, [0, 1]),
        "H": cone.cls(2, 0, [1]),
        "L": cone.cls(1, 0, [1, 0]),
        "M": cone.cls(1, 0, [0, 1]),
        "N": cone.cls(1, 2, [1]),
    }


class TestIntersect:
    def test_case1_divisor_pairing_formula(self):
        for a, b, c, d in itertools.product(range(-2, 3), repeat=4):
            x = QCONE.cls(2, 1, [a, b])
            y = QCONE.cls(2, 1, [c, d])
            out = intersect(x, y)
            assert out.mode is Mode.ALLOWED
            assert out.r == 1 and out.p == 2
            assert out.payload.coeffs == (a * d + b * c,)

    def test_case2_divisor_with_curve(self):
        cat = zobel()
        assert degree_pairing(cat.classes["D"], cat.classes["M"]) == 1
        assert degree_pairing(cat.classes["D"], cat.classes["L"]) == 0

    def test_case3_hyperplane_sections(self):
        out = intersect(QCONE.cls(2, 0, [1]), QCONE.cls(2, 0, [1]))
        assert out.mode is Mode.DISALLOWED
        assert out.r == 1 and out.p == 0
        assert out.payload.coeffs == (1, 1)

    def test_case1_needs_positive_dimension(self):
        a = QCONE.cls(2, 2, [1, 0])
        b = QCONE.cls(1, 2, [1])
        with pytest.raises(ConeProductError):
            intersect(a, b)

    def test_negative_dimension_rejected(self):
        a = QCONE.cls(1, 0, [1, 0])
        b = QCONE.cls(1, 0, [0, 1])
        with pytest.raises(ConeProductError):
            intersect(a, b)

    def test_cone_mismatch_rejected(self):
        with pytest.raises(ConeProductError):
            intersect(QCONE.cls(2, 1, [1, 0]), P2CONE.cls(2, 1, [1]))

    def test_bilinear_and_commutative(self):
        cases = [
            (QCONE.cls(2, 1, [1, 0]), QCONE.cls(2, 1, [0, 1])),  # both allowed
            (QCONE.cls(2, 0, [1]), QCONE.cls(2, 1, [1, 1])),     # mixed
            (QCONE.cls(2, 0, [1]), QCONE.cls(2, 0, [2])),        # both disallowed
        ]
        for x, y in cases:
            assert intersect(x, y).payload == intersect(y, x).payload
        for a, b in itertools.product(range(-2, 3), repeat=2):
            x1 = QCONE.cls(2, 1, [a, b])
            x2 = QCONE.cls(2, 1, [b, a])
            y = QCONE.cls(2, 1, [1, 1])
            left = intersect(x1 + x2, y)
            right = intersect(x1, y) + intersect(x2, y)
            assert left.payload == right.payload

    def test_cross_case_coherence(self):
        # lifting a vertex-avoiding class first and intersecting via the
        # all-allowed case matches intersecting first and comparing after
        h_low = QCONE.cls(2, 0, [1])
        lift = comparison_map(QCONE, 2, 0, 1)
        lifted_payload = [sum(row) for row in lift.matrix]  # image of 1
        h_high = QCONE.cls(2, 1, lifted_payload)
        for other in (QCONE.cls(2, 1, [1, 0]), QCONE.cls(2, 1, [0, 1]), QCONE.cls(2, 1, [1, 1])):
            via_case1 = intersect(h_high, other)
            via_case2 = intersect(h_low, other)
            assert via_case1.r == via_case2.r
            # compare after pushing both to the same bound
            m = comparison_map(QCONE, via_case2.r, via_case2.p, via_case1.p)
            pushed = [
                sum(m.matrix[i][j] * via_case2.payload.coeffs[j] for j in range(len(via_case2.payload.coeffs)))
                for i in range(len(m.matrix))
            ]
            assert tuple(pushed) == via_case1.payload.coeffs


class TestCartier:
    def test_exhaustive_on_zobel_basis(self):
        disallowed = [QCONE.cls(2, 0, [1]), QCONE.cls(1, 0, [1, 0]), QCONE.cls(1, 0, [0, 1])]
        for x, y in itertools.product(disallowed, repeat=2):
            if x.r + y.r - QCONE.cone_dim < 0:
                continue
            assert cartier_coherence_check(x, y)

    def test_random_coefficients(self):
        for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
            x = QCONE.cls(1, 0, [a, b])
            y = QCONE.cls(2, 0, [c])
            assert cartier_coherence_check(x, y)
            assert cartier_coherence_check(y, x)

    def test_needs_vertex_avoiding_classes(self):
        with pytest.raises(ConeProductError):
            cartier_coherence_check(QCONE.cls(2, 1, [1, 0]), QCONE.cls(2, 0, [1]))


class TestDegreePairing:
    def test_requires_complementary_dimensions(self):
        with pytest.raises(ConeProductError):
            degree_pairing(QCONE.cls(2, 1, [1, 0]), QCONE.cls(2, 1, [0, 1]))

    def test_zero_class_pairs_to_zero(self):
        assert degree_pairing(QCONE.cls(2, 1, [0, 0]), QCONE.cls(1, 0, [1, 1])) == 0

    def test_bilinearity_spot_check(self):
        a1 = QCONE.cls(2, 0, [1])
        a2 = QCONE.cls(2, 0, [2])
        b = QCONE.cls(1, 0, [1, 2])
        assert degree_pairing(a1 + a2, b) == degree_pairing(a1, b) + degree_pairing(a2, b)


class TestPatterns:
    def test_cone_line_touches_vertex(self):
        n = QCONE.cls(1, 2, [1])
        pattern = class_to_pattern(n)
        assert pattern.incidence == {1: 0, 2: 0, 3: 0}

    def test_smooth_line_misses_vertex(self):
        line = QCONE.cls(1, 0, [1, 0])
        pattern = class_to_pattern(line)
        assert pattern.incidence == {1: EMPTY, 2: EMPTY, 3: EMPTY}

    def test_zero_class_pattern_is_empty(self):
        pattern = class_to_pattern(QCONE.cls(2, 1, [0, 0]))
        assert pattern.incidence == {1: EMPTY, 2: EMPTY, 3: EMPTY}

    def test_membership_threshold(self):
        n = QCONE.cls(1, 2, [1])
        pattern = class_to_pattern(n)
        for p in range(4):
            assert check_perversity(pattern, vertex_bound(3, p)) == (p >= 2)

    def test_product_assembles_star_certificate(self):
        pairs = [
            (QCONE.cls(2, 1, [1, 0]), QCONE.cls(2, 1, [0, 1])),
            (QCONE.cls(2, 0, [1]), QCONE.cls(2, 0, [1])),
            (QCONE.cls(2, 0, [1]), QCONE.cls(2, 1, [1, 1])),
            (QCONE.cls(2, 1, [1, 1]), QCONE.cls(1, 2, [1])),
        ]
        for x, y in pairs:
            if x.mode is Mode.ALLOWED and y.mode is Mode.ALLOWED and x.r + y.r - 3 < 1:
                continue
            out = intersect(x, y)
            assert out.p == x.p + y.p
            joint_pattern = class_to_pattern(out)
            joint = {
                i: joint_pattern.incidence[i]
                if (class_to_pattern(x).incidence[i] is not EMPTY
                    and class_to_pattern(y).incidence[i] is not EMPTY)
                else EMPTY
                for i in QCONE.stratification.indices()
            }
            total = None if out.is_zero else out.r
            cert = JointPattern(class_to_pattern(x), class_to_pattern(y), joint, total)
            assert check_star(cert, vertex_bound(3, x.p + y.p))


class TestVertexBound:
    def test_ramp(self):
        assert vertex_bound(3, 2) == GeneralizedBound([0, 1, 2])
        assert vertex_bound(3, 0) == GeneralizedBound([0, 0, 0])
        assert vertex_bound(4, 2) == GeneralizedBound([0, 0, 1, 2])

    def test_beyond_top(self):
        assert vertex_bound(2, 3) == GeneralizedBound([2, 3])


class TestZobelCatalog:
    def test_classes_match_conventions(self):
        cat = zobel()
        assert cat.classes["L"].mode is Mode.DISALLOWED
        assert cat.classes["N"].mode is Mode.ALLOWED
        assert cat.classes["D"].payload.coeffs == (1, 0)

    def test_lines_agree_at_top_but_not_at_zero(self):
        cat = zobel()
        cone = cat.cone
        # at the loose bound both rulings map to the cone line class
        m = comparison_map(cone, 1, 0, 2)
        l_image = [sum(a * b for a, b in zip(row, cat.classes["L"].payload.coeffs)) for row in m.matrix]
        m_image = [sum(a * b for a, b in zip(row, cat.classes["M"].payload.coeffs)) for row in m.matrix]
        assert l_image == m_image == [1]
        # at the strict bound they are distinct generators
        assert cat.classes["L"].payload.coeffs != cat.classes["M"].payload.coeffs

    def test_expected_tables_verify(self):
        cat = zobel()
        for (r, p), (free, torsion) in cat.expected_groups.items():
            assert invariant_factors(chow_group(cat.cone, r, p)) == (free, tuple(torsion))
        for (r, p_from, p_to), matrix in cat.expected_comparisons.items():
            assert comparison_map(cat.cone, r, p_from, p_to).matrix == matrix


class TestConeOverP2:
    """Hand oracle from the polynomial ring Z[h]/h^3."""

    def test_case1_cones_over_lines(self):
        # C(line) . C(line) = C(point): h * h = h^2 with coefficient 1
        a = P2CONE.cls(2, 1, [1])
        out = intersect(a, a)
        assert out.mode is Mode.ALLOWED and out.r == 1
        assert out.payload.coeffs == (1,)
        assert out.payload.codim == 2

    def test_case2_cone_divisor_with_smooth_line(self):
        a = P2CONE.cls(2, 1, [1])      # cone over a line
        b = P2CONE.cls(1, 0, [1])      # vertex-avoiding line, payload h
        assert degree_pairing(a, b) == 1

    def test_case3_hyperplane_sections(self):
        h_section = P2CONE.cls(2, 0, [1])
        out = intersect(h_section, h_section)
        assert out.mode is Mode.DISALLOWED and out.r == 1
        # payload is the line class h; slicing once more gives degree 1
        assert out.payload.coeffs == (1,)
        hh = chow.mul(out.payload, P2CONE.hyperplane_class())
        assert chow.degree(hh) == 1

    def test_case3_degree_against_line(self):
        h_section = P2CONE.cls(2, 0, [1])
        line = P2CONE.cls(1, 0, [1])
        assert degree_pairing(h_section, line) == 1

    def test_group_modes(self):
        # dimension 2 at p = 0 is the vertex-avoiding side, p = 1 the cone side
        assert P2CONE.mode(2, 0) is Mode.DISALLOWED
        assert P2CONE.mode(2, 1) is Mode.ALLOWED
        assert chow_group(P2CONE, 2, 0).rank == 1
        assert chow_group(P2CONE, 2, 1).rank == 1


def torsion_ring_document(rng):
    """A dim-2 ring document with relations that form an ideal, perturbed half the time.

    Codimension 1 carries relations ``rho``; codimension 2 carries every
    ``rho * a_i`` and one vector the degree kills, and the degree is drawn
    among the functionals that kill every ``rho * a_i``.  A perturbation adds
    1 to one entry of the degree or of a codimension-2 relation, so the
    relations may stop forming an ideal or the degree stop vanishing on them.
    """
    w1, w2 = rng.randint(1, 3), rng.randint(2, 4)
    a = [f"a{i}" for i in range(w1)]
    b = [f"b{j}" for j in range(w2)]
    table = {(x, y): [rng.randint(-2, 2) for _ in b] for n, x in enumerate(a) for y in a[n:]}
    rho = [[rng.randint(-2, 2) for _ in a] for _ in range(rng.randint(1, 2))]
    closure = [
        [sum(r[k] * table[min(a[k], s), max(a[k], s)][j] for k in range(w1)) for j in range(w2)]
        for r in rho
        for s in a
    ]

    def killed_by(rows):
        basis = _kernel(GroupMap(FpAbelianGroup(w2), FpAbelianGroup(len(rows)), rows))
        coeffs = [rng.randint(-2, 2) for _ in basis]
        return [sum(c * v[j] for c, v in zip(coeffs, basis)) for j in range(w2)]

    degree = killed_by(closure)
    top = [*closure, killed_by([degree])]
    if rng.random() < 0.5:
        rng.choice([degree, *top])[rng.randrange(w2)] += 1
    return {
        "dim": 2,
        "basis": [["1"], a, b],
        "products": [{"a": x, "b": y, "value": dict(zip(b, v))} for (x, y), v in table.items()],
        "hyperplane": [rng.randint(-2, 2) for _ in a],
        "degree": degree,
        "relations": {"1": rho, "2": top},
    }


class TestTorsionBase:
    def test_products_see_classes_not_representatives(self):
        # on every accepted ring, adding a relation to a factor moves a product by a
        # relation and keeps a degree pairing
        rng, pick = random.Random(11), random.Random(12)
        accepted = rejected = checked = 0
        for _ in range(25):
            try:
                ring = parse_ring(torsion_ring_document(rng))
            except InputError:
                rejected += 1
                continue
            accepted += 1
            cone = ConeVariety(ring)
            d = cone.cone_dim
            for r, p, s, q in itertools.product(range(d + 1), repeat=4):
                a, b = (
                    cone.cls(dim, bound, [pick.randint(-2, 2) for _ in ring.basis_at(cone.payload_codim(dim, bound))])
                    for dim, bound in ((r, p), (s, q))
                )
                try:
                    product = intersect(a, b).payload
                except ConeProductError:
                    continue
                for rho in ring.relations.get(a.payload.codim, ()):
                    shifted = ConeClass(cone, r, p, a.payload + ring.make(a.payload.codim, rho))
                    moved = intersect(shifted, b).payload - product
                    assert lattice_solve(ring.relations.get(moved.codim, ()), moved.coeffs) is not None
                    if r + s == d:
                        assert degree_pairing(shifted, b) == degree_pairing(a, b)
                        checked += 1
        assert accepted >= 12 and rejected >= 6 and checked >= 100

    def test_user_ring_torsion_routes_to_groups(self):
        from pervchow.chow import ChowRingPresentation

        base = ChowRingPresentation(
            "torsion_curve", 1, [["1"], ["a"]], {}, [1], [0], relations={1: [[2]]}
        )
        cone = ConeVariety(base)
        assert invariant_factors(chow_group(cone, 1, 1)) == (0, (2,))  # cone side: A_0 with torsion
        assert invariant_factors(chow_group(cone, 1, 0)) == (1, ())   # avoiding side: A_1 free
        assert invariant_factors(chow_group(cone, 0, 0)) == (0, (2,))


# -- duality at complementary vertex bounds ---------------------------------------

DUALITY_BASES = ["P1", "P2", "P3", "P4", "quadric", "product(P1,P2)", "product(P2,P2)", "product(P1,product(P1,P1))"]


def cone_basis(cone, r, p):
    """The classes of dimension ``r`` at vertex bound ``p`` whose payloads are the basis symbols, in basis order."""
    return [ConeClass(cone, r, p, cone.base.basis_class(sym)) for sym in cone.base.basis_at(cone.payload_codim(r, p))]


def relaxed(a, p_to):
    """``a`` carried to the vertex bound ``p_to`` by the comparison map."""
    matrix = comparison_map(a.cone, a.r, a.p, p_to).matrix
    return a.cone.cls(a.r, p_to, [sum(m * c for m, c in zip(row, a.payload.coeffs)) for row in matrix])


class TestComplementaryDuality:
    """Goresky-MacPherson duality on a cone of dimension ``d``: the bounds ``p`` and ``q = d - 1 - p`` are
    complementary, so of two classes at ``(r, p)`` and ``(d - r, q)`` exactly one passes through the vertex,
    the pairing never slices, and it is the base's own degree pairing."""

    def test_complementary_bounds_pair_perfectly(self):
        cells = pairs = 0
        for name in DUALITY_BASES:
            cone = ConeVariety(chow.builtin(name))
            d = cone.cone_dim
            for r, p in itertools.product(range(d + 1), range(d)):
                q = d - 1 - p
                left, right = cone_basis(cone, r, p), cone_basis(cone, d - r, q)
                matrix = []
                for a in left:
                    row = []
                    for b in right:
                        assert (a.mode is Mode.ALLOWED) != (b.mode is Mode.ALLOWED), (name, r, p)
                        value = degree_pairing(a, b)
                        assert value == chow.degree(chow.mul(a.payload, b.payload)), (name, r, p)
                        row.append(value)
                    matrix.append(row)
                assert len(left) == len(right), (name, r, p)
                assert smith_normal_form(matrix).diagonal() == (1,) * len(left), (name, r, p, matrix)
                cells += 1
                pairs += len(left) * len(right)
        assert (cells, pairs) == (150, 356)

    def test_below_the_complementary_sum_the_conic_pairs_to_two(self):
        # the cone over a conic: P1 embedded by its degree-2 hyperplane class
        conic = ConeVariety(chow.ChowRingPresentation("conic", 1, [["1"], ["h"]], {}, [2], [1]))

        def pairing(p, q):
            return [[degree_pairing(a, b) for b in cone_basis(conic, 1, q)] for a in cone_basis(conic, 1, p)]

        assert pairing(0, 0) == [[2]]  # p + q = d - 2: both avoid the vertex, and the slice is the conic's degree
        assert pairing(1, 0) == [[1]]  # p + q = d - 1: perfect

    def test_comparison_maps_are_adjoint(self):
        # <phi_{p -> p'}(a), b> = <a, phi_{q -> q'}(b)> whenever p' + q = p + q' and both sides are defined
        checked = 0
        for name in DUALITY_BASES:
            cone = ConeVariety(chow.builtin(name))
            d = cone.cone_dim
            for r, p, q in itertools.product(range(d + 1), range(d), range(d)):
                for step in range(d - max(p, q)):
                    for a, b in itertools.product(cone_basis(cone, r, p), cone_basis(cone, d - r, q)):
                        try:
                            left = degree_pairing(relaxed(a, p + step), b)
                            right = degree_pairing(a, relaxed(b, q + step))
                        except ConeProductError:
                            continue
                        assert left == right, (name, r, p, q, step)
                        checked += 1
        assert checked == 2422
