import ast
import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pervchow.chow import (
    ChowRingPresentation,
    builtin,
    degree,
    mul,
    point,
    product_presentation,
    projective_space,
    quadric_surface,
)
from pervchow.serialize import parse_ring, ring_to_json


def brute_bilinear(ring, x, y):
    """Oracle: expand the product symbol by symbol, bypassing chow.mul."""
    k = x.codim + y.codim
    acc = {sym: 0 for sym in ring.basis_at(k)}
    for ca, a in zip(x.coeffs, ring.basis_at(x.codim)):
        for cb, b in zip(y.coeffs, ring.basis_at(y.codim)):
            for sym, c in ring.pair_product(a, b).items():
                acc[sym] += ca * cb * c
    return acc


class TestBuiltins:
    def test_point(self):
        r = point()
        assert r.dim == 0
        assert degree(r.unit_class()) == 1

    def test_projective_space_powers(self):
        r = projective_space(3)
        h = r.hyperplane_class()
        hh = mul(h, h)
        assert hh.coeffs == (1,)
        assert mul(hh, h).coeffs == (1,)
        assert mul(mul(hh, h), h).is_zero  # codim 4 > 3

    def test_p2_degree(self):
        r = projective_space(2)
        assert degree(mul(r.hyperplane_class(), r.hyperplane_class())) == 1

    def test_quadric_relations(self):
        q = quadric_surface()
        e, f = q.basis_class("e"), q.basis_class("f")
        assert mul(e, e).is_zero
        assert mul(f, f).is_zero
        assert mul(e, f).coeffs == (1,)

    def test_quadric_hyperplane_square_by_oracle(self):
        # (e + f)^2 = e^2 + 2 e f + f^2 = 2 pt, by brute bilinear expansion
        q = quadric_surface()
        h = q.hyperplane_class()
        assert brute_bilinear(q, h, h) == {"pt": 2}
        assert degree(mul(h, h)) == 2

    def test_quadric_crossing_degree(self):
        q = quadric_surface()
        assert degree(mul(q.make(1, [1, 0]), q.make(1, [0, 1]))) == 1

    def test_degree_normalization_and_linearity(self):
        q = quadric_surface()
        assert degree(q.make(2, [1])) == 1
        assert degree(q.make(2, [3])) == 3
        assert degree(3 * q.make(2, [1])) == 3

    def test_unit_is_identity(self):
        for ring in (projective_space(2), quadric_surface()):
            one = ring.unit_class()
            for k in range(ring.dim + 1):
                for sym in ring.basis_at(k):
                    x = ring.basis_class(sym)
                    assert mul(one, x) == x
                    assert mul(x, one) == x

    def test_builtin_names(self):
        assert builtin("point").dim == 0
        assert builtin("P3").dim == 3
        assert builtin("quadric") == quadric_surface()
        assert builtin("product(P1,P1)").dim == 2
        assert builtin("product(P1,product(P1,P1))").dim == 3
        with pytest.raises(ValueError):
            builtin("E8")

    def test_deep_product_of_points_builds(self):
        ring = builtin("product(" * 500 + "point" + ",point)" * 500)
        assert ring.dim == 0 and ring.basis == (("|".join(["1"] * 501),),)
        assert degree(ring.unit_class()) == 1


class TestLaws:
    @pytest.mark.parametrize(
        "ring",
        [projective_space(2), projective_space(3), quadric_surface(),
         product_presentation(projective_space(1), projective_space(1)),
         product_presentation(projective_space(2), projective_space(1))],
        ids=lambda r: r.name,
    )
    def test_commutative_and_associative_on_basis(self, ring):
        symbols = [sym for level in ring.basis for sym in level]
        for a, b in itertools.product(symbols, repeat=2):
            assert ring.pair_product(a, b) == ring.pair_product(b, a)
        for a, b, c in itertools.product(symbols, repeat=3):
            xa, xb, xc = (ring.basis_class(s) for s in (a, b, c))
            assert mul(mul(xa, xb), xc) == mul(xa, mul(xb, xc))

    def test_kunneth_degree_multiplicativity(self):
        r1, r2 = projective_space(2), projective_space(1)
        prod = product_presentation(r1, r2)
        pt1 = r1.make(2, [1])
        pt2 = r2.make(1, [1])
        joint = prod.make(3, {"h^2|h": 1})
        assert degree(joint) == degree(pt1) * degree(pt2) == 1

    def test_degree_requires_top_codim(self):
        q = quadric_surface()
        with pytest.raises(ValueError):
            degree(q.hyperplane_class())

    def test_ring_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mul(projective_space(1).hyperplane_class(), quadric_surface().hyperplane_class())


class TestKunnethMatchesQuadric:
    def test_basis_matching_isomorphism_exists(self):
        """Oracle: search for a degree-preserving symbol bijection matching
        structure constants, hyperplane and degree functional."""
        prod = product_presentation(projective_space(1), projective_space(1))
        quad = quadric_surface()
        found = None
        for perm in itertools.permutations(range(2)):
            mapping = {prod.basis_at(0)[0]: quad.basis_at(0)[0],
                       prod.basis_at(2)[0]: quad.basis_at(2)[0]}
            for idx, sym in enumerate(prod.basis_at(1)):
                mapping[sym] = quad.basis_at(1)[perm[idx]]

            def translate(combo):
                return {mapping[s]: c for s, c in combo.items()}

            ok = True
            symbols = list(mapping)
            for a, b in itertools.product(symbols, repeat=2):
                if translate(prod.pair_product(a, b)) != quad.pair_product(mapping[a], mapping[b]):
                    ok = False
                    break
            hyper_prod = {s: c for s, c in zip(prod.basis_at(1), prod.hyperplane) if c}
            hyper_quad = {s: c for s, c in zip(quad.basis_at(1), quad.hyperplane) if c}
            if ok and translate(hyper_prod) == hyper_quad:
                deg_prod = {s: c for s, c in zip(prod.basis_at(2), prod.degree_functional)}
                deg_quad = {s: c for s, c in zip(quad.basis_at(2), quad.degree_functional)}
                if translate(deg_prod) == deg_quad:
                    found = mapping
                    break
        assert found is not None


class TestValidation:
    def test_non_associative_rejected(self):
        # (aa)x = bx = 0 but (ax)a = ba = c
        products = {("a", "a"): {"b": 1}, ("a", "b"): {"c": 1}, ("a", "x"): {"b": 1}}
        with pytest.raises(ValueError, match=NOT_ASSOCIATIVE):
            ChowRingPresentation("bad", 3, [["1"], ["a", "x"], ["b"], ["c"]], products, [1, 0], [1])

    def test_wrong_codim_target_rejected(self):
        with pytest.raises(ValueError):
            ChowRingPresentation("bad", 2, [["1"], ["a"], ["b"]], {("a", "a"): {"a": 1}}, [1], [1])

    def test_unit_row_conflict_rejected(self):
        with pytest.raises(ValueError):
            ChowRingPresentation("bad", 1, [["1"], ["a"]], {("1", "a"): {"a": 2}}, [1], [1])

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError):
            ChowRingPresentation("bad", 1, [["x"], ["x"]], {}, [1], [1])

    def test_relations_route_to_groups(self):
        ring = ChowRingPresentation(
            "torsion", 1, [["1"], ["a"]], {}, [1], [0], relations={1: [[2]]}
        )
        free, torsion = ring.group(1).rank, ring.group(1).relations
        assert free == 1 and torsion == ((2,),)


class TestJson:
    @pytest.mark.parametrize(
        "ring",
        [projective_space(2), quadric_surface(),
         product_presentation(projective_space(1), projective_space(1))],
        ids=lambda r: r.name,
    )
    def test_round_trip(self, ring):
        assert parse_ring(ring_to_json(ring)) == ring

    def test_parse_builtin_name(self):
        assert parse_ring("quadric_surface") == quadric_surface()


# -- associativity check against the brute-force reference -----------------

NOT_ASSOCIATIVE = r"structure constants are not associative at \((.*)\)"


class UncheckedRing(ChowRingPresentation):
    """A presentation built without the associativity check, for the reference."""

    def _check_associativity(self):
        pass


def reference_expand(ring, combo, sym):
    acc = {}
    for s, c in combo.items():
        for out, k in ring.pair_product(s, sym).items():
            acc[out] = acc.get(out, 0) + c * k
    return {s: c for s, c in acc.items() if c}


def violates(ring, a, b, c):
    """Whether (ab)c differs from (bc)a."""
    left = reference_expand(ring, ring.pair_product(a, b), c)
    return left != reference_expand(ring, ring.pair_product(b, c), a)


def reference_violation(ring):
    """Brute force: the first ordered basis triple with (ab)c != (bc)a, or None."""
    symbols = [sym for level in ring.basis for sym in level]
    for triple in itertools.product(symbols, repeat=3):
        if violates(ring, *triple):
            return triple
    return None


def random_graded_table(rng):
    """Dim 1-4, 1-3 symbols per level, coefficients in [-1, 2].

    Names are shuffled so that sorted-pair order disagrees with basis order,
    and small coefficients make many tables non-associative.
    """
    dim = rng.randint(1, 4)
    names = [f"g{m}" for m in range(12)]
    rng.shuffle(names)
    basis = [[rng.choice(["1", "u"])]]
    for _ in range(dim):
        size = rng.randint(1, 3)
        basis.append(names[:size])
        names = names[size:]
    codim = {sym: k for k, level in enumerate(basis) for sym in level}
    products = {}
    for a, b in itertools.combinations_with_replacement(list(codim)[1:], 2):
        total = codim[a] + codim[b]
        if total <= dim:
            products[(a, b)] = {sym: rng.randint(-1, 2) for sym in basis[total]}
    return dim, basis, products


def assert_check_matches_reference(dim, basis, products):
    """The constructor accepts exactly when the reference finds no violation,
    and a rejection names a triple that violates under some ordering.
    Returns whether the table was accepted."""
    args = ("t", dim, basis, products, [0] * len(basis[1]), [1] * len(basis[dim]))
    unchecked = UncheckedRing(*args)
    expected = reference_violation(unchecked)
    try:
        ChowRingPresentation(*args)
    except ValueError as exc:
        match = re.fullmatch(NOT_ASSOCIATIVE, str(exc))
        assert match, str(exc)
        assert expected is not None
        named = ast.literal_eval(f"({match.group(1)})")
        assert any(violates(unchecked, *order) for order in itertools.permutations(named))
        return False
    assert expected is None
    return True


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_associativity_check_matches_reference(rng):
    assert_check_matches_reference(*random_graded_table(rng))


def test_associativity_check_matches_reference_seeded_batch():
    rng = random.Random(20131)
    verdicts = [assert_check_matches_reference(*random_graded_table(rng)) for _ in range(300)]
    # the batch exercises both outcomes
    assert 0 < sum(verdicts) < len(verdicts)


class TestAssociativityEdgeCases:
    """Tables whose only violation sits where a pruned walk could skip it."""

    @pytest.mark.parametrize(
        "products, named",
        [
            # (aa)b = t but (ab)a = 0: only the multiset {a, a, b} fails
            ({("a", "a"): {"p": 1}, ("a", "b"): {"q": 1}, ("b", "p"): {"t": 1}}, "'a', 'a', 'b'"),
            # (bb)a = t but (ab)b = 0: only the multiset {a, b, b} fails
            ({("b", "b"): {"p": 1}, ("a", "b"): {"q": 1}, ("a", "p"): {"t": 1}}, "'a', 'b', 'b'"),
        ],
    )
    def test_repeated_symbol_triple(self, products, named):
        basis = [["1"], ["a", "b"], ["p", "q"], ["t"]]
        with pytest.raises(ValueError, match=re.escape(f"at ({named})")):
            ChowRingPresentation("rep", 3, basis, products, [1, 1], [1])
        assert assert_check_matches_reference(3, basis, products) is False

    @pytest.mark.parametrize("nonzero", [("ab", "c"), ("bc", "a"), ("ca", "b")])
    def test_three_symbols_of_one_codimension(self, nonzero):
        # exactly one of (ab)c, (bc)a, (ca)b is the point class
        products = {("a", "b"): {"ab": 1}, ("b", "c"): {"bc": 1}, ("a", "c"): {"ca": 1}}
        products[nonzero] = {"t": 1}
        basis = [["1"], ["a", "b", "c"], ["ab", "bc", "ca"], ["t"]]
        with pytest.raises(ValueError, match=re.escape("at ('a', 'b', 'c')")):
            ChowRingPresentation("three", 3, basis, products, [1, 1, 1], [1])
        assert assert_check_matches_reference(3, basis, products) is False


# -- generating sets ----------------------------------------------------------


class TestGenerators:
    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_projective_space_is_generated_by_h(self, n):
        assert projective_space(n)._generators() == ["h"]

    @pytest.mark.parametrize("a, b", [(1, 1), (2, 3), (4, 1)])
    def test_product_is_generated_by_its_two_hyperplanes(self, a, b):
        ring = product_presentation(projective_space(a), projective_space(b))
        assert ring._generators() == list(ring.basis_at(1))

    def test_quadric_is_generated_by_its_rulings(self):
        assert quadric_surface()._generators() == ["e", "f"]

    def test_codim_two_generator_outside_the_products(self):
        # a*a = 0, so q spans codim 2 alone; the only failing multiset is
        # {a, q, q}, where (aq)q = t but (qq)a = 0: a's own condition
        # (aq)q = (aq)q is empty there, only q's condition sees it
        basis = [["1"], ["a"], ["q"], ["r"], ["v"], ["t"]]
        products = {("a", "q"): {"r": 1}, ("q", "q"): {"v": 1}, ("q", "r"): {"t": 1}}
        assert UncheckedRing("gen2", 5, basis, products, [1], [1])._generators() == ["a", "q"]
        with pytest.raises(ValueError, match=re.escape("at ('a', 'q', 'q')")):
            ChowRingPresentation("gen2", 5, basis, products, [1], [1])
        assert assert_check_matches_reference(5, basis, products) is False

    @pytest.mark.parametrize("pp, accepted", [(1, True), (2, False)])
    def test_rational_but_not_integral_span(self, pp, accepted):
        # h*h = 2p: p = (h*h)/2 over Q, so h alone generates; with p*p = t the
        # ring is h^4 = 4t, with p*p = 2t the multiset {h, h, p} fails
        basis = [["1"], ["h"], ["p"], ["s"], ["t"]]
        products = {("h", "h"): {"p": 2}, ("h", "p"): {"s": 1}, ("h", "s"): {"t": 2},
                    ("p", "p"): {"t": pp}}
        assert UncheckedRing("half", 4, basis, products, [1], [1])._generators() == ["h"]
        assert assert_check_matches_reference(4, basis, products) is accepted

    def test_dense_level_fills_in_reduced_form(self):
        # 64 dense product rows fill codimension 2; with the echelon left
        # unreduced between rows, its entries grew until this took minutes
        rng = random.Random(3)
        level1, level2 = [f"a{i}" for i in range(32)], [f"p{i}" for i in range(64)]
        pairs = list(itertools.combinations_with_replacement(level1, 2))
        products = {pair: {s: rng.randint(-9, 9) for s in level2} for pair in rng.sample(pairs, 64)}
        start = time.perf_counter()
        ring = ChowRingPresentation("dense", 4, [["1"], level1, level2, ["t"], ["pt"]], products, [1] * 32, [1])
        assert time.perf_counter() - start < 5.0
        assert ring._level_generators(2) == []


def random_sparse_table(rng):
    """Dim 1-5, 1-3 symbols per level; each product and each coefficient is
    present with probability 1/2, so that products often miss part of a level
    and generators above codimension 1 occur."""
    dim = rng.randint(1, 5)
    names = [f"g{m}" for m in range(16)]
    rng.shuffle(names)
    basis = [[rng.choice(["1", "u"])]]
    for _ in range(dim):
        size = rng.randint(1, 3)
        basis.append(names[:size])
        names = names[size:]
    codim = {sym: k for k, level in enumerate(basis) for sym in level}
    products = {}
    for a, b in itertools.combinations_with_replacement(list(codim)[1:], 2):
        total = codim[a] + codim[b]
        if total <= dim and rng.random() < 0.5:
            products[(a, b)] = {
                sym: rng.randint(-1, 2) for sym in basis[total] if rng.random() < 0.5
            }
    return dim, basis, products


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_associativity_check_matches_reference_sparse(rng):
    assert_check_matches_reference(*random_sparse_table(rng))


def test_sparse_batch_walks_generators_above_codim_one():
    rng = random.Random(20132)
    verdicts, high = [], 0
    for _ in range(200):
        dim, basis, products = random_sparse_table(rng)
        verdicts.append(assert_check_matches_reference(dim, basis, products))
        ring = UncheckedRing("t", dim, basis, products, [0] * len(basis[1]), [1] * len(basis[dim]))
        # generators the walk visits: above codim dim - 2 there is no room
        high += any(1 < ring.codim_of(g) <= dim - 2 for g in ring._generators())
    assert 0 < sum(verdicts) < len(verdicts)
    assert high > 0
