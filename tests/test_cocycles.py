import itertools

import pytest

from pervchow.cocycles import (
    CocyclePattern,
    cap_pattern,
    check_cocycle,
    join,
    morphism_fiber_pattern,
    slice_against,
    slice_with_hyperplanes,
)
from pervchow.cycles import CyclePattern, check_perversity, check_star
from pervchow.perversity import GeneralizedBound, add, leq, zero
from pervchow.serialize import parse_stratification, stratification_to_json
from pervchow.strata import isolated_vertex

V3 = isolated_vertex(3)


def profile(strata, values, t=None, target=None):
    t = max(values) if t is None else t
    target = t if target is None else target
    return CocyclePattern(strata, t, target, dict(zip(strata.indices(), values)))


def all_profiles(strata, t, target, cap):
    cap = min(cap, t)
    d = strata.depth
    out = []
    for combo in itertools.product(range(cap + 1), repeat=d):
        out.append(CocyclePattern(strata, t, target, dict(zip(strata.indices(), combo))))
    return out


def all_bounds(d, cap):
    return [GeneralizedBound(c) for c in itertools.combinations_with_replacement(range(cap + 1), d)]


class TestMembership:
    def test_flat_graph_passes_zero(self):
        flat = profile(V3, [0, 0, 0], t=2, target=2)
        assert check_cocycle(flat, zero(3))

    def test_resolution_with_curve_fiber(self):
        # n = t = 3 (a resolution), one-dimensional fiber over the vertex;
        # the lower locally closed strata are empty, so their excess is 0
        res = CocyclePattern(V3, 3, 3, {1: 0, 2: 0, 3: 1})
        for bound in all_bounds(3, 3):
            assert check_cocycle(res, bound) == (bound.at(3) >= 1)

    def test_excess_beyond_codim_rejected(self):
        with pytest.raises(ValueError):
            CocyclePattern(V3, 1, 1, {1: 2, 2: 0, 3: 0})

    def test_monotone_in_bound(self):
        for pattern in all_profiles(V3, 2, 2, 2):
            for p in all_bounds(3, 2):
                if not check_cocycle(pattern, p):
                    continue
                for q in all_bounds(3, 3):
                    if leq(p, q):
                        assert check_cocycle(pattern, q)

    def test_depth_mismatch(self):
        with pytest.raises(ValueError):
            check_cocycle(profile(V3, [0, 0, 0], t=1, target=1), zero(2))


class TestJoin:
    def test_excess_profiles_add(self):
        a = profile(V3, [0, 0, 1], t=1, target=1)
        b = profile(V3, [0, 1, 1], t=1, target=1)
        out = join(a, b)
        assert out.t == 2
        assert out.target_dim == 3
        assert out.excess == {1: 0, 2: 1, 3: 2}

    def test_model_tag_does_not_block_join(self):
        # the same strata documented with another construction tag
        doc = dict(stratification_to_json(V3), model="generic")
        generic = parse_stratification(doc)
        assert generic.model != V3.model
        a = profile(V3, [0, 0, 1], t=1, target=1)
        b = profile(generic, [0, 1, 1], t=1, target=1)
        assert join(a, b).excess == {1: 0, 2: 1, 3: 2}

    def test_honest_cocycles_join_to_honest(self):
        a = profile(V3, [0, 0, 0], t=2, target=2)
        b = profile(V3, [0, 0, 0], t=1, target=1)
        assert join(a, b).excess == {1: 0, 2: 0, 3: 0}

    def test_join_membership_additivity(self):
        for a in all_profiles(V3, 2, 2, 2):
            for b in all_profiles(V3, 1, 1, 1):
                out = join(a, b)
                for p in all_bounds(3, 2):
                    for q in all_bounds(3, 1):
                        if check_cocycle(a, p) and check_cocycle(b, q):
                            assert check_cocycle(out, add(p, q))

    def test_join_tight_profiles_exact(self):
        # with equality-tight profiles, join passes p + q exactly when the
        # factors pass p and q
        for d in (1, 2, 3):
            strata = isolated_vertex(d)
            for p in all_bounds(d, 2):
                for q in all_bounds(d, 2):
                    if p.at(d) > 2 or q.at(d) > 2:
                        continue
                    a = CocyclePattern(strata, 2, 2, {i: p.at(i) for i in strata.indices()})
                    b = CocyclePattern(strata, 2, 2, {i: q.at(i) for i in strata.indices()})
                    out = join(a, b)
                    assert check_cocycle(out, add(p, q))
                    for p2 in all_bounds(d, 2):
                        for q2 in all_bounds(d, 2):
                            if check_cocycle(a, p2) and check_cocycle(b, q2):
                                assert check_cocycle(out, add(p2, q2))

    def test_join_commutative_and_associative_profiles(self):
        a = profile(V3, [0, 0, 1], t=1, target=1)
        b = profile(V3, [0, 1, 1], t=1, target=1)
        c = profile(V3, [1, 1, 1], t=1, target=1)
        assert join(a, b) == join(b, a)
        # associativity at the level of excess profiles and codimensions
        ab, bc = join(a, b), join(b, c)
        left = {i: ab.excess[i] + c.excess[i] for i in V3.indices()}
        right = {i: a.excess[i] + bc.excess[i] for i in V3.indices()}
        assert left == right
        assert ab.t + c.t == a.t + bc.t

    def test_requires_projective_space_values(self):
        bad = profile(V3, [0, 0, 0], t=1, target=2)
        good = profile(V3, [0, 0, 0], t=1, target=1)
        with pytest.raises(ValueError):
            join(bad, good)

    def test_stratification_mismatch(self):
        a = profile(V3, [0, 0, 0], t=1, target=1)
        b = profile(isolated_vertex(2), [0, 0], t=1, target=1)
        with pytest.raises(ValueError):
            join(a, b)


class TestSlice:
    def test_zero_excess_meets_strata_properly(self):
        a = profile(V3, [0, 0, 0], t=2, target=2)
        out = slice_with_hyperplanes(a, 2)
        assert out.r == 1
        # d - i - t = 3 - i - 2: dimension 0 at the first stratum, empty deeper
        assert out.incidence == {1: 0, 2: None, 3: None}

    def test_excess_profile_becomes_incidence(self):
        # incidence(i) = d - t - i + excess(i)
        a = profile(V3, [0, 1, 2], t=2, target=2)
        out = slice_with_hyperplanes(a, 2)
        assert out.incidence == {1: 0, 2: 0, 3: 0}
        assert out.r == 1
        b = profile(V3, [0, 1, 1], t=1, target=1)
        out = slice_with_hyperplanes(b, 1)
        assert out.incidence == {1: 1, 2: 1, 3: 0}
        assert out.r == 2

    def test_count_must_match(self):
        a = profile(V3, [0, 0, 0], t=2, target=2)
        with pytest.raises(ValueError):
            slice_with_hyperplanes(a, 1)

    def test_t_zero_gives_fundamental_pattern(self):
        a = profile(V3, [0, 0, 0], t=0, target=0)
        out = slice_with_hyperplanes(a, 0)
        assert out.r == 3
        assert out.incidence == {1: 2, 2: 1, 3: 0}

    def test_sliced_pattern_passes_own_excess_bound(self):
        for d in (2, 3, 4):
            strata = isolated_vertex(d)
            for t in (1, 2, 3):
                if t > d:
                    continue
                for pattern in all_profiles(strata, t, t, 3):
                    bound_entries = [pattern.excess[i] for i in strata.indices()]
                    if any(b < a for a, b in zip(bound_entries, bound_entries[1:])):
                        continue  # only nondecreasing profiles form bounds
                    bound = GeneralizedBound(bound_entries)
                    out = slice_with_hyperplanes(pattern, t)
                    assert check_perversity(out, bound)

    def test_incidence_capped_at_result_dimension(self):
        # excess above the stratum index would overshoot r without the cap
        strata = isolated_vertex(3)
        a = CocyclePattern(strata, 2, 2, {1: 2, 2: 0, 3: 0})
        out = slice_with_hyperplanes(a, 2)
        assert out.r == 1
        assert out.incidence[1] == 1  # min(d - 1 + 2 - t, r) = min(2, 1)


class TestSliceAgainst:
    def monotone_cycles(self, r):
        out = []
        for combo in itertools.product([None, 0, 1, 2], repeat=3):
            ok = True
            for x, y in zip(combo, combo[1:]):
                if x is None and y is not None:
                    ok = False
                if x is not None and y is not None and y > x:
                    ok = False
            if ok and all(v is None or v <= r for v in combo):
                out.append(CyclePattern(V3, r, dict(zip(V3.indices(), combo))))
        return out

    def test_certificate_passes_star_at_summed_profile(self):
        for t in (1, 2):
            for a in all_profiles(V3, t, t, 2):
                for b in self.monotone_cycles(2):
                    cert = slice_against(a, b)
                    for p in all_bounds(3, 2):
                        if not check_cocycle(a, p):
                            continue
                        for q in all_bounds(3, 2):
                            if check_perversity(b, q):
                                assert check_star(cert, add(p, q))

    def test_zero_excess_certificate_values(self):
        a = profile(V3, [0, 0, 0], t=1, target=1)
        b = CyclePattern(V3, 2, {1: 1, 2: 0, 3: 0})
        cert = slice_against(a, b)
        assert cert.total == 1
        assert cert.joint == {1: 0, 2: None, 3: None}

    def test_cycle_below_codim_gives_empty_certificate(self):
        a = profile(V3, [0, 0, 0], t=2, target=2)
        b = CyclePattern(V3, 1, {1: 0, 2: 0, 3: 0})
        cert = slice_against(a, b)
        assert cert.total is None
        assert all(v is None for v in cert.joint.values())


class TestCap:
    def test_zero_excess_cap_preserves_bound(self):
        for b_vals in itertools.product([None, 0, 1, 2], repeat=3):
            ok = True
            for x, y in zip(b_vals, b_vals[1:]):
                if x is None and y is not None:
                    ok = False
                if x is not None and y is not None and y > x:
                    ok = False
            if not ok:
                continue
            b = CyclePattern(V3, 2, dict(zip(V3.indices(), b_vals)))
            a = profile(V3, [0, 0, 0], t=1, target=1)
            out = cap_pattern(a, b)
            assert out.r == 1
            for q in all_bounds(3, 2):
                if check_perversity(b, q):
                    assert check_perversity(out, q)

    def test_fundamental_class_cap_is_duality(self):
        # capping with [X] reproduces the slice of the cocycle itself, whose
        # incidence with stratum i is d - i + excess(i) - t (EMPTY below 0)
        for d in (2, 3, 4, 5):
            strata = isolated_vertex(d)
            fundamental = CyclePattern(strata, d, {i: d - i for i in strata.indices()})
            for t in range(1, d + 1):
                for a in all_profiles(strata, t, t, 2):
                    via_cap = cap_pattern(a, fundamental)
                    via_slice = slice_with_hyperplanes(a, t)
                    assert via_cap == via_slice
                    for i in strata.indices():
                        v = d - i + a.excess[i] - t
                        assert via_slice.incidence[i] == (None if v < 0 else min(v, d - t))
                    for p in all_bounds(d, 2):
                        if check_cocycle(a, p):
                            assert check_perversity(via_cap, p)

    def test_excess_adds(self):
        a = CocyclePattern(V3, 2, 2, {1: 0, 2: 0, 3: 1})
        b = CyclePattern(V3, 2, {1: 1, 2: 1, 3: 0})
        out = cap_pattern(a, b)
        assert out.r == 0
        p = GeneralizedBound([0, 0, 1])
        q = GeneralizedBound([0, 1, 1])
        assert check_cocycle(a, p) and check_perversity(b, q)
        assert check_perversity(out, add(p, q))

    def test_additive_bound_sweep(self):
        for a in all_profiles(V3, 1, 1, 1):
            for b_vals in itertools.product([None, 0, 1], repeat=3):
                try:
                    b = CyclePattern(V3, 2, dict(zip(V3.indices(), b_vals)))
                except ValueError:
                    continue
                out = cap_pattern(a, b)
                for p in all_bounds(3, 1):
                    for q in all_bounds(3, 2):
                        if check_cocycle(a, p) and check_perversity(b, q):
                            assert check_perversity(out, add(p, q))

    def test_dimension_precondition(self):
        a = profile(V3, [0, 0, 0], t=2, target=2)
        b = CyclePattern(V3, 1, {1: None, 2: None, 3: None})
        with pytest.raises(ValueError):
            cap_pattern(a, b)


class TestMorphismPattern:
    def test_flat_morphism_zero_excess(self):
        out = morphism_fiber_pattern(V3, {1: 1, 2: 1, 3: 1}, 4)
        assert out.t == 3
        assert out.target_dim == 4
        assert out.excess == {1: 0, 2: 0, 3: 0}

    def test_small_resolution_of_threefold(self):
        # exceptional curve sits over the vertex only
        out = morphism_fiber_pattern(V3, {1: 0, 2: 0, 3: 1}, 3)
        assert out.excess == {1: 0, 2: 0, 3: 1}
        assert out.excess[3] == 1

    def test_isomorphism(self):
        out = morphism_fiber_pattern(V3, {1: 0, 2: 0, 3: 0}, 3)
        assert out.t == 3 and out.target_dim == 3
        assert all(v == 0 for v in out.excess.values())

    def test_fiber_below_generic_rejected(self):
        with pytest.raises(ValueError):
            morphism_fiber_pattern(V3, {1: 0, 2: 0, 3: 0}, 4)

    def test_acts_on_cocycles_by_pushforward_bound(self):
        # the graph's own excess profile is the bound its pushforwards satisfy
        graph = morphism_fiber_pattern(V3, {1: 0, 2: 0, 3: 1}, 3)
        for bound in all_bounds(3, 3):
            assert check_cocycle(graph, bound) == (bound.at(3) >= 1)

