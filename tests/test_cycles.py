import itertools

import pytest

from pervchow.cycles import (
    EMPTY,
    CyclePattern,
    FamilyCertificate,
    JointPattern,
    check_family_certificate,
    check_perversity,
    check_star,
    empty_pattern,
    flat_pullback,
    proper_pushforward,
    sum_patterns,
    suspend_pattern,
)
from pervchow.perversity import GeneralizedBound, Perversity, leq, star_compose, top, zero
from pervchow.strata import isolated_vertex

V3 = isolated_vertex(3)


def vertex_pattern(r, value, d=3):
    strata = isolated_vertex(d)
    return CyclePattern(strata, r, {i: value for i in strata.indices()})


def all_bounds(d, cap):
    return [GeneralizedBound(c) for c in itertools.combinations_with_replacement(range(cap + 1), d)]


def all_perversities(d):
    out = []
    for steps in itertools.product((0, 1), repeat=d - 1):
        entries = [0]
        for s in steps:
            entries.append(entries[-1] + s)
        out.append(Perversity(entries))
    return out


def nonincreasing_patterns(strata, r, cap):
    """All monotone incidence declarations with values in {EMPTY, 0..min(r, cap)}."""
    values = list(range(min(r, cap) + 1))
    d = strata.depth
    out = []
    for combo in itertools.product([EMPTY] + values, repeat=d):
        ok = True
        for a, b in zip(combo, combo[1:]):
            if a is EMPTY and b is not EMPTY:
                ok = False
                break
            if a is not EMPTY and b is not EMPTY and b > a:
                ok = False
                break
        if ok:
            out.append(CyclePattern(strata, r, dict(zip(strata.indices(), combo))))
    return out


class TestMembership:
    def test_vertex_avoiding_line_passes_zero(self):
        line = vertex_pattern(1, EMPTY)
        assert check_perversity(line, zero(3))

    def test_cone_line_needs_top(self):
        cone_line = vertex_pattern(1, 0)
        for p in all_perversities(3):
            expected = p.at(3) == 2
            assert check_perversity(cone_line, p) == expected

    def test_empty_cycle_passes_everything(self):
        for bound in all_bounds(3, 3):
            assert check_perversity(empty_pattern(V3, 2), bound)

    def test_incidence_capped_by_dimension(self):
        with pytest.raises(ValueError):
            vertex_pattern(1, 2)

    def test_depth_mismatch(self):
        with pytest.raises(ValueError):
            check_perversity(vertex_pattern(1, EMPTY), zero(2))

    def test_missing_stratum_rejected(self):
        with pytest.raises(ValueError):
            CyclePattern(V3, 1, {1: 0, 2: 0})


class TestStar:
    def test_disjoint_pair_passes(self):
        d_pattern = vertex_pattern(2, 0)
        l_pattern = vertex_pattern(1, EMPTY)
        joint = JointPattern(d_pattern, l_pattern, {1: EMPTY, 2: EMPTY, 3: EMPTY}, EMPTY)
        assert check_star(joint, zero(3))

    def test_smooth_point_intersection_passes(self):
        d_pattern = vertex_pattern(2, 0)
        m_pattern = vertex_pattern(1, EMPTY)
        joint = JointPattern(d_pattern, m_pattern, {1: EMPTY, 2: EMPTY, 3: EMPTY}, 0)
        assert check_star(joint, zero(3))

    def test_vertex_crossing_needs_large_shift(self):
        a = vertex_pattern(2, 0)
        b = vertex_pattern(2, 0)
        joint = JointPattern(a, b, {1: 0, 2: 0, 3: 0}, 1)
        # at i = 3 the inequality reads 0 <= r+s-d - (3 - c_3) = 1 - 3 + c_3
        for c in all_bounds(3, 4):
            expected = c.at(3) >= 2 and c.at(2) >= 1 and all(
                0 <= 1 - (i - c.at(i)) for i in (1, 2, 3)
            )
            assert check_star(joint, c) == expected

    def test_total_bound_enforced(self):
        a = vertex_pattern(2, 0)
        b = vertex_pattern(2, 0)
        joint = JointPattern(a, b, {1: 0, 2: 0, 3: 0}, 2)
        assert not check_star(joint, top(3))  # total 2 > r+s-d = 1

    def test_symmetry(self):
        a = vertex_pattern(2, 1)
        b = vertex_pattern(1, 0)
        fwd = JointPattern(a, b, {1: 0, 2: 0, 3: 0}, 0)
        rev = JointPattern(b, a, {1: 0, 2: 0, 3: 0}, 0)
        for c in all_bounds(3, 3):
            assert check_star(fwd, c) == check_star(rev, c)

    def test_monotone_in_shift(self):
        a = vertex_pattern(2, 1)
        b = vertex_pattern(2, 0)
        joints = [
            JointPattern(a, b, {1: 0, 2: 0, 3: 0}, 1),
            JointPattern(a, b, {1: 0, 2: 0, 3: EMPTY}, 0),
            JointPattern(a, b, {1: EMPTY, 2: EMPTY, 3: EMPTY}, EMPTY),
        ]
        bounds = all_bounds(3, 3)
        for joint in joints:
            for c1 in bounds:
                if not check_star(joint, c1):
                    continue
                for c2 in bounds:
                    if leq(c1, c2):
                        assert check_star(joint, c2)

    def test_joint_dominated_by_factors(self):
        a = vertex_pattern(2, EMPTY)
        b = vertex_pattern(1, 0)
        with pytest.raises(ValueError):
            JointPattern(a, b, {1: 0, 2: 0, 3: 0}, 0)

    def test_joint_dominated_by_total(self):
        a = vertex_pattern(2, 1)
        b = vertex_pattern(2, 1)
        with pytest.raises(ValueError):
            JointPattern(a, b, {1: 1, 2: 0, 3: 0}, 0)

    def test_errors_spell_empty_as_documents_do(self):
        with pytest.raises(ValueError, match=r"exceeds the declared total empty$"):
            JointPattern(vertex_pattern(2, 1), vertex_pattern(2, 1), {1: 0, 2: 0, 3: 0}, EMPTY)
        with pytest.raises(ValueError, match=r"exceeds a factor's incidence empty at stratum 1$"):
            JointPattern(vertex_pattern(2, EMPTY), vertex_pattern(1, 0), {1: 0, 2: 0, 3: 0}, 0)


class TestTransforms:
    def test_pullback_identity(self):
        pattern = vertex_pattern(1, 0)
        assert flat_pullback(pattern, 0) == pattern

    def test_pullback_additivity(self):
        pattern = vertex_pattern(1, 0)
        assert flat_pullback(flat_pullback(pattern, 1), 2) == flat_pullback(pattern, 3)

    def test_pullback_preserves_membership(self):
        for pattern in nonincreasing_patterns(V3, 2, 2):
            for bound in all_bounds(3, 3):
                for e in (1, 2):
                    assert check_perversity(flat_pullback(pattern, e), bound) == check_perversity(
                        pattern, bound
                    )

    def test_pushforward_zero_collapse_is_identity(self):
        for pattern in nonincreasing_patterns(V3, 2, 2):
            assert proper_pushforward(pattern, zero(3)) == pattern

    def test_pushforward_soundness_sweep(self):
        """If the input satisfies p, the pushforward satisfies p * c."""
        for d in (2, 3, 4):
            strata = isolated_vertex(d)
            patterns = nonincreasing_patterns(strata, 2, 3)
            for p in all_bounds(d, 3):
                passing = [pat for pat in patterns if check_perversity(pat, p)]
                for c in all_perversities(d):
                    transformed = star_compose(p, c)
                    for pat in passing:
                        assert check_perversity(proper_pushforward(pat, c), transformed)

    def test_pushforward_empty_stays_empty(self):
        for c in all_perversities(3):
            assert proper_pushforward(empty_pattern(V3, 2), c) == empty_pattern(V3, 2)

    def test_suspension_preserves_membership(self):
        for d in (2, 3, 4):
            strata = isolated_vertex(d)
            for pattern in nonincreasing_patterns(strata, 3, 3):
                out = suspend_pattern(pattern)
                assert out.r == pattern.r + 1
                assert out.strata.ambient_dim == d + 1
                for bound in all_bounds(d, 3):
                    assert check_perversity(out, bound) == check_perversity(pattern, bound)

    def test_double_suspension(self):
        pattern = vertex_pattern(1, 0)
        once = suspend_pattern(pattern)
        twice = suspend_pattern(once)
        assert twice.r == pattern.r + 2
        assert twice.strata.ambient_dim == pattern.strata.ambient_dim + 2

    def test_suspension_of_empty_is_empty(self):
        out = suspend_pattern(empty_pattern(V3, 1))
        assert out == empty_pattern(out.strata, 2)

    def test_bounds_beyond_top_are_equivalent(self):
        # once entry i reaches i the inequality at stratum i is vacuous, so
        # all such bounds define the same (full) membership predicate
        for pattern in nonincreasing_patterns(V3, 2, 2):
            big = GeneralizedBound([1, 2, 3])
            bigger = GeneralizedBound([5, 6, 7])
            assert check_perversity(pattern, big)
            assert check_perversity(pattern, bigger)

    def test_pull_then_push_keeps_membership(self):
        for pattern in nonincreasing_patterns(V3, 2, 2):
            for e in (0, 1, 2):
                round_trip = proper_pushforward(flat_pullback(pattern, e), zero(3))
                for bound in all_bounds(3, 3):
                    assert check_perversity(round_trip, bound) == check_perversity(
                        pattern, bound
                    )

    def test_monotonicity_in_bound(self):
        for pattern in nonincreasing_patterns(V3, 2, 2):
            for p in all_bounds(3, 2):
                if not check_perversity(pattern, p):
                    continue
                for q in all_bounds(3, 3):
                    if leq(p, q):
                        assert check_perversity(pattern, q)


class TestFamilyCertificate:
    def test_constant_family(self):
        alpha = vertex_pattern(1, EMPTY)
        cert = FamilyCertificate(
            generic_fiber=alpha,
            special_fibers=(("0", alpha), ("1", alpha)),
            endpoints=(alpha, alpha),
            flat_over_line=True,
        )
        for p in all_perversities(3):
            assert check_family_certificate(cert, p)

    def test_violating_fiber_fails(self):
        good = vertex_pattern(1, EMPTY)
        bad = vertex_pattern(1, 0)  # touches the vertex
        cert = FamilyCertificate(
            generic_fiber=good,
            special_fibers=(("0", good), ("1", bad)),
            endpoints=(good, bad),
            flat_over_line=True,
        )
        assert not check_family_certificate(cert, zero(3))

    def test_flatness_required(self):
        alpha = vertex_pattern(1, EMPTY)
        cert = FamilyCertificate(alpha, (("0", alpha), ("1", alpha)), (alpha, alpha), False)
        assert not check_family_certificate(cert, zero(3))

    def test_missing_endpoint_fiber(self):
        alpha = vertex_pattern(1, EMPTY)
        cert = FamilyCertificate(alpha, (("0", alpha),), (alpha, alpha), True)
        with pytest.raises(ValueError):
            check_family_certificate(cert, zero(3))

    def test_endpoint_mismatch_fails(self):
        alpha = vertex_pattern(1, EMPTY)
        beta = CyclePattern(V3, 1, {1: EMPTY, 2: EMPTY, 3: 0})
        cert = FamilyCertificate(alpha, (("0", alpha), ("1", alpha)), (alpha, beta), True)
        assert not check_family_certificate(cert, top(3))

    def test_effective_variant(self):
        w0 = vertex_pattern(1, EMPTY)
        w1 = vertex_pattern(1, EMPTY)
        excess = CyclePattern(V3, 1, {1: 0, 2: 0, 3: 0})
        fiber = sum_patterns(w0, excess)
        cert = FamilyCertificate(
            generic_fiber=w0,
            special_fibers=(("0", fiber), ("1", fiber)),
            endpoints=(w0, w1),
            flat_over_line=True,
            effective_variant=excess,
        )
        assert check_family_certificate(cert, top(3))
        assert not check_family_certificate(cert, zero(3))  # E touches the vertex

    def test_vertex_avoiding_zobel_style_certificate_is_structurally_accepted(self):
        # a certificate claiming L ~ M through vertex-avoiding fibers passes
        # the structural checks; the checker cannot refute geometric existence
        l_pattern = vertex_pattern(1, EMPTY)
        m_pattern = vertex_pattern(1, EMPTY)
        cert = FamilyCertificate(
            generic_fiber=l_pattern,
            special_fibers=(("0", l_pattern), ("1", m_pattern)),
            endpoints=(l_pattern, m_pattern),
            flat_over_line=True,
        )
        assert check_family_certificate(cert, zero(3))


class TestSumPatterns:
    def test_union_takes_max(self):
        a = CyclePattern(V3, 1, {1: 0, 2: 0, 3: EMPTY})
        b = CyclePattern(V3, 1, {1: 1, 2: EMPTY, 3: EMPTY})
        out = sum_patterns(a, b)
        assert out.incidence == {1: 1, 2: 0, 3: EMPTY}

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sum_patterns(vertex_pattern(1, 0), vertex_pattern(2, 0))
