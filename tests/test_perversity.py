import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pervchow.perversity import (
    GeneralizedBound,
    Perversity,
    add,
    leq,
    star_compose,
    top,
    zero,
)


def all_perversities(d):
    """Every depth-d perversity, by choosing each unit step."""
    out = []
    for steps in itertools.product((0, 1), repeat=d - 1):
        entries = [0]
        for s in steps:
            entries.append(entries[-1] + s)
        out.append(Perversity(entries))
    return out


def all_bounds(d, cap):
    """Every nondecreasing sequence of length d with entries in 0..cap."""
    out = []
    for combo in itertools.combinations_with_replacement(range(cap + 1), d):
        out.append(GeneralizedBound(combo))
    return out


def perversities(d):
    return st.lists(st.sampled_from([0, 1]), min_size=d - 1, max_size=d - 1).map(
        lambda steps: Perversity([0] + list(itertools.accumulate(steps)))
    )


perversity_strategy = st.integers(1, 6).flatmap(perversities)
perversity_pair_strategy = st.integers(1, 6).flatmap(
    lambda d: st.tuples(perversities(d), perversities(d))
)


class TestConstruction:
    def test_valid_step_pattern(self):
        assert Perversity([0, 0, 1]).entries == (0, 0, 1)

    def test_step_two_rejected(self):
        with pytest.raises(ValueError):
            Perversity([0, 2, 2])

    def test_top_is_valid(self):
        assert Perversity([0, 1, 2]) == top(3)

    def test_nonzero_start_rejected(self):
        with pytest.raises(ValueError):
            Perversity([1, 1])

    def test_empty_perversity_rejected(self):
        with pytest.raises(ValueError):
            Perversity([])

    def test_bound_rejects_decreasing(self):
        with pytest.raises(ValueError):
            GeneralizedBound([1, 0])

    def test_bound_rejects_negative(self):
        with pytest.raises(ValueError):
            GeneralizedBound([-1, 0])

    def test_zero_and_top(self):
        assert zero(3).entries == (0, 0, 0)
        assert top(3).entries == (0, 1, 2)
        assert zero(1) == top(1) == Perversity([0])

    def test_zero_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            zero(0)
        with pytest.raises(ValueError):
            top(-1)


class TestArithmetic:
    def test_add_identity(self):
        assert add(zero(3), zero(3)) == GeneralizedBound([0, 0, 0])

    def test_add_tops(self):
        assert add(top(3), top(3)) == GeneralizedBound([0, 2, 4])

    def test_add_vertex_bounds(self):
        # two depth-3 perversities with last entry 1 sum to last entry 2
        p = Perversity([0, 1, 1])
        q = Perversity([0, 0, 1])
        assert add(p, q).at(3) == 2

    def test_add_depth_mismatch(self):
        with pytest.raises(ValueError):
            add(zero(2), zero(3))

    def test_star_compose_with_zero_collapse(self):
        for p in all_perversities(4):
            assert star_compose(p, zero(4)) == p

    def test_star_compose_of_zero(self):
        for c in all_perversities(4):
            assert star_compose(zero(4), c) == c

    def test_star_compose_direct_evaluation(self):
        # entry i is p[i - c_i] + c_i: [0,1,1] * [0,0,1] -> [0, 1, p_2 + 1] = [0, 1, 2]
        assert star_compose(Perversity([0, 1, 1]), Perversity([0, 0, 1])) == GeneralizedBound(
            [0, 1, 2]
        )

    def test_star_compose_depth_mismatch(self):
        with pytest.raises(ValueError):
            star_compose(zero(2), zero(3))

    def test_leq_examples(self):
        assert leq(zero(3), top(3))
        assert not leq(GeneralizedBound([0, 1, 1]), GeneralizedBound([0, 0, 1]))
        b = GeneralizedBound([0, 1, 1])
        assert leq(b, b)

    def test_leq_depth_mismatch(self):
        with pytest.raises(ValueError):
            leq(zero(2), zero(3))


class TestLawsExhaustive:
    """Order, identity and monotonicity laws, exhaustive for small depth."""

    def test_zero_below_everything_below_top(self):
        for d in range(1, 5):
            for p in all_perversities(d):
                assert leq(zero(d), p)
                assert leq(p, top(d))

    def test_leq_partial_order(self):
        for d in range(1, 4):
            bounds = all_bounds(d, 2)
            for a in bounds:
                assert leq(a, a)
                for b in bounds:
                    if leq(a, b) and leq(b, a):
                        assert a == b
                    for c in bounds:
                        if leq(a, b) and leq(b, c):
                            assert leq(a, c)

    def test_add_commutative_associative_with_identity(self):
        for d in range(1, 4):
            bounds = all_bounds(d, 2)
            z = GeneralizedBound([0] * d)
            for a in bounds:
                assert add(a, z) == a
                for b in bounds:
                    assert add(a, b) == add(b, a)
                    for c in bounds:
                        assert add(add(a, b), c) == add(a, add(b, c))

    def test_star_compose_identities_exhaustive(self):
        for d in range(1, 5):
            for p in all_perversities(d):
                assert star_compose(p, zero(d)) == p
            for c in all_perversities(d):
                assert star_compose(zero(d), c) == c


class TestProperties:
    @given(perversity_strategy)
    def test_perversity_entries_within_range(self, p):
        for i in range(1, p.depth + 1):
            assert 0 <= p.at(i) <= i - 1

    @given(perversity_strategy)
    def test_perversity_is_between_zero_and_top(self, p):
        d = p.depth
        assert leq(zero(d), p) and leq(p, top(d))

    @given(perversity_pair_strategy)
    def test_star_compose_stays_a_valid_bound(self, pair):
        p, c = pair
        out = star_compose(p, c)
        assert isinstance(out, GeneralizedBound)
        # the transform provably preserves unit steps as well
        for a, b in zip(out.entries, out.entries[1:]):
            assert b - a in (0, 1)

    @given(perversity_pair_strategy)
    def test_add_monotone(self, pair):
        p, q = pair
        s = add(p, q)
        assert leq(p, s) and leq(q, s)
