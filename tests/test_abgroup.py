import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pervchow.abgroup import (
    FpAbelianGroup,
    GroupMap,
    compose,
    describe,
    invariant_factors,
    is_exact_at_middle,
    kernel_basis,
    lattice_contains,
    lattice_solve,
    mat_mul,
    mat_vec,
    smith_normal_form,
    transpose,
    vec_mat,
)

# --- independent oracle helpers (deliberately not the library code paths) ---


def mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]) if b else 0)]
        for i in range(len(a))
    ]


def rational_det(m):
    """Determinant over Fraction by plain Gaussian elimination."""
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


def assert_snf_contract(matrix, form):
    m = len(matrix)
    n = len(matrix[0]) if matrix else len(form.V)
    u = [list(r) for r in form.U]
    s = [list(r) for r in form.S]
    v = [list(r) for r in form.V]
    assert mul(mul(u, [list(map(int, r)) for r in matrix]), v) == s
    assert abs(rational_det(u)) == 1
    assert abs(rational_det(v)) == 1
    for i in range(m):
        for j in range(n):
            if i != j:
                assert s[i][j] == 0
    diag = [s[i][i] for i in range(min(m, n))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


def brute_member(gens, target, coeff_bound):
    """Enumerated membership witness search; sound, complete within the box."""
    if not gens:
        return all(x == 0 for x in target)
    for combo in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=len(gens)):
        vec = [sum(c * g[j] for c, g in zip(combo, gens)) for j in range(len(target))]
        if vec == list(target):
            return True
    return False


# --- matrix helpers ------------------------------------------------------------


def test_products_match_reference():
    rng = random.Random(404)
    for _ in range(200):
        rows, inner, cols = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(inner)]
        v = [rng.randint(-9, 9) for _ in range(inner)]
        assert mat_mul(a, b) == mul(a, b)
        assert transpose(a) == [[a[i][j] for i in range(rows)] for j in range(inner)]
        assert mat_vec(a, v) == [row[0] for row in mul(a, [[x] for x in v])]
        assert vec_mat(v, b) == mul([v], b)[0]
    with pytest.raises(ValueError):
        mat_mul([[1, 2]], [[1, 2]])
    with pytest.raises(ValueError):
        vec_mat([1, 2], [[1, 2]])


# --- Smith normal form ------------------------------------------------------


class TestSmithExamples:
    def test_identity(self):
        form = smith_normal_form([[1, 0], [0, 1]])
        assert form.diagonal() == (1, 1)
        assert_snf_contract([[1, 0], [0, 1]], form)

    def test_diag_2_3(self):
        # gcd/lcm oracle: invariant factors of diag(2,3) are gcd=1 and lcm=6
        form = smith_normal_form([[2, 0], [0, 3]])
        assert form.diagonal() == (1, 6)
        assert_snf_contract([[2, 0], [0, 3]], form)

    def test_frozen_example_matrix(self):
        # gcd of entries is 2 and |det| = |2*8 - 4*6| = 8, so diag (2, 4)
        matrix = [[2, 4], [6, 8]]
        form = smith_normal_form(matrix)
        assert form.diagonal() == (2, 4)
        assert_snf_contract(matrix, form)

    def test_zero_matrix(self):
        form = smith_normal_form([[0, 0], [0, 0]])
        assert form.diagonal() == (0, 0)

    def test_empty_matrices(self):
        assert smith_normal_form([]).S == ()
        form = smith_normal_form([], ncols=3)
        assert form.V == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        form = smith_normal_form([[], []], ncols=0)
        assert form.S == ((), ())

    def test_negative_ncols_rejected(self):
        for matrix in ([], [[], []]):
            with pytest.raises(ValueError, match="ncols"):
                smith_normal_form(matrix, ncols=-3)

    def test_wide_and_tall(self):
        for matrix in ([[4, 6, 10]], [[4], [6], [10]]):
            form = smith_normal_form(matrix)
            assert form.diagonal() == (2,)
            assert_snf_contract(matrix, form)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form([[1, 2], [3]])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda rows: st.integers(1, 4).flatmap(
            lambda cols: st.lists(
                st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    )
)
def test_snf_contract_random(matrix):
    assert_snf_contract(matrix, smith_normal_form(matrix))


def unimodular(rng, n, steps):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        u[i] = [a + k * b for a, b in zip(u[i], u[j])]
    return u


def udv(rng, m, n, diag):
    """``U * D * V`` with random unimodular ``U``, ``V``; returns the matrix and ``V``."""
    d = [[diag[i] if i == j and i < len(diag) else 0 for j in range(n)] for i in range(m)]
    v = unimodular(rng, n, 2 * n)
    return mul(mul(unimodular(rng, m, 2 * m), d), v), v


def large_inputs():
    """Seeded inputs past the small batch: ``(matrix, rank, outside)``.

    ``outside`` is a vector known not to lie in the row lattice, or ``None``.
    The U*D*V inputs get theirs from the construction: row ``j`` of ``V``
    with ``diag[j] != 1``.
    """
    rng = random.Random(20211)
    out = []
    for rows, cols in ((16, 16), (24, 24), (12, 20), (20, 12)):
        matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        out.append((matrix, rational_rank(matrix), None))
    for size, diag in ((10, [1] * 7), (8, [1, 1, 1, 1, 2, 2, 6, 12])):
        matrix, v = udv(rng, size, size, diag)
        out.append((matrix, sum(1 for d in diag if d), v[7]))  # diag[7] is 0 or 12
    return out


def rref(m):
    """Reduced row echelon form over the rationals, and its pivot columns."""
    a = [[Fraction(x) for x in row] for row in m]
    pivots = []
    for col in range(len(a[0]) if a else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][col]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                a[i] = [x - a[i][col] * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


def rational_rank(m):
    return len(rref(m)[1])


def in_row_lattice(m, x):
    """Whether ``x`` is an integer combination of the rows of ``m``, which must be independent."""
    a, pivots = rref([list(col) + [t] for col, t in zip(zip(*m), x)])
    if len(m) in pivots:
        return False  # off the rational row span
    return all(a[i][-1].denominator == 1 for i in range(len(m)))


def test_snf_contract_seeded_batch():
    rng = random.Random(20210)
    for _ in range(500):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert_snf_contract(matrix, smith_normal_form(matrix))
    for matrix, rank, outside in large_inputs():
        form = smith_normal_form(matrix)
        assert_snf_contract(matrix, form)
        assert form.rank == rank
        ncols = len(matrix[0])
        kernel = kernel_basis(matrix, ncols)
        assert len(kernel) == ncols - rank
        assert all(mul(matrix, [[x] for x in vec]) == [[0]] * len(matrix) for vec in kernel)
        if kernel:
            assert rational_rank(kernel) == len(kernel)
        y = [rng.randint(-3, 3) for _ in matrix]
        target = mul([y], matrix)[0]
        witness = lattice_solve(matrix, target)
        assert witness is not None and mul([witness], matrix)[0] == target
        if outside is not None:
            assert lattice_solve(matrix, outside) is None
        if rank == len(matrix):
            for probe in ([1] + [0] * (ncols - 1), [rng.randint(-3, 3) for _ in range(ncols)]):
                assert (lattice_solve(matrix, probe) is not None) == in_row_lattice(matrix, probe)


def test_snf_transform_growth_stays_small():
    # Euclidean elimination grew U and V to 14k-30k bits on these inputs.
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        matrix = [[rng.randint(-9, 9) for _ in range(24)] for _ in range(24)]
        form = smith_normal_form(matrix)
        bits = max(abs(x).bit_length() for t in (form.U, form.V) for row in t for x in row)
        assert bits < 1000


# --- independent oracles for the invariant factors ---------------------------


def int_det(m):
    """Leibniz expansion: an integer determinant sharing no code with the library."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def determinantal_invariants(m):
    """Invariant factors ``d_k / d_(k-1)``, with ``d_k`` the gcd of the k x k minors."""
    rows, cols = len(m), len(m[0])
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                g = math.gcd(g, int_det([[m[i][j] for j in cs] for i in rs]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out + [0] * (min(rows, cols) - len(out))


def oracle_inputs():
    rng = random.Random(5151)
    out = []
    for _ in range(80):
        rows, cols, bound = rng.randint(1, 5), rng.randint(1, 5), rng.choice((2, 9))
        out.append([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])
    out.append(udv(rng, 5, 5, [1, 2, 2, 6, 0])[0])
    out.append(udv(rng, 4, 5, [3, 3, 9])[0])
    return out


def test_invariants_match_determinantal_divisors():
    for matrix in oracle_inputs():
        assert list(smith_normal_form(matrix).diagonal()) == determinantal_invariants(matrix)


def test_invariants_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    for matrix in oracle_inputs() + [m for m, _, _ in large_inputs()]:
        s = sympy_snf(sympy.Matrix(matrix), domain=sympy.ZZ)
        want = [abs(int(s[i, i])) for i in range(min(s.shape))]
        assert list(smith_normal_form(matrix).diagonal()) == want


# --- invariant factors -------------------------------------------------------


class TestInvariantFactors:
    def test_free(self):
        assert invariant_factors(FpAbelianGroup(2)) == (2, ())

    def test_cyclic(self):
        assert invariant_factors(FpAbelianGroup(1, ((2,),))) == (0, (2,))

    def test_mixed(self):
        assert invariant_factors(FpAbelianGroup(2, ((2, 0), (0, 0)))) == (1, (2,))

    def test_describe(self):
        assert describe(FpAbelianGroup(2)) == "Z^2"
        assert describe(FpAbelianGroup(1, ((2,),))) == "Z/2"
        assert describe(FpAbelianGroup(0)) == "0"
        assert describe(FpAbelianGroup(2, ((0, 2),))) == "Z + Z/2"

    def test_trivial_relations_drop_out(self):
        assert invariant_factors(FpAbelianGroup(2, ((1, 0),))) == (1, ())

    def test_unimodular_invariance(self):
        rng = random.Random(7)
        base = [[2, 0, 0], [0, 6, 0]]
        expected = invariant_factors(FpAbelianGroup(3, tuple(map(tuple, base))))
        for _ in range(50):
            rows = [row[:] for row in base]
            for _ in range(6):
                op = rng.choice(("swap_rows", "add_row", "swap_cols", "add_col", "neg_row"))
                if op == "swap_rows":
                    i, j = rng.sample(range(len(rows)), 2)
                    rows[i], rows[j] = rows[j], rows[i]
                elif op == "add_row":
                    i, j = rng.sample(range(len(rows)), 2)
                    k = rng.randint(-3, 3)
                    rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
                elif op == "swap_cols":
                    i, j = rng.sample(range(3), 2)
                    for row in rows:
                        row[i], row[j] = row[j], row[i]
                elif op == "add_col":
                    i, j = rng.sample(range(3), 2)
                    k = rng.randint(-3, 3)
                    for row in rows:
                        row[i] += k * row[j]
                else:
                    i = rng.randrange(len(rows))
                    rows[i] = [-a for a in rows[i]]
            assert invariant_factors(FpAbelianGroup(3, tuple(map(tuple, rows)))) == expected


# --- lattice membership and kernels ------------------------------------------


class TestLattices:
    def test_solve_returns_verified_witness(self):
        gens = [[2, 0], [0, 3]]
        coeffs = lattice_solve(gens, [4, -3])
        assert coeffs is not None
        assert [sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(2)] == [4, -3]

    def test_solve_detects_non_membership(self):
        assert lattice_solve([[2, 0], [0, 2]], [1, 0]) is None

    def test_negative_answers_backed_by_enumeration(self):
        rng = random.Random(99)
        for _ in range(40):
            gens = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(rng.randint(1, 3))]
            target = [rng.randint(-3, 3) for _ in range(3)]
            got = lattice_solve(gens, target)
            if got is None:
                assert not brute_member(gens, target, 8)

    def test_empty_generators(self):
        assert lattice_contains([], [0, 0])
        assert not lattice_contains([], [1, 0])

    def test_kernel_basis_spans_solutions(self):
        basis = kernel_basis([[1, 1, 1]], 3)
        assert len(basis) == 2
        for vec in basis:
            assert sum(vec) == 0
        # the standard kernel generators are reachable from the basis
        for target in ([1, -1, 0], [0, 1, -1]):
            assert lattice_contains(basis, target)


# --- group maps and exactness -------------------------------------------------


def zmap(matrix, source, target):
    return GroupMap(source, target, tuple(tuple(row) for row in matrix))


Z = FpAbelianGroup.free(1)
Z2 = FpAbelianGroup.cyclic(2)
TRIVIAL = FpAbelianGroup(0)


class TestGroupMap:
    def test_relation_compatibility_enforced(self):
        # Z/2 -> Z cannot send the generator to 1
        with pytest.raises(ValueError):
            zmap([[1]], Z2, Z)

    def test_quotient_map_is_fine(self):
        m = zmap([[1]], Z, Z2)
        assert m.matrix == ((1,),)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            zmap([[1, 0]], Z, Z)

    def test_compose(self):
        double = zmap([[2]], Z, Z)
        quotient = zmap([[1]], Z, Z2)
        both = compose(quotient, double)
        assert both.matrix == ((2,),)


class TestExactness:
    def test_identity_then_zero(self):
        ident = zmap([[1]], Z, Z)
        to_trivial = zmap([], Z, TRIVIAL)
        assert is_exact_at_middle(ident, to_trivial)

    def test_double_then_quotient(self):
        double = zmap([[2]], Z, Z)
        quotient = zmap([[1]], Z, Z2)
        assert is_exact_at_middle(double, quotient)
        # brute-force oracle on representatives: x is in the image of *2
        # exactly when the quotient kills it
        for x in range(-6, 7):
            in_image = brute_member([[2]], [x], 6)
            in_kernel = (x * 1) % 2 == 0
            assert in_image == in_kernel

    def test_zero_zero_not_exact(self):
        zero_map = zmap([[0]], Z, Z)
        assert not is_exact_at_middle(zero_map, zero_map)

    def test_triple_then_quotient_not_exact(self):
        triple = zmap([[3]], Z, Z)
        quotient = zmap([[1]], Z, Z2)
        assert not is_exact_at_middle(triple, quotient)

    def test_middle_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_exact_at_middle(zmap([[1]], Z, Z), zmap([[1]], Z2, Z2))

    def test_rank_two_split_sequence(self):
        ZZ = FpAbelianGroup.free(2)
        include = zmap([[1], [0]], Z, ZZ)
        project = zmap([[0, 1]], ZZ, Z)
        assert is_exact_at_middle(include, project)

    def test_composite_nonzero_fails(self):
        include = zmap([[1], [0]], Z, FpAbelianGroup.free(2))
        project_first = zmap([[1, 0]], FpAbelianGroup.free(2), Z)
        assert not is_exact_at_middle(include, project_first)

    def test_torsion_middle_group(self):
        Z4 = FpAbelianGroup.cyclic(4)
        onto = zmap([[1]], Z4, Z2)
        collapse = zmap([], Z2, TRIVIAL)
        assert is_exact_at_middle(onto, collapse)
        doubled = zmap([[2]], Z4, Z2)  # the zero map into Z/2
        assert not is_exact_at_middle(doubled, collapse)

    def test_kernel_sees_target_torsion(self):
        # the projection Z -> Z/4 has kernel 4Z, so doubling is not enough
        quotient4 = zmap([[1]], Z, FpAbelianGroup.cyclic(4))
        double = zmap([[2]], Z, Z)
        quadruple = zmap([[4]], Z, Z)
        assert not is_exact_at_middle(double, quotient4)
        assert is_exact_at_middle(quadruple, quotient4)

    def test_basis_change_invariance(self):
        # conjugating every matrix by unimodular changes of basis in A, B, C
        # must not change the verdict
        rng = random.Random(13)
        A = FpAbelianGroup.free(1)
        B = FpAbelianGroup.free(2)
        C = FpAbelianGroup.free(1)
        f = zmap([[2], [0]], A, B)
        g = zmap([[0, 3]], B, C)
        base = is_exact_at_middle(f, g)

        def unimodular(n):
            m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for _ in range(4):
                i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
                if i != j:
                    k = rng.randint(-2, 2)
                    m[i] = [a + k * b for a, b in zip(m[i], m[j])]
            return m

        for _ in range(20):
            pa, pb, pc = unimodular(1), unimodular(2), unimodular(1)
            fm = mul(mul(pb, [[2], [0]]), pa)
            gm = mul(mul(pc, [[0, 3]]), pb_inverse(pb))
            f2 = zmap(fm, A, B)
            g2 = zmap(gm, B, C)
            assert is_exact_at_middle(f2, g2) == base


def pb_inverse(m):
    """Exact inverse of a small unimodular matrix, via rational elimination."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[col])]
    out = [[x for x in row[n:]] for row in a]
    assert all(x.denominator == 1 for row in out for x in row)
    return [[int(x) for x in row] for row in out]
