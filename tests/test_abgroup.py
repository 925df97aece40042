import copy
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pervchow import abgroup
from pervchow.abgroup import (
    FpAbelianGroup,
    GroupMap,
    Lattice,
    SmithForm,
    VerificationError,
    describe,
    invariant_factors,
    is_exact_at_middle,
    lattice_solve,
    lattice_subset,
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


def kernel_of(matrix, ncols):
    """``abgroup._kernel`` of ``matrix`` as the map ``Z^ncols -> Z^len(matrix)``: the solutions of ``M x = 0``."""
    return abgroup._kernel(GroupMap(FpAbelianGroup(ncols), FpAbelianGroup(len(matrix)), matrix))


def test_snf_contract_seeded_batch():
    rng = random.Random(20210)
    for _ in range(500):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert_snf_contract(matrix, smith_normal_form(matrix))
    for matrix, rank, outside in large_inputs():
        form = smith_normal_form(matrix)
        assert_snf_contract(matrix, form)
        assert sum(1 for d in form.diagonal() if d) == rank
        ncols = len(matrix[0])
        kernel = kernel_of(matrix, ncols)
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


# --- the Smith form's self-check ---------------------------------------------


def verifier_inputs():
    """``(matrix, diagonal)`` for both unimodularity branches of ``_verify_smith``.

    The first input is square and nonsingular (``|det M|`` certifies the
    transforms); the others are rectangular or singular (``det U`` and
    ``det V`` are computed).  No input has a zero row or column, so changing
    any one entry of ``U`` or ``V`` breaks ``U * M * V = S``.
    """
    rng = random.Random(8080)
    out = []
    for m, n, diag in ((5, 5, [1, 2, 6, 6, 12]), (4, 6, [1, 3, 6, 0]), (5, 5, [1, 2, 4, 0, 0])):
        while True:
            matrix = udv(rng, m, n, diag)[0]
            if all(any(row) for row in matrix) and all(any(col) for col in zip(*matrix)):
                break
        out.append((matrix, diag))
    return out


def as_form(u, s, v):
    return SmithForm(
        U=tuple(tuple(r) for r in u), S=tuple(tuple(r) for r in s), V=tuple(tuple(r) for r in v)
    )


def check(matrix, u, s, v):
    abgroup._verify_smith(matrix, len(matrix[0]), as_form(u, s, v))


def swap_columns(x, i, j):
    x = [list(r) for r in x]
    for r in x:
        r[i], r[j] = r[j], r[i]
    return x


def twice(x):
    return [[2 * e for e in r] for r in x]


def add_column_0_to_1(x):
    return [[r[0] + e if c == 1 else e for c, e in enumerate(r)] for r in x]


def negate_row_0(x):
    return [[-e for e in r] if i == 0 else list(r) for i, r in enumerate(x)]


class TestVerifySmith:
    @pytest.mark.parametrize("index", range(3))
    def test_true_form_passes_and_diagonal_is_known(self, index):
        matrix, diag = verifier_inputs()[index]
        form = smith_normal_form(matrix)
        assert list(form.diagonal()) == diag
        assert_snf_contract(matrix, form)

    @pytest.mark.parametrize("index", range(3))
    @pytest.mark.parametrize("which", ["U", "S", "V"])
    def test_one_changed_entry_is_rejected(self, index, which):
        matrix, _ = verifier_inputs()[index]
        form = smith_normal_form(matrix)
        parts = {name: [list(r) for r in getattr(form, name)] for name in "USV"}
        target = parts[which]
        for i, j in itertools.product(range(len(target)), range(len(target[0]))):
            for delta in (1, -1, 10**30):
                target[i][j] += delta
                with pytest.raises(VerificationError):
                    check(matrix, parts["U"], parts["S"], parts["V"])
                target[i][j] -= delta

    @pytest.mark.parametrize("index", range(3))
    def test_scaled_transforms_are_not_unimodular(self, index):
        # 2U * M * V = 2S, and 2S is still a diagonal divisibility chain
        matrix, _ = verifier_inputs()[index]
        form = smith_normal_form(matrix)
        for u, s, v in ((twice(form.U), twice(form.S), form.V), (form.U, twice(form.S), twice(form.V))):
            with pytest.raises(VerificationError, match="unimodular"):
                check(matrix, u, s, v)

    @pytest.mark.parametrize("index", range(3))
    def test_off_diagonal_entry_is_rejected(self, index):
        # adding column 0 to column 1 of both S and V keeps U * M * V = S and V unimodular
        matrix, _ = verifier_inputs()[index]
        form = smith_normal_form(matrix)
        with pytest.raises(VerificationError, match="not diagonal"):
            check(matrix, form.U, add_column_0_to_1(form.S), add_column_0_to_1(form.V))

    @pytest.mark.parametrize("index", range(3))
    def test_negative_diagonal_entry_is_rejected(self, index):
        # negating row 0 of both U and S keeps the product and |det U|
        matrix, _ = verifier_inputs()[index]
        form = smith_normal_form(matrix)
        with pytest.raises(VerificationError, match="negative"):
            check(matrix, negate_row_0(form.U), negate_row_0(form.S), form.V)

    @pytest.mark.parametrize("index", range(3))
    def test_broken_divisibility_chain_is_rejected(self, index):
        # swapping entries i, j of the diagonal (rows of U and S, columns of S and V)
        matrix, diag = verifier_inputs()[index]
        form = smith_normal_form(matrix)
        swaps = [(0, 1, "divisibility chain")]
        if 0 in diag:
            swaps.append((0, diag.index(0), "zero diagonal entry precedes"))
        for i, j, needle in swaps:
            u = [list(r) for r in form.U]
            s = [list(r) for r in form.S]
            u[i], u[j] = u[j], u[i]
            s[i], s[j] = s[j], s[i]
            with pytest.raises(VerificationError, match=needle):
                check(matrix, u, swap_columns(s, i, j), swap_columns(form.V, i, j))

    def test_wrong_shapes_are_rejected(self):
        matrix, _ = verifier_inputs()[1]
        form = smith_normal_form(matrix)
        u, s, v = form.U, form.S, form.V
        for bad in ((u[:-1], s, v), (u, s[:-1], v), (u, s, v[:-1]), (u, [r[:-1] for r in s], v)):
            with pytest.raises(VerificationError, match="shape"):
                check(matrix, *bad)

    def test_tampered_empty_forms_are_rejected(self):
        form = smith_normal_form([[], []], ncols=0)
        with pytest.raises(VerificationError, match="unimodular"):
            abgroup._verify_smith([[], []], 0, as_form([[2, 0], [0, 1]], form.S, form.V))
        form = smith_normal_form([], ncols=3)
        with pytest.raises(VerificationError, match="unimodular"):
            abgroup._verify_smith([], 3, as_form(form.U, form.S, [[1, 1, 0], [0, 2, 0], [0, 0, 1]]))

    def test_branch_follows_the_input(self, monkeypatch):
        # square nonsingular: one determinant, of M itself; otherwise det U and det V
        seen = []
        real = abgroup.det
        monkeypatch.setattr(abgroup, "det", lambda x: seen.append(x) or real(x))
        for index, expected in ((0, 1), (1, 2), (2, 2)):
            matrix, _ = verifier_inputs()[index]
            form = smith_normal_form(matrix)
            seen.clear()
            abgroup._verify_smith(matrix, len(matrix[0]), form)
            assert len(seen) == expected
            if expected == 1:
                assert [list(r) for r in seen[0]] == matrix
            else:
                assert seen == [form.U, form.V]


def slot_edge_entry(rng):
    """Zero, a small entry, or one at a slot-width edge ``+-(2**k - 1)`` or ``+-2**k``."""
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    k = rng.randint(1, 70)
    return rng.choice((-1, 1)) * (2**k - (kind == 2))


def test_packed_product_matches_mat_mul():
    # shapes (p, m, n, q) of U, M, V, S = p x m, m x n, n x q, p x q, with the
    # empty shapes of test_empty_matrices first
    rng = random.Random(9090)
    shapes = [(0, 0, 0, 0), (0, 0, 3, 3), (2, 2, 0, 0)]
    shapes += [tuple(rng.randint(0, 5) for _ in range(4)) for _ in range(600)]
    seen = {True: 0, False: 0}
    for p, m, n, q in shapes:
        def draw(rows, cols):
            x = [[slot_edge_entry(rng) for _ in range(cols)] for _ in range(rows)]
            if rows and cols and rng.random() < 0.3:  # a zero row and a zero column
                i, j = rng.randrange(rows), rng.randrange(cols)
                x = [[0 if r == i or c == j else e for c, e in enumerate(row)] for r, row in enumerate(x)]
            return x

        u, a, v = draw(p, m), draw(m, n), draw(n, q)
        product = mat_mul(mat_mul(u, a), v) if m and n else [[0] * q for _ in range(p)]
        s = [list(r) for r in product]
        if p and q and rng.random() < 0.5:
            i, j = rng.randrange(p), rng.randrange(q)
            s[i][j] += rng.choice((1, -1, 2 ** rng.randint(1, 200), -(2 ** rng.randint(1, 200))))
        expected = s == product
        assert abgroup._product_is(u, a, v, s) is expected
        seen[expected] += 1
    assert min(seen.values()) > 100


def test_packed_product_rejects_carries():
    # s = u*a*v plus 2**k in one entry and -1 in the next: the packed ints of
    # the two rows agree exactly when the slot width is k, so this sweep fails
    # for any width below the proven bound
    rng = random.Random(9191)
    for _ in range(12):
        p, m, n, q = (rng.randint(1, 4) for _ in range(4))
        q += 1
        u = [[slot_edge_entry(rng) for _ in range(m)] for _ in range(p)]
        a = [[slot_edge_entry(rng) for _ in range(n)] for _ in range(m)]
        v = [[slot_edge_entry(rng) for _ in range(q)] for _ in range(n)]
        product = mat_mul(mat_mul(u, a), v)
        assert abgroup._product_is(u, a, v, product)
        i, j = rng.randrange(p), rng.randrange(q - 1)
        for k in range(1, 400):
            for sign in (1, -1):
                s = [list(r) for r in product]
                s[i][j] += sign * 2**k
                s[i][j + 1] -= sign
                assert not abgroup._product_is(u, a, v, s)


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
        assert lattice_solve([], [0, 0]) is not None
        assert lattice_solve([], [1, 0]) is None

    def test_kernel_basis_spans_solutions(self):
        basis = kernel_of([[1, 1, 1]], 3)
        assert len(basis) == 2
        for vec in basis:
            assert sum(vec) == 0
        # the standard kernel generators are reachable from the basis
        for target in ([1, -1, 0], [0, 1, -1]):
            assert lattice_solve(basis, target) is not None
        # with no rows every vector is a solution: the kernel is all of Z^n
        assert kernel_of([], 0) == ()
        assert kernel_of([], 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_failed_witness_is_caught_in_lattice_solve(self, monkeypatch):
        # coordinates that the lattice's own checks accept but that give a wrong witness
        real = abgroup.Lattice._coordinates

        def doubled(lattice, vector):
            q = real(lattice, vector)
            return None if q is None else [2 * k for k in q]

        monkeypatch.setattr(abgroup.Lattice, "_coordinates", doubled)
        with pytest.raises(VerificationError, match="lattice witness failed verification"):
            lattice_solve([[2, 0], [0, 3]], [4, -3])


# --- the Hermite-form lattice ---------------------------------------------------


def reference_solver(generators, n):
    """Lattice membership over one Smith form of the generators: the solver the Hermite basis replaced."""
    gens = [list(g) for g in generators]
    form = smith_normal_form(gens, ncols=n) if gens else None

    def solve(target):
        x = list(target)
        if form is None:
            return [] if not any(x) else None
        b = vec_mat(x, form.V)
        a = [0] * len(gens)
        for j in range(n):
            s = form.S[j][j] if j < len(gens) else 0
            if s:
                if b[j] % s:
                    return None
                a[j] = b[j] // s
            elif b[j]:
                return None
        coeffs = vec_mat(a, form.U)
        assert vec_mat(coeffs, gens) == x
        return coeffs

    return solve


def smith_kernel(matrix, ncols):
    """Vectors spanning the integer solutions of ``M x = 0``: the last columns of the Smith form's ``V``."""
    form = smith_normal_form(matrix, ncols=ncols)
    return [[form.V[i][j] for i in range(ncols)] for j in range(sum(1 for d in form.diagonal() if d), ncols)]


def reference_subset(inner, outer):
    solve = reference_solver(outer, len(inner[0])) if inner else None
    return all(solve(g) is not None for g in inner)


def reference_exact(f, g):
    """``image(f) == kernel(g)`` by membership in both directions over Smith forms."""
    image = transpose(f.matrix) + [list(r) for r in f.target.relations]
    b = g.source.rank
    kernel = [vec[:b] for vec in smith_kernel(reference_stack(g), b + len(g.target.relations))]
    return reference_subset(image, kernel) and reference_subset(kernel, image)


def reference_stack(g):
    """``[matrix | relations^T]``: ``(x, y)`` is in its kernel exactly when ``g(x) = -y . relations``."""
    rel_t = transpose(g.target.relations) or [[] for _ in g.matrix]
    return [list(row) + list(rel) for row, rel in zip(g.matrix, rel_t)]


def independent_rows(rng, m, n, bound=6):
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
        if rational_rank(rows) == m:
            return rows


class TestLatticeForm:
    def test_canonical_under_unimodular_changes(self):
        rng = random.Random(1313)
        for _ in range(60):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            gens = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            lattice = Lattice(gens, n)
            assert Lattice(mul(unimodular(rng, m, 3 * m), gens), n) == lattice
            assert Lattice(rng.sample(gens, m), n) == lattice
            assert Lattice(gens + [rng.choice(gens), [0] * n], n) == lattice

    def test_is_a_frozen_hashable_value(self):
        lattice = Lattice([[2, 4], [0, 6]], 2)
        assert lattice == Lattice([[2, -2], [2, 4]], 2)
        assert hash(lattice) == hash(Lattice([[2, -2], [2, 4]], 2))
        assert copy.deepcopy(lattice) == lattice
        assert repr(lattice).startswith("Lattice(width=2, basis=((2, 4), (0, 6))")
        assert Lattice([], 2) != Lattice([], 3)
        with pytest.raises(AttributeError):
            lattice.basis = ()

    def test_doubling_a_generator_changes_the_index(self):
        rng = random.Random(1414)
        for _ in range(40):
            m = rng.randint(1, 4)
            gens = independent_rows(rng, m, rng.randint(m, 5))
            doubled = [list(g) for g in gens]
            i = rng.randrange(m)
            doubled[i] = [2 * x for x in doubled[i]]
            assert Lattice(doubled, len(gens[0])) != Lattice(gens, len(gens[0]))

    def test_membership_matches_rational_elimination(self):
        rng = random.Random(1515)
        seen = set()
        for _ in range(80):
            m = rng.randint(1, 4)
            n = rng.randint(m, 5)
            gens = independent_rows(rng, m, n, bound=4)
            lattice = Lattice(gens, n)
            probes = [mul([[rng.randint(-3, 3) for _ in gens]], gens)[0], [rng.randint(-4, 4) for _ in range(n)]]
            for probe in probes:
                inside = probe in lattice
                assert inside == in_row_lattice(gens, probe)
                seen.add(inside)
        assert seen == {True, False}

    def test_answers_match_the_smith_form_reference(self):
        rng = random.Random(1616)
        seen = {"solve": set(), "subset": set(), "exact": set()}
        for _ in range(60):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            inside = mul([[rng.randint(-2, 2) for _ in gens]], gens)[0]
            for target in (inside, [rng.randint(-3, 3) for _ in range(n)]):
                got = lattice_solve(gens, target)
                assert (got is None) == (reference_solver(gens, n)(target) is None)
                assert got is None or mul([got], gens)[0] == target
                seen["solve"].add(got is None)
            inner = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 2))]
            assert lattice_subset(inner, gens) == reference_subset(inner, gens)
            seen["subset"].add(lattice_subset(inner, gens))
            assert lattice_subset([inside], gens)
        for _ in range(40):
            a, b, c = rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 2)
            middle = FpAbelianGroup(b)
            relations = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(rng.randint(0, 2))]
            target = FpAbelianGroup(c, tuple(map(tuple, relations)))
            g = zmap([[rng.randint(-2, 2) for _ in range(b)] for _ in range(c)], middle, target)
            if rng.random() < 0.5:  # f onto the kernel of g: exact by construction
                kernel = [vec[:b] for vec in smith_kernel(reference_stack(g), b + len(target.relations))]
                f = zmap(transpose(kernel) or [[] for _ in range(b)], FpAbelianGroup(len(kernel)), middle)
            else:
                f = zmap([[rng.randint(-2, 2) for _ in range(a)] for _ in range(b)], FpAbelianGroup(a), middle)
            verdict = is_exact_at_middle(f, g)
            assert verdict == reference_exact(f, g)
            seen["exact"].add(verdict)
        assert all(answers == {True, False} for answers in seen.values()), seen

    def test_exactness_matches_the_reference_on_every_group_shape(self):
        # groups of rank 0, torsion middle and target groups, sources with relations, and
        # pairs whose composite is zero (f onto kernel vectors scaled by 1 or 2) but which
        # need not be exact
        rng = random.Random(1919)
        seen = {"composite zero": set(), "random": set()}
        for _ in range(200):
            a, b, c = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)
            middle = FpAbelianGroup(b, tuple(tuple(rng.randint(-3, 3) for _ in range(b)) for _ in range(rng.randint(0, 2))))
            gm = [[rng.randint(-2, 2) for _ in range(b)] for _ in range(c)]
            # the target's relations hold g's image of the middle relations, so g is well defined
            forced = [mat_vec(gm, rel) for rel in middle.relations] if c else []
            extra = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(rng.randint(0, 2))]
            g = zmap(gm, middle, FpAbelianGroup(c, tuple(map(tuple, forced + extra))))
            kernel = [vec[:b] for vec in smith_kernel(reference_stack(g), b + len(g.target.relations))]
            kind = "composite zero" if rng.random() < 0.6 else "random"
            if kind == "composite zero":
                cols = [[rng.choice((1, 1, 2)) * x for x in vec] for vec in kernel if rng.random() < 0.8]
            else:
                cols = [[rng.randint(-2, 2) for _ in range(b)] for _ in range(a)]
            relations = []
            if cols and rng.random() < 0.5:  # a repeated column, and the relation that kills the difference
                cols.append(cols[0])
                relations.append([1] + [0] * (len(cols) - 2) + [-1])
            if middle.relations and rng.random() < 0.5:  # a middle relation as a column, of order 3 in the source
                cols.append(list(middle.relations[0]))
                relations = [row + [0] for row in relations] + [[0] * (len(cols) - 1) + [3]]
            source = FpAbelianGroup(len(cols), tuple(map(tuple, relations)))
            f = zmap(transpose(cols) or [[] for _ in range(b)], source, middle)
            verdict = is_exact_at_middle(f, g)
            assert verdict == reference_exact(f, g)
            seen[kind].add(verdict)
        assert all(answers == {True, False} for answers in seen.values()), seen

    @pytest.mark.parametrize("mutant, message", [
        ("transform", "Hermite transform does not reproduce the basis"),
        ("unreduced", "Hermite basis has an unreduced entry above a pivot"),
        ("order", "Hermite pivots are not positive and in increasing columns"),
    ])
    def test_mutants_are_rejected(self, monkeypatch, mutant, message):
        real = abgroup._hnf

        def mutated(a, t):
            h, w = real(a, t)
            if mutant == "transform":
                w[0][1] += 1
            elif mutant == "unreduced":  # add row 1 to row 0: same lattice and product, entry above pivot too big
                h[0] = [x + y for x, y in zip(h[0], h[1])]
                w[0] = [x + y for x, y in zip(w[0], w[1])]
            else:  # swap the first two rows: same lattice and product, pivots out of order
                h[0], h[1], w[0], w[1] = h[1], h[0], w[1], w[0]
            return h, w

        gens = [[2, 1, 0], [0, 3, 1], [4, 0, 5]]
        assert Lattice(gens, 3).basis == ((2, 0, 11), (0, 1, 6), (0, 0, 17))
        monkeypatch.setattr(abgroup, "_hnf", mutated)
        with pytest.raises(VerificationError, match=message):
            Lattice(gens, 3)


# --- group maps and exactness -------------------------------------------------


def zmap(matrix, source, target):
    return GroupMap(source, target, tuple(tuple(row) for row in matrix))


Z = FpAbelianGroup(1)
Z2 = FpAbelianGroup(1, ((2,),))
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
        ZZ = FpAbelianGroup(2)
        include = zmap([[1], [0]], Z, ZZ)
        project = zmap([[0, 1]], ZZ, Z)
        assert is_exact_at_middle(include, project)

    def test_composite_nonzero_fails(self):
        include = zmap([[1], [0]], Z, FpAbelianGroup(2))
        project_first = zmap([[1, 0]], FpAbelianGroup(2), Z)
        assert not is_exact_at_middle(include, project_first)

    def test_torsion_middle_group(self):
        Z4 = FpAbelianGroup(1, ((4,),))
        onto = zmap([[1]], Z4, Z2)
        collapse = zmap([], Z2, TRIVIAL)
        assert is_exact_at_middle(onto, collapse)
        doubled = zmap([[2]], Z4, Z2)  # the zero map into Z/2
        assert not is_exact_at_middle(doubled, collapse)

    def test_kernel_sees_target_torsion(self):
        # the projection Z -> Z/4 has kernel 4Z, so doubling is not enough
        quotient4 = zmap([[1]], Z, FpAbelianGroup(1, ((4,),)))
        double = zmap([[2]], Z, Z)
        quadruple = zmap([[4]], Z, Z)
        assert not is_exact_at_middle(double, quotient4)
        assert is_exact_at_middle(quadruple, quotient4)

    def test_basis_change_invariance(self):
        # conjugating every matrix by unimodular changes of basis in A, B, C
        # must not change the verdict
        rng = random.Random(13)
        A = FpAbelianGroup(1)
        B = FpAbelianGroup(2)
        C = FpAbelianGroup(1)
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


# --- the Hermite step and the Hermite kernel -----------------------------------


def full_sweep_insert(pivots, r, n):
    """``abgroup._insert`` reducing above every pivot after every row, as it did before it skipped unchanged pivots."""
    for c in range(n):
        b = r[c]
        if not b:
            continue
        p = pivots.get(c)
        if p is None:
            pivots[c], r = (r if b > 0 else [-x for x in r]), None
            break
        if b % p[c]:
            g, x, y = abgroup._xgcd(p[c], b)
            pivots[c], r = abgroup._mix(p, r, x, y, p[c] // g, b // g)
        else:
            q = b // p[c]
            r = [f - q * e for e, f in zip(p, r)]
    cols = sorted(pivots)
    for j, c in enumerate(cols):
        p = pivots[c]
        for above in cols[:j]:
            q = pivots[above][c] // p[c]
            if q:
                pivots[above] = [f - q * e for e, f in zip(p, pivots[above])]
    return r


def full_sweep_hnf(a, t):
    """``abgroup._hnf`` over :func:`full_sweep_insert`."""
    n = len(a[0]) if a else 0
    pivots, zero = {}, []
    for row, trow in zip(a, t):
        r = full_sweep_insert(pivots, list(row) + list(trow), n)
        if r is not None:
            zero.append(r)
    rows = [pivots[c] for c in sorted(pivots)] + zero
    return [r[:n] for r in rows], [r[n:] for r in rows]


def hermite_inputs():
    """Seeded matrices: square, wide, tall, rank-deficient, with zero rows, and 24 x 24 in [-9, 9]."""
    rng = random.Random(1717)
    out = []
    for m, n, bound in ((4, 4, 9), (3, 7, 9), (7, 3, 9), (6, 6, 30), (1, 5, 9), (5, 1, 9)) * 5:
        out.append([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])
    for m, r, n in ((8, 3, 8), (10, 2, 6), (5, 4, 12), (12, 5, 9)):  # rank r
        out.append(mul([[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)],
                       [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]))
    out.append([[0, 0, 0], [2, 4, 6], [0, 0, 0], [1, 2, 3]])
    for _ in range(3):
        out.append([[rng.randint(-9, 9) for _ in range(24)] for _ in range(24)])
    return out


class TestHermiteStep:
    def test_sweep_from_the_changed_pivot_gives_the_full_sweep_form(self):
        for matrix in hermite_inputs():
            m = len(matrix)
            assert abgroup._hnf(matrix, abgroup.identity(m)) == full_sweep_hnf(matrix, abgroup.identity(m))
            # a transform that is not the identity rides along the same way
            t = [[i + 2 * j for j in range(3)] for i in range(m)]
            assert abgroup._hnf(matrix, t) == full_sweep_hnf(matrix, t)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 6).flatmap(
            lambda rows: st.integers(1, 6).flatmap(
                lambda cols: st.lists(
                    st.lists(st.integers(-12, 12), min_size=cols, max_size=cols), min_size=rows, max_size=rows
                )
            )
        )
    )
    def test_sweep_from_the_changed_pivot_property(self, matrix):
        t = abgroup.identity(len(matrix))
        assert abgroup._hnf(matrix, t) == full_sweep_hnf(matrix, t)


# each mutant of the Hermite form of g's graph that could change an answer, and the check that rejects it
KERNEL_MUTANTS = [
    ("tampered-row", "Hermite transform does not reproduce the basis"),
    ("dropped-kernel-row", "Hermite transform has the wrong shape"),
    ("swapped", "Hermite pivots are not positive and in increasing columns"),
]
# mutants of the rows of W at zero rows of H, which no answer reads
ZERO_ROW_MUTANTS = ["doubled-kernel-row", "zeroed-kernel-row"]


class TestHermiteKernel:
    def test_kernel_lattice_matches_the_smith_form_kernel(self):
        rng = random.Random(1818)
        matrices = []
        for _ in range(150):
            m, n = rng.randint(0, 5), rng.randint(0, 6)
            if rng.random() < 0.3 and m and n:  # rank-deficient
                r = rng.randint(0, min(m, n) - 1)
                matrices.append(mul([[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)],
                                    [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]) if r else [[0] * n] * m)
            else:
                matrices.append([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        matrices.append([[rng.randint(-9, 9) for _ in range(24)] for _ in range(12)])
        for matrix in matrices:
            m, n = len(matrix), len(matrix[0]) if matrix else rng.randint(0, 3)
            kernel = kernel_of(matrix, n)
            assert all(mul(matrix, [[x] for x in vec]) == [[0]] * m for vec in kernel)
            assert len(kernel) == n - (rational_rank(matrix) if matrix and n else 0)
            assert Lattice(kernel, n) == Lattice(smith_kernel(matrix, n), n)
            assert kernel == Lattice(kernel, n).basis  # already the kernel's reduced Hermite basis

    @staticmethod
    def mutated_hnf(monkeypatch, mutant, rows=None):
        """Patch ``abgroup._hnf`` to return the ``mutant`` form, for inputs of ``rows`` rows only when given.

        Returns a list that gets one entry each time the mutant changes a form.
        """
        real, changed = abgroup._hnf, []

        def mutated(a, t):
            h, w = real(a, t)
            if rows is not None and len(a) != rows:
                return h, w
            if mutant == "tampered-row":
                w[-1][0] += 1
            elif mutant == "dropped-kernel-row":  # the product still holds, so only the shape check sees it
                h.pop(), w.pop()
            elif mutant == "swapped":  # the first two rows swapped: the same product, no longer an echelon
                h[0], h[1], w[0], w[1] = h[1], h[0], w[1], w[0]
            elif h and not any(h[-1]):  # a row of W at a zero row of H, doubled or zeroed: still W * A == H
                w[-1] = [2 * x for x in w[-1]] if mutant == "doubled-kernel-row" else [0] * len(w[-1])
            else:
                return h, w
            changed.append(mutant)
            return h, w

        monkeypatch.setattr(abgroup, "_hnf", mutated)
        return changed

    @pytest.mark.parametrize("mutant, message", KERNEL_MUTANTS)
    def test_mutants_are_rejected(self, monkeypatch, mutant, message):
        matrix = [[1, 2, 3, 4], [2, 0, 1, 5]]
        assert len(kernel_of(matrix, 4)) == 2
        self.mutated_hnf(monkeypatch, mutant)
        with pytest.raises(VerificationError, match=message):
            kernel_of(matrix, 4)

    @pytest.mark.parametrize("mutant, message", KERNEL_MUTANTS, ids=[mutant for mutant, _ in KERNEL_MUTANTS])
    def test_mutants_fail_the_exact_command_self_check(self, monkeypatch, mutant, message):
        from pervchow import cli

        # g: Z^4 -> Z^2 and f onto its kernel; only the Hermite form of g's graph (4 rows) is mutated
        g = {"source": {"rank": 4}, "target": {"rank": 2}, "matrix": [[1, 2, 3, 4], [2, 0, 1, 5]]}
        f = {"source": {"rank": 2}, "target": {"rank": 4}, "matrix": [[-2, -1], [-5, 3], [4, -3], [0, 1]]}
        argv = ["exact", "--f", json.dumps(f), "--g", json.dumps(g)]
        assert cli.run(argv).exit_code == 0
        self.mutated_hnf(monkeypatch, mutant, rows=4)
        report = cli.run(argv)
        assert report.exit_code == 1, report.error
        assert [(v.check, v.ok, v.explanation) for v in report.verdicts] == [("self-check", False, message)]

    def test_lattice_checks_the_transform_rows_at_zero_rows(self, monkeypatch):
        # these generators have rank 1, so the tampered last transform row lies at a zero row of H
        assert abgroup._hnf([[1, 2], [2, 4], [3, 6]], abgroup.identity(3))[1][1:] == [[-2, 1, 0], [-3, 0, 1]]
        self.mutated_hnf(monkeypatch, "tampered-row")
        with pytest.raises(VerificationError, match="Hermite transform does not reproduce the basis"):
            Lattice([[1, 2], [2, 4], [3, 6]], 2)

    @pytest.mark.parametrize("mutant", ZERO_ROW_MUTANTS)
    def test_mutants_at_zero_rows_change_no_answer(self, monkeypatch, mutant):
        from pervchow import cli

        # dependent generators leave zero rows in H: in the image's lattice (f's columns 4, 8 or
        # 2, 8) and in g's graph (the relations 4 and 8 of Z/4); the rows of W there are neither
        # reached by a witness nor by the kernel, so every answer stays as it was
        g = {"source": {"rank": 1}, "target": {"rank": 1, "relations": [[4], [8]]}, "matrix": [[1]]}
        argvs = [
            ["exact", "--f", json.dumps({"source": {"rank": 2}, "target": {"rank": 1}, "matrix": [c]}),
             "--g", json.dumps(g)]
            for c in ([4, 8], [2, 8])
        ]
        before = [(cli.run(argv).exit_code, lattice_solve([[2], [4]], [6])) for argv in argvs]
        assert before == [(0, [3, 0]), (1, [3, 0])]
        changed = self.mutated_hnf(monkeypatch, mutant)
        assert [(cli.run(argv).exit_code, lattice_solve([[2], [4]], [6])) for argv in argvs] == before
        assert changed

    def test_exactness_builds_one_lattice_per_subgroup(self, monkeypatch):
        # the image's Lattice and that of g's graph, whose basis holds the kernel's
        f, g = zmap([[4]], Z, Z), zmap([[1]], Z, FpAbelianGroup(1, ((4,),)))
        real, built = abgroup.Lattice, []
        monkeypatch.setattr(abgroup, "Lattice", lambda *args: built.append(args) or real(*args))
        assert is_exact_at_middle(f, g)
        assert [width for _, width in built] == [1, 2]


def test_lattice_answers_run_no_smith_form(monkeypatch):
    from pervchow.serialize import parse_ring

    calls = []
    real = abgroup.smith_normal_form
    monkeypatch.setattr(abgroup, "smith_normal_form", lambda *a, **k: calls.append(a) or real(*a, **k))
    z4 = FpAbelianGroup(1, ((4,),))
    assert is_exact_at_middle(zmap([[4]], Z, Z), zmap([[1]], Z, z4))
    assert not is_exact_at_middle(zmap([[2]], Z, Z), zmap([[1]], Z, z4))
    assert lattice_solve([[2, 0], [0, 3]], [4, -3]) is not None
    assert lattice_solve([[2, 0], [0, 3]], [1, 0]) is None
    assert lattice_subset([[4, 6]], [[2, 0], [0, 3]])
    zmap([[2]], FpAbelianGroup(1, ((2,),)), z4)
    with pytest.raises(ValueError, match="does not send relation"):
        zmap([[1]], FpAbelianGroup(1, ((2,),)), z4)
    ring = {"dim": 2, "basis": [["1"], ["h"], ["p"]], "products": [{"a": "h", "b": "h", "value": {"p": 1}}],
            "hyperplane": [1], "degree": [0], "relations": {"1": [[2]], "2": [[2]]}}
    assert parse_ring(ring).relations == {1: ((2,),), 2: ((2,),)}
    assert calls == []
    # the two answers that are Smith forms still take one each
    abgroup.smith_normal_form([[2, 4], [6, 8]])
    assert invariant_factors(z4) == (0, (4,))
    assert len(calls) == 2


class TestIntegersOnly:
    """The lattice core computes on the integers it was given: a float or a digit string raises
    ``TypeError`` rather than being truncated or parsed, so no result is that of another matrix."""

    @pytest.mark.parametrize("call", [
        lambda: abgroup.det([[1.5, 2], [3, 4]]),
        lambda: smith_normal_form([[1.5, 2], ["3", 4]]),
        lambda: smith_normal_form([[2, 4]], ncols=2.0),
        lambda: smith_normal_form([], ncols="2"),
        lambda: Lattice([[2.0, 0]], 2),
        lambda: Lattice([[2, 0]], 2)._coordinates([4.0, 0]),
        lambda: lattice_solve([[2]], ["4"]),
        lambda: FpAbelianGroup(2.9),
        lambda: FpAbelianGroup(1, [[2.5]]),
        lambda: GroupMap(FpAbelianGroup(1), FpAbelianGroup(1), [["1"]]),
    ])
    def test_a_float_or_a_string_raises(self, call):
        with pytest.raises(TypeError):
            call()

    def test_the_self_check_reads_the_rows_that_were_read(self, monkeypatch):
        seen = []
        real = abgroup._verify_smith
        monkeypatch.setattr(abgroup, "_verify_smith", lambda m, n, form: seen.append(m) or real(m, n, form))
        matrix = ((1, 2), (3, 4))
        form = smith_normal_form(matrix)
        assert form.diagonal() == (1, 2) and seen == [[[1, 2], [3, 4]]]
        assert all(type(x) is int for row in seen[0] for x in row)

    def test_a_bool_reads_as_the_int_it_is(self):
        assert type(FpAbelianGroup(True).rank) is int and FpAbelianGroup(True) == FpAbelianGroup(1)
        assert smith_normal_form([[True, 0], [0, 2]]).diagonal() == (1, 2)
