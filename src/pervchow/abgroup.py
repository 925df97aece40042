"""Finitely presented abelian groups over exact integer linear algebra.

Matrices are small dense lists of rows with plain Python ``int`` entries,
so all arithmetic is exact and overflow-free.  A group is presented as a
cokernel: ``Z^rank`` modulo the row span of its relations matrix.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from operator import mul

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m: Sequence[Sequence[int]]) -> Matrix:
    return [list(col) for col in zip(*m)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    if not a:
        return []
    rows, inner = len(a), len(a[0])
    if len(b) != inner:
        raise ValueError(f"shape mismatch: {rows}x{inner} times {len(b)}x?")
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    return [sum(map(mul, row, v)) for row in a]


def vec_mat(v: Sequence[int], a: Sequence[Sequence[int]]) -> list[int]:
    if len(a) != len(v):
        raise ValueError(f"shape mismatch: 1x{len(v)} times {len(a)}x?")
    return [sum(map(mul, v, col)) for col in zip(*a)]


def det(m: Sequence[Sequence[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination; exact over int."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    a = [[int(x) for x in row] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithForm:
    """Diagonalization ``U * M * V = S`` by unimodular transforms.

    ``S`` is diagonal with nonnegative entries, each dividing the next;
    ``U`` and ``V`` have determinant +-1.
    """

    U: tuple[tuple[int, ...], ...]
    S: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.S[i][i] for i in range(min(len(self.S), len(self.V))))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """``(g, x, y)`` with ``g = gcd(a, b) = x*a + y*b`` and ``g >= 0``."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1, y0, y1 = x1, x0 - q * x1, y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _mix(p: list[int], r: list[int], x: int, y: int, s: int, k: int) -> tuple[list[int], list[int]]:
    """The rows ``x*p + y*r`` and ``s*r - k*p``; unimodular when ``x*s + y*k = 1``."""
    return [x * e + y * f for e, f in zip(p, r)], [s * f - k * e for e, f in zip(p, r)]


def _hnf(a: Matrix, t: Matrix) -> tuple[Matrix, Matrix]:
    """Fully reduced row Hermite form ``H = W * A`` with ``W`` unimodular, and ``W * T``.

    Rows of ``[A | T]`` enter one at a time and are cleared against the
    pivot rows so far by subtractions and 2x2 extended-gcd steps; after each
    row, every entry above a pivot is reduced into ``[0, pivot)``.  Pivots
    are positive and zero rows come last.
    """
    n = len(a[0]) if a else 0
    pivots: dict[int, list[int]] = {}  # pivot column -> row of [H | W * T]
    zero: Matrix = []
    for row, trow in zip(a, t):
        r = row + trow
        for c in range(n):
            b = r[c]
            if not b:
                continue
            p = pivots.get(c)
            if p is None:
                pivots[c] = r if b > 0 else [-x for x in r]
                break
            if b % p[c]:
                g, x, y = _xgcd(p[c], b)
                pivots[c], r = _mix(p, r, x, y, p[c] // g, b // g)
            else:
                q = b // p[c]
                r = [f - q * e for e, f in zip(p, r)]
        else:
            zero.append(r)
        cols = sorted(pivots)
        for j, c in enumerate(cols):
            p = pivots[c]
            for above in cols[:j]:
                q = pivots[above][c] // p[c]
                if q:
                    pivots[above] = [f - q * e for e, f in zip(p, pivots[above])]
    rows = [pivots[c] for c in sorted(pivots)] + zero
    return [r[:n] for r in rows], [r[n:] for r in rows]


def smith_normal_form(matrix: Sequence[Sequence[int]], ncols: int | None = None) -> SmithForm:
    """Diagonalize an integer matrix with unimodular row/column transforms.

    Alternating Hermite forms (Kannan & Bachem 1979): a row HNF
    ``H = U * M``, then column and row HNFs of ``H`` until it is diagonal
    (each pass clears the first unsettled row and column or shrinks its
    entry to a proper divisor), then gcd/lcm steps on pairs of diagonal
    entries for the divisibility chain.  Each HNF keeps its entries reduced
    modulo its pivots after every input row, so the entries of ``U`` and
    ``V`` stay within a small multiple of the size of the largest minors
    of ``M``; Euclidean elimination lets them grow with every step.
    ``ncols`` disambiguates the width of a matrix with no rows; empty
    matrices are fine.  The returned form is verified against its own
    contract before being handed back.
    """
    a = [[int(x) for x in row] for row in matrix]
    m = len(a)
    n = int(ncols) if ncols is not None else (len(a[0]) if a else 0)
    if n < 0:
        raise ValueError(f"ncols must be nonnegative, got {n}")
    if any(len(row) != n for row in a):
        raise ValueError("ragged or mis-sized matrix")

    h, u = _hnf(a, identity(m))
    vt = identity(n)  # V transposed: column passes act on its rows
    row_pass = False
    while any(x for i, row in enumerate(h) for j, x in enumerate(row) if i != j):
        if row_pass:
            h, u = _hnf(h, u)
        else:
            g, vt = _hnf(transpose(h), vt)
            h = transpose(g)
        row_pass = not row_pass
    rank = sum(1 for i in range(min(m, n)) if h[i][i])
    for i in range(rank):
        for j in range(i + 1, rank):
            d, e = h[i][i], h[j][j]
            if e % d:
                # rows [[x, y], [-e/g, d/g]] and columns [[1, -y*e/g], [1, x*d/g]]
                # turn diag(d, e) into diag(g, d*e/g)
                g, x, y = _xgcd(d, e)
                s, k = d // g, e // g
                h[i][i], h[j][j] = g, s * e
                u[i], u[j] = _mix(u[i], u[j], x, y, s, k)
                vt[i], vt[j] = _mix(vt[i], vt[j], 1, 1, x * s, y * k)

    form = SmithForm(
        U=tuple(tuple(row) for row in u),
        S=tuple(tuple(row) for row in h),
        V=tuple(zip(*vt)),
    )
    _verify_smith(matrix, n, form)
    return form


def _verify_smith(matrix: Sequence[Sequence[int]], n: int, form: SmithForm) -> None:
    m = len(matrix)
    s = [list(r) for r in form.S]
    original = [[int(x) for x in row] for row in matrix]
    if mat_mul(mat_mul(form.U, original), form.V) != s:
        raise RuntimeError("Smith form does not reproduce the input matrix")
    if abs(det(form.U)) != 1 or abs(det(form.V)) != 1:
        raise RuntimeError("Smith transforms are not unimodular")
    for i in range(m):
        for j in range(n):
            if i != j and s[i][j] != 0:
                raise RuntimeError("Smith form is not diagonal")
    diag = [s[i][i] for i in range(min(m, n))]
    if any(d < 0 for d in diag):
        raise RuntimeError("Smith diagonal has a negative entry")
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            raise RuntimeError("zero diagonal entry precedes a nonzero one")
        if x != 0 and y % x != 0:
            raise RuntimeError("Smith diagonal violates the divisibility chain")


def _lattice_solver(
    generators: Sequence[Sequence[int]], n: int
) -> Callable[[Sequence[int]], list[int] | None]:
    """``lattice_solve`` for many targets of length ``n``, over one Smith form of the generators."""
    gens = [[int(x) for x in g] for g in generators]
    if any(len(g) != n for g in gens):
        raise ValueError("generator length mismatch")
    form = smith_normal_form(gens) if gens else None

    def solve(target: Sequence[int]) -> list[int] | None:
        x = [int(val) for val in target]
        if len(x) != n:
            raise ValueError("generator length mismatch")
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
        if vec_mat(coeffs, gens) != x:
            raise RuntimeError("lattice witness failed verification")
        return coeffs

    return solve


def lattice_solve(generators: Sequence[Sequence[int]], target: Sequence[int]) -> list[int] | None:
    """Integer coefficients expressing ``target`` over the generator rows.

    Returns ``None`` when ``target`` is outside the generated lattice; a
    returned witness always satisfies ``witness . generators == target``.
    """
    return _lattice_solver(generators, len(target))(target)


def lattice_contains(generators: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    return lattice_solve(generators, target) is not None


def lattice_subset(inner: Sequence[Sequence[int]], outer: Sequence[Sequence[int]]) -> bool:
    """Every generator of ``inner`` lies in the lattice spanned by ``outer``."""
    if not inner:
        return True
    solve = _lattice_solver(outer, len(inner[0]))
    return all(solve(g) is not None for g in inner)


def kernel_basis(matrix: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Vectors spanning the integer solutions of ``M x = 0`` (x of length ncols)."""
    rows = [[int(x) for x in r] for r in matrix]
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged or mis-sized matrix")
    if not rows:
        return identity(ncols)
    form = smith_normal_form(rows, ncols=ncols)
    r = form.rank
    return [[form.V[i][j] for i in range(ncols)] for j in range(r, ncols)]


@dataclass(frozen=True)
class FpAbelianGroup:
    """Cokernel presentation: ``Z^rank`` modulo the row span of ``relations``."""

    rank: int
    relations: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        rel = tuple(tuple(int(x) for x in row) for row in self.relations)
        object.__setattr__(self, "relations", rel)
        for row in rel:
            if len(row) != self.rank:
                raise ValueError(
                    f"relation {list(row)} has length {len(row)}, expected rank {self.rank}"
                )

    @classmethod
    def free(cls, rank: int) -> "FpAbelianGroup":
        return cls(rank)

    @classmethod
    def cyclic(cls, n: int) -> "FpAbelianGroup":
        return cls(1, ((n,),))


def invariant_factors(group: FpAbelianGroup) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion coefficients ``n_1 | n_2 | ...`` (each > 1)."""
    if not group.relations:
        return group.rank, ()
    form = smith_normal_form(group.relations, ncols=group.rank)
    nonzero = [d for d in form.diagonal() if d != 0]
    return group.rank - len(nonzero), tuple(d for d in nonzero if d > 1)


def describe(group: FpAbelianGroup) -> str:
    """Short human name like ``Z^2``, ``Z + Z/2`` or ``0``."""
    free, torsion = invariant_factors(group)
    parts: list[str] = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    parts.extend(f"Z/{n}" for n in torsion)
    return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class GroupMap:
    """Homomorphism of presented groups, as a matrix on chosen generators.

    The matrix (target rank x source rank) must carry every source relation
    into the relation lattice of the target; this is checked at construction
    so a ``GroupMap`` is always a well-defined homomorphism.
    """

    source: FpAbelianGroup
    target: FpAbelianGroup
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(x) for x in row) for row in self.matrix)
        object.__setattr__(self, "matrix", rows)
        if len(rows) != self.target.rank:
            raise ValueError(
                f"matrix has {len(rows)} rows, expected target rank {self.target.rank}"
            )
        for row in rows:
            if len(row) != self.source.rank:
                raise ValueError(
                    f"matrix row {list(row)} has length {len(row)}, expected source rank {self.source.rank}"
                )
        if not self.source.relations:
            return
        solve = _lattice_solver(self.target.relations, self.target.rank)
        for rel in self.source.relations:
            if solve(mat_vec(rows, rel)) is None:
                raise ValueError(
                    f"matrix does not send relation {list(rel)} into the target relations"
                )


def compose(second: GroupMap, first: GroupMap) -> GroupMap:
    if first.target != second.source:
        raise ValueError("maps are not composable")
    product = mat_mul(second.matrix, first.matrix)
    return GroupMap(first.source, second.target, tuple(tuple(r) for r in product))


def _image_generators(f: GroupMap) -> list[list[int]]:
    return transpose(f.matrix) + [list(r) for r in f.target.relations]


def _kernel_generators(g: GroupMap) -> list[list[int]]:
    # x is in the kernel iff g(x) lies in the relation lattice of the target,
    # i.e. (x, y) solves [matrix | relations^T] (x, y) = 0 for some y.
    b = g.source.rank
    rel_t = transpose(g.target.relations) or [[] for _ in g.matrix]
    stacked = [list(row) + rel for row, rel in zip(g.matrix, rel_t)]
    width = b + len(g.target.relations)
    full = kernel_basis(stacked, width) if stacked else identity(width)
    return [vec[:b] for vec in full]


def is_exact_at_middle(f: GroupMap, g: GroupMap) -> bool:
    """Whether ``image(f) == kernel(g)`` as subgroups of the middle group.

    Both subgroups are compared as sublattices of ``Z^rank`` containing the
    middle group's relations; equality is decided by Smith-form membership
    in both directions (and implies ``g o f = 0``).
    """
    if f.target != g.source:
        raise ValueError("middle groups do not match")
    image = _image_generators(f)
    kernel = _kernel_generators(g)
    return lattice_subset(image, kernel) and lattice_subset(kernel, image)
