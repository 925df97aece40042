"""Finitely presented abelian groups over exact integer linear algebra.

Matrices are small dense lists of rows with plain Python ``int`` entries,
so all arithmetic is exact and overflow-free.  A group is presented as a
cokernel: ``Z^rank`` modulo the row span of its relations matrix.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import chain
from operator import index, mul

from ._value import Value, VerificationError, echo

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
    a = [list(map(index, row)) for row in m]
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


class SmithForm(Value):
    """Diagonalization ``U * M * V = S`` by unimodular transforms.

    ``S`` is diagonal with nonnegative entries, each dividing the next;
    ``U`` and ``V`` have determinant +-1.
    """

    __slots__ = ("U", "S", "V")

    def __init__(
        self, U: tuple[tuple[int, ...], ...], S: tuple[tuple[int, ...], ...], V: tuple[tuple[int, ...], ...]
    ) -> None:
        self._init(U, S, V)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.S[i][i] for i in range(min(len(self.S), len(self.V))))


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


def _insert(pivots: dict[int, list[int]], r: list[int], n: int) -> list[int] | None:
    """Add row ``r`` to the reduced Hermite echelon ``pivots`` (pivot column -> row) over ``n`` columns.

    Columns past ``n`` (a transform) ride along.  Subtractions and 2x2
    extended-gcd steps clear ``r`` and keep the rows' lattice; the first column
    left nonzero takes it as a new positive pivot, else it is returned.  Then
    every entry above a pivot is reduced into ``[0, pivot)``, starting at the
    first pivot this row changed or added: the pivots before it and the rows
    above them are untouched and were reduced after the previous row, so every
    quotient there is 0.
    """
    first = n  # the first pivot column whose row changed or was added
    for c in range(n):
        b = r[c]
        if not b:
            continue
        p = pivots.get(c)
        if p is None:
            pivots[c], r = (r if b > 0 else [-x for x in r]), None
            first = min(first, c)
            break
        if b % p[c]:
            g, x, y = _xgcd(p[c], b)
            pivots[c], r = _mix(p, r, x, y, p[c] // g, b // g)
            first = min(first, c)
        else:
            q = b // p[c]
            r = [f - q * e for e, f in zip(p, r)]
    if first == n:
        return r
    cols = sorted(pivots)
    for j in range(cols.index(first), len(cols)):
        c = cols[j]
        p = pivots[c]
        for above in cols[:j]:
            q = pivots[above][c] // p[c]
            if q:
                pivots[above] = [f - q * e for e, f in zip(p, pivots[above])]
    return r


def _hnf(a: Matrix, t: Matrix) -> tuple[Matrix, Matrix]:
    """Fully reduced row Hermite form ``H = W * A`` with ``W`` unimodular, and ``W * T``.

    Rows of ``[A | T]`` enter one at a time through :func:`_insert`.  Pivots
    are positive and zero rows come last.
    """
    n = len(a[0]) if a else 0
    pivots: dict[int, list[int]] = {}  # pivot column -> row of [H | W * T]
    zero: Matrix = []
    for row, trow in zip(a, t):
        r = _insert(pivots, row + trow, n)
        if r is not None:
            zero.append(r)
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
    matrices are fine.  Every returned form has passed ``_verify_smith``,
    an exact check of the whole contract (``U * M * V = S``, ``|det U| =
    |det V| = 1``, ``S`` diagonal, nonnegative and a divisibility chain)
    with no size cut-off or sampling; a form that fails it raises
    ``VerificationError``.
    """
    a = [list(map(index, row)) for row in matrix]
    m = len(a)
    n = index(ncols) if ncols is not None else (len(a[0]) if a else 0)
    if n < 0:
        raise ValueError(f"ncols must be nonnegative, got {echo(n)}")
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
    _verify_smith(a, n, form)
    return form


def _pack(row: Sequence[int], w: int) -> int:
    """``sum(row[j] * 2**(w*j))``: the row as balanced base-``2**w`` digits of one int."""
    acc = 0
    for x in reversed(row):
        acc = (acc << w) + x
    return acc


def _product_is(
    u: Sequence[Sequence[int]],
    a: Sequence[Sequence[int]],
    v: Sequence[Sequence[int]],
    s: Sequence[Sequence[int]],
) -> bool:
    """Whether ``u * a * v == s``, for shapes p x m, m x n, n x q and p x q.

    Kronecker substitution: each row of ``v`` is packed into one int with
    slots of ``w`` bits, so a row of ``a * v`` is a sum of ``n`` products
    ``a[j][k] * packed(v[k])`` and a row of ``u * a * v`` a sum of ``m``
    products of ``u`` entries with those.  By linearity each sum is
    ``packed`` of the true row, whatever ``w`` is.  The entries of ``a * v``
    are at most ``n*|a|*|v|`` and those of ``u * a * v`` at most
    ``m*n*|u|*|a|*|v|`` in absolute value (``|x|`` the largest entry of
    ``x``); ``w`` is two more than the bit length of the largest of these
    bounds and ``|s|``, so every entry compared has ``|x| < 2**(w-1)``.
    Two rows in that range are equal exactly when their packed ints are:
    their difference has digits of size below ``2**w``, and the lowest
    nonzero one would have to be a multiple of ``2**w``.
    """
    def top(x: Sequence[Sequence[int]]) -> int:
        return max(map(abs, chain.from_iterable(x)), default=0)

    m, n = len(a), len(v)
    ua, aa, va = top(u), top(a), top(v)
    w = max(n * aa * va, m * n * ua * aa * va, top(s)).bit_length() + 2
    packed_v = [_pack(row, w) for row in v]
    packed_av = [sum(map(mul, row, packed_v)) for row in a]
    return all(sum(map(mul, row, packed_av)) == _pack(srow, w) for row, srow in zip(u, s))


def _verify_smith(matrix: Sequence[Sequence[int]], n: int, form: SmithForm) -> None:
    """Raise ``VerificationError`` unless ``form`` is a Smith form of ``matrix``, the m x n int rows read.

    Each fact is checked exactly, on every call:

    - shapes: ``U`` is m x m, ``S`` is m x n and ``V`` is n x n;
    - ``S`` is diagonal (read off its entries);
    - ``U * M * V == S``, by ``_product_is`` on packed rows;
    - the diagonal is nonnegative and each entry divides the next, zeros last;
    - ``|det U| = |det V| = 1``.  When ``M`` is square and ``det S != 0``,
      ``det U * det M * det V = det S`` (the product holds), so
      ``|det M| == |det S|`` with integer ``det U`` and ``det V`` forces
      both to be +-1; ``det M`` comes from the input's small entries, and
      ``det S`` is the product of the diagonal because ``S`` is diagonal.
      Otherwise ``det U`` and ``det V`` are computed.
    """
    m = len(matrix)
    u, s, v = form.U, form.S, form.V
    if (
        len(u) != m
        or len(s) != m
        or len(v) != n
        or any(len(row) != m for row in u)
        or any(len(row) != n for row in s)
        or any(len(row) != n for row in v)
    ):
        raise VerificationError("Smith form has the wrong shape")
    if any(x for i, row in enumerate(s) for j, x in enumerate(row) if i != j):
        raise VerificationError("Smith form is not diagonal")
    if not _product_is(u, matrix, v, s):
        raise VerificationError("Smith form does not reproduce the input matrix")
    diag = [s[i][i] for i in range(min(m, n))]
    if any(d < 0 for d in diag):
        raise VerificationError("Smith diagonal has a negative entry")
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            raise VerificationError("zero diagonal entry precedes a nonzero one")
        if x != 0 and y % x != 0:
            raise VerificationError("Smith diagonal violates the divisibility chain")
    det_s = math.prod(diag)
    if m == n and det_s:
        unimodular = abs(det(matrix)) == det_s
    else:
        unimodular = abs(det(u)) == 1 and abs(det(v)) == 1
    if not unimodular:
        raise VerificationError("Smith transforms are not unimodular")


class Lattice(Value, uncompared=("transform", "terms")):
    """The lattice spanned by integer rows in ``Z^width``, held as its reduced Hermite basis.

    ``basis`` is the nonzero rows of ``H = W * generators`` from :func:`_hnf`, unique for
    the lattice (Cohen, *A Course in Computational Algebraic Number Theory*, §2.4.3), so
    ``==`` compares widths and bases.  ``transform`` is the rows of ``W`` that give the
    basis (witnesses), and ``terms`` each basis row's nonzero ``(column, entry)`` pairs,
    its pivot first.  Construction checks exactly that ``W`` is square with one row per
    generator, that ``W * generators == H``, that the pivots are positive in increasing
    columns with every entry above one in ``[0, pivot)`` and all later rows zero, and that
    each generator reduces to zero on the basis; a failed check raises ``VerificationError``.
    """

    __slots__ = ("width", "basis", "transform", "terms")

    def __init__(self, generators: Sequence[Sequence[int]], width: int) -> None:
        gens = [list(map(index, g)) for g in generators]
        if any(len(g) != width for g in gens):
            raise ValueError("generator length mismatch")
        n = len(gens)
        h, w = _hnf(gens, identity(n))
        if len(h) != n or len(w) != n or any(len(row) != n for row in w):
            raise VerificationError("Hermite transform has the wrong shape")
        if mat_mul(w, gens) != h:
            raise VerificationError("Hermite transform does not reproduce the basis")
        rank = sum(1 for row in h if any(row))
        basis, pivots, terms = h[:rank], [], []
        for row in basis:
            nonzero = tuple([(j, x) for j, x in enumerate(row) if x])
            c = nonzero[0][0] if nonzero else width
            if c == width or row[c] < 0 or pivots and c <= pivots[-1]:
                raise VerificationError("Hermite pivots are not positive and in increasing columns")
            if any(not 0 <= above[c] < row[c] for above in basis[: len(pivots)]):
                raise VerificationError("Hermite basis has an unreduced entry above a pivot")
            pivots.append(c)
            terms.append(nonzero)
            for g in gens:  # a remainder at the pivot stays, as no later row has an entry in column c
                if k := g[c] // row[c]:
                    for j, x in nonzero:
                        g[j] -= k * x
        if any(map(any, gens)):
            raise VerificationError("a generator lies outside its Hermite basis")
        self._init(width, tuple(map(tuple, basis)), tuple(map(tuple, w[:rank])), tuple(terms))

    def _coordinates(self, vector: Sequence[int]) -> list[int] | None:
        """``q`` with ``q * basis == vector``, or ``None`` when ``vector`` is outside the lattice.

        Each basis row is subtracted over its nonzero entries only.
        """
        x = list(map(index, vector))
        if len(x) != self.width:
            raise ValueError(f"a vector of length {len(x)} is not in Z^{self.width}")
        q = []
        for terms in self.terms:
            c, pivot = terms[0]
            k, rest = divmod(x[c], pivot)
            if rest:
                return None
            if k:
                for j, e in terms:
                    x[j] -= k * e
            q.append(k)
        return None if any(x) else q

    def __contains__(self, vector: Sequence[int]) -> bool:
        return self._coordinates(vector) is not None

    def __reduce__(self) -> tuple:
        # the basis generates the lattice, so a copy is rebuilt, and checked, from it
        return Lattice, (self.basis, self.width)


def lattice_solve(generators: Sequence[Sequence[int]], target: Sequence[int]) -> list[int] | None:
    """Integer coefficients expressing ``target`` over the generator rows.

    Returns ``None`` when ``target`` is outside the generated lattice; a
    returned witness always satisfies ``witness . generators == target``.
    """
    lattice = Lattice(generators, len(target))
    q = lattice._coordinates(target)
    if q is None or not generators:
        return q
    coeffs = vec_mat(q, lattice.transform) if q else [0] * len(generators)
    if vec_mat(coeffs, generators) != list(target):
        raise VerificationError("lattice witness failed verification")
    return coeffs


def lattice_subset(inner: Sequence[Sequence[int]], outer: Sequence[Sequence[int]]) -> bool:
    """Every generator of ``inner`` lies in the lattice spanned by ``outer``."""
    if not inner:
        return True
    lattice = Lattice(outer, len(inner[0]))
    return all(g in lattice for g in inner)


class FpAbelianGroup(Value):
    """Cokernel presentation: ``Z^rank`` modulo the row span of ``relations``."""

    __slots__ = ("rank", "relations")

    def __init__(self, rank: int, relations: tuple[tuple[int, ...], ...] = ()) -> None:
        if (rank := index(rank)) < 0:
            raise ValueError("rank must be nonnegative")
        rel = tuple(tuple(map(index, row)) for row in relations)
        self._init(rank, rel)
        for row in rel:
            if len(row) != rank:
                raise ValueError(f"relation {echo(list(row))} has length {len(row)}, expected rank {rank}")


def invariant_factors(group: FpAbelianGroup) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion coefficients ``n_1 | n_2 | ...`` (each > 1)."""
    if not group.relations:
        return group.rank, ()
    form = smith_normal_form(group.relations, ncols=group.rank)
    nonzero = [d for d in form.diagonal() if d != 0]
    return group.rank - len(nonzero), tuple(d for d in nonzero if d > 1)


def describe(group: FpAbelianGroup) -> str:
    """Short human name like ``Z^2``, ``Z + Z/2`` or ``0``."""
    return name_of(*invariant_factors(group))


def name_of(free: int, torsion: Sequence[int]) -> str:
    """The name :func:`describe` gives a group of these invariant factors."""
    parts: list[str] = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    parts.extend(f"Z/{n}" for n in torsion)
    return " + ".join(parts) if parts else "0"


class GroupMap(Value):
    """Homomorphism of presented groups, as a matrix on chosen generators.

    The matrix (target rank x source rank) must carry every source relation
    into the relation lattice of the target; this is checked at construction
    so a ``GroupMap`` is always a well-defined homomorphism.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FpAbelianGroup, target: FpAbelianGroup, matrix: tuple[tuple[int, ...], ...]) -> None:
        rows = tuple(tuple(map(index, row)) for row in matrix)
        self._init(source, target, rows)
        if len(rows) != self.target.rank:
            raise ValueError(f"matrix has {len(rows)} rows, expected target rank {self.target.rank}")
        for row in rows:
            if len(row) != self.source.rank:
                raise ValueError(
                    f"matrix row {echo(list(row))} has length {len(row)}, expected source rank {self.source.rank}"
                )
        if not self.source.relations:
            return
        relations = Lattice(self.target.relations, self.target.rank)
        for rel in self.source.relations:
            if mat_vec(rows, rel) not in relations:
                raise ValueError(f"matrix does not send relation {echo(list(rel))} into the target relations")


def _kernel(g: GroupMap) -> tuple[tuple[int, ...], ...]:
    """The reduced Hermite basis of ``ker g = {x : g(x) is in the target's relations}``.

    The :class:`Lattice` of ``g``'s graph, spanned by ``(g(e_i), e_i)`` and by ``(rho, 0)`` for
    each target relation ``rho``, holds ``(0, x)`` exactly for ``x`` in ``ker g``.  Its echelon
    rows with a pivot past the target's columns span those vectors and are reduced, so cut to
    the source's columns they are the kernel's unique reduced Hermite basis (Cohen, §2.4),
    covered by the lattice's own certificate.
    """
    t, s = g.target.rank, g.source.rank
    graph = [[row[i] for row in g.matrix] + e for i, e in enumerate(identity(s))]
    graph += [list(rel) + [0] * s for rel in g.target.relations]
    return tuple(row[t:] for row in Lattice(graph, t + s).basis if not any(row[:t]))


def is_exact_at_middle(f: GroupMap, g: GroupMap) -> bool:
    """Whether ``image(f) == kernel(g)`` as subgroups of the middle group.

    Both are compared as sublattices of ``Z^rank`` containing the middle relations, by their
    reduced Hermite bases (which implies ``g o f = 0``); the kernel holds those relations
    because ``g`` sends them into the target's.  No Smith form runs.  The two presentations
    of the middle group may list different relation rows if they span one lattice.
    """
    middle, source = f.target, g.source
    if middle != source and Lattice(middle.relations, middle.rank) != Lattice(source.relations, source.rank):
        raise ValueError("middle groups do not match")
    image = Lattice(transpose(f.matrix) + [list(r) for r in middle.relations], middle.rank)
    return image.basis == _kernel(g)
