"""Graded integer presentations of intersection rings of smooth bases.

A presentation lists an ordered integer basis per codimension together with
structure constants; multiplication is their bilinear extension.  Rings are
inputs here (classical presentations ship as built-ins), never computed from
defining equations.
"""

from __future__ import annotations

import bisect
import re
from collections.abc import Callable, Mapping, Sequence
from operator import index

from ._value import Value, echo
from .abgroup import FpAbelianGroup, Lattice, _insert

Combo = dict[str, int]
_NO_TERMS: Combo = {}  # shared read-only stand-in for a missing product

# Largest basis, counted over all codimensions, that a built-in name or a ring
# document may ask for.  The associativity check costs about |G|*N^2 table
# lookups for |G| generators (one for P<n>, two for a product of two projective
# spaces), read from the row index the constructor builds in its one pass over
# the structure constants.  On a 2-vCPU VM P127 builds in 0.010-0.012 s, about
# three fifths of it that pass over its 4032 constants and a sixth the walk,
# and P500 in 0.21-0.23 s; but a dense document costs about k^5 for k symbols
# per codimension (42 per level take seconds), so the limit stays.
MAX_RING_BASIS = 128

_PROJECTIVE = re.compile(r"P0*(\d+)")


class ChowRingPresentation:
    """Structure constants of a graded commutative ring on an explicit basis.

    ``basis[k]`` lists the symbols spanning codimension ``k`` for
    ``0 <= k <= dim``; codimension 0 must be spanned by a single unit symbol.
    ``products`` maps symbol pairs to integer combinations in the sum
    codimension: omitted pairs multiply to zero and the unit row is filled in
    automatically.  Each product is stored under both orders of its pair, so
    the ring is commutative by construction, and associativity is checked at
    construction through a generating set (Light's associativity test):

    * the set ``T`` of classes ``t`` with ``(xt)y = x(ty)`` for all
      ``x, y`` is a subalgebra: it is a subspace holding the unit, and for
      ``s, t`` in ``T`` each step of
      ``(x(st))y = ((xs)t)y = (xs)(ty) = x(s(ty)) = x((st)y)`` uses ``s`` or
      ``t``.  So the ring is associative once every generator ``g`` of it is in
      ``T``, and by commutativity and linearity that asks ``(gx)y = (gy)x``
      for basis symbols ``x, y``.  Integer tables are associative exactly
      when they are over Q, so :meth:`_level_generators` need only generate over Q;
    * the unit is skipped as ``x`` or ``y``, since ``1 * x = x`` makes both
      sides agree, and so are triples beyond ``dim``, where both sides are
      zero because the constructor rejects any product landing past ``dim``;
    * each multiset ``{g, x, y}`` holding a generator is checked once, under
      its first generator ``g`` (pairs holding an earlier generator are
      skipped): ``(gx)y = (gy)x`` is ``g``'s condition, and if the multiset
      holds a second generator other than ``g``, ``(xy)g`` is compared too,
      which is that generator's condition.  ``{g, x, x}`` with ``x`` no
      generator needs nothing, so no multiset costs more expansions than
      comparing its three bracketings;
    * the walk reads the row index that the constructor builds while it
      cleans the products, ``_rows[a][b] = a*b`` for both orders of every
      nonzero product, and reads each generator's row once.  Where the left
      factor of a bracketing is one symbol ``t`` with coefficient 1, as every
      product of every built-in ring is, the bracketing is a lookup in ``t``'s
      row; an empty factor gives the empty side, and only other combinations
      are expanded, through the rows.  The generator search, the relation
      check and :func:`mul` read the same index.

    Construction reads each structure constant once, in listed order, so an
    error in a product names its first bad term; it files each cleaned
    combination in the row index, the ring's only store of structure
    constants, and remembers a pair listed as zero only to reject a nonzero
    listing of its other order or of a unit product.  :meth:`products` is the
    canonical listing of the index, which equality and the JSON document read;
    it hands out the stored combinations themselves, which callers only read.

    ``hyperplane`` is the coefficient vector (over ``basis[1]``) of the
    hyperplane section of the chosen projective embedding, and
    ``degree_functional`` the vector over ``basis[dim]`` evaluating the
    degree of a zero-cycle class.  ``relations`` optionally presents torsion
    per codimension, and group views route through :class:`FpAbelianGroup`.
    Products and degrees are computed on representatives, so the relations
    must form a graded ideal on which the degree vanishes; this is checked at
    construction (:meth:`_check_relations`).
    """

    def __init__(
        self,
        name: str,
        dim: int,
        basis: Sequence[Sequence[str]],
        products: Mapping[tuple[str, str], Mapping[str, int]],
        hyperplane: Sequence[int],
        degree_functional: Sequence[int],
        relations: Mapping[int, Sequence[Sequence[int]]] | None = None,
    ) -> None:
        if not isinstance(name, str):
            raise TypeError(f"ring name must be a string, got {type(name).__name__}")
        self.name = name
        self.dim = index(dim)
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        levels = tuple(map(tuple, basis))
        if len(levels) != self.dim + 1:
            raise ValueError(f"need basis lists for codimensions 0..{echo(self.dim)}")
        if len(levels[0]) != 1:
            raise ValueError("codimension 0 must be spanned by a single unit symbol")
        self.basis = levels
        codim: dict[str, int] = {}
        for k, level in enumerate(levels):
            if not level:
                raise ValueError(f"codimension {k} has no basis symbols")
            for sym in level:
                if not isinstance(sym, str):
                    raise TypeError(f"basis symbol {echo(sym)} in codim {k} must be a string")
                if sym in codim:
                    raise ValueError(f"duplicate basis symbol {echo(sym)}")
                codim[sym] = k
        self._codim = codim
        self.unit = levels[0][0]

        # the row index rows[a][b] = rows[b][a] = a*b, the one store of the nonzero products;
        # the pairs listed as zero are kept only to check their other order and the unit row
        rows: dict[str, dict[str, Combo]] = {sym: {} for sym in codim}
        zeros: set[tuple[str, str]] = set()
        for (a, b), value in products.items():
            try:
                total = codim[a] + codim[b]
            except KeyError:
                raise ValueError(f"product ({echo(a)}, {echo(b)}) uses unknown symbols") from None
            cleaned: Combo = {}
            for sym, c in value.items():
                if type(c) is not int:
                    c = index(c)
                if c:
                    if not isinstance(sym, str):
                        raise TypeError(f"symbol {echo(sym)} in product ({echo(a)}, {echo(b)}) must be a string")
                    # no symbol lies past the dimension, so this also rejects a product landing there
                    if codim.get(sym) != total:
                        raise ValueError(f"product ({echo(a)}, {echo(b)}) lands in codim {total}, got {echo(sym)}")
                    cleaned[sym] = c
            old = rows[a].get(b, _NO_TERMS if zeros and (b, a) in zeros else None)
            if old is not None and old != cleaned:
                raise ValueError(f"inconsistent products for pair {echo((a, b) if a <= b else (b, a))}")
            if cleaned:
                rows[a][b] = rows[b][a] = cleaned
            else:
                zeros.add((a, b))
        unit, unit_row = self.unit, rows[self.unit]
        for sym, row in rows.items():
            expected = {sym: 1}
            if row.get(unit, expected) != expected or (zeros and ((unit, sym) in zeros or (sym, unit) in zeros)):
                raise ValueError(f"unit product for {echo(sym)} must be {echo(sym)} itself")
            unit_row[sym] = row[unit] = expected
        self._rows = rows

        hyper = tuple(map(index, hyperplane))
        width = len(levels[1]) if self.dim >= 1 else 0
        if len(hyper) != width:
            raise ValueError(f"hyperplane vector must have length {width}")
        self.hyperplane = hyper

        deg = tuple(map(index, degree_functional))
        if len(deg) != len(levels[self.dim]):
            raise ValueError(
                f"degree functional must have length {len(levels[self.dim])}"
            )
        self.degree_functional = deg

        rels: dict[int, tuple[tuple[int, ...], ...]] = {}
        for k, rows in (relations or {}).items():
            if not 0 <= (k := index(k)) <= self.dim:
                raise ValueError(f"relations declared for impossible codimension {echo(k)}")
            packed = tuple(tuple(map(index, row)) for row in rows)
            for row in packed:
                if len(row) != len(levels[k]):
                    raise ValueError(f"relation {echo(list(row))} does not match codim {k} basis")
            if packed:
                rels[k] = packed
        self.relations = rels

        self._check_associativity()
        self._check_relations()

    # -- basic queries -------------------------------------------------

    def basis_at(self, k: int) -> tuple[str, ...]:
        """Basis symbols in codimension ``k`` (empty beyond the dimension)."""
        if k < 0:
            raise ValueError("codimension must be nonnegative")
        return self.basis[k] if k <= self.dim else ()

    def codim_of(self, sym: str) -> int:
        return self._codim[sym]

    def group(self, k: int) -> FpAbelianGroup:
        """The abelian group underlying codimension ``k``."""
        return FpAbelianGroup(len(self.basis_at(k)), self.relations.get(k, ()))

    # -- class constructors --------------------------------------------

    def make(self, k: int, coeffs: Sequence[int] | Mapping[str, int]) -> "ChowClass":
        level = self.basis_at(k)
        if isinstance(coeffs, Mapping):
            unknown = set(coeffs) - set(level)
            if unknown:
                raise ValueError(f"coefficients name unknown symbols {echo(sorted(unknown))}")
            coeffs = [coeffs.get(sym, 0) for sym in level]
        return ChowClass(self, k, coeffs)

    def basis_class(self, sym: str) -> "ChowClass":
        k = self.codim_of(sym)
        return self.make(k, {sym: 1})

    def unit_class(self) -> "ChowClass":
        return self.basis_class(self.unit)

    def hyperplane_class(self) -> "ChowClass":
        return self.make(1, self.hyperplane)

    # -- validation ------------------------------------------------------

    def _level_generators(self, k: int) -> list[str]:
        """The generators in codimension ``k >= 1``, in basis order.

        The rows are the products ``a*b`` with ``codim a + codim b = k`` and
        ``1 <= codim a <= k/2``, read from the row index.  A one-term product
        ``c*e_j`` covers column ``j``; the search ends once every column is
        covered, as on every level of every built-in ring.  The other products,
        with the covered coordinates dropped, enter a Hermite echelon through
        :func:`abgroup._insert`.  Over Q the rows span the covered ``e_j`` plus
        those reduced rows, so their pivot columns are the covered columns and
        the echelon's, and the symbols in the other columns are the generators.
        Those symbols and the product rows span the level over Q, so by
        induction on ``k`` the generators of codimensions ``1..k`` and the unit
        generate every class up to codimension ``k``.
        """
        levels, rows, level = self.basis, self._rows, self.basis[k]
        covered: set[str] = set()
        rest: list[Combo] = []
        for i in range(1, k // 2 + 1):
            for ia, a in enumerate(levels[i]):
                row_a = rows[a]
                for b in levels[k - i][ia if 2 * i == k else 0 :]:
                    combo = row_a.get(b)
                    if combo is None:
                        continue
                    if len(combo) > 1:
                        rest.append(combo)
                        continue
                    covered.update(combo)
                    if len(covered) == len(level):
                        return []
        free = [sym for sym in level if sym not in covered]
        place = {sym: m for m, sym in enumerate(free)}
        pivots: dict[int, list[int]] = {}  # leading column, over the free columns -> row
        for combo in rest:
            if len(pivots) == len(free):
                break
            row = [0] * len(free)
            for sym, c in combo.items():
                if sym in place:
                    row[place[sym]] = c
            _insert(pivots, row, len(row))
        covered.update(free[m] for m in pivots)
        return [sym for sym in level if sym not in covered]

    def _check_associativity(self) -> None:
        codim = self._codim
        symbols = [sym for level in self.basis[1:] for sym in level]
        depths = [codim[sym] for sym in symbols]
        # a generator above codimension dim - 2 leaves no room for two
        # non-unit partners, so its condition is empty and it is not sought
        generators = [g for k in range(1, self.dim - 1) for g in self._level_generators(k)]
        is_generator = set(generators)
        rows = self._rows

        def lead(combo: Combo) -> dict[str, Combo] | None:
            """The row that holds ``combo * c`` for every ``c``: the row of ``t`` for
            ``combo = {t: 1}``, empty for an empty one, None when it must be expanded."""
            if len(combo) == 1:
                ((t, k),) = combo.items()
                return rows[t] if k == 1 else None
            return None if combo else _NO_TERMS

        def times(combo: Combo, sym: str) -> Combo:
            row = lead(combo)
            if row is not None:
                return row.get(sym, _NO_TERMS)
            acc: Combo = {}
            for s, c in combo.items():
                for out, k in rows[s].get(sym, _NO_TERMS).items():
                    acc[out] = acc.get(out, 0) + c * k
            return {s: c for s, c in acc.items() if c}

        def fail(*triple: str) -> None:
            a, b, c = sorted(triple, key=symbols.index)
            raise ValueError(f"structure constants are not associative at ({echo(a)}, {echo(b)}, {echo(c)})")

        earlier: set[str] = set()
        for g in generators:
            row_g = rows[g]
            lead_g = {x: lead(gx) for x, gx in row_g.items()}  # a missing gx: the empty row
            free = self.dim - codim[g]
            # non-unit symbols in basis order, hence by codimension, that are
            # not earlier generators and leave room for a third factor
            cut = bisect.bisect_left(depths, free)
            partners = [s for s in symbols[:cut] if s not in earlier] if earlier else symbols[:cut]
            depth = [codim[s] for s in partners] if earlier else depths[:cut]
            for ix, x in enumerate(partners):
                row_x = rows[x]
                # {g, x, x} with x no generator, or x = g, needs nothing: (gx)x = (gx)x
                if 2 * codim[x] <= free and x in is_generator and x != g:
                    if times(row_x.get(x, _NO_TERMS), g) != times(row_g.get(x, _NO_TERMS), x):
                        fail(g, x, x)
                gx_row = lead_g.get(x, _NO_TERMS)
                third = x != g
                x_generates = x in is_generator
                # the partners after x with codim x + codim y <= free
                for y in partners[ix + 1 : bisect.bisect_right(depth, free - codim[x], ix)]:
                    out_y = times(row_g[x], y) if gx_row is None else gx_row.get(y, _NO_TERMS)
                    gy_row = lead_g.get(y, _NO_TERMS)
                    if out_y != (times(row_g[y], x) if gy_row is None else gy_row.get(x, _NO_TERMS)):
                        fail(g, x, y)
                    if third and y != g and (x_generates or y in is_generator):
                        xy = row_x.get(y)
                        if out_y != (times(xy, g) if xy else _NO_TERMS):
                            fail(g, x, y)
            earlier.add(g)

    def _check_relations(self) -> None:
        """Products and degrees of representatives descend to classes.

        For each relation ``rho`` in codimension ``k`` and basis symbol ``s``
        in codimension ``j >= 1``, ``rho * s`` must lie in the relation lattice
        of codimension ``k + j`` (zero where that level has none), and each
        top-codimension relation must have degree 0 (Fulton, *Intersection
        Theory*, Ch. 8).  A ring without relations returns at once.  Otherwise
        each level's relations are one Hermite :class:`abgroup.Lattice`, so
        each product costs one triangular pass and no Smith form.  Only the
        Hermite basis rows of each level are multiplied, at most its rank of
        them, since they span the same lattice as the rows given; ``rho * s``
        is ``sum rho_a (a*s)`` over the nonzero ``rho_a``, read from ``s``'s
        row of the index.  When a basis row fails, so does a given row, and
        the error names that one.
        """
        if not self.relations:
            return
        for row in self.relations.get(self.dim, ()):
            if sum(c * w for c, w in zip(row, self.degree_functional)):
                raise ValueError(f"relation {echo(list(row))} in codim {self.dim} has nonzero degree")
        levels = range(min(self.relations), self.dim + 1)
        lattices = {n: Lattice(self.relations.get(n, ()), len(self.basis[n])) for n in levels}

        def times(rho: Sequence[int], by_s: list[Combo], column: dict[str, int]) -> list[int]:
            out = [0] * len(column)
            for c, combo in zip(rho, by_s):
                if c:
                    for sym, x in combo.items():
                        out[column[sym]] += c * x
            return out

        for k, given in self.relations.items():
            for j in range(1, self.dim - k + 1):
                target = lattices[k + j]
                column = {sym: n for n, sym in enumerate(self.basis[k + j])}
                for s in self.basis[j]:
                    row_s = self._rows[s]
                    by_s = [row_s.get(a, _NO_TERMS) for a in self.basis[k]]  # a*s for each a
                    if any(times(rho, by_s, column) not in target for rho in lattices[k].basis):
                        row = next(row for row in given if times(row, by_s, column) not in target)
                        raise ValueError(f"relation {echo(list(row))} in codim {k} times {echo(s)} is not a relation")

    # -- equality --------------------------------------------------------

    def products(self) -> tuple[tuple[str, str, Combo], ...]:
        """The canonical listing, which equality and the JSON document read: each nonzero
        product of two non-unit symbols once (unit products are fixed by the basis), as
        ``(a, b, combo)`` with ``a <= b``, sorted by the pair.  ``combo`` is the combination
        the row index stores, handed out read-only and with its terms in stored order, so
        building the listing copies and sorts no terms; dict equality ignores their order."""
        unit = self.unit
        # the pairs are distinct, so sorting the triples never compares two combinations
        return tuple(sorted(
            (a, b, combo)
            for a, row in self._rows.items() if a != unit
            for b, combo in row.items() if a <= b and b != unit
        ))

    def _key(self):
        """The compared fields other than the structure constants; the hash reads only these."""
        return (self.dim, self.basis, self.hyperplane, self.degree_functional, tuple(sorted(self.relations.items())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChowRingPresentation):
            return NotImplemented
        return self._key() == other._key() and self.products() == other.products()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"ChowRingPresentation({self.name!r}, dim={self.dim})"


class ChowClass(Value):
    """Integer combination of the basis symbols in one codimension."""

    __slots__ = ("ring", "codim", "coeffs")

    def __init__(self, ring: ChowRingPresentation, codim: int, coeffs: Sequence[int]) -> None:
        self._init(ring, index(codim), tuple(map(index, coeffs)))
        expected = len(self.ring.basis_at(self.codim))
        if len(self.coeffs) != expected:
            raise ValueError(
                f"coefficient vector has length {len(self.coeffs)}, codim {self.codim} needs {expected}"
            )

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "ChowClass") -> "ChowClass":
        if self.ring != other.ring or self.codim != other.codim:
            raise ValueError("classes live in different groups")
        return ChowClass(self.ring, self.codim, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "ChowClass":
        return ChowClass(self.ring, self.codim, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "ChowClass":
        return ChowClass(self.ring, self.codim, tuple(scalar * c for c in self.coeffs))


def mul(x: ChowClass, y: ChowClass) -> ChowClass:
    """Bilinear extension of the structure constants; codimensions add."""
    if x.ring != y.ring:
        raise ValueError("classes live over different ring presentations")
    ring = x.ring
    k = x.codim + y.codim
    if k > ring.dim:
        return ChowClass(ring, k, ())
    acc = dict.fromkeys(ring.basis[k], 0)  # in basis order, so its values are the coefficient vector
    right = [(cb, b) for cb, b in zip(y.coeffs, ring.basis[y.codim]) if cb]
    for ca, a in zip(x.coeffs, ring.basis[x.codim]):
        if ca:
            row_a = ring._rows[a]
            for cb, b in right:
                for sym, c in row_a.get(b, _NO_TERMS).items():
                    acc[sym] += ca * cb * c
    return ChowClass(ring, k, tuple(acc.values()))


def degree(x: ChowClass) -> int:
    """Apply the degree functional; defined only in the top codimension."""
    if x.codim != x.ring.dim:
        raise ValueError(
            f"degree needs codimension {x.ring.dim}, got {x.codim}"
        )
    return sum(c * w for c, w in zip(x.coeffs, x.ring.degree_functional))


# -- built-in presentations ------------------------------------------------


def point() -> ChowRingPresentation:
    return ChowRingPresentation("point", 0, [["1"]], {}, [], [1])


def projective_space(n: int) -> ChowRingPresentation:
    if (n := index(n)) < 0:
        raise ValueError("projective space needs nonnegative dimension")
    if n == 0:
        return ChowRingPresentation("P0", 0, [["1"]], {}, [], [1])
    syms = ["1", "h"] + [f"h^{k}" for k in range(2, n + 1)]
    basis = [[s] for s in syms]
    products: dict[tuple[str, str], Combo] = {}
    for a in range(1, n // 2 + 1):
        for b in range(a, n - a + 1):
            products[syms[a], syms[b]] = {syms[a + b]: 1}
    return ChowRingPresentation(f"P{n}", n, basis, products, [1], [1])


def quadric_surface() -> ChowRingPresentation:
    """The smooth quadric surface: two rulings e, f with e.f = pt, h = e + f."""
    products: dict[tuple[str, str], Combo] = {("e", "f"): {"pt": 1}}
    return ChowRingPresentation(
        "quadric_surface", 2, [["1"], ["e", "f"], ["pt"]], products, [1, 1], [1]
    )


def product_presentation(r1: ChowRingPresentation, r2: ChowRingPresentation) -> ChowRingPresentation:
    """Tensor-product presentation with componentwise structure constants."""
    if r1.relations or r2.relations:
        raise ValueError("product presentations need torsion-free factors")
    dim = r1.dim + r2.dim

    # each basis pair's tensor symbol, named once
    pairs_at: dict[int, list[tuple[str, str]]] = {}
    tensor: dict[tuple[str, str], str] = {}
    basis: list[list[str]] = []
    for k in range(dim + 1):
        level: list[tuple[str, str]] = []
        for k1 in range(max(0, k - r2.dim), min(k, r1.dim) + 1):
            for a in r1.basis_at(k1):
                for b in r2.basis_at(k - k1):
                    level.append((a, b))
                    tensor[a, b] = f"{a}|{b}"
        pairs_at[k] = level
        basis.append([tensor[pair] for pair in level])

    # non-unit pairs in basis order, hence by codimension; the unit row is
    # filled in by the constructor
    pairs = [(k, a, b, tensor[a, b]) for k, level in pairs_at.items() for a, b in level][1:]
    products: dict[tuple[str, str], Combo] = {}
    for n, (k1, a1, b1, ab1) in enumerate(pairs):
        left_row, right_row = r1._rows[a1], r2._rows[b1]
        for k2, a2, b2, ab2 in pairs[n:]:
            if k1 + k2 > dim:
                break
            left, right = left_row.get(a2), right_row.get(b2)
            if left and right:
                products[ab1, ab2] = {
                    tensor[sa, sb]: ca * cb for sa, ca in left.items() for sb, cb in right.items()
                }

    hyper: list[int] = []
    for a, b in pairs_at.get(1, []):
        if a == r1.unit:
            hyper.append(r2.hyperplane[r2.basis_at(1).index(b)])
        else:
            hyper.append(r1.hyperplane[r1.basis_at(1).index(a)])
    deg = [
        r1.degree_functional[r1.basis_at(r1.dim).index(a)]
        * r2.degree_functional[r2.basis_at(r2.dim).index(b)]
        for a, b in pairs_at[dim]
    ]
    name = f"product({r1.name},{r2.name})"
    return ChowRingPresentation(name, dim, basis, products, hyper, deg)


def check_basis_size(size: int, name: str) -> None:
    """Reject a ring of ``size`` basis symbols above :data:`MAX_RING_BASIS`."""
    if size > MAX_RING_BASIS:
        raise ValueError(f"ring {echo(name)} has {size} basis symbols; the limit is {MAX_RING_BASIS}")


def _parse_builtin(name: str) -> tuple[int, Callable[[], ChowRingPresentation]]:
    """The basis size a built-in name implies, and a function that builds it; nothing is built.

    One pass over ``name`` files each comma under its parenthesis depth, so a
    ``product(<left>,<right>)`` splits at the first comma of its body at the
    body's own depth without rescanning ``<left>``; spans are index ranges
    and only error messages copy text.  No built-in name spans lines.
    """
    if "\n" in name.strip():
        raise ValueError(f"unknown built-in presentation {echo(name)}")
    commas: dict[int, list[int]] = {}
    depth = 0
    for pos, ch in enumerate(name):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == ",":
            commas.setdefault(depth, []).append(pos)

    def parse(lo: int, hi: int, depth: int) -> tuple[int, Callable[[], ChowRingPresentation]]:
        start, end = lo, hi
        while start < end and name[start].isspace():
            start += 1
        while end > start and name[end - 1].isspace():
            end -= 1
        if end - start <= len("quadric_surface"):
            word = name[start:end]
            if word == "point":
                return 1, point
            if word in ("quadric", "quadric_surface"):
                return 4, quadric_surface
        m = _PROJECTIVE.fullmatch(name, start, end)
        if m:
            if len(m.group(1)) > MAX_RING_BASIS:  # far past the limit, and perhaps past what int() reads
                raise ValueError(f"P<n> with a {len(m.group(1))}-digit n has over {MAX_RING_BASIS} basis symbols")
            n = int(m.group(1))
            return n + 1, lambda: projective_space(n)
        # "product(", a body of at least one character, ")"
        body, stop = start + len("product("), end - 1
        if stop > body and name.startswith("product(", start) and name[stop] == ")":
            at_depth = commas.get(depth + 1, [])
            n = bisect.bisect_left(at_depth, body)
            if n == len(at_depth) or at_depth[n] >= stop:
                raise ValueError(f"cannot split product arguments in {echo(name[body:stop])}")
            comma = at_depth[n]
            left_size, left = parse(body, comma, depth + 1)
            right_size, right = parse(comma + 1, stop, depth + 1)
            return left_size * right_size, lambda: product_presentation(left(), right())
        raise ValueError(f"unknown built-in presentation {echo(name[lo:hi])}")

    return parse(0, len(name), 0)


def builtin(name: str) -> ChowRingPresentation:
    """Look up a built-in presentation by name.

    Accepts ``point``, ``P<n>`` (projective space), ``quadric_surface`` (or
    ``quadric``) and ``product(<name>,<name>)``.  The basis size the name
    implies is checked against :data:`MAX_RING_BASIS` before anything is built.
    """
    try:
        size, build = _parse_builtin(name)
        check_basis_size(size, name.strip())
        return build()
    except RecursionError:  # products of points nest without growing the basis
        raise ValueError("built-in presentation nested too deeply") from None
