"""Independent oracles for every result the benchmark checks.

None of them runs the code path under test.  Invariant factors come from
determinantal divisors or from sympy; lattice answers are known from how the
inputs were built; cone products, class groups and ring degrees come from a
closed-form model of the Chow ring of a product of projective spaces; the
catalog output is compared with the golden file byte for byte.

sympy runs in a child process (``python3 bench/oracles.py`` serves Smith
diagonals, one JSON matrix per line), so that its tens of megabytes stay out
of the process whose peak resident set the benchmark reports.
"""

from __future__ import annotations

import atexit
import importlib.util
import json
import re
import subprocess
import sys
from itertools import combinations, product
from math import factorial, gcd, prod

HAVE_SYMPY = importlib.util.find_spec("sympy") is not None  # optional: used where it imports


# -- integer vectors -------------------------------------------------------


def vec_mat(v, rows):
    """Row vector ``v`` times the matrix whose rows are ``rows``."""
    width = len(rows[0]) if rows else 0
    out = [0] * width
    for c, row in zip(v, rows):
        if c:
            for j, x in enumerate(row):
                out[j] += c * x
    return out


def mat_mul(a, b):
    return [vec_mat(row, b) for row in a]


# -- Smith form invariants ---------------------------------------------------


def determinantal_invariants(matrix, det):
    """Invariant factors as quotients of determinantal divisors.

    ``d_k`` is the gcd of all k x k minors; the k-th invariant factor is
    ``d_k / d_(k-1)``, and zero past the rank.  ``det`` computes one minor.
    """
    m = len(matrix)
    n = len(matrix[0]) if matrix else 0
    size = min(m, n)
    factors = []
    prev = 1
    for k in range(1, size + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = gcd(g, det([[matrix[i][j] for j in cols] for i in rows]))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors + [0] * (size - len(factors))


class SympyProcess:
    """Smith diagonals from sympy in a child process, started on first use."""

    def __init__(self):
        self._proc = None

    def __call__(self, matrix):
        if self._proc is None:
            self._proc = subprocess.Popen(
                [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
            )
        self._proc.stdin.write(json.dumps(matrix) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the sympy process ended without an answer")
        return json.loads(line)

    def close(self):
        """End the child and wait for it."""
        if self._proc is not None:
            self._proc.stdin.close()
            self._proc.wait()
            self._proc.stdout.close()
            self._proc = None


_sympy = SympyProcess()
close = _sympy.close  # ends the sympy process, if one was started
atexit.register(close)


def sympy_invariants(matrix):
    """Smith diagonal computed by sympy, or ``None`` when sympy is missing."""
    if not HAVE_SYMPY or not matrix or not matrix[0]:
        return None
    return _sympy(matrix)


def _serve_sympy():
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    for line in sys.stdin:
        s = smith_normal_form(Matrix(json.loads(line)), domain=ZZ)
        print(json.dumps([abs(int(s[i, i])) for i in range(min(s.shape))]), flush=True)


def check_smith_diagonal(matrix, diagonal, det, known=None):
    """Problem text if ``diagonal`` is not the Smith diagonal of ``matrix``.

    ``known`` is the diagonal fixed by construction, when there is one.
    Matrices up to 6 x 6 are also checked against determinantal divisors.
    """
    got = [int(x) for x in diagonal]
    if known is not None and got != list(known):
        return f"diagonal {got} differs from the constructed {list(known)}"
    if matrix and max(len(matrix), len(matrix[0])) <= 6:
        want = determinantal_invariants(matrix, det)
        if got != want:
            return f"diagonal {got} differs from determinantal divisors {want}"
    want = sympy_invariants(matrix)
    if want is not None and got != want:
        return f"diagonal {got} differs from sympy {want}"
    return None


def check_witness(generators, target, witness, inside):
    """Problem text unless ``witness`` answers membership of ``target`` correctly."""
    if not inside:
        return None if witness is None else "found a witness for a target outside the lattice"
    if witness is None:
        return "no witness for a target inside the lattice"
    if vec_mat(witness, generators) != list(target):
        return "witness does not multiply back to the target"
    return None


# -- closed-form Chow rings of products of projective spaces -----------------

_QUADRIC = {"1": (0, 0), "e": (1, 0), "f": (0, 1), "pt": (1, 1)}


def _split_top(body):
    depth = 0
    for pos, ch in enumerate(body):
        depth += ch == "("
        depth -= ch == ")"
        if ch == "," and depth == 0:
            return body[:pos], body[pos + 1 :]
    raise ValueError(f"cannot split {body!r}")


def _leaves(name):
    s = name.strip()
    if s in ("quadric", "quadric_surface"):
        return [("Q", 1, 1)]
    m = re.fullmatch(r"P(\d+)", s)
    if m:
        return [("P", int(m.group(1)))]
    m = re.fullmatch(r"product\((.+)\)", s)
    if m:
        left, right = _split_top(m.group(1))
        return _leaves(left) + _leaves(right)
    raise ValueError(f"no closed form for {name!r}")


class ProjectiveProduct:
    """``Z[x_1..x_m] / (x_i^(n_i+1))``: the Chow ring of a product of
    projective spaces (the quadric surface is ``P1 x P1``).

    The hyperplane class is ``x_1 + ... + x_m`` and the degree of a
    zero-cycle is its coefficient on the top monomial.  Classes are dicts
    from exponent tuples to integers.
    """

    def __init__(self, name):
        self.leaves = _leaves(name)
        self.dims = tuple(d for leaf in self.leaves for d in leaf[1:])
        self.dim = sum(self.dims)
        self.h = {tuple(int(i == j) for i in range(len(self.dims))): 1 for j in range(len(self.dims))}

    def monomials(self, k):
        return [e for e in product(*(range(d + 1) for d in self.dims)) if sum(e) == k]

    def rank(self, k):
        return len(self.monomials(k)) if 0 <= k <= self.dim else 0

    def segre_degree(self):
        """Degree of the hyperplane class to the top power."""
        return factorial(self.dim) // prod(factorial(d) for d in self.dims)

    def exponents(self, symbol):
        parts = symbol.split("|")
        if len(parts) != len(self.leaves):
            raise ValueError(f"symbol {symbol!r} does not match {len(self.leaves)} factors")
        out = []
        for leaf, part in zip(self.leaves, parts):
            if leaf[0] == "Q":
                out.extend(_QUADRIC[part])
            elif part == "1":
                out.append(0)
            elif part == "h":
                out.append(1)
            else:
                out.append(int(part.removeprefix("h^")))
        return tuple(out)

    def mul(self, a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                if all(x <= d for x, d in zip(e, self.dims)):
                    out[e] = out.get(e, 0) + ca * cb
        return {e: c for e, c in out.items() if c}

    def degree(self, a):
        return a.get(self.dims, 0)

    def poly(self, symbols, coeffs):
        out = {}
        for sym, c in zip(symbols, coeffs):
            if c:
                out[self.exponents(sym)] = c
        return out

    def vector(self, symbols, poly):
        return [poly.get(self.exponents(sym), 0) for sym in symbols]


# -- the cone model ------------------------------------------------------


def vertex_allowed(d, r, p):
    """Whether an ``r``-cycle at vertex bound ``p`` may meet the vertex."""
    return r > 0 and r - d + p >= 0


def payload_codim(n, r, p):
    return n - (r - 1) if vertex_allowed(n + 1, r, p) else n - r


def expected_product(model, a, b):
    """The three-case product of classes ``(r, p, poly)``; ``None`` if undefined."""
    (r, p, x), (s, q, y) = a, b
    d = model.dim + 1
    out_r = r + s - d
    if out_r < 0:
        return None
    ma, mb = vertex_allowed(d, r, p), vertex_allowed(d, s, q)
    payload = model.mul(x, y)
    if ma and mb:
        if out_r < 1:
            return None
    elif not ma and not mb:
        payload = model.mul(payload, model.h)
    elif vertex_allowed(d, out_r, p + q):
        payload = model.mul(payload, model.h)
    return out_r, p + q, payload


def expected_degree(model, a, b):
    if a[0] + b[0] != model.dim + 1:
        return None
    out = expected_product(model, a, b)
    return None if out is None else model.degree(out[2])


def expected_comparison(model, source_symbols, target_symbols, r, p_from, p_to):
    """Matrix of the comparison map, target rank x source rank."""
    d = model.dim + 1
    if vertex_allowed(d, r, p_from) == vertex_allowed(d, r, p_to):
        return [[int(i == j) for j in range(len(source_symbols))] for i in range(len(source_symbols))]
    columns = [
        model.vector(target_symbols, model.mul({model.exponents(sym): 1}, model.h))
        for sym in source_symbols
    ]
    return [[col[i] for col in columns] for i in range(len(target_symbols))]


def expected_pattern(d, r, p, is_zero):
    """Incidence of a cone class with each vertex stratum (``None`` = empty)."""
    meets = vertex_allowed(d, r, p) and not is_zero
    return {i: (0 if meets else None) for i in range(1, d + 1)}


# -- command-line output --------------------------------------------------


def check_cli_document(stdout, expect_exit):
    """Parse a machine report; return ``(doc, problem)``.

    Every report is JSON with ``"schema": 1``; a report for exit code 2
    carries an error message.
    """
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None, "stdout is not JSON"
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        return None, 'stdout lacks "schema": 1'
    if expect_exit == 2 and not isinstance(doc.get("error"), dict):
        return None, "exit 2 without a JSON error report"
    return doc, None


def check_golden(stdout, golden):
    return None if stdout == golden else "catalog output differs from the golden file"


if __name__ == "__main__":
    _serve_sympy()
