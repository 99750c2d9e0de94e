"""Exact integer linear algebra: two elimination kernels, one affine chart,
and saturated difference lattices.

Everything here is exact. Matrices are plain lists of lists of Python ints
(rows) and vectors are tuples of ints. Each kernel answers one kind of
question. The fraction-free Bareiss step, bareiss_reduce, answers rank,
determinant, solve and chart questions: determinants, ranks, linear
solves and chart coordinates are folds over it, and only the result of
solve_linear_system is rational. The subset walk of mu applies the same
Sylvester step inline to the rows it carries down the walk, so that no
row is reduced twice. The unimodular Hermite reduction,
hermite_reduce_rows, answers lattice questions: the integer kernel of a
matrix and from it the saturated basis of a span. It makes one pass per
column, combining each row below the pivot with it by one extended-gcd
step (_xgcd, the one extended gcd of the package). There is no third
elimination routine. AffineChart is the one chart concept: a base point
and a basis of an affine sublattice, with integer inverse data computed
once, shared by polytopes and their faces. A chart
whose basis is the identity is a translation, at any base: its
coordinates are x - base, read with no echelon.
integer_vector is the one parse of integer input (points, normals,
offsets, exponents, ranks, matrix rows) at the API edge, and
integer_value its single-integer form (bounds and indices).

The central object is the saturated difference lattice of a point
configuration: the set of integer vectors lying in the real span of the
pairwise differences. Saturation matters because the normalized volume of
a lattice simplex is measured against this lattice, not against the
(possibly finer-indexed) integer span of the differences. A set whose
differences have full rank exits after one Bareiss echelon with the
identity basis. A rank-deficient set, and the primitive steps from the
lowest vertex of a face (the chart of every Face, and of each 2-face in
polytope-only descent), are saturated by one step, _saturated_basis: the
Hermite form of the rows when its pivots or its 2 x 2 minors show that
they generate a saturated lattice, and the orthogonal lattice of their
orthogonal lattice otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from operator import add, index, mul, sub
from typing import Iterable, Sequence

IntMatrix = list[list[int]]
IntVector = tuple[int, ...]

_INT = frozenset((int,))


def integer_vector(values: Iterable[object]) -> IntVector:
    """values as a tuple of exact ints, the one integer parse at the API
    edge. Each entry goes through operator.index, so floats and strings
    raise ValueError instead of being rounded; bools raise too, so True is
    not read as 1. A tuple of plain ints, the common case, is returned after
    one scan of the entry types.
    """
    try:
        values = tuple(values)
        if _INT.issuperset(map(type, values)):
            return values
        if bool not in map(type, values):
            return tuple(map(index, values))
    except TypeError:
        pass
    raise ValueError(f"{values!r} is not a vector of integers")


def integer_value(value: object, name: str) -> int:
    """value as an exact int, parsed by integer_vector; the ValueError for a
    bool, float or string names the argument."""
    try:
        (value,) = integer_vector([value])
    except ValueError:
        raise ValueError(f"{name} {value!r} is not an integer") from None
    return value


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    """The inner product of two vectors of one length. Vectors of unequal
    lengths raise the ValueError that zip(u, v, strict=True) raises."""
    if len(u) != len(v):
        side = "shorter" if len(v) < len(u) else "longer"
        raise ValueError(f"zip() argument 2 is {side} than argument 1")
    return sum(map(mul, u, v))


EchelonRow = tuple[int, list[int]]


def bareiss_reduce(
    row: Sequence[int], echelon: Sequence[EchelonRow]
) -> EchelonRow | None:
    """Reduce an integer row against an echelon by fraction-free Bareiss
    elimination.

    echelon is a list of (pivot_col, row) pairs, each produced by this
    function from the pairs before it. Every step multiplies by the current
    pivot, cancels the pivot column and divides exactly by the previous
    pivot; by Sylvester's identity (Bareiss, Math. Comp. 1968) each entry
    of the result is a minor of the original rows, so all arithmetic stays
    in the integers. Returns (pivot_col, reduced row) with the first nonzero
    column as pivot, or None when the row lies in the span of the echelon.
    The pivot of the k-th pair is, up to the sign of the column order, the
    k x k minor of the first k original rows on the pivot columns.
    """
    v = list(row)
    prev = 1
    for col, e in echelon:
        pivot, f = e[col], v[col]
        if f or pivot != prev:
            v = [(pivot * x - f * y) // prev for x, y in zip(v, e)]
        prev = pivot
    for col, x in enumerate(v):
        if x:
            return col, v
    return None


def _echelon(rows: Sequence[Sequence[int]]) -> list[EchelonRow]:
    """Echelon of the rows that are independent of the rows before them."""
    echelon: list[EchelonRow] = []
    for row in rows:
        entry = bareiss_reduce(row, echelon)
        if entry is not None:
            echelon.append(entry)
    return echelon


def integer_determinant(a: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: the last Bareiss pivot, signed
    by the parity of the pivot column order. The 0x0 determinant is 1, which
    makes the volume of a single-point simplex equal to 1 and in turn the mu
    of a monomial equal to the monomial itself. Entries must be exact ints.
    """
    a = [integer_vector(row) for row in a]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    echelon = _echelon(a)
    if len(echelon) < n:
        return 0
    cols = [col for col, _ in echelon]
    inversions = sum(cols[i] > cols[j] for i in range(n) for j in range(i + 1, n))
    col, last = echelon[-1]
    return -last[col] if inversions % 2 else last[col]


def matrix_rank(a: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals: the length of the Bareiss echelon. Entries
    must be exact ints."""
    return len(_echelon([integer_vector(row) for row in a]))


def solve_linear_system(
    a: Sequence[Sequence[int]], b: Sequence[int]
) -> list[Fraction] | None:
    """Solve a square integer system a*x = b exactly.

    Returns None when the matrix is singular. The augmented rows are
    reduced by the integer Bareiss step, stopping at the first row whose
    coefficient part vanishes. The last pivot d is +-det(a), so by Cramer's
    rule d*x is integral and the back substitution runs on the integer
    numerators d*x; only the result is rational. Entries of a and b must
    be exact ints.
    """
    a, b = [integer_vector(row) for row in a], integer_vector(b)
    n = len(a)
    echelon: list[EchelonRow] = []
    for i in range(n):
        entry = bareiss_reduce([*a[i], b[i]], echelon)
        if entry is None or entry[0] == n:
            return None
        echelon.append(entry)
    if not echelon:
        return []
    last_col, last = echelon[-1]
    d = last[last_col]
    num = [0] * n
    for col, row in reversed(echelon):
        # unsolved numerators are still 0, and so is row at earlier pivots
        num[col] = (row[n] * d - sum(x * y for x, y in zip(row, num) if y)) // row[col]
    return [Fraction(x, d) for x in num]


def _xgcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, s, t) with s x + t y = g = gcd(x, y) >= 0, by the extended
    Euclidean algorithm."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while y:
        q, r = divmod(x, y)
        x, y = y, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (x, s0, t0) if x >= 0 else (-x, -s0, -t0)


def hermite_reduce_rows(basis: Sequence[Sequence[int]]) -> IntMatrix:
    """Row-style Hermite normal form of an integer matrix, the unimodular
    kernel of the package.

    One pass per column: the first remaining row with a nonzero entry a is
    the pivot row p, and every later row q with entry b is combined with it
    by the unimodular step (p, q) <- (s p + t q, (a/g) q - (b/g) p) from one
    extended gcd g = s a + t b, which leaves g in the pivot and 0 in q
    (H. Cohen, A Course in Computational Algebraic Number Theory, ch. 2);
    when a divides b it is q <- q - (b/a) p, the same step up to signs.
    Then the pivot is made positive and the rows above are reduced into
    [0, pivot). The rows keep generating the same lattice; rows of a
    dependent input that reduce to zero are dropped, so the result is a
    basis of that lattice. It has positive pivots, zeros below each pivot
    and entries above each pivot in [0, pivot), so equal lattices get equal
    bases; _orthogonal_lattice reads integer kernels off it.
    """
    rows = [list(r) for r in basis]
    if not rows:
        return []
    m, r = len(rows), 0
    for c in range(len(rows[0])):
        for i in range(r, m):
            if rows[i][c]:
                break
        else:
            continue
        p, rows[i] = rows[i], rows[r]
        for i in range(r + 1, m):
            q = rows[i]
            b = q[c]
            if not b:
                continue
            a = p[c]
            if b % a:
                g, s, t = _xgcd(a, b)
                a, b = a // g, b // g
                rows[i] = [a * y - b * x for x, y in zip(p, q)]
                p = [s * x + t * y for x, y in zip(p, q)]
            else:
                k = b // a
                rows[i] = [y - k * x for x, y in zip(p, q)]
        if p[c] < 0:
            p = [-x for x in p]
        rows[r] = p
        for i in range(r):
            k = rows[i][c] // p[c]
            if k:
                rows[i] = [x - k * y for x, y in zip(rows[i], p)]
        r += 1
        if r == m:
            break
    return rows[:r]


def _orthogonal_lattice(rows: Sequence[Sequence[int]], n: int) -> IntMatrix:
    """Hermite basis of the integer vectors in Z^n orthogonal to every row.

    Hermite-reducing [rows^T | I_n] gives H = U [rows^T | I_n] with U (the
    right block) unimodular; the rows of H whose left block vanishes are the
    rows of U that kill rows^T, and they form a basis of that kernel
    (H. Cohen, A Course in Computational Algebraic Number Theory, ch. 2).
    They are the bottom block of a Hermite normal form, so the basis is
    canonical.
    """
    k = len(rows)
    stacked = [[row[i] for row in rows] + [int(i == j) for j in range(n)] for i in range(n)]
    return [h[k:] for h in hermite_reduce_rows(stacked) if not any(h[:k])]


def _minor_gcd(a: Sequence[int], b: Sequence[int]) -> int:
    """The gcd of the 2 x 2 minors of two rows: the index of the lattice they
    generate in its saturation, when they are independent."""
    return gcd(*(a[i] * b[j] - a[j] * b[i] for i in range(len(a)) for j in range(i)))


def _saturated_basis(rows: Sequence[Sequence[int]], n: int) -> IntMatrix:
    """Hermite basis of Z^n meet the real span of rows, which may be
    dependent.

    The Hermite form H of the rows generates their lattice L, and the gcd of
    the maximal minors of H is the index of L in its saturation. The minor
    on the pivot columns is the pivot product, so a product of 1 shows that
    L is saturated and H is the answer; so does a minor gcd of 1 when H has
    two rows. Otherwise the saturation is the orthogonal lattice of the
    orthogonal lattice of the rows, which is in Hermite normal form too, so
    equal lattices get equal bases either way.
    """
    basis = hermite_reduce_rows(rows)
    pivots = prod(next(filter(None, row)) for row in basis)
    if pivots == 1 or len(basis) == 2 and _minor_gcd(*basis) == 1:
        return basis
    return _orthogonal_lattice(_orthogonal_lattice(rows, n), n)


def difference_lattice_basis(
    points: Sequence[Sequence[int]],
) -> tuple[int, IntMatrix]:
    """Rank and basis of the saturated difference lattice of a point set.

    The lattice is (real span of all pairwise differences) intersected with
    the ambient integer lattice. When the differences span Q^n it is Z^n,
    with the identity basis, so the differences are first run through one
    Bareiss echelon, which stops at rank n with that basis; only a
    rank-deficient set goes on to _saturated_basis.

    A single point (or an empty difference set) has rank 0 and empty basis.
    Coordinates must be exact ints.
    """
    points = [integer_vector(p) for p in points]
    if not points:
        raise ValueError("empty point list")
    base = points[0]
    n = len(base)
    if any(len(p) != n for p in points):
        raise ValueError("points of mixed length")
    diffs = [[x - y for x, y in zip(p, base)] for p in points[1:]]
    echelon: list[EchelonRow] = []
    for d in diffs:
        entry = bareiss_reduce(d, echelon)
        if entry is not None:
            echelon.append(entry)
            if len(echelon) == n:
                return n, tuple(map(tuple, identity_matrix(n)))
    basis = _saturated_basis(diffs, n)
    return len(basis), tuple(map(tuple, basis))


class AffineChart:
    """An affine lattice chart: the point chart_base + sum_i c_i chart_basis[i]
    has chart coordinates c.

    The basis rows must be linearly independent; they need not be saturated
    or in Hermite normal form. The inverse data is computed once: the Bareiss
    echelon of the rows [basis_i | e_i]. Reducing [x - base | 0] against it
    leaves zeros in the first n columns exactly when x - base is in the real
    span of the basis, and -d*c in the last r columns, where d is the last
    pivot (the basis minor on the pivot columns). A chart whose basis is the
    identity has no echelon: it is the translation by its base, whose
    coordinates are x - base.

    A chart is immutable, and so is every polytope and face built on one:
    assigning or deleting an attribute raises AttributeError. Construction,
    the lazy caches of a polytope, copy and pickle write through
    object.__setattr__.
    """

    __slots__ = ("chart_base", "chart_basis", "_echelon")

    def __init__(self, base: Sequence[int], basis: Sequence[Sequence[int]]):
        base = tuple(base)
        basis = tuple(tuple(b) for b in basis)
        n, r = len(base), len(basis)
        if any(len(b) != n for b in basis):
            raise ValueError("basis rows and base point have different lengths")
        echelon = None
        if r != n or not all(b[i] == 1 and b.count(0) == n - 1 for i, b in enumerate(basis)):
            echelon = _echelon(
                [list(b) + [int(i == k) for k in range(r)] for i, b in enumerate(basis)]
            )
            if any(col >= n for col, _ in echelon):
                raise ValueError("basis rows are dependent")
        object.__setattr__(self, "chart_base", base)
        object.__setattr__(self, "chart_basis", basis)
        object.__setattr__(self, "_echelon", echelon)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state: tuple[None, dict[str, object]]) -> None:
        """Restore the slots of a copied or unpickled chart, past the guard."""
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def to_chart(self, point: Sequence[int]) -> IntVector:
        """Chart coordinates of an ambient lattice point. Raises ValueError
        when the point is off the affine span or off the lattice that the
        basis generates."""
        n = len(self.chart_base)
        if len(point) != n:
            raise ValueError(f"point {tuple(point)} does not have length {n}")
        if self._echelon is None:
            return tuple(map(sub, point, self.chart_base))
        row = [x - b for x, b in zip(point, self.chart_base)] + [0] * len(self.chart_basis)
        entry = bareiss_reduce(row, self._echelon)
        if entry is None:
            return (0,) * len(self.chart_basis)
        col, reduced = entry
        if col < n:
            raise ValueError("vector outside the lattice span")
        last_col, last = self._echelon[-1]
        d = last[last_col]
        coords = []
        for x in reduced[n:]:
            c, rem = divmod(-x, d)
            if rem:
                raise ValueError("vector not in the lattice generated by the basis")
            coords.append(c)
        return tuple(coords)

    def from_chart(self, cpoint: Sequence[int]) -> IntVector:
        if self._echelon is None:
            return tuple(map(add, cpoint, self.chart_base))
        out = list(self.chart_base)
        for coeff, row in zip(cpoint, self.chart_basis):
            for i, x in enumerate(row):
                out[i] += coeff * x
        return tuple(out)


def lattice_coordinates(
    vector: Sequence[int], basis: Sequence[Sequence[int]]
) -> IntVector:
    """Coordinates of an integer vector with respect to a lattice basis
    (given as rows): the linear chart of the basis. Raises ValueError when
    the vector is outside the real span or off the lattice the basis
    generates; for a saturated basis only the first can happen. Entries
    must be exact ints.
    """
    vector, basis = integer_vector(vector), [integer_vector(b) for b in basis]
    return AffineChart((0,) * len(vector), basis).to_chart(vector)


def primitive_vector(v: Sequence[int]) -> IntVector:
    """Divide an integer vector by the gcd of its entries (zero stays zero).
    The entries are parsed by integer_vector, so floats, strings and bools
    raise ValueError."""
    return _primitive(integer_vector(v))


def _primitive(v: Sequence[int]) -> IntVector:
    """primitive_vector of a vector of ints, with no parse: the body for
    callers inside the package, whose vectors are built from ints. A vector
    whose gcd is 0 or 1 is returned as a tuple, with no division."""
    g = gcd(*v)
    return tuple(v) if g <= 1 else tuple(x // g for x in v)
