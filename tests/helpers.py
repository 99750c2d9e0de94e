"""Shared test utilities: an independent Hessian-determinant oracle for the
Monge-Ampere polynomial, slow reference routes for the integer kernels
(the Hermite form by the old Euclidean loop, and rational elimination),
the difference lattice and face charts, for mu, for mu's product split
(on Fraction coefficients), for both directions of
the hull, for faces and edges, for the edge ratio test (through edge faces, and by a lattice
point scan), for polynomial division, integer forms, the segment
classification, the GEC divisibility test and the Einstein identity,
random input generators, fixture supports, and a text comparison for long
outputs.

The oracle takes a completely different route from the library's simplex
expansion: it forms the logarithmic Hessian entries N_ij = p D_iD_j p -
(D_i p)(D_j p) with D_i = x_i d/dx_i and reduces the determinant against
powers of p. Agreement between the two is a strong correctness check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, gcd, lcm
from unittest.mock import patch

from toric_gec import (
    EinsteinResult,
    LatticePolytope,
    LaurentPolynomial,
    adjacent_polytope,
    difference_lattice_basis,
    faces,
    hull,
    integer_determinant,
    matrix_rank,
    monomial_normalize,
    mu,
    primitive_vector,
    solve_linear_system,
    unimodular_support,
)
from toric_gec import monge_ampere
from toric_gec.lattice import AffineChart, dot, identity_matrix

# family specs with a recorded shape or obstruction, shared by the family
# tests and the differential test of from_inequalities
ALL_SPECS = [
    "V:k=1",
    "V:k=2",
    "V:k=3",
    "S:m=1,k=1",
    "S:m=2,k=1",
    "S:m=2,k=2",
    "S:m=3,k=2",
    "X:m=1,k=0",
    "X:m=1,k=1",
    "X:m=2,k=1",
    "W:m=1",
    "W:m=2",
    "W:m=3",
    "NP1",
    "NP2",
    "P:n=1",
    "P:n=3",
    "Prod:P1^2",
    "Prod:P1^4",
]

FIGURE2_TRAPEZOID = [(-1, -1), (2, -1), (0, 1), (-1, 1)]
HEXAGON_VERTICES = [(0, -1), (1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0)]
HEXAGON_POINTS = HEXAGON_VERTICES + [(0, 0)]

TRAPEZOID_POINTS = [
    (-1, -1), (0, -1), (1, -1), (2, -1),
    (-1, 0), (0, 0), (1, 0),
    (-1, 1), (0, 1),
]


def assert_same_text(got: str, expected: str) -> None:
    """Equal texts, compared line by line first: on a mismatch pytest names
    the first differing line of two lists at once, where its diff of two
    long strings takes minutes."""
    assert got.splitlines() == expected.splitlines()
    assert got == expected


def log_derivative(p: LaurentPolynomial, i: int) -> LaurentPolynomial:
    """D_i p = x_i * dp/dx_i, which keeps Laurent exponents intact."""
    terms = {}
    for e, c in p.terms.items():
        if e[i]:
            terms[e] = c * e[i]
    return LaurentPolynomial(p.rank, terms)


def hessian_mu_oracle(p: LaurentPolynomial) -> LaurentPolynomial:
    """Monge-Ampere polynomial from the logarithmic Hessian determinant.

    Defined for full-rank supports of rank 1, 2 or 3: mu = N_11 for n = 1,
    mu = det(N)/p for n = 2, and for n = 3 the bordered determinant
    det [[p, D_j p], [D_i p, D_i D_j p]] = det(N)/p^(n-1), expanded by
    Leibniz's formula, all exact. Rank-deficient supports make the
    determinant vanish identically while the chart-based operator does not,
    so those inputs are rejected.
    """
    n = p.rank
    support_rank, _ = difference_lattice_basis(p.support())
    if support_rank != n:
        raise ValueError("oracle requires a full-rank support")
    d = [log_derivative(p, i) for i in range(n)]
    dd = [[log_derivative(d[j], i) for j in range(n)] for i in range(n)]
    if n == 3:
        bordered = [[p, *d]] + [[d[i], *dd[i]] for i in range(n)]
        det = LaurentPolynomial.zero(n)
        for perm in permutations(range(n + 1)):
            inversions = sum(perm[i] > perm[j] for i in range(n + 1) for j in range(i + 1, n + 1))
            term = LaurentPolynomial.constant(n, -1 if inversions % 2 else 1)
            for i, j in enumerate(perm):
                term = term * bordered[i][j]
            det = det + term
        return det
    big_n = [[p * dd[i][j] - d[i] * d[j] for j in range(n)] for i in range(n)]
    if n == 1:
        return big_n[0][0]
    if n == 2:
        det = big_n[0][0] * big_n[1][1] - big_n[0][1] * big_n[1][0]
        quot = slow_quotient(p, det)
        if quot is None:
            raise ValueError("Hessian determinant is not divisible by p")
        return quot
    raise ValueError("oracle implemented only for rank 1, 2 and 3")


def random_coefficient(rng: random.Random, positive: bool = True) -> Fraction:
    num = rng.randint(1, 9)
    den = rng.choice([1, 1, 1, 2, 3])
    c = Fraction(num, den)
    if not positive and rng.random() < 0.3:
        c = -c
    return c


def polynomial_on_support(
    rng: random.Random, support: list[tuple[int, ...]]
) -> LaurentPolynomial:
    """Random polynomial with a nonzero coefficient at every listed point."""
    rank = len(support[0])
    terms = {tuple(e): random_coefficient(rng) for e in support}
    return LaurentPolynomial(rank, terms)


def random_unimodular_matrix(rng: random.Random, n: int, steps: int = 6) -> list[list[int]]:
    """Random GL_n(Z) matrix built from elementary row operations."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if n == 1:
            continue
        k = rng.randint(-2, 2)
        for c in range(n):
            m[i][c] += k * m[j][c]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
    if rng.random() < 0.5 and n:
        m[0] = [-x for x in m[0]]
    return m


def random_cube_polynomial(
    rng: random.Random, rank: int, nterms: int, span: int = 2
) -> LaurentPolynomial:
    """Random polynomial with exponents drawn from a small box, nonzero."""
    nterms = min(nterms, (2 * span + 1) ** rank)
    exps = set()
    while len(exps) < nterms:
        exps.add(tuple(rng.randint(-span, span) for _ in range(rank)))
    terms = {e: random_coefficient(rng, positive=False) for e in exps}
    p = LaurentPolynomial(rank, terms)
    if p.is_zero():
        return random_cube_polynomial(rng, rank, nterms, span)
    return p


def random_product_polynomial(rng: random.Random, rank: int) -> LaurentPolynomial:
    """Product of binomial factors, so the support is automatically
    unimodular: these are torus translates of products of lines."""
    p = LaurentPolynomial.constant(rank, random_coefficient(rng))
    for i in range(rank):
        x = LaurentPolynomial.variable(rank, i)
        one = LaurentPolynomial.constant(rank, random_coefficient(rng))
        p = p * (x + one) ** rng.randint(1, 2)
    return p


def univariate_from_interval(coeffs: list[int]) -> LaurentPolynomial:
    return LaurentPolynomial(1, {(i,): Fraction(c) for i, c in enumerate(coeffs) if c})


def all_interval_polynomials(d: int, values: range):
    """Every univariate polynomial with support exactly [0, d] and interior
    coefficients from the value set (endpoints always nonzero)."""
    for combo in product(values, repeat=d + 1):
        if combo[0] == 0 or combo[-1] == 0:
            continue
        yield univariate_from_interval(list(combo))


def leibniz_determinant(a: list[list[int]]) -> int:
    """Determinant as the signed sum over all permutations."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def fraction_rref(rows: list[list[int]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals by Gauss-Jordan
    elimination: the nonzero rows and their pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def reference_rank(a: list[list[int]]) -> int:
    return len(fraction_rref(a)[1])


def reference_solve(a: list[list[int]], b: list[int]) -> list[Fraction] | None:
    """Solution of the square system a*x = b, or None when a is singular."""
    n = len(a)
    if reference_rank(a) < n:
        return None
    rows, _ = fraction_rref([list(row) + [x] for row, x in zip(a, b)])
    return [row[n] for row in rows]


def brute_force_mu(p: LaurentPolynomial) -> LaurentPolynomial:
    """mu by the Cauchy-Binet sum over every (r+1)-subset of the support,
    without pruning, each volume taken separately by integer_determinant."""
    support = p.support()
    r, basis = difference_lattice_basis(support)
    chart = AffineChart(support[0], basis)
    # chart differences from the first point of a subset are differences of
    # chart coordinates taken once per point
    coords = {e: chart.to_chart(e) for e in support}
    terms: dict[tuple[int, ...], Fraction] = {}
    for subset in combinations(support, r + 1):
        base = coords[subset[0]]
        vol = integer_determinant(
            [[a - b for a, b in zip(coords[e], base)] for e in subset[1:]]
        )
        if not vol:
            continue
        coeff = Fraction(vol * vol)
        for e in subset:
            coeff *= p.terms[e]
        key = tuple(map(sum, zip(*subset)))
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return LaurentPolynomial(p.rank, terms)


def unsplit(call, *args):
    """call(*args) with mu's test for a product in disjoint blocks of
    variables switched off, so that mu and every decision that reads its
    factors run on the whole support."""
    with patch.object(monge_ampere, "_blocks", lambda *args: None):
        return call(*args)


def unsplit_mu(p: LaurentPolynomial):
    """mu(p) by the subset walk on the whole support: the MuResult that mu
    returns with its test for a product in disjoint blocks of variables
    switched off."""
    return unsplit(mu, p)


def variable_blocks(p: LaurentPolynomial) -> list[list[int]] | None:
    """The finest blocks of varying coordinates that mu splits p into, or
    None when it finds no split."""
    support = p.support()
    return monge_ampere._blocks(support, p.terms, list(zip(*support)))


def fraction_splits_off(block, varying, support, terms, columns) -> bool:
    """The product split test of monge_ampere._splits_off on the Fraction
    coefficients themselves: whether p = c0^-1 f(x_B) g(x_rest), with f and
    g the fibres of p through e0 = support[0], by c(e) c0 = c(e on B, e0
    off B) c(e0 on B, e off B) at every support point."""
    rest = [i for i in varying if i not in block]
    inner, outer = (len(set(zip(*(columns[i] for i in part)))) for part in (block, rest))
    if inner * outer != len(support):
        return False
    e0 = support[0]
    c0 = terms[e0]
    inside = [i in block for i in range(len(e0))]
    for e in support:
        on = tuple(x if b else y for x, y, b in zip(e, e0, inside))
        off = tuple(y if b else x for x, y, b in zip(e, e0, inside))
        if terms[e] * c0 != terms[on] * terms[off]:
            return False
    return True


def fraction_blocks(p: LaurentPolynomial) -> list[list[int]] | None:
    """variable_blocks(p) with every split tested by fraction_splits_off on
    p's Fraction coefficients, in place of the integer products of
    monge_ampere._splits_off."""

    def splits_off(block, varying, support, _ints, columns):
        return fraction_splits_off(block, varying, support, p.terms, columns)

    with patch.object(monge_ampere, "_splits_off", splits_off):
        return variable_blocks(p)


def fraction_determinant(a: list[list[int]]) -> Fraction:
    """Determinant of a square matrix by Gaussian elimination over the
    rationals; the 0x0 determinant is 1."""
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((i for i in range(c, len(m)) if m[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def rational_coordinates(rows, v) -> list[Fraction] | None:
    """The c with sum_i c_i rows[i] = v, for linearly independent rows, by
    Gauss-Jordan elimination over the rationals, or None when v is off the
    real span of the rows."""
    r = len(rows)
    reduced, pivots = fraction_rref([[row[j] for row in rows] + [x] for j, x in enumerate(v)])
    if r in pivots:
        return None
    return [row[r] for row in reduced]


def reference_hermite_reduce_rows(basis) -> list[list[int]]:
    """Row-style Hermite normal form by a repeat-until Euclidean loop: below
    each pivot, every row is reduced by the pivot row until one nonzero
    entry is left, swapping the row with the smallest nonzero entry into
    the pivot after every round. Positive pivots, entries above each pivot
    in [0, pivot), zero rows dropped."""
    rows = [list(r) for r in basis]
    if not rows:
        return []
    cols = len(rows[0])
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        while True:
            nonzero = [i for i in range(r + 1, len(rows)) if rows[i][c] != 0]
            if not nonzero:
                break
            for i in nonzero:
                q = rows[i][c] // rows[r][c]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
            nonzero = [i for i in range(r + 1, len(rows)) if rows[i][c] != 0]
            if nonzero:
                i = min(nonzero, key=lambda i: abs(rows[i][c]))
                rows[r], rows[i] = rows[i], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return rows[:r]


def reference_orthogonal_lattice(rows, n: int) -> list[list[int]]:
    """Hermite basis of the integer vectors in Z^n orthogonal to every row:
    the rows of the reference Hermite form of [rows^T | I_n] whose left
    block vanishes, read off their right block."""
    k = len(rows)
    stacked = [[row[i] for row in rows] + [int(i == j) for j in range(n)] for i in range(n)]
    return [h[k:] for h in reference_hermite_reduce_rows(stacked) if not any(h[:k])]


def reference_saturated_basis(rows, n: int) -> list[list[int]]:
    """Hermite basis of Z^n meet the real span of rows by two reference
    Hermite reductions for every row set: the orthogonal lattice of the
    orthogonal lattice of the rows, with no exit for rows that already
    generate a saturated lattice."""
    return reference_orthogonal_lattice(reference_orthogonal_lattice(rows, n), n)


def reference_face_chart(parent: LatticePolytope, mask: int) -> AffineChart:
    """The chart of the face of parent whose vertex mask is mask, read off
    the tight normals: based at its lowest vertex, with the Hermite basis
    of the integer kernel of the normals of every parent facet containing
    the face, in parent chart coordinates, mapped through the parent basis
    and reduced again. It shares no step with the vertex route of Face and
    polytope._chart_polygons, and runs on the reference Hermite form."""
    tight = [u for (u, _), m in zip(parent.facets, parent.incidence) if m & mask == mask]
    kernel = reference_orthogonal_lattice(tight, parent.dim)
    columns = list(zip(*parent.chart_basis))
    basis = reference_hermite_reduce_rows([[dot(k, c) for c in columns] for k in kernel])
    return AffineChart(parent.vertices[(mask & -mask).bit_length() - 1], basis)


def hermite_difference_lattice_basis(points) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Rank and basis of the saturated difference lattice by two Hermite
    reductions for every point set, full-rank ones included."""
    base = points[0]
    diffs = [[x - y for x, y in zip(p, base)] for p in points[1:]]
    basis = reference_saturated_basis(diffs, len(base))
    return len(basis), tuple(map(tuple, basis))


def reference_facets(cpts: list[tuple[int, ...]], r: int) -> list[tuple[tuple[int, ...], int]]:
    """Facets (u, a) of the hull of a full-dimensional configuration in Z^r,
    sorted, from the cofactor normals of all r-point subsets. Each facet of
    the hull contains r affinely independent input points, so all facets are
    found; conversely a supporting hyperplane spanned by input points meets
    the hull in a facet, so nothing redundant is produced.
    """
    seen = set()
    for combo in combinations(range(len(cpts)), r):
        base = cpts[combo[0]]
        rows = [[cpts[j][i] - base[i] for i in range(r)] for j in combo[1:]]
        # normal via (r-1)x(r-1) cofactors: u_k = (-1)^k det(rows minus col k)
        u = []
        for k in range(r):
            minor = [[row[i] for i in range(r) if i != k] for row in rows]
            u.append((-1) ** k * integer_determinant(minor))
        if not any(u):
            continue
        u_t = primitive_vector(u)
        vals = [dot(u_t, p) for p in cpts]
        m = dot(u_t, base)
        if all(v >= m for v in vals):
            pass
        elif all(v <= m for v in vals):
            u_t = tuple(-x for x in u_t)
            m = -m
        else:
            continue
        seen.add((u_t, -m))
    return sorted(seen)


def reference_from_inequalities(rank: int, normals, offsets) -> LatticePolytope:
    """from_inequalities by solving every rank-subset of equalities, keeping
    the feasible solutions as vertices and certifying boundedness by LP
    optimality (see _require_bounded); the facets are pruned in input order
    as in the library."""
    normals = [tuple(u) for u in normals]
    offsets = list(offsets)
    # each vertex with the first basis of tight inequalities that produced it
    candidates = {}
    for combo in combinations(range(len(normals)), rank):
        sol = solve_linear_system(
            [list(normals[i]) for i in combo], [-offsets[i] for i in combo]
        )
        if sol is None:
            continue
        if any(
            sum(u[i] * sol[i] for i in range(rank)) < -a
            for u, a in zip(normals, offsets)
        ):
            continue
        if any(x.denominator != 1 for x in sol):
            raise ValueError("inequalities describe a polytope with non-lattice vertices")
        candidates.setdefault(tuple(int(x) for x in sol), combo)
    if not candidates:
        raise ValueError("inequalities have no feasible vertex")
    _require_bounded(normals, offsets, candidates)
    vertices = sorted(candidates)
    if _affine_rank(vertices) < rank:
        return hull(vertices)

    kept = []
    for u, a in zip(normals, offsets):
        active = [v for v in vertices if dot(u, v) == -a]
        if (u, a) not in kept and len(active) >= rank and _affine_rank(active) == rank - 1:
            kept.append((u, a))
    return LatticePolytope(rank, rank, vertices, (0,) * rank, identity_matrix(rank), kept)


def _affine_rank(points) -> int:
    return matrix_rank([[x - y for x, y in zip(p, points[0])] for p in points[1:]])


def reference_face_masks(p: LatticePolytope, d: int) -> list[tuple[tuple[int, ...], int]]:
    """(active facet set, vertex mask) of every d-face of p, sorted by active
    set, by a subset scan: every d-face with d < dim is the intersection of
    dim - d facets, so the incidence masks of all facet subsets of that size
    are intersected and the intersections whose vertices span a
    d-dimensional affine space are kept, each under every facet containing
    it. Exponential in the facet count."""
    nverts = len(p.vertices)
    if d == p.dim:
        return [((), (1 << nverts) - 1)]
    masks = p.incidence
    seen = {0}
    found = []
    for combo in combinations(range(len(masks)), p.dim - d):
        inter = (1 << nverts) - 1
        for j in combo:
            inter &= masks[j]
        if inter in seen:
            continue
        seen.add(inter)
        if _affine_rank([c for i, c in enumerate(p.cvertices) if inter >> i & 1]) == d:
            found.append((tuple(j for j, m in enumerate(masks) if m & inter == inter), inter))
    return sorted(found)


def reference_edges(h: LatticePolytope) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Pairs of vertices of h, in sorted order, that span an edge: the
    facet normals tight at both have rank dim - 1."""
    tight = [
        {i for i, (u, a) in enumerate(h.facets) if dot(u, c) == -a} for c in h.cvertices
    ]
    return [
        (h.vertices[i], h.vertices[j])
        for i, j in combinations(range(len(h.vertices)), 2)
        if matrix_rank([h.facets[k][0] for k in sorted(tight[i] & tight[j])]) == h.dim - 1
    ]


def reference_unimodular_support(points) -> tuple[bool, dict]:
    """The vertex condition of polytope.unimodular_support read off the hull
    of points over reference_edges, each vertex's steps sorted, keyed in
    sorted vertex order: the slow route for every rank, with no closed form
    for points and segments."""
    pts = {tuple(p) for p in points}
    h = hull(pts)
    edges = reference_edges(h)
    bases = {}
    for v in h.vertices:
        steps = sorted(
            primitive_vector([b - a for a, b in zip(v, w)])
            for e in edges
            if v in e
            for w in e
            if w != v
        )
        neighbors = [tuple(a + b for a, b in zip(v, s)) for s in steps]
        if len(steps) != h.dim or any(q not in pts for q in neighbors):
            return False, {}
        cv = h.to_chart(v)
        csteps = [[a - b for a, b in zip(h.to_chart(q), cv)] for q in neighbors]
        if abs(integer_determinant(csteps)) != 1:
            return False, {}
        bases[v] = tuple(steps)
    return True, bases


def _require_bounded(normals, offsets, vertices) -> None:
    """Raise unless {x : <u_i, x> >= -a_i} is bounded, given its vertices,
    each with a basis of inequalities tight at it.

    For c = +-e_j, a vertex v minimizing <c, x> over the vertices minimizes
    it over the whole system exactly when c lies in the cone of the normals
    tight at v (LP optimality), so the system is bounded exactly when this
    holds for all 2 * rank choices of c. By Caratheodory, c is in that cone
    when it is a nonnegative combination of some basis of tight normals.
    """
    rank = len(normals[0])
    for j in range(rank):
        for sign in (1, -1):
            c = [sign if i == j else 0 for i in range(rank)]
            v = min(vertices, key=lambda x: sign * x[j])
            tight = [i for i, (u, a) in enumerate(zip(normals, offsets)) if dot(u, v) == -a]
            bases = [vertices[v]] + [b for b in combinations(tight, rank) if b != vertices[v]]
            if not any(_in_cone(c, [normals[i] for i in b]) for b in bases):
                raise ValueError("inequalities describe an unbounded region")


def _in_cone(c, generators) -> bool:
    """c is a nonnegative combination of linearly independent generators."""
    columns = [list(row) for row in zip(*generators)]
    weights = solve_linear_system(columns, c)
    return weights is not None and all(w >= 0 for w in weights)


def random_hull_points(rng: random.Random, rank: int, flat: bool) -> list[tuple[int, ...]]:
    """A few random points in a small box of Z^rank, or, when flat, on a
    random lattice subspace of lower dimension through a random base."""
    if flat:
        gens = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rng.randint(1, rank - 1))]
        base = [rng.randint(-3, 3) for _ in range(rank)]
        return [
            tuple(b + sum(rng.randint(-2, 2) * g[i] for g in gens) for i, b in enumerate(base))
            for _ in range(rng.randint(2, rank + 3))
        ]
    return [
        tuple(rng.randint(-3, 3) for _ in range(rank))
        for _ in range(rng.randint(rank + 1, rank + 4))
    ]


def random_cube_cuts(rng: random.Random, rank: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Inequality data of the cube [-2, 2]^rank cut by one to three random
    half-spaces with normals in {-1, 0, 1}^rank, each keeping the origin.
    Some cuts leave non-lattice vertices, which from_inequalities rejects,
    and some leave a vertex on more than rank facets."""
    normals: list[tuple[int, ...]] = []
    offsets: list[int] = []
    for i in range(rank):
        for s in (1, -1):
            normals.append(tuple(s * (i == j) for j in range(rank)))
            offsets.append(2)
    for _ in range(rng.randint(1, 3)):
        u = tuple(rng.choice((-1, 0, 1)) for _ in range(rank))
        weight = sum(map(abs, u))
        if weight >= 2:
            normals.append(u)
            offsets.append(rng.randint(0, 2 * weight - 1))
    return normals, offsets


def random_lattice_polygon(rng: random.Random, rank: int):
    """Hull of a few random lattice points on a random lattice plane in
    Z^rank (the coordinate plane when rank is 2), retried until it is
    2-dimensional."""
    while True:
        if rank == 2:
            plane = [(1, 0), (0, 1)]
        else:
            plane = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(2)]
        base = tuple(rng.randint(-3, 3) for _ in range(rank))
        points = []
        for _ in range(rng.randint(3, 8)):
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            points.append(tuple(b + s * x + t * y for b, x, y in zip(base, *plane)))
        polygon = hull(points)
        if polygon.dim == 2:
            return polygon


def reference_edge_ratio(polygon) -> tuple[bool, list[dict]]:
    """The edge ratio test through full edge faces: every 1-face, its
    adjacent polytope, and the lattice lengths of both, each the number of
    its lattice points minus one."""
    records = []
    for edge in faces(polygon, 1):
        length = len(edge.lattice_points()) - 1
        adj_length = len(adjacent_polytope(polygon, edge)) - 1
        records.append(
            {
                "vertices": edge.vertices,
                "length": length,
                "adjacent_length": adj_length,
                "ratio": Fraction(adj_length, length),
            }
        )
    return len({rec["ratio"] for rec in records}) == 1, records


def scan_edge_ratio(polygon) -> tuple[bool, list[dict]]:
    """The edge ratio test by counting, over a box scan of the polygon's
    lattice points, the points at heights 0 and 1 over each edge's facet:
    l(E) and l(E') are those counts minus one."""
    coords = [polygon.to_chart(x) for x in polygon.lattice_points()]
    records = []
    for (u, a), mask in zip(polygon.facets, polygon.incidence):
        heights = [dot(u, c) + a for c in coords]
        length = heights.count(0) - 1
        adj_length = heights.count(1) - 1
        records.append(
            {
                "vertices": polygon.mask_vertices(mask),
                "length": length,
                "adjacent_length": adj_length,
                "ratio": Fraction(adj_length, length),
            }
        )
    return len({rec["ratio"] for rec in records}) == 1, records


def reference_hexagon_map(polygon):
    """standard_hexagon_map with t found by a box scan of the polygon's
    lattice points for its interior ones: (t, rows of N) with N(v - t)
    mapping the vertices onto the standard hexagon, or None."""
    if polygon.dim != 2 or polygon.rank != 2 or len(polygon.vertices) != 6:
        return None
    interior = [
        x for x in polygon.lattice_points() if all(dot(u, x) > -a for u, a in polygon.facets)
    ]
    if len(interior) != 1:
        return None
    t = interior[0]
    centered = sorted(tuple(a - b for a, b in zip(v, t)) for v in polygon.vertices)
    cset = set(centered)
    if any((-v[0], -v[1]) not in cset for v in centered):
        return None
    reps, seen = [], set()
    for v in centered:
        if v not in seen:
            reps.append(v)
            seen.update((v, (-v[0], -v[1])))
    if len(reps) != 3:
        return None
    for w1, w2, w3 in permutations(reps):
        for s1 in (1, -1):
            for s2 in (1, -1):
                a = (s1 * w1[0], s1 * w1[1])
                b = (s2 * w2[0], s2 * w2[1])
                if w3 not in ((a[0] + b[0], a[1] + b[1]), (-a[0] - b[0], -a[1] - b[1])):
                    continue
                det = a[0] * b[1] - a[1] * b[0]
                if abs(det) != 1:
                    continue
                n_rows = ((b[1] * det, -b[0] * det), (a[1] * det, -a[0] * det))
                image = {(dot(n_rows[0], v), dot(n_rows[1], v)) for v in centered}
                if image == set(HEXAGON_VERTICES):
                    return t, n_rows
    return None


def primitive_part(p: LaurentPolynomial) -> tuple[dict[tuple[int, ...], int], Fraction]:
    """p as scale * q, with q an integer polynomial whose coefficients have
    gcd 1, on p's own exponents: the reference for the coefficient half of
    laurent._integer_form, whose exponent half is monomial_normalize."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    ints = [c.numerator * (den // c.denominator) for c in p.terms.values()]
    content = gcd(*ints)
    return dict(zip(p.terms, (c // content for c in ints))), Fraction(content, den)


def reference_classify_1d(p: LaurentPolynomial):
    """classify_1d with every coefficient read through
    LaurentPolynomial.coefficient, the reference for the dict route."""
    if p.rank != 1:
        raise ValueError("classification applies to univariate polynomials")
    if p.is_zero():
        raise ValueError("the zero polynomial has no classification")
    exps = sorted(e[0] for e in p.terms)
    m, top = exps[0], exps[-1]
    if m == top:
        return True, (p.coefficient((m,)), m, None, 0)
    nu = top - m
    c_low = p.coefficient((m,))
    c_low1 = p.coefficient((m + 1,))
    c_top1 = p.coefficient((top - 1,))
    if c_low1 == 0 or c_top1 == 0:
        raise ValueError("out of hypothesis: support endpoints lack unimodular neighbors")
    xi = nu * c_low / c_low1
    c = p.coefficient((top,))
    for i in range(nu + 1):
        if p.coefficient((m + i,)) != c * comb(nu, i) * xi ** (nu - i):
            return False, None
    return True, (c, m, xi, nu)


def slow_quotient(g: LaurentPolynomial, f: LaurentPolynomial) -> LaurentPolynomial | None:
    """f / g when g divides f, else None, by long division over Fraction:
    both are stripped of their monomial factors, and each step takes the
    largest remaining term under graded lex by a scan of the remainder. The
    first such term that lt(g) does not divide settles non-divisibility.
    The slow reference for the library's packed integer division."""
    if f.is_zero():
        return LaurentPolynomial.zero(f.rank)
    gn, g_shift = monomial_normalize(g)
    fn, f_shift = monomial_normalize(f)

    def grlex(e):
        return (sum(e), e)

    lt_g = max(gn.terms, key=grlex)
    lc_g = gn.terms[lt_g]
    remainder = dict(fn.terms)
    quotient = {}
    while remainder:
        lt = max(remainder, key=grlex)
        diff = tuple(a - b for a, b in zip(lt, lt_g))
        if any(x < 0 for x in diff):
            return None
        factor = remainder[lt] / lc_g
        quotient[diff] = factor
        for e, c in gn.terms.items():
            shifted = tuple(a + b for a, b in zip(e, diff))
            s = remainder.get(shifted, Fraction(0)) - factor * c
            if s == 0:
                remainder.pop(shifted, None)
            else:
                remainder[shifted] = s
    shift = [a - b for a, b in zip(f_shift.exponent, g_shift.exponent)]
    return LaurentPolynomial(
        f.rank, {tuple(a + b for a, b in zip(e, shift)): c for e, c in quotient.items()}
    )


def slow_divides(g: LaurentPolynomial, f: LaurentPolynomial) -> bool:
    return slow_quotient(g, f) is not None


def reference_gec_holds(p: LaurentPolynomial) -> bool:
    """GEC by the single divisibility mu(p) | p^kappa*, with kappa* the
    total degree of mu(p) with its monomial factor stripped: the power is
    built in full and divided by slow_divides."""
    mu_p = mu(p).mu
    kappa_star = monomial_normalize(mu_p)[0].total_degree()
    return slow_divides(mu_p, p**kappa_star)


def reference_least_power(
    g: LaurentPolynomial, f: LaurentPolynomial, k_max: int
) -> int | None:
    """Least k <= k_max with g | f^k, by a linear search over explicit
    powers of f, each divided by slow_divides."""
    power = LaurentPolynomial.constant(f.rank, 1)
    for k in range(k_max + 1):
        if slow_divides(g, power):
            return k
        power = power * f
    return None


def reference_einstein(p: LaurentPolynomial, lam=None) -> EinsteinResult:
    """einstein_check by expanding both sides as Fraction polynomials: mu(p)
    against p^r without lambda, and with d = lambda - (r+1), mu(p) *
    p^max(d,0) against c chi^m * p^max(-d,0), the monomial read off the
    leading terms and the identity checked by comparing term dictionaries.
    The reference for the least-power route."""
    if isinstance(lam, (float, bool)):
        raise ValueError(f"lambda {lam!r} is not an exact rational")
    if p.is_zero():
        raise ValueError("the Einstein condition is undefined for the zero polynomial")
    if not unimodular_support(p.support())[0]:
        raise ValueError("support is not unimodular")
    result = mu(p)
    r = result.rank_r
    if lam is None:
        holds = result.mu == p**r
        return EinsteinResult(
            holds, None, r, Fraction(1) if holds else None, (0,) * p.rank if holds else None
        )
    lam_f = Fraction(lam)
    if lam_f.denominator != 1:
        raise ValueError("lambda must be an integer for the exact check")
    lam_i = int(lam_f)
    d = lam_i - (r + 1)
    lhs = result.mu * p ** max(d, 0)
    rhs_power = p ** max(-d, 0)
    (le, lc) = lhs.leading_term()
    (re, rc) = rhs_power.leading_term()
    scalar = lc / rc
    shift = tuple(a - b for a, b in zip(le, re))
    holds = lhs == rhs_power * LaurentPolynomial.monomial(shift, scalar)
    return EinsteinResult(
        holds, lam_i, r, scalar if holds else None, shift if holds else None
    )


def random_einstein_input(rng: random.Random, rank: int) -> LaurentPolynomial:
    """A nonzero polynomial of the given rank for the Einstein identity.
    Mostly c chi^m prod (x_i + a_i)^e_i over a random subset of the
    variables (possibly empty, which gives a monomial), with a signed
    rational scale c, a shift m in [-2, 2]^rank, signed rational a_i and
    exponents e_i in {1, 2} (1 in rank 3), usually all equal, since those
    products satisfy the identity at one lambda; otherwise a power of an
    affine form in every variable, or a random polynomial on a small
    support, which need not have unimodular support."""
    roll = rng.random()
    if roll < 0.25:
        return random_cube_polynomial(rng, rank, rng.randint(1, 4), span=1)
    if roll < 0.35:
        # a power of a generic affine form: a dilated simplex
        form = {(0,) * rank: random_coefficient(rng, positive=False)}
        for i in range(rank):
            form[tuple(int(j == i) for j in range(rank))] = random_coefficient(rng, positive=False)
        return LaurentPolynomial(rank, form) ** rng.randint(1, 2)
    shift = tuple(rng.randint(-2, 2) for _ in range(rank))
    p = LaurentPolynomial.monomial(shift, random_coefficient(rng, positive=False))
    # squares in three variables make the expanded reference slow
    top = 2 if rank < 3 else 1
    e = rng.randint(1, top)
    for i in range(rank):
        if rng.random() < 0.2:
            continue
        line = LaurentPolynomial.variable(rank, i) + random_coefficient(rng, positive=False)
        p = p * line ** (e if rng.random() < 0.9 else rng.randint(1, top))
    return p
