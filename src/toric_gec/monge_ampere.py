"""The algebraic Monge-Ampere operator mu on Laurent polynomials.

For p = sum_j c_j chi^(m_j) with support of affine rank r, the operator is
the Cauchy-Binet expansion

    mu(p) = sum_J (r! vol(conv {m_j : j in J}))^2 prod_{j in J} c_j chi^(m_j)

over all (r+1)-element subsets J of the support, with the normalized
volume measured in the saturated difference lattice M_p of the support.
Each surviving term sits at the exponent sum of its subset, so rank
deficiency costs nothing: no re-embedding is needed and a monomial maps to
itself (the empty determinant is 1). The sum runs on integers: the
coefficients are scaled once by the lcm L of their denominators, each
exponent is packed into one int code that sums without carries, and the
depth-first walk carries each subset's product, code sum and the later
points' rows already Bareiss-reduced against it, so a leaf costs one
scalar step. Since mu(L p) = L^(r+1) mu(p), every nonzero sum is decoded
to its integer term once at the end (_decode), and mu divides it by
L^(r+1) into a Fraction.

A product in disjoint blocks of variables is computed factor by factor.
Before the walk, a support of rank at least 2 is tested, with no product
of polynomials built, for the finest split p = c0^(1-k) chi^m f_1 ... f_k
into factors on disjoint blocks of its coordinates. When k >= 2, the
product law mu(f g) = mu(f) mu(g) f^(r_g) g^(r_f) runs the walk on each
factor alone, in the factor's own chart and rank r_i, and builds its
part mu(f_i) f_i^(r - r_i) on p's packed codes. The pass has two steps:
_structure reads the rank, the saturated basis and each factor's fibre
with its own rank and basis, and _split walks the fibres, so gec checks
unimodular support on the fibres in between. mu combines the parts in
one integer outer product. _mu_factors reads each factor's sums into
integer forms (laurent._integer_form) of the factor, of its mu and of
its part, with the true scales, and the degrees of mu(p) from the
parts', for the decisions of gec, which build no polynomial from the
walk to the verdict; a univariate p takes no walk there, its two forms
read off one pass over its sorted exponents (_univariate_forms). Only
splits in the given coordinates are found; a product after a GL_n(Z)
change of variables takes the walk on the whole support.
MuResult's rank and chart come from the whole support on either route,
so mu(p) does not depend on it.

The other exports are the structural companions of mu: the closed form for
factored univariate inputs, the predicted Newton polytope of mu(p) (same
facet normals as NP(p), offsets (n+1)a - 1) together with its vertex
formula, initial parts along cones, and the one- and two-ray adjunction
identities that descend mu to faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations
from math import gcd, lcm
from operator import and_, mul, sub
from typing import Iterable, Mapping, Sequence

from .lattice import (
    AffineChart,
    IntVector,
    _minor_gcd,
    difference_lattice_basis,
    integer_value,
    integer_vector,
    primitive_vector,
)
from .laurent import IntegerForm, LaurentPolynomial, Scalar, _coerce, _integer_form, _multiply
from .polytope import Facet, LatticePolytope, from_inequalities, hull

__all__ = [
    "MuResult",
    "mu",
    "mu_univariate_factored",
    "predicted_np_of_mu",
    "predicted_mu_vertices",
    "initial_part",
    "check_initial_factorization",
    "check_two_ray_factorization",
]


@dataclass(frozen=True)
class MuResult:
    """mu(p) together with the rank of the support and the chart (a basis of
    the saturated difference lattice) in which volumes were measured."""

    mu: LaurentPolynomial
    rank_r: int
    chart: tuple[IntVector, ...]


def mu(p: LaurentPolynomial) -> MuResult:
    """Cauchy-Binet evaluation of the Monge-Ampere operator.

    Each support point becomes the row (1, chart coordinates); the
    determinant of r+1 such rows is the normalized volume of their simplex.
    Subsets are enumerated depth-first over the lexicographically sorted
    support (see _walk). The sum runs on Python ints. The coefficients are
    scaled once by the lcm L of their denominators, and each node carries
    the product of its subset's scaled coefficients and the sum of its
    exponents. Exponents are packed into int codes: digit i is e_i - min_i
    in base (r+1) * (largest coordinate span) + 1, so a sum of r+1 codes
    never carries. Each nonzero sum is decoded once at the end, adding
    (r+1) * min_i back to digit i, and divided by L^(r+1), since
    mu(L p) = L^(r+1) mu(p).

    Before the walk, a support of rank at least 2 is tested for a product
    in disjoint blocks of its coordinates (see _blocks). When p splits,
    p = c0^(1-k) chi^m prod_B f_B with k >= 2 factors f_B, each in its own
    block of variables and of rank r_B, and the product law

        mu(prod_B f_B) = prod_B mu(f_B) f_B^(r - r_B)

    runs the walk on each factor alone: C(|f_B|, r_B + 1) subsets each
    instead of C(|p|, r + 1). Each factor's terms are packed on p's own
    digits, so the outer product of the factors' parts adds one code per
    factor with no collision; it is then divided by c0^((k-1)(r+1)) and
    shifted by (r+1) m on the coordinates that do not vary. Only splits in
    the given coordinates are found: a product after a GL_n(Z) change of
    variables takes the walk on the whole support. rank_r and chart always
    come from the whole support, so the result does not depend on the
    route.
    """
    if p.is_zero():
        raise ValueError("mu of the zero polynomial is undefined")
    structure = _structure(p)
    r, basis, radix, lows, _ = structure
    if r == 0:
        return MuResult(p, 0, ())
    factors = _split(p, structure)
    if len(factors) == 1:
        _, _, den, sums, _, _ = factors[0]
        scale = den ** (r + 1)
    else:
        # p = c0^(1-k) chi^m prod_B f_B, and mu(c0^(1-k) q) = c0^((1-k)(r+1)) mu(q)
        c0 = p.terms[factors[0][0][0]]
        t = (len(factors) - 1) * (r + 1)
        sums = {0: c0.denominator**t}
        scale = c0.numerator**t
        for _, _, den, _, part, _ in factors:
            sums = {k + q: v * w for k, v in sums.items() for q, w in part.items() if w}
            scale *= den ** (r + 1)
    terms = {e: Fraction(c, scale) for e, c in _decode(sums, radix, lows, r + 1).items()}
    return MuResult(LaurentPolynomial._from_clean(p.rank, terms), r, tuple(map(tuple, basis)))


# (the integer form (laurent._integer_form) of a factor f of rank r_f,
# r - r_f, the integer forms of mu(f) and of its part mu(f) f^(r - r_f))
MuFactor = tuple[IntegerForm, int, IntegerForm, IntegerForm]


def _mu_factors(
    p: LaurentPolynomial, structure: Structure
) -> tuple[int, list[MuFactor], int, int]:
    """mu(p) on integer forms, read off the finest split p = c chi^m f_1
    ... f_k of _blocks with no polynomial built: r; each factor's MuFactor,
    so that mu(p) = c^(r+1) chi^((r+1) m) prod_f mu(f) f^(r - r_f); and
    (kappa*, kappa bound), the total and the largest single-variable degree
    of mu(p)'s integer form: the sum of the parts' total degrees, and the
    largest of theirs, as each part varies on its own block. structure is
    _structure(p), which the caller may check before the walk. A p that
    does not split (always when r <= 1) is its own one factor and part; a
    univariate p of rank 1 takes _univariate_forms, with no walk."""
    r, _, radix, _, fibres = structure
    if r == 0:
        form = _integer_form(p.terms)
        return 0, [(form, 0, form, form)], 0, 0
    if p.rank == 1:
        f, g = _univariate_forms(fibres[0][0], p.terms)
        return 1, [(f, 0, g, g)], g[1], g[1]
    out, kappa_star, kappa_bound = [], 0, 0
    for points, r_f, den, sums, part, f_lows in _split(p, structure):
        g = h = _form(sums, den, radix, f_lows, r_f + 1)
        if r_f < r:
            h = _form(part, den, radix, f_lows, r + 1)
        kappa_star += h[1]
        kappa_bound = max(kappa_bound, *map(max, h[0]))
        out.append((_integer_form({e: p.terms[e] for e in points}), r - r_f, g, h))
    return r, out, kappa_star, kappa_bound


def _univariate_forms(
    support: Sequence[IntVector], terms: Mapping[IntVector, Fraction]
) -> tuple[IntegerForm, IntegerForm]:
    """The integer forms of p and of mu(p) for a univariate p with sorted
    support e_0 < ... < e_n, n >= 1, read in one pass with no walk. The
    chart is the exponent itself, so a pair's volume is e_j - e_i and

        mu(L p) = sum_{i<j} (e_j - e_i)^2 (L c_i) (L c_j) x^(e_i + e_j)

    on the coefficients scaled by the lcm L of their denominators, summed
    in the walk's pair order. The least key e_0 + e_1 has one pair, so
    mu(p) is never 0. Each form shifts by its least key, divides by its
    content, and scales by content / L for p and content / L^2 for mu(p),
    as laurent._integer_form of p and _form of the walk's sums do."""
    den = lcm(*(c.denominator for c in terms.values()))
    exponents = [e for (e,) in support]
    ints = [terms[e].numerator * (den // terms[e].denominator) for e in support]
    sums: dict[int, int] = {}
    for (a, ca), (b, cb) in combinations(zip(exponents, ints), 2):
        sums[a + b] = sums.get(a + b, 0) + (b - a) ** 2 * ca * cb

    def form(keys: list[int], values: list[int], scale: int) -> IntegerForm:
        low, content = min(keys), gcd(*values)
        q = {(e - low,): c // content for e, c in zip(keys, values)}
        return q, max(keys) - low, (low,), Fraction(content, scale)

    keys = [key for key, s in sums.items() if s]
    return form(exponents, ints, den), form(keys, [sums[key] for key in keys], den * den)


def _form(sums: dict[int, int], den: int, radix: int, lows: list[int], count: int) -> IntegerForm:
    """The integer form of the nonzero sums of count codes on lows
    (_decode) divided by den^count, the count factors of the lcm den of
    the denominators that a product of count scaled coefficients carries."""
    q, degree, shift, scale = _integer_form(_decode(sums, radix, lows, count))
    return q, degree, shift, scale / den**count


# (points, rank r_f, basis of their saturated difference lattice, the digit
# offsets of their codes)
Fibre = tuple[list[IntVector], int, tuple[IntVector, ...], list[int]]
# (r, basis, radix, lows, fibres) of a support: see _structure
Structure = tuple[int, tuple[IntVector, ...], int, list[int], list[Fibre]]
# (points, rank r_f, lcm L of the denominators, mu(L f) and L^(r+1) mu(f)
# f^(r - r_f) as sums on packed codes, the digit offsets of the codes)
Factor = tuple[list[IntVector], int, int, dict[int, int], dict[int, int], list[int]]


def _structure(p: LaurentPolynomial) -> Structure:
    """(r, basis, radix, lows, fibres) of a nonzero p, the structure step of
    mu's one pass over the support: the rank r of the support and the basis
    of its saturated difference lattice, the radix and the lows of its
    packed codes (see mu), and the fibre of each factor of the finest split
    of _blocks, or the whole support when p does not split; no fibres when
    r = 0. Fibre f is the set of support points that agree with e0 =
    support[0] off its block, with its rank r_f and its saturated basis,
    kept at its full exponents: it is coded with e0 in place of the lows
    off the block, so its digits there are 0. Nothing is walked, so a
    caller can check the fibres on their ranks and bases
    (gec._require_unimodular) before _split walks the same structure. A
    univariate p needs no difference_lattice_basis: two or more distinct
    int exponents have rank 1 and basis (1,)."""
    support = p.support()
    if p.rank == 1:
        r, basis = (1, ((1,),)) if len(support) > 1 else (0, ())
    else:
        r, basis = difference_lattice_basis(support)
    if r == 0:
        return 0, basis, 0, [], []
    columns = list(zip(*support))
    lows = [min(column) for column in columns]
    spans = [max(column) - low for column, low in zip(columns, lows)]
    radix = (r + 1) * max(spans) + 1
    blocks = _blocks(support, p.terms, columns) if r > 1 else None
    if blocks is None:
        return r, basis, radix, lows, [(support, r, basis, lows)]
    e0 = support[0]
    fibres = []
    for block in blocks:
        f_lows = list(e0)
        for i in block:
            f_lows[i] = lows[i]
        off = [i for i in range(len(e0)) if i not in block]
        fibre = [e for e in support if all(e[i] == e0[i] for i in off)]
        fibres.append((fibre, *difference_lattice_basis(fibre), f_lows))
    return r, basis, radix, lows, fibres


def _split(p: LaurentPolynomial, structure: Structure) -> list[Factor]:
    """The walk step of mu's one pass: the walk of each fibre of
    structure = _structure(p), for a support of rank r >= 1. The lcm L of
    a fibre's denominators scales its part mu(L f) (L f)^(r - r_f) =
    L^(r+1) mu(f) f^(r - r_f). Every code sum stays below the radix, so
    the parts multiply on p's codes with no carry."""
    r, _, radix, _, fibres = structure
    factors = []
    for fibre, r_f, f_basis, f_lows in fibres:
        den, rows = _rows(fibre, [p.terms[e] for e in fibre], f_basis, f_lows, radix)
        part = sums = _walk(rows)
        if r_f < r:
            factor = {code: c for c, code, _ in rows}
            for _ in range(r - r_f):
                part = _multiply(part, factor)
        factors.append((fibre, r_f, den, sums, part, f_lows))
    return factors


def _decode(
    sums: dict[int, int], radix: int, lows: Sequence[int], count: int
) -> dict[IntVector, int]:
    """The integer terms of the nonzero sums, with each key a sum of count
    codes on lows: exponent i is digit i plus count * lows[i]."""
    shifts = [count * low for low in lows]
    terms = {}
    for key, s in sums.items():
        if s:
            e = []
            for shift in shifts:
                key, digit = divmod(key, radix)
                e.append(digit + shift)
            terms[tuple(e)] = s
    return terms


# (scaled integer coefficient, packed exponent code, [1, *chart coordinates])
Row = tuple[int, int, list[int]]


def _rows(
    points: Sequence[IntVector],
    coefficients: Sequence[Fraction],
    basis: Sequence[IntVector],
    lows: Sequence[int],
    radix: int,
) -> tuple[int, list[Row]]:
    """The lcm L of the coefficients' denominators, and the walk's row
    (L c, code, [1, *chart coordinates]) of each point. The chart is
    based at points[0] on basis, the basis of the points' saturated
    difference lattice, which is the identity exactly when they span the
    ambient space: the coordinates are then the steps from points[0]. The
    code has digit i = e_i - lows[i] in base radix, digit 0 the lowest.
    A rank-1 chart takes the segment rule of polytope._vertex_condition:
    the coordinate of e on the primitive step b is (e_i - base_i) / b_i at
    the first nonzero entry b_i, with no AffineChart built."""
    base = points[0]
    if len(basis) == 1 < len(base):
        (b,) = basis
        i = next(j for j, x in enumerate(b) if x)
        step, start = b[i], base[i]

        def to_chart(e: IntVector) -> Iterable[int]:
            return ((e[i] - start) // step,)

    elif len(basis) < len(base):
        to_chart = AffineChart(base, basis).to_chart
    else:

        def to_chart(e: IntVector) -> Iterable[int]:
            return map(sub, e, base)

    den = lcm(*(c.denominator for c in coefficients))
    rows = []
    for e, c in zip(points, coefficients):
        code = 0
        for x, low in zip(reversed(e), reversed(lows)):
            code = code * radix + x - low
        rows.append((c.numerator * (den // c.denominator), code, [1, *to_chart(e)]))
    return den, rows


def _walk(rows: list[Row]) -> dict[int, int]:
    """The Cauchy-Binet sums of rows of width r+1, keyed by code sum:
    sum_J det(rows J)^2 prod_J c over the (r+1)-subsets J, with canceled
    sums left at 0.

    Each node of the walk carries the later rows that are still
    independent of its prefix, already reduced against the prefix's
    Bareiss echelon and cut to the columns that hold no pivot yet.
    Choosing a row e with first nonzero column col and pivot e[col] takes
    one fraction-free step on each later row v,

        w = (pivot * v - v[col] * e) // prev,

    with prev the pivot chosen before it (1 at the root), and drops col.
    By Sylvester's identity (Bareiss, Math. Comp. 1968) every entry is a
    minor of the original rows and the division is exact, so no row is
    reduced twice. A row that reduces to zero lies in the span of the
    prefix and is pruned with every subset through it. When two columns
    are left, the step on a later row (a, b) against e = (e0, e1) is one
    scalar, (e0 * b - e1 * a) // prev = +-det, the volume of the leaf's
    simplex, and its square is added without building a row.
    """
    sums: dict[int, int] = {}

    def walk(rows: list[Row], prev: int, coeff: int, code: int) -> None:
        width = len(rows[0][2])
        # the row at t needs width - 1 later rows to complete a subset
        for t in range(len(rows) - width + 1):
            ce, ke, e = rows[t]
            ce *= coeff
            ke += code
            if width == 2:
                e0, e1 = e
                for cv, kv, (a, b) in rows[t + 1 :]:
                    vol = (e0 * b - e1 * a) // prev
                    if vol:
                        key = ke + kv
                        sums[key] = sums.get(key, 0) + vol * vol * ce * cv
                continue
            col = 0
            while not e[col]:
                col += 1
            pivot = e[col]
            later = []
            for cv, kv, v in rows[t + 1 :]:
                f = v[col]
                w = [(pivot * a - f * b) // prev for a, b in zip(v, e)]
                del w[col]
                if any(w):
                    later.append((cv, kv, w))
            if len(later) >= width - 1:
                walk(later, pivot, ce, ke)

    walk(rows, 1, 1, 0)
    return sums


def _blocks(
    support: Sequence[IntVector],
    terms: Mapping[IntVector, Fraction],
    columns: Sequence[Sequence[int]],
) -> list[list[int]] | None:
    """The finest partition of the varying coordinates into blocks B with
    p = c0^(1-k) chi^m prod_B f_B, f_B in the variables of B alone, or
    None when p does not split.

    Fix the first term e0, with coefficient c0. A set B of coordinates
    splits off when the support is the product of its projections to B
    and to the other varying coordinates, and every term satisfies
    c(e) c0 = c(e on B, e0 off B) c(e0 on B, e off B): then p c0 is the
    product of the two fibres of p through e0. The sets that split off are
    the unions of the finest blocks, so the smallest one found is a finest
    block. Two coordinates in different blocks project the support onto a
    full grid, so the pairs that do not are joined first, and only unions
    of the joined parts, at most half of them at a time, are tested. Two
    coupled coordinates (a polygon that is not a product) leave after one
    pass, before any coefficient is read. Otherwise the coefficients are
    scaled once to the integers L c(e), with L the lcm of their
    denominators, so each test compares integer products: L^2 c(e) c0 =
    L^2 c(on) c(off) holds exactly when c(e) c0 = c(on) c(off) does.
    """
    n = len(support)
    sizes = [len(set(column)) for column in columns]
    varying = [i for i, size in enumerate(sizes) if size > 1]
    coupled = [
        (i, j)
        for i, j in combinations(varying, 2)
        if sizes[i] * sizes[j] > n or len(set(zip(columns[i], columns[j]))) < sizes[i] * sizes[j]
    ]
    if 2 * len(coupled) == len(varying) * (len(varying) - 1):
        return None
    label = {i: i for i in varying}
    for i, j in coupled:
        old, new = label[j], label[i]
        for v in varying:
            if label[v] == old:
                label[v] = new
    left = [tuple(i for i in varying if label[i] == part) for part in sorted(set(label.values()))]
    den = lcm(*(c.denominator for c in terms.values()))
    ints = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
    blocks = []
    while len(left) > 1:
        unions = (u for size in range(1, len(left) // 2 + 1) for u in combinations(left, size))
        chosen = next(
            (u for u in unions if _splits_off(sorted(chain(*u)), varying, support, ints, columns)),
            None,
        )
        if chosen is None:
            break
        blocks.append(sorted(chain(*chosen)))
        left = [part for part in left if part not in chosen]
    if not blocks:
        return None
    return blocks + [sorted(chain(*left))]


def _splits_off(
    block: Sequence[int],
    varying: Sequence[int],
    support: Sequence[IntVector],
    ints: Mapping[IntVector, int],
    columns: Sequence[Sequence[int]],
) -> bool:
    """Whether p = c0^-1 f(x_B) g(x_rest), with f and g the fibres of p
    through e0 = support[0] (see _blocks), on ints, the coefficients
    scaled to integers by one common factor."""
    rest = [i for i in varying if i not in block]
    inner, outer = (len(set(zip(*(columns[i] for i in part)))) for part in (block, rest))
    if inner * outer != len(support):
        return False
    e0 = support[0]
    c0 = ints[e0]
    inside = [i in block for i in range(len(e0))]
    for e in support:
        on = tuple(x if b else y for x, y, b in zip(e, e0, inside))
        off = tuple(y if b else x for x, y, b in zip(e, e0, inside))
        if ints[e] * c0 != ints[on] * ints[off]:
            return False
    return True


def mu_univariate_factored(
    c: Scalar, m: int, factors: Sequence[tuple[Scalar, int]]
) -> LaurentPolynomial:
    """mu of c * x^m * prod_k (x + xi_k)^(e_k) in closed form:

        c^2 x^(2m+1) sum_k e_k xi_k (x + xi_k)^(2 e_k - 2)
                          prod_{l != k} (x + xi_l)^(2 e_l).

    The roots -xi_k must be distinct and nonzero and every multiplicity
    positive; repeated or zero roots would silently break the formula, so
    they are rejected. c and the xi_k must be exact rationals and m and the
    e_k exact ints, so bools and floats raise ValueError.
    """
    c = _coerce(c)
    m = integer_value(m, "m")
    if c == 0:
        raise ValueError("zero leading coefficient")
    xis = [_coerce(xi) for xi, _ in factors]
    mults = [integer_value(e, "multiplicity") for _, e in factors]
    if any(xi == 0 for xi in xis):
        raise ValueError("zero root: fold x factors into the monomial part")
    if len(set(xis)) != len(xis):
        raise ValueError("repeated roots are not allowed")
    if any(e < 1 for e in mults):
        raise ValueError("multiplicities must be positive")
    x = LaurentPolynomial.variable(1, 0)
    linear = [x + LaurentPolynomial.constant(1, xi) for xi in xis]
    total = LaurentPolynomial.zero(1)
    for k, (xi, e) in enumerate(zip(xis, mults)):
        term = LaurentPolynomial.constant(1, e * xi) * linear[k] ** (2 * e - 2)
        for l, other in enumerate(linear):
            if l != k:
                term = term * other ** (2 * mults[l])
        total = total + term
    prefactor = LaurentPolynomial.monomial((2 * m + 1,), c * c)
    return prefactor * total


def predicted_np_of_mu(np_p: LatticePolytope) -> LatticePolytope:
    """Newton polytope predicted for mu(p) from NP(p) alone: the same inner
    facet normals with offsets (n+1)a - 1, where n is the dimension.

    The formula is translation-equivariant, matching the equivariance of mu
    under monomial multiplication, so no positivity of the offsets is
    assumed. Only full-dimensional input polytopes are meaningful here."""
    if np_p.dim != np_p.rank:
        raise ValueError("prediction requires a full-dimensional Newton polytope")
    n = np_p.dim
    normals = [u for u, _ in np_p.facets]
    offsets = [(n + 1) * a - 1 for _, a in np_p.facets]
    return from_inequalities(np_p.rank, normals, offsets)


def predicted_mu_vertices(
    np_p: LatticePolytope, vertex_bases: dict[IntVector, tuple[IntVector, ...]]
) -> list[IntVector]:
    """Vertices predicted for NP(mu(p)) under unimodular support: the vertex
    of the prediction over a vertex v of NP(p) is (n+1)v + sum of the
    primitive edge steps at v. vertex_bases comes from unimodular_support."""
    if np_p.dim != np_p.rank:
        raise ValueError("prediction requires a full-dimensional Newton polytope")
    n = np_p.dim
    out = []
    for v in np_p.vertices:
        steps = vertex_bases[v]
        w = [(n + 1) * x for x in v]
        for s in steps:
            w = [a + b for a, b in zip(w, s)]
        out.append(tuple(w))
    return sorted(out)


def initial_part(
    p: LaurentPolynomial, sigma: Iterable[Sequence[int]]
) -> LaurentPolynomial:
    """Terms of p sitting on the face of NP(p) that the cone sigma selects:
    the support points where every ray of sigma attains its minimum, the
    rays taken in turn as polytope.min_weight_subset takes them. sigma is
    an iterable of rays; a single ray is passed as a one-element list. Each
    ray is parsed once and must be a vector of exact ints of length p.rank,
    or ValueError is raised; p's exponents are valid already, so the terms
    are picked off them directly, in p's term order."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no initial part")
    rays = [integer_vector(u) for u in sigma]
    for u in rays:
        if len(u) != p.rank:
            raise ValueError(f"ray {u} does not have length {p.rank}, the rank of p")
    keep = list(p.terms)
    for u in rays:
        heights = [sum(map(mul, u, e)) for e in keep]
        least = min(heights)
        keep = [e for e, h in zip(keep, heights) if h == least]
    return LaurentPolynomial._from_clean(p.rank, {e: p.terms[e] for e in keep})


def _facet_index(np_p: LatticePolytope, tau: Sequence[int]) -> int:
    u = primitive_vector(tau)
    if not any(u):
        raise ValueError("zero vector is not a facet normal")
    for i, (w, _) in enumerate(np_p.facets):
        if w == u:
            return i
    raise ValueError(f"{tuple(tau)} is not an inner facet normal of the Newton polytope")


def _adjunction(
    p: LaurentPolynomial, taus: Sequence[Sequence[int]]
) -> tuple[LaurentPolynomial, LaurentPolynomial, bool]:
    """Both sides of the adjunction identity along the cone sigma spanned by
    the facet normals taus of NP(p),

        init_sigma(mu(p)) = mu(init_sigma(p)) * prod_i p|_F'(i),

    with F'(i) the lattice points at height one over facet i that lie on
    every other facet of taus, and their equality. Two facets must meet in a
    face of codimension 2 with normals that extend to a lattice basis.
    Each p|_F'(i) is read off p's own terms (_strips). NP(p) is
    full-dimensional, so its chart is the ambient lattice (hull's zero
    base), and its facets apply to exponents directly."""
    np_p = hull(p.support())
    if np_p.dim != np_p.rank:
        raise ValueError("adjunction check requires a full-dimensional Newton polytope")
    indices = [_facet_index(np_p, tau) for tau in taus]
    if len(set(indices)) < len(indices):
        raise ValueError("the two rays name the same facet")
    if len(indices) > 1:
        # the facets span a cone of the normal fan exactly when their common
        # vertices span a face of codimension len(indices)
        common = np_p.mask_vertices(reduce(and_, (np_p.incidence[i] for i in indices)))
        if not common or difference_lattice_basis(common)[0] != np_p.dim - len(indices):
            raise ValueError(
                f"facets {tuple(map(tuple, taus))} do not meet in a face of codimension {len(indices)}"
            )
    normals = [np_p.facets[i][0] for i in indices]
    if len(normals) == 2 and _minor_gcd(*normals) != 1:
        raise ValueError(f"facet normals {tuple(map(tuple, taus))} do not extend to a lattice basis")
    lhs = initial_part(mu(p).mu, normals)
    rhs = mu(initial_part(p, normals)).mu
    for strip in _strips(p, [np_p.facets[i] for i in indices]):
        rhs = rhs * strip
    return lhs, rhs, lhs == rhs


def _strips(p: LaurentPolynomial, facets: Sequence[Facet]) -> list[LaurentPolynomial]:
    """p|_F'(i) for each facet (u_i, a_i) of a full-dimensional NP(p) in
    facets: the terms of p at height <u_i, e> + a_i = 1 over facet i and on
    every other facet of the list, in p's term order. supp p lies in NP(p),
    so this is p restricted to NP(p).adjacent_points(i, others), read off
    p's terms in one pass with no lattice point of NP(p) scanned."""
    strips: list[dict[IntVector, Fraction]] = [{} for _ in facets]
    for e, c in p.terms.items():
        heights = [sum(map(mul, u, e)) + a for u, a in facets]
        # on strip k, heights[k] is 1 and every other height is 0
        if heights.count(0) == len(heights) - 1 and 1 in heights:
            strips[heights.index(1)][e] = c
    return [LaurentPolynomial._from_clean(p.rank, strip) for strip in strips]


def check_initial_factorization(
    p: LaurentPolynomial, tau: Sequence[int]
) -> tuple[LaurentPolynomial, LaurentPolynomial, bool]:
    """Facet adjunction: for a facet normal tau of NP(p),

        init_tau(mu(p)) = mu(init_tau(p)) * p|_F'

    where F' is the adjacent polytope of the facet (the lattice points of
    NP(p) at height one above it). Both sides are computed independently
    and returned along with their equality. p|_F' is read off the terms of
    p at height one, with no lattice point of NP(p) scanned: it equals p
    restricted to NP(p).adjacent_points of the facet (see _strips).
    """
    return _adjunction(p, [tau])


def check_two_ray_factorization(
    p: LaurentPolynomial, tau1: Sequence[int], tau2: Sequence[int]
) -> tuple[LaurentPolynomial, LaurentPolynomial, bool]:
    """Two-ray adjunction: for adjacent facet normals u1, u2 of NP(p)
    (spanning a 2-dimensional cone of the normal fan),

        init_sigma(mu(p)) = mu(init_sigma(p)) * p|_F'(1) * p|_F'(2)

    with F'(i) the lattice points of NP(p) on the other facet at lattice
    height one over facet i, read off the terms of p (see _strips). Both
    sides are computed independently. The
    facets are adjacent when their common vertices, read off the incidence
    table of NP(p), span a face of codimension 2, and the identity needs
    u1, u2 to extend to a lattice basis (the gcd of their 2 x 2 minors is
    1; it is 2 on the octahedron's facets (1,1,1) and (1,1,-1), where it
    fails). Facets that are not adjacent, normals that do not extend to a
    basis, or two normals of the same facet raise ValueError.
    """
    return _adjunction(p, [tau1, tau2])
