"""Deciding and obstructing the generalized Einstein condition.

A Laurent polynomial p with unimodular support satisfies the generalized
Einstein condition (GEC) when mu(p) divides some power of p. That search
is finite: after stripping monomial factors, every irreducible factor of
mu(p) dividing a power of p must divide p itself, and its multiplicity in
mu(p) is at most the degree of the normalized mu(p) in any variable the
factor depends on. So GEC holds exactly when mu(p) | p^k for some k up to
the kappa bound, the largest degree of the normalized mu(p) in a single
variable. The decision is a least-power search up to that bound
(laurent.least_dividing_power). It first evaluates the primitive integer
forms of mu(p) and p at a few fixed integer points: by Gauss's lemma
mu(p) | p^k forces mu(p)(a) | p(a)^k in Z at every integer point a, and
the number of peels m //= gcd(m, p(a)) that take m = |mu(p)(a)| to 1 is
the least such k at a. A peel with gcd 1, or past the bound, refutes GEC
with no division; otherwise the largest count is a lower bound, and each
power p^k from there on, built from the last by one product, is divided by
mu(p) exactly. The witness keeps the paper's kappa*, the total degree of
the normalized mu(p), which is never smaller than the kappa bound. The
Einstein identity mu(p) = c chi^m p^k (einstein_check) is decided by the
same search up to k, once the total degrees of the integer forms match.
Every decision reads mu(p) on integer forms from mu's walk
(monge_ampere._mu_factors), a product on disjoint blocks of variables
factor by factor (_least), with no polynomial built from the walk's sums
to the verdict; unimodular support is checked on the same blocks, between
the structure step of the split and its walk (_require_unimodular).

The rest of the module is the obstruction toolbox used on faces of a
Newton polytope: the univariate classification (GEC on a segment forces a
binomial power), the edge ratio test for polygons (it reads the lattice
lengths at heights 0 and 1 over each edge in closed form), the hexagon
argument (no polynomial supported on the standard reflexive hexagon
satisfies GEC), and face descent, which combines them over all
low-dimensional faces of a polytope. Since GEC is hereditary under
passing to initial parts, a single failing face certifies failure for the
whole polytope; the polytope-only tests certify it for every unimodular
choice of coefficients at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, prod
from operator import add
from typing import Iterator

from .lattice import AffineChart, IntVector, _xgcd, dot, integer_value
from .laurent import (
    Exponent,
    IntegerForm,
    LaurentPolynomial,
    _grlex_key,
    _integer_form,
    _least_power,
    substitute_monomial,
)
from .monge_ampere import MuFactor, Structure, _mu_factors, _structure, mu
from .polytope import (
    LatticePolytope,
    _chart_bases,
    _chart_polygons,
    _chart_restriction,
    _edge_condition,
    _support_masks,
    _vertex_condition,
    hull,
)

__all__ = [
    "ObstructionReport",
    "EinsteinResult",
    "gec_check",
    "minimal_kappa",
    "einstein_check",
    "classify_1d",
    "edge_ratio_test",
    "hexagon_obstruction",
    "standard_hexagon_map",
    "face_descent",
    "STANDARD_HEXAGON_VERTICES",
    "standard_hexagon_q",
]

STANDARD_HEXAGON_VERTICES: tuple[IntVector, ...] = tuple(
    sorted([(0, -1), (1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0)])
)

_HEXAGON_OFFSETS = STANDARD_HEXAGON_VERTICES + ((0, 0),)


def standard_hexagon_q() -> LaurentPolynomial:
    """The hexagon-supported polynomial with all vertex coefficients 1 and
    center coefficient 2; every consistent hexagon instance reduces to it."""
    terms = {v: Fraction(1) for v in STANDARD_HEXAGON_VERTICES}
    terms[(0, 0)] = Fraction(2)
    return LaurentPolynomial(2, terms)


# mu of standard_hexagon_q, kept as a frozen golden value and cross-checked
# against the live computation whenever a hexagon certificate is issued.
_MU_Q_TERMS: dict[Exponent, int] = {
    (2, 0): 1, (1, 1): 2, (0, 2): 1,
    (1, 0): 10, (2, -1): 2, (0, 1): 10, (-1, 2): 2,
    (2, -2): 1, (1, -1): 10, (0, 0): 18, (-1, 1): 10, (-2, 2): 1,
    (1, -2): 2, (0, -1): 10, (-1, 0): 10, (-2, 1): 2,
    (0, -2): 1, (-1, -1): 2, (-2, 0): 1,
}


@dataclass
class ObstructionReport:
    """Outcome of a GEC decision or obstruction search.

    verdict is one of gec-holds, gec-fails, inconclusive. witness carries
    the decisive data (test name, face, numbers); trace records what was
    examined along the way.
    """

    verdict: str
    witness: dict | None
    trace: list = field(default_factory=list)

    def _payload(self) -> dict:
        """verdict, witness and trace as they are, with no copy: the payload
        that to_obj converts and that the encoders read through
        _json_default."""
        return {"verdict": self.verdict, "witness": self.witness, "trace": self.trace}

    def to_obj(self) -> dict:
        return _jsonable(self._payload())

    def to_json(self, indent: int | str | None = None) -> str:
        """json.dumps(self.to_obj(), indent=indent), without building the
        converted copy. indent=None goes through json's C encoder; any
        other indent through _encode_indented, which writes each record
        list the trace shares between faces once."""
        if indent is None:
            return json.dumps(self._payload(), default=_json_default)
        return _encode_indented(self._payload(), indent)


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, LaurentPolynomial):
        return x.to_obj()
    return x


def _json_default(x):
    """The JSON encoder hook for report payloads: a Fraction becomes its
    string and a LaurentPolynomial its to_obj(), and anything else the
    encoder cannot write raises TypeError. On payloads whose dict keys are
    strings, encoding with this hook gives the same bytes as encoding the
    _jsonable copy, without building the copy."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, LaurentPolynomial):
        return x.to_obj()
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _key_text(key) -> str:
    """A dict key as json writes it before quoting."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _encode_indented(payload, indent: int | str) -> str:
    """json.dumps(payload, indent=indent, default=_json_default) of an
    acyclic payload, written by one recursion that joins each container's
    text from its children's.

    A report shares record lists between its trace entries, so the same
    container recurs at the same depth. The memo is keyed on (id, level):
    the first visit pins the container, so that the id of a temporary such
    as a to_obj() dict from the hook cannot be reused while the encode
    runs; the second visit stores the text, and later visits reuse it.
    Only repeated containers keep their text, so the memo holds no copy of
    the whole output."""
    if not isinstance(indent, str):
        indent = " " * indent
    encode_str = json.encoder.encode_basestring_ascii
    int_text = int.__repr__
    seen: dict = {}
    texts: dict = {}

    def encode(x, level: int) -> str:
        if isinstance(x, str):
            return encode_str(x)
        if isinstance(x, int):
            if x is True:
                return "true"
            return "false" if x is False else int_text(x)
        if x is None:
            return "null"
        if isinstance(x, float):
            return json.dumps(x)
        is_dict = isinstance(x, dict)
        if not (is_dict or isinstance(x, (list, tuple))):
            return encode(_json_default(x), level)
        if not x:
            return "{}" if is_dict else "[]"
        key = (id(x), level)
        text = texts.get(key)
        if text is not None:
            return text
        inner = level + 1
        newline = "\n" + indent * inner
        # the type tests in the comprehensions skip a call of encode for
        # the commonest scalars: str keys and values, and int coordinates
        if is_dict:
            body = ("," + newline).join(
                [
                    encode_str(k if type(k) is str else _key_text(k))
                    + ": "
                    + (encode_str(v) if type(v) is str else encode(v, inner))
                    for k, v in x.items()
                ]
            )
            text = "{" + newline + body + "\n" + indent * level + "}"
        else:
            body = ("," + newline).join(
                [int_text(v) if type(v) is int else encode(v, inner) for v in x]
            )
            text = "[" + newline + body + "\n" + indent * level + "]"
        if key in seen:
            texts[key] = text
        else:
            seen[key] = x
        return text

    return encode(payload, 0)


def _require_unimodular(structure: Structure) -> None:
    """Raise ValueError("support is not unimodular") unless the support of
    p, with structure = monge_ampere._structure(p), satisfies the vertex
    condition of polytope.unimodular_support. It runs between mu's
    structure step and its walk, once on each fibre of mu's split, with
    the rank and saturated basis the split already holds. The support is the product of
    the fibres on disjoint blocks of coordinates, so the condition holds
    on it exactly when it holds on every fibre (polytope._vertex_condition);
    a segment fibre takes the closed form and a polygon fibre its monotone
    chain, with no hull, and a monomial has no fibre and passes."""
    fibres = structure[4]
    if not all(_vertex_condition(points, r_f, basis)[0] for points, r_f, basis, _ in fibres):
        raise ValueError("support is not unimodular")


def _least(factors: list[MuFactor], k_max: int) -> int | None:
    """The least k <= k_max with mu(p) | p^k over the factors of _mu_factors.
    A factor in its own variables divides a product exactly when it divides
    its own block's share, so mu(p) | p^k exactly when mu(f) | f^(k - r + r_f)
    for every factor f: the least k is the largest r - r_f + k_f, with k_f
    the least power of each factor's forms (laurent._least_power) up to
    k_max - (r - r_f), and None when a factor has none."""
    least = 0
    for f, gap, g, _ in factors:
        k = _least_power(g, f, k_max - gap)
        if k is None:
            return None
        least = max(least, gap + k)
    return least


def gec_check(p: LaurentPolynomial) -> ObstructionReport:
    """Decide the generalized Einstein condition for p by the least k up to
    the kappa bound with mu(p) | p^k. Requires unimodular support. The
    witness records the paper's kappa*; the divisibility trace step adds the
    kappa bound and the least k (None when GEC fails).

    A product p = c chi^m f_1 ... f_s on disjoint blocks of variables is
    decided factor by factor (_least), on the integer forms of
    monge_ampere._mu_factors: the least k is the largest r - r_i + k_i, k_i
    each factor's least power up to the kappa bound minus r - r_i; the
    trace's term count is the product of the parts' counts, kappa* the sum
    of their normalized total degrees, and the kappa bound their largest
    single-variable degree. A p that does not split is its own one factor.

    Unimodularity is checked between mu's structure step and its walk, on
    each factor's fibre (_require_unimodular), so a rejected support raises
    before any walk. The check reads the ranks and bases of the split, and
    only a fibre of rank 3 or more builds a hull, its own."""
    if p.is_zero():
        raise ValueError("GEC is undefined for the zero polynomial")
    structure = _structure(p)
    _require_unimodular(structure)
    return _decide(p, structure)


def _decide(p: LaurentPolynomial, structure: Structure) -> ObstructionReport:
    """The decision of gec_check for a nonzero p with unimodular support,
    on structure = monge_ampere._structure(p)."""
    r, factors, kappa_star, kappa_bound = _mu_factors(p, structure)
    least = _least(factors, kappa_bound)
    holds = least is not None
    witness = {
        "test": "divisibility",
        "kappa_star": kappa_star,
        "divides": holds,
        "rank_r": r,
    }
    trace = [
        {"step": "mu", "rank_r": r, "terms": prod(len(part[0]) for *_, part in factors)},
        {
            "step": "divisibility",
            "kappa_star": kappa_star,
            "kappa_bound": kappa_bound,
            "least_power": least,
            "divides": holds,
        },
    ]
    return ObstructionReport("gec-holds" if holds else "gec-fails", witness, trace)


def minimal_kappa(p: LaurentPolynomial, kappa_max: int | None = None) -> int | None:
    """Smallest kappa <= kappa_max with mu(p) | p^kappa (default: the kappa
    bound, past which no new kappa can appear), or None when there is none
    in range. The same factor-by-factor least-power search that gec_check
    runs: a factor f of rank r_f is searched up to kappa_max - (r - r_f),
    so a bound below r - r_f gives None. kappa_max must be an exact
    integer, so bools and floats raise ValueError."""
    if kappa_max is not None:
        kappa_max = integer_value(kappa_max, "kappa_max")
    if p.is_zero():
        raise ValueError("GEC is undefined for the zero polynomial")
    _, factors, _, kappa_bound = _mu_factors(p, _structure(p))
    return _least(factors, kappa_bound if kappa_max is None else kappa_max)


@dataclass(frozen=True)
class EinsteinResult:
    """Outcome of the Einstein equation mu(p) = c chi^m p^(r+1-lambda), or
    mu(p) = p^r without lambda; scalar and shift report (c, m) when it
    holds."""

    holds: bool
    lam: int | None
    rank_r: int
    scalar: Fraction | None
    shift: Exponent | None


def einstein_check(p: LaurentPolynomial, lam: int | Fraction | None = None) -> EinsteinResult:
    """Check the Einstein condition exactly: mu(p) = c chi^m p^k for a
    monomial c chi^m, with k = r + 1 - lambda for an integer lambda, and
    k = r, c = 1 and m = 0 without lambda (mu(p) = p^r), r the support
    rank.

    Both cases take one route, the least-power search of gec_check on the
    integer forms of monge_ampere._mu_factors, factor by factor on a
    product. A monomial p has r = 0 and mu(p) = p, so the identity holds
    for every k. Otherwise it holds exactly when the integer form g of
    mu(p) (laurent._integer_form: primitive, monomial factor stripped) has
    k times the total degree of the integer form f of p, which is positive,
    so k >= 0, and g | f^j for some j <= k (_least up to k, so each factor
    f_i of rank r_i up to k - (r - r_i)): then g | f^k with a quotient of
    degree 0, a unit, so g = +-f^k. The total degrees of g and f are the
    sums of the parts' and the factors'. Leading terms multiply under
    grlex, so c and m are read off the leading terms of p and of the forms
    of each factor f_i and each part mu(f_i) f_i^(r - r_i): p = c' chi^m'
    prod f_i gives lt(mu(p)) = (lt(p) / prod lt(f_i))^(r+1) prod lt(part_i).
    lambda must be an int or a Fraction, and not a bool, or ValueError is
    raised; a non-integer lambda too, since no rational monomial can make
    the equation exact. Unimodular support is checked as in gec_check, on
    each factor's fibre before mu's walk."""
    if lam is not None and (isinstance(lam, bool) or not isinstance(lam, (int, Fraction))):
        raise ValueError(f"lambda {lam!r} is not an int or a Fraction")
    if p.is_zero():
        raise ValueError("the Einstein condition is undefined for the zero polynomial")
    structure = _structure(p)
    _require_unimodular(structure)
    if lam is not None:
        if lam.denominator != 1:
            raise ValueError("lambda must be an integer for the exact check")
        lam = int(lam)
    r, factors, kappa_star, _ = _mu_factors(p, structure)
    k = r if lam is None else r + 1 - lam
    holds = p.is_monomial() or (
        kappa_star == k * sum(f[1] for f, *_ in factors) and _least(factors, k) is not None
    )
    scalar = shift = None
    if holds:
        pe, pc = p.leading_term()
        scalar, shift = pc ** (r + 1 - k), [(r + 1 - k) * x for x in pe]
        for f, _, _, part in factors:
            (fe, fc), (me, mc) = _leading_term(f), _leading_term(part)
            scalar *= mc / fc ** (r + 1)
            shift = [s + a - (r + 1) * b for s, a, b in zip(shift, me, fe)]
        shift = tuple(shift)
        if lam is None and (scalar != 1 or any(shift)):
            holds, scalar, shift = False, None, None
    return EinsteinResult(holds, lam, r, scalar, shift)


def _leading_term(form: IntegerForm) -> tuple[Exponent, Fraction]:
    """The grlex leading term of the polynomial scale * chi^shift * q of an
    integer form: grlex order is invariant under the shift, so it is q's
    leading term, shifted and scaled."""
    q, _, shift, scale = form
    e = max(q, key=_grlex_key)
    return tuple(map(add, e, shift)), scale * q[e]


def classify_1d(
    p: LaurentPolynomial,
) -> tuple[bool, tuple[Fraction, int, Fraction | None, int] | None]:
    """Classify a univariate polynomial against the segment GEC shapes.

    On a segment, GEC holds exactly for c x^m (x + xi)^nu with xi nonzero,
    and degenerately for monomials (returned as (c, m, None, 0)). The
    hypothesis needs the coefficients adjacent to both support endpoints to
    be nonzero (that is what unimodular support means on a segment); other
    inputs are out of scope and raise.

    The test runs on ints. The coefficients c_i of x^(m+i) are scaled once
    by the lcm of their denominators to a_i, as
    monge_ampere._univariate_forms scales them, so xi = nu c_0 / c_1 =
    nu a_0 / a_1 = P / Q in lowest terms, and c_i = c_nu
    C(nu, i) xi^(nu-i) exactly when a_i Q^(nu-i) = a_nu C(nu, i) P^(nu-i).
    xi is nonzero, so a gap in the support fails at once, and the other
    terms are compared from the top down, where the powers are smallest.
    """
    if p.rank != 1:
        raise ValueError("classification applies to univariate polynomials")
    if p.is_zero():
        raise ValueError("the zero polynomial has no classification")
    coeffs = {e: c for (e,), c in p.terms.items()}
    m, top = min(coeffs), max(coeffs)
    if m == top:
        return True, (coeffs[m], m, None, 0)
    nu = top - m
    if m + 1 not in coeffs or top - 1 not in coeffs:
        raise ValueError(
            "out of hypothesis: support endpoints lack unimodular neighbors"
        )
    if len(coeffs) <= nu:
        return False, None
    den = lcm(*(c.denominator for c in coeffs.values()))
    a = [c.numerator * (den // c.denominator) for c in map(coeffs.__getitem__, range(m, top + 1))]
    lead = a[nu]
    num, q = nu * a[0], a[1]
    g = gcd(num, q)
    num, q = num // g, q // g
    num_k = q_k = 1
    for k in range(1, nu + 1):
        num_k *= num
        q_k *= q
        if a[nu - k] * q_k != lead * comb(nu, k) * num_k:
            return False, None
    return True, (coeffs[top], m, Fraction(num, q), nu)


def edge_ratio_test(
    target: LatticePolytope | LaurentPolynomial,
) -> tuple[bool, list[dict]]:
    """Edge ratio obstruction for a lattice polygon (or the Newton polygon
    of a 2-variable polynomial): for every edge E, compute the lattice
    lengths of E and of the adjacent segment E'. Any polynomial with this
    Newton polygon that satisfies GEC makes l(E')/l(E) independent of the
    edge, so unequal ratios obstruct GEC for all coefficient choices.

    Both lengths are read off in closed form, with no lattice point scan.
    l(E) is the gcd of the edge's chart vector. The lattice points of the
    height-one line <u, y> = 1 - a are y0 + t e with e = (-u_1, u_0) and y0 =
    (1 - a)(s, t) for a Bezout pair s u_0 + t u_1 = 1 (u is primitive).
    Each facet (w, b) with <w, e> != 0 bounds t on one side by a floor or a
    ceiling of (-b - <w, y0>) / <w, e>; the facets parallel to the line hold
    on all of it, since the polygon is 2-dimensional. So l(E') = hi - lo for
    the tightest bounds. E' is never empty: in coordinates where a unit step
    of E is (1, 0) and a vertex is (a, H) with H >= 1, the two span a
    triangle whose height-1 section [a/H, 1 + (a-1)/H] contains an integer.
    """
    polygon = hull(target.support()) if isinstance(target, LaurentPolynomial) else target
    if polygon.dim != 2:
        raise ValueError("the edge ratio test applies to 2-dimensional polygons")
    records = []
    for (u, a), mask in zip(polygon.facets, polygon.incidence):
        start, end = (c for j, c in enumerate(polygon.cvertices) if mask >> j & 1)
        length = gcd(end[0] - start[0], end[1] - start[1])
        _, s, t = _xgcd(u[0], u[1])
        y0 = ((1 - a) * s, (1 - a) * t)
        lows, highs = [], []
        for (w0, w1), b in polygon.facets:
            # <w, e> and -b - <w, y0> for e = (-u_1, u_0)
            step, room = w1 * u[0] - w0 * u[1], -b - w0 * y0[0] - w1 * y0[1]
            if step > 0:
                lows.append(-(-room // step))
            elif step < 0:
                highs.append(room // step)
        adj_length = min(highs) - max(lows)
        records.append(
            {
                "vertices": polygon.mask_vertices(mask),
                "length": length,
                "adjacent_length": adj_length,
                "ratio": Fraction(adj_length, length),
            }
        )
    return len({rec["ratio"] for rec in records}) == 1, records


def standard_hexagon_map(
    polygon: LatticePolytope,
) -> tuple[IntVector, tuple[IntVector, IntVector]] | None:
    """Recognize a lattice polygon as unimodularly equivalent to the
    standard reflexive hexagon. Returns (t, rows of a unimodular matrix N)
    with N(v - t) mapping the vertices onto the standard hexagon, or None.

    The test: six vertices antipodal in three pairs +-w1, +-w2, +-w3 around
    the lattice point t, with s3 w3 = s1 w1 + s2 w2 for some signs and
    det(s1 w1, s2 w2) = +-1. These conditions hold exactly on the unimodular
    orbit of the hexagon, and the final vertex-image check makes the
    recognition self-verifying. Six vertices antipodal around t sum to 6t,
    so t is read off the vertex sum (a sum that 6 does not divide fails the
    antipodal check around its floor), and it is also the one interior
    lattice point. Any two pairs of the standard hexagon form a basis with
    the third as their signed sum, so the pairs are taken in one order, and
    s1 = 1 suffices: (-s1, -s2) passes both tests exactly when (s1, s2)
    does, and negates the map, under which the hexagon is symmetric.
    """
    if polygon.dim != 2 or polygon.rank != 2 or len(polygon.vertices) != 6:
        return None
    sx, sy = map(sum, zip(*polygon.vertices))
    t = (sx // 6, sy // 6)
    centered = sorted(tuple(a - b for a, b in zip(v, t)) for v in polygon.vertices)
    cset = set(centered)
    if any((-v[0], -v[1]) not in cset for v in centered):
        return None
    reps: list[IntVector] = []
    seen: set[IntVector] = set()
    for v in centered:
        if v not in seen:
            reps.append(v)
            seen.add(v)
            seen.add((-v[0], -v[1]))
    if len(reps) != 3:
        return None
    target = set(STANDARD_HEXAGON_VERTICES)
    a, w2, w3 = reps
    for s2 in (1, -1):
        b = (s2 * w2[0], s2 * w2[1])
        if w3 not in ((a[0] + b[0], a[1] + b[1]), (-a[0] - b[0], -a[1] - b[1])):
            continue
        det = a[0] * b[1] - a[1] * b[0]
        if abs(det) != 1:
            continue
        # inverse of the column matrix (a b), then flip the second
        # coordinate to land on the standard hexagon
        inv = ((b[1] * det, -b[0] * det), (-a[1] * det, a[0] * det))
        n_rows = (inv[0], (-inv[1][0], -inv[1][1]))
        image = {(dot(n_rows[0], v), dot(n_rows[1], v)) for v in centered}
        if image == target:
            return t, n_rows
    return None


@lru_cache(maxsize=1)
def _hexagon_q_certificate() -> dict:
    """Live certificate that the reference hexagon polynomial q fails GEC,
    cross-checked against the frozen expansion of mu(q)."""
    q = standard_hexagon_q()
    mu_q = mu(q).mu
    frozen = LaurentPolynomial(2, {e: Fraction(c) for e, c in _MU_Q_TERMS.items()})
    if mu_q != frozen:
        raise AssertionError("mu of the reference hexagon polynomial changed")
    form = _integer_form(mu_q.terms)
    kappa_star = form[1]
    q_divides = _least_power(form, _integer_form(q.terms), kappa_star) is not None
    return {
        "q": q.to_obj(),
        "mu_q": mu_q.to_obj(),
        "kappa_star": kappa_star,
        "divides": q_divides,
    }


def hexagon_obstruction(p: LaurentPolynomial) -> ObstructionReport:
    """The hexagon argument: a polynomial supported on the standard
    reflexive hexagon (translates allowed, center optional) never satisfies
    GEC.

    Each edge has exactly two support points, so the edge parameters
    (c_i, xi_i) are forced by the coefficients; the remaining overlap
    conditions between the six edges and the three adjacent diagonals are
    nine multiplicative equations among the coefficients. If one fails, the
    corresponding edge shape condition fails and that equation is the
    witness. If all hold, the coefficients are rescaled by a monomial
    substitution to the reference polynomial q, whose GEC failure is
    certified by an explicit non-divisibility; either way, gec-fails.
    """
    if p.rank != 2:
        raise ValueError("the hexagon obstruction applies to 2-variable polynomials")
    if p.is_zero():
        raise ValueError("empty support")
    # the standard hexagon's lowest coordinates are -1, which fixes t
    t = (min(e[0] for e in p.terms) + 1, min(e[1] for e in p.terms) + 1)
    offsets = {(e[0] - t[0], e[1] - t[1]) for e in p.terms}
    if not set(STANDARD_HEXAGON_VERTICES) <= offsets <= set(_HEXAGON_OFFSETS):
        raise ValueError("support is not a translate of the standard hexagon")

    def alpha(offset: IntVector) -> Fraction:
        return p.coefficient((t[0] + offset[0], t[1] + offset[1]))

    a0 = alpha((0, -1))
    a1 = alpha((1, -1))
    a2 = alpha((-1, 0))
    a3 = alpha((0, 0))
    a4 = alpha((1, 0))
    a5 = alpha((-1, 1))
    a6 = alpha((0, 1))
    xi1 = a0 / a1
    xi2 = a1 / a4
    xi3 = a4 / a6
    trace = [
        {
            "step": "edge-parameters",
            "xi": [xi1, xi2, xi3],
            "translate": t,
        }
    ]
    # overlap equations not already absorbed into the parameter definitions
    equations = [
        ("(-1,1)", "c4*xi1 = c5", a6 * xi1, a5),
        ("(-1,0)", "c5*xi2 = c6", a5 * xi2, a2),
        ("(0,-1)", "c6*xi3 = c1*xi1", a2 * xi3, a0),
        ("(0,-1)", "c2'*xi2^2 = c1*xi1", a6 * xi2**2, a0),
        ("(1,-1)", "c3'*xi3^2 = c1", a5 * xi3**2, a1),
        ("(-1,0)", "c1'*xi1^2 = c6", a4 * xi1**2, a2),
        ("(0,0)", "2*c1'*xi1 = alpha(0,0)", 2 * a4 * xi1, a3),
        ("(0,0)", "2*c2'*xi2 = alpha(0,0)", 2 * a6 * xi2, a3),
        ("(0,0)", "2*c3'*xi3 = alpha(0,0)", 2 * a5 * xi3, a3),
    ]
    for point, label, lhs, rhs in equations:
        if lhs != rhs:
            witness = {
                "test": "hexagon-overlap",
                "point": point,
                "equation": label,
                "lhs": lhs,
                "rhs": rhs,
            }
            trace.append({"step": "overlap", "violated": label, "point": point})
            return ObstructionReport("gec-fails", witness, trace)
    trace.append({"step": "overlap", "violated": None})

    rho1, rho2, rho3 = a5, xi2, a6
    scale_x = rho1 / rho3
    scale_y = rho2
    divisor = rho2 * rho3
    translated = p * LaurentPolynomial.monomial((-t[0], -t[1]))
    reduced = substitute_monomial(
        translated, [[1, 0], [0, 1]], [scale_x, scale_y]
    ).scale(Fraction(1) / divisor)
    trace.append(
        {
            "step": "reduction",
            "rho": [rho1, rho2, rho3],
            "scalars": [scale_x, scale_y],
            "divisor": divisor,
        }
    )
    if reduced == standard_hexagon_q():
        certificate = _hexagon_q_certificate()
        witness = {
            "test": "hexagon-reduction",
            "rho": [rho1, rho2, rho3],
            "reduced_to_q": True,
            "certificate": certificate,
        }
        return ObstructionReport("gec-fails", witness, trace)
    # consistency of the nine equations forces the reduction, so this branch
    # should be unreachable; decide directly rather than trust the algebra
    trace.append({"step": "fallback", "note": "reduction mismatch"})
    direct = gec_check(p)
    return ObstructionReport(direct.verdict, direct.witness, trace + direct.trace)


def _polygon_tests(polygon: LatticePolytope, chart_poly: LaurentPolynomial | None) -> list[dict]:
    """The edge ratio and hexagon records of a 2-face's chart polygon, each
    {"test", "ok", "data"}. Without the face's chart polynomial they hold
    for every unimodular-support polynomial over the polygon, and a standard
    hexagon gets the certificate that none satisfies GEC; with it, a
    hexagon is decided by hexagon_obstruction."""
    ok, records = edge_ratio_test(polygon)
    tests = [{"test": "edge-ratio", "ok": ok, "data": {"edges": records}}]
    hexagon = standard_hexagon_map(polygon)
    if hexagon is None:
        return tests
    if chart_poly is None:
        data = {
            "note": (
                "face is a standard hexagon; no unimodular-support "
                "polynomial over it satisfies the condition"
            ),
            "certificate": _hexagon_q_certificate(),
        }
        tests.append({"test": "hexagon", "ok": False, "data": data})
    else:
        # hexagon_obstruction takes any translate of the standard hexagon,
        # so N alone maps the chart polynomial onto one
        report = hexagon_obstruction(substitute_monomial(chart_poly, hexagon[1]))
        ok = report.verdict != "gec-fails"
        tests.append({"test": "hexagon", "ok": ok, "data": report.witness})
    return tests


def _examine(key: tuple[IntVector, ...] | LaurentPolynomial) -> list[dict]:
    """Run every obstruction test on one descent key, which decides the
    records alone. A chart vertex tuple gets the polygon tests valid for
    every unimodular-support polynomial over its hull. A chart polynomial of
    a face of NP(p) gets the univariate classification on rank 1, the
    polygon tests on the hull of its support on rank 2 (the face's vertices
    are support points, so that hull is the face's chart polygon), and the
    exact divisibility check on every rank."""
    if not isinstance(key, LaurentPolynomial):
        return _polygon_tests(hull(key), None)
    tests: list[dict] = []
    if key.rank == 1:
        ok, data = classify_1d(key)
        tests.append(
            {
                "test": "one-dim-shape",
                "ok": ok,
                "data": {"classification": list(data) if data else None},
            }
        )
    elif key.rank == 2:
        tests += _polygon_tests(hull(key.support()), key)
    # faces inherit unimodular support: P is simple at each vertex v, the
    # edge steps of F at v are a subset of a basis of M_P, hence a basis of
    # M_F = M_P meet span(F - F), and their endpoints lie in supp(p) meet F
    report = _decide(key, _structure(key))
    tests.append(
        {"test": "divisibility", "ok": report.verdict == "gec-holds", "data": report.witness}
    )
    return tests


def _face_records(
    delta: LatticePolytope, top: int, p: LaurentPolynomial | None
) -> Iterator[tuple[int, tuple[int, ...], tuple[IntVector, ...], list[dict]]]:
    """(dim, active facets, vertices, records) of every face that descent
    examines, with one shared record list per distinct key, examined by
    _examine. Both modes take each face's chart from polytope._chart_bases:
    without p the 2-faces of _chart_polygons keyed on their chart vertex
    tuples, and with p the faces of dimension 1 to top keyed on their chart
    polynomials, p's support points on the face in the chart."""
    if p is None:
        keyed = (
            (2, active, vertices, key)
            for active, vertices, key in (_chart_polygons(delta) if top >= 2 else ())
        )
    else:
        points = _support_masks(p, delta)
        keyed = (
            (d, active, delta.mask_vertices(mask), _chart_restriction(chart, active, points))
            for d in range(1, top + 1)
            for active, mask, low, basis in _chart_bases(delta, d, tuple)
            for chart in [AffineChart(low, basis)]
        )
    records: dict = {}
    for dim, active, vertices, key in keyed:
        record = records.get(key)
        if record is None:
            record = records[key] = _examine(key)
        yield dim, active, vertices, record


def face_descent(
    delta: LatticePolytope,
    p: LaurentPolynomial | None = None,
    d_max: int = 2,
) -> ObstructionReport:
    """Hereditary obstruction sweep over the faces of a polytope.

    Enumerates faces of dimension 1 up to d_max (capped at dim, and the
    polytope itself counts as a face of its own dimension); d_max must be an
    exact integer, so bools and floats raise ValueError. In polytope-only
    mode, runs the tests valid for every unimodular-support polynomial with
    that Newton polytope: edge ratios and the hexagon argument on 2-faces,
    the only faces it enumerates. Given a concrete p with NP(p) = delta, also
    runs the univariate classification on edges and the exact divisibility
    check on every face restriction.

    A face's records are a function of one key, so each distinct key is
    examined once, by _examine, which reads the key alone, and the trace
    entries with equal keys share one read-only record list, as the shared
    hexagon certificate already is (see _face_records). Both modes examine
    a 2-face's polygon as the hull of the key's points, which is the Face's
    chart polytope. Neither mode builds a Face: both read each face's chart
    off its vertex mask and the steps from its lowest vertex. In
    polytope-only mode the key is the chart vertex tuple of
    polytope._chart_polygons, and V:k=5 examines 3 hulls for its 30,030
    2-faces. With p the key is the face's chart polynomial, restricted
    without a check, and its polygon is the hull of its support: NP(p) =
    delta is checked once, here. The Prod:P1^6 witness has 432 faces up to
    dimension 2 and 2 distinct chart polynomials, 1+x and (1+x)(1+y).

    With p, unimodular support is checked once, on p alone, since every
    face inherits it. A p that does not split and has rank 3 or more runs
    the edge loop (polytope._edge_condition) on delta = NP(p), with no
    second hull; every other p goes through _require_unimodular, which
    reads a polygon off its monotone chain and a product fibre by fibre.

    Each face's trace entry and failures are recorded as it is examined; all
    failing faces are collected (canonically ordered by dimension, then
    active facet set), and the witness is the first. With p and
    1 <= dim <= d_max the sweep is decisive, since the top face is p itself;
    otherwise a clean pass is inconclusive.
    """
    d_max = integer_value(d_max, "d_max")
    if delta.dim != delta.rank:
        raise ValueError("face descent requires a full-dimensional polytope")
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    if p is not None:
        if not delta.is_hull_of(p.support()):
            raise ValueError("NP(p) does not equal the given polytope")
        structure = _structure(p)
        fibres = structure[4]
        if len(fibres) == 1 and fibres[0][1] >= 3:
            # p does not split and delta = NP(p): its edges need no second hull
            if not _edge_condition(delta, p.terms.keys())[0]:
                raise ValueError("support is not unimodular")
        else:
            _require_unimodular(structure)

    trace: list[dict] = []
    failures: list[dict] = []
    for dim, active, vertices, tests in _face_records(delta, min(d_max, delta.dim), p):
        face = {"dim": dim, "active_facets": list(active), "vertices": list(vertices)}
        trace.append({**face, "tests": tests})
        for test in tests:
            if not test["ok"]:
                failures.append({"test": test["test"], "face": face, "data": test["data"]})

    if failures:
        return ObstructionReport("gec-fails", failures[0], trace + [{"failures": failures}])
    if p is not None and 1 <= delta.dim <= d_max:
        return ObstructionReport(
            "gec-holds",
            {"test": "divisibility", "note": "all faces pass, including the polytope itself"},
            trace,
        )
    return ObstructionReport("inconclusive", None, trace)
