"""Property tests of mu on small random supports of rank 1-3 with random
rational coefficients: agreement with the unpruned Cauchy-Binet sum, the
scaling law mu(c p) = c^(r+1) mu(p), the power law, and on products in
disjoint variables, which reach supports too large for the unpruned sum,
agreement of mu's factor route with the subset walk on the whole support,
of the integer forms that the decisions read off the walk with mu(p), and
of the GEC and Einstein decisions read off the factors with the same
decisions on the whole support. Skipped when hypothesis is not installed.
The runs are derandomized and bounded, so they cost the same on every
run."""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from toric_gec import (  # noqa: E402
    LaurentPolynomial,
    einstein_check,
    exact_quotient,
    gec_check,
    hull,
    initial_part,
    min_weight_subset,
    minimal_kappa,
    mu,
    parse_expression,
)
from toric_gec import monge_ampere as monge_ampere_module  # noqa: E402
from toric_gec.laurent import _integer_form  # noqa: E402
from helpers import (  # noqa: E402
    brute_force_mu,
    fraction_blocks,
    random_einstein_input,
    unsplit,
    unsplit_mu,
    variable_blocks,
)

PROPERTY_SETTINGS = hypothesis.settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)

coefficients = st.builds(
    Fraction,
    st.integers(-30, 30).filter(bool),
    st.integers(1, 30),
)


@st.composite
def polynomials(draw, max_rank: int = 3, bound: int = 2, extra: int = 4) -> LaurentPolynomial:
    """Coordinates in [-bound, bound], rank 1 to max_rank, and at most
    rank + extra support points."""
    rank = draw(st.integers(1, max_rank))
    points = st.tuples(*[st.integers(-bound, bound)] * rank)
    support = draw(st.lists(points, min_size=1, max_size=rank + extra, unique=True))
    return LaurentPolynomial(rank, {e: draw(coefficients) for e in support})


@PROPERTY_SETTINGS
@hypothesis.given(polynomials())
def test_mu_matches_the_unpruned_sum(p):
    assert mu(p).mu == brute_force_mu(p)


@PROPERTY_SETTINGS
@hypothesis.given(polynomials(), coefficients)
def test_mu_scaling_law(p, c):
    result = mu(p)
    assert mu(p.scale(c)).mu == result.mu.scale(c ** (result.rank_r + 1))


@st.composite
def products(draw, max_terms: int = 16) -> tuple[LaurentPolynomial, int]:
    """(c chi^m f_1 ... f_k, k): k = 1..3 factors of rank 1 or 2 and at
    least two terms on disjoint blocks of variables in shuffled
    coordinates, a rational scale c, and at most max_terms terms. The
    monomial factor chi^m, if any, sits on one more coordinate on which
    the product does not vary. A factor may be rank deficient, and
    exponents run from -2 to 2."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        budget = max_terms // prod(len(f) for f in factors)
        if budget < 2:
            break
        rank = draw(st.integers(1, 2))
        points = st.tuples(*[st.integers(-2, 2)] * rank)
        size = min(budget, rank + 2)
        support = draw(st.lists(points, min_size=2, max_size=size, unique=True))
        factors.append(LaurentPolynomial(rank, {e: draw(coefficients) for e in support}))
    fixed = draw(st.lists(st.integers(-2, 2), max_size=1))
    n = sum(f.rank for f in factors) + len(fixed)
    order = draw(st.permutations(range(n)))
    p = LaurentPolynomial.constant(n, draw(coefficients))
    shift = 0
    for f in factors:
        place = order[shift : shift + f.rank]
        shift += f.rank
        terms = {}
        for e, c in f.terms.items():
            x = [0] * n
            for i, v in zip(place, e):
                x[i] = v
            terms[tuple(x)] = c
        p = p * LaurentPolynomial(n, terms)
    if fixed:
        x = [0] * n
        x[order[-1]] = fixed[0]
        p = p * LaurentPolynomial.monomial(x)
    return p, len(factors)


@PROPERTY_SETTINGS
@hypothesis.given(products())
def test_mu_product_law(case):
    """mu(c chi^m f_1 ... f_k) takes the product law over disjoint blocks of
    variables, and must agree with the subset walk on the whole support,
    chart and rank included. The blocks found refine the factors."""
    p, k = case
    assert mu(p) == unsplit_mu(p)
    assert len(variable_blocks(p) or [()]) >= k


def _outcome(call, *args):
    """call(*args), or the message of the ValueError it raises (gec_check
    and einstein_check require unimodular support)."""
    try:
        return call(*args)
    except ValueError as error:
        return str(error)


# products of lines c chi^m prod (x_i + a_i)^e_i and powers of affine
# forms, where GEC and the Einstein identity at one lambda hold
einstein_inputs = st.builds(
    lambda seed, rank: random_einstein_input(random.Random(seed), rank),
    st.integers(0, 2**32),
    st.integers(1, 3),
)


@PROPERTY_SETTINGS
@hypothesis.given(
    st.one_of(products().map(lambda case: case[0]), einstein_inputs),
    st.integers(-1, 8),
)
def test_decisions_on_factors_match_the_whole_support(p, kappa_max):
    """gec_check, minimal_kappa and einstein_check decide a product factor
    by factor; with mu's block split switched off they take the whole
    support, and must give the same report, least power and Einstein
    result. kappa_max runs below r - r_i for some factors."""
    for call, *args in [
        (gec_check, p),
        (minimal_kappa, p),
        (minimal_kappa, p, kappa_max),
        *((einstein_check, p, lam) for lam in (None, -1, 0, 1, 2, 3, 4)),
    ]:
        assert _outcome(call, *args) == unsplit(_outcome, call, *args), (call, args)


def _expand(form, rank: int) -> LaurentPolynomial:
    """The polynomial scale * chi^shift * q of an integer form."""
    q, _, shift, scale = form
    return LaurentPolynomial(
        rank, {tuple(a + b for a, b in zip(e, shift)): scale * c for e, c in q.items()}
    )


@PROPERTY_SETTINGS
@hypothesis.given(st.one_of(products().map(lambda case: case[0]), polynomials()))
def test_mu_factor_forms_match_mu(p):
    """The integer forms that monge_ampere._mu_factors reads off the walk,
    on products and on supports that mostly do not split, with rational
    coefficients: p is the factors' product times a monomial c0^(1-k)
    chi^m, and mu(p) is its (r+1)-th power times the parts, expanded as
    scale * chi^shift * q; each mu(f) form is the integer form of mu(f);
    kappa* and the kappa bound are the total and largest single-variable
    degrees of the integer form of mu(p)."""
    r, factors, kappa_star, kappa_bound = monge_ampere_module._mu_factors(
        p, monge_ampere_module._structure(p)
    )
    fs = [_expand(f, p.rank) for f, *_ in factors]
    correction = exact_quotient(prod(fs[1:], start=fs[0]), p)
    assert correction.is_monomial()
    parts = [_expand(part, p.rank) for *_, part in factors]
    assert prod(parts, start=correction ** (r + 1)) == mu(p).mu
    for f, (_, gap, g, _) in zip(fs, factors):
        assert mu(f).rank_r == r - gap
        assert g == _integer_form(mu(f).mu.terms)
    q, degree = _integer_form(mu(p).mu.terms)[:2]
    assert (kappa_star, kappa_bound) == (degree, max(map(max, q)))


@pytest.mark.parametrize(
    "text, blocks",
    [
        # a product support whose coefficients are not of rank 1
        ("1+x+y+2*x*y", None),
        # every pair of coordinates projects onto a full square, but the
        # support is not a product
        ("1+x*y+x*z+y*z", None),
        ("((1+x+y)^3+x*y)*(1+z)", [[0, 1], [2]]),
        ("(1+x1*x2)*(2+x3^-1)*(1+3*x4)*x1^2", [[0, 1], [2], [3]]),
    ],
)
def test_product_blocks_and_near_misses(text, blocks):
    p = parse_expression(text)
    assert variable_blocks(p) == blocks
    assert mu(p) == unsplit_mu(p)


@PROPERTY_SETTINGS
@hypothesis.given(polynomials(bound=1, extra=2), st.integers(1, 3))
def test_mu_power_law(p, k):
    """mu(p^k) = k^r p^((k-1)(r+1)) mu(p)."""
    result = mu(p)
    r = result.rank_r
    assert mu(p**k).mu == result.mu.scale(k**r) * p ** ((k - 1) * (r + 1))


@st.composite
def holed_polynomials(draw) -> LaurentPolynomial:
    """A polynomial of rank 2 or 3 with a full-dimensional Newton polytope,
    on its vertices and a drawn subset of its other lattice points, so that
    its support may have holes: lattice points of NP(p) off supp p."""
    rank = draw(st.integers(2, 3))
    points = st.tuples(*[st.integers(-2, 2)] * rank)
    h = hull(draw(st.lists(points, min_size=rank + 1, max_size=rank + 3, unique=True)))
    hypothesis.assume(h.dim == rank)
    support = [x for x in h.lattice_points() if x in h.vertices or draw(st.booleans())]
    return LaurentPolynomial(rank, {e: draw(coefficients) for e in support})


@hypothesis.settings(PROPERTY_SETTINGS, max_examples=100)
@hypothesis.given(holed_polynomials())
def test_strips_match_the_adjacent_points(p):
    """The adjunction strips p|_F'(i) that monge_ampere._strips reads off
    p's terms, for one facet and for every pair of facets, are p restricted
    to the lattice points of NP(p) that adjacent_points scans, in p's term
    order."""
    np_p = hull(p.support())
    facets = np_p.facets
    for i in range(len(facets)):
        for indices in [(i,), *((i, j) for j in range(len(facets)) if j != i)]:
            got = monge_ampere_module._strips(p, [facets[k] for k in indices])
            expected = [
                p.restrict(np_p.adjacent_points(k, [j for j in indices if j != k]))
                for k in indices
            ]
            assert got == expected
            assert [list(g.terms) for g in got] == [list(e.terms) for e in expected]


@PROPERTY_SETTINGS
@hypothesis.given(polynomials(), st.data())
def test_initial_part_matches_min_weight_subset(p, data):
    """initial_part picks its terms off p's exponents; it must keep the
    terms of min_weight_subset along zero, one or two rays, in p's term
    order."""
    rays = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * p.rank), max_size=2))
    got = initial_part(p, rays)
    expected = p.restrict(min_weight_subset(p.support(), rays))
    assert got == expected
    assert list(got.terms) == list(expected.terms)


@st.composite
def near_products(draw) -> LaurentPolynomial:
    """A product of products(), or, half the time, a near miss: one of its
    coefficients multiplied by a drawn rational, so that the support still
    passes every grid test and only the coefficients decide the split."""
    p, _ = draw(products())
    if draw(st.booleans()):
        terms = dict(p.terms)
        terms[draw(st.sampled_from(sorted(terms)))] *= draw(coefficients)
        p = LaurentPolynomial(p.rank, terms)
    return p


@PROPERTY_SETTINGS
@hypothesis.given(near_products())
@hypothesis.example(parse_expression("7/2*(3/2+x)^2*(5/3+y)^2*(4+z)^2"))
@hypothesis.example(parse_expression("(2/3+x)*(1/2+y)"))
@hypothesis.example(parse_expression("1/5+1/2*x+2/3*y+x*y"))
def test_blocks_match_the_fraction_split_test(p):
    """_blocks tests each split on the coefficients scaled to integers by
    the lcm of their denominators; it must find the blocks that the same
    test on the Fraction coefficients finds, with c0 and the factors on
    unequal denominators."""
    assert variable_blocks(p) == fraction_blocks(p)
