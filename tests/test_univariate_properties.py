"""Differential tests of the univariate pass of monge_ampere._mu_factors:
the decisions on a univariate p (rank 1), which read p and mu(p) off one
pass over the sorted exponents, against the same decisions on the
embedding p(x) y^c, a rank-1 support in two variables that takes mu's
walk; the pass's integer forms against those of mu(p) on the walk and of
the closed form mu_univariate_factored; and _structure's univariate rank
and basis against difference_lattice_basis. Skipped when hypothesis is
not installed. The runs are derandomized and bounded, so they cost the
same on every run."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import prod

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from toric_gec import (  # noqa: E402
    EinsteinResult,
    LaurentPolynomial,
    einstein_check,
    gec_check,
    minimal_kappa,
    mu,
    mu_univariate_factored,
)
from toric_gec import monge_ampere as monge_ampere_module  # noqa: E402
from toric_gec.lattice import difference_lattice_basis  # noqa: E402
from toric_gec.laurent import _integer_form  # noqa: E402

PROPERTY_SETTINGS = hypothesis.settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)

# signed, with unequal denominators
coefficients = st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 6))
shifts = st.integers(-4, 3)


@st.composite
def dense(draw) -> LaurentPolynomial:
    """2 to 6 consecutive exponents from a negative or positive start."""
    low, n = draw(shifts), draw(st.integers(2, 6))
    return LaurentPolynomial(1, {(low + i,): draw(coefficients) for i in range(n)})


@st.composite
def cancelling(draw) -> LaurentPolynomial:
    """c0 + c1 x + c2 x^2 + c3 x^3 times x^m with c1 c2 = -9 c0 c3, so the
    two pairs at key 3 + 2m cancel, 9 c0 c3 + c1 c2 = 0, and mu(p) has a
    middle term fewer than its key range."""
    m, c0, c1, c3 = draw(shifts), draw(coefficients), draw(coefficients), draw(coefficients)
    c2 = -9 * c0 * c3 / c1
    return LaurentPolynomial(1, {(m,): c0, (m + 1,): c1, (m + 2,): c2, (m + 3,): c3})


@st.composite
def factored(draw) -> tuple[Fraction, int, list[tuple[Fraction, int]]]:
    """(c, m, [(xi_k, e_k)]) of c x^m prod_k (x + xi_k)^(e_k) with distinct
    nonzero xi_k: one factor is a binomial power, where GEC holds; a sign
    pair xi, -xi can leave a gapped support."""
    xis = draw(st.lists(coefficients, min_size=1, max_size=3, unique=True))
    factors = [(xi, draw(st.integers(1, 4 if len(xis) == 1 else 2))) for xi in xis]
    return draw(coefficients), draw(shifts), factors


def expand(c: Fraction, m: int, factors: list[tuple[Fraction, int]]) -> LaurentPolynomial:
    x = LaurentPolynomial.variable(1, 0)
    return prod(
        ((x + LaurentPolynomial.constant(1, xi)) ** e for xi, e in factors),
        start=LaurentPolynomial.monomial((m,), c),
    )


@st.composite
def gapped(draw) -> LaurentPolynomial:
    """A support whose first or last step is 2 or more, which is not
    unimodular, with more exponents drawn in between."""
    low, gap = draw(shifts), draw(st.integers(2, 4))
    inner = draw(st.lists(st.integers(low + gap, low + gap + 4), max_size=3))
    exponents = {low, low + gap, *inner}
    if draw(st.booleans()):
        exponents = {low + gap + 4 - (e - low) for e in exponents}
    return LaurentPolynomial(1, {(e,): draw(coefficients) for e in exponents})


monomials = st.builds(lambda m, c: LaurentPolynomial.monomial((m,), c), shifts, coefficients)

univariates = st.one_of(
    dense(),
    cancelling(),
    factored().map(lambda case: expand(*case)),
    gapped(),
    monomials,
)


def _outcome(call, *args):
    """call(*args), or the message of the ValueError it raises (gec_check
    and einstein_check require unimodular support)."""
    try:
        return call(*args)
    except ValueError as error:
        return str(error)


def _embed(p: LaurentPolynomial, c: int) -> LaurentPolynomial:
    """p(x) y^c: the same support of rank 1, in two variables."""
    return LaurentPolynomial(2, {(e, c): coefficient for (e,), coefficient in p.terms.items()})


def _embedded_einstein(result, lam: int | None, c: int):
    """einstein_check(p(x) y^c, lam) from einstein_check(p, lam): with
    k = r + 1 - lam, or k = r without lam, mu(y^c p) = y^((r+1)c) mu(p) and
    (y^c p)^k = y^(kc) p^k, so the shift gains r + 1 - k = lam (or 1)
    times c in y, and without lam a nonzero shift fails the identity."""
    if not isinstance(result, EinsteinResult) or not result.holds:
        return result
    if lam is None and c:
        return replace(result, holds=False, scalar=None, shift=None)
    return replace(result, shift=(*result.shift, (1 if lam is None else lam) * c))


def _pass_forms(p: LaurentPolynomial):
    """(r, f, g, kappa*, kappa bound) of _mu_factors on p."""
    r, [(f, gap, g, part)], kappa_star, kappa_bound = monge_ampere_module._mu_factors(
        p, monge_ampere_module._structure(p)
    )
    assert gap == 0 and part is g
    return r, f, g, kappa_star, kappa_bound


@PROPERTY_SETTINGS
@hypothesis.given(univariates, st.integers(-2, 2))
def test_univariate_decisions_match_the_walk(p, c):
    """gec_check, minimal_kappa and einstein_check on a univariate p take
    the one-pass forms; on p(x) y^c they take mu's walk on the same
    support, and must give the same report bytes, least power and Einstein
    result, or raise the same error on a gapped support."""
    q = _embed(p, c)
    report = lambda p: gec_check(p).to_json()  # noqa: E731
    assert _outcome(report, p) == _outcome(report, q)
    assert minimal_kappa(p) == minimal_kappa(q)
    for lam in (None, 0, 1, 2):
        assert _embedded_einstein(_outcome(einstein_check, p, lam), lam, c) == _outcome(
            einstein_check, q, lam
        ), lam


@PROPERTY_SETTINGS
@hypothesis.given(univariates)
def test_univariate_forms_match_mu(p):
    """The pass's integer forms of p and mu(p) equal laurent._integer_form
    of p and of mu(p) on the walk, and kappa* and the kappa bound are the
    degree of mu(p)'s form."""
    r, f, g, kappa_star, kappa_bound = _pass_forms(p)
    assert r == mu(p).rank_r
    assert f == _integer_form(p.terms)
    assert g == _integer_form(mu(p).mu.terms)
    assert kappa_star == kappa_bound == g[1]


@PROPERTY_SETTINGS
@hypothesis.given(factored())
def test_univariate_forms_match_the_closed_form(case):
    """On c x^m prod_k (x + xi_k)^(e_k) the pass's form of mu(p) equals the
    integer form of mu_univariate_factored, which expands its own formula."""
    p = expand(*case)
    hypothesis.assume(len(p.terms) > 1)
    assert _pass_forms(p)[2] == _integer_form(mu_univariate_factored(*case).terms)


def test_univariate_inputs_reach_every_case():
    """The strategies draw what the differential tests are for: a mu(p)
    with a canceled middle term, negative exponents, unequal
    denominators, GEC holding, Einstein holding, and gapped supports."""
    seen = set()

    @PROPERTY_SETTINGS
    @hypothesis.given(univariates)
    def draw(p):
        exponents = [e for (e,) in p.support()]
        if len(exponents) > 1:
            g = _pass_forms(p)[2]
            if len(g[0]) < g[1] + 1:
                seen.add("canceled")
        if exponents[0] < 0:
            seen.add("negative")
        if len({c.denominator for c in p.terms.values()}) > 1:
            seen.add("denominators")
        report = _outcome(gec_check, p)
        if isinstance(report, str):
            seen.add("gapped")
        elif len(exponents) > 1 and report.verdict == "gec-holds":
            seen.add("holds")
        for lam in (None, 1, 2):
            if len(exponents) > 1 and getattr(_outcome(einstein_check, p, lam), "holds", False):
                seen.add(f"einstein {lam}")

    draw()
    assert seen == {
        "canceled", "negative", "denominators", "gapped", "holds", "einstein 1", "einstein 2"
    }


@pytest.mark.parametrize(
    "exponents",
    [[0], [-3], [0, 1], [-5, -4], [-2, 3], [0, 2, 4], [-4, 0, 2], [-1, 0, 1, 7]],
)
def test_univariate_structure_matches_difference_lattice_basis(exponents):
    """_structure reads a univariate rank and basis off the support size:
    (0, ()) for one point and (1, ((1,),)) otherwise, a gcd-2 support such
    as {0, 2, 4} included, as difference_lattice_basis saturates it."""
    p = LaurentPolynomial(1, {(e,): 1 for e in exponents})
    assert monge_ampere_module._structure(p)[:2] == difference_lattice_basis(p.support())
