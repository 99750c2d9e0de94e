"""Property tests of mu on small random supports of rank 1-3 with random
rational coefficients: agreement with the unpruned Cauchy-Binet sum, the
scaling law mu(c p) = c^(r+1) mu(p), and the product and power laws, which
reach supports too large for the unpruned sum. Skipped when hypothesis is
not installed. The runs are derandomized and bounded, so they cost the
same on every run."""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from toric_gec import LaurentPolynomial, mu  # noqa: E402
from helpers import brute_force_mu  # noqa: E402

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


def _shifted(p: LaurentPolynomial, before: int, after: int) -> LaurentPolynomial:
    """p in the variables before+1 .. before+p.rank of before+p.rank+after."""
    pad_before, pad_after = (0,) * before, (0,) * after
    return LaurentPolynomial(
        before + p.rank + after, {pad_before + e + pad_after: c for e, c in p.terms.items()}
    )


@PROPERTY_SETTINGS
@hypothesis.given(polynomials(max_rank=2, extra=3), polynomials(max_rank=2, extra=3))
def test_mu_product_law(p, q):
    """mu(p(x) q(y)) = mu(p) mu(q) p^(r_q) q^(r_p) in disjoint variables."""
    p, q = _shifted(p, 0, q.rank), _shifted(q, p.rank, 0)
    mu_p, mu_q = mu(p), mu(q)
    assert mu(p * q).mu == mu_p.mu * mu_q.mu * p**mu_q.rank_r * q**mu_p.rank_r


@PROPERTY_SETTINGS
@hypothesis.given(polynomials(bound=1, extra=2), st.integers(1, 3))
def test_mu_power_law(p, k):
    """mu(p^k) = k^r p^((k-1)(r+1)) mu(p)."""
    result = mu(p)
    r = result.rank_r
    assert mu(p**k).mu == result.mu.scale(k**r) * p ** ((k - 1) * (r + 1))
