"""Property tests of mu on small random supports of rank 1-3 with random
rational coefficients: agreement with the unpruned Cauchy-Binet sum and
the scaling law mu(c p) = c^(r+1) mu(p). Skipped when hypothesis is not
installed. The runs are derandomized and bounded, so they cost the same on
every run."""

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
def polynomials(draw) -> LaurentPolynomial:
    rank = draw(st.integers(1, 3))
    points = st.tuples(*[st.integers(-2, 2)] * rank)
    support = draw(st.lists(points, min_size=1, max_size=rank + 4, unique=True))
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
