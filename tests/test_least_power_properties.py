"""Property tests of the least-power search on small random polynomials of
rank 1-3: least_dividing_power, whose evaluation step refutes or bounds k
before any exact division, against the linear search over explicit powers
in tests/helpers.py. Divisors are built as powers of f times a cofactor and
a Laurent monomial, so that both verdicts occur. Skipped when hypothesis is
not installed. The runs are derandomized and bounded, so they cost the same
on every run."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from toric_gec import LaurentPolynomial, least_dividing_power  # noqa: E402
from helpers import reference_least_power  # noqa: E402

PROPERTY_SETTINGS = hypothesis.settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)

coefficients = st.integers(-6, 6).filter(bool)


def polynomials(rank: int, bound: int = 2, size: int = 4):
    """Nonzero polynomials of the given rank with exponents in [0, bound]
    and at most size terms."""
    points = st.tuples(*[st.integers(0, bound)] * rank)
    return st.dictionaries(points, coefficients, min_size=1, max_size=size).map(
        lambda terms: LaurentPolynomial(rank, terms)
    )


@st.composite
def searches(draw):
    """(g, f, k_max) with g = f^j * h * c x^m: h is 1 or a random cofactor,
    and m a Laurent shift."""
    rank = draw(st.integers(1, 3))
    f = draw(polynomials(rank))
    g = f ** draw(st.integers(0, 3))
    if draw(st.booleans()):
        g = g * draw(polynomials(rank, bound=1, size=3))
    shift = draw(st.tuples(*[st.integers(-2, 2)] * rank))
    g = g * LaurentPolynomial.monomial(shift, draw(coefficients))
    return g, f, draw(st.integers(0, 4))


@PROPERTY_SETTINGS
@hypothesis.given(searches())
def test_least_dividing_power_matches_explicit_powers(search):
    g, f, k_max = search
    assert least_dividing_power(g, f, k_max) == reference_least_power(g, f, k_max)
