"""Expression parsing and printing for the CLI surface."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from toric_gec import ExpressionError, LaurentPolynomial, format_expression, parse_expression
from helpers import random_cube_polynomial


def test_parse_basic_forms():
    p = parse_expression("1+x")
    assert p.rank == 1 and p.coefficient((0,)) == 1 and p.coefficient((1,)) == 1

    p = parse_expression("2/3*x^2*y^-1")
    assert p.rank == 2
    assert p.coefficient((2, -1)) == Fraction(2, 3)

    p = parse_expression("x1*x2*x3*x4")
    assert p.rank == 4 and p.coefficient((1, 1, 1, 1)) == 1


def test_parse_precedence_and_unary_minus():
    p = parse_expression("2+3*x^2")
    assert p.coefficient((2,)) == 3 and p.coefficient((0,)) == 2
    p = parse_expression("-x+1")
    assert p.coefficient((1,)) == -1
    p = parse_expression("2-x^2")
    assert p.coefficient((2,)) == -1
    p = parse_expression("(1+x)^3")
    assert p.coefficient((2,)) == 3


def test_parse_double_star_power():
    assert parse_expression("x**3") == parse_expression("x^3")


def test_parse_negative_exponent_forms():
    p = parse_expression("x^-2")
    assert p.coefficient((-2,)) == 1
    p = parse_expression("x^(-2)")
    assert p.coefficient((-2,)) == 1


def test_rank_override_and_inference():
    p = parse_expression("1+x", rank=3)
    assert p.rank == 3 and p.coefficient((1, 0, 0)) == 1
    p = parse_expression("x2")
    assert p.rank == 2
    with pytest.raises(ExpressionError):
        parse_expression("x3", rank=2)


def test_parse_rejects_garbage():
    for bad in ["", "1+", "x^y", "x^^2", "(1+x", "x0", "2//3", "1/0", "1+2/0*x"]:
        with pytest.raises(ExpressionError):
            parse_expression(bad)


def test_format_parse_roundtrip_random():
    rng = random.Random(71)
    for _ in range(200):
        p = random_cube_polynomial(rng, rng.randint(1, 4), rng.randint(1, 6))
        assert parse_expression(format_expression(p), rank=p.rank) == p


def test_format_uses_xyz_up_to_rank_three():
    p = parse_expression("x*y*z")
    assert format_expression(p) == "x*y*z"
    q = parse_expression("x1*x2*x3*x4")
    assert "x4" in format_expression(q)


def test_format_of_zero_and_constants():
    from toric_gec import LaurentPolynomial

    assert format_expression(LaurentPolynomial.zero(2)) == "0"
    assert format_expression(LaurentPolynomial.constant(1, Fraction(-3, 4))) == "-3/4"


def test_max_terms_bounds_each_power_before_it_is_expanded(monkeypatch):
    # the support of base^k is counted as a sumset, against the term count
    # of the expanded power (positive coefficients, so nothing cancels),
    # with Laurent and nested bases
    rng = random.Random(2311)
    for _ in range(40):
        base = random_cube_polynomial(rng, rng.randint(1, 3), rng.randint(2, 4), span=1)
        base = LaurentPolynomial(base.rank, {e: 1 for e in base.terms})
        k = rng.randint(0, 5)
        text = f"({format_expression(base)})^{k}"
        size = len(parse_expression(text, base.rank))
        assert len(parse_expression(text, base.rank, max_terms=size)) == size
        if k > 1:
            with pytest.raises(ExpressionError, match="cap of"):
                parse_expression(text, base.rank, max_terms=size - 1)
    assert len(parse_expression("((1+x^-1*y)^4)^8", max_terms=33)) == 33
    with pytest.raises(ExpressionError, match="cap of 32 terms"):
        parse_expression("((1+x^-1*y)^4)^8", max_terms=32)
    # refused without expanding the power, which the default does expand
    assert len(parse_expression("(1+x1+x2+x3+x4)^4")) == 70

    def refuse(*args):
        raise AssertionError("an over-cap power was expanded")

    monkeypatch.setattr(LaurentPolynomial, "__pow__", refuse)
    with pytest.raises(ExpressionError, match="cap of 256 terms"):
        parse_expression("(1+x1+x2+x3+x4)^32", max_terms=256)


def test_sum_is_collected_once_without_polynomial_sums(monkeypatch):
    # a 200-term sum with repeated exponents, minus signs, a parenthesized
    # sum and a term that cancels, gathered into one dict: no + or - of
    # LaurentPolynomial is called
    rng = random.Random(3102)
    pieces, expected = [], {}
    for i in range(200):
        e = (rng.randint(-3, 3), rng.randint(0, 3))
        c = Fraction(rng.randint(1, 9), rng.choice([1, 2, 3]))
        sign = rng.choice([1, -1]) if i else 1
        pieces.append(f"{'+' if sign > 0 else '-'}{c}*x^{e[0]}*y^{e[1]}")
        expected[e] = expected.get(e, 0) + sign * c
    text = "".join(pieces)[1:] + "-(x^9+2*y^9)+x^9"
    expected[(0, 9)] = -2

    def refuse(self, other):
        raise AssertionError("a sum was parsed through LaurentPolynomial arithmetic")

    monkeypatch.setattr(LaurentPolynomial, "__add__", refuse)
    monkeypatch.setattr(LaurentPolynomial, "__sub__", refuse)
    p = parse_expression(text)
    assert p.terms == {e: c for e, c in expected.items() if c}
    assert parse_expression("x-x") == LaurentPolynomial.zero(1)
