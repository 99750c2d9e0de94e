"""Expression parsing and printing for the CLI surface."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from toric_gec import ExpressionError, format_expression, parse_expression
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
