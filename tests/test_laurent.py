"""Laurent polynomial ring: arithmetic, division, normalization, JSON."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from toric_gec import (
    LaurentPolynomial,
    divides,
    exact_quotient,
    hull,
    least_dividing_power,
    monomial_normalize,
    parse_expression,
    substitute_monomial,
)
from toric_gec import laurent as laurent_module
from helpers import (
    primitive_part,
    random_cube_polynomial,
    reference_least_power,
    slow_divides,
    slow_quotient,
)


def test_constructor_canonicalizes():
    p = LaurentPolynomial(2, {(0, 0): Fraction(0), (1, 0): Fraction(2)})
    assert len(p) == 1
    assert p.coefficient((0, 0)) == 0
    assert p.coefficient((1, 0)) == 2


def test_inexact_inputs_are_rejected():
    for bad in (0.1, True):
        with pytest.raises(ValueError):
            LaurentPolynomial(1, {(1,): bad})
    for e in ((1.7,), ("1",), (True,)):
        with pytest.raises(ValueError):
            LaurentPolynomial(1, {e: 1})
    with pytest.raises(ValueError):
        LaurentPolynomial.monomial((True, 0))
    for e in ([1.7], [True]):
        with pytest.raises(ValueError):
            LaurentPolynomial.from_obj({"rank": 1, "terms": [{"e": e, "c": "1"}]})
    for rank in (2.7, True):
        with pytest.raises(ValueError):
            LaurentPolynomial.from_obj({"rank": rank, "terms": [{"e": [1], "c": "1"}]})
    # a payload coefficient is an exact string or rational, never a float
    for c in (0.1, 1.0):
        with pytest.raises(ValueError):
            LaurentPolynomial.from_obj({"rank": 1, "terms": [{"e": [1], "c": c}]})
    # a JSON number is the decimal it spells, not the nearest binary float
    # (1/10 for the first, inf for the second)
    for literal in ("0.10000000000000000001", "1e400"):
        text = f'{{"rank": 1, "terms": [{{"e": [1], "c": {literal}}}]}}'
        assert LaurentPolynomial.from_json(text).coefficient((1,)) == Fraction(literal)
    for build in (
        lambda: LaurentPolynomial(2.0, {(1, 0): 1}),
        lambda: LaurentPolynomial(True, {(1,): 1}),
        lambda: LaurentPolynomial.zero(2.0),
    ):
        with pytest.raises(ValueError):
            build()
    with pytest.raises(ValueError):
        parse_expression("1+x").scale(0.5)
    for e in ((0.5, 0), (True, 0), (1,), (1, 0, 0)):
        with pytest.raises(ValueError):
            parse_expression("1+x+y").restrict([e])
    p = parse_expression("2+3*x")
    for bad in (2.0, True):
        with pytest.raises(TypeError):
            p**bad
    for e in ((1.0,), (True,), (1, 0), ()):
        with pytest.raises(ValueError):
            p.coefficient(e)


def test_products_with_scalars_coerce_as_sums_do():
    # a non-polynomial operand of * goes through the scalar coercion of +:
    # a float raises ValueError, an exact rational scales, and an operand
    # that is no number raises the TypeError of Fraction
    from decimal import Decimal

    p = parse_expression("2+3*x")
    for scalar in (1.5, 0.0):
        for op in (p.__add__, p.__mul__, lambda s: s + p, lambda s: s * p):
            with pytest.raises(ValueError):
                op(scalar)
    assert p * Decimal(2) == Decimal(2) * p == p.scale(2) == p + p
    assert p * Decimal("0.5") == p.scale(Fraction(1, 2))
    assert p * Decimal(0) == LaurentPolynomial.zero(1)
    for op in (p.__add__, p.__mul__, lambda s: s + p, lambda s: s * p):
        with pytest.raises(TypeError):
            op(None)


def test_basic_constructors():
    z = LaurentPolynomial.zero(3)
    assert z.is_zero() and z.rank == 3
    c = LaurentPolynomial.constant(2, Fraction(5, 3))
    assert c.coefficient((0, 0)) == Fraction(5, 3)
    x1 = LaurentPolynomial.variable(2, 0)
    assert x1.coefficient((1, 0)) == 1
    m = LaurentPolynomial.monomial((-1, 2), 7)
    assert m.coefficient((-1, 2)) == 7


def test_variable_rejects_bad_ranks_and_indices():
    # the index must name one of the rank variables, and both must be exact
    # ints: an index out of range would give the constant 1, and a bool or
    # float would be read as an int
    assert LaurentPolynomial.variable(2, 1).terms == {(0, 1): 1}
    assert LaurentPolynomial.variable(1, 0).terms == {(1,): 1}
    for rank, index in [(2, 5), (2, 2), (2, -1), (0, 0), (2, True), (2, 1.0), (2.0, 0), (True, 0)]:
        with pytest.raises(ValueError):
            LaurentPolynomial.variable(rank, index)


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(500):
        rank = rng.randint(1, 4)
        a = random_cube_polynomial(rng, rank, rng.randint(1, 4))
        b = random_cube_polynomial(rng, rank, rng.randint(1, 4))
        c = random_cube_polynomial(rng, rank, rng.randint(1, 4))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == LaurentPolynomial.zero(rank)
        assert a * LaurentPolynomial.constant(rank, 1) == a


def test_pow_matches_repeated_multiplication():
    rng = random.Random(7)
    p = random_cube_polynomial(rng, 2, 3)
    acc = LaurentPolynomial.constant(2, 1)
    for k in range(5):
        assert p**k == acc
        acc = acc * p


def test_pow_makes_only_the_square_and_multiply_products(monkeypatch):
    # p**k squares up to the top bit of k and multiplies once for every
    # other set bit, starting from the lowest power it needs, never from 1:
    # p**1, p**2, p**4 and p**8 make 0, 1, 2 and 3 products
    p = parse_expression("1+x-2*y^-1")
    mul = LaurentPolynomial.__mul__
    powers = [LaurentPolynomial.constant(2, 1)]
    for _ in range(12):
        powers.append(mul(powers[-1], p))
    calls = []

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(LaurentPolynomial, "__mul__", counted)
    for k, expected in enumerate(powers):
        calls.clear()
        assert p**k == expected
        assert len(calls) == (k.bit_length() + bin(k).count("1") - 2 if k else 0), k


def test_monomial_powers_take_the_closed_form(monkeypatch):
    # (c chi^e)^k = c^k chi^(k e) for every k, with no product: x^60 made 8
    # products by square-and-multiply
    mul = LaurentPolynomial.__mul__
    calls = []

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    for c in (Fraction(1), Fraction(-2, 3), Fraction(7, 5)):
        m = LaurentPolynomial.monomial((2, -1, 0), c)
        inverse = LaurentPolynomial.monomial((-2, 1, 0), 1 / c)
        for k in range(-3, 61):
            expected = LaurentPolynomial.constant(3, 1)
            for _ in range(abs(k)):
                expected = mul(expected, m if k > 0 else inverse)
            monkeypatch.setattr(LaurentPolynomial, "__mul__", counted)
            calls.clear()
            assert m**k == expected, (c, k)
            assert calls == []
            monkeypatch.setattr(LaurentPolynomial, "__mul__", mul)
    assert LaurentPolynomial.constant(2, Fraction(-1, 2)) ** 0 == LaurentPolynomial.constant(2, 1)


def test_negative_power_only_for_monomials():
    m = LaurentPolynomial.monomial((1, -2), Fraction(2))
    inv = m**-1
    assert inv.coefficient((-1, 2)) == Fraction(1, 2)
    p = parse_expression("1+x")
    with pytest.raises(ValueError):
        p**-1


def test_leading_term_graded_lex():
    p = parse_expression("x^2+x*y+y^2+x")
    e, c = p.leading_term()
    assert e == (2, 0) and c == 1


def test_min_exponents_additive_under_product():
    rng = random.Random(31)
    for _ in range(100):
        a = random_cube_polynomial(rng, 3, rng.randint(1, 4))
        b = random_cube_polynomial(rng, 3, rng.randint(1, 4))
        prod_min = (a * b).min_exponents()
        want = tuple(x + y for x, y in zip(a.min_exponents(), b.min_exponents()))
        # Per coordinate the extreme terms form initial parts, and a product
        # of nonzero initial parts cannot cancel in an integral domain.
        assert prod_min == want


def test_divides_on_constructed_multiples():
    rng = random.Random(53)
    for _ in range(200):
        rank = rng.randint(1, 3)
        g = random_cube_polynomial(rng, rank, rng.randint(1, 3))
        h = random_cube_polynomial(rng, rank, rng.randint(1, 3))
        f = g * h
        assert divides(g, f)
        assert exact_quotient(g, f) == h


def test_divides_rejects_non_multiples():
    p = parse_expression("1+x+y")
    q = parse_expression("1+x")
    two_var_q = substitute_monomial(q, [[1], [0]])
    assert not divides(two_var_q, p)
    assert not divides(parse_expression("1+x"), parse_expression("1+x^3+x^4"))
    # Laurent units never matter.
    assert divides(parse_expression("x^-1+1"), parse_expression("1+2*x+x^2"))


def test_divides_univariate_specialization():
    # (x+1)(x+2)(x+3) and its factors
    f = parse_expression("(x+1)*(x+2)*(x+3)")
    assert divides(parse_expression("x+2"), f)
    assert divides(parse_expression("(x+1)*(x+3)"), f)
    assert not divides(parse_expression("x+4"), f)
    assert not divides(parse_expression("(x+1)^2"), f)


def test_exact_quotient_returns_none_on_failure():
    assert exact_quotient(parse_expression("1+x"), parse_expression("1+x+x^2")) is None


def test_division_stops_where_the_leading_coefficient_does_not_divide(monkeypatch):
    # x^2 divides the leading term 3x^2 of (3x+1)(x+2), but 9 does not
    # divide 3: the kernel gives up on that first term, after one step
    steps = []
    kernel = laurent_module._divide

    def counting_divide(work, lt, lc, tail, codes):
        out = kernel(work, lt, lc, tail, codes)
        steps.append((lc, len(work)))
        return out

    monkeypatch.setattr(laurent_module, "_divide", counting_divide)
    g, f = parse_expression("(3*x+1)^2"), parse_expression("(3*x+1)*(x+2)")
    assert exact_quotient(g, f) is None
    # the kernel consumed only the leading term of the 3-term dividend
    assert steps == [(9, 2)]


def test_evaluation_bound_is_the_least_power_of_the_values():
    # in rank 0 both evaluation points give the constants themselves, so
    # the bound is the least k with m | v^k, or None past k_max
    bound = laurent_module._evaluation_bound
    for m in range(1, 61):
        for v in (-12, -5, -1, 1, 2, 6, 10, 30, 49):
            least = next((k for k in range(8) if v**k % m == 0), None)
            for k_max in range(-1, 8):
                expected = least if least is not None and least <= k_max else None
                assert bound({(): m}, {(): v}, 0, k_max) == expected, (m, v, k_max)
                assert bound({(): -m}, {(): v}, 0, k_max) == expected


def test_monomial_normalize_roundtrip():
    rng = random.Random(83)
    for _ in range(100):
        p = random_cube_polynomial(rng, 2, rng.randint(1, 5))
        q, shift = monomial_normalize(p)
        assert q.min_exponents() == (0, 0)
        back = q * LaurentPolynomial.monomial(shift.exponent)
        assert back == p


def test_newton_polytope_additivity():
    rng = random.Random(97)
    for _ in range(60):
        a = random_cube_polynomial(rng, 2, rng.randint(2, 5))
        b = random_cube_polynomial(rng, 2, rng.randint(2, 5))
        np_a = hull(a.support())
        np_b = hull(b.support())
        np_ab = hull((a * b).support())
        mink = hull(
            [tuple(x + y for x, y in zip(u, v)) for u in np_a.vertices for v in np_b.vertices]
        )
        assert np_ab == mink


def test_json_roundtrip():
    rng = random.Random(13)
    for _ in range(50):
        p = random_cube_polynomial(rng, rng.randint(1, 3), rng.randint(1, 5))
        assert LaurentPolynomial.from_json(p.to_json()) == p


def test_restrict_by_predicate_and_by_set():
    p = parse_expression("1+x+y+x*y")
    only_diag = p.restrict({(0, 0), (1, 1)})
    assert sorted(only_diag.terms) == [(0, 0), (1, 1)]
    no_constant = p.restrict(lambda e: any(e))
    assert (0, 0) not in no_constant.terms and len(no_constant) == 3


def test_square_of_mixed_sign_quartic():
    p = parse_expression("2+2*x-x^2+2*x^3+2*x^4")
    sq = p * p
    expected = {0: 4, 1: 8, 2: 0, 3: 4, 4: 17, 5: 4, 6: 0, 7: 8, 8: 4}
    for i, c in expected.items():
        assert sq.coefficient((i,)) == c
    assert all(0 <= e[0] <= 8 for e in sq.terms)


def test_substitute_monomial_composition():
    p = parse_expression("1+x+y")
    a = [[1, 1], [0, 1]]
    b = [[1, 0], [2, 1]]
    ab = [[1, 1], [2, 3]]
    lhs = substitute_monomial(substitute_monomial(p, a), b)
    rhs = substitute_monomial(p, ab)
    assert lhs == rhs


def test_substitute_monomial_scalars():
    p = parse_expression("x+y")
    q = substitute_monomial(
        p, [[1, 0], [0, 1]], scalars=[Fraction(2), Fraction(1, 3)]
    )
    assert q.coefficient((1, 0)) == 2
    assert q.coefficient((0, 1)) == Fraction(1, 3)
    with pytest.raises(ValueError):
        substitute_monomial(p, [[1, 0], [0, 1]], scalars=[0, 1])


def test_substitute_monomial_parses_its_matrix():
    # each row holds exactly one exact integer per variable of p
    p = parse_expression("1+x+y")
    for matrix in ([[1, 0], [0, 1, 5]], [[True, 0], [0, 1]], [[1, 0], [0]]):
        with pytest.raises(ValueError):
            substitute_monomial(p, matrix)
    # no rows at all: every variable goes to its scalar
    assert substitute_monomial(p, [], [2, Fraction(1, 3)]) == LaurentPolynomial.constant(0, Fraction(10, 3))


def test_terms_are_immutable():
    p = parse_expression("1+x")
    with pytest.raises((TypeError, AttributeError)):
        p.terms = {}


def test_terms_mapping_is_read_only():
    p = parse_expression("1+x")
    before = hash(p)
    with pytest.raises(TypeError):
        p.terms[(0,)] = 5
    with pytest.raises(TypeError):
        del p.terms[(1,)]
    assert hash(p) == before and p == parse_expression("1+x")
    assert dict(p.terms) == {(0,): 1, (1,): 1}


def _is_canonical(p: LaurentPolynomial) -> bool:
    """Terms as the public constructor would store them: plain int tuples
    of length rank mapped to nonzero Fractions."""
    return all(
        len(e) == p.rank
        and all(type(x) is int for x in e)
        and type(c) is Fraction
        and c != 0
        for e, c in p.terms.items()
    )


def test_arithmetic_results_are_canonical():
    # sums, products, powers, restrictions, quotients and substitutions skip
    # the exponent parse of the public constructor, so check that they need
    # none; the JSON reader collects repeated exponents like the constructor
    rng = random.Random(307)
    for _ in range(60):
        rank = rng.randint(1, 3)
        a = random_cube_polynomial(rng, rank, rng.randint(1, 5))
        b = random_cube_polynomial(rng, rank, rng.randint(1, 5))
        results = [a + b, a - a, -a, a * b, a.scale(Fraction(-3, 7)), a**3, b**0]
        results.append(a.restrict(lambda e: e[0] >= 0))
        results.append(monomial_normalize(a)[0])
        results.append(exact_quotient(b, a * b))
        if a.is_monomial():
            results.append(a**-2)
        rows = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rng.randint(0, 3))]
        results.append(substitute_monomial(a, rows))
        results.append(substitute_monomial(b, rows, [rng.choice((-2, Fraction(1, 3))) for _ in range(rank)]))
        # repeated exponents in a payload are summed, and a - a cancels
        payload = {"rank": rank, "terms": [t for q in (a, b, -a) for t in q.to_obj()["terms"]]}
        results.append(LaurentPolynomial.from_obj(payload))
        for q in results:
            assert _is_canonical(q)
            assert q == LaurentPolynomial(q.rank, dict(q.terms))
        assert a - a == LaurentPolynomial.zero(rank)
        assert exact_quotient(b, a * b) == a
        assert LaurentPolynomial.from_obj(payload) == b
    # a substitution whose images collide and cancel
    q = substitute_monomial(parse_expression("x-y+2"), [[1, 1]])
    assert _is_canonical(q) and dict(q.terms) == {(0,): 2}


# -- the packed division kernel -------------------------------------------


@pytest.mark.parametrize("degree", [7, 8, 15, 16])
def test_guard_bits_decide_monomial_divisibility(degree):
    # every pair of exponents with total degree <= degree, at the largest
    # degree a width holds (2^(w-1) - 1) and at the first one that widens it;
    # sum(e) >= sum(lt) with a smaller low or middle coordinate must borrow
    codes = laurent_module._Codes(2, degree)
    assert degree < 1 << (codes.width - 1) <= 2 * degree + 1
    exps = [(a, b) for a in range(degree + 1) for b in range(degree + 1 - a)]
    packed = {e: next(iter(codes.pack({e: 1}))) for e in exps}
    assert sorted(exps, key=lambda e: (sum(e), e)) == sorted(exps, key=packed.get)
    borrows = 0
    for e in exps:
        for lt in exps:
            d = packed[e] - packed[lt]
            fits = d >= 0 and not d & codes.guards
            assert fits == (e[0] >= lt[0] and e[1] >= lt[1])
            borrows += sum(e) >= sum(lt) and not fits
            if fits:
                assert codes.unpack({d: 1}) == {(e[0] - lt[0], e[1] - lt[1]): 1}
    assert borrows


def test_guard_bits_borrow_from_low_and_middle_fields():
    # rank 3 at the width boundary: the divisor's degree is smaller, but a
    # low (last) or middle coordinate of the dividend is smaller than its own
    for degree in (7, 8):
        codes = laurent_module._Codes(3, degree)
        for e, lt in [
            ((degree, 0, 0), (0, 0, 1)),
            ((degree - 1, 0, 1), (0, 1, 0)),
            ((0, degree, 0), (1, 0, 0)),
            ((3, 0, 2), (1, 1, 1)),
            ((degree - 2, 2, 0), (degree - 3, 0, 1)),
        ]:
            (a,), (b,) = codes.pack({e: 1}), codes.pack({lt: 1})
            d = a - b
            assert sum(e) >= sum(lt) and d >= 0 and d & codes.guards


def test_divides_matches_long_division_on_random_inputs():
    # ranks 1-5, Laurent shifts, constant divisors, divisors of larger degree
    # and rational coefficients, against the Fraction long division
    rng = random.Random(1901)
    outcomes = set()
    for trial in range(250):
        rank = 1 + trial % 5
        g = random_cube_polynomial(rng, rank, rng.randint(1, 3), span=1)
        h = random_cube_polynomial(rng, rank, rng.randint(1, 3), span=1)
        candidates = [g * h, g * h + random_cube_polynomial(rng, rank, 1), h]
        if trial % 7 == 0:
            g = LaurentPolynomial.monomial((0,) * rank, Fraction(rng.randint(-9, 9) or 1, 7))
        for f in candidates:
            want = slow_quotient(g, f)
            assert exact_quotient(g, f) == want
            assert divides(g, f) == slow_divides(g, f) == (want is not None)
            outcomes.add(want is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("total", [15, 16, 31, 32])
def test_exact_division_at_the_width_boundary(total):
    # total degrees 2^(w-1) - 1 and 2^(w-1): the first fills every field of
    # its width, the second needs one bit more
    g = parse_expression(f"x^{total - 3}*y*z + 2*x*y + 3")
    h = parse_expression("x + y + z")
    f = g * h
    assert monomial_normalize(f)[0].total_degree() == total
    assert exact_quotient(g, f) == h
    assert not divides(g, f + parse_expression(f"y^{total}", 3))
    assert exact_quotient(h, f) == g
    assert exact_quotient(g * g, f * g) == h


@pytest.mark.parametrize(
    "g, least",
    [
        ("(1+x)^2*(1+y)", 2),
        ("(1+x)*(1+y)*(2+z)", None),
        ("(1+x)^2*(1+y)^2", 2),
        ("(1+x)^2*(1+y)*(2+z)", None),
    ],
)
def test_least_dividing_power_at_the_width_boundary(g, least):
    # deg g + k_max * deg f is 15 = 2^(w-1) - 1 or 16 = 2^(w-1)
    f = parse_expression("(1+x)*(1+y)*(1+z)")
    g = parse_expression(g, 3)
    assert monomial_normalize(g)[0].total_degree() + 4 * 3 in (15, 16)
    assert least_dividing_power(g, f, 4) == reference_least_power(g, f, 4) == least


def test_least_dividing_power_matches_explicit_powers_in_ranks_one_to_five():
    # random divisors that divide a power or do not, with Laurent shifts
    rng = random.Random(1907)
    found = set()
    for trial in range(40):
        rank = 1 + trial % 5
        f = random_cube_polynomial(rng, rank, rng.randint(1, 3), span=1)
        g = f ** rng.randint(0, 2) * LaurentPolynomial.monomial(
            tuple(rng.randint(-2, 2) for _ in range(rank)), rng.randint(1, 5)
        )
        if trial % 3 == 0:
            g = g * random_cube_polynomial(rng, rank, 2, span=1)
        least = least_dividing_power(g, f, 3)
        assert least == reference_least_power(g, f, 3)
        found.add(least is None)
    assert found == {True, False}


def test_integer_form_matches_normalize_and_primitive_part():
    # the one-pass integer form against monomial_normalize followed by the
    # primitive part, on Laurent exponents, signed rational coefficients,
    # constants and rank 0; the zero polynomial raises as monomial_normalize
    # does
    rng = random.Random(1729)
    cases = [LaurentPolynomial.constant(0, Fraction(-6, 4)), LaurentPolynomial.constant(2, 3)]
    cases += [
        random_cube_polynomial(rng, 1 + t % 4, rng.randint(1, 7), span=3) for t in range(200)
    ]
    scales = [Fraction(rng.choice((-12, 5, 30)), rng.choice((1, 7, 9))) for _ in range(50)]
    cases += [p.scale(s) for p, s in zip(cases, scales)]
    for p in cases:
        terms, degree, shift, scale = laurent_module._integer_form(p.terms)
        normalized, mono = monomial_normalize(p)
        ref_terms, ref_scale = primitive_part(normalized)
        assert (terms, shift, scale) == (ref_terms, mono.exponent, ref_scale)
        assert degree == normalized.total_degree()
        assert all(type(c) is int for c in terms.values()) and scale > 0
    for f in (lambda p: laurent_module._integer_form(p.terms), monomial_normalize):
        with pytest.raises(ValueError, match="cannot normalize the zero polynomial"):
            f(LaurentPolynomial.zero(2))
