"""GEC decisions, the Einstein equation, edge obstructions, the hexagon
argument, and hereditary face descent."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from toric_gec import (
    LaurentPolynomial,
    classify_1d,
    edge_ratio_test,
    edge_shape_test,
    einstein_check,
    face_descent,
    faces,
    gec_check,
    hexagon_obstruction,
    hull,
    minimal_kappa,
    parse_expression,
    standard_hexagon_map,
    standard_hexagon_q,
    substitute_monomial,
)
from helpers import (
    FIGURE2_TRAPEZOID,
    HEXAGON_POINTS,
    HEXAGON_VERTICES,
    TRAPEZOID_POINTS,
    polynomial_on_support,
    random_product_polynomial,
    random_unimodular_matrix,
)


def test_gec_check_binomial_power_holds():
    report = gec_check(parse_expression("1+2*x+x^2"))
    assert report.verdict == "gec-holds"
    assert report.witness["divides"] is True


def test_gec_check_generic_quadratic_fails():
    report = gec_check(parse_expression("2+3*x+x^2"))
    assert report.verdict == "gec-fails"
    assert report.witness["test"] == "divisibility"


def test_gec_check_hexagon_fails():
    report = gec_check(standard_hexagon_q())
    assert report.verdict == "gec-fails"
    assert report.witness["kappa_star"] == 6


def test_gec_check_positive_cases():
    assert gec_check(parse_expression("1+x+y")).verdict == "gec-holds"
    assert gec_check(parse_expression("(1+x)*(1+y)")).verdict == "gec-holds"
    assert gec_check(parse_expression("5*x^2*y^-1")).verdict == "gec-holds"


def test_gec_check_rejects_non_unimodular():
    with pytest.raises(ValueError):
        gec_check(parse_expression("1+x^2"))
    with pytest.raises(ValueError):
        gec_check(LaurentPolynomial.zero(1))


def test_kappa_star_is_sound():
    # The single divisibility test at kappa* agrees with the linear search.
    rng = random.Random(307)
    for _ in range(50):
        if rng.random() < 0.5:
            p = random_product_polynomial(rng, rng.randint(1, 2))
        else:
            p = polynomial_on_support(rng, rng.choice([HEXAGON_POINTS, TRAPEZOID_POINTS]))
        report = gec_check(p)
        kappa = minimal_kappa(p)
        assert (report.verdict == "gec-holds") == (kappa is not None)
        if kappa is not None:
            assert kappa <= report.witness["kappa_star"]


def test_gec_check_equivariance():
    # Composing many random row operations inflates exponents and with them
    # the kappa* power, so stick to single shears, swaps, and reflections.
    rng = random.Random(311)
    q = standard_hexagon_q()
    good = parse_expression("(1+x)*(1+y)")
    maps = [
        [[1, 1], [0, 1]],
        [[1, 0], [1, 1]],
        [[1, -1], [0, 1]],
        [[0, 1], [1, 0]],
        [[-1, 0], [0, 1]],
        [[0, -1], [-1, 0]],
    ]
    for u in maps:
        c = Fraction(rng.randint(1, 9), rng.choice([1, 2, 3]))
        m = (rng.randint(-3, 3), rng.randint(-3, 3))
        shift = LaurentPolynomial.monomial(m, c)
        assert gec_check(substitute_monomial(q * shift, u)).verdict == "gec-fails"
        assert gec_check(substitute_monomial(good * shift, u)).verdict == "gec-holds"


def test_einstein_projective_space_witnesses():
    for n in range(1, 5):
        names = ["x", "y", "z"] if n <= 3 else [f"x{i}" for i in range(1, n + 1)]
        p = parse_expression("1+" + "+".join(names[:n]), rank=n)
        res = einstein_check(p, n + 1)
        assert res.holds
        assert res.scalar == 1
        assert res.shift == (1,) * n


def test_einstein_product_of_lines_witnesses():
    for k in range(1, 5):
        p = parse_expression(
            "*".join(f"(1+x{i})" for i in range(1, k + 1)), rank=k
        )
        res = einstein_check(p, 2)
        assert res.holds
        assert res.shift == (1,) * k


def test_einstein_veronese_segment():
    res = einstein_check(parse_expression("(1+x)^2"), 1)
    assert res.holds and res.scalar == 2


def test_einstein_wrong_lambda_fails():
    assert not einstein_check(parse_expression("(1+x)*(1+y)"), 3).holds
    assert not einstein_check(parse_expression("1+x+y"), 2).holds


def test_einstein_no_lambda_fixed_point():
    # mu(p) = p exactly for p = x^-1 (x + 1/2)^2 / 1, scaled so c = 1.
    p = parse_expression("x^-1*(x+1/2)^2")
    res = einstein_check(p)
    assert res.holds
    assert not einstein_check(parse_expression("1+x+y")).holds


def test_einstein_rejects_non_integer_lambda():
    with pytest.raises(ValueError):
        einstein_check(parse_expression("1+x"), Fraction(3, 2))


def test_classify_1d_examples():
    ok, data = classify_1d(parse_expression("1+2*x+x^2"))
    assert ok and data == (1, 0, 1, 2)
    ok, data = classify_1d(parse_expression("2+3*x+x^2"))
    assert not ok and data is None
    ok, data = classify_1d(parse_expression("7*x^-3"))
    assert ok and data == (7, -3, None, 0)


def test_classify_1d_recovers_binomial_data():
    p = parse_expression("4*x^3*(x+1/2)^5")
    ok, data = classify_1d(p)
    assert ok
    c, m, xi, nu = data
    assert (c, m, xi, nu) == (4, 3, Fraction(1, 2), 5)


def test_classify_1d_out_of_hypothesis():
    with pytest.raises(ValueError):
        classify_1d(parse_expression("1+x^3+x^4"))
    with pytest.raises(ValueError):
        classify_1d(parse_expression("1+x+y"))


def test_classify_1d_agrees_with_divisibility():
    rng = random.Random(313)
    for _ in range(60):
        d = rng.randint(1, 4)
        coeffs = [rng.randint(1, 5) for _ in range(d + 1)]
        p = LaurentPolynomial(1, {(i,): Fraction(c) for i, c in enumerate(coeffs)})
        is_gec, _ = classify_1d(p)
        assert is_gec == (gec_check(p).verdict == "gec-holds")


def test_edge_shape_test_on_hexagon():
    q = standard_hexagon_q()
    np_q = hull(q.support())
    for e in faces(np_q, 1):
        ok, xi = edge_shape_test(q, e)
        assert ok and xi == 1


def test_edge_shape_test_detects_mismatch():
    # Perturbing one vertex coefficient breaks the shared-root condition
    # on the two edges through that vertex.
    q = standard_hexagon_q()
    terms = dict(q.terms)
    terms[(1, 0)] = Fraction(7)
    p = LaurentPolynomial(2, terms)
    np_p = hull(p.support())
    results = [edge_shape_test(p, e)[0] for e in faces(np_p, 1)]
    assert not all(results)


def test_edge_ratio_test_trapezoid():
    ok, records = edge_ratio_test(hull(FIGURE2_TRAPEZOID))
    assert not ok
    ratios = sorted(r["ratio"] for r in records if r["ratio"] is not None)
    assert ratios == [Fraction(2, 3), 1, 1, 2]


def test_edge_ratio_test_hexagon_and_square():
    ok, records = edge_ratio_test(hull(HEXAGON_VERTICES))
    assert ok
    assert {r["ratio"] for r in records} == {2}
    square = hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    ok, records = edge_ratio_test(square)
    assert ok
    assert {r["ratio"] for r in records} == {1}


def test_edge_ratio_accepts_polynomial_argument():
    q = standard_hexagon_q()
    ok, _ = edge_ratio_test(q)
    assert ok


def test_standard_hexagon_map_identity_and_images():
    rng = random.Random(331)
    h = hull(HEXAGON_VERTICES)
    res = standard_hexagon_map(h)
    assert res is not None
    t, n = res
    assert t == (0, 0)
    for _ in range(20):
        m = random_unimodular_matrix(rng, 2)
        shift = (rng.randint(-3, 3), rng.randint(-3, 3))
        img = [
            (
                m[0][0] * x + m[0][1] * y + shift[0],
                m[1][0] * x + m[1][1] * y + shift[1],
            )
            for x, y in HEXAGON_VERTICES
        ]
        res = standard_hexagon_map(hull(img))
        assert res is not None
        t, n_rows = res
        mapped = sorted(
            (
                n_rows[0][0] * (x - t[0]) + n_rows[0][1] * (y - t[1]),
                n_rows[1][0] * (x - t[0]) + n_rows[1][1] * (y - t[1]),
            )
            for x, y in img
        )
        assert mapped == sorted(HEXAGON_VERTICES)


def test_standard_hexagon_map_rejects_non_hexagons():
    assert standard_hexagon_map(hull([(0, 0), (1, 0), (0, 1), (1, 1)])) is None
    # Six vertices but the wrong shape: a stretched hexagon.
    stretched = [(0, -1), (2, -1), (2, 0), (0, 1), (-2, 1), (-2, 0)]
    assert standard_hexagon_map(hull(stretched)) is None


def test_hexagon_obstruction_reference_polynomial():
    report = hexagon_obstruction(standard_hexagon_q())
    assert report.verdict == "gec-fails"
    assert report.witness["test"] == "hexagon-reduction"
    assert report.witness["reduced_to_q"] is True
    assert report.witness["certificate"]["divides"] is False


def test_hexagon_obstruction_center_violation():
    q = standard_hexagon_q()
    p = q + LaurentPolynomial.constant(2, 1)
    report = hexagon_obstruction(p)
    assert report.verdict == "gec-fails"
    assert report.witness["test"] == "hexagon-overlap"


def test_hexagon_obstruction_missing_center():
    q = standard_hexagon_q()
    p = q - LaurentPolynomial.constant(2, 2)
    report = hexagon_obstruction(p)
    assert report.verdict == "gec-fails"


def test_hexagon_obstruction_equivariance():
    rng = random.Random(337)
    q = standard_hexagon_q()
    for _ in range(10):
        c = Fraction(rng.randint(1, 9), rng.choice([1, 2, 3]))
        m = (rng.randint(-2, 2), rng.randint(-2, 2))
        p = q * LaurentPolynomial.monomial(m, c)
        assert hexagon_obstruction(p).verdict == "gec-fails"


def test_hexagon_obstruction_generic_coefficients():
    rng = random.Random(347)
    for _ in range(20):
        p = polynomial_on_support(rng, HEXAGON_POINTS)
        assert hexagon_obstruction(p).verdict == "gec-fails"
        assert gec_check(p).verdict == "gec-fails"


def test_hexagon_obstruction_rejects_other_supports():
    with pytest.raises(ValueError):
        hexagon_obstruction(parse_expression("1+x+y+x*y"))


def test_face_descent_positive_controls_polytope_mode():
    simplex = hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
    assert face_descent(simplex).verdict == "inconclusive"
    cube = hull([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    assert face_descent(cube).verdict == "inconclusive"


def test_face_descent_decisive_with_polynomial():
    p = parse_expression("(1+x)*(1+y)*(1+z)")
    delta = hull(p.support())
    report = face_descent(delta, p, d_max=3)
    assert report.verdict == "gec-holds"
    report = face_descent(delta, p, d_max=2)
    assert report.verdict == "inconclusive"


def test_face_descent_hexagon_polynomial():
    q = standard_hexagon_q()
    report = face_descent(hull(q.support()), q)
    assert report.verdict == "gec-fails"
    tests_fired = {f["test"] for f in report.trace[-1]["failures"]}
    assert "hexagon" in tests_fired


def test_face_descent_trapezoid_polytope_mode():
    report = face_descent(hull(FIGURE2_TRAPEZOID))
    assert report.verdict == "gec-fails"
    assert report.witness["test"] == "edge-ratio"


def test_face_descent_rejects_mismatched_polynomial():
    with pytest.raises(ValueError):
        face_descent(hull(FIGURE2_TRAPEZOID), parse_expression("1+x+y"))


def test_report_serialization():
    report = gec_check(standard_hexagon_q())
    obj = report.to_obj()
    assert obj["verdict"] == "gec-fails"
    text = report.to_json()
    assert "kappa_star" in text
