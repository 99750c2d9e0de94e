"""Acceptance suite: one test per release criterion, each reporting a single
pass/fail line with its runtime and enforcing the stated time budget."""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from toric_gec import (
    LaurentPolynomial,
    anticanonical_polytope,
    check_initial_factorization,
    check_two_ray_factorization,
    classify_1d,
    divides,
    einstein_check,
    face_descent,
    family_witness,
    gec_check,
    hull,
    mu,
    mu_univariate_factored,
    obstructing_face,
    parse_expression,
    parse_family,
    predicted_np_of_mu,
    standard_hexagon_q,
    substitute_monomial,
)
from helpers import (
    FIGURE2_TRAPEZOID,
    HEXAGON_POINTS,
    TRAPEZOID_POINTS,
    all_interval_polynomials,
    hessian_mu_oracle,
    polynomial_on_support,
    random_cube_polynomial,
    random_product_polynomial,
)

MU_HEXAGON = {
    (2, 0): 1, (1, 1): 2, (0, 2): 1,
    (1, 0): 10, (2, -1): 2, (0, 1): 10, (-1, 2): 2,
    (2, -2): 1, (1, -1): 10, (0, 0): 18, (-1, 1): 10, (-2, 2): 1,
    (1, -2): 2, (0, -1): 10, (-1, 0): 10, (-2, 1): 2,
    (-2, 0): 1, (0, -2): 1, (-1, -1): 2,
}


@contextmanager
def criterion(capsys, num: int, label: str, budget: float | None):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        over = budget is not None and elapsed > budget
        status = "FAIL" if failed or over else "PASS"
        note = f" (budget {budget:.0f}s)" if budget is not None else ""
        with capsys.disabled():
            print(f"criterion {num:02d} [{status}] {label}: {elapsed:.2f}s{note}")
    if budget is not None:
        assert elapsed <= budget, f"criterion {num} took {elapsed:.2f}s > {budget}s"


def _named_failure(report, face):
    target = sorted(tuple(v) for v in face.vertices)
    for entry in report.trace:
        for failure in entry.get("failures", []):
            got = sorted(tuple(v) for v in failure["face"]["vertices"])
            if got == target:
                return failure
    return None


def test_criterion_01(capsys):
    with criterion(capsys, 1, "mu on the simplex and the hexagon", 1.0):
        assert mu(parse_expression("1+x+y")).mu == parse_expression("x*y")
        q = standard_hexagon_q()
        mu_q = mu(q).mu
        assert dict(mu_q.terms) == {e: Fraction(c) for e, c in MU_HEXAGON.items()}
        factors = [
            parse_expression("x^2*y+x*y^2+x^2+6*x*y+y^2+x+y"),
            parse_expression("x+y", rank=2),
            parse_expression("1+x", rank=2),
            parse_expression("1+y", rank=2),
        ]
        product = LaurentPolynomial.monomial((-2, -2), 1)
        for f in factors:
            assert divides(f, mu_q)
            product = product * f
        assert product == mu_q


def test_criterion_02(capsys):
    with criterion(capsys, 2, "septic square coefficients", 1.0):
        p = parse_expression("2+2*x-x^2+2*x^3+2*x^4")
        square = p * p
        expected = [4, 8, 0, 4, 17, 4, 0, 8, 4]
        assert dict(square.terms) == {
            (i,): Fraction(c) for i, c in enumerate(expected) if c
        }


def test_criterion_03(capsys):
    with criterion(capsys, 3, "Newton polytope law on reflexive supports", 30.0):
        rng = random.Random(401)
        for support in (TRAPEZOID_POINTS, HEXAGON_POINTS):
            np_p = hull(support)
            predicted = predicted_np_of_mu(np_p)
            doubled = hull([tuple(2 * x for x in v) for v in np_p.vertices])
            assert predicted == doubled
            for _ in range(50):
                p = polynomial_on_support(rng, support)
                assert hull(mu(p).mu.support()) == predicted


def test_criterion_04(capsys):
    with criterion(capsys, 4, "adjunction along facets and two-ray cones", 60.0):
        rng = random.Random(409)
        for _ in range(100):
            support = rng.choice([TRAPEZOID_POINTS, HEXAGON_POINTS])
            p = polynomial_on_support(rng, support)
            u, _ = rng.choice(hull(support).facets)
            lhs, rhs, equal = check_initial_factorization(p, u)
            assert equal
        for _ in range(20):
            p = random_product_polynomial(rng, 3)
            u, _ = rng.choice(hull(p.support()).facets)
            lhs, rhs, equal = check_initial_factorization(p, u)
            assert equal
        for _ in range(20):
            p = random_product_polynomial(rng, 3)
            axes = rng.sample(range(3), 2)
            u1 = tuple(1 if i == axes[0] else 0 for i in range(3))
            u2 = tuple(1 if i == axes[1] else 0 for i in range(3))
            lhs, rhs, equal = check_two_ray_factorization(p, u1, u2)
            assert equal


def test_criterion_05(capsys):
    with criterion(capsys, 5, "scaling, power, and product laws", None):
        rng = random.Random(419)
        for _ in range(100):
            rank = rng.randint(1, 2)
            p = random_cube_polynomial(rng, rank, rng.randint(2, 5))
            c = Fraction(rng.randint(1, 9), rng.choice([1, 2, 3]))
            m = tuple(rng.randint(-2, 2) for _ in range(rank))
            r = mu(p).rank_r
            lhs = mu(LaurentPolynomial.monomial(m, c) * p).mu
            scale = LaurentPolynomial.monomial(
                tuple((r + 1) * x for x in m), c ** (r + 1)
            )
            assert lhs == scale * mu(p).mu
        for _ in range(100):
            rank = rng.randint(1, 2)
            p = random_cube_polynomial(rng, rank, rng.randint(2, 3))
            lam = rng.choice([2, 3])
            r = mu(p).rank_r
            rhs = (
                LaurentPolynomial.constant(rank, Fraction(lam) ** r)
                * p ** ((r + 1) * (lam - 1))
                * mu(p).mu
            )
            assert mu(p**lam).mu == rhs
        for _ in range(100):
            a = random_cube_polynomial(rng, 1, rng.randint(2, 3), span=1)
            b = random_cube_polynomial(rng, 1, rng.randint(2, 3), span=1)
            ex = substitute_monomial(a, [[1], [0]])
            ey = substitute_monomial(b, [[0], [1]])
            ra, rb = mu(a).rank_r, mu(b).rank_r
            rhs = (
                ex**rb
                * ey**ra
                * substitute_monomial(mu(a).mu, [[1], [0]])
                * substitute_monomial(mu(b).mu, [[0], [1]])
            )
            assert mu(ex * ey).mu == rhs


def test_criterion_06(capsys):
    with criterion(capsys, 6, "segment classification vs direct decision", 60.0):
        values = range(1, 6)
        count = 0
        for d in (1, 2, 3):
            for p in all_interval_polynomials(d, values):
                is_gec, _ = classify_1d(p)
                assert is_gec == (gec_check(p).verdict == "gec-holds")
                count += 1
        rng = random.Random(421)
        for _ in range(125):
            coeffs = [rng.randint(1, 5) for _ in range(5)]
            p = LaurentPolynomial(
                1, {(i,): Fraction(c) for i, c in enumerate(coeffs)}
            )
            is_gec, _ = classify_1d(p)
            assert is_gec == (gec_check(p).verdict == "gec-holds")
            count += 1
        assert count >= 500


def test_criterion_07(capsys):
    with criterion(capsys, 7, "descent obstructs the named families", 120.0):
        hexagon_specs = ["V:k=1", "V:k=2", "V:k=3", "X:m=1,k=0", "X:m=1,k=1",
                         "X:m=2,k=1", "W:m=1"]
        ratio_specs = [("S:m=1,k=1", 1, 1), ("S:m=2,k=1", 2, 1),
                       ("S:m=2,k=2", 2, 2), ("S:m=3,k=2", 3, 2),
                       ("W:m=2", 2, None), ("W:m=3", 3, None)]
        for text in hexagon_specs:
            spec = parse_family(text)
            report = face_descent(anticanonical_polytope(spec))
            assert report.verdict == "gec-fails", text
            named = _named_failure(report, obstructing_face(spec))
            assert named is not None, text
            assert named["test"] == "hexagon", text
        for text, m, k in ratio_specs:
            spec = parse_family(text)
            report = face_descent(anticanonical_polytope(spec))
            assert report.verdict == "gec-fails", text
            named = _named_failure(report, obstructing_face(spec))
            assert named is not None, text
            assert named["test"] == "edge-ratio", text
            ratios = {rec["ratio"] for rec in named["data"]["edges"]}
            assert len(ratios) > 1, text
            closure = ratios | {1 / r for r in ratios}
            if k is not None:
                assert Fraction(m + 1, m + k + 1) in closure, text
                assert 1 in closure, text
            else:
                assert Fraction(m + 1, m) in closure, text
                assert 2 in closure, text


def test_criterion_08(capsys):
    with criterion(capsys, 8, "high-dimensional counterexample polytopes", 60.0):
        spec = parse_family("NP1")
        face = obstructing_face(spec)
        e = lambda i, n: tuple(1 if j == i else 0 for j in range(n))
        assert face.chart_basis == (e(0, 7), e(6, 7))
        assert sorted(face.chart_polytope().vertices) == sorted(FIGURE2_TRAPEZOID)
        report = face_descent(anticanonical_polytope(spec))
        assert report.verdict == "gec-fails"
        named = _named_failure(report, face)
        assert named is not None and named["test"] == "edge-ratio"

        spec = parse_family("NP2")
        face = obstructing_face(spec)
        assert face.chart_basis == (e(6, 8), e(7, 8))
        mirrored = [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)]
        assert sorted(face.chart_polytope().vertices) == mirrored
        report = face_descent(anticanonical_polytope(spec))
        assert report.verdict == "gec-fails"
        named = _named_failure(report, face)
        assert named is not None and named["test"] == "hexagon"


def test_criterion_09(capsys):
    with criterion(capsys, 9, "positive controls stay unobstructed", 30.0):
        for text in ["P:n=1", "P:n=2", "P:n=3",
                     "Prod:P1^1", "Prod:P1^2", "Prod:P1^3", "Prod:P1^4"]:
            spec = parse_family(text)
            report = face_descent(anticanonical_polytope(spec))
            assert report.verdict == "inconclusive", text
            p, lam = family_witness(spec)
            assert einstein_check(p, lam).holds, text


def test_criterion_10(capsys):
    with criterion(capsys, 10, "univariate closed form and Hessian oracle", 120.0):
        rng = random.Random(431)
        for _ in range(100):
            c = Fraction(rng.randint(1, 9), rng.choice([1, 2, 3]))
            m = rng.randint(-3, 3)
            pool = sorted({Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2)})
            xis = rng.sample(pool, rng.randint(1, 3))
            factors = [(xi, rng.randint(1, 3)) for xi in xis]
            expanded = LaurentPolynomial.monomial((m,), c)
            for xi, exp in factors:
                binom = LaurentPolynomial(1, {(1,): Fraction(1), (0,): xi})
                expanded = expanded * binom**exp
            assert mu_univariate_factored(c, m, factors) == mu(expanded).mu
        count = 0
        while count < 30:
            rank = rng.randint(1, 2)
            p = random_cube_polynomial(rng, rank, rng.randint(2, 5))
            try:
                expected = hessian_mu_oracle(p)
            except ValueError:
                continue
            assert mu(p).mu == expected
            count += 1
