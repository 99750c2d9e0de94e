"""The Monge-Ampere operator: golden values, operator laws, Newton polytope
prediction, adjunction, and the univariate closed form."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from toric_gec import (
    LaurentPolynomial,
    check_initial_factorization,
    check_two_ray_factorization,
    difference_lattice_basis,
    faces,
    hull,
    initial_part,
    mu,
    mu_univariate_factored,
    parse_expression,
    predicted_mu_vertices,
    predicted_np_of_mu,
    standard_hexagon_q,
    substitute_monomial,
    unimodular_support,
)
from helpers import (
    HEXAGON_POINTS,
    TRAPEZOID_POINTS,
    brute_force_mu,
    hessian_mu_oracle,
    polynomial_on_support,
    random_cube_polynomial,
    random_product_polynomial,
    random_unimodular_matrix,
)

# Expansion of the Monge-Ampere polynomial of the standard hexagon element,
# q = x^-1 y^-1 (x+y)(x+1)(y+1) with center coefficient 2.
MU_HEXAGON = {
    (2, 0): 1, (1, 1): 2, (0, 2): 1, (1, 0): 10, (2, -1): 2,
    (0, 1): 10, (-1, 2): 2, (2, -2): 1, (1, -1): 10, (0, 0): 18,
    (-1, 1): 10, (-2, 2): 1, (1, -2): 2, (0, -1): 10, (-2, 1): 2,
    (-2, 0): 1, (0, -2): 1, (-1, -1): 2, (-1, 0): 10,
}


def test_mu_unit_simplex():
    p = parse_expression("1+x+y")
    result = mu(p)
    assert result.mu == parse_expression("x*y")
    assert result.rank_r == 2


def test_mu_monomials_and_constants_are_fixed_points():
    for text in ["5", "5*x^3", "2/3*x*y^-2"]:
        p = parse_expression(text, rank=2)
        assert mu(p).mu == p
        assert mu(p).rank_r == 0


def test_mu_of_zero_rejected():
    with pytest.raises(ValueError):
        mu(LaurentPolynomial.zero(2))


def test_mu_univariate_quadratic():
    p = parse_expression("2+3*x+x^2")
    assert mu(p).mu == parse_expression("6*x+8*x^2+3*x^3")


def test_mu_saturates_the_difference_lattice():
    p = parse_expression("1+x^2")
    assert mu(p).mu == parse_expression("4*x^2")


def test_mu_rank_deficient_diagonal_support():
    p = parse_expression("1+x*y")
    result = mu(p)
    assert result.rank_r == 1
    assert result.mu == parse_expression("x*y")


def test_mu_drops_a_cancelled_integer_sum():
    # x^3 comes from {0, 3} and {1, 2}: 9*1*1 - 1*9*1 = 0
    p = parse_expression("1-9*x+x^2+x^3")
    result = mu(p)
    assert (3,) not in result.mu.terms
    assert result.mu == brute_force_mu(p)
    assert result.mu == parse_expression("-9*x+4*x^2-36*x^4+x^5")


def test_mu_with_coprime_denominators_and_negative_signs():
    coeffs = [Fraction(-3, 7), Fraction(5, 11), Fraction(-2, 13), Fraction(1, 7 * 11)]
    rank2 = LaurentPolynomial(
        2, {e: c for e, c in zip([(0, 0), (1, 0), (0, 1), (2, 1)], coeffs)}
    )
    rank3 = LaurentPolynomial(
        3,
        {
            (0, 0, 0): Fraction(-1, 7),
            (1, 0, 0): Fraction(4, 11),
            (0, 1, 0): Fraction(-6, 13),
            (0, 0, 1): Fraction(9, 7),
            (1, 1, 1): Fraction(-10, 143),
            (2, 0, 1): Fraction(3, 1001),
        },
    )
    for p, r in ((rank2, 2), (rank3, 3)):
        result = mu(p)
        assert result.rank_r == r
        assert result.mu == brute_force_mu(p)


def test_mu_scales_by_the_power_r_plus_one():
    c = Fraction(-7, 11)
    for text in ["2-3*x+1/5*x^2", "1/3+x-1/7*y+x*y", "1+1/2*x-y+1/13*z+x*y*z"]:
        p = parse_expression(text)
        r = mu(p).rank_r
        assert mu(p.scale(c)).mu == mu(p).mu.scale(c ** (r + 1))


def test_mu_keeps_ambient_exponents_on_a_rank_deficient_support():
    # the unit square of the saturated lattice spanned by a and b in Z^4
    a, b = (1, 1, 0, 0), (0, 0, 2, 1)
    ab = tuple(x + y for x, y in zip(a, b))
    c0, ca, cb, cab = Fraction(2), Fraction(-3, 7), Fraction(5), Fraction(1, 11)
    p = LaurentPolynomial(4, {(0, 0, 0, 0): c0, a: ca, b: cb, ab: cab})
    result = mu(p)
    assert result.rank_r == 2
    assert result.mu.rank == 4
    expected = LaurentPolynomial(
        4,
        {
            ab: c0 * ca * cb,
            (2, 2, 2, 1): c0 * ca * cab,
            (1, 1, 4, 2): c0 * cb * cab,
            (2, 2, 4, 2): ca * cb * cab,
        },
    )
    assert result.mu == expected
    assert result.mu == brute_force_mu(p)


def test_mu_hexagon_golden_expansion():
    q = standard_hexagon_q()
    result = mu(q)
    assert dict(result.mu.terms) == {
        e: Fraction(c) for e, c in MU_HEXAGON.items()
    }


def test_scaling_law():
    rng = random.Random(211)
    for _ in range(100):
        rank = rng.randint(1, 2)
        p = random_cube_polynomial(rng, rank, rng.randint(2, 5))
        c = Fraction(rng.randint(1, 9), rng.choice([1, 2, 3]))
        m = tuple(rng.randint(-2, 2) for _ in range(rank))
        r = mu(p).rank_r
        lhs = mu(LaurentPolynomial.monomial(m, c) * p).mu
        rhs = LaurentPolynomial.monomial(
            tuple((r + 1) * x for x in m), c ** (r + 1)
        ) * mu(p).mu
        assert lhs == rhs


def test_power_law():
    rng = random.Random(223)
    for _ in range(100):
        rank = rng.randint(1, 2)
        p = random_cube_polynomial(rng, rank, rng.randint(2, 3))
        lam = rng.choice([2, 3])
        r = mu(p).rank_r
        lhs = mu(p**lam).mu
        rhs = (
            LaurentPolynomial.constant(rank, Fraction(lam) ** r)
            * p ** ((r + 1) * (lam - 1))
            * mu(p).mu
        )
        assert lhs == rhs


def test_product_law_disjoint_variables():
    rng = random.Random(227)
    for _ in range(100):
        a = random_cube_polynomial(rng, 1, rng.randint(2, 3), span=1)
        b = random_cube_polynomial(rng, 1, rng.randint(2, 3), span=1)
        embed_x = lambda q: substitute_monomial(q, [[1], [0]])
        embed_y = lambda q: substitute_monomial(q, [[0], [1]])
        p = embed_x(a) * embed_y(b)
        ra, rb = mu(a).rank_r, mu(b).rank_r
        rhs = (
            embed_x(a) ** rb
            * embed_y(b) ** ra
            * embed_x(mu(a).mu)
            * embed_y(mu(b).mu)
        )
        assert mu(p).mu == rhs


def test_unimodular_substitution_equivariance():
    rng = random.Random(229)
    for _ in range(60):
        p = random_cube_polynomial(rng, 2, rng.randint(2, 5))
        m = random_unimodular_matrix(rng, 2)
        lhs = mu(substitute_monomial(p, m)).mu
        rhs = substitute_monomial(mu(p).mu, m)
        assert lhs == rhs


def test_newton_polytope_prediction_on_reflexive_supports():
    rng = random.Random(233)
    for support in (TRAPEZOID_POINTS, HEXAGON_POINTS):
        np_p = hull(support)
        predicted = predicted_np_of_mu(np_p)
        doubled = hull([(2 * a, 2 * b) for a, b in np_p.vertices])
        assert predicted == doubled
        for _ in range(20):
            p = polynomial_on_support(rng, support)
            computed = hull(mu(p).mu.support())
            assert computed == predicted


def test_mu_vertex_formula():
    rng = random.Random(239)
    for support in (TRAPEZOID_POINTS, HEXAGON_POINTS):
        ok, bases = unimodular_support(support)
        assert ok
        np_p = hull(support)
        want = predicted_mu_vertices(np_p, bases)
        for _ in range(10):
            p = polynomial_on_support(rng, support)
            assert sorted(hull(mu(p).mu.support()).vertices) == want


def test_predicted_np_requires_full_dimension():
    with pytest.raises(ValueError):
        predicted_np_of_mu(hull([(0, 0), (1, 1)]))


def test_initial_part_examples():
    p = parse_expression("1+x+y+x*y")
    assert initial_part(p, [(0, 1)]) == parse_expression("1+x", rank=2)
    assert initial_part(p, [(0, 1), (1, 0)]) == parse_expression("1", rank=2)


def test_initial_part_rejects_rays_of_the_wrong_length():
    """A ray must have length p.rank: one that is longer or shorter raises
    ValueError naming the ray and the rank, and is never truncated."""
    p = parse_expression("1+x+y")
    for rays, bad in [([(1, 0, 0)], (1, 0, 0)), ([(0, 1), (1,)], (1,))]:
        with pytest.raises(ValueError, match=re.escape(f"ray {bad} does not have length 2")):
            initial_part(p, rays)


def test_adjunction_simplex_example():
    lhs, rhs, equal = check_initial_factorization(parse_expression("1+x+y"), (0, 1))
    assert equal
    assert lhs == parse_expression("x*y")


def test_adjunction_hexagon_all_facets():
    q = standard_hexagon_q()
    np_q = hull(q.support())
    for u, _ in np_q.facets:
        lhs, rhs, equal = check_initial_factorization(q, u)
        assert equal


def test_adjunction_random_two_variable():
    rng = random.Random(241)
    for _ in range(100):
        support = rng.choice([TRAPEZOID_POINTS, HEXAGON_POINTS])
        p = polynomial_on_support(rng, support)
        np_p = hull(support)
        u, _ = rng.choice(np_p.facets)
        lhs, rhs, equal = check_initial_factorization(p, u)
        assert equal


def test_adjunction_random_three_variable():
    rng = random.Random(251)
    for _ in range(20):
        p = random_product_polynomial(rng, 3)
        np_p = hull(p.support())
        u, _ = rng.choice(np_p.facets)
        lhs, rhs, equal = check_initial_factorization(p, u)
        assert equal


def test_two_ray_adjunction_three_variable():
    rng = random.Random(257)
    for _ in range(20):
        p = random_product_polynomial(rng, 3)
        np_p = hull(p.support())
        # Coordinate boxes: min-facets in two different axes always meet.
        axes = rng.sample(range(3), 2)
        u1 = tuple(1 if i == axes[0] else 0 for i in range(3))
        u2 = tuple(1 if i == axes[1] else 0 for i in range(3))
        lhs, rhs, equal = check_two_ray_factorization(p, u1, u2)
        assert equal


def test_two_ray_adjunction_at_polygon_vertices():
    # two edges meeting at a vertex v: each strip is the neighbor of v on
    # the other edge, and both sides are the vertex term of mu(p)
    rng = random.Random(263)
    for support in (TRAPEZOID_POINTS, HEXAGON_POINTS):
        np_p = hull(support)
        for _ in range(5):
            p = polynomial_on_support(rng, support)
            for (u1, _), m1 in zip(np_p.facets, np_p.incidence):
                for (u2, _), m2 in zip(np_p.facets, np_p.incidence):
                    if u1 != u2 and m1 & m2:
                        lhs, rhs, equal = check_two_ray_factorization(p, u1, u2)
                        assert equal and len(lhs) == 1


def test_two_ray_adjunction_rejects_facets_that_do_not_meet():
    # facets meet in a codimension-2 face exactly when their incidence rows
    # share a vertex on a polygon: the 9 non-adjacent edge pairs of the
    # hexagon and the 2 of the trapezoid raise, and the adjacent pairs hold
    rng = random.Random(269)
    for support, apart in ((HEXAGON_POINTS, 9), (TRAPEZOID_POINTS, 2)):
        np_p = hull(support)
        p = polynomial_on_support(rng, support)
        pairs = list(combinations(zip(np_p.facets, np_p.incidence), 2))
        raised = 0
        for ((u1, _), m1), ((u2, _), m2) in pairs:
            if m1 & m2:
                assert check_two_ray_factorization(p, u1, u2)[2]
            else:
                with pytest.raises(ValueError, match="codimension 2"):
                    check_two_ray_factorization(p, u1, u2)
                raised += 1
        assert raised == apart
        assert len(pairs) - raised == len(np_p.facets)
    # two opposite facets of the cube share no vertex, and two facets of the
    # octahedron that share one vertex meet in a face of codimension 3; two
    # that share an edge meet in codimension 2, but their normals have minor
    # gcd 2, so they do not extend to a lattice basis and the identity fails
    # there (no lattice point at height one over either lies on the other)
    with pytest.raises(ValueError, match="codimension 2"):
        check_two_ray_factorization(parse_expression("(1+x)*(1+y)*(1+z)"), (1, 0, 0), (-1, 0, 0))
    octahedron = parse_expression("1+x+y+z+x^-1+y^-1+z^-1")
    with pytest.raises(ValueError, match="lattice basis"):
        check_two_ray_factorization(octahedron, (1, 1, 1), (1, 1, -1))
    with pytest.raises(ValueError, match="codimension 2"):
        check_two_ray_factorization(octahedron, (1, 1, 1), (1, -1, -1))
    # on every pair of facets that share an edge, the identity holds exactly
    # when the normals extend to a lattice basis, and the other pairs raise
    for text, holds, not_basis in (
        ("1+x+y+z+x^-1+y^-1+z^-1", 0, 12),
        ("1+x+y+z+x*y*z", 6, 3),
        ("(1+x+y+z)^2", 6, 0),
    ):
        p = parse_expression(text)
        np_p = hull(p.support())
        counts = [0, 0]
        for ((u1, _), m1), ((u2, _), m2) in combinations(zip(np_p.facets, np_p.incidence), 2):
            if len(np_p.mask_vertices(m1 & m2)) >= 2:
                try:
                    counts[0] += check_two_ray_factorization(p, u1, u2)[2]
                except ValueError as exc:
                    assert "lattice basis" in str(exc)
                    counts[1] += 1
        assert counts == [holds, not_basis]


def test_two_ray_adjunction_rejects_one_facet_twice():
    p = parse_expression("(1+x)*(1+y)*(1+z)")
    for tau in ((1, 0, 0), (2, 0, 0)):
        with pytest.raises(ValueError, match="same facet"):
            check_two_ray_factorization(p, (1, 0, 0), tau)


def test_univariate_factored_closed_form():
    # mu(c x^m prod (x+xi_k)^{e_k}) via the closed form vs full expansion.
    rng = random.Random(263)
    for _ in range(100):
        c = Fraction(rng.randint(1, 9), rng.choice([1, 2, 3]))
        m = rng.randint(-3, 3)
        nroots = rng.randint(1, 3)
        pool = sorted({Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2)})
        xis = rng.sample(pool, nroots)
        factors = [(xi, rng.randint(1, 3)) for xi in xis]
        expanded = LaurentPolynomial.monomial((m,), c)
        for xi, e in factors:
            binom = LaurentPolynomial(1, {(1,): Fraction(1), (0,): xi})
            expanded = expanded * binom**e
        assert mu_univariate_factored(c, m, factors) == mu(expanded).mu


def test_univariate_factored_rejects_bad_input():
    with pytest.raises(ValueError):
        mu_univariate_factored(Fraction(1), 0, [(Fraction(0), 2)])
    with pytest.raises(ValueError):
        mu_univariate_factored(Fraction(1), 0, [(Fraction(1), 1), (Fraction(1), 2)])
    with pytest.raises(ValueError):
        mu_univariate_factored(Fraction(1), 0, [(Fraction(1), 0)])


@pytest.mark.parametrize(
    "c, m, factors",
    [
        (0.1, 0, [(1, 1)]),
        (True, 0, [(1, 1)]),
        (1, True, [(1, 1)]),
        (1, 0, [(0.5, 1)]),
        (1, 0, [(True, 1)]),
        (1, 0, [(1, 1.7)]),
        (1, 0, [(1, 2.0)]),
        (1, 0, [(1, True)]),
    ],
)
def test_univariate_factored_rejects_inexact_input(c, m, factors):
    # a float coefficient or root would be read as its binary value, a float
    # multiplicity truncated, and True read as 1
    with pytest.raises(ValueError):
        mu_univariate_factored(c, m, factors)


def test_mu_against_hessian_oracle():
    rng = random.Random(269)
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


def test_mu_against_rank_three_hessian_oracle():
    # the bordered log-Hessian determinant in three variables, on random
    # full-rank supports in a small box with signed rational coefficients
    rng = random.Random(331)
    count = 0
    while count < 12:
        p = random_cube_polynomial(rng, 3, rng.randint(4, 7), span=1)
        try:
            expected = hessian_mu_oracle(p)
        except ValueError:
            continue
        assert mu(p).mu == expected
        count += 1


def _sympy_mu(p: LaurentPolynomial) -> LaurentPolynomial:
    """mu of a full-rank p by sympy.Poly arithmetic: the bordered
    determinant det [[q, D_j q], [D_i q, D_i D_j q]] of q = chi^-m p with m
    the least exponents, D_i = x_i d/dx_i, shifted back by (rank + 1) m."""
    sympy = pytest.importorskip("sympy")
    n = p.rank
    xs = sympy.symbols(f"x0:{n}")
    low = [min(e[i] for e in p.terms) for i in range(n)]
    q = sympy.Poly.from_dict(
        {
            tuple(x - m for x, m in zip(e, low)): sympy.Rational(c.numerator, c.denominator)
            for e, c in p.terms.items()
        },
        *xs,
        domain="QQ",
    )

    def log_d(f, i):
        return f.diff(xs[i]) * sympy.Poly(xs[i], *xs, domain="QQ")

    d = [log_d(q, i) for i in range(n)]
    bordered = [[q, *d]] + [[d[i], *(log_d(d[i], j) for j in range(n))] for i in range(n)]
    det = sympy.Poly(0, *xs, domain="QQ")
    for perm in permutations(range(n + 1)):
        inversions = sum(perm[i] > perm[j] for i in range(n + 1) for j in range(i + 1, n + 1))
        term = sympy.Poly(-1 if inversions % 2 else 1, *xs, domain="QQ")
        for i, j in enumerate(perm):
            term = term * bordered[i][j]
        det = det + term
    return LaurentPolynomial(
        n,
        {
            tuple(x + (n + 1) * m for x, m in zip(e, low)): Fraction(
                int(c.numerator), int(c.denominator)
            )
            for e, c in det.as_dict().items()
        },
    )


def test_mu_against_sympy():
    # an independent polynomial arithmetic (sympy.Poly over QQ) on full-rank
    # supports of rank 1 to 3, Laurent exponents included; skipped when
    # sympy is not importable
    pytest.importorskip("sympy")
    rng = random.Random(3)
    count = 0
    while count < 24:
        rank = 1 + count % 3
        p = random_cube_polynomial(rng, rank, rng.randint(2, 6), span=2 if rank < 3 else 1)
        if difference_lattice_basis(p.support())[0] != rank:
            continue
        assert mu(p).mu == _sympy_mu(p)
        count += 1
