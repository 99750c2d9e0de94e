"""GEC decisions, the Einstein equation, edge obstructions, the hexagon
argument, and hereditary face descent."""

from __future__ import annotations

import hashlib
import random
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from toric_gec import (
    LaurentPolynomial,
    anticanonical_polytope,
    classify_1d,
    edge_ratio_test,
    einstein_check,
    face_descent,
    face_chart_polynomial,
    faces,
    family_witness,
    gec_check,
    hexagon_obstruction,
    hull,
    least_dividing_power,
    minimal_kappa,
    monomial_normalize,
    mu,
    parse_expression,
    parse_family,
    standard_hexagon_map,
    standard_hexagon_q,
    substitute_monomial,
    unimodular_support,
)
from toric_gec import gec as gec_module
from toric_gec import laurent as laurent_module
from toric_gec import monge_ampere as monge_ampere_module
from toric_gec import polytope as polytope_module
from toric_gec.lattice import AffineChart, dot
from helpers import (
    ALL_SPECS,
    FIGURE2_TRAPEZOID,
    HEXAGON_POINTS,
    HEXAGON_VERTICES,
    TRAPEZOID_POINTS,
    all_interval_polynomials,
    polynomial_on_support,
    random_coefficient,
    random_einstein_input,
    random_lattice_polygon,
    random_product_polynomial,
    random_unimodular_matrix,
    reference_edge_ratio,
    reference_gec_holds,
    reference_hexagon_map,
    reference_classify_1d,
    reference_einstein,
    reference_least_power,
    scan_edge_ratio,
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


_FACTOR_POOL = [
    # (text in x and y, whether its support is unimodular)
    ("1+x", True),
    ("2+3*x+x^2", True),
    ("1+x+y", True),
    ("1+x^2", False),
    ("1+x+x^3", False),
    ("1+x^2*y+x*y^2+x*y", False),
]


def test_product_unimodularity_is_decided_factor_by_factor():
    # a product c chi^m f_1 ... f_s on disjoint blocks is unimodular exactly
    # when every factor is: gec_check and einstein_check check the fibres of
    # mu's split and raise exactly when the whole support fails the hull
    # route, whose verdict is also the conjunction of the factors'
    rng = random.Random(331)
    seen = set()
    for _ in range(40):
        chosen = rng.sample(_FACTOR_POOL, rng.randint(1, 3))
        rank = 2 * len(chosen)
        p = LaurentPolynomial.monomial(
            tuple(rng.randint(-2, 2) for _ in range(rank)), random_coefficient(rng, False)
        )
        for block, (text, _) in enumerate(chosen):
            f = parse_expression(text)
            embed = [[int(i == 2 * block + j) for j in range(f.rank)] for i in range(rank)]
            p = p * substitute_monomial(f, embed)
        ok = unimodular_support(p.support())[0]
        assert ok == all(flag for _, flag in chosen), p
        seen.add(ok)
        if ok:
            assert gec_check(p).verdict in ("gec-holds", "gec-fails")
            einstein_check(p, 2)
            continue
        with pytest.raises(ValueError, match="support is not unimodular"):
            gec_check(p)
        with pytest.raises(ValueError, match="support is not unimodular"):
            einstein_check(p, 2)
    assert seen == {True, False}


def test_product_witness_check_builds_no_whole_support_hull(monkeypatch):
    # the Prod:P1^6 witness is checked on its six segment fibres, by the
    # closed form, so gec_check builds no hull at all, least of all on the
    # 64-point support
    p, _ = family_witness(parse_family("Prod:P1^6"))
    calls = []
    original = polytope_module.hull

    def spy(points):
        points = list(points)
        calls.append(len(points))
        return original(points)

    for name, module in list(sys.modules.items()):
        if name.startswith("toric_gec") and getattr(module, "hull", None) is original:
            monkeypatch.setattr(module, "hull", spy)
    assert gec_check(p).verdict == "gec-holds"
    assert calls == []


def test_kappa_star_is_sound():
    # The least-power search agrees with the single divisibility test at
    # kappa*, which builds p^kappa* in full, and the least power it reports
    # never exceeds kappa*.
    rng = random.Random(307)
    for _ in range(50):
        if rng.random() < 0.5:
            p = random_product_polynomial(rng, rng.randint(1, 2))
        else:
            p = polynomial_on_support(rng, rng.choice([HEXAGON_POINTS, TRAPEZOID_POINTS]))
        report = gec_check(p)
        kappa = minimal_kappa(p)
        assert (report.verdict == "gec-holds") == reference_gec_holds(p)
        assert (report.verdict == "gec-holds") == (kappa is not None)
        if kappa is not None:
            assert kappa <= report.witness["kappa_star"]


def _kappa_bound(mu_p: LaurentPolynomial) -> int:
    return max(max(e) for e in monomial_normalize(mu_p)[0].terms)


def _differential_inputs(rng: random.Random) -> list[LaurentPolynomial]:
    """Rank-1/2/3 binomial products, hexagon and trapezoid polynomials, and
    sheared monomial translates of all of them."""
    polys = [random_product_polynomial(rng, rank) for rank in (1, 2, 3) for _ in range(3)]
    polys += [polynomial_on_support(rng, HEXAGON_POINTS) for _ in range(3)]
    polys += [polynomial_on_support(rng, TRAPEZOID_POINTS) for _ in range(3)]
    polys.append(standard_hexagon_q())
    sheared = []
    for p in polys:
        # one elementary shear keeps p^kappa* small enough for the reference
        m = [[int(i == j) for j in range(p.rank)] for i in range(p.rank)]
        if p.rank > 1:
            i, j = rng.sample(range(p.rank), 2)
            m[i][j] = rng.choice((-1, 1))
        shift = tuple(rng.randint(-2, 2) for _ in range(p.rank))
        sheared.append(substitute_monomial(p * LaurentPolynomial.monomial(shift, random_coefficient(rng)), m))
    return polys + sheared


def _check_against_explicit_powers(p: LaurentPolynomial) -> None:
    mu_p = mu(p).mu
    bound = _kappa_bound(mu_p)
    least = least_dividing_power(mu_p, p, bound)
    assert least == reference_least_power(mu_p, p, bound)
    assert minimal_kappa(p) == least
    report = gec_check(p)
    assert report.trace[-1]["least_power"] == least
    assert report.trace[-1]["kappa_bound"] == bound
    assert (report.verdict == "gec-holds") == (least is not None)
    if p.rank <= 2:
        # the kappa bound is sound: the verdict matches the test at kappa*
        assert reference_gec_holds(p) == (least is not None)


def test_least_dividing_power_matches_explicit_powers():
    for seed in (353, 359):
        rng = random.Random(seed)
        for p in _differential_inputs(rng):
            _check_against_explicit_powers(p)


@pytest.fixture
def exact_divisions(monkeypatch) -> list[LaurentPolynomial]:
    """The dividends of every call of the division kernel."""
    calls = []
    kernel = laurent_module._divide

    def counting_divide(work, lt, lc, tail, codes):
        calls.append(LaurentPolynomial(codes.rank, codes.unpack(work)))
        return kernel(work, lt, lc, tail, codes)

    monkeypatch.setattr(laurent_module, "_divide", counting_divide)
    return calls


def test_least_dividing_power_fallback_branches(exact_divisions):
    # at a = 2, g = (3x+1)^2 is 49 and f = (3x+1)(x+2) is 28: two peels take
    # 49 to 1, so k = 0, 1 are skipped and the one division, of f^2, holds
    g = parse_expression("(3*x+1)^2")
    f = parse_expression("(3*x+1)*(x+2)")
    assert least_dividing_power(g, f, 3) == 2
    assert exact_divisions == [f**2]
    # x+4 divides no power of x+1: at a = 2 the peel takes 6 to 2, and
    # gcd(2, 3) = 1 refutes every k with no division
    exact_divisions.clear()
    assert least_dividing_power(parse_expression("x+4"), parse_expression("x+1"), 3) is None
    assert exact_divisions == []
    # x^2+x-5 is 1 at both points of rank 1 (a = 2 and a = -3), so the
    # evaluation bounds nothing: every power up to k_max is divided and fails
    f = parse_expression("x+1")
    assert least_dividing_power(parse_expression("x^2+x-5"), f, 3) is None
    assert exact_divisions == [f**k for k in range(4)]


def test_least_dividing_power_confirms_once(exact_divisions):
    # a holding case whose evaluation bound is its least k is confirmed by
    # one division, and the hexagon q is refuted by evaluation alone
    p = parse_expression("(1+x)^2*(1+y)^2*(1+z)^2")
    assert least_dividing_power(mu(p).mu, p, 6) == 3
    assert exact_divisions == [p**3]
    exact_divisions.clear()
    q = standard_hexagon_q()
    assert least_dividing_power(mu(q).mu, q, 6) is None
    assert exact_divisions == []


def test_least_dividing_power_refutes_a_false_zero_of_the_default_prime(exact_divisions):
    # x + 2^61 = x + 1 modulo the prime 2^61 - 1, but divides no power of
    # x + 1 over Z: its value 2^61 + 2 at a = 2 is prime to f(2) = 3, so
    # every k is refuted with no division
    g = LaurentPolynomial(1, {(1,): 1, (0,): 1 + (2**61 - 1)})
    f = parse_expression("x+1")
    assert least_dividing_power(g, f, 3) is None
    assert exact_divisions == []


def test_the_second_evaluation_point_refutes(exact_divisions):
    # p = 4+2x+x^2 has normalized mu(p) = 4+8x+x^2: at a = 2 the values 24
    # and 12 only bound k by 2, while at a = -3 they are -11 and 7
    p = parse_expression("4+2*x+x^2")
    assert gec_check(p).verdict == "gec-fails"
    assert exact_divisions == []


def test_gec_fails_where_evaluation_cannot_refute(exact_divisions):
    # p = (1+2x)(1+x^2): mu(p) and p are 125 and 25 at a = 2, and both -50
    # at a = -3, so no peel meets a gcd of 1 and the bound is 2: p^2, p^3
    # and p^4 (the kappa bound) are divided, and each fails
    p = parse_expression("1+2*x+x^2+2*x^3")
    report = gec_check(p)
    assert report.verdict == "gec-fails"
    assert report.trace[-1]["kappa_bound"] == 4
    assert exact_divisions == [p**k for k in (2, 3, 4)]


def test_gec_holds_past_the_evaluation_bound(exact_divisions, monkeypatch):
    # p = (4-y)^3 (1+x): 4-y is 1 at (2, 3), where mu(p) and p are -3 and
    # 3, and mu(p) is 0 at (-3, 4), so the evaluation bound is 1 while the
    # least k is 3. p splits, and each factor steps on from its own bound:
    # mu(1+x) = x divides f^0 = 1, and the normalized mu of f = (4-y)^3,
    # (4-y)^4 (bound 0), divides f^2 after f^0 and f^1, so the least k is
    # (2 - 1) + 2 = 3. On the whole support the search steps on through p
    # and p^2 before p^3 divides
    p = parse_expression("(4-y)^3*(1+x)")
    f = parse_expression("(4-y)^3", rank=2)
    report = gec_check(p)
    assert report.verdict == "gec-holds"
    assert report.trace[-1]["least_power"] == 3
    one = LaurentPolynomial.constant(2, 1)
    assert exact_divisions == [one, one, f, f**2]
    exact_divisions.clear()
    monkeypatch.setattr(monge_ampere_module, "_blocks", lambda *args: None)
    assert gec_check(p).trace == report.trace
    assert exact_divisions == [p, p**2, p**3]
    g, f = (laurent_module._integer_form(h.terms)[0] for h in (mu(p).mu, p))
    assert laurent_module._evaluation_bound(g, f, 2, 7) == 1


@pytest.mark.parametrize(
    "text, kappa_bound",
    [
        ("(1+x+2*x^2)^24", 94),
        ("(1+x+2*x^2)^32*(1+x+2*x^2)^18", 198),
        ("(1+x+2*x^2)^7*(1+y+2*y^2)^7", 40),
    ],
)
def test_long_failing_searches_make_no_division(text, kappa_bound, exact_divisions):
    # these used to build and divide every power up to the kappa bound,
    # for seconds to minutes; the evaluation refutes each one outright
    report = gec_check(parse_expression(text))
    assert report.verdict == "gec-fails"
    assert report.trace[-1]["kappa_bound"] == kappa_bound
    assert report.trace[-1]["least_power"] is None
    assert exact_divisions == []


def test_least_dividing_power_matches_explicit_powers_on_segments():
    # the segments of the bench sweep: every polynomial of degree <= 3 with
    # coefficients 1..5, almost all of them refuted by evaluation
    for d in (1, 2, 3):
        for coeffs in product(range(1, 6), repeat=d + 1):
            p = LaurentPolynomial(1, {(i,): c for i, c in enumerate(coeffs)})
            mu_p = mu(p).mu
            bound = _kappa_bound(mu_p)
            least = least_dividing_power(mu_p, p, bound)
            assert least == reference_least_power(mu_p, p, bound), coeffs


def test_minimal_kappa_around_the_least_power():
    # an explicit kappa_max below, at and above the least k, on inputs
    # whose evaluation bound is the least k, below it, or a refutation
    for text in ("(1+x)^2*(1+y)^2*(1+z)^2", "(4-y)^3*(1+x)", "1+2*x+x^2+2*x^3", "1+x+y"):
        p = parse_expression(text)
        mu_p = mu(p).mu
        least = minimal_kappa(p)
        for kappa_max in range(-1, (least or 4) + 2):
            expected = reference_least_power(mu_p, p, kappa_max)
            assert minimal_kappa(p, kappa_max) == expected
            assert expected == (least if least is not None and least <= kappa_max else None)
    q = standard_hexagon_q()
    assert [minimal_kappa(q, k) for k in (0, 6, 12)] == [None, None, None]


def test_least_dividing_power_edge_cases():
    x = parse_expression("1+x")
    assert least_dividing_power(LaurentPolynomial.monomial((3,), 5), x, 0) == 0
    assert least_dividing_power(parse_expression("(1+x)^3"), x, 2) is None
    assert least_dividing_power(parse_expression("(1+x)^3"), x, 3) == 3
    with pytest.raises(ValueError):
        least_dividing_power(LaurentPolynomial.zero(1), x, 2)
    with pytest.raises(ValueError):
        least_dividing_power(x, LaurentPolynomial.zero(1), 2)
    with pytest.raises(ValueError):
        least_dividing_power(x, parse_expression("1+x+y"), 2)


def test_least_power_bounds_must_be_exact_integers():
    # a bool bound would be read as 1, and a float one would fail deep in
    # the exponent codec
    square = parse_expression("(1+x+y)^2")
    x = parse_expression("1+x")
    assert minimal_kappa(square, 2) == 2 and minimal_kappa(square, 1) is None
    assert least_dividing_power(x, parse_expression("(1+x)^2"), 1) == 1
    for bound in [True, False, 2.0, "2"]:
        with pytest.raises(ValueError, match="is not an integer"):
            minimal_kappa(square, bound)
        with pytest.raises(ValueError, match="is not an integer"):
            least_dividing_power(x, parse_expression("(1+x)^2"), bound)


@pytest.mark.parametrize(
    "text, rank, kappa_star, least",
    [
        ("(1+x)^2*(1+y)^2*(1+z)^2", 3, 18, 3),
        ("(1+x1)*(1+x2)*(1+x3)*(1+x4)", 4, 12, 3),
        ("(1+x+y+z)^3", 3, 8, 3),
    ],
)
def test_gec_holds_with_large_kappa_star(text, rank, kappa_star, least):
    report = gec_check(parse_expression(text, rank=rank))
    assert report.verdict == "gec-holds"
    assert report.witness == {
        "test": "divisibility",
        "kappa_star": kappa_star,
        "divides": True,
        "rank_r": rank,
    }
    assert report.trace[-1]["least_power"] == least


@pytest.mark.parametrize(
    "text, rank, verdict, terms, kappa_star, kappa_bound, least",
    [
        ("(1+x+y)^2*(1+z)", 3, "gec-holds", 63, 7, 5, 3),
        ("(1+x+y)^4*(1+z)^3", 3, "gec-holds", 1155, 23, 13, 4),
        ("(1+x)^2*(2+y)^5", 2, "gec-holds", 70, 17, 13, 3),
        ("((1+x+y)^3+x*y)*(1+z)", 3, "gec-fails", 165, 11, 9, None),
    ],
)
def test_product_reports_are_frozen(text, rank, verdict, terms, kappa_star, kappa_bound, least):
    # products of a polygon or segment factor and a segment factor in
    # disjoint variables: the full report and minimal_kappa are the values
    # of the search on the expanded mu(p) and p^k
    p = parse_expression(text)
    holds = least is not None
    report = gec_check(p)
    assert report.verdict == verdict
    assert report.witness == {
        "test": "divisibility",
        "kappa_star": kappa_star,
        "divides": holds,
        "rank_r": rank,
    }
    assert report.trace == [
        {"step": "mu", "rank_r": rank, "terms": terms},
        {
            "step": "divisibility",
            "kappa_star": kappa_star,
            "kappa_bound": kappa_bound,
            "least_power": least,
            "divides": holds,
        },
    ]
    assert minimal_kappa(p) == least


def test_gec_check_equivariance():
    # Composed random GL2(Z) maps and monomial multiples move kappa* but not
    # the verdict or the least dividing power, since mu commutes with both
    # up to Laurent units.
    rng = random.Random(311)
    q = standard_hexagon_q()
    good = parse_expression("(1+x)*(1+y)")
    least = {id(p): gec_check(p).trace[-1]["least_power"] for p in (q, good)}
    for _ in range(8):
        u = random_unimodular_matrix(rng, 2)
        c = Fraction(rng.randint(1, 9), rng.choice([1, 2, 3]))
        m = (rng.randint(-3, 3), rng.randint(-3, 3))
        shift = LaurentPolynomial.monomial(m, c)
        for p, verdict in ((q, "gec-fails"), (good, "gec-holds")):
            report = gec_check(substitute_monomial(p * shift, u))
            assert report.verdict == verdict
            assert report.trace[-1]["least_power"] == least[id(p)]


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


def test_einstein_check_matches_expanded_reference():
    # the least-power route against the expanded identity of
    # helpers.reference_einstein, scalar and shift included, for lambda
    # None and 0..r+2: k = r+1-lambda runs from r+1 down to -1
    rng = random.Random(3101)
    cases = held = 0
    while cases < 1300:
        p = random_einstein_input(rng, rng.randint(1, 3))
        if not unimodular_support(p.support())[0]:
            continue
        r = mu(p).rank_r
        for lam in [None, *range(r + 3)]:
            got = einstein_check(p, lam)
            assert got == reference_einstein(p, lam), (p, lam)
            cases += 1
            held += got.holds
    assert held >= 250


def test_einstein_rejects_non_integer_lambda():
    p = parse_expression("1+x+y")
    for bad in (Fraction(3, 2), 3.0, True, "3", Decimal("3")):
        with pytest.raises(ValueError):
            einstein_check(p, bad)
    assert einstein_check(p, 3).holds and einstein_check(p, Fraction(3)).holds


def test_product_decisions_build_no_polynomial(monkeypatch):
    # gec_check and einstein_check read mu(p) off the integer forms of mu's
    # factor walk, from the walk's sums to the least-power search, so no
    # LaurentPolynomial is built on the way, rational coefficients included
    p = parse_expression("(1+x1)*(2+x2)*(1/3+x3)*(1+x4)")
    calls = []
    build = LaurentPolynomial._from_clean.__func__
    monkeypatch.setattr(
        LaurentPolynomial,
        "_from_clean",
        classmethod(lambda cls, *args: calls.append(args) or build(cls, *args)),
    )
    report = gec_check(p)
    result = einstein_check(p, 2)
    assert calls == []
    assert report.verdict == "gec-holds" and report.trace[-1]["least_power"] == 3
    assert result.holds and result.scalar == Fraction(2, 3) and result.shift == (1, 1, 1, 1)


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


# sha256 over the outcome (repr of the result, or the ValueError text) of
# classify_1d on every interval polynomial of degree <= 4 with coefficients
# in -2..2, each also moved by x^-3, as the coefficient() route gave it
CLASSIFY_1D_SHA256 = "881b00894d59c2367732827a0eff1e6be4fe91d681430e6283ecda52d0093f0d"


def test_classify_1d_matches_the_coefficient_route():
    # the one dict of p.terms against coefficient() lookups, on results and
    # errors alike, and the outcomes frozen as the lookup route gave them
    digest = hashlib.sha256()
    count = 0
    for d in range(5):
        for p in all_interval_polynomials(d, range(-2, 3)):
            for q in (p, p * LaurentPolynomial.monomial((-3,))):
                try:
                    got = repr(classify_1d(q))
                except ValueError as exc:
                    got = "ValueError: " + str(exc)
                try:
                    expected = repr(reference_classify_1d(q))
                except ValueError as exc:
                    expected = "ValueError: " + str(exc)
                assert got == expected, q
                digest.update(got.encode() + b"\n")
                count += 1
    assert count == 5000 and digest.hexdigest() == CLASSIFY_1D_SHA256


def test_classify_1d_matches_the_reference_on_rational_shapes():
    # the integer test against the Fraction route on seeded c x^m (x + xi)^nu
    # with rational c and xi of both signs, the same with one coefficient
    # moved, supports with gaps and supports outside the hypothesis
    rng = random.Random(1009)

    def rational():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 6))

    def outcome(f, p):
        try:
            return repr(f(p))
        except ValueError as exc:
            return "ValueError: " + str(exc)

    kinds = {"shape": set(), "moved": set(), "gapped": set(), "outside": set()}
    for _ in range(400):
        c, xi, nu, m = rational(), rational(), rng.randint(0, 8), rng.randint(-3, 3)
        shape = {(m + i,): c * comb(nu, i) * xi ** (nu - i) for i in range(nu + 1)}
        moved = dict(shape)
        moved[rng.choice(list(moved))] += rational()
        gapped = {(m + i,): rational() for i in range(nu + 1)}
        if nu >= 4:
            del gapped[(m + rng.randint(2, nu - 2),)]
        cases = [("shape", shape), ("moved", moved), ("gapped", gapped)]
        if nu >= 2:
            outside = dict(gapped)
            del outside[(m + rng.choice((1, nu - 1)),)]
            cases.append(("outside", outside))
        for kind, terms in cases:
            p = LaurentPolynomial(1, terms)
            got = outcome(classify_1d, p)
            assert got == outcome(reference_classify_1d, p), p
            kinds[kind].add("raises" if got.startswith("ValueError") else got.startswith("(True"))
    assert kinds["shape"] == {True}
    # a moved coefficient next to an end can cancel to 0, which raises
    assert kinds["gapped"] == {True, False} <= kinds["moved"]
    assert kinds["outside"] == {"raises"}


def test_classify_1d_agrees_with_divisibility():
    rng = random.Random(313)
    for _ in range(60):
        d = rng.randint(1, 4)
        coeffs = [rng.randint(1, 5) for _ in range(d + 1)]
        p = LaurentPolynomial(1, {(i,): Fraction(c) for i, c in enumerate(coeffs)})
        is_gec, _ = classify_1d(p)
        assert is_gec == (gec_check(p).verdict == "gec-holds")


def test_edge_ratio_test_trapezoid():
    ok, records = edge_ratio_test(hull(FIGURE2_TRAPEZOID))
    assert not ok
    ratios = sorted(r["ratio"] for r in records)
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


def test_edge_ratio_test_matches_face_route():
    # polygon edges read off the facet list against full edge faces, on
    # coordinate polygons and on polygons spanning a plane in Z^3
    rng = random.Random(4711)
    for rank in (2, 2, 3):
        for _ in range(20):
            polygon = random_lattice_polygon(rng, rank)
            assert edge_ratio_test(polygon) == reference_edge_ratio(polygon)


def _ratio_test_polygons(rng: random.Random) -> list:
    """Seeded polygons for the closed-form edge ratios: width-1 triangles,
    whose adjacent segment over the long edge is a single point, and random
    polygons, each moved by a unimodular map far from the origin or into
    negative coordinates."""
    shapes = []
    for _ in range(30):
        k, a = rng.randint(1, 6), rng.randint(-4, 4)
        shapes.append([(0, 0), (k, 0), (a, 1)])
        size = rng.randint(3, 8)
        shapes.append([(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(size)])
    polygons = []
    for i, points in enumerate(shapes):
        m = random_unimodular_matrix(rng, 2)
        far = 10**6 * (1 + i % 3)
        shift = (rng.choice((far, -far, 0)), rng.randint(-far, -1))
        moved = [
            tuple(m[r][0] * x + m[r][1] * y + shift[r] for r in range(2)) for x, y in points
        ]
        polygon = hull(moved)
        if polygon.dim == 2:
            polygons.append(polygon)
    return polygons


def test_closed_form_edge_ratios_match_the_lattice_point_scan():
    deltas = [anticanonical_polytope(parse_family(spec)) for spec in ALL_SPECS]
    polygons = [f.chart_polytope() for delta in deltas if delta.dim >= 2 for f in faces(delta, 2)]
    polygons += _ratio_test_polygons(random.Random(1729))
    for polygon in polygons:
        assert edge_ratio_test(polygon) == scan_edge_ratio(polygon)
    # polygons on lattice planes in Z^3, read through their charts
    rng = random.Random(4242)
    for _ in range(20):
        polygon = random_lattice_polygon(rng, 3)
        assert edge_ratio_test(polygon) == scan_edge_ratio(polygon)


def test_every_polygon_edge_has_a_nonempty_adjacent_segment():
    # a unit step of an edge and a vertex at height H >= 1 span a triangle
    # whose height-1 section holds a lattice point
    rng = random.Random(2718)
    for rank in (2, 2, 3):
        for _ in range(40):
            polygon = random_lattice_polygon(rng, rank)
            for index in range(len(polygon.facets)):
                assert polygon.adjacent_points(index)
            assert all(rec["adjacent_length"] >= 0 for rec in edge_ratio_test(polygon)[1])


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


def test_standard_hexagon_map_matches_the_interior_point_scan():
    # the vertex mean as centre against the box scan for the one interior
    # point, on family 2-faces, moved standard hexagons, centrally symmetric
    # hexagons that are not standard, and random hulls
    deltas = [anticanonical_polytope(parse_family(spec)) for spec in ALL_SPECS + ["W:m=4"]]
    polygons = [f.chart_polytope() for delta in deltas if delta.dim >= 2 for f in faces(delta, 2)]
    rng = random.Random(6)
    images = []
    for trial in range(60):
        m = random_unimodular_matrix(rng, 2)
        shift = (rng.randint(-50, 50), rng.randint(-50, 50))
        points = HEXAGON_POINTS if trial % 2 else HEXAGON_VERTICES
        images.append(
            hull([tuple(m[r][0] * x + m[r][1] * y + shift[r] for r in range(2)) for x, y in points])
        )
    for _ in range(60):
        w1, w2 = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)]
        c = (rng.randint(-9, 9), rng.randint(-9, 9))
        pairs = (w1, w2, (w1[0] + w2[0], w1[1] + w2[1]))
        polygons.append(hull([(c[0] + s * x, c[1] + s * y) for x, y in pairs for s in (1, -1)]))
    for _ in range(200):
        size = rng.randint(3, 10)
        polygons.append(hull([(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(size)]))
    polygons = [p for p in polygons + images if p.dim == 2]
    results = [standard_hexagon_map(p) for p in polygons]
    assert results == [reference_hexagon_map(p) for p in polygons]
    assert all(results[-len(images):])
    # stretched and sheared symmetric hexagons have six vertices but are not standard
    assert sum(r is None and len(p.vertices) == 6 for p, r in zip(polygons, results)) >= 10


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
    stretched = {(2 * x, y): 1 for x, y in HEXAGON_POINTS}
    missing_vertex = {e: 1 for e in HEXAGON_POINTS if e != (1, -1)}
    with_outside_point = {e: 1 for e in HEXAGON_POINTS + [(1, 1)]}
    for p in (
        parse_expression("1+x+y+x*y"),
        LaurentPolynomial(2, stretched),
        LaurentPolynomial(2, missing_vertex),
        LaurentPolynomial(2, with_outside_point),
    ):
        with pytest.raises(ValueError):
            hexagon_obstruction(p)


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


def test_face_descent_of_a_constant_is_inconclusive():
    # a point has no face of dimension 1 or more, so nothing is examined and
    # the polytope itself is not among the faces: no gec-holds
    report = face_descent(hull([()]), LaurentPolynomial.constant(0, 5))
    assert (report.verdict, report.witness, report.trace) == ("inconclusive", None, [])


def test_face_descent_rejects_mismatched_polynomial():
    with pytest.raises(ValueError):
        face_descent(hull(FIGURE2_TRAPEZOID), parse_expression("1+x+y"))


def test_report_serialization():
    report = gec_check(standard_hexagon_q())
    obj = report.to_obj()
    assert obj["verdict"] == "gec-fails"
    text = report.to_json()
    assert "kappa_star" in text


# sha256 of face_descent(...).to_json(): traces, witnesses and face order
# are part of the report, so a refactor of the face code must not move them
_POLYTOPE_DESCENT_DIGESTS = {
    ("S:m=2,k=1", 2): "2e3f89fe58a9835e496d29b6f141bc8f2126591e52aa831bbd07feea75f075c8",
    ("S:m=2,k=1", 3): "2e3f89fe58a9835e496d29b6f141bc8f2126591e52aa831bbd07feea75f075c8",
    ("X:m=1,k=1", 2): "87ec990667e782c31e6fec152a9cc34545de33d95bec391ed0a2a2741622d777",
    ("X:m=1,k=1", 3): "87ec990667e782c31e6fec152a9cc34545de33d95bec391ed0a2a2741622d777",
    ("W:m=2", 2): "6800afa8c623fa85db0ff32c5916666c9c8f4ca72856b57eeacf73ced86b499e",
    ("W:m=2", 3): "6800afa8c623fa85db0ff32c5916666c9c8f4ca72856b57eeacf73ced86b499e",
    ("NP1", 2): "e25876b51a7fc95dc18972b1c32d217092579acbcd65be20d84e9760c73d2e0e",
    ("NP1", 3): "e25876b51a7fc95dc18972b1c32d217092579acbcd65be20d84e9760c73d2e0e",
    ("Prod:P1^3", 2): "94c7156c89a390cdcdc1edf22bdba25049fa6d377335e7ce3ad91597e21b30bc",
    ("Prod:P1^3", 3): "94c7156c89a390cdcdc1edf22bdba25049fa6d377335e7ce3ad91597e21b30bc",
    ("V:k=2", 2): "c5c7043f62b5df7b73d10dfcca34017a76b42f7080c2fb2223aea2dd714443a3",
    ("NP2", 2): "ef2764f3ff6834ddeff90283470c492044560a6ec1c6d03bb4a22371fe66c8a2",
    # not simple, so its 2-faces come from the face lattice walk
    ("cross-polytope", 2): "a64f3f84f5aa9cfa99a3d7e6b50f738f61a9c1b1ea6e36713ae6885ac12fcf6e",
    # the base triangle's edge vectors generate an index-3 lattice, which
    # _chart_polygons saturates by the orthogonal route
    ("index-3 pyramid", 2): "dc8b81c6f6f906e7b81244791ec442479bb3e2ae79fe526e22b68caf69f44638",
}
_DESCENT_POLYTOPES = {
    "cross-polytope": [tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)],
    "index-3 pyramid": [(0, 0, 0), (2, 1, 0), (1, 2, 0), (0, 0, 1)],
}
# every polytope-only descent with d_max 1 is inconclusive with an empty trace
_EMPTY_DESCENT_DIGEST = "1bcb0cf59e52b7259d9de89a350a78c92044edf63f26c9585912d9eaa38c5a3a"
_POLYNOMIAL_DESCENT_DIGESTS = {
    ("hexagon-q", 2): "30b5e20ce488cf49d4eae2b22146531b2078a8d66aa8beff53c0c4a6d36c521d",
    ("trapezoid", 2): "86f534fafbf4e79c4a5caab993d9458acf3d4f5c764a6ef5aff4240183186b8c",
    ("(1+x)*(1+y)", 2): "7d35c11367d990cbb56b41ff186e78e30d010815f7def97877c45ed28489edec",
    ("1+x+y+z", 1): "f0aa651abd1be104c126a728ab4ac06af7ac52595de77a991cf3b91f46e32dad",
    ("1+x+y+z", 2): "c8b6a2980f338b3dc4c003fa0a5fda8a2c3afc9a269ec05c84094f4de790164e",
    ("1+x+y+z", 3): "f1d059ef3793f9324b44a11bfd209aaec34ef499f1d5c43ca24dcd7c3be0ea8b",
    # the Prod:P1^k witnesses: their faces up to dimension 2 restrict to two
    # chart polynomials, 1+x and (1+x)*(1+y)
    ("(1+x1)*(1+x2)*(1+x3)", 2): "2ac6cb45bb96abc22b0104bcfd8e360a9e1147f1ecaf89f231b3320d928a3d6a",
    ("(1+x1)*(1+x2)*(1+x3)", 3): "f58fd1de3c4f92b70e6bbbc5e90e9fdf037c33ac9c44c8ed3966e4f583a58a16",
    ("(1+x1)*(1+x2)*(1+x3)*(1+x4)", 2): (
        "ae95d927747d8acde141859dba7fb3fafeb4a283de1c208791a3002ecc26765d"
    ),
    ("(1+x+y)^2", 2): "c511693ecb78d6a8794fdc420501650f58785a173cafee5310a6bd193673f221",
    ("hexagon-translate", 2): "2d4d935e9429976aebd5a4c635e47577c16bd65a8e401c16a24673dd20ef9e74",
    # hexagon q under (a, b) -> (2a + b, a + b), translated: two edges have
    # step (2, 1), so their Face charts saturate by the orthogonal route
    ("x+x^3*y+x^4*y^2+x^3*y^2+x*y+1+2*x^2*y", 2): (
        "888ffb8a3ddf2afe61a2680960ed209af8b085f4a227abbd91672c5016bc12c7"
    ),
    # the unit 3-simplex under a unimodular map: two of its Face charts
    # leave _saturated_basis by a non-pivot exit
    ("1+x+x*y+x*y^2*z", 3): "c63e2bdc310a64327110b18f9f6dde7b3601e50af64e8a91761480f0044c3224",
}


def _digest(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


@pytest.mark.parametrize("spec", sorted({s for s, _ in _POLYTOPE_DESCENT_DIGESTS}))
def test_polytope_descent_digests_are_frozen(spec):
    if spec in _DESCENT_POLYTOPES:
        delta = hull(_DESCENT_POLYTOPES[spec])
    else:
        delta = anticanonical_polytope(parse_family(spec))
    assert _digest(face_descent(delta, d_max=1)) == _EMPTY_DESCENT_DIGEST
    for d_max in (2, 3):
        if (spec, d_max) in _POLYTOPE_DESCENT_DIGESTS:
            got = _digest(face_descent(delta, d_max=d_max))
            assert got == _POLYTOPE_DESCENT_DIGESTS[spec, d_max]


def _descent_polynomial(text: str) -> LaurentPolynomial:
    if text == "hexagon-q":
        return standard_hexagon_q()
    if text == "trapezoid":
        coefficients = [1, 3, 3, 1, 2, 4, 2, 1, 1]
        return LaurentPolynomial(2, dict(zip(TRAPEZOID_POINTS, coefficients)))
    if text == "hexagon-translate":
        # fractional coefficients on the hexagon moved by (3, -2)
        coefficients = [Fraction(1, 2), 3, Fraction(2, 3), 5, Fraction(7, 4), 1, Fraction(2, 5)]
        moved = [(a + 3, b - 2) for a, b in HEXAGON_POINTS]
        return LaurentPolynomial(2, dict(zip(moved, map(Fraction, coefficients))))
    return parse_expression(text)


def test_polynomial_descent_digests_are_frozen():
    for (text, d_max), digest in _POLYNOMIAL_DESCENT_DIGESTS.items():
        p = _descent_polynomial(text)
        assert _digest(face_descent(hull(p.support()), p, d_max=d_max)) == digest


def test_face_descent_proves_unimodularity_once(monkeypatch):
    # faces inherit unimodular support from p, so the descent checks it on
    # p alone; every face chart polynomial passes the check anyway
    for text, d_max in _POLYNOMIAL_DESCENT_DIGESTS:
        p = _descent_polynomial(text)
        delta = hull(p.support())
        for d in range(1, min(d_max, delta.dim) + 1):
            for face in faces(delta, d):
                assert unimodular_support(face_chart_polynomial(p, face).support())[0]
    # each spy records its name and the hulls built while it ran
    calls, hulls = [], []

    def spy(name, original):
        def wrapped(*args):
            before = len(hulls)
            out = original(*args)
            calls.append((name, len(hulls) - before))
            return out

        return wrapped

    for name in ("_vertex_condition", "_edge_condition"):
        monkeypatch.setattr(gec_module, name, spy(name, getattr(gec_module, name)))
    original_hull = polytope_module.hull
    for name, module in list(sys.modules.items()):
        if name.startswith("toric_gec") and getattr(module, "hull", None) is original_hull:
            monkeypatch.setattr(
                module, "hull", lambda points: hulls.append(1) or original_hull(points)
            )
    # q (rank 2) does not split, and its one fibre reads the condition off
    # its monotone chain with no hull; a product keeps the closed form on
    # each line; a rank-3 p that does not split runs the edge loop on
    # delta = NP(p), with no second hull
    q = standard_hexagon_q()
    assert face_descent(hull(q.support()), q).verdict == "gec-fails"
    assert calls == [("_vertex_condition", 0)]
    # the spy sees the hulls that the descent builds after the check
    assert hulls
    calls.clear()
    p, _ = family_witness(parse_family("Prod:P1^3"))
    assert face_descent(hull(p.support()), p, d_max=3).verdict == "gec-holds"
    assert calls == [("_vertex_condition", 0)] * 3
    calls.clear()
    p = parse_expression("(1+x+y+z)^2")
    assert face_descent(hull(p.support()), p, d_max=3).verdict == "gec-holds"
    assert calls == [("_edge_condition", 0)]


def _keyed_descent_inputs() -> list[tuple[LaurentPolynomial, int]]:
    """(p, d_max): the digest inputs, fs:3, seeded random coefficients on
    the hexagon, the trapezoid and the unit 3-simplex, the Prod:P1^3 cube
    under a GL_3(Z) map and a monomial shift, and (1+x+y+z)^2, at full
    depth. The last two have face charts that are not coordinate planes."""
    inputs = [(_descent_polynomial(text), d_max) for text, d_max in _POLYNOMIAL_DESCENT_DIGESTS]
    inputs.append((family_witness(parse_family("P:n=3"))[0], 3))
    rng = random.Random(21)
    simplex = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for support in (HEXAGON_POINTS, TRAPEZOID_POINTS, simplex):
        for _ in range(3):
            p = polynomial_on_support(rng, support)
            inputs.append((p, p.rank))
    m = random_unimodular_matrix(rng, 3)
    shift = [rng.randint(-3, 3) for _ in range(3)]
    cube = [tuple(dot(row, e) + s for row, s in zip(m, shift)) for e in product((0, 1), repeat=3)]
    inputs.append((polynomial_on_support(rng, cube), 3))
    inputs.append((parse_expression("(1+x+y+z)^2"), 3))
    return inputs


def test_polynomial_descent_matches_the_checked_route():
    # descent restricts p to each face without the NP(p) check and examines
    # each distinct chart polynomial once; the reference examines every face
    # afresh through the checked public restriction
    for p, d_max in _keyed_descent_inputs():
        delta = hull(p.support())
        report = face_descent(delta, p, d_max=d_max)
        entries = [entry for entry in report.trace if "tests" in entry]
        face_list = [f for d in range(1, min(d_max, delta.dim) + 1) for f in faces(delta, d)]
        assert [entry["vertices"] for entry in entries] == [list(f.vertices) for f in face_list]
        for entry, face in zip(entries, face_list):
            fresh = gec_module._examine(face_chart_polynomial(p, face))
            assert entry["tests"] == fresh, (p, face)


def test_polynomial_descent_charts_only_the_points_on_each_face(monkeypatch):
    # the support's tight-facet masks are read once per descent, and each
    # restriction charts only the support points on its face
    mask_reads, restrictions, charted = [], [], []
    read_masks, restrict = gec_module._support_masks, gec_module._chart_restriction
    to_chart = AffineChart.to_chart

    def counting_restrict(chart, active, points):
        charted.append(0)
        q = restrict(chart, active, points)
        restrictions.append((charted.pop(), len(q)))
        return q

    def counting_to_chart(self, x):
        if charted:
            charted[-1] += 1
        return to_chart(self, x)

    # the face charts are AffineCharts, not polytopes
    monkeypatch.setattr(AffineChart, "to_chart", counting_to_chart)
    monkeypatch.setattr(gec_module, "_chart_restriction", counting_restrict)
    monkeypatch.setattr(
        gec_module, "_support_masks", lambda p, delta: mask_reads.append(1) or read_masks(p, delta)
    )
    for p, d_max in _keyed_descent_inputs():
        mask_reads.clear()
        restrictions.clear()
        report = face_descent(hull(p.support()), p, d_max=d_max)
        assert len(mask_reads) == 1, p
        assert len(restrictions) == sum(1 for entry in report.trace if "tests" in entry)
        assert all(conversions == terms for conversions, terms in restrictions), p


def test_polynomial_descent_builds_no_face(monkeypatch):
    # both descent modes read each face chart off the face's vertex mask
    def refuse(self, *args):
        raise AssertionError("polynomial descent built a Face")

    inputs = [(p, hull(p.support()), d_max) for p, d_max in _keyed_descent_inputs()]
    monkeypatch.setattr(polytope_module.Face, "__init__", refuse)
    for p, delta, d_max in inputs:
        face_descent(delta, p, d_max=d_max)


def test_polynomial_descent_checks_the_newton_polytope_once(monkeypatch):
    calls = []
    original = polytope_module.LatticePolytope.is_hull_of
    monkeypatch.setattr(
        polytope_module.LatticePolytope,
        "is_hull_of",
        lambda self, points: calls.append(1) or original(self, points),
    )
    for p, d_max in _keyed_descent_inputs():
        delta = hull(p.support())
        calls.clear()
        face_descent(delta, p, d_max=d_max)
        assert len(calls) == 1, p


def test_product_witness_examines_each_chart_polynomial_once(monkeypatch):
    # the 56 faces of the Prod:P1^4 witness up to dimension 2 restrict to
    # two chart polynomials, so mu's factors are read twice and the faces
    # with one chart polynomial share one record list
    p, _ = family_witness(parse_family("Prod:P1^4"))
    delta = hull(p.support())
    calls = []
    original = gec_module._mu_factors
    monkeypatch.setattr(
        gec_module, "_mu_factors", lambda q, structure: calls.append(q) or original(q, structure)
    )
    report = face_descent(delta, p, d_max=2)
    entries = [entry for entry in report.trace if "tests" in entry]
    keys = [face_chart_polynomial(p, f) for d in (1, 2) for f in faces(delta, d)]
    assert len(entries) == len(keys) == 56
    assert calls == [parse_expression("1+x"), parse_expression("(1+x)*(1+y)")]
    shared = {}
    for entry, key in zip(entries, keys):
        assert shared.setdefault(key, entry["tests"]) is entry["tests"]
    assert len({id(entry["tests"]) for entry in entries}) == len(shared) == 2


def test_product_witness_full_depth_descent_holds(monkeypatch):
    # every face of the Prod:P1^6 witness p = (1+x1)...(1+x6) is a product
    # of lines, so mu takes the product law on each chart polynomial, p
    # itself included; the law gives mu(p) = x1...x6 prod (1+x_i)^5, so the
    # least power on the top face is 5
    p, _ = family_witness(parse_family("Prod:P1^6"))
    expected = LaurentPolynomial.monomial((1,) * 6)
    for i in range(6):
        expected = expected * (LaurentPolynomial.variable(6, i) + 1) ** 5
    assert mu(p).mu == expected
    decided = {}
    original = gec_module._decide
    monkeypatch.setattr(
        gec_module, "_decide", lambda q, structure: decided.setdefault(q, original(q, structure))
    )
    report = face_descent(hull(p.support()), p, d_max=6)
    assert report.verdict == "gec-holds"
    assert report.trace[-1]["dim"] == 6
    assert decided[p].trace[-1]["least_power"] == 5


def test_face_descent_reads_faces_without_hulls(monkeypatch):
    # faces are read off the parent's incidence table, so polytope-only
    # descent builds no hull per face, only one per distinct chart polygon,
    # and q's descent builds one, for its single distinct 2-face chart
    # polynomial: its unimodularity check reads the edges of delta_q
    deltas = [anticanonical_polytope(parse_family(spec)) for spec in ("V:k=2", "NP1")]
    distinct = [len({f.cvertices for f in faces(delta, 2)}) for delta in deltas]
    q = standard_hexagon_q()
    delta_q = hull(q.support())
    calls = []
    original = polytope_module.hull
    for name, module in list(sys.modules.items()):
        if name.startswith("toric_gec") and getattr(module, "hull", None) is original:
            monkeypatch.setattr(module, "hull", lambda points: calls.append(1) or original(points))
    for delta, count in zip(deltas, distinct):
        calls.clear()
        assert face_descent(delta).verdict == "gec-fails"
        assert len(calls) == count
    assert distinct == [3, 12]
    calls.clear()
    assert face_descent(delta_q, q).verdict == "gec-fails"
    assert len(calls) == 1


def test_polytope_descent_examines_each_chart_polygon_once(monkeypatch):
    # the slow route examines every 2-face afresh; the descent examines each
    # distinct chart vertex tuple once and hands its records to every face
    # with that tuple
    calls = []
    original = gec_module.edge_ratio_test
    for name, module in list(sys.modules.items()):
        if name.startswith("toric_gec") and getattr(module, "edge_ratio_test", None) is original:
            monkeypatch.setattr(
                module, "edge_ratio_test", lambda polygon: calls.append(1) or original(polygon)
            )
    examined = {}
    for spec in ALL_SPECS + ["W:m=4"]:
        delta = anticanonical_polytope(parse_family(spec))
        face_list = faces(delta, 2) if delta.dim >= 2 else []
        calls.clear()
        report = face_descent(delta)
        examined[spec] = len(calls)
        assert examined[spec] == len({f.cvertices for f in face_list}), spec
        entries = [entry for entry in report.trace if "tests" in entry]
        assert [entry["vertices"] for entry in entries] == [list(f.vertices) for f in face_list]
        for entry, face in zip(entries, face_list):
            assert entry["tests"] == gec_module._polygon_tests(face.chart_polytope(), None), spec
    assert (examined["V:k=3"], examined["NP1"], examined["NP2"]) == (3, 12, 26)


def test_polytope_descent_builds_one_face_per_chart_polygon(monkeypatch):
    # a 2-face's key is read off the steps from its lowest vertex, along its
    # edges on a simple polytope and to its other vertices on any other, and
    # each distinct key is examined as the hull of its points, so the
    # descent builds no Face and never calls faces; per-face construction
    # would build thousands on V:k=4 and W:m=5
    specs = ("V:k=3", "NP1", "NP2", "V:k=4", "W:m=5")
    deltas = {spec: anticanonical_polytope(parse_family(spec)) for spec in specs}
    distinct = {spec: len({f.cvertices for f in faces(deltas[spec], 2)}) for spec in specs[:3]}
    # the base triangle's edge vectors at its lowest vertex generate an
    # index-3 lattice, which is saturated without a Face; the hexagonal
    # pyramid and the cross-polytope are not simple
    deltas["index-3 pyramid"] = hull([(0, 0, 0), (2, 1, 0), (1, 2, 0), (0, 0, 1)])
    deltas["hexagonal pyramid"] = hull(
        [(0, -1, 0), (1, -1, 0), (1, 0, 0), (0, 1, 0), (-1, 1, 0), (-1, 0, 0), (0, 0, 1)]
    )
    deltas["cross-polytope"] = hull(_DESCENT_POLYTOPES["cross-polytope"])
    face_calls, faces_calls = [], []
    original_face = polytope_module.LatticePolytope.face
    monkeypatch.setattr(
        polytope_module.LatticePolytope,
        "face",
        lambda self, *args: face_calls.append(1) or original_face(self, *args),
    )
    original_faces = polytope_module.faces
    for name, module in list(sys.modules.items()):
        if name.startswith("toric_gec") and getattr(module, "faces", None) is original_faces:
            monkeypatch.setattr(
                module, "faces", lambda p, d: faces_calls.append(1) or original_faces(p, d)
            )
    built, shared, examined = {}, {}, {}
    for spec, delta in deltas.items():
        face_calls.clear()
        report = face_descent(delta)
        inconclusive = spec in ("index-3 pyramid", "cross-polytope")
        assert report.verdict == ("inconclusive" if inconclusive else "gec-fails")
        built[spec] = len(face_calls)
        entries = [entry for entry in report.trace if "tests" in entry]
        # the faces with one key share one record list
        shared[spec] = len({id(entry["tests"]) for entry in entries})
        examined[spec] = len(entries)
    assert built == dict.fromkeys(deltas, 0)
    assert shared == {
        "V:k=3": 3,
        "NP1": 12,
        "NP2": 26,
        "V:k=4": 3,
        "W:m=5": 47,
        "index-3 pyramid": 3,
        "hexagonal pyramid": 3,
        "cross-polytope": 4,
    }
    assert distinct == {"V:k=3": 3, "NP1": 12, "NP2": 26}
    assert examined == {
        "V:k=3": 490,
        "NP1": 352,
        "NP2": 1376,
        "V:k=4": 4200,
        "W:m=5": 7560,
        "index-3 pyramid": 4,
        "hexagonal pyramid": 7,
        "cross-polytope": 32,
    }
    assert faces_calls == []


def test_face_descent_requires_an_exact_integer_d_max():
    delta = anticanonical_polytope(parse_family("V:k=2"))
    p = parse_expression("(1+x)*(1+y)")
    for bad in (True, 2.5, 2.0):
        with pytest.raises(ValueError, match="d_max"):
            face_descent(delta, d_max=bad)
        with pytest.raises(ValueError, match="d_max"):
            face_descent(hull(p.support()), p, d_max=bad)
    assert face_descent(delta, d_max=2).verdict == "gec-fails"
    assert face_descent(hull(p.support()), p, d_max=2).verdict == "gec-holds"


def test_polytope_descent_is_invariant_under_unimodular_maps():
    # the verdict, the failing faces and their edge lengths move with a
    # GL_n(Z) map plus a translation, and each face keeps its own records;
    # the moved 2-faces have Hermite chart bases with pivots above 1, which
    # the key must read through
    def failing(report, image):
        out = []
        for failure in report.trace[-1]["failures"]:
            lengths = None
            if failure["test"] == "edge-ratio":
                edges = failure["data"]["edges"]
                lengths = sorted((e["length"], e["adjacent_length"]) for e in edges)
            out.append((sorted(map(image, failure["face"]["vertices"])), failure["test"], lengths))
        return sorted(out)

    rng = random.Random(7)
    wide = 0
    for spec in ("V:k=2", "S:m=2,k=1", "W:m=2", "X:m=1,k=1"):
        delta = anticanonical_polytope(parse_family(spec))
        report = face_descent(delta)
        assert report.verdict == "gec-fails"
        for _ in range(3):
            m = random_unimodular_matrix(rng, delta.rank)
            shift = [rng.randint(-5, 5) for _ in range(delta.rank)]

            def image(v, m=m, shift=shift):
                return tuple(sum(a * x for a, x in zip(row, v)) + s for row, s in zip(m, shift))

            moved = hull(map(image, delta.vertices))
            moved_report = face_descent(moved)
            assert moved_report.verdict == report.verdict
            assert failing(moved_report, tuple) == failing(report, image)
            # every face keeps the records a fresh examination gives it
            entries = [entry for entry in moved_report.trace if "tests" in entry]
            face_list = faces(moved, 2)
            assert len(entries) == len(face_list)
            for entry, f in zip(entries, face_list):
                assert entry["tests"] == gec_module._polygon_tests(f.chart_polytope(), None)
                first, second = (next(x for x in row if x) for row in f.chart_basis)
                wide += first * second != 1
    assert wide > 0
