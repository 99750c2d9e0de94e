"""Differential checks of the integer elimination kernel, the affine chart
and the pruned mu enumeration against the slow references in helpers."""

from __future__ import annotations

import random
from itertools import product

import pytest

from toric_gec import (
    LaurentPolynomial,
    integer_determinant,
    matrix_rank,
    mu,
    solve_linear_system,
)
from toric_gec.lattice import AffineChart
from helpers import (
    brute_force_mu,
    leibniz_determinant,
    random_coefficient,
    reference_rank,
    reference_solve,
)


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int) -> list[list[int]]:
    a = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and rng.random() < 0.4:
        # make one row a combination of two others (or a copy of one)
        i, j, k = (rng.randrange(rows) for _ in range(3))
        s, t = rng.randint(-2, 2), rng.randint(-2, 2)
        a[i] = [s * x + t * y for x, y in zip(a[j], a[k])]
    if rng.random() < 0.2 and cols:
        # a zero column forces pivots out of column order
        c = rng.randrange(cols)
        for row in a:
            row[c] = 0
    return a


def test_kernel_matches_fraction_reference():
    rng = random.Random(2026)
    singular = 0
    for _ in range(400):
        n = rng.randint(0, 5)
        bound = rng.choice([1, 3, 40])
        a = random_matrix(rng, n, n, bound)
        det = integer_determinant(a)
        assert det == leibniz_determinant(a)
        singular += det == 0
        b = [rng.randint(-bound, bound) for _ in range(n)]
        assert solve_linear_system(a, b) == reference_solve(a, b)
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        rect = random_matrix(rng, rows, cols, bound)
        assert matrix_rank(rect) == reference_rank(rect)
        assert matrix_rank(a) == reference_rank(a)
    assert singular > 40  # the singular branch was exercised


def test_affine_chart_round_trips_on_unreduced_bases():
    rng = random.Random(17)
    tried = 0
    while tried < 150:
        n = rng.randint(1, 5)
        r = rng.randint(0, n)
        basis = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
        if matrix_rank(basis) < r:
            continue
        tried += 1
        base = tuple(rng.randint(-5, 5) for _ in range(n))
        chart = AffineChart(base, basis)
        for _ in range(5):
            c = tuple(rng.randint(-6, 6) for _ in range(r))
            x = tuple(b + sum(ci * row[i] for ci, row in zip(c, basis)) for i, b in enumerate(base))
            assert chart.from_chart(c) == x
            assert chart.to_chart(x) == c
        w = [rng.randint(-4, 4) for _ in range(n)]
        if matrix_rank(basis + [w]) > r:
            with pytest.raises(ValueError, match="span"):
                chart.to_chart(tuple(b + y for b, y in zip(base, w)))
        if r:
            # the first basis vector is not in the lattice the doubled basis generates
            coarse = AffineChart(base, [[2 * x for x in basis[0]]] + basis[1:])
            with pytest.raises(ValueError, match="lattice generated"):
                coarse.to_chart(tuple(b + y for b, y in zip(base, basis[0])))


def test_affine_chart_identity_and_plane_models():
    eye = AffineChart((0, 0, 0), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert eye.to_chart([4, -1, 2]) == (4, -1, 2)
    assert eye.from_chart([4, -1, 2]) == (4, -1, 2)
    # a plane model in Z^7 with a non-Hermite basis and a shifted base
    basis = [(1, 0, 0, 0, 0, 0, -1), (0, 0, 0, 0, 0, 1, -1)]
    base = (0, 0, 0, 0, 0, 0, 1)
    chart = AffineChart(base, basis)
    assert chart.to_chart((2, 0, 0, 0, 0, -1, 0)) == (2, -1)
    with pytest.raises(ValueError):
        chart.to_chart((0, 1, 0, 0, 0, 0, 1))
    with pytest.raises(ValueError, match="dependent"):
        AffineChart((0, 0), [(1, 2), (-2, -4)])


def _support_on_sublattice(rng: random.Random, ambient: int, rank: int) -> list[tuple[int, ...]]:
    """Points base + sum a_i d_i for random directions d_i, so the support
    has rank at most `rank` inside Z^ambient."""
    dirs = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(rank)]
    base = [rng.randint(-2, 2) for _ in range(ambient)]
    pts = set()
    for _ in range(rng.randint(rank + 1, rank + 5)):
        coeffs = [rng.randint(0, 2) for _ in range(rank)]
        pts.add(tuple(b + sum(a * d[i] for a, d in zip(coeffs, dirs)) for i, b in enumerate(base)))
    return sorted(pts)


def test_mu_matches_unpruned_enumeration():
    rng = random.Random(4242)
    seen_ranks = set()
    for _ in range(60):
        rank = rng.randint(1, 3)
        ambient = rng.randint(rank, rank + 1)
        support = _support_on_sublattice(rng, ambient, rank)
        p = LaurentPolynomial(ambient, {e: random_coefficient(rng, positive=False) for e in support})
        result = mu(p)
        seen_ranks.add((result.rank_r, result.rank_r < ambient))
        assert result.mu == brute_force_mu(p)
    # full-rank and rank-deficient supports of every rank were covered
    assert {(r, d) for r in (1, 2, 3) for d in (False, True)} <= seen_ranks


def _random_polynomial(seed: int, support) -> LaurentPolynomial:
    rng = random.Random(seed)
    support = sorted(set(support))
    return LaurentPolynomial(
        len(support[0]), {e: random_coefficient(rng, positive=False) for e in support}
    )


def _huge_box(seed: int, base: tuple[int, ...], spans: tuple[int, ...], npts: int):
    """npts points of base + [0, span_i] per coordinate, with both ends of
    every span hit so that the spans are exactly the given ones."""
    rng = random.Random(seed)
    pts = {base, tuple(b + s for b, s in zip(base, spans))}
    while len(pts) < npts:
        pts.add(tuple(b + rng.randint(0, s) for b, s in zip(base, spans)))
    return pts


# Shapes the random strategy of test_mu_properties cannot reach: exponents
# near +-10^6 with unequal spans per coordinate (the packed exponent codes
# must not carry), flat supports in Z^5, rank 4, a 27-point grid and a lone
# monomial. Each entry is (rank r of the support, polynomial).
MU_SHAPES = {
    "huge-exponents-Z3": (
        3,
        _random_polynomial(1, _huge_box(1, (10**6, -(10**6), 3), (1, 9, 40), 9)),
    ),
    "huge-exponents-Z4": (
        4,
        _random_polynomial(2, _huge_box(2, (-(10**6), 999_983, 0, 10**6), (40, 1, 3, 17), 9)),
    ),
    "flat-r1-in-Z5": (1, _random_polynomial(3, _support_on_sublattice(random.Random(4), 5, 1))),
    "flat-r2-in-Z5": (2, _random_polynomial(4, _support_on_sublattice(random.Random(1), 5, 2))),
    "flat-r3-in-Z5": (3, _random_polynomial(5, _support_on_sublattice(random.Random(6), 5, 3))),
    "4-cube": (4, _random_polynomial(6, product(range(2), repeat=4))),
    "3x3x3-grid": (3, _random_polynomial(7, product(range(3), repeat=3))),
    "monomial": (0, _random_polynomial(8, [(10**6, -3, 0)])),
}


@pytest.mark.parametrize("name", MU_SHAPES)
def test_mu_matches_unpruned_enumeration_on_large_shapes(name):
    rank_r, p = MU_SHAPES[name]
    result = mu(p)
    assert result.rank_r == rank_r
    assert result.mu == brute_force_mu(p)
