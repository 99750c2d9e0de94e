"""Exact integer linear algebra: determinants, ranks, solves, chart
coordinates, and the saturated difference lattice of a point configuration,
checked against independent routes from tests/helpers.py."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest

from toric_gec import (
    anticanonical_polytope,
    difference_lattice_basis,
    integer_determinant,
    lattice_coordinates,
    matrix_rank,
    parse_family,
    primitive_vector,
    solve_linear_system,
)
from toric_gec.lattice import (
    AffineChart,
    _saturated_basis,
    _xgcd,
    dot,
    hermite_reduce_rows,
    identity_matrix,
)
from toric_gec.polytope import _star_faces

from helpers import (
    fraction_determinant,
    hermite_difference_lattice_basis,
    leibniz_determinant,
    random_unimodular_matrix,
    rational_coordinates,
    reference_hermite_reduce_rows,
    reference_rank,
    reference_saturated_basis,
)


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_dot_checks_lengths():
    assert dot((), ()) == 0
    assert dot((1, -2, 3), [4, 5, -6]) == -24
    for u, v in (((1, 2), (3,)), ((1,), (2, 3)), ((), (1,))):
        with pytest.raises(ValueError) as got:
            dot(u, v)
        with pytest.raises(ValueError) as expected:
            sum(x * y for x, y in zip(u, v, strict=True))
        assert str(got.value) == str(expected.value)


def test_determinant_small_cases():
    assert integer_determinant([]) == 1
    assert integer_determinant([[7]]) == 7
    assert integer_determinant([[1, 2], [3, 4]]) == -2
    assert integer_determinant([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert integer_determinant([[1, 2], [2, 4]]) == 0


def test_determinant_alternating_and_multiplicative():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 5)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert integer_determinant(matmul(a, b)) == integer_determinant(
            a
        ) * integer_determinant(b)
        if n >= 2:
            swapped = [row[:] for row in a]
            swapped[0], swapped[1] = swapped[1], swapped[0]
            assert integer_determinant(swapped) == -integer_determinant(a)


def test_matrix_rank_examples():
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2


def test_solve_linear_system():
    sol = solve_linear_system([[2, 0], [0, 4]], [2, 6])
    assert sol == [Fraction(1), Fraction(3, 2)]
    assert solve_linear_system([[1, 1], [2, 2]], [1, 3]) is None


def test_difference_lattice_saturation():
    # {0, 2} spans the even sublattice but its saturation is all of Z.
    rank, basis = difference_lattice_basis([(0,), (2,)])
    assert rank == 1
    assert basis == ((1,),)


def test_difference_lattice_examples():
    rank, basis = difference_lattice_basis([(1, 1)])
    assert rank == 0 and basis == ()

    rank, basis = difference_lattice_basis([(0, 0), (2, 4)])
    assert rank == 1
    assert basis == ((1, 2),)

    rank, basis = difference_lattice_basis([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert rank == 2

    for mixed in ([(0,), (1, 5)], [(0, 0), (1,)]):
        with pytest.raises(ValueError, match="mixed length"):
            difference_lattice_basis(mixed)


def _scaled_span(rng, n):
    """Points base + sum c_j s_j g_j with scales s_j in {1, 2, 3}: the
    differences often generate a proper sublattice of their saturation."""
    gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
    scales = [rng.choice((1, 2, 3)) for _ in gens]
    base = [rng.randint(-4, 4) for _ in range(n)]
    return [
        tuple(
            b + sum(rng.randint(-2, 2) * s * g[i] for s, g in zip(scales, gens))
            for i, b in enumerate(base)
        )
        for _ in range(rng.randint(1, 6))
    ]


def test_difference_lattice_matches_independent_routes():
    rng = random.Random(29)
    cases = [[(0,), (2,)], [(0, 0), (2, 4)]]
    for t in range(300):
        n = 1 + t % 8
        if t % 2:
            cases.append(_scaled_span(rng, n))
        else:
            cases.append(
                [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 5))]
            )
    for pts in cases:
        n = len(pts[0])
        rank, basis = difference_lattice_basis(pts)
        diffs = [[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]
        assert rank == len(basis) == reference_rank(diffs)
        chart = AffineChart((0,) * n, basis)
        for d in diffs:
            chart.to_chart(d)  # raises unless d is an integer combination
        # row Hermite normal form
        pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
        assert pivots == sorted(set(pivots))
        for i, (row, c) in enumerate(zip(basis, pivots)):
            assert row[c] > 0
            assert all(basis[k][c] == 0 for k in range(i + 1, rank))
            assert all(0 <= basis[k][c] < row[c] for k in range(i))
        # saturated: the r x r minors are coprime
        g = 0
        for cols in combinations(range(n), rank):
            g = gcd(g, leibniz_determinant([[row[c] for c in cols] for row in basis]))
        assert g == 1


def test_difference_lattice_is_translation_invariant():
    rng = random.Random(5)
    for _ in range(40):
        pts = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(4)]
        shift = tuple(rng.randint(-5, 5) for _ in range(3))
        moved = [tuple(a + b for a, b in zip(p, shift)) for p in pts]
        assert difference_lattice_basis(pts) == difference_lattice_basis(moved)


def test_lattice_coordinates_roundtrip():
    rng = random.Random(7)
    basis = ((1, 2, 0), (0, 3, 1))
    for _ in range(30):
        c = (rng.randint(-4, 4), rng.randint(-4, 4))
        v = tuple(
            c[0] * basis[0][i] + c[1] * basis[1][i] for i in range(3)
        )
        assert lattice_coordinates(v, basis) == c


def test_lattice_coordinates_rejects_outside_points():
    basis = ((1, 0),)
    with pytest.raises(ValueError):
        lattice_coordinates((0, 1), basis)
    with pytest.raises(ValueError):
        lattice_coordinates((1,), ((2,),))


def test_inexact_entries_are_rejected():
    # each of these returned a wrong answer or raised TypeError before the
    # rows were parsed at the entry ([True, 2] had primitive vector (1, 2))
    identity = [[1, 0], [0, 1]]
    calls = [
        (integer_determinant, [[1.5, 0], [0, 1]]),
        (integer_determinant, [[Fraction(3, 2), 0], [0, 1]]),
        (integer_determinant, [[True, 0], [0, True]]),
        (matrix_rank, [[0.5, 0], [0, 1]]),
        (difference_lattice_basis, [(0, 0), (0.5, 1)]),
        (lattice_coordinates, (0.5, 0), identity),
        (lattice_coordinates, (1, 0), [[1.0, 0], [0, 1]]),
        (solve_linear_system, [[1.5, 0], [0, 1]], [1, 1]),
        (solve_linear_system, identity, [0.5, 1]),
        (primitive_vector, [2.0, 4.0]),
        (primitive_vector, ["2", 4]),
        (primitive_vector, [True, 2]),
    ]
    for f, *args in calls:
        with pytest.raises(ValueError, match="not a vector of integers"):
            f(*args)
    # the same calls on exact ints still answer
    assert integer_determinant([[3, 0], [0, 1]]) == 3
    assert matrix_rank(identity) == 2
    assert difference_lattice_basis([(0, 0), (1, 2)]) == (1, ((1, 2),))
    assert lattice_coordinates((2, 3), identity) == (2, 3)
    assert solve_linear_system(identity, [1, 2]) == [1, 2]
    assert primitive_vector([2, 4]) == (1, 2)


def test_primitive_vector():
    assert primitive_vector((2, 4, 6)) == (1, 2, 3)
    assert primitive_vector((0, 0)) == (0, 0)
    assert primitive_vector((-3, 6)) == (-1, 2)


def test_difference_lattice_full_rank_exit_matches_the_hermite_route():
    # the Bareiss exit at rank n against two Hermite reductions for every
    # set, on full-rank and rank-deficient sets, scaled spans and single
    # points included
    rng = random.Random(4242)
    full = deficient = 0
    for t in range(400):
        n = 1 + t % 6
        if t % 3 == 0:
            pts = _scaled_span(rng, n)
        else:
            count = rng.randint(1, n + 3)
            pts = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(count)]
        got = difference_lattice_basis(pts)
        assert got == hermite_difference_lattice_basis(pts)
        full += got[0] == n
        deficient += got[0] < n
    assert full > 100 and deficient > 100


def test_saturated_basis_matches_the_double_orthogonal_route():
    # 1 to 4 rows in Z^2 .. Z^8, dependent ones included: the rows of a
    # random integer matrix times a saturated basis, whose lattice has the
    # matrix's index, against two Hermite reductions for every row set
    rng = random.Random(1729)
    cases = [[(2, 4)], [(0, 3, 6)], [(2, 1, 0), (0, 0, 1)], [(1, 2, 0), (2, 1, 0)]]
    for t in range(700):
        n = 2 + t % 7
        # pairs on every other trial: their Hermite pivots often multiply
        # above 1 while their minors have gcd 1
        r = 2 if t % 2 else rng.randint(1, min(n, 3))
        saturated = random_unimodular_matrix(rng, n, steps=12)[:r]
        spread = rng.choice((1, 2, 3))
        count = rng.randint(1, 4)
        coeffs = [[rng.randint(-spread, spread) for _ in range(r)] for _ in range(count)]
        cases.append([[dot(c, col) for col in zip(*saturated)] for c in coeffs])
        if t % 4 == 0:
            # a single row that is not primitive
            cases.append([[rng.randint(2, 4) * x for x in saturated[0]]])
    exits = {"pivots": 0, "minors": 0, "index": 0, "not primitive": 0}
    for rows in cases:
        n = len(rows[0])
        got = _saturated_basis(rows, n)
        assert got == reference_saturated_basis(rows, n), rows
        hermite = hermite_reduce_rows(rows)
        pivots = prod(next(x for x in row if x) for row in hermite)
        if hermite != got:
            exits["index"] += 1
            exits["not primitive"] += len(rows) == 1
        elif pivots == 1:
            exits["pivots"] += 1
        elif len(hermite) == 2:
            # the pivots multiply above 1, but the minors have gcd 1
            exits["minors"] += 1
    assert min(exits.values()) > 50, exits

    # the edge pairs at the lowest vertices of NP2's 2-faces: 27 of the 258
    # distinct pairs have pivots that multiply above 1 and minors of gcd 1
    delta = anticanonical_polytope(parse_family("NP2"))
    vs = delta.vertices
    pairs = {
        tuple(sorted(primitive_vector([x - y for x, y in zip(vs[e], vs[v])]) for e in ends))
        for _, _, v, ends in _star_faces(delta, 2)
    }
    minors = 0
    for pair in pairs:
        got = _saturated_basis(pair, delta.rank)
        assert got == reference_saturated_basis(pair, delta.rank) == hermite_reduce_rows(pair)
        minors += prod(next(x for x in row if x) for row in got) > 1
    assert (len(pairs), minors) == (258, 27)


def _hermite_inputs(seed: int, count: int) -> list[list[list[int]]]:
    """Seeded integer matrices with 1 to 6 rows and 1 to 8 columns, entries
    up to 10^6 in size, with dependent rows, zero rows and zero columns, and
    the empty input."""
    rng = random.Random(seed)
    cases: list[list[list[int]]] = [[], [[0]], [[0, 0, 0]], [[-4]], [[0, -3], [0, 6]]]
    for t in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        bound = (1, 3, 10, 1000, 10**6)[t % 5]
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
        if m > 1 and t % 3 == 0:
            # a row in the span of two others
            i, j = rng.sample(range(m - 1), 2) if m > 2 else (0, 0)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[-1] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
        if t % 7 == 0:
            rows[rng.randrange(m)] = [0] * n
        if t % 5 == 1:
            c = rng.randrange(n)
            for row in rows:
                row[c] = 0
        cases.append(rows)
    return cases


def test_hermite_form_matches_the_euclidean_loop():
    # one extended-gcd step per entry against the repeat-until Euclidean
    # loop; a lattice has one Hermite basis, so the two must agree exactly
    dependent = 0
    for rows in _hermite_inputs(2024, 3000):
        got = hermite_reduce_rows(rows)
        assert got == reference_hermite_reduce_rows(rows), rows
        dependent += len(got) < len(rows)
    assert dependent > 1000


def test_hermite_form_is_an_echelon_basis_of_the_same_lattice():
    # checked with no Hermite code: the shape of the form, and the lattice
    # by exact rational elimination. The input rows have integral
    # coordinates C in the output basis, so the input lattice lies in the
    # output's; the maximal minors of C have gcd 1, so it is all of it
    for rows in _hermite_inputs(77, 500):
        h = hermite_reduce_rows(rows)
        assert len(h) == (reference_rank(rows) if rows else 0)
        pivots = [next(c for c, x in enumerate(row) if x) for row in h]
        assert pivots == sorted(set(pivots))
        for k, (c, row) in enumerate(zip(pivots, h)):
            assert row[c] > 0
            assert all(0 <= other[c] < row[c] for other in h[:k])
        coords = [rational_coordinates(h, row) for row in rows]
        assert all(c is not None and all(x.denominator == 1 for x in c) for c in coords)
        subsets = combinations(range(len(rows)), len(h))
        minors = [int(fraction_determinant([coords[i] for i in s])) for s in subsets]
        assert gcd(*minors) == 1, rows


def test_xgcd_gives_a_bezout_pair_for_the_nonnegative_gcd():
    rng = random.Random(3)
    pairs = [(0, 0), (0, -5), (-4, 6), (7, 0), (-7, 0), (6, -4), (1, 1), (-1, -1)]
    # large coprime pairs: consecutive Fibonacci numbers and random ones
    a, b = 1, 1
    for _ in range(90):
        a, b = b, a + b
    pairs += [(a, b), (-b, a), (2**89 - 1, 2**61 - 1)]
    while len(pairs) < 200:
        x, y = rng.randint(-(10**30), 10**30), rng.randint(-(10**30), 10**30)
        pairs.append((x, y))
    for x, y in pairs:
        g, s, t = _xgcd(x, y)
        assert g == gcd(x, y) >= 0 and s * x + t * y == g, (x, y)
    assert _xgcd(0, 0) == (0, 1, 0) and _xgcd(0, -5)[0] == 5 and _xgcd(-4, 6)[0] == 2
    assert _xgcd(a, b)[0] == _xgcd(2**89 - 1, 2**61 - 1)[0] == 1


def test_translate_charts_match_the_bareiss_route():
    # an identity basis at any base is a translation; a signed permutation
    # of it is the same lattice, charted by the Bareiss echelon, whose
    # coordinates are the translation's permuted and signed
    rng = random.Random(808)
    for t in range(120):
        n = 1 + t % 5
        # the origin is a base like any other
        base = (0,) * n if t % 4 == 0 else tuple(rng.randint(-5, 5) for _ in range(n))
        order = rng.sample(range(n), n)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        if order == list(range(n)) and signs == [1] * n:
            signs[0] = -1
        rows = [tuple(s * (j == k) for j in range(n)) for k, s in zip(order, signs)]
        translate, bareiss = AffineChart(base, identity_matrix(n)), AffineChart(base, rows)
        assert translate._echelon is None and bareiss._echelon is not None
        for _ in range(5):
            x = tuple(rng.randint(-9, 9) for _ in range(n))
            c, b = translate.to_chart(x), bareiss.to_chart(x)
            assert c == _unpermute([s * y for s, y in zip(signs, b)], order)
            assert translate.from_chart(c) == bareiss.from_chart(b) == x
        # both routes reject a point of the wrong length
        for chart in (translate, bareiss):
            with pytest.raises(ValueError, match="does not have length"):
                chart.to_chart((0,) * (n + 1))
    # the identity chart at the origin returns points as they are, and
    # rejects a point of the wrong length
    assert AffineChart((0, 0), identity_matrix(2)).to_chart((3, -4)) == (3, -4)
    with pytest.raises(ValueError, match="does not have length"):
        AffineChart((0, 0), identity_matrix(2)).to_chart((1, 2, 3))
    # charts that are not translations still reject points off the lattice
    # or off the span
    with pytest.raises(ValueError, match="not in the lattice"):
        AffineChart((1, 1), [(2, 0), (0, 1)]).to_chart((2, 1))
    with pytest.raises(ValueError, match="outside the lattice span"):
        AffineChart((1, 1, 1), [(1, 0, 0), (0, 1, 0)]).to_chart((1, 1, 2))


def _unpermute(coords, order):
    """Coordinates in the identity basis from those in the basis whose row k
    is the unit vector order[k]: coordinate order[k] is coords[k]."""
    out = [0] * len(coords)
    for k, j in enumerate(order):
        out[j] = coords[k]
    return tuple(out)
