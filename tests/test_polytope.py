"""Lattice polytopes: hulls, faces, normal data, and edge geometry."""

from __future__ import annotations

import copy
import pickle
import random
import time
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from toric_gec import (
    LatticePolytope,
    LaurentPolynomial,
    adjacent_polytope,
    anticanonical_polytope,
    check_initial_factorization,
    difference_lattice_basis,
    face_chart_polynomial,
    face_descent,
    faces,
    from_inequalities,
    gec_check,
    hull,
    initial_part,
    is_reflexive,
    min_weight_subset,
    obstructing_face,
    parse_expression,
    parse_family,
    primitive_vector,
    standard_hexagon_q,
    substitute_monomial,
    unimodular_support,
)
from toric_gec import polytope as polytope_module
from toric_gec.cli import main
from toric_gec.families import rays
from toric_gec.lattice import (
    dot,
    hermite_reduce_rows,
    identity_matrix,
    matrix_rank,
)
from helpers import (
    ALL_SPECS,
    FIGURE2_TRAPEZOID,
    HEXAGON_POINTS,
    HEXAGON_VERTICES,
    TRAPEZOID_POINTS,
    hermite_difference_lattice_basis,
    random_cube_cuts,
    random_hull_points,
    random_lattice_polygon,
    random_unimodular_matrix,
    reference_edges,
    reference_face_chart,
    reference_face_masks,
    reference_facets,
    reference_from_inequalities,
    reference_unimodular_support,
)

# 13 points in Z^6 whose hull has 109 facets; finding its edges by a scan of
# all C(109, 5) facet subsets takes about a minute
MANY_FACETS = [
    (2, -3, 2, -1, 1, 1),
    (-3, 3, 1, 2, -3, 0),
    (-2, -2, 3, 0, -3, 1),
    (-3, 1, -3, 2, 0, -2),
    (3, -3, -1, 3, 3, -3),
    (-3, 3, -3, 2, 0, 3),
    (2, -1, 1, -1, 3, -3),
    (-3, 3, 1, 1, 1, 2),
    (-2, -3, 1, 2, -3, 1),
    (-3, 1, -1, 3, 1, -2),
    (3, -3, -2, -2, 2, -2),
    (0, 1, 2, 3, 0, -1),
    (-1, 1, 0, -1, 1, 0),
]


def test_hull_of_single_point_and_segment():
    p = hull([(3, 5)])
    assert p.dim == 0 and p.vertices == ((3, 5),)
    s = hull([(0, 0), (1, 2), (2, 4), (3, 6)])
    assert s.dim == 1
    assert s.vertices == ((0, 0), (3, 6))


def test_hull_sorts_the_facets_of_a_segment():
    # every dimension sorts its facets, so a 1-D face's chart polytope is the
    # hull of its chart vertices field by field
    s = hull([(0,), (3,), (1,)])
    assert s.facets == (((-1,), 3), ((1,), 0))
    assert s.incidence == (0b10, 0b01)


def test_hull_drops_interior_and_edge_points():
    h = hull(HEXAGON_POINTS)
    assert set(h.vertices) == set(HEXAGON_VERTICES)
    sq = hull([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0)])
    assert set(sq.vertices) == {(0, 0), (2, 0), (0, 2), (2, 2)}


def test_hull_idempotent():
    rng = random.Random(3)
    for _ in range(40):
        rank = rng.randint(2, 3)
        pts = [
            tuple(rng.randint(-3, 3) for _ in range(rank))
            for _ in range(rng.randint(1, 9))
        ]
        h = hull(pts)
        again = hull(h.vertices)
        assert again == h
        assert again.facets == h.facets


def test_hull_contains_its_points():
    rng = random.Random(41)
    for _ in range(30):
        pts = [
            (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
            for _ in range(6)
        ]
        h = hull(pts)
        for q in pts:
            assert h.contains(q)
        outside = (10, 0, 0)
        if outside not in pts:
            assert not h.contains(outside)
    # a point of another length is outside, also when the chart is the
    # identity at the origin
    assert not hull([(0, 0), (1, 0), (0, 1)]).contains((1, 2, 3))


def test_is_hull_of_matches_the_contains_route():
    rng = random.Random(43)
    for _ in range(40):
        rank = rng.randint(1, 3)
        pts = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(1, 6))]
        h = hull(pts)
        extra = tuple(rng.randint(-3, 3) for _ in range(rank))
        for cand in (pts, pts + [extra], list(h.vertices), list(h.vertices)[1:]):
            expected = set(h.vertices) <= set(cand) and all(map(h.contains, cand))
            assert h.is_hull_of(cand) == expected
    segment = hull([(0, 0), (2, 2)])
    assert segment.is_hull_of([(0, 0), (1, 1), (2, 2)])
    # a point off the span, past an end on the span, or off the lattice
    # (another length, so another Z^n) is outside
    assert not segment.is_hull_of([(0, 0), (2, 2), (1, 0)])
    assert not segment.is_hull_of([(0, 0), (2, 2), (3, 3)])
    assert not segment.is_hull_of([(0, 0), (2, 2), (1, 1, 0)])
    for bad in [(1.0, 1), (True, 1), ("1", 1)]:
        with pytest.raises(ValueError):
            segment.is_hull_of([(0, 0), (2, 2), bad])
        with pytest.raises(ValueError):
            segment.contains(bad)


def _guarded_polytopes():
    cube = [tuple((i >> j) & 1 for j in range(3)) for i in range(8)]
    built = hull(cube)
    public = LatticePolytope(
        built.rank, built.dim, built.vertices, built.chart_base, built.chart_basis, built.facets
    )
    delta = anticanonical_polytope(parse_family("V:k=2"))
    triangle = from_inequalities(2, [(1, 0), (0, 1), (-1, -1)], [1, 1, 1])
    return [built, public, triangle, delta, obstructing_face(parse_family("V:k=2"))]


def test_polytopes_and_faces_are_immutable():
    for p in _guarded_polytopes():
        before = (p.to_obj(), p.cvertices, p.incidence, p.chart_base, p.chart_basis)
        for name in ("vertices", "facets", "incidence", "chart_basis", "_stars", "_points"):
            with pytest.raises(AttributeError):
                setattr(p, name, ())
            with pytest.raises(AttributeError):
                delattr(p, name)
        with pytest.raises(AttributeError):
            p.extra = 1
        after = (p.to_obj(), p.cvertices, p.incidence, p.chart_base, p.chart_basis)
        assert after == before
    face = _guarded_polytopes()[-1]
    for name in ("parent", "active"):
        with pytest.raises(AttributeError):
            setattr(face, name, None)
        with pytest.raises(AttributeError):
            delattr(face, name)


def test_immutable_polytopes_copy_and_pickle():
    spec = parse_family("V:k=2")
    anticanonical_polytope(spec)._vertex_stars()
    for p in _guarded_polytopes() + [spec]:
        for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert clone == p
            if isinstance(p, LatticePolytope):
                assert clone.to_obj() == p.to_obj() and clone.incidence == p.incidence
                with pytest.raises(AttributeError):
                    clone.vertices = ()
    clone = pickle.loads(pickle.dumps(spec))
    assert anticanonical_polytope(clone)._stars == anticanonical_polytope(spec)._stars


def test_memoized_polytope_survives_a_refused_assignment():
    spec = parse_family("S:m=2,k=1")
    delta = anticanonical_polytope(spec)
    before = delta.to_obj()
    with pytest.raises(AttributeError):
        delta.vertices = delta.vertices[:1]
    with pytest.raises(AttributeError):
        del delta.facets
    assert anticanonical_polytope(spec) is delta
    assert delta.to_obj() == before
    assert face_descent(delta).verdict == "gec-fails"
    assert obstructing_face(spec).parent is delta


def test_lazy_caches_still_fill():
    for p in _guarded_polytopes():
        assert p._points is None and p._stars is None
        points = p.lattice_points()
        assert p._points is points and p.lattice_points() is points
        stars = p._vertex_stars()
        assert p._stars is not None
        assert p._vertex_stars() is stars
    # a simple polytope keeps its stars; a non-simple one records ()
    simple = hull([(0, 0), (1, 0), (0, 1)])
    assert simple._vertex_stars() is simple._vertex_stars() is simple._stars
    octahedron = hull([tuple(s * (i == j) for j in range(3)) for i in range(3) for s in (1, -1)])
    assert octahedron._vertex_stars() is None and octahedron._stars == ()


def test_lattice_points_of_hexagon():
    h = hull(HEXAGON_VERTICES)
    assert sorted(h.lattice_points()) == sorted(HEXAGON_POINTS)


def test_euler_relation_dims_up_to_three():
    rng = random.Random(59)
    for _ in range(20):
        rank = rng.randint(2, 3)
        pts = [
            tuple(rng.randint(-2, 2) for _ in range(rank))
            for _ in range(rng.randint(4, 8))
        ]
        h = hull(pts)
        if h.dim < 2:
            continue
        counts = [len(faces(h, d)) for d in range(h.dim)]
        euler = sum((-1) ** d * c for d, c in enumerate(counts))
        assert euler == 1 - (-1) ** h.dim


def test_faces_match_the_subset_scan():
    cross4 = hull([tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)])
    cases = [(anticanonical_polytope(parse_family(text)), 3) for text in ALL_SPECS]
    cases.append((cross4, 4))
    rng = random.Random(83)
    randoms = []
    for trial in range(48):
        rank = 3 + trial % 4
        # at most rank + 3 points keep the reference scan to seconds
        h = hull(random_hull_points(rng, rank, flat=trial % 3 == 0)[: rank + 3])
        randoms.append(h)
        cases.append((h, h.dim))
    for p, d_max in cases:
        for d in range(min(d_max, p.dim) + 1):
            assert [(f.active, f.vertices) for f in faces(p, d)] == [
                (active, p.mask_vertices(mask)) for active, mask in reference_face_masks(p, d)
            ]
    for h in randoms:
        if h.dim:
            euler = sum((-1) ** d * len(faces(h, d)) for d in range(h.dim))
            assert euler == 1 - (-1) ** h.dim


def test_unimodular_support_edges_match_the_reference():
    rng = random.Random(89)
    cases = [MANY_FACETS]
    for trial in range(9):
        rank = 4 + trial % 3
        cases.append([tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rank + 6)])
        # a cube or a simplex under a random GL_n(Z) map: the condition holds
        m = random_unimodular_matrix(rng, rank)
        corners = [[int(i == j) for j in range(rank)] for i in range(rank)] + [[0] * rank]
        if trial % 2:
            corners = [[x >> j & 1 for j in range(rank)] for x in range(1 << rank)]
        cases.append([tuple(dot(row, c) for row in m) for c in corners])
    verdicts = set()
    for pts in cases:
        h = hull(pts)
        assert sorted(tuple(f.vertices) for f in faces(h, 1)) == reference_edges(h)
        ok, bases = unimodular_support(pts)
        assert (ok, {v: tuple(sorted(s)) for v, s in bases.items()}) == (
            reference_unimodular_support(pts)
        )
        verdicts.add(ok)
    assert verdicts == {True, False}
    start = time.process_time()
    assert unimodular_support(MANY_FACETS) == (False, {})
    assert time.process_time() - start < 5


def test_unimodular_support_polygons_match_the_reference():
    # the chain route of rank 2 against the reference edges (verdict and
    # sorted steps) and against the edge loop on the hull (the exact dict,
    # step order included): the lattice points of random and of smooth
    # lattice polygons, some with one point removed, under random GL_2(Z)
    # maps and translations, and the same sets embedded in Z^4, where the
    # chart is not the identity
    rng = random.Random(409)
    smooth = [
        [(0, 0), (1, 0), (0, 1)],
        [(0, 0), (3, 0), (0, 3)],
        [(0, 0), (2, 0), (0, 1), (2, 1)],
        [(0, 0), (3, 0), (0, 1), (1, 1)],
        HEXAGON_VERTICES,
    ]
    shapes = [hull(s) for s in smooth] + [random_lattice_polygon(rng, 2) for _ in range(30)]
    verdicts = {2: set(), 4: set()}
    for shape in shapes:
        for drop in (False, True):
            pts = list(shape.lattice_points())
            if drop:
                pts.remove(rng.choice(pts))
            if difference_lattice_basis(pts)[0] != 2:
                continue
            m = random_unimodular_matrix(rng, 2)
            shift = [rng.randint(-3, 3) for _ in range(2)]
            moved = [tuple(dot(row, v) + s for row, s in zip(m, shift)) for v in pts]
            embed = [[0, 0]]
            while matrix_rank(embed) < 2:
                embed = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(4)]
            embedded = [tuple(dot(row, v) for row in embed) for v in moved]
            for case in (moved, embedded):
                ok, bases = unimodular_support(case)
                assert (ok, {v: tuple(sorted(s)) for v, s in bases.items()}) == (
                    reference_unimodular_support(case)
                )
                expected_ok, expected = polytope_module._edge_condition(hull(case), set(case))
                assert (ok, list(bases.items())) == (expected_ok, list(expected.items()))
                verdicts[len(case[0])].add(ok)
    assert verdicts == {2: {True, False}, 4: {True, False}}


def test_faces_of_cube():
    cube = hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert len(faces(cube, 0)) == 8
    assert len(faces(cube, 1)) == 12
    assert len(faces(cube, 2)) == 6
    top = faces(cube, 3)
    assert len(top) == 1 and top[0].active == ()


@pytest.mark.parametrize("name", ["cube", "hexagon", "cross4", "V:k=2", "NP1"])
def test_face_rebuilds_every_face(name):
    if name == "cube":
        p = hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    elif name == "cross4":
        # not simple: its edges lie on four facets, not two
        p = hull([tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)])
    elif name == "hexagon":
        p = hull(HEXAGON_VERTICES)
    else:
        p = anticanonical_polytope(parse_family(name))

    def on_facet(i, v):
        u, a = p.facets[i]
        return dot(u, p.to_chart(v)) == -a

    for d in range(p.dim + 1):
        for f in faces(p, d):
            g = p.face(f.active)
            assert g == f and g.vertices == f.vertices and g.active == f.active
            assert g.dim == d
            # the active set is every facet through the face, and the face
            # is every vertex on those facets
            active = tuple(
                i for i in range(len(p.facets)) if all(on_facet(i, v) for v in f.vertices)
            )
            assert active == f.active
            assert f.vertices == tuple(
                v for v in p.vertices if all(on_facet(i, v) for i in active)
            )


def test_face_rejects_empty_intersections():
    cube = hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    opposite = [i for i, (u, _) in enumerate(cube.facets) if u in ((1, 0, 0), (-1, 0, 0))]
    with pytest.raises(ValueError):
        cube.face(opposite)


def test_face_rejects_bad_active_indices():
    # each index must be an exact int naming a facet, once: a repeated index
    # would move the active mask of a chart restriction to another bit, and
    # a negative one would shift by a negative count
    cube = hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert len(cube.facets) == 6
    for active in [(5, 5), (-1,), (True,), (6,), (1.0,)]:
        with pytest.raises(ValueError):
            cube.face(active)
    restricted = face_chart_polynomial(parse_expression("(1+x)*(1+y)*(1+z)"), cube.face([5]))
    assert restricted.terms == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    edge = faces(cube, 1)[0]
    again = cube.face(edge.active[::-1])
    assert again == edge and again.active == edge.active


def test_face_rejects_a_supplied_chart_of_another_lattice():
    # a supplied chart must be a basis of the face's own lattice, and its
    # base and rows exact ints: a coarser basis would drop lattice points
    box = hull([(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 1)])
    (bottom,) = [i for i, (u, _) in enumerate(box.facets) if u == (0, 0, 1)]
    assert len(box.face([bottom]).lattice_points()) == 9
    for base, basis in [
        (None, [(2, 0, 0), (0, 2, 0)]),
        (None, [(1, 0, 0), (0, 2, 0)]),
        (None, [(1, 0, 0), (0, 1, 1)]),
        (None, [(1, 0, 0)]),
        (None, [(1, 0, 0), (0, 1, 0), (1, 1, 0)]),
        (None, [(1, 0), (0, 1)]),
        (None, [(1.0, 0, 0), (0, 1, 0)]),
        (None, [(True, 0, 0), (0, 1, 0)]),
        ((True, 0, 0), [(1, 0, 0), (0, 1, 0)]),
        ((0.0, 0, 0), [(1, 0, 0), (0, 1, 0)]),
        ((0, 0, 1), [(1, 0, 0), (0, 1, 0)]),
    ]:
        with pytest.raises(ValueError):
            box.face([bottom], base, basis)
    # a unimodular image of the face basis, at another base on the face
    moved = box.face([bottom], (2, 0, 0), [(1, 1, 0), (0, -1, 0)])
    assert moved.chart_base == (2, 0, 0) and moved.chart_basis == ((1, 1, 0), (0, -1, 0))
    assert len(moved.lattice_points()) == 9
    assert moved.cvertices == ((-2, -2), (-2, -4), (0, 0), (0, -2))


def test_face_dims_and_charts():
    h = hull(FIGURE2_TRAPEZOID)
    edges = faces(h, 1)
    assert len(edges) == 4
    lengths = sorted(len(e.lattice_points()) - 1 for e in edges)
    assert lengths == [1, 2, 2, 3]
    for e in edges:
        cp = e.chart_polytope()
        assert cp.dim == 1 and cp.rank == 1
        assert len(e.lattice_points()) == len(cp.lattice_points())


def test_faces_read_off_the_parent_match_their_hulls():
    # the hull of a face's chart vertices is the independent slow route for
    # the facets and incidence rows that the face restricts from its parent
    cases = [(anticanonical_polytope(parse_family(text)), 2) for text in ALL_SPECS]
    rng = random.Random(1018)
    for trial in range(60):
        if trial % 6 == 5:
            h = random_lattice_polygon(rng, 3)
        else:
            rank = 2 + trial % 4
            h = hull(random_hull_points(rng, rank, flat=rank > 2 and trial % 3 == 0))
        cases.append((h, h.dim))
    face_list = [f for p, d_max in cases for d in range(min(d_max, p.dim) + 1) for f in faces(p, d)]
    face_list += [
        obstructing_face(spec)
        for spec in map(parse_family, ALL_SPECS)
        if spec.tag not in ("P", "Prod")
    ]

    seen_dims = set()
    for f in face_list:
        slow = hull([f.to_chart(v) for v in f.vertices])
        # the face's own data, its incidence rows read in chart-vertex order
        order = sorted(range(len(f.cvertices)), key=f.cvertices.__getitem__)
        incidence = tuple(
            sum(1 << k for k, j in enumerate(order) if m >> j & 1) for m in f.incidence
        )
        assert (f.dim, tuple(f.cvertices[j] for j in order)) == (slow.dim, slow.vertices)
        assert (f.facets, incidence) == (slow.facets, slow.incidence)
        if f.dim <= 3:
            # the box scans of 4- and 5-faces would take seconds each way
            assert f.lattice_points() == tuple(sorted(map(f.from_chart, slow.lattice_points())))
        seen_dims.add((f.dim, f.parent.dim < f.parent.rank))
    # faces of full-dimensional parents and of planar and other flat ones
    assert {(d, flat) for d in range(3) for flat in (False, True)} <= seen_dims


def _square_pyramid():
    return hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)])


def _octahedron():
    return hull([tuple(s * (i == j) for j in range(3)) for i in range(3) for s in (1, -1)])


def test_face_charts_and_incidence_match_the_slow_route():
    # the slow routes: the chart read off the tight normals on the reference
    # Hermite form, the saturated difference lattice of the face's
    # vertices, and the public constructor's dot-product incidence
    parents = [anticanonical_polytope(parse_family(spec)) for spec in ALL_SPECS + ["W:m=4"]]
    parents += [_square_pyramid(), _octahedron()]
    rng = random.Random(808)
    for trial in range(45):
        rank = 2 + trial % 4
        parents.append(hull(random_hull_points(rng, rank, flat=trial % 3 == 0)))
    face_list = [f for p in parents for d in range(min(3, p.dim) + 1) for f in faces(p, d)]
    # the pyramid's apex named by two opposite side facets, whose planes
    # meet in a line: the chart must come from every facet through the apex
    pyramid = _square_pyramid()
    sides = [i for i, (u, _) in enumerate(pyramid.facets) if u in ((1, 0, -1), (-1, 0, -1))]
    assert len(sides) == 2
    apex = pyramid.face(sides)
    assert apex.vertices == ((1, 1, 1),) and apex.dim == 0
    face_list.append(apex)
    # a supplied chart whose order differs from the ambient one permutes the
    # chart polytope's vertices: plane models, and random unimodular images
    # of the Hermite basis based at the last vertex
    specs = [spec for spec in map(parse_family, ALL_SPECS) if spec.tag not in ("P", "Prod")]
    supplied = [obstructing_face(spec) for spec in specs]
    supplied.append(hull(HEXAGON_VERTICES).face((), (0, 0), [(0, 1), (1, 0)]))
    for f in face_list[::7]:
        if f.dim >= 2:
            rows = [
                [sum(c * b[i] for c, b in zip(row, f.chart_basis)) for i in range(f.rank)]
                for row in random_unimodular_matrix(rng, f.dim)
            ]
            supplied.append(f.parent.face(f.active, f.vertices[-1], rows))

    flat_parents = 0
    for f, own_chart in [(f, True) for f in face_list] + [(f, False) for f in supplied]:
        dim, basis = difference_lattice_basis(f.vertices)
        assert f.dim == dim
        if own_chart:
            reference = reference_face_chart(f.parent, _vertex_mask(f))
            assert f.chart_base == reference.chart_base
            assert f.chart_basis == reference.chart_basis == basis
        slow = LatticePolytope(f.rank, f.dim, f.vertices, f.chart_base, f.chart_basis, f.facets)
        assert (f.cvertices, f.incidence) == (slow.cvertices, slow.incidence)
        d = f.dim
        chart = f.chart_polytope()
        slow = LatticePolytope(d, d, f.cvertices, (0,) * d, identity_matrix(d), f.facets)
        assert (chart.vertices, chart.cvertices, chart.facets, chart.incidence) == (
            slow.vertices,
            slow.cvertices,
            slow.facets,
            slow.incidence,
        )
        flat_parents += f.parent.dim < f.parent.rank
    assert flat_parents > 100


def _vertex_mask(f) -> int:
    """The mask of a face's vertices in its parent's vertex order."""
    return sum(1 << f.parent.vertices.index(v) for v in f.vertices)


def _simple_and_other_cube_cuts() -> tuple[list[LatticePolytope], list[LatticePolytope]]:
    """Seeded random cuts of a cube in dimensions 3 to 6 with lattice
    vertices, split into the simple ones and the others."""
    rng = random.Random(2718)
    simple, other = [], []
    for trial in range(80):
        rank = 3 + trial % 4
        try:
            p = from_inequalities(rank, *random_cube_cuts(rng, rank))
        except ValueError:
            # a cut with a non-lattice vertex
            continue
        (simple if p._vertex_stars() is not None else other).append(p)
    return simple, other


def test_star_faces_match_the_walk(monkeypatch):
    # a simple polytope reads its d-faces for every 0 <= d <= dim off its
    # vertex stars; the walk is the reference for the active sets, the masks
    # and the order. _face_masks takes the stars for 1 <= d <= dim - 2 only
    families = [anticanonical_polytope(parse_family(spec)) for spec in ALL_SPECS + ["W:m=4"]]
    cuts, non_simple_cuts = _simple_and_other_cube_cuts()
    assert len(cuts) > 20 and len(non_simple_cuts) > 10
    assert {p.dim for p in cuts} == {3, 4, 5, 6}
    # flat segments, polygons and 3-polytopes in Z^4 that are simple
    rng = random.Random(83)
    flats = [hull(random_hull_points(rng, 4, flat=True)) for _ in range(40)]
    flats = [h for h in flats if h._vertex_stars() is not None and h.dim < h.rank]
    assert {1, 2} <= {p.dim for p in flats}
    checked = pairs = 0
    for p in families + cuts + flats:
        assert p._vertex_stars() is not None
        for d in range(p.dim + 1):
            walk = polytope_module._walk_face_masks(p, d)
            star = polytope_module._star_faces(p, d)
            assert [(active, mask) for active, mask, _, _ in star] == walk, (p, d)
            assert polytope_module._face_masks(p, d) == walk
            for _, mask, low, ends in star:
                # each face is emitted at its lowest vertex, with d edge ends
                assert mask & -mask == 1 << low
                assert len(ends) == d and all(mask >> e & 1 and e > low for e in ends)
            checked += len(walk)
            pairs += 1
    assert checked > 10000 and pairs > 350

    # a polytope with a vertex on more than dim facets reports that it is
    # not simple and takes the walk for every d
    monkeypatch.setattr(polytope_module, "_star_faces", None)
    cross = hull([tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)])
    pyramid = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    rng = random.Random(31)
    randoms = [hull(random_hull_points(rng, 5, flat=False)) for _ in range(6)]
    non_simple = [cross, pyramid] + [h for h in randoms if h._vertex_stars() is None]
    assert len(non_simple) > 4
    for p in non_simple + non_simple_cuts:
        assert p._vertex_stars() is None
        for d in range(p.dim + 1):
            assert polytope_module._face_masks(p, d) == polytope_module._walk_face_masks(p, d)


def test_star_route_chart_polygons_match_the_walk_route(monkeypatch):
    # the star route of _chart_polygons against the walk route on the same
    # simple polytope, element for element: the active set, the vertex tuple
    # and the key, which the walk route reads off the steps to every other
    # vertex of the face. The polytopes are the families, their GL_n(Z)
    # images with a translation, their 3-faces and facets as parents, and
    # the seeded simple cube cuts
    rng = random.Random(3141)
    parents = []
    for spec in ALL_SPECS + ["W:m=4"]:
        delta = anticanonical_polytope(parse_family(spec))
        m = random_unimodular_matrix(rng, delta.rank)
        shift = [rng.randint(-5, 5) for _ in range(delta.rank)]
        moved = hull(tuple(dot(row, v) + s for row, s in zip(m, shift)) for v in delta.vertices)
        parents += [delta, moved]
        if delta.dim >= 3:
            parents.append(delta.face([0]))
        if delta.dim >= 4:
            parents.append(faces(delta, 3)[0])
    parents += _simple_and_other_cube_cuts()[0]
    assert all(p._vertex_stars() is not None for p in parents)
    star_routes = {id(p): polytope_module._chart_polygons(p) for p in parents if p.dim >= 2}
    with monkeypatch.context() as patch:
        patch.setattr(polytope_module.LatticePolytope, "_vertex_stars", lambda self: None)
        walk_routes = {id(p): polytope_module._chart_polygons(p) for p in parents if p.dim >= 2}
    polygons = pairs = 0
    for p in parents:
        if p.dim >= 2:
            assert star_routes[id(p)] == walk_routes[id(p)], p
            polygons += len(star_routes[id(p)])
        for d in range(1, p.dim - 1):
            walk = polytope_module._walk_face_masks(p, d)
            star = polytope_module._star_faces(p, d)
            assert [(active, mask) for active, mask, _, _ in star] == walk
            pairs += 1
    assert polygons > 5000 and pairs > 150


def _polygon_fields(polygon) -> tuple:
    return (
        polygon.rank,
        polygon.dim,
        polygon.vertices,
        polygon.cvertices,
        polygon.facets,
        polygon.incidence,
        polygon.chart_base,
        polygon.chart_basis,
    )


def _chart_polygon_checker(monkeypatch):
    """A check(parent) that asserts that _chart_polygons(parent) builds no
    Face, and compares every key with the chart vertices of the reference
    chart read off the tight normals and of the built Face, and the hull of
    the key with the Face's chart polytope field by field, as polytope-only
    descent examines the one in place of the other; and the list of the
    step tuples, saturated while _chart_polygons runs, whose lattice has
    index above 1, which lattice._saturated_basis saturates by the
    orthogonal route."""
    calls, unsaturated = [], []
    original = polytope_module.LatticePolytope.face
    monkeypatch.setattr(
        polytope_module.LatticePolytope,
        "face",
        lambda self, active, *args: calls.append(tuple(active)) or original(self, active, *args),
    )
    saturate = polytope_module._saturated_basis

    def recorded(rows, n):
        basis = saturate(rows, n)
        if basis != hermite_reduce_rows(rows):
            unsaturated.append(rows)
        return basis

    def check(parent) -> tuple[int, int, int]:
        """(2-faces, step tuples of index above 1, keys whose Face chart
        basis has a pivot above 1) over the 2-faces of parent."""
        calls.clear()
        unsaturated.clear()
        # recorded only here: the Faces built below saturate their own steps
        with monkeypatch.context() as patch:
            patch.setattr(polytope_module, "_saturated_basis", recorded)
            polygons = polytope_module._chart_polygons(parent)
        assert calls == [], parent
        walk = polytope_module._walk_face_masks(parent, 2)
        assert [(active, vertices) for active, vertices, _ in polygons] == [
            (active, parent.mask_vertices(mask)) for active, mask in walk
        ]
        wide = 0
        for (active, vertices, key), (_, mask) in zip(polygons, walk):
            reference = reference_face_chart(parent, mask)
            assert key == tuple(map(reference.to_chart, vertices)), (parent, active)
            face = original(parent, active)
            assert key == face.cvertices, (parent, active)
            assert _polygon_fields(hull(key)) == _polygon_fields(face.chart_polytope())
            first, second = (next(x for x in row if x) for row in face.chart_basis)
            wide += first * second != 1
        return len(polygons), len(unsaturated), wide

    return check, unsaturated, original


def test_polygon_chart_vertices_match_the_face(monkeypatch):
    # the chart vertices of every 2-face read off its steps from its lowest
    # vertex, against the built Face, on the family polytopes, their 3-faces
    # as parents, non-simple polytopes and seeded random hulls; no parent
    # builds a Face
    check, unsaturated, original = _chart_polygon_checker(monkeypatch)
    for spec in ALL_SPECS + ["W:m=4"]:
        delta = anticanonical_polytope(parse_family(spec))
        if delta.dim < 2:
            continue
        assert check(delta)[1] == 0, spec
        if delta.dim >= 4:
            # a 3-face as the parent: its chart is not the identity, and the
            # edge vectors are read in ambient coordinates
            parent = faces(delta, 3)[0]
            assert parent._echelon is not None
            faces_seen, count, _ = check(parent)
            assert count == 0 and faces_seen > 0, spec

    # the cross-polytope, the square pyramid and the octahedron are not simple
    cross = hull([tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)])
    assert cross._vertex_stars() is None and _square_pyramid()._vertex_stars() is None
    for p in [cross, _square_pyramid(), _octahedron()]:
        check(p)

    # random hulls, half of them flat: stars and walks, and step tuples of
    # index 1 and above, are taken, on flat parents too
    rng = random.Random(1414)
    totals = [0, 0, 0]
    flat_faces = non_simple = 0
    for trial in range(150):
        rank = 3 + trial % 3
        h = hull(random_hull_points(rng, rank, flat=trial % 2 == 0))
        if h.dim < 2:
            continue
        counts = check(h)
        totals = [t + c for t, c in zip(totals, counts)]
        flat_faces += counts[0] if h.dim < h.rank else 0
        non_simple += h._vertex_stars() is None
    assert totals[0] > 2000 and flat_faces > 100 and non_simple > 10
    # most random hulls are not simple, so GL_n(Z) images of simple cube
    # cuts add wide pivots on the star route
    cuts, _ = _simple_and_other_cube_cuts()
    for p in cuts:
        m = random_unimodular_matrix(rng, p.rank)
        counts = check(hull(tuple(dot(row, v) for row in m) for v in p.vertices))
        totals = [t + c for t, c in zip(totals, counts)]
    assert totals[1] > 100 and totals[2] > 1000

    # the edge vectors of the base triangle at its lowest vertex generate an
    # index-3 lattice, so they, and only they, are saturated by the
    # orthogonal route, and the key is still the Face's
    pyramid = hull([(0, 0, 0), (2, 1, 0), (1, 2, 0), (0, 0, 1)])
    (base,) = [i for i, (u, _) in enumerate(pyramid.facets) if u == (0, 0, 1)]
    assert check(pyramid)[1] == 1 and unsaturated == [((1, 2, 0), (2, 1, 0))]
    assert original(pyramid, [base]).cvertices == ((0, 0), (1, 2), (2, 1))
    keys = {active: key for active, _, key in polytope_module._chart_polygons(pyramid)}
    assert keys[(base,)] == ((0, 0), (1, 2), (2, 1))


def test_star_keys_match_the_face(monkeypatch):
    # the same keys on GL_n(Z) images of the family polytopes, their facets
    # as parents, simple and non-simple cube cuts and an index-3 4-simplex;
    # no parent builds a Face
    check, unsaturated, original = _chart_polygon_checker(monkeypatch)
    rng = random.Random(61)
    wide = 0
    for spec in ALL_SPECS + ["W:m=4"]:
        delta = anticanonical_polytope(parse_family(spec))
        if delta.dim < 2:
            continue
        # a GL_n(Z) image with a translation: more 2-face charts have Hermite
        # pivots above 1, and the edge vectors still generate the face lattice
        m = random_unimodular_matrix(rng, delta.rank)
        shift = [rng.randint(-5, 5) for _ in range(delta.rank)]
        moved = hull(
            tuple(dot(row, v) + s for row, s in zip(m, shift)) for v in delta.vertices
        )
        _, count, moved_wide = check(moved)
        assert count == 0, spec
        wide += moved_wide
        if delta.dim >= 3:
            # a facet as the parent: its chart is not the identity
            parent = delta.face([0])
            assert parent._echelon is not None
            faces_seen, count, _ = check(parent)
            assert count == 0 and faces_seen > 0, spec
    assert wide > 100

    # the edge vectors of the simple cube cuts always generate a saturated
    # lattice, those of dimension 3 included; the non-simple ones are only
    # checked against the Face
    cuts, non_simple_cuts = _simple_and_other_cube_cuts()
    assert sum(check(p)[1] for p in cuts) == 0
    for p in non_simple_cuts:
        check(p)

    # a simple 4-simplex whose vertex cone at the origin is not unimodular:
    # the edge vectors (1, 2, 0, 0) and (2, 1, 0, 0) generate an index-3
    # lattice, so that triangle's steps, and only those, are saturated by
    # the orthogonal route
    simplex = hull([(0, 0, 0, 0), (2, 1, 0, 0), (1, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert simplex._vertex_stars() is not None
    assert check(simplex)[1] == 1
    assert unsaturated == [((1, 2, 0, 0), (2, 1, 0, 0))]


def test_a_polytope_equals_none_of_its_faces():
    h = hull(HEXAGON_VERTICES)
    whole = h.face(())
    assert whole.vertices == h.vertices
    assert h != whole and whole != h
    assert whole == hull(HEXAGON_VERTICES).face(())
    edge = faces(h, 1)[0]
    assert edge == h.face(edge.active) and edge != edge.chart_polytope()


def test_from_inequalities_square_keeps_facet_order():
    normals = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    offsets = [1, 1, 1, 1]
    sq = from_inequalities(2, normals, offsets)
    assert [u for u, _ in sq.facets] == normals
    assert set(sq.vertices) == {(-1, -1), (1, -1), (-1, 1), (1, 1)}
    assert is_reflexive(sq)


def test_from_inequalities_rejects_fractional_vertices():
    with pytest.raises(ValueError, match="non-lattice"):
        from_inequalities(2, [(2, 1), (-2, 1), (0, -1)], [0, 2, 1])
    # an empty box has no vertex at all, lattice or not
    with pytest.raises(ValueError, match="no feasible vertex"):
        from_inequalities(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [0, -1, 0, 0])


def test_from_inequalities_prunes_redundant():
    normals = [(1, 0), (0, 1), (-1, -1), (1, 1)]
    offsets = [0, 0, 1, 5]
    tri = from_inequalities(2, normals, offsets)
    assert len(tri.facets) == 3
    assert set(tri.vertices) == {(0, 0), (1, 0), (0, 1)}
    # supporting hyperplanes through a vertex and through an edge of the
    # unit cube are tight there but are not facets
    cube = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    normals = [(1, 1, 1), cube[0], (1, 1, 0)] + cube[1:] + [cube[0]]
    offsets = [0, 0, 0] + [1, 0, 1, 0, 1] + [0]
    p = from_inequalities(3, normals, offsets)
    assert len(p.vertices) == 8
    assert p.facets == tuple(zip(cube, [0, 1, 0, 1, 0, 1]))


def test_from_inequalities_matches_hull():
    h = hull(HEXAGON_VERTICES)
    rebuilt = from_inequalities(2, [u for u, _ in h.facets], [a for _, a in h.facets])
    assert rebuilt == h


def test_from_inequalities_rejects_unbounded():
    # a quadrant, whose only vertex is the origin
    with pytest.raises(ValueError, match="unbounded"):
        from_inequalities(2, [(1, 0), (0, 1)], [0, 0])
    # an unbounded region whose three vertices span a triangle
    with pytest.raises(ValueError, match="unbounded"):
        from_inequalities(2, [(0, 1), (1, 0), (1, 1), (1, 2)], [0, 0, -2, -3])
    # a square prism open towards +z
    with pytest.raises(ValueError, match="unbounded"):
        from_inequalities(
            3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0)], [0, 0, 0, 1, 1]
        )
    # the quadrant with a duplicated inequality
    with pytest.raises(ValueError, match="unbounded"):
        from_inequalities(2, [(1, 0), (0, 1), (1, 0)], [0, 0, 0])
    # a feasible strip, whose normals do not span the plane
    with pytest.raises(ValueError, match="rank"):
        from_inequalities(2, [(1, 0), (-1, 0)], [0, 1])


def test_from_inequalities_bounded_with_degenerate_vertices():
    # every vertex of the octahedron lies on four facets, so the cone test
    # has to look past the first basis of tight normals
    normals = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    octahedron = from_inequalities(3, normals, [1] * 8)
    assert octahedron == hull([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    # a bounded segment in the plane, cut out by two pairs of inequalities
    segment = from_inequalities(2, [(1, -1), (-1, 1), (1, 0), (-1, 0)], [0, 0, 0, 2])
    assert segment.dim == 1 and segment.vertices == ((0, 0), (2, 2))


def test_hull_and_from_inequalities_match_the_references():
    def polytope_data(p):
        return p.vertices, p.facets, p.incidence, p.chart_base, p.chart_basis

    rng = random.Random(2026)
    systems = []
    for trial in range(135):
        rank = 3 + trial % 4
        pts = random_hull_points(rng, rank, flat=trial % 3 == 0)
        pts += rng.sample(pts, 2)
        h = hull(pts)
        if h.dim == 0:
            continue
        facets = reference_facets(sorted({h.to_chart(q) for q in pts}), h.dim)
        assert sorted(h.facets) == facets
        vertices = [
            q
            for q in sorted(set(pts))
            if matrix_rank([u for u, a in facets if dot(u, h.to_chart(q)) == -a]) == h.dim
        ]
        assert list(h.vertices) == vertices
        if h.dim == rank == 3:
            # the facets again, shuffled, with a duplicate and a redundant one
            system = list(h.facets) + [h.facets[0], (h.facets[-1][0], h.facets[-1][1] + 1)]
            rng.shuffle(system)
            systems.append((3, [u for u, _ in system], [a for _, a in system]))

    octahedron = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    systems.append((3, octahedron, [1] * 8))
    for text in ALL_SPECS:
        spec = parse_family(text)
        systems.append((spec.dimension, rays(spec), [1] * len(rays(spec))))
    for args in systems:
        assert polytope_data(from_inequalities(*args)) == polytope_data(
            reference_from_inequalities(*args)
        )


def _rays_are_tight_exactly_on_their_masks(rows, rays) -> int:
    """Assert that every ray is primitive, lies in the cone of the rows and
    carries the mask of exactly the rows tight on it; return the number of
    rays tight on more rows than d - 1, where the cone is degenerate."""
    degenerate = 0
    for ray, mask in rays:
        values = [dot(row, ray) for row in rows]
        assert min(values) >= 0 and primitive_vector(ray) == ray
        assert mask == sum(1 << i for i, s in enumerate(values) if s == 0)
        degenerate += mask.bit_count() > len(ray) - 1
    return degenerate


def test_extreme_rays_on_degenerate_cones_match_the_references():
    # _extreme_rays in both directions of the hull, in d = 4..7, on rows
    # with duplicates and extra rows through existing rays: the facet cone
    # of a point set against the cofactor facets of reference_facets, and
    # the vertex cone of an inequality system against the rank-subset solves
    # of reference_from_inequalities
    def facet_cone(pts, r):
        rows = [(1,) + q for q in pts]
        rays = polytope_module._extreme_rays(rows)
        assert sorted((ray[1:], ray[0]) for ray, _ in rays) == reference_facets(sorted(set(pts)), r)
        return _rays_are_tight_exactly_on_their_masks(rows, rays)

    def vertex_cone(normals, offsets, r):
        rows = [(1,) + (0,) * r] + [(a,) + tuple(u) for u, a in zip(normals, offsets)]
        rays = polytope_module._extreme_rays(rows)
        reference = reference_from_inequalities(r, normals, offsets)
        assert sorted(ray for ray, _ in rays) == [(1,) + v for v in reference.vertices]
        return _rays_are_tight_exactly_on_their_masks(rows, rays)

    rng = random.Random(4242)
    degenerate = {}
    for trial in range(16):
        r = 3 + trial % 4
        # doubled points, so the midpoint of two vertices is a lattice point
        h = hull(tuple(2 * x for x in q) for q in random_hull_points(rng, r, flat=False))
        if h.dim == r:
            # duplicated vertices and midpoints of two vertices on a facet
            pts = list(h.vertices) + rng.sample(h.vertices, 2)
            for m in rng.sample(h.incidence, 3):
                a, b = rng.sample(h.mask_vertices(m), 2)
                pts.append(tuple((x + y) // 2 for x, y in zip(a, b)))
            rng.shuffle(pts)
            degenerate[r, "facets"] = degenerate.get((r, "facets"), 0) + facet_cone(pts, r)
        if trial >= 4:
            # the reference solves every r-subset of rows: seconds in d = 7
            continue
        try:
            cut = from_inequalities(r, *random_cube_cuts(rng, r))
        except ValueError:
            # a cut with a non-lattice vertex
            continue
        # duplicated facets, and the sum of two facets through one vertex,
        # a redundant row through that vertex's ray
        system = list(cut.facets) + rng.sample(cut.facets, 2)
        for j in rng.sample(range(len(cut.vertices)), 2):
            on = [f for f, m in zip(cut.facets, cut.incidence) if m >> j & 1]
            (u1, a1), (u2, a2) = rng.sample(on, 2)
            u = tuple(x + y for x, y in zip(u1, u2))
            g = gcd(*u)
            if (a1 + a2) % g == 0:
                system.append((tuple(x // g for x in u), (a1 + a2) // g))
        rng.shuffle(system)
        normals, offsets = [u for u, _ in system], [a for _, a in system]
        count = vertex_cone(normals, offsets, r)
        degenerate[r, "vertices"] = degenerate.get((r, "vertices"), 0) + count
    # every d and direction meets rays on more than d - 1 rows
    assert len(degenerate) == 8 and all(degenerate.values()), degenerate

    # the octahedron and the 4-dimensional cross-polytope, as points and as
    # inequalities: each vertex lies on 4 and 8 facets
    for r in (3, 4):
        cross = [tuple(s * (i == j) for j in range(r)) for i in range(r) for s in (1, -1)]
        signs = list(product((1, -1), repeat=r))
        assert facet_cone(cross, r) == 0
        assert vertex_cone(signs, [1] * len(signs), r) == 2 * r


def test_hull_incidence_matches_the_public_constructor():
    # in dimension 3 and up hull hands on the tight-point masks of its
    # extreme rays as the incidence table; the public constructor recomputes
    # the table by dot products, on the same chart, flat hulls included
    rng = random.Random(3141)
    seen = set()
    for trial in range(150):
        rank = 3 + trial % 3
        pts = random_hull_points(rng, rank, flat=trial % 2 == 0)
        h = hull(pts + rng.sample(pts, 2))
        slow = LatticePolytope(h.rank, h.dim, h.vertices, h.chart_base, h.chart_basis, h.facets)
        assert (h.vertices, h.cvertices, h.facets, h.incidence) == (
            slow.vertices,
            slow.cvertices,
            slow.facets,
            slow.incidence,
        )
        seen.add((h.dim, h.dim < h.rank))
    assert {(3, False), (4, False), (5, False), (3, True), (4, True)} <= seen


def test_low_dimensional_hulls_match_the_public_constructor():
    # segments and polygons (and single points) build from the monotone
    # chain with the incidence it implies; the public constructor recomputes
    # cvertices and incidence by dot products on the same chart, the facets
    # come from the cofactor normals of every point subset, the chart from
    # two Hermite reductions, and a point is a vertex when the normals of
    # the facets through it have full rank
    rng = random.Random(2718)
    seen = set()
    for trial in range(300):
        rank = 1 + trial % 4
        if trial % 25 == 0:
            pts = [tuple(rng.randint(-3, 3) for _ in range(rank))]
        elif rank <= 2 and trial // 4 % 2:
            pts = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rng.randint(2, 7))]
        else:
            pts = random_hull_points(rng, max(rank, 2), flat=True)
        h = hull(pts + rng.sample(pts, 1))
        if h.dim > 2:
            continue
        seen.add((h.dim, h.dim < h.rank))
        slow = LatticePolytope(h.rank, h.dim, h.vertices, h.chart_base, h.chart_basis, h.facets)
        assert (h.vertices, h.cvertices, h.facets, h.incidence) == (
            slow.vertices,
            slow.cvertices,
            slow.facets,
            slow.incidence,
        )
        pts = sorted(set(pts))
        dim, basis = hermite_difference_lattice_basis(pts)
        base = (0,) * h.rank if dim == h.rank else pts[0]
        assert (h.dim, h.chart_basis, h.chart_base) == (dim, basis, base)
        cpts = [h.to_chart(x) for x in pts]
        facets = reference_facets(cpts, dim) if dim else []
        assert list(h.facets) == facets
        vertices = [
            x
            for x, c in zip(pts, cpts)
            if matrix_rank([u for u, a in facets if dot(u, c) == -a] or [[0] * dim]) == dim
        ]
        assert list(h.vertices) == vertices
    assert {(0, True), (1, False), (2, False), (1, True), (2, True)} <= seen


def test_polytope_edge_rejects_inexact_inputs(capsys):
    for points in ([(0.5, 0), (1, 0), (0, 1)], [(True, 0), (0, 0), (0, 1)]):
        with pytest.raises(ValueError):
            hull(points)
    triangle = [(1, 0), (0, 1), (-1, -1)]
    for normals, offsets in [
        (triangle, [0, 0, 1.9]),
        (triangle, [0, 0, True]),
        ([(True, 0), (0, 1), (-1, -1)], [0, 0, 1]),
    ]:
        with pytest.raises(ValueError):
            from_inequalities(2, normals, offsets)
    with pytest.raises(ValueError):
        min_weight_subset([(0, 0), (1, 0)], [(0.5, 1)])
    # weights are a list of vectors; a bare vector such as (0, 1) is not one
    for weights in ([(1, 0.5)], [(True, 0)], (0, 1)):
        with pytest.raises(ValueError):
            min_weight_subset([(0, 0), (1, 0), (0, 1)], weights)
        with pytest.raises(ValueError):
            initial_part(parse_expression("1+x+y"), weights)
    with pytest.raises(ValueError):
        check_initial_factorization(parse_expression("1+x+y"), (1.7, 0))
    triangle = hull([(0, 0), (3, 0), (0, 3)])
    for point in ((1.0, 1), (True, 0)):
        with pytest.raises(ValueError):
            triangle.contains(point)
    code = main(["descent", "--polytope", '{"vertices": [[0.5, 0], [1, 0], [0, 1]]}'])
    assert code == 2 and "not a vector of integers" in capsys.readouterr().err


@pytest.mark.parametrize("d", [True, False, 1.0, "1"])
def test_faces_rejects_inexact_dimensions(d):
    # True would list the 60 edges of V:k=2, and False its vertices
    p = anticanonical_polytope(parse_family("V:k=2"))
    with pytest.raises(ValueError):
        faces(p, d)


@pytest.mark.parametrize(
    "rank, normals, offsets",
    [
        (True, [(1,), (-1,)], [0, 1]),
        (2.0, [(1, 0), (0, 1), (-1, -1)], [0, 0, 1]),
        (Fraction(2), [(1, 0), (0, 1), (-1, -1)], [0, 0, 1]),
    ],
)
def test_from_inequalities_rejects_an_inexact_rank(rank, normals, offsets):
    # rank True would build the segment [0, 1]
    with pytest.raises(ValueError):
        from_inequalities(rank, normals, offsets)


@pytest.mark.parametrize(
    "index, on", [(-1, ()), (3, ()), (True, ()), (1.0, ()), (0, (-1,)), (0, (3,)), (0, (1.0,))]
)
def test_adjacent_points_rejects_bad_facet_indices(index, on):
    # -1 would silently read the last facet, and True facet 1
    triangle = hull([(0, 0), (2, 0), (0, 2)])
    with pytest.raises(ValueError):
        triangle.adjacent_points(index, on)


@pytest.mark.parametrize(
    "rank, dim, basis",
    [
        # a sublattice of index 4: it would find 3 lattice points, not 6
        (2, 2, [(2, 0), (0, 2)]),
        (2, 2, [(1, 1), (0, 2)]),
        (2, 1, [(1, 0), (0, 1)]),
        (5, 2, [(1, 0), (0, 1)]),
        (2, True, [(1, 0), (0, 1)]),
        (2.0, 2, [(1, 0), (0, 1)]),
    ],
)
def test_public_constructor_checks_its_chart(rank, dim, basis):
    vertices = [(0, 0), (2, 0), (0, 2)]
    facets = hull(vertices).facets
    with pytest.raises(ValueError):
        LatticePolytope(rank, dim, vertices, (0, 0), basis, facets)
    # the saturated basis finds all 6 points, and a unimodular image of it
    # is accepted
    saturated = LatticePolytope(2, 2, vertices, (0, 0), [(1, 0), (0, 1)], facets)
    assert len(saturated.lattice_points()) == 6
    triangle = LatticePolytope(2, 2, vertices, (0, 0), [(1, 1), (0, 1)], [])
    assert len(triangle.vertices) == 3 and triangle.chart_basis == ((1, 1), (0, 1))


@pytest.mark.parametrize("facet", [((1.0, 0), 0.7), ((0, True), 0), ((2, 0), 0), ((1, 0), 0.0)])
def test_public_constructor_parses_its_facets(facet):
    # a float or bool entry would be kept as given (a float offset
    # truncated), and a non-primitive normal breaks the facet convention
    vertices = [(0, 0), (2, 0), (0, 2)]
    with pytest.raises(ValueError):
        LatticePolytope(2, 2, vertices, (0, 0), [(1, 0), (0, 1)], [facet])
    exact = LatticePolytope(2, 2, vertices, (0, 0), [(1, 0), (0, 1)], [((1, 0), 0)])
    assert exact.facets == (((1, 0), 0),) and exact.incidence == (0b011,)


def test_min_weight_subset_picks_faces():
    pts = HEXAGON_POINTS
    assert min_weight_subset(pts, [(0, 1)]) == [(0, -1), (1, -1)]
    assert min_weight_subset(pts, [(0, 1), (1, 0)]) == [(0, -1)]
    h = hull(HEXAGON_VERTICES)
    for v in faces(h, 0):
        cone = v.normal_cone()
        assert min_weight_subset(pts, cone) == list(v.vertices)


def test_adjacent_polytope_of_reflexive_is_nonempty():
    for vertices in (HEXAGON_VERTICES, FIGURE2_TRAPEZOID):
        h = hull(vertices)
        assert is_reflexive(h)
        for f in faces(h, h.dim - 1):
            pts = adjacent_polytope(h, f)
            assert pts
            assert (0,) * h.rank in pts


def test_adjacent_points_match_a_brute_force_filter():
    # heights over every facet and every facet pair, read off the lattice
    # points through explicit chart coordinates; planar hulls in Z^3 have a
    # chart that is not the identity
    rng = random.Random(919)
    planar = 0
    for trial in range(80):
        rank = 2 + trial % 3
        flat = rank == 3 and trial % 4 != 1
        h = hull(random_hull_points(rng, rank, flat))
        if h.dim < 2:
            continue
        planar += h.dim == 2 < h.rank
        heights = {
            x: [dot(u, h.to_chart(x)) + a for u, a in h.facets] for x in h.lattice_points()
        }
        for i in range(len(h.facets)):
            assert h.adjacent_points(i) == [x for x, hs in heights.items() if hs[i] == 1]
            for j in range(len(h.facets)):
                if j != i:
                    expected = [x for x, hs in heights.items() if hs[i] == 1 and hs[j] == 0]
                    assert h.adjacent_points(i, (j,)) == expected
    assert planar >= 3


def test_adjacent_polytope_rejects_non_facets():
    h = hull(HEXAGON_VERTICES)
    vertex_face = faces(h, 0)[0]
    with pytest.raises(ValueError):
        adjacent_polytope(h, vertex_face)


def test_is_reflexive_requires_full_dimension():
    seg = hull([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        is_reflexive(seg)
    assert is_reflexive(hull([(1, 0), (0, 1), (-1, -1)]))
    assert not is_reflexive(hull([(2, 0), (0, 2), (-2, -2)]))


def test_unimodular_support_examples():
    ok, bases = unimodular_support(HEXAGON_POINTS)
    assert ok and len(bases) == 6
    # A missing edge neighbor breaks the vertex condition.
    ok, _ = unimodular_support([(0, 0), (2, 0), (0, 1)])
    assert not ok
    # The support {0, 2} on a line misses the intermediate point.
    ok, _ = unimodular_support([(0,), (2,)])
    assert not ok
    ok, _ = unimodular_support([(0,), (1,), (2,)])
    assert ok
    # Lower-dimensional supports are judged in their own saturated lattice.
    ok, bases = unimodular_support([(0, 0, 1), (1, 1, 1), (2, 2, 1)])
    assert ok and bases == {(0, 0, 1): ((1, 1, 0),), (2, 2, 1): ((-1, -1, 0),)}
    ok, _ = unimodular_support([(0, 0, 1), (2, 2, 1)])
    assert not ok
    ok, bases = unimodular_support([(x, y, x - y) for x, y in HEXAGON_POINTS])
    assert ok and len(bases) == 6
    ok, _ = unimodular_support([(x, y, x - y) for x, y in [(0, 0), (2, 0), (0, 1)]])
    assert not ok
    # Every edge step lands in the support, but the steps (2, 1) and (1, 2)
    # at the origin span an index-3 lattice: the determinant test refuses it.
    triangle = [(0, 0), (2, 1), (1, 2), (1, 1)]
    assert unimodular_support(triangle) == (False, {})
    with pytest.raises(ValueError, match="support is not unimodular"):
        gec_check(LaurentPolynomial(2, {e: 1 for e in triangle}))


def test_unimodular_support_invariance():
    rng = random.Random(67)
    from helpers import random_unimodular_matrix

    for _ in range(30):
        m = random_unimodular_matrix(rng, 2)
        shift = (rng.randint(-4, 4), rng.randint(-4, 4))
        img = [
            tuple(
                sum(m[i][j] * p[j] for j in range(2)) + shift[i] for i in range(2)
            )
            for p in HEXAGON_POINTS
        ]
        ok, _ = unimodular_support(img)
        assert ok


def test_segment_vertex_condition_matches_the_hull_route():
    # the closed form for points and segments against the hull of the
    # reference: collinear sets t * k * d + c, d a primitive column of a
    # random GL_n(Z) map (a coordinate axis only by chance), with repeated
    # points, single points, and gaps at either end or inside
    rng = random.Random(113)
    patterns = [[0], [0, 0], [0, 1], [0, 2], [0, 2, 3], [0, 1, 3], [0, 1, 2, 3], [0, 1, 1, 2]]
    for _ in range(12):
        patterns.append(rng.sample(range(-3, 6), rng.randint(1, 6)))
    verdicts = set()
    for rank in range(1, 5):
        for ts in patterns:
            m = random_unimodular_matrix(rng, rank)
            d = [row[0] for row in m]
            c = [rng.randint(-5, 5) for _ in range(rank)]
            k = rng.choice([1, 1, 2])
            pts = [tuple(t * k * x + y for x, y in zip(d, c)) for t in ts]
            ok, bases = unimodular_support(pts)
            assert (ok, bases) == reference_unimodular_support(pts), (pts, d)
            assert list(bases) == sorted(bases)
            verdicts.add((len(set(ts)) == 1, ok))
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_unimodular_support_api_edge():
    # the points are parsed as hull parses them, before any lattice is read
    with pytest.raises(ValueError, match="hull of an empty point set"):
        unimodular_support([])
    with pytest.raises(ValueError, match="points of mixed rank"):
        unimodular_support([(0, 0), (1,)])
    with pytest.raises(ValueError, match="points of mixed rank"):
        unimodular_support([(0,), (1,), (0, 1, 2)])
    for bad in (0.0, 1.5, True, "1"):
        with pytest.raises(ValueError):
            unimodular_support([(0, 0), (1, bad)])
    assert unimodular_support([(3, 4)]) == (True, {(3, 4): ()})
    assert unimodular_support([(3, 4), (3, 4)]) == (True, {(3, 4): ()})


def test_face_chart_polynomial_restricts():
    p = parse_expression("1+x+y+x*y+x^2*y")
    h = hull(p.support())
    edges = faces(h, 1)
    bottom = next(
        e for e in edges if set(e.vertices) == {(0, 0), (1, 0)}
    )
    q = face_chart_polynomial(p, bottom)
    assert q.rank == 1
    assert q == parse_expression("1+x")


def test_face_chart_polynomial_rejects_foreign_faces():
    p = parse_expression("1+x+y")
    other = hull([(0, 0), (2, 0), (0, 2)])
    f = faces(other, 1)[0]
    with pytest.raises(ValueError):
        face_chart_polynomial(p, f)


def test_face_chart_polynomial_matches_lattice_point_route(monkeypatch):
    # restricting to the face's lattice points, the route that needed a hull
    # of the support per face, against the containment check and tight facets
    trapezoid = LaurentPolynomial(2, dict(zip(TRAPEZOID_POINTS, [1, 3, 3, 1, 2, 4, 2, 1, 1])))
    polys = [
        standard_hexagon_q(),
        trapezoid,
        parse_expression("(1+x)*(1+y)*(1+z)"),
        parse_expression("x^-1*y*(1+x+y+z)^2"),
        LaurentPolynomial(2, {(0, 0): 1, (1, 1): 2, (2, 2): 1}),
    ]
    for p in polys:
        delta = hull(p.support())
        face_list = [f for d in range(delta.dim + 1) for f in faces(delta, d)]
        expected = []
        for f in face_list:
            allowed = set(f.lattice_points())
            terms = {f.to_chart(e): c for e, c in p.terms.items() if e in allowed}
            expected.append(LaurentPolynomial(f.dim, terms))

        def no_hull(points):
            raise AssertionError("face_chart_polynomial built a hull")

        monkeypatch.setattr(polytope_module, "hull", no_hull)
        got = [face_chart_polynomial(p, f) for f in face_list]
        monkeypatch.undo()
        assert got == expected


def test_face_chart_polynomial_rejects_other_supports():
    edge = faces(hull(parse_expression("1+x+y").support()), 1)[0]
    # a support point outside the parent polytope
    with pytest.raises(ValueError):
        face_chart_polynomial(parse_expression("1+x+y+x*y"), edge)
    # a parent vertex missing from the support
    with pytest.raises(ValueError):
        face_chart_polynomial(parse_expression("1+x", rank=2), edge)
    # off the affine span of a lower-dimensional parent
    diagonal = faces(hull([(0, 0), (2, 2)]), 0)[0]
    with pytest.raises(ValueError):
        face_chart_polynomial(parse_expression("1+x*y+x^2*y^2+x"), diagonal)


def test_normal_cone_rays_point_inward():
    h = hull(HEXAGON_VERTICES)
    for f in faces(h, 1):
        cone = f.normal_cone()
        # Every ray must attain its minimum over the polytope on the face.
        for u in cone:
            vals = {sum(a * b for a, b in zip(u, v)) for v in f.vertices}
            assert len(vals) == 1
            m = vals.pop()
            assert all(
                sum(a * b for a, b in zip(u, v)) >= m for v in h.vertices
            )


def test_polytope_equality_and_json():
    h = hull(HEXAGON_VERTICES)
    assert h == hull(list(reversed(HEXAGON_VERTICES)))
    obj = h.to_obj()
    assert obj["rank"] == 2 and obj["dim"] == 2
    assert len(obj["vertices"]) == 6
