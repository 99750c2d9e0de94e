"""Lattice polytopes, faces, and the support geometry used by the
Monge-Ampere operator.

A LatticePolytope stores its vertices in ambient coordinates and is an
AffineChart (see lattice) onto a full-dimensional polytope in Z^dim. For
full-dimensional polytopes the chart is the identity, and the facet data
(primitive inner normal u with offset a, meaning <u, x> >= -a) lives in
ambient coordinates. Lower-dimensional hulls record their affine span via
the chart and keep facet data in chart coordinates. A Face is a polytope
read off its parent, so it shares every query and builds no hull: its
chart is based at its lowest vertex, with the saturated Hermite basis
(lattice._saturated_basis) of the primitive steps from there to its other
vertices, and its facets and incidence rows are the parent's, restricted.

Each polytope holds its vertex-facet incidence table: incidence[i] is the
bitmask of the vertices on facet i. The public constructor computes it by
dot products and stays the reference; every other polytope is built by one
private path (LatticePolytope._from_parts) from data its builder already
holds. hull knows the table from its construction in every dimension: a
segment's two facets hold its two ends, facet i of a polygon's monotone
chain holds chain vertices i and i + 1, and in dimension 3 and up the table
is the tight-row masks of the extreme rays, as in from_inequalities; a face
inherits the rows incidence[i] & mask of its parent, in its own vertex
order. All face combinatorics is read from that table (Kaibel and Pfetsch,
"Computing the face lattice of a polytope from its vertex-facet
incidences", 2002): a face is named by its active facets, its vertex set is
the AND of their masks, and LatticePolytope.face is the one constructor
that turns an active facet set into a Face. A polytope is simple when every
vertex lies on exactly dim facets, a test made once and kept on the
polytope; a simple polytope reads its d-faces off its vertex stars
(_star_faces): at a vertex, each set of dim - d of its facets cuts out one
face, kept at its lowest vertex only. faces takes the stars for
1 <= d <= dim - 2; every other polytope and dimension walks the face
lattice down from the facets, and the walk is the reference: the facets of
a face are the maximal nonempty proper intersections of its mask with the
facet masks. Every chart basis comes from the rule of the Face chart.
_chart_bases applies it to the d-faces of descent with no Face built: to
the steps along the d edges at the lowest vertex on a simple polytope,
whose d-faces come off the stars, and to the steps to the other vertices
on any other polytope, whose d-faces come off the walk. Those steps span
the Face's lattice, so the basis is the Face chart basis. _chart_polygons
reads polytope-only descent's 2-face chart vertices off it, and polynomial
descent charts p's support points on each face with it
(_chart_restriction). A chart polytope has one route, the hull of its
chart points: Face.chart_polytope is the hull of the face's chart
vertices, and descent examines each distinct polygon as the hull of its
key's points (the chart vertex tuple here, or the support of a face's
chart polynomial, whose vertices are the face's). Polygon edges are simply
the facets. adjacent_points(i, on) lists the lattice points at height one
over facet i on every facet in on; the edge ratio test of gec reads its
height-one line in closed form instead.

Both directions of the hull are one problem, the extreme rays of a
pointed cone, which _extreme_rays solves by the integer double description
method. The facets of conv(V) are the extreme rays (a, u) of
{a + <u, v> >= 0 for all v in V}, and the vertices of {x : <u_i, x> >= -a_i}
are the extreme rays (1, x) of {t >= 0, a_i t + <u_i, x> >= 0}, where a ray
(0, x) proves the system unbounded. Each ray comes with the mask of its
tight rows, from which every vertex and facet test is read; linear algebra
is left for the rays and the charts. Segments and polygons are cheaper by
their direct formulas and skip it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd
from operator import add, and_, mul, sub
from typing import Callable, Collection, Iterable, Sequence

from .lattice import (
    AffineChart,
    IntVector,
    _primitive,
    _saturated_basis,
    bareiss_reduce,
    difference_lattice_basis,
    dot,
    hermite_reduce_rows,
    identity_matrix,
    integer_determinant,
    integer_value,
    integer_vector,
    matrix_rank,
)

Facet = tuple[IntVector, int]

__all__ = [
    "LatticePolytope",
    "Face",
    "hull",
    "from_inequalities",
    "faces",
    "min_weight_subset",
    "adjacent_polytope",
    "is_reflexive",
    "unimodular_support",
    "face_chart_polynomial",
]


class LatticePolytope(AffineChart):
    """Convex hull of lattice points, with exact facet data.

    vertices are ambient integer tuples in sorted order. The chart (base and
    basis, stored as chart_base and chart_basis) maps x to the coordinates
    of x - base in the saturated difference lattice, a bijection between
    the polytope's affine span and Z^dim. facets are (u, a) pairs in chart
    coordinates with u primitive and the list irredundant; the polytope is
    {y : <u, y> >= -a for all facets}. incidence[i] has bit j set when
    vertex j lies on facet i. The public constructor checks the chart: rank
    and dim must be exact ints equal to the lengths of base and basis, and
    the basis must generate the saturated difference lattice of the
    vertices, which holds exactly when its Hermite form is that lattice's
    basis, and every facet normal must be a primitive vector of exact ints
    and every offset an exact int, or ValueError is raised.
    """

    __slots__ = (
        "rank",
        "dim",
        "vertices",
        "cvertices",
        "facets",
        "incidence",
        "_points",
        "_stars",
    )

    def __init__(
        self,
        rank: int,
        dim: int,
        vertices: Sequence[IntVector],
        base: IntVector,
        basis: Sequence[IntVector],
        facets: Sequence[Facet],
    ):
        super().__init__(base, basis)
        rank, dim = integer_value(rank, "rank"), integer_value(dim, "dim")
        if (rank, dim) != (len(self.chart_base), len(self.chart_basis)):
            raise ValueError(f"rank {rank} and dim {dim} do not match the chart")
        vertices = sorted(tuple(v) for v in vertices)
        # equal lattices have equal Hermite bases
        lattice = difference_lattice_basis(vertices)[1]
        if tuple(map(tuple, hermite_reduce_rows(self.chart_basis))) != lattice:
            raise ValueError("chart basis is not a basis of the saturated difference lattice")
        cvertices = [self.to_chart(v) for v in vertices]
        facets = [(integer_vector(u), integer_value(a, "facet offset")) for u, a in facets]
        for u, _ in facets:
            if gcd(*u) != 1:
                raise ValueError(f"facet normal {u} is not primitive")
        incidence = [
            sum(1 << j for j, c in enumerate(cvertices) if dot(u, c) == -a) for u, a in facets
        ]
        self._fill(rank, dim, vertices, cvertices, facets, incidence)

    def _fill(
        self,
        rank: int,
        dim: int,
        vertices: Sequence[IntVector],
        cvertices: Sequence[IntVector],
        facets: Sequence[Facet],
        incidence: Sequence[int],
    ) -> None:
        """Store the polytope data once the chart is set, the one construction
        path. The public constructor recomputes cvertices and the incidence
        table; hull, from_inequalities and Face pass on what they already
        hold. vertices are sorted, cvertices are their chart images and
        incidence[i] is the vertex mask of facets[i]; nothing is checked.
        The polytope is immutable (see AffineChart), so this writes through
        object.__setattr__."""
        put = object.__setattr__
        put(self, "rank", rank)
        put(self, "dim", dim)
        put(self, "vertices", tuple(vertices))
        put(self, "cvertices", tuple(cvertices))
        put(self, "facets", tuple(facets))
        put(self, "incidence", tuple(incidence))
        put(self, "_points", None)
        put(self, "_stars", None)

    @classmethod
    def _from_parts(
        cls,
        rank: int,
        base: IntVector,
        basis: Sequence[IntVector],
        vertices: Sequence[IntVector],
        cvertices: Sequence[IntVector],
        facets: Sequence[Facet],
        incidence: Sequence[int],
    ) -> "LatticePolytope":
        """A polytope on the chart (base, basis), from sorted vertices, their
        chart images, facets and their incidence rows, with nothing
        recomputed."""
        p = cls.__new__(cls)
        AffineChart.__init__(p, base, basis)
        p._fill(rank, len(basis), vertices, cvertices, facets, incidence)
        return p

    def face(
        self,
        active: Sequence[int],
        chart_base: IntVector | None = None,
        chart_basis: Sequence[IntVector] | None = None,
    ) -> "Face":
        """The face cut out by the facets with the given indices (the whole
        polytope for an empty set): its vertices are those on every active
        facet. The indices must be distinct exact ints in range(len(facets)),
        or ValueError is raised. chart_base and chart_basis optionally fix
        the face chart: a point of the face's affine lattice and a basis of
        its lattice, in exact ints, or ValueError is raised."""
        active = integer_vector(active)
        if len(set(active)) < len(active) or not set(active) <= set(range(len(self.facets))):
            raise ValueError(f"{active} are not distinct facet indices")
        mask = reduce(and_, (self.incidence[i] for i in active), (1 << len(self.vertices)) - 1)
        if not mask:
            raise ValueError(f"facets {active} have no common vertex")
        return Face(self, active, mask, chart_base, chart_basis)

    def _vertex_stars(self) -> tuple[tuple[int, ...], ...] | None:
        """The sorted tight facet indices of every vertex when the polytope is
        simple, and None when it is not. It is simple when every vertex lies
        on exactly dim facets, read off the transposed incidence table; the
        test is made once per polytope."""
        if self._stars is None:
            stars: list[list[int]] = [[] for _ in self.vertices]
            for i, m in enumerate(self.incidence):
                for j in _bit_positions(m):
                    stars[j].append(i)
            simple = all(len(star) == self.dim for star in stars)
            # () records a polytope found not simple, None one not yet tested
            object.__setattr__(self, "_stars", tuple(map(tuple, stars)) if simple else ())
        return self._stars or None

    def mask_vertices(self, mask: int) -> tuple[IntVector, ...]:
        """The vertices whose bits are set in mask, in sorted order."""
        return tuple(self.vertices[j] for j in _bit_positions(mask))

    def adjacent_points(self, index: int, on: Sequence[int] = ()) -> list[IntVector]:
        """Lattice points at lattice height one over facet index that lie on
        every facet in on, sorted: the adjacent polytope of the facet when
        on is empty, a two-ray adjunction strip when on is one facet. The
        facet indices must be exact ints in range(len(facets)), or
        ValueError is raised."""
        index, on = integer_value(index, "facet index"), integer_vector(on)
        if not {index, *on} <= set(range(len(self.facets))):
            raise ValueError(f"facet indices {(index, *on)} are not all in range")
        u, a = self.facets[index]
        tight = [self.facets[j] for j in on]
        out = []
        for x in self.lattice_points():
            c = self.to_chart(x)
            if dot(u, c) == 1 - a and all(dot(w, c) == -b for w, b in tight):
                out.append(x)
        return out

    def contains(self, point: Sequence[int]) -> bool:
        """True when the point lies in the polytope; False off its lattice or
        its affine span. Coordinates must be exact ints, or ValueError is
        raised."""
        point = integer_vector(point)
        try:
            c = self.to_chart(point)
        except ValueError:
            return False
        return all(dot(u, c) >= -a for u, a in self.facets)

    def is_hull_of(self, points: Iterable[Sequence[int]]) -> bool:
        """True when the polytope is the convex hull of points: every vertex
        is one of the points and every point lies in the polytope. Points
        are parsed and judged as contains does, each parsed once."""
        pts = {integer_vector(p) for p in points}
        if not set(self.vertices) <= pts:
            return False
        try:
            charted = [self.to_chart(p) for p in pts]
        except ValueError:
            return False
        # chart points and facet normals both have length dim
        return all(sum(map(mul, u, c)) >= -a for u, a in self.facets for c in charted)

    def lattice_points(self) -> tuple[IntVector, ...]:
        """All lattice points, by scanning the chart bounding box. Fine for
        the low dimensions where this is actually called; the scan is cached.
        """
        if self._points is None:
            stack: list[IntVector] = [()]
            for i in range(self.dim):
                lo = min(v[i] for v in self.cvertices)
                hi = max(v[i] for v in self.cvertices)
                stack = [pref + (t,) for pref in stack for t in range(lo, hi + 1)]
            points = sorted(
                self.from_chart(c) for c in stack if all(dot(u, c) >= -a for u, a in self.facets)
            )
            object.__setattr__(self, "_points", tuple(points))
        return self._points

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticePolytope):
            return NotImplemented
        return self.rank == other.rank and self.vertices == other.vertices

    def __repr__(self) -> str:
        return (
            f"LatticePolytope(rank={self.rank}, dim={self.dim}, "
            f"{len(self.vertices)} vertices, {len(self.facets)} facets)"
        )

    def to_obj(self) -> dict:
        return {
            "rank": self.rank,
            "dim": self.dim,
            "vertices": [list(v) for v in self.vertices],
            "facets": [{"u": list(u), "a": a} for u, a in self.facets],
        }


class Face(LatticePolytope):
    """A face of a polytope, read off its parent. active is the sorted tuple
    of the parent facets that name it (empty for the whole polytope):
    faces() names every parent facet containing the face, but
    LatticePolytope.face keeps the set it is given, which may be smaller.
    Its vertices are the bits of the mask LatticePolytope.face reads off the
    incidence table, in the parent's vertex order, so already sorted. The
    chart is the saturated lattice of the face unless a base point and basis
    are supplied for a particular plane model. Faces serve faces() and
    face_chart_polynomial, the reference routes of descent, which builds none.

    The face lattice is Z^rank meet the real span of F - F, in ambient
    coordinates: the parent's saturated chart lattice cut by that span. The
    steps from the lowest vertex to the others span it over the rationals,
    and dividing each by the gcd of its entries keeps that span, so
    lattice._saturated_basis of the primitive steps is its unique Hermite
    basis, the basis of the saturated difference lattice of the vertices;
    its length is the face's dimension. A supplied base and basis are
    parsed as exact ints, and the basis must generate the same lattice,
    which holds exactly when its Hermite form is that basis, or ValueError
    is raised.

    A parent facet (u, a) whose cut incidence & mask is nonempty, proper and
    maximal gives the facet (u', a') = ([<u, s_k>], <u, origin> + a) / gcd(u'),
    with origin and s_k the face chart's base and basis steps in parent
    chart coordinates. This is exact:
    - every facet of F is a maximal proper cut of F by a parent facet (it is
      the intersection of the parent facets through it, one of which misses
      part of F), and every maximal proper cut is a facet of F;
    - two parent facets with the same cut restrict to positive multiples of
      one functional, so the first index with the cut is kept;
    - the gcd divides the offset, because the cut contains lattice points.
    The incidence row of that facet is the cut itself, compressed to the
    face's vertex bits, and it travels with its facet through the sort.
    """

    __slots__ = ("parent", "active")

    def __init__(
        self,
        parent: LatticePolytope,
        active: Sequence[int],
        mask: int,
        chart_base: IntVector | None = None,
        chart_basis: Sequence[IntVector] | None = None,
    ):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "active", tuple(sorted(active)))
        bits = _bit_positions(mask)
        vertices = [parent.vertices[j] for j in bits]
        low = vertices[0]
        steps = [_primitive([x - y for x, y in zip(v, low)]) for v in vertices[1:]]
        basis = _saturated_basis(steps, parent.rank)
        AffineChart.__init__(
            self,
            low if chart_base is None else integer_vector(chart_base),
            basis if chart_basis is None else map(integer_vector, chart_basis),
        )
        # equal lattices have equal Hermite bases
        if chart_basis is not None and hermite_reduce_rows(self.chart_basis) != basis:
            raise ValueError("chart basis is not a basis of the face lattice")
        origin = parent.to_chart(self.chart_base)
        ends = [parent.to_chart(tuple(map(add, self.chart_base, b))) for b in self.chart_basis]
        rows = []
        for i in _facet_rows([m & mask for m in parent.incidence], mask):
            u, a = parent.facets[i]
            at_origin = dot(u, origin)
            w = [dot(u, e) - at_origin for e in ends]
            g = gcd(*w)
            rows.append(((tuple(x // g for x in w), (at_origin + a) // g), parent.incidence[i]))
        rows.sort()
        self._fill(
            parent.rank,
            len(basis),
            vertices,
            [self.to_chart(v) for v in vertices],
            [facet for facet, _ in rows],
            [_compress(m, bits) for _, m in rows],
        )

    def chart_polytope(self) -> LatticePolytope:
        """The face as a full-dimensional polytope in its chart coordinates:
        the hull of its chart vertices, the one route from chart points to
        a chart polytope."""
        return hull(self.cvertices)

    def normal_cone(self) -> tuple[IntVector, ...]:
        """Rays of the normal cone of the face: the active inner facet normals."""
        return tuple(self.parent.facets[i][0] for i in self.active)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticePolytope):
            return NotImplemented
        # a polytope equals none of its faces, not even the whole one
        same_parent = isinstance(other, Face) and self.parent == other.parent
        return same_parent and self.vertices == other.vertices

    def __repr__(self) -> str:
        return f"Face(dim={self.dim}, active={self.active}, vertices={self.vertices})"


def _bit_positions(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _compress(mask: int, positions: Sequence[int]) -> int:
    """The mask with bit k set when bit positions[k] of mask is set: a row
    of the incidence table read in a sub- or reordered vertex list."""
    return sum(1 << k for k, j in enumerate(positions) if mask >> j & 1)


def _monotone_chain(points: Sequence[IntVector]) -> list[IntVector]:
    """Counterclockwise convex hull vertices of a 2-d point set."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o: IntVector, a: IntVector, b: IntVector) -> int:
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[IntVector] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[IntVector] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _polygon_facets(ccw_vertices: Sequence[IntVector]) -> list[Facet]:
    out: list[Facet] = []
    k = len(ccw_vertices)
    for i in range(k):
        v = ccw_vertices[i]
        w = ccw_vertices[(i + 1) % k]
        d = (w[0] - v[0], w[1] - v[1])
        u = _primitive((-d[1], d[0]))
        out.append((u, -dot(u, v)))
    return out


def _extreme_rays(rows: Sequence[IntVector]) -> list[tuple[IntVector, int]]:
    """(ray, mask) for each primitive extreme ray of the pointed cone
    {x : <row, x> >= 0} in Z^d, bit i of mask set when rows[i] is tight at
    the ray, by the double description method (Motzkin, Raiffa, Thompson and
    Thrall, 1953; Fukuda and Prodon, "Double description method revisited",
    1996). The rows must have rank d. The method starts from the simplicial
    cone of the first d independent rows and adds the other rows in input
    order, keeping each ray's tight-row mask.

    The starting cone comes from one Bareiss elimination of the simplicial
    rows A, each with its row of the identity appended: the echelon is
    [U | L] with U = L A, and back substitution gives the integer numerators
    D A^-1 = adj(A) up to sign, D the last pivot. Column j of A^-1 is the ray
    on which every simplicial row but the j-th is tight, so ray j is column j
    of the numerators, primitive and signed by D. The scan stops at the d-th
    independent row.

    When a row cuts the cone, a ray on its positive side and one on its
    negative side span a new ray on the row's hyperplane exactly when they
    are adjacent, which the combinatorial test decides: they share at least
    d - 2 tight rows, and no third ray is tight on all of those. The third
    rays are read off a transposed incidence, built once per row that cuts
    the cone: for each row, the bitset of the current rays tight on it. The
    rays tight on all the shared rows are the AND of those bitsets, which
    always holds the pair, so the pair is adjacent exactly when the AND is
    the pair.
    """
    d = len(rows[0])
    echelon: list[tuple[int, list[int]]] = []
    simplicial: list[int] = []
    for i, row in enumerate(rows):
        # the appended identity row keeps the reduced row nonzero, and a row
        # in the span of the rows before it has its pivot there
        unit = [int(k == len(simplicial)) for k in range(d)]
        col, reduced = bareiss_reduce([*row, *unit], echelon)
        if col < d:
            echelon.append((col, reduced))
            simplicial.append(i)
            if len(simplicial) == d:
                break
    col, last = echelon[-1]
    det = last[col]
    # numerators[j] is det times column j of the inverse of the simplicial rows
    numerators = [[0] * d for _ in range(d)]
    for col, row in reversed(echelon):
        pivot = row[col]
        for j, x in enumerate(numerators):
            # x is still 0 at the unsolved columns, and row is 0 at the pivots
            # of the rows before it
            x[col] = (row[d + j] * det - sum(a * b for a, b in zip(row, x) if b)) // pivot
    all_tight = sum(1 << i for i in simplicial)
    sign = 1 if det > 0 else -1
    rays: list[tuple[IntVector, int]] = [
        (_primitive([sign * c for c in x]), all_tight ^ 1 << i)
        for x, i in zip(numerators, simplicial)
    ]

    done = set(simplicial)
    for k, row in enumerate(rows):
        if k in done:
            continue
        bit = 1 << k
        positive, negative, kept = [], [], []
        for q, (x, mask) in enumerate(rays):
            s = dot(row, x)
            if s > 0:
                positive.append((s, x, mask, 1 << q))
                kept.append((x, mask))
            elif s < 0:
                negative.append((s, x, mask, 1 << q))
            else:
                kept.append((x, mask | bit))
        if positive and negative:
            # tight[i] has bit q set when ray q is tight on row i
            tight = [0] * len(rows)
            for q, (_, mask) in enumerate(rays):
                b = 1 << q
                while mask:
                    low = mask & -mask
                    tight[low.bit_length() - 1] |= b
                    mask ^= low
            every = (1 << len(rays)) - 1
            for sp, xp, mp, bp in positive:
                for sn, xn, mn, bn in negative:
                    common = mp & mn
                    if common.bit_count() < d - 2:
                        continue
                    # adjacent: no ray but p and n is tight on all of common
                    pair = bp | bn
                    on_all = every
                    while common and on_all != pair:
                        low = common & -common
                        on_all &= tight[low.bit_length() - 1]
                        common ^= low
                    if on_all != pair:
                        continue
                    ray = _primitive([sp * b - sn * a for a, b in zip(xp, xn)])
                    kept.append((ray, mp & mn | bit))
        rays = kept
    return rays


def hull(points: Iterable[Sequence[int]]) -> LatticePolytope:
    """Convex hull of integer points, of any dimension.

    Lower-dimensional configurations are handled by first passing to the
    chart given by the saturated difference lattice, so the facet data is
    full-dimensional in chart coordinates. Every dimension ends in one
    construction path, LatticePolytope._from_parts, with the incidence rows
    its own construction already knows: nothing is recomputed by dot
    products.
    """
    pts = sorted({integer_vector(p) for p in points})
    if not pts:
        raise ValueError("hull of an empty point set")
    rank = len(pts[0])
    if any(len(p) != rank for p in pts):
        raise ValueError("points of mixed rank")
    dim, basis = difference_lattice_basis(pts)
    # Full-dimensional: the Hermite basis of Z^rank is the identity, and a
    # zero base keeps the chart equal to the ambient coordinates so facet
    # data can be read off without unshifting.
    if dim == rank:
        base, cpts = (0,) * rank, pts
    else:
        base = pts[0]
        chart = AffineChart(base, basis)
        cpts = [chart.to_chart(p) for p in pts]

    # positions holds the indices of the vertices in pts, and rows each
    # facet with its incidence row over them; the points are sorted, so the
    # vertex positions are too, and each row travels with its facet through
    # the sort
    if dim == 0:
        positions, rows = [0], []
    elif dim == 1:
        # the two facets hold the points of least and greatest coordinate
        lo = min(range(len(cpts)), key=cpts.__getitem__)
        hi = max(range(len(cpts)), key=cpts.__getitem__)
        positions = sorted((lo, hi))
        ends = [((1,), -cpts[lo][0], lo), ((-1,), cpts[hi][0], hi)]
        rows = sorted(((u, a), 1 << positions.index(i)) for u, a, i in ends)
    elif dim == 2:
        # facet i of the counterclockwise chain holds its vertices i and i + 1
        index = {c: i for i, c in enumerate(cpts)}
        ccw = [index[c] for c in _monotone_chain(cpts)]
        positions = sorted(ccw)
        bit = {i: 1 << k for k, i in enumerate(positions)}
        rows = sorted(
            (facet, bit[i] | bit[j])
            for facet, i, j in zip(_polygon_facets([cpts[i] for i in ccw]), ccw, ccw[1:] + ccw[:1])
        )
    else:
        # facet (u, a) is the ray (a, u) of {(a, u) : a + <u, c> >= 0}, and
        # its mask holds the points on it; a point is a vertex exactly when
        # the facets through it meet in that point alone, and each mask
        # compressed to the vertices is the facet's incidence row
        rays = _extreme_rays([(1,) + c for c in cpts])
        positions = [
            i
            for i in range(len(cpts))
            if reduce(and_, (m for _, m in rays if m >> i & 1), -1) == 1 << i
        ]
        rows = sorted(((ray[1:], ray[0]), _compress(m, positions)) for ray, m in rays)
    return LatticePolytope._from_parts(
        rank,
        base,
        basis,
        [pts[i] for i in positions],
        [cpts[i] for i in positions],
        [facet for facet, _ in rows],
        [m for _, m in rows],
    )


def from_inequalities(
    rank: int, normals: Sequence[Sequence[int]], offsets: Sequence[int]
) -> LatticePolytope:
    """Polytope {x : <u_i, x> >= -a_i} from inequality data.

    The normals must span Q^rank, or the region has no vertex. The vertices
    are read off the extreme rays (t, x) of the cone
    {t >= 0, a_i t + <u_i, x> >= 0}: a primitive ray with t = 1 is the
    vertex x, a ray with t > 1 is a non-lattice vertex x / t, and a ray with
    t = 0 is a direction in which the region is unbounded. The last two
    raise, and so does an empty region, which has no ray with t > 0. An
    inequality tight at every vertex makes the result lower-dimensional, and
    it falls back to the hull of its vertices. Otherwise the facets are the
    inequalities whose vertex masks are nonempty and maximal, kept once each
    in their given order, so facet indices line up with the input. rank
    and all the data must be exact ints, so bools and floats raise
    ValueError.
    """
    rank = integer_value(rank, "rank")
    normals = [integer_vector(u) for u in normals]
    offsets = integer_vector(offsets)
    if len(normals) != len(offsets):
        raise ValueError("one offset per normal required")
    if any(len(u) != rank for u in normals):
        raise ValueError("normals of wrong rank")
    if any(u != _primitive(u) or not any(u) for u in normals):
        raise ValueError("normals must be primitive and nonzero")
    if matrix_rank(normals) < rank:
        raise ValueError(f"normals have rank below {rank}, so the region has no vertex")

    rows = [(1,) + (0,) * rank] + [(a,) + u for u, a in zip(normals, offsets)]
    rays = sorted(_extreme_rays(rows))
    if not any(ray[0] for ray, _ in rays):
        raise ValueError("inequalities have no feasible vertex")
    if not all(ray[0] for ray, _ in rays):
        raise ValueError("inequalities describe an unbounded region")
    if any(ray[0] > 1 for ray, _ in rays):
        raise ValueError("inequalities describe a polytope with non-lattice vertices")
    vertices = [ray[1:] for ray, _ in rays]
    # bit j of masks[i] is set when inequality i (row i + 1) is tight at vertex j
    masks = [
        sum(1 << j for j, (_, tight) in enumerate(rays) if tight >> i & 1)
        for i in range(1, len(normals) + 1)
    ]
    full = (1 << len(vertices)) - 1
    if full in masks:
        return hull(vertices)

    # the kept rows' masks are their incidence rows, and the vertices are
    # sorted with the rays
    kept = _facet_rows(masks, full)
    facets = [(normals[i], offsets[i]) for i in kept]
    incidence = [masks[i] for i in kept]
    return LatticePolytope._from_parts(
        rank, (0,) * rank, identity_matrix(rank), vertices, vertices, facets, incidence
    )


def _facet_rows(masks: Sequence[int], full: int) -> list[int]:
    """Indices of the rows whose vertex masks name the facets, the one facet
    rule of from_inequalities and Face: a row is kept when its mask is
    nonempty and proper (not full), it is the first row with that mask, and
    its mask lies strictly inside no other proper mask."""
    cuts = set(masks) - {0, full}
    maximal = {m for m in cuts if not any(m & n == m != n for n in cuts)}
    return [i for i, m in enumerate(masks) if m in maximal and masks.index(m) == i]


def faces(p: LatticePolytope, d: int) -> list[Face]:
    """All d-dimensional faces, canonically ordered by active facet set. d
    must be an exact int, so bools and floats raise ValueError."""
    return [p.face(active) for active, _ in _face_masks(p, integer_value(d, "d"))]


def _face_masks(p: LatticePolytope, d: int) -> list[tuple[tuple[int, ...], int]]:
    """(active facet set, vertex mask) of every d-face, sorted by active set.
    A simple polytope reads its d-faces for 1 <= d <= dim - 2 off its vertex
    stars (_star_faces); every other case walks the face lattice
    (_walk_face_masks), the reference for the star route. At d = 0, dim - 1
    and dim the walk has no cut loop, and the stars measured slower there,
    on polygons."""
    if 1 <= d <= p.dim - 2 and p._vertex_stars() is not None:
        return [(active, mask) for active, mask, _, _ in _star_faces(p, d)]
    return _walk_face_masks(p, d)


def _walk_face_masks(p: LatticePolytope, d: int) -> list[tuple[tuple[int, ...], int]]:
    """(active facet set, vertex mask) of every d-face, sorted by active set,
    walking the face lattice down from the facets one dimension at a time:
    the facets of a face F are the inclusion-maximal nonempty proper
    intersections of F with the facets. Taken in descending popcount order,
    a cut of F is maximal exactly when no cut kept before it contains it.
    """
    if d < 0 or d > p.dim:
        raise ValueError(f"no faces of dimension {d} in a {p.dim}-polytope")
    if d == p.dim:
        return [((), (1 << len(p.vertices)) - 1)]

    masks = p.incidence
    if d == 0:
        level = {1 << i for i in range(len(p.vertices))}
    else:
        level = set(masks)
        for _ in range(p.dim - 1 - d):
            below: set[int] = set()
            for face in level:
                cuts = {face & m for m in masks} - {0, face}
                kept: list[int] = []
                for cut in sorted(cuts, key=int.bit_count, reverse=True):
                    if all(cut & k != cut for k in kept):
                        kept.append(cut)
                below.update(kept)
            level = below
    return sorted(
        (tuple(j for j, m in enumerate(masks) if m & face == face), face) for face in level
    )


def _star_faces(
    p: LatticePolytope, d: int
) -> list[tuple[tuple[int, ...], int, int, tuple[int, ...]]]:
    """(active facet set, vertex mask, lowest vertex, up-edge ends) of every
    d-face of a simple polytope, 0 <= d <= dim, sorted by active set.

    At a vertex v of a simple polytope the dim tight facets have independent
    normals, so each (dim - d)-subset S of them cuts out one d-face through
    v, whose mask is the AND of the rows of S and whose active set is S
    itself (Kalai, "A simple way to tell a simple polytope from its graph",
    1988). The edge at v that leaves facet t is the AND of the other dim - 1
    rows. The vertex order is lexicographic, which a generic linear
    functional realizes, so v is the lowest vertex of a face through it
    exactly when every edge of the face at v goes up: each face is emitted
    once, at its lowest vertex, as a d-subset of the up edges there. The
    last field lists the other ends of the face's d edges at that vertex.
    Every AND starts from the full vertex mask, so d = dim gives the
    polytope itself and d = dim - 1 its facets.

    The d-subsets of up edges are chosen in star order, and the running AND
    of the star rows kept so far is carried from one chosen position to the
    next, so each row is ANDed once per prefix of the choice and each face
    costs one AND with the suffix of the star after its last choice.
    """
    rows = p.incidence
    full = (1 << len(p.vertices)) - 1
    out: list[tuple[tuple[int, ...], int, int, tuple[int, ...]]] = []

    def choose(start: int, first: int, left: int, acc: int, active: tuple, ends: tuple) -> None:
        # leave `left` more of the up edges up[first:], at star positions >=
        # start; acc is the AND of the kept rows before start, active their
        # facets, and ends the ends of the up edges already left. j, star,
        # masks, suffix and up are those of the vertex the loop below is at
        pos = start
        for i in range(first, len(up) - left + 1):
            k, e = up[i]
            while pos < k:
                acc &= masks[pos]
                pos += 1
            if left == 1:
                kept = active + star[start:k] + star[k + 1 :]
                out.append((kept, acc & suffix[k + 1], j, ends + (e,)))
            else:
                choose(k + 1, i + 1, left - 1, acc, active + star[start:k], ends + (e,))

    for j, star in enumerate(p._vertex_stars()):
        bit = 1 << j
        n = len(star)
        masks = [rows[t] for t in star]
        # prefix[k] and suffix[k] are the ANDs of masks[:k] and masks[k:], so
        # the edge leaving star[k] is prefix[k] & suffix[k + 1]
        prefix = [full]
        for m in masks:
            prefix.append(prefix[-1] & m)
        suffix = [full] * (n + 1)
        for k in range(n - 1, -1, -1):
            suffix[k] = suffix[k + 1] & masks[k]
        # (star position, other end) of every up edge
        up = []
        for k in range(n):
            end = (prefix[k] & suffix[k + 1]) ^ bit
            if end > bit:
                up.append((k, end.bit_length() - 1))
        if d:
            choose(0, 0, d, full, (), ())
        else:
            out.append((star, suffix[0], j, ()))
    out.sort()
    return out


def _chart_bases(p: LatticePolytope, d: int, prepare: Callable) -> list[tuple]:
    """(active facet set, vertex mask, lowest vertex, prepare(basis)) of
    every d-face, sorted by active set, where the lowest vertex and basis
    are the Face chart base and basis: the one route from a face to its
    chart in descent, with no Face built.

    Each d-face comes with its lowest vertex v and other vertices whose
    steps from v span the face: the other ends of its d edges at v on a
    simple polytope (_star_faces), and all its other vertices on any other
    polytope (_walk_face_masks). The parent chart is saturated, so the face
    lattice is Z^rank meet span(F - F) in ambient coordinates, and the Face
    chart basis is its unique Hermite basis, which lattice._saturated_basis
    reads off the primitive steps. The reduction and prepare run once per
    sorted tuple of steps. NP(p) of a polynomial with unimodular support is
    simple, since every vertex has exactly dim edges, so polynomial descent
    always takes the star route.
    """
    found = _star_faces(p, d) if p._vertex_stars() else [
        (active, mask, low, ends)
        for active, mask in _walk_face_masks(p, d)
        for low, *ends in [_bit_positions(mask)]
    ]
    vs = p.vertices
    # the sorted primitive steps -> prepare(their saturated Hermite basis)
    bases: dict[tuple[IntVector, ...], object] = {}
    # (vertex, other end) -> the primitive step
    steps: dict[tuple[int, int], IntVector] = {}
    out = []
    for active, mask, v, ends in found:
        c0 = vs[v]
        edges = []
        for e in ends:
            step = steps.get((v, e))
            if step is None:
                step = steps[v, e] = _primitive(tuple(map(sub, vs[e], c0)))
            edges.append(step)
        rows = tuple(sorted(edges))
        basis = bases.get(rows)
        if basis is None:
            basis = bases[rows] = prepare(_saturated_basis(rows, p.rank))
        out.append((active, mask, c0, basis))
    return out


def _chart_polygons(
    p: LatticePolytope,
) -> list[tuple[tuple[int, ...], tuple[IntVector, ...], tuple[IntVector, ...]]]:
    """(active facet set, vertices, chart vertices) of every 2-face, sorted
    by active set, the chart vertices equal to those of the Face, which is
    not built: each basis of _chart_bases is kept as its pivot columns, and
    a vertex's coordinates are two exact divisions there, since the second
    row is zero at the first pivot. One loop decodes each face mask once
    into the vertex tuple and the key."""

    def pivots(basis: Sequence[IntVector]) -> tuple[int, int, int, int, int]:
        # the pivot columns i, j and the entries first[i], first[j], second[j]
        first, second = basis
        i, j = (next(k for k, x in enumerate(row) if x) for row in basis)
        return i, j, first[i], first[j], second[j]

    vs = p.vertices
    out = []
    for active, mask, c0, (i, j, fi, fj, sj) in _chart_bases(p, 2, pivots):
        ci, cj = c0[i], c0[j]
        vertices, key = [], []
        while mask:
            low = mask & -mask
            w = vs[low.bit_length() - 1]
            mask ^= low
            a = (w[i] - ci) // fi
            vertices.append(w)
            key.append((a, (w[j] - cj - a * fj) // sj))
        out.append((active, tuple(vertices), tuple(key)))
    return out


def min_weight_subset(
    points: Iterable[Sequence[int]], weights: Iterable[Sequence[int]]
) -> list[IntVector]:
    """Points where every weight vector attains its minimum over the set.

    weights is an iterable of integer vectors, such as the rays of
    Face.normal_cone(); a single vector is passed as a one-element list.
    This is the support of the initial part of a polynomial in the
    direction of a cone, computed without any hull machinery.
    """
    pts = [integer_vector(p) for p in points]
    if not pts:
        raise ValueError("empty point set")
    rays = [integer_vector(w) for w in weights]
    keep = pts
    for u in rays:
        m = min(dot(u, p) for p in keep)
        keep = [p for p in keep if dot(u, p) == m]
    return sorted(set(keep))


def adjacent_polytope(p: LatticePolytope, facet: Face) -> list[IntVector]:
    """Lattice points of the polytope at lattice height one over a facet.

    For a reflexive polytope this set is nonempty for every facet since the
    origin lies at height one over all of them.
    """
    if facet.parent is not p and facet.parent != p:
        raise ValueError("facet does not belong to this polytope")
    if facet.dim != p.dim - 1 or len(facet.active) != 1:
        raise ValueError("face is not a facet")
    return p.adjacent_points(facet.active[0])


def is_reflexive(p: LatticePolytope) -> bool:
    """True when every facet has lattice distance one from the origin.
    Only meaningful (and only allowed) for full-dimensional polytopes."""
    if p.dim != p.rank:
        raise ValueError("reflexivity is undefined for lower-dimensional polytopes")
    return all(a == 1 for _, a in p.facets)


def unimodular_support(
    points: Iterable[Sequence[int]],
) -> tuple[bool, dict[IntVector, tuple[IntVector, ...]]]:
    """Check the vertex condition for supports: at every vertex v of the
    hull, the primitive steps along the incident edges must point to lattice
    points of the set and form a basis of the saturated difference lattice.

    Returns (ok, vertex_bases) with the edge steps in ambient coordinates,
    keyed in sorted vertex order; on failure the map is empty. The points
    are parsed as hull parses them, so an empty set, points of mixed rank
    and coordinates that are not exact ints raise ValueError; the condition
    itself is _vertex_condition on the saturated difference lattice.
    """
    pts = {integer_vector(p) for p in points}
    if not pts:
        raise ValueError("hull of an empty point set")
    if len({len(p) for p in pts}) > 1:
        raise ValueError("points of mixed rank")
    return _vertex_condition(pts, *difference_lattice_basis(pts))


def _vertex_condition(
    points: Collection[IntVector], r: int, basis: Sequence[IntVector]
) -> tuple[bool, dict[IntVector, tuple[IntVector, ...]]]:
    """unimodular_support of distinct points of one length, given the rank r
    and the Hermite basis of their saturated difference lattice
    (lattice.difference_lattice_basis), which mu's split already holds for
    every support and factor.

    A point or a segment needs no hull. A segment's basis is one primitive
    vector b whose first nonzero entry, at i, is positive, so the points lie
    in sorted order along b at chart coordinate (e_i - lo_i) / b_i, from the
    least point lo to the greatest hi. Its one edge steps by b from lo and
    by -b from hi, and the condition holds exactly when the coordinates
    t_min + 1 and t_max - 1 are in the set (the rule of gec.classify_1d).

    A polygon (r = 2) needs no hull either. Its chart points are the points
    themselves when they span Z^2, where the Hermite basis is the identity,
    and their coordinates in AffineChart(base, basis) otherwise. The
    counterclockwise _monotone_chain of the chart points lists the
    vertices, and the edges at a vertex join it to its two chain
    neighbours, so its steps are the primitive steps to them: both must
    land in the set, and their 2 x 2 determinant must be +-1. Each vertex
    keeps its two ambient steps in the order of their edges' facets from
    _polygon_facets, the order in which hull sorts them, so the map is the
    one _edge_condition reads off the hull; the two normals are read off
    the steps, with no facet list built. For r >= 3 the steps are read
    off the edges of the hull (_edge_condition).

    A support that is a product A x B of point sets on disjoint blocks of
    coordinates has the product polytope as its hull: the edges at (a, b)
    are those of A at a times b and a times those of B at b, its steps are
    the steps of A and of B, and its saturated difference lattice is the
    direct sum of theirs. So the condition holds on A x B exactly when it
    holds on A and on B, and mu's split checks a product factor by factor
    (gec._require_unimodular).
    """
    if r == 0:
        return True, {v: () for v in points}
    if r == 1:
        (b,) = basis
        i = next(j for j, x in enumerate(b) if x)
        lo, hi = min(points), max(points)
        coordinates = {e[i] for e in points}
        if lo[i] + b[i] not in coordinates or hi[i] - b[i] not in coordinates:
            return False, {}
        return True, {lo: (b,), hi: (tuple(-x for x in b),)}
    if r == 2:
        if len(basis[0]) == 2:
            ambient = {v: v for v in points}
        else:
            chart = AffineChart(min(points), basis)
            ambient = {chart.to_chart(v): v for v in points}
        ccw = _monotone_chain(list(ambient))
        bases: dict[IntVector, tuple[IntVector, ...]] = {}
        for i, (x, y) in enumerate(ccw):
            # (x0, y0) steps back along edge i - 1 and (x1, y1) on along edge
            # i, whose _polygon_facets normals are (y0, -x0) and (-y1, x1):
            # distinct, so they alone order the two facets
            (x0, y0), (x1, y1) = ccw[i - 1], ccw[(i + 1) % len(ccw)]
            x0, y0, x1, y1 = x0 - x, y0 - y, x1 - x, y1 - y
            g0, g1 = gcd(x0, y0), gcd(x1, y1)
            x0, y0, x1, y1 = x0 // g0, y0 // g0, x1 // g1, y1 // g1
            q0, q1 = (x + x0, y + y0), (x + x1, y + y1)
            if q0 not in ambient or q1 not in ambient or abs(x0 * y1 - x1 * y0) != 1:
                return False, {}
            v = ambient[x, y]
            steps = tuple(map(sub, ambient[q0], v)), tuple(map(sub, ambient[q1], v))
            bases[v] = steps if (y0, -x0) < (-y1, x1) else steps[::-1]
        return True, dict(sorted(bases.items()))
    pts = set(points)
    return _edge_condition(hull(pts), pts)


def _edge_condition(
    h: LatticePolytope, pts: Collection[IntVector]
) -> tuple[bool, dict[IntVector, tuple[IntVector, ...]]]:
    """The vertex condition of _vertex_condition on h, the hull of the set
    pts, in every dimension: at each vertex, the primitive steps along the
    edges of h must number h.dim, land in pts and have chart determinant
    +-1. It is the route of _vertex_condition for r >= 3, and the reference
    for its chain route on polygons. A caller that holds the hull already
    (gec.face_descent, with NP(p) of rank 3 or more) builds no second one."""
    r = h.dim
    edges = [mask for _, mask in _face_masks(h, 1)]
    bases: dict[IntVector, tuple[IntVector, ...]] = {}
    for j, (v, cv) in enumerate(zip(h.vertices, h.cvertices)):
        # The chart basis is saturated, so a step is primitive in the
        # ambient lattice exactly when it is primitive in the chart.
        bit = 1 << j
        steps = [
            _primitive([b - a for a, b in zip(v, h.vertices[(e ^ bit).bit_length() - 1])])
            for e in edges
            if e & bit
        ]
        if len(steps) != r:
            return False, {}
        neighbors = [tuple(a + b for a, b in zip(v, s)) for s in steps]
        if any(q not in pts for q in neighbors):
            return False, {}
        csteps = [[a - b for a, b in zip(h.to_chart(q), cv)] for q in neighbors]
        if abs(integer_determinant(csteps)) != 1:
            return False, {}
        bases[v] = tuple(steps)
    return True, bases


def face_chart_polynomial(p, face: Face):
    """Restrict a Laurent polynomial to a face of its Newton polytope and
    rewrite it in the face chart, giving a polynomial of rank face.dim.

    Raises when the face does not come from the Newton polytope of p, which
    is checked without a hull by face.parent.is_hull_of; the restriction
    itself is _chart_restriction.
    """
    if not face.parent.is_hull_of(p.terms):
        raise ValueError("face does not belong to the Newton polytope of p")
    return _chart_restriction(face, face.active, _support_masks(p, face.parent))


def _support_masks(p, parent: LatticePolytope) -> list[tuple[IntVector, Fraction, int]]:
    """(exponent, coefficient, tight-facet mask) of every term of p, with bit
    i of the mask set when facet i of parent is tight at the exponent: the
    point-by-facet incidence of the support, read once per descent."""
    facets = parent.facets
    out = []
    for e, c in p.terms.items():
        ce = parent.to_chart(e)
        out.append((e, c, sum(1 << i for i, (u, a) in enumerate(facets) if dot(u, ce) == -a)))
    return out


def _chart_restriction(chart: AffineChart, active: Sequence[int], points: Sequence[tuple]):
    """face_chart_polynomial without its check, for a caller that already
    knows NP(p) = the face's parent and holds the _support_masks of p over
    it: a support point lies on the face named by the active facets when
    its mask contains every one of them, and only those points are
    converted by the face chart. The chart is injective and the
    coefficients are p's, so the terms are canonical as they stand."""
    from .laurent import LaurentPolynomial

    bits = sum(1 << i for i in active)
    terms = {chart.to_chart(e): c for e, c, mask in points if mask & bits == bits}
    return LaurentPolynomial._from_clean(len(chart.chart_basis), terms)
