"""Ray data and anticanonical polytopes for the named toric Fano families.

Each family is generated from its primitive ray list; the anticanonical
polytope is cut out by <u, x> >= -1 over the rays, so the facet order
matches the ray order. The obstructing 2-face of each obstructed family is
returned in the explicit coordinate plane in which its trapezoid or
hexagon model is usually drawn; tests confirm it is a genuine face of the
generated polytope rather than a hard-coded look-alike.

A FamilySpec builds its anticanonical polytope once, on first use, and
keeps it for as long as the spec lives: anticanonical_polytope(spec)
returns that one shared polytope, and obstructing_face(spec) names a face
of it. Sharing is safe because polytopes and faces are immutable.

Families:
  V:k       del Pezzo-type, dimension 2k, rays +-e_i and +-(e_1+...+e_n)
  S:m=..,k= dimension 2m+1, 1 <= k <= m
  X:m=..,k= dimension 2m+2, 0 <= k <= m
  W:m       dimension 2m, rays e_i, e_i+e_{m+i}, and three negative sums
  NP1, NP2  two sporadic families in dimensions 7 and 8
  P:n       projective space (positive control)
  Prod:P1^k product of k projective lines (positive control)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

from .lattice import IntVector
from .laurent import LaurentPolynomial
from .polytope import Face, LatticePolytope, from_inequalities

__all__ = [
    "FamilySpec",
    "parse_family",
    "rays",
    "anticanonical_polytope",
    "obstructing_face",
    "family_witness",
]


# each family tag: its parameter names, the condition they must meet and
# its text, its text form with a {name} field per parameter, and its
# dimension as a function of the parameters
class _Family(NamedTuple):
    names: tuple[str, ...]
    holds: Callable[..., bool]
    rule: str
    template: str
    dimension: Callable[..., int]


_PARAMETERS = {
    "V": _Family(("k",), lambda k: k >= 1, "k >= 1", "V:k={k}", lambda k: 2 * k),
    "S": _Family(
        ("m", "k"), lambda m, k: 1 <= k <= m, "1 <= k <= m", "S:m={m},k={k}",
        lambda m, k: 2 * m + 1,
    ),
    "X": _Family(
        ("m", "k"), lambda m, k: 0 <= k <= m, "0 <= k <= m", "X:m={m},k={k}",
        lambda m, k: 2 * m + 2,
    ),
    "W": _Family(("m",), lambda m: m >= 1, "m >= 1", "W:m={m}", lambda m: 2 * m),
    "NP1": _Family((), lambda: True, "", "NP1", lambda: 7),
    "NP2": _Family((), lambda: True, "", "NP2", lambda: 8),
    "P": _Family(("n",), lambda n: n >= 1, "n >= 1", "P:n={n}", lambda n: n),
    "Prod": _Family(("k",), lambda k: k >= 1, "k >= 1", "Prod:P1^{k}", lambda k: k),
}

# each tag's template as a pattern, its {name} fields as named digit groups
_PATTERNS = {
    tag: re.compile(re.escape(family.template).replace(r"\{", "(?P<").replace(r"\}", r">\d+)"))
    for tag, family in _PARAMETERS.items()
}


@dataclass(frozen=True)
class FamilySpec:
    """A family member: its tag and the exact int parameters the tag takes.
    A bool, a float or a parameter the tag does not take raises ValueError,
    so str(spec) always parses back to spec. The anticanonical polytope is
    built on first use and cached on the spec, outside its fields: equality,
    hashing, str, asdict and replace see the fields alone."""

    tag: str
    k: int | None = None
    m: int | None = None
    n: int | None = None

    def __post_init__(self):
        if not isinstance(self.tag, str) or self.tag not in _PARAMETERS:
            raise ValueError(f"unknown family tag {self.tag!r}")
        family = _PARAMETERS[self.tag]
        for name in ("k", "m", "n"):
            value = getattr(self, name)
            if name not in family.names:
                if value is not None:
                    raise ValueError(f"{self.tag} takes no parameter {name}")
            elif isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{self.tag} requires an integer {name}, not {value!r}")
        if not family.holds(*(getattr(self, name) for name in family.names)):
            raise ValueError(f"{self.tag} requires {family.rule}")

    def __str__(self) -> str:
        family = _PARAMETERS[self.tag]
        return family.template.format(**{name: getattr(self, name) for name in family.names})

    @property
    def dimension(self) -> int:
        family = _PARAMETERS[self.tag]
        return family.dimension(*(getattr(self, name) for name in family.names))

    @cached_property
    def _polytope(self) -> LatticePolytope:
        generators = rays(self)
        return from_inequalities(self.dimension, generators, [1] * len(generators))


def parse_family(text: str) -> FamilySpec:
    for tag, pattern in _PATTERNS.items():
        m = pattern.fullmatch(text.strip())
        if m is not None:
            return FamilySpec(tag, **{name: int(v) for name, v in m.groupdict().items()})
    raise ValueError(
        f"cannot parse family spec {text!r}; expected forms like "
        "V:k=2, S:m=3,k=1, X:m=2,k=0, W:m=2, NP1, NP2, P:n=3, Prod:P1^4"
    )


def _e(i: int, n: int, sign: int = 1) -> IntVector:
    return tuple(sign if j == i else 0 for j in range(n))


def rays(spec: FamilySpec) -> list[IntVector]:
    """The primitive ray generators of the family's fan, in a fixed order
    (which also fixes the facet order of the anticanonical polytope)."""
    if spec.tag == "V":
        n = 2 * spec.k
        all_ones = tuple(1 for _ in range(n))
        return (
            [_e(i, n) for i in range(n)]
            + [_e(i, n, -1) for i in range(n)]
            + [all_ones, tuple(-1 for _ in range(n))]
        )
    if spec.tag == "S":
        m = spec.m
        n = 2 * m + 1
        neg_x = tuple(
            [-1] * m + [0] * m + [-spec.k]
        )
        neg_y = tuple(
            [0] * m + [-1] * m + [spec.k]
        )
        return (
            [_e(i, n) for i in range(2 * m)]
            + [_e(n - 1, n), _e(n - 1, n, -1)]
            + [neg_x, neg_y]
        )
    if spec.tag == "X":
        m = spec.m
        n = 2 * m + 2
        z = n - 2
        w = n - 1
        zw = tuple(1 if j in (z, w) else 0 for j in range(n))
        neg_x = tuple([-1] * m + [0] * m + [spec.k, 0])
        neg_y = tuple([0] * m + [-1] * m + [-spec.k, 0])
        return (
            [_e(i, n) for i in range(2 * m)]
            + [_e(z, n), _e(z, n, -1), _e(w, n), _e(w, n, -1)]
            + [zw, tuple(-x for x in zw)]
            + [neg_x, neg_y]
        )
    if spec.tag == "W":
        m = spec.m
        n = 2 * m
        diag = [
            tuple(1 if j in (i, m + i) else 0 for j in range(n)) for i in range(m)
        ]
        neg_x = tuple([-1] * m + [0] * m)
        neg_y = tuple([0] * m + [-1] * m)
        neg_all = tuple([-1] * n)
        return [_e(i, n) for i in range(n)] + diag + [neg_x, neg_y, neg_all]
    if spec.tag == "NP1":
        n = 7
        out = [_e(i, n) for i in range(6)]
        out += [_e(6, n), _e(6, n, -1)]
        for i in range(3):
            v = [0] * n
            v[i] = -1
            v[6] = -1
            out.append(tuple(v))
        out.append((0, 0, 0, -1, -1, -1, 2))
        return out
    if spec.tag == "NP2":
        n = 8
        out = [_e(i, n) for i in range(6)]
        out += [_e(6, n), _e(6, n, -1), _e(7, n), _e(7, n, -1)]
        diff = tuple(1 if j == 6 else (-1 if j == 7 else 0) for j in range(n))
        out += [diff, tuple(-x for x in diff)]
        for i in range(3):
            v = [0] * n
            v[i] = -1
            v[7] = -1
            out.append(tuple(v))
        out.append((0, 0, 0, -1, -1, -1, 0, 2))
        return out
    if spec.tag == "P":
        n = spec.n
        return [_e(i, n) for i in range(n)] + [tuple(-1 for _ in range(n))]
    if spec.tag == "Prod":
        n = spec.k
        return [_e(i, n) for i in range(n)] + [_e(i, n, -1) for i in range(n)]
    raise ValueError(f"unknown family tag {spec.tag!r}")


def anticanonical_polytope(spec: FamilySpec) -> LatticePolytope:
    """The polytope {x : <u, x> >= -1 for every ray u}. Full-dimensional
    and reflexive for every family here; facet i corresponds to ray i.
    It is built once per spec: every call on the same spec returns the
    same immutable polytope."""
    return spec._polytope


def _face_from_equalities(
    delta: LatticePolytope,
    active_rays: list[IntVector],
    chart_base: IntVector,
    chart_basis: list[IntVector],
) -> Face:
    ray_list = [u for u, _ in delta.facets]
    active = []
    for u in active_rays:
        try:
            active.append(ray_list.index(tuple(u)))
        except ValueError:
            raise ValueError(f"{u} is not a facet normal of the polytope") from None
    return delta.face(active, chart_base, chart_basis)


def obstructing_face(spec: FamilySpec) -> Face:
    """The 2-face on which the family's obstruction lives, with the chart
    that realizes its plane model (a trapezoid or a hexagon). Its parent is
    anticanonical_polytope(spec), the spec's one shared polytope.

    For V:k=1 and W:m=1 the polytope itself is that face (its dimension is
    already 2). The positive-control families P and Prod have no obstructing
    face and raise.
    """
    delta = anticanonical_polytope(spec)
    n = spec.dimension
    if spec.tag == "V":
        if spec.k == 1:
            return delta.face((), (0, 0), [(1, 0), (0, 1)])
        # x_i = (-1)^i for i = 3..n (1-based), leaving the (x_1, x_2) plane
        active = [
            _e(i, n, 1 if (i + 1) % 2 == 1 else -1) for i in range(2, n)
        ]
        base = tuple(
            0 if i < 2 else (1 if (i + 1) % 2 == 0 else -1) for i in range(n)
        )
        return _face_from_equalities(delta, active, base, [_e(0, n), _e(1, n)])
    if spec.tag == "S":
        m = spec.m
        active = [_e(i, n) for i in range(m)] + [_e(m + i, n) for i in range(m - 1)]
        base = tuple([-1] * m + [-1] * (m - 1) + [0, 0])
        return _face_from_equalities(
            delta, active, base, [_e(2 * m - 1, n), _e(2 * m, n)]
        )
    if spec.tag == "X":
        m = spec.m
        active = [_e(i, n) for i in range(2 * m)]
        base = tuple([-1] * (2 * m) + [0, 0])
        return _face_from_equalities(
            delta, active, base, [_e(2 * m, n), _e(2 * m + 1, n)]
        )
    if spec.tag == "W":
        m = spec.m
        if m == 1:
            return delta.face((), (0, 0), [(1, 0), (0, 1)])
        active = [_e(i, n) for i in range(m - 1)] + [
            tuple(1 if j in (i, m + i) else 0 for j in range(n)) for i in range(m - 1)
        ]
        base = tuple(-1 if i < m - 1 else 0 for i in range(n))
        return _face_from_equalities(
            delta, active, base, [_e(m - 1, n), _e(2 * m - 1, n)]
        )
    if spec.tag == "NP1":
        active = [_e(i, n) for i in range(1, 6)]
        base = (0, -1, -1, -1, -1, -1, 0)
        return _face_from_equalities(delta, active, base, [_e(0, n), _e(6, n)])
    if spec.tag == "NP2":
        active = [_e(i, n) for i in range(6)]
        base = (-1, -1, -1, -1, -1, -1, 0, 0)
        return _face_from_equalities(delta, active, base, [_e(6, n), _e(7, n)])
    raise ValueError(f"family {spec} has no recorded obstructing face")


def family_witness(spec: FamilySpec) -> tuple[LaurentPolynomial, int] | None:
    """GEC-positive witness for the control families: the standard section
    whose Newton polytope is the unit simplex (P:n) or unit cube (Prod),
    together with its Einstein constant. None for the obstructed families."""
    if spec.tag == "P":
        n = spec.n
        terms = {(0,) * n: 1}
        for i in range(n):
            terms[_e(i, n)] = 1
        return LaurentPolynomial(n, terms), n + 1
    if spec.tag == "Prod":
        n = spec.k
        p = LaurentPolynomial.constant(n, 1)
        for i in range(n):
            p = p * (
                LaurentPolynomial.constant(n, 1) + LaurentPolynomial.variable(n, i)
            )
        return p, 2
    return None
