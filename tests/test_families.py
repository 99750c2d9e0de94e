"""Named toric Fano families: ray data, anticanonical polytopes, the
recorded obstructing faces, and the positive-control witnesses."""

from __future__ import annotations

import dataclasses

import pytest

from toric_gec import (
    FamilySpec,
    anticanonical_polytope,
    einstein_check,
    face_descent,
    faces,
    family_witness,
    hull,
    is_reflexive,
    obstructing_face,
    parse_family,
    rays,
    standard_hexagon_map,
)
from helpers import ALL_SPECS, FIGURE2_TRAPEZOID, HEXAGON_VERTICES


def test_parse_family_round_trips():
    for text in ALL_SPECS:
        spec = parse_family(text)
        assert str(spec) == text
        assert parse_family(str(spec)) == spec


def test_parse_family_rejects_malformed():
    for text in ["", "V", "V:k=0", "S:m=1,k=2", "S:k=1,m=1", "X:m=1,k=2",
                 "W:m=0", "Q:z=1", "Prod:P2^3", "NP3", "P:n=0"]:
        with pytest.raises(ValueError):
            parse_family(text)


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("S", m=2, k=3)
    with pytest.raises(ValueError):
        FamilySpec("B", k=1)
    with pytest.raises(ValueError, match="unknown family tag"):
        FamilySpec(["V"], k=1)
    assert FamilySpec("X", m=2, k=0).dimension == 6


def test_family_spec_rejects_bool_parameters():
    # True would otherwise read as 1 and print as V:k=True
    for bad in (True, False):
        with pytest.raises(ValueError, match="requires an integer"):
            FamilySpec("V", k=bad)
    with pytest.raises(ValueError, match="requires an integer"):
        FamilySpec("S", m=True, k=1)


def test_family_spec_rejects_float_parameters():
    # V:k=2.0 would print, and then fail to build the rays
    with pytest.raises(ValueError, match="requires an integer"):
        FamilySpec("V", k=2.0)
    with pytest.raises(ValueError, match="requires an integer"):
        FamilySpec("P", n=3.0)


def test_family_spec_rejects_parameters_its_tag_does_not_take():
    # a stray parameter would be dropped from str(spec), so the text would
    # parse back to a different spec
    for tag, kwargs in (("V", {"k": 2, "m": 5}), ("NP1", {"k": 3}), ("P", {"n": 2, "k": 1})):
        with pytest.raises(ValueError, match="takes no parameter"):
            FamilySpec(tag, **kwargs)


def test_family_spec_text_parses_back():
    for text in ALL_SPECS + ["W:m=4", "X:m=2,k=0"]:
        spec = parse_family(text)
        assert parse_family(str(spec)) == spec and str(spec) == text


@pytest.mark.parametrize(
    "spec",
    [FamilySpec(tag, **params) for tag, params in [
        ("V", {"k": 1}), ("V", {"k": 3}), ("S", {"m": 1, "k": 1}), ("S", {"m": 3, "k": 2}),
        ("X", {"m": 1, "k": 0}), ("X", {"m": 2, "k": 2}), ("W", {"m": 1}), ("W", {"m": 3}),
        ("NP1", {}), ("NP2", {}), ("P", {"n": 1}), ("P", {"n": 4}),
        ("Prod", {"k": 1}), ("Prod", {"k": 5}),
    ]],
    ids=str,
)
def test_every_tag_parses_back_with_its_dimension(spec):
    # the tag table drives str, parse_family and dimension alike
    assert parse_family(str(spec)) == spec
    assert spec.dimension == len(rays(spec)[0])


def test_ray_counts_and_primitivity():
    from math import gcd

    expected = {
        "V": lambda s: 4 * s.k + 2,
        "S": lambda s: 2 * s.m + 4,
        "X": lambda s: 2 * s.m + 8,
        "W": lambda s: 3 * s.m + 3,
        "NP1": lambda s: 12,
        "NP2": lambda s: 16,
        "P": lambda s: s.n + 1,
        "Prod": lambda s: 2 * s.k,
    }
    for text in ALL_SPECS:
        spec = parse_family(text)
        gens = rays(spec)
        assert len(gens) == expected[spec.tag](spec)
        assert len(set(gens)) == len(gens)
        for u in gens:
            assert gcd(*(abs(x) for x in u)) == 1 if len(u) > 1 else True


def test_anticanonical_polytopes_are_reflexive():
    for text in ALL_SPECS:
        spec = parse_family(text)
        delta = anticanonical_polytope(spec)
        assert delta.dim == spec.dimension
        assert is_reflexive(delta)
        assert len(delta.facets) == len(rays(spec))


# (vertices, facets) of every family polytope the benchmark builds, and of
# the larger V:k=4 and W:m=4: each inequality system is bounded, so
# from_inequalities must return all of them
FAMILY_SHAPES = {
    "V:k=1": (6, 6), "V:k=2": (30, 10), "V:k=3": (140, 14), "V:k=4": (630, 18),
    "X:m=1,k=0": (24, 10), "X:m=1,k=1": (24, 10), "X:m=2,k=1": (54, 12),
    "W:m=1": (6, 6), "W:m=2": (24, 9), "W:m=3": (80, 12), "W:m=4": (240, 15),
    "S:m=1,k=1": (8, 6), "S:m=2,k=1": (18, 8), "S:m=2,k=2": (18, 8), "S:m=3,k=2": (32, 10),
    "NP1": (64, 12), "NP2": (192, 16),
    "P:n=1": (2, 2), "P:n=2": (3, 3), "P:n=3": (4, 4),
    "Prod:P1^1": (2, 2), "Prod:P1^2": (4, 4), "Prod:P1^3": (8, 6), "Prod:P1^4": (16, 8),
}


def test_family_polytopes_pass_the_boundedness_check():
    for text, (nverts, nfacets) in FAMILY_SHAPES.items():
        delta = anticanonical_polytope(parse_family(text))
        assert (len(delta.vertices), len(delta.facets)) == (nverts, nfacets), text


def test_np_family_vertex_counts():
    assert len(anticanonical_polytope(parse_family("NP1")).vertices) == 64
    assert len(anticanonical_polytope(parse_family("NP2")).vertices) == 192


def test_obstructing_face_is_a_2face():
    for text in ["V:k=1", "V:k=2", "S:m=1,k=1", "S:m=2,k=2", "X:m=1,k=0",
                 "X:m=1,k=1", "W:m=1", "W:m=2", "NP1"]:
        spec = parse_family(text)
        delta = anticanonical_polytope(spec)
        f = obstructing_face(spec)
        assert f.dim == 2
        assert f.parent == delta
        members = {g.vertices for g in faces(delta, 2)}
        if delta.dim == 2:
            assert f.vertices == delta.vertices
        else:
            assert f.vertices in members


def test_each_spec_builds_its_polytope_once():
    for text in ALL_SPECS:
        spec = parse_family(text)
        delta = anticanonical_polytope(spec)
        assert anticanonical_polytope(spec) is delta, text
        # the memo lives on the spec: an equal spec parsed again builds an
        # equal polytope of its own
        other = anticanonical_polytope(parse_family(text))
        assert other is not delta
        assert other == delta and other.to_obj() == delta.to_obj(), text


def test_obstructing_face_reads_the_shared_polytope():
    for text in ALL_SPECS:
        spec = parse_family(text)
        if spec.tag in ("P", "Prod"):
            continue
        assert obstructing_face(spec).parent is anticanonical_polytope(spec), text


def test_cached_polytope_leaves_the_spec_fields_alone():
    for text in ["V:k=2", "S:m=2,k=1", "NP1", "P:n=3"]:
        spec, fresh = parse_family(text), parse_family(text)
        before = (hash(spec), str(spec), repr(spec), dataclasses.asdict(spec))
        anticanonical_polytope(spec)
        assert (hash(spec), str(spec), repr(spec), dataclasses.asdict(spec)) == before
        assert spec == fresh and hash(spec) == hash(fresh)
        assert parse_family(str(spec)) == spec
        assert dataclasses.asdict(spec) == dataclasses.asdict(fresh)
        # replace builds a new spec through the constructor, with no memo
        twin = dataclasses.replace(spec)
        assert twin == spec and twin is not spec
        assert anticanonical_polytope(twin) is not anticanonical_polytope(spec)
        assert anticanonical_polytope(twin) == anticanonical_polytope(spec)
    bigger = dataclasses.replace(parse_family("V:k=2"), k=3)
    assert bigger == parse_family("V:k=3")
    assert anticanonical_polytope(bigger).dim == 6


def test_obstructing_face_raises_for_controls():
    with pytest.raises(ValueError):
        obstructing_face(parse_family("P:n=2"))
    with pytest.raises(ValueError):
        obstructing_face(parse_family("Prod:P1^3"))


def test_hexagon_plane_models():
    hexagon = sorted(HEXAGON_VERTICES)
    for text in ["V:k=1", "V:k=2", "V:k=3", "X:m=1,k=0", "X:m=1,k=1",
                 "X:m=2,k=1", "W:m=1"]:
        f = obstructing_face(parse_family(text))
        assert sorted(f.chart_polytope().vertices) == hexagon, text
        assert standard_hexagon_map(f.chart_polytope()) is not None


def test_np2_reflected_hexagon_model():
    # The chart realizes the mirror image of the standard hexagon, which the
    # recognizer still identifies as unimodularly equivalent to it.
    f = obstructing_face(parse_family("NP2"))
    model = [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)]
    assert sorted(f.chart_polytope().vertices) == model
    assert standard_hexagon_map(f.chart_polytope()) is not None


def test_s_family_trapezoid_models():
    for m, k in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        f = obstructing_face(parse_family(f"S:m={m},k={k}"))
        model = [(-1, -1), (m - k, -1), (m + k, 1), (-1, 1)]
        assert sorted(f.chart_polytope().vertices) == sorted(model)


def test_w_family_hexagon_models():
    for m in (2, 3):
        f = obstructing_face(parse_family(f"W:m={m}"))
        model = [(-1, 0), (-1, 1), (0, -1), (m, -1), (m, 0), (m - 1, 1)]
        assert sorted(f.chart_polytope().vertices) == sorted(model)
        # Irregular hexagons: not in the unimodular orbit of the standard one.
        assert standard_hexagon_map(f.chart_polytope()) is None


def test_np1_trapezoid_model():
    f = obstructing_face(parse_family("NP1"))
    assert sorted(f.chart_polytope().vertices) == sorted(FIGURE2_TRAPEZOID)


def test_chart_is_consistent_with_ambient_vertices():
    for text in ["V:k=2", "S:m=2,k=1", "X:m=1,k=1", "W:m=2", "NP1", "NP2"]:
        f = obstructing_face(parse_family(text))
        for v in f.vertices:
            assert f.from_chart(f.to_chart(v)) == v


def test_descent_flags_the_recorded_face():
    for text in ["V:k=2", "S:m=1,k=1", "W:m=2"]:
        spec = parse_family(text)
        delta = anticanonical_polytope(spec)
        report = face_descent(delta)
        assert report.verdict == "gec-fails", text
        target = set(obstructing_face(spec).vertices)
        flagged = []
        for entry in report.trace:
            for failure in entry.get("failures", []):
                flagged.append(set(map(tuple, failure["face"]["vertices"])))
        assert target in flagged, text


def test_family_witnesses_satisfy_einstein():
    for text in ["P:n=1", "P:n=2", "P:n=3", "Prod:P1^1", "Prod:P1^2", "Prod:P1^4"]:
        spec = parse_family(text)
        out = family_witness(spec)
        assert out is not None
        p, lam = out
        assert lam == (spec.n + 1 if spec.tag == "P" else 2)
        assert einstein_check(p, lam).holds
        assert hull(p.support()).dim == spec.dimension


def test_family_witness_none_for_obstructed():
    for text in ["V:k=1", "S:m=1,k=1", "X:m=1,k=0", "W:m=2", "NP1", "NP2"]:
        assert family_witness(parse_family(text)) is None
