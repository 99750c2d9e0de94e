"""Property tests of the report encoding: the CLI's encode with the report
hook writes the same bytes as an indent-2 dump of the _jsonable copy, on
nested payloads with str keys, and so does ObstructionReport.to_json at
every indent. The indented encoder writes a container met again at the
same depth from its memo, so one family of payloads repeats a drawn
subtree. Skipped when hypothesis is not installed. The runs are
derandomized and bounded, so they cost the same on every run."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from toric_gec import LaurentPolynomial, ObstructionReport  # noqa: E402
from toric_gec.cli import _emit  # noqa: E402
from toric_gec.gec import _encode_indented, _json_default, _jsonable  # noqa: E402
from helpers import assert_same_text  # noqa: E402

PROPERTY_SETTINGS = hypothesis.settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)

fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
polynomials = st.builds(
    lambda terms: LaurentPolynomial(2, terms),
    st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), fractions, max_size=4),
)
# str keys only: the hook route writes the keys as the encoder does, and
# the encoder spells a bool key true where str() spells it True
payloads = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20) | fractions | st.text() | polynomials,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)
# one drawn subtree x at depths 1 to 5, under several keys and in tuples:
# four times at depth 2 and twice at depth 3, so the memo both stores and
# reuses its text
shared_payloads = payloads.map(
    lambda x: {"a": x, "b": [x, {"c": x}], "d": (x, x, x), "e": [{"f": (x, [x])}, {"g": x}]}
)
INDENTS = (None, 0, 2, 4, "\t")


def _emitted(payload) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        _emit(argparse.Namespace(json=True, out=None), [], payload)
    return buffer.getvalue()


@PROPERTY_SETTINGS
@hypothesis.given(st.dictionaries(st.text(max_size=6), payloads, max_size=4))
def test_emit_matches_a_dump_of_the_converted_copy(payload):
    assert_same_text(_emitted(payload), json.dumps(_jsonable(payload), indent=2) + "\n")


@PROPERTY_SETTINGS
@hypothesis.given(payloads, st.lists(payloads, max_size=3))
def test_report_json_matches_a_dump_of_to_obj(witness, trace):
    report = ObstructionReport("inconclusive", witness, trace)
    for indent in INDENTS:
        assert_same_text(report.to_json(indent), json.dumps(report.to_obj(), indent=indent))


@PROPERTY_SETTINGS
@hypothesis.given(shared_payloads)
def test_shared_subtrees_match_a_dump_of_the_converted_copy(payload):
    assert_same_text(_emitted(payload), json.dumps(_jsonable(payload), indent=2) + "\n")
    report = ObstructionReport("inconclusive", payload, [payload, payload["b"]])
    for indent in INDENTS:
        assert_same_text(report.to_json(indent), json.dumps(report.to_obj(), indent=indent))


def test_hook_temporaries_are_not_mistaken_for_each_other():
    # each to_obj() dict lives only while it is encoded; unless the memo
    # pins it, the next one can take its id at the same depth
    shared = LaurentPolynomial(2, {(1, 0): Fraction(1, 2), (0, -1): 3})
    payload = {
        "distinct": [LaurentPolynomial(1, {(i,): i + 1}) for i in range(500)],
        "shared": shared,
        "nested": [{"again": shared}],
    }
    assert_same_text(_emitted(payload), json.dumps(_jsonable(payload), indent=2) + "\n")


def test_payload_examples_cover_the_hooked_types():
    payload = {
        "fraction": Fraction(-3, 4),
        "polynomial": LaurentPolynomial(2, {(1, 0): Fraction(1, 2), (0, -1): 3}),
        "tuple": (1, (2, Fraction(5))),
        "text": "été ≤ ½",
        "empty": [{}, [], ()],
        "flags": [True, False, None],
    }
    assert_same_text(_emitted(payload), json.dumps(_jsonable(payload), indent=2) + "\n")
    assert json.loads(_emitted(payload))["polynomial"] == payload["polynomial"].to_obj()


class _Text(str):
    pass


def test_floats_and_keys_of_other_types_are_written_as_json_writes_them():
    payload = {
        1: [1.5, -0.0, 1e300, float("inf"), float("-inf"), float("nan")],
        True: {None: 2.5, 2.5: False, False: ()},
        "nested": [{"x": 0.1}],
        _Text("subclass"): _Text("value"),
    }
    for indent in (0, 2, "\t"):
        expected = json.dumps(payload, indent=indent, default=_json_default)
        assert_same_text(_encode_indented(payload, indent), expected)
    with pytest.raises(TypeError):
        _encode_indented({(1, 2): 0}, 2)


def test_a_set_raises_on_both_routes():
    payload = {"trace": [{"tests": {1, 2}}]}
    with pytest.raises(TypeError):
        _emitted(payload)
    with pytest.raises(TypeError):
        json.dumps(_jsonable(payload), indent=2)
    with pytest.raises(TypeError):
        ObstructionReport("inconclusive", None, payload["trace"]).to_json()
