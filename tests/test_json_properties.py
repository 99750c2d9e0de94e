"""Property tests of the report encoding: the CLI's streamed encode with
the report hook writes the same bytes as an indent-2 dump of the _jsonable
copy, on nested payloads with str keys. Skipped when hypothesis is not
installed. The runs are derandomized and bounded, so they cost the same on
every run."""

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
from toric_gec.gec import _jsonable  # noqa: E402

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


def _emitted(payload) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        _emit(argparse.Namespace(json=True, out=None), [], payload)
    return buffer.getvalue()


@PROPERTY_SETTINGS
@hypothesis.given(st.dictionaries(st.text(max_size=6), payloads, max_size=4))
def test_emit_matches_a_dump_of_the_converted_copy(payload):
    assert _emitted(payload) == json.dumps(_jsonable(payload), indent=2) + "\n"


@PROPERTY_SETTINGS
@hypothesis.given(payloads, st.lists(payloads, max_size=3))
def test_report_json_matches_a_dump_of_to_obj(witness, trace):
    report = ObstructionReport("inconclusive", witness, trace)
    for indent in (None, 2):
        assert report.to_json(indent) == json.dumps(report.to_obj(), indent=indent)


def test_payload_examples_cover_the_hooked_types():
    payload = {
        "fraction": Fraction(-3, 4),
        "polynomial": LaurentPolynomial(2, {(1, 0): Fraction(1, 2), (0, -1): 3}),
        "tuple": (1, (2, Fraction(5))),
        "text": "été ≤ ½",
        "empty": [{}, [], ()],
        "flags": [True, False, None],
    }
    assert _emitted(payload) == json.dumps(_jsonable(payload), indent=2) + "\n"
    assert json.loads(_emitted(payload))["polynomial"] == payload["polynomial"].to_obj()


def test_a_set_raises_on_both_routes():
    payload = {"trace": [{"tests": {1, 2}}]}
    with pytest.raises(TypeError):
        _emitted(payload)
    with pytest.raises(TypeError):
        json.dumps(_jsonable(payload), indent=2)
    with pytest.raises(TypeError):
        ObstructionReport("inconclusive", None, payload["trace"]).to_json()
