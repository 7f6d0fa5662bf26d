"""Tests for the canonical JSON and CSV encodings."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfg.serialize import dumps_canonical, format_float, format_rows


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_strings_round_trip_through_json(text):
    obj = {"error": {"kind": "parse", "detail": text}}
    assert json.loads(dumps_canonical(obj)) == obj


def test_control_characters_escaped_and_non_ascii_kept():
    out = dumps_canonical({"detail": 'a\nb\x01 "q" \\ é'})
    assert out == '{"detail": "a\\nb\\u0001 \\"q\\" \\\\ é"}'
    assert json.loads(out) == {"detail": 'a\nb\x01 "q" \\ é'}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3), min_size=1, max_size=20))
def test_format_rows_matches_format_float(rows):
    expected = "".join(",".join(format_float(x) for x in row) + "\n" for row in rows)
    assert format_rows(np.array(rows)) == expected


def test_negative_zero_and_non_finite():
    assert format_float(-0.0) == "0"
    assert format_rows(np.array([[-0.0, 1.5]])) == "0,1.5\n"
    with pytest.raises(ValueError, match="non-finite"):
        format_rows(np.array([[1.0, np.nan]]))
