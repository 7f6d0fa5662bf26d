"""Tests for the canonical JSON and CSV encodings."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfg.errors import NonFiniteResult, ParseError
from qfg.serialize import complex_from_json, dumps_canonical, format_float, format_rows, matrix_from_json


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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.sampled_from([0.0, -0.0, 1.5, -2e-300, 1e300]), min_size=4, max_size=4),
                min_size=0, max_size=12),
       st.sets(st.integers(0, 3)))
def test_zero_columns_are_written_as_format_float_writes_them(rows, zero_columns):
    # a column of +-0 alone is written as the text 0; mixed columns and the other values are formatted
    array = np.array(rows, dtype=float).reshape(len(rows), 4)
    array[:, sorted(zero_columns)] *= 0.0
    expected = "".join(",".join(format_float(x) for x in row) + "\n" for row in array)
    assert format_rows(array) == expected


def test_all_zero_rows_and_no_rows():
    assert format_rows(np.array([[0.0, -0.0], [-0.0, -0.0]])) == "0,0\n0,0\n"
    assert format_rows(np.zeros((0, 3))) == ""
    assert format_rows(np.array([[-0.0, 0.25, 0.0], [0.0, -0.0, -0.0]])) == "0,0.25,0\n0,0,0\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_raises_beside_zero_columns(bad):
    rows = np.zeros((3, 4))
    rows[1, 2], rows[:, 3] = bad, 1.0
    with pytest.raises(NonFiniteResult, match=f"non-finite value {float(bad)!r} cannot be serialized"):
        format_rows(rows)


def _entry_by_entry(data):
    """The reference conversion: each [re, im] pair through ``complex_from_json``."""
    return np.array([[complex_from_json(pair) for pair in row] for row in data], dtype=complex)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # signed zeros and subnormals included
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**53 + 1, -(2**63) - 1, 2**64 + 1, 10**300, -(10**308)]),  # rounded as float() rounds them
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.lists(
    st.lists(st.lists(NUMBERS, min_size=2, max_size=2), min_size=d, max_size=d), min_size=d, max_size=d)))
def test_matrix_from_json_equals_the_entry_by_entry_conversion(data):
    assert _same_bits(matrix_from_json(data), _entry_by_entry(data))


def test_pairs_that_are_not_lists_take_the_entry_by_entry_path():
    data = [[(0.5, -0.0), [1, 2]], [[1, -2], (0.5, 5e-324)]]
    assert _same_bits(matrix_from_json(data), _entry_by_entry(data))


@pytest.mark.parametrize("data, detail", [
    ([[[True, 0.0]]], "m[0][0][0]: expected a finite number, got True"),
    ([[[0.5, False]]], "m[0][0][1]: expected a finite number, got False"),
    ([[[1, 0], [0, 0]], [[0, 0], ["1", 0]]], "m[1][1][0]: expected a finite number, got '1'"),
    ([[[1, None]]], "m[0][0][1]: expected a finite number, got None"),
    ([[[1, 0], [0, 0]], [[10**400, 0], [1, 0]]], f"m[1][0][0]: expected a finite number, got {10**400!r}"),
    ([[[2**1024, 0]]], f"m[0][0][0]: expected a finite number, got {2**1024!r}"),
    ([[[1, 0], [0, 0]], [[0, 0]]], "m[1]: expected a row of length 2"),
    ([[[1, 0]], [[0, 0], [1, 0]]], "m[0]: expected a row of length 2"),
    ([[[1, 0], [0, 0]], "row"], "m[1]: expected a row of length 2"),
    ([[[1, 0, 0]]], "m[0][0]: expected a [re, im] pair, got [1, 0, 0]"),
    ([[[1.0]]], "m[0][0]: expected a [re, im] pair, got [1.0]"),
    ([[[1.0, float("nan")]]], "m[0][0][1]: expected a finite number, got nan"),
    ([[[float("-inf"), 0.0]]], "m[0][0][0]: expected a finite number, got -inf"),
    ([], "m: expected a non-empty nested array"),
    ({"re": 1}, "m: expected a non-empty nested array"),
])
def test_malformed_matrix_names_its_first_bad_entry(data, detail):
    with pytest.raises(ParseError) as info:
        matrix_from_json(data, "m")
    assert str(info.value) == detail
