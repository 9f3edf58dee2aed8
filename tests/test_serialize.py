"""Canonical JSON emission and float formatting."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbmkit.serialize import canonical_json_dumps, csv_cell, format_float


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips_exactly(x):
    assert float(format_float(x)) == x


def test_format_float_uses_17_significant_digits():
    assert format_float(1.0 / 3.0) == "0.33333333333333331"
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1"
    assert format_float(-0.0) == "-0"


def test_csv_cell_renders_each_kind_of_value():
    cases = [
        (True, "true"), (np.False_, "false"), (None, ""), (7, "7"),
        (np.int64(-3), "-3"), (0.1, "0.10000000000000001"), (np.float64(2.0), "2"),
        (float("nan"), "NaN"), ("plain", "plain"), ("a,b", '"a,b"'),
        ('say "hi"', '"say ""hi"""'), ("two\nlines", '"two\nlines"'),
    ]
    for value, text in cases:
        assert csv_cell(value) == text, value
    # The quoted cells read back as the original text.
    row = ",".join(csv_cell(v) for v in ("a,b", 'say "hi"', "two\nlines"))
    assert next(csv.reader(io.StringIO(row))) == ["a,b", 'say "hi"', "two\nlines"]


def test_canonical_json_sorts_keys_and_is_stable():
    doc = {"b": 1, "a": [1.5, {"z": True, "y": None}]}
    one = canonical_json_dumps(doc)
    two = canonical_json_dumps({"a": [1.5, {"y": None, "z": True}], "b": 1})
    assert one == two
    assert one.endswith("\n")
    parsed = json.loads(one)
    assert parsed == {"a": [1.5, {"y": None, "z": True}], "b": 1}
    assert one.index('"a"') < one.index('"b"')


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(-(2**53), 2**53),
            st.booleans(),
            st.none(),
            st.text(max_size=12),
        ),
        max_size=6,
    )
)
def test_canonical_json_round_trips_values(doc):
    parsed = json.loads(canonical_json_dumps(doc))
    assert set(parsed) == set(doc)
    for key, value in doc.items():
        if isinstance(value, float):
            assert parsed[key] == pytest.approx(value, abs=0.0)
        else:
            assert parsed[key] == value


def test_non_finite_values_use_json_module_spellings():
    assert format_float(math.inf) == "Infinity"
    assert format_float(-math.inf) == "-Infinity"
    assert format_float(math.nan) == "NaN"


def test_canonical_json_rejects_non_string_keys():
    with pytest.raises(TypeError):
        canonical_json_dumps({1: "x"})
