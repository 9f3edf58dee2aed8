"""Canonical JSON emission and float formatting."""

import csv
import io
import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fbmkit import serialize
from fbmkit.serialize import _join_floats, canonical_json_dumps, csv_cell, format_float


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


# -- the bulk kernel, against format(x, ".17g") ---------------------------------

def joined(values, sep=",", end=""):
    """The kernel's oracle: ``format(x, ".17g")`` per value (inf and nan as
    :func:`format_float` spells them), ``sep`` within a row, ``end`` after it."""
    return "".join(
        sep.join(format(x, ".17g") if math.isfinite(x) else format_float(x) for x in row) + end
        for row in np.atleast_2d(values).tolist()
    )


POWERS = [float(Fraction(10) ** j) for j in range(-323, 309)]
# Doubles nearest a tie at the 17th digit, rounded half to even by format:
# 2.98023223876953125e-07 -> ...312, 1.78813934326171875e-07 -> ...188.
TIES = [m * 2.0**-24 for m in range(3, 16, 2)] + [
    1.00002288818359375, 1702691225462633.25, 1975883792105660.75,
]
# Doubles below a power of ten whose 17 digits round up to it.
ROUND_UP = [float(Fraction(10) ** j) for j in (-243, -176, -175, -79, -14, 98)]
EDGES = np.array([
    0.0, 5e-324, 2.2250738585072014e-308, math.nextafter(2.2250738585072014e-308, 0),
    1.7976931348623157e308, 1e-280, math.nextafter(1e-280, 0), 1e280, math.nextafter(1e280, math.inf),
    # %g's switches: fixed from 1e-4 up to, not including, 1e17.
    1e-5, 1.5e-5, 9.9999999999999991e-05, 1e-4, 1.0000000000000001e-4, 1.25e-4,
    1e16, 1.5e16, 99999999999999984.0, 1e17, 1.5e17, 123456789012345680.0,
    # Three-digit exponents.
    1e100, 1.5e-100, 1.2345e-200, 9.87e250, 1e-101,
    *POWERS, *(math.nextafter(p, 0) for p in POWERS), *(math.nextafter(p, math.inf) for p in POWERS),
    *TIES, *ROUND_UP,
    0.1, 0.5, 1.0, 100.0, 123.5, 0.001234, 2.0**-14 * 3, 1.0 / 3.0, 2.0**53, 2.0**53 + 2,
])


def test_the_edge_table_holds_what_it_names():
    for x in TIES:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x
    assert any(Decimal(x).as_tuple().digits[-2] % 2 == 0 for x in TIES)
    for x in ROUND_UP:
        assert Fraction(x) < Fraction(10) ** round(math.log10(x))
        assert format(x, ".17g").startswith("1e")


# The separators the CLI passes: CSV's, and JSON's at each depth it writes.
SEPARATORS = [","] + [",\n" + " " * pad for pad in (2, 4, 6, 8)]


@pytest.mark.parametrize("sep", SEPARATORS)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_kernel_matches_format_on_the_edge_table(sign, sep):
    values = sign * EDGES
    assert _join_floats(values, sep) == joined(values, sep)
    rows = values[:values.size // 7 * 7].reshape(-1, 7)
    assert _join_floats(rows, sep, "\n") == joined(rows, sep, "\n")


@given(hnp.arrays(np.uint64, st.integers(1, 40)))
def test_kernel_matches_format_on_raw_bit_patterns(bits):
    values = bits.view(np.float64)
    assert _join_floats(values, ",\n  ") == joined(values, ",\n  ")


@given(hnp.arrays(np.float64, st.integers(1, 40),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_kernel_matches_format_on_finite_floats(values):
    assert _join_floats(values) == joined(values)


def test_kernel_matches_format_on_random_bits_and_magnitudes():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2**64, 2**15, dtype=np.uint64, endpoint=False).view(np.float64)
    scaled = rng.standard_normal(2**15) * 10.0 ** rng.integers(-30, 31, 2**15)
    for values in (bits, scaled):
        assert _join_floats(values) == joined(values)


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (3, 1), (7, 17), (64, 65)]
                         + [(9, width) for width in range(1, 18)])
def test_rows_end_with_the_row_end(shape):
    values = np.random.default_rng(shape[1]).standard_normal(shape).cumsum(axis=1)
    values[:, 0] = 0.0
    text = _join_floats(values, end="\n")
    assert text == joined(values, ",", "\n")
    assert text.endswith("\n") and text.count("\n") == shape[0]


def test_random_path_values_take_the_fast_path(monkeypatch):
    fallbacks = []

    def counted(x):
        fallbacks.append(x)
        return format_float(x)

    values = np.random.default_rng(5).standard_normal(10**5).cumsum() * 0.01
    monkeypatch.setattr(serialize, "format_float", counted)
    text = _join_floats(values)
    monkeypatch.undo()
    assert text == joined(values)
    assert len(fallbacks) < 1e-3 * values.size


@pytest.mark.parametrize("table", ["_QUADS", "_TZ", "_KEEP", "_PREFIX"])
def test_the_kernel_tables_are_read_only(table):
    with pytest.raises(ValueError):
        getattr(serialize, table)[0] = 0
