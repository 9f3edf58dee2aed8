"""Golden bytes: the bulk array emitter writes what the per-element one wrote.

``oracle_emit`` and ``oracle_path_texts`` are the former element-by-element
renderers (``serialize._emit`` walking ``ndarray.tolist()`` and the CLI path
document with one ``format_float`` per value), kept here as the reference.
``cli._emit`` writes a path artifact to stdout, and
:func:`canonical_json_dump` writes a document to a file, in pieces; the text
is collected in a ``StringIO`` to compare.
"""

import argparse
import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fbmkit.cli import _emit, _path_doc
from fbmkit.serialize import _ROW_PIECE, canonical_json_dump, canonical_json_dumps, format_float

SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2e-308,
           1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e22, 1e16]


def oracle_emit(obj, indent, out):
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        keys = sorted(obj)
        if not keys:
            out.append("{}")
            return
        out.append("{\n")
        for i, k in enumerate(keys):
            out.append(pad_in + json.dumps(k, ensure_ascii=True) + ": ")
            oracle_emit(obj[k], indent + 1, out)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    else:
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(items):
            out.append(pad_in)
            oracle_emit(item, indent + 1, out)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")


def oracle_dumps(obj):
    out = []
    oracle_emit(obj, 0, out)
    return "".join(out) + "\n"


def oracle_path_texts(kind, config, seed, times, paths):
    doc = {
        "kind": kind,
        "config": config,
        "seed": int(seed),
        "times": [float(t) for t in times],
        "paths": [[float(v) for v in row] for row in np.atleast_2d(paths)],
    }
    n_paths = len(doc["paths"])
    header = "t,value" if n_paths == 1 else "t," + ",".join(
        f"path{k}" for k in range(n_paths)
    )
    lines = [header]
    for j, t in enumerate(doc["times"]):
        row = [format_float(t)] + [format_float(doc["paths"][k][j]) for k in range(n_paths)]
        lines.append(",".join(row))
    return oracle_dumps(doc), "\n".join(lines) + "\n"


def emitted(fmt, doc, render_csv):
    """The text ``cli._emit`` writes to stdout for an artifact in format ``fmt``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit(argparse.Namespace(out=None, format=fmt), doc, render_csv)
    return buf.getvalue()


def written(render):
    """The text ``render`` writes to the file it is given."""
    buf = io.StringIO()
    render(buf)
    return buf.getvalue()


finite = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)


@st.composite
def path_arrays(draw):
    n_paths = draw(st.integers(1, 4))
    n_times = draw(st.integers(1, 7))
    times = draw(hnp.arrays(np.float64, n_times, elements=finite))
    paths = draw(hnp.arrays(np.float64, (n_paths, n_times), elements=finite))
    return times, paths


@given(path_arrays())
@example((np.array([0.0]), np.array([[-0.0]])))
@example((np.array([5e-324, 1.0]), np.array([[1.7976931348623157e308, -2.2e-308]] * 3)))
def test_path_artifact_bytes_match_the_per_element_emitter(arrays):
    times, paths = arrays
    config = {"dt": 0.5, "n": int(times.size), "process": "fbm"}
    artifact = _path_doc("sample_fbm", config, 7, times, paths)
    want_json, want_csv = oracle_path_texts("sample_fbm", config, 7, times, paths)
    assert emitted("json", *artifact) == want_json
    assert emitted("csv", *artifact) == want_csv


def test_a_single_path_row_may_come_one_dimensional():
    times, values = np.array([0.0, 0.25]), np.array([0.0, -0.0])
    artifact = _path_doc("k", {}, 0, times, values)
    assert [emitted(fmt, *artifact) for fmt in ("json", "csv")] == list(
        oracle_path_texts("k", {}, 0, times, values)
    )


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
                  elements=st.floats(width=64)))
def test_float_arrays_match_the_per_element_emitter(arr):
    # Includes empty axes and inf/nan, which take the per-element spellings.
    doc = {"a": arr, "b": [arr, {"c": arr}]}
    assert canonical_json_dumps(doc) == oracle_dumps(doc)
    assert written(lambda fh: canonical_json_dump(doc, fh)) == oracle_dumps(doc)


@pytest.mark.parametrize("length", [_ROW_PIECE - 1, _ROW_PIECE, _ROW_PIECE + 1, 2 * _ROW_PIECE + 3])
def test_a_row_longer_than_one_piece_keeps_its_bytes(length):
    # A row is formatted _ROW_PIECE floats per piece; the pieces must join
    # with the separator the whole row had, in 1-d and 2-d arrays alike, and
    # a non-finite value in a later piece keeps its spelling.
    row = np.random.default_rng(length).standard_normal(length)
    row[-1] = np.inf
    doc = {"row": row, "rows": np.stack([row, -row]), "times": row[::-1]}
    assert written(lambda fh: canonical_json_dump(doc, fh)) == oracle_dumps(doc)


@pytest.mark.parametrize("n_paths", [1, 2, 17, 64])
def test_csv_blocks_around_the_block_size_keep_their_bytes(n_paths):
    # Path CSV is rendered _ROW_PIECE // (n_paths + 1) rows per block;
    # one block short, exact, one row over and two blocks and a row must
    # join to the per-element text, and the last row ends in a newline.
    rows = max(1, _ROW_PIECE // (n_paths + 1))
    for n_times in (rows - 1, rows, rows + 1, 2 * rows + 1):
        times = np.arange(n_times) * 2.0**-14
        paths = np.random.default_rng(n_times).standard_normal((n_paths, n_times)).cumsum(axis=1)
        paths[:, 0] = 0.0
        _, render_csv = _path_doc("sample_fbm", {}, 7, times, paths)
        text = written(render_csv)
        assert text == oracle_path_texts("sample_fbm", {}, 7, times, paths)[1]
        assert text.endswith("\n") and text.count("\n") == n_times + 1
