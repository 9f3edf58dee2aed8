"""Deterministic serialization helpers.

Reports must be byte-identical across runs with the same seed (including
runs with different thread counts), so every float that reaches disk goes
through :func:`format_float` — a fixed 17-significant-digit rendering that
round-trips ``float64`` exactly — and JSON documents are emitted by
:func:`canonical_json_dumps`, which sorts object keys and uses the same
float rendering throughout.

A document is rendered as a stream of text pieces, which
:func:`canonical_json_dumps` joins and :func:`canonical_json_dump` writes to
an open text file as they come.  Artifact text has one writer, ``cli._emit``:
it streams a JSON document through :func:`canonical_json_dump`, and the CSV
of a table, report or ``selftest`` is written there too, one
:func:`csv_cell` per cell, as the flat twin of its document.  The joined
string of :func:`canonical_json_dumps` serves digests, such as the one the
acceptance battery compares across thread counts.  Float64 arrays take a bulk
route: :func:`format_floats` renders up to ``2**13`` floats of one
innermost row with one ``format(x, ".17g")`` pass over ``ndarray.tolist()``,
joined with the separators and indentation of the per-element route into
one piece, so a document holds the strings of one piece at a time, whatever
the length of its rows.  The bytes are
the same as element by element through :func:`format_float` (arrays holding
inf or nan fall back to it for the non-finite spellings); only the
per-element Python calls are gone.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from typing import TextIO
from itertools import repeat

import numpy as np

__all__ = [
    "format_float",
    "format_floats",
    "csv_cell",
    "canonical_json_dumps",
    "canonical_json_dump",
]


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (exact ``float64`` round trip).

    Non-finite values use the same spellings as the stdlib ``json`` module:
    ``Infinity``, ``-Infinity``, ``NaN``.
    """
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def format_floats(values: np.ndarray) -> list[str]:
    """:func:`format_float` of every element of a float64 array, in C order."""
    flat = np.ravel(values)
    if np.isfinite(flat).all():
        return list(map(format, flat.tolist(), repeat(".17g")))
    return [format_float(x) for x in flat.tolist()]


def csv_cell(value) -> str:
    """One CSV cell of a table, report or ``selftest`` artifact.

    Booleans (numpy's too) are ``true``/``false`` as in JSON, None is blank,
    integers are plain, text is quoted when it holds ``,``, ``"`` or a
    newline, and any other number goes through :func:`format_float`.
    """
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        if any(ch in value for ch in ',"\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    return format_float(value)


# Floats per text piece of an innermost row in _emit_floats.
_ROW_PIECE = 2**13


def _emit_floats(arr: np.ndarray, indent: int) -> Iterator[str]:
    """Bulk route of :func:`_emit` for a float64 array of one or more dimensions.

    An innermost row is formatted and joined ``_ROW_PIECE`` floats per
    piece, so only that many strings are alive at once, however long the row.
    """
    if arr.shape[0] == 0:
        yield "[]"
        return
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if arr.ndim == 1:
        sep = ",\n" + pad_in
        yield "[\n" + pad_in
        for a in range(0, arr.shape[0], _ROW_PIECE):
            if a:
                yield sep
            yield sep.join(format_floats(arr[a:a + _ROW_PIECE]))
        yield "\n" + pad + "]"
        return
    yield "[\n"
    for i, row in enumerate(arr):
        yield pad_in
        yield from _emit_floats(row, indent + 1)
        yield ",\n" if i < arr.shape[0] - 1 else "\n"
    yield pad + "]"


def _emit(obj, indent: int) -> Iterator[str]:
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim > 0:
            yield from _emit_floats(obj, indent)
            return
        obj = obj.tolist()
    if obj is None:
        yield "null"
    elif obj is True:
        yield "true"
    elif obj is False:
        yield "false"
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        yield str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        yield format_float(obj)
    elif isinstance(obj, str):
        yield json.dumps(obj, ensure_ascii=True)
    elif isinstance(obj, dict):
        keys = list(obj.keys())
        if any(not isinstance(k, str) for k in keys):
            raise TypeError("canonical JSON requires string keys")
        keys.sort()
        if not keys:
            yield "{}"
            return
        yield "{\n"
        for i, k in enumerate(keys):
            yield pad_in + json.dumps(k, ensure_ascii=True) + ": "
            yield from _emit(obj[k], indent + 1)
            yield ",\n" if i < len(keys) - 1 else "\n"
        yield pad + "}"
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            yield "[]"
            return
        yield "[\n"
        for i, item in enumerate(items):
            yield pad_in
            yield from _emit(item, indent + 1)
            yield ",\n" if i < len(items) - 1 else "\n"
        yield pad + "]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def canonical_json_dumps(obj) -> str:
    """Serialize to JSON deterministically: sorted keys, 17-digit floats."""
    return "".join(_emit(obj, 0)) + "\n"


def canonical_json_dump(obj, fh: TextIO) -> None:
    """Write :func:`canonical_json_dumps`'s text to ``fh`` a piece at a time."""
    fh.writelines(_emit(obj, 0))
    fh.write("\n")
