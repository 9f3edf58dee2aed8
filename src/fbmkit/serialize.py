"""Deterministic serialization helpers.

Reports must be byte-identical across runs with the same seed (including
runs with different thread counts), so every float that reaches disk goes
through :func:`format_float` — a fixed 17-significant-digit rendering that
round-trips ``float64`` exactly — and JSON documents are emitted by
:func:`canonical_json_dumps`, which sorts object keys and uses the same
float rendering throughout.

Float64 arrays take a bulk route: :func:`format_floats` renders a whole
array with one ``format(x, ".17g")`` pass over ``ndarray.tolist()``, and
:func:`canonical_json_dumps` joins those strings row by row with the
separators and indentation of the per-element route.  The bytes are the same
as element by element through :func:`format_float` (arrays holding inf or
nan fall back to it for the non-finite spellings); only the per-element
Python calls are gone.
"""

from __future__ import annotations

import json
import math
from itertools import repeat

import numpy as np

__all__ = ["format_float", "format_floats", "csv_cell", "canonical_json_dumps"]


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


def _emit_floats(arr: np.ndarray, indent: int, out: list) -> None:
    """Bulk route of :func:`_emit` for a float64 array of one or more dimensions."""
    if arr.shape[0] == 0:
        out.append("[]")
        return
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if arr.ndim == 1:
        out.append("[\n" + pad_in)
        out.append((",\n" + pad_in).join(format_floats(arr)))
        out.append("\n" + pad + "]")
        return
    out.append("[\n")
    for i, row in enumerate(arr):
        out.append(pad_in)
        _emit_floats(row, indent + 1, out)
        out.append(",\n" if i < arr.shape[0] - 1 else "\n")
    out.append(pad + "]")


def _emit(obj, indent: int, out: list) -> None:
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim > 0:
            _emit_floats(obj, indent, out)
            return
        obj = obj.tolist()
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        keys = list(obj.keys())
        if any(not isinstance(k, str) for k in keys):
            raise TypeError("canonical JSON requires string keys")
        keys.sort()
        if not keys:
            out.append("{}")
            return
        out.append("{\n")
        for i, k in enumerate(keys):
            out.append(pad_in)
            out.append(json.dumps(k, ensure_ascii=True))
            out.append(": ")
            _emit(obj[k], indent + 1, out)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(items):
            out.append(pad_in)
            _emit(item, indent + 1, out)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def canonical_json_dumps(obj) -> str:
    """Serialize to JSON deterministically: sorted keys, 17-digit floats."""
    out: list = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)
