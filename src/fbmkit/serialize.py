"""Deterministic serialization helpers.

Reports must be byte-identical across runs with the same seed (including
runs with different thread counts), so every float that reaches disk is
rendered as ``format(x, ".17g")`` — 17 significant digits, which round-trip
``float64`` exactly — with the stdlib ``json`` module's spellings of inf and
nan (:func:`format_float`), and JSON documents are emitted by
:func:`canonical_json_dumps`, which sorts object keys and uses the same float
rendering throughout.

A document is rendered as a stream of text pieces, which
:func:`canonical_json_dumps` joins and :func:`canonical_json_dump` writes to
an open text file as they come.  Artifact text has one writer, ``cli._emit``:
it streams a JSON document through :func:`canonical_json_dump`, and the CSV
of a table, report or ``selftest`` is written there too, one
:func:`csv_cell` per cell, as the flat twin of its document.  The joined
string of :func:`canonical_json_dumps` serves digests, such as the one the
acceptance battery compares across thread counts.

Float64 arrays take a bulk route, :func:`_join_floats`, which renders up to
``_ROW_PIECE`` floats of one innermost row (or a block of path CSV rows)
straight to their joined text with numpy, with the bytes of
:func:`format_float` element by element.  For each element it takes
``k = floor(log10|x|)`` and multiplies ``|x|`` by ``10**(16 - k)``, held as
a double-double built per call from Python ints, with Dekker's exact
product, so the 17 digits ``D`` and the fraction left below them are known
to within 1e-13 of a unit of the last digit; ``D`` is rounded to nearest.
The digits are written two at a time, from a table of digit pairs, into one
fixed row of cells per element.  The point, the trailing-zero stripping and
``%g``'s switch to scientific notation (outside ``-4 <= k < 17``) are set
per element, unused cells hold NUL, and one ``bytes.translate`` drops them.
An element goes to :func:`format_float` itself where that rounding could
be wrong or the table does not reach:

- its fraction lies within 1e-6 of one half (the exact ties among them,
  which ``format`` rounds half to even);
- ``D`` falls outside ``[10**16, 10**17)``, because ``log10`` was off by one
  next to a power of ten or ``D`` rounded up to ``10**17``;
- ``|x|`` lies outside ``[1e-280, 1e280]``: zero, subnormals, inf and nan
  among them.

Random path values fall back about three times in a million; the zero a path
starts at always does.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from typing import TextIO

import numpy as np

__all__ = [
    "format_float",
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



# "a\0b\0" for each pair of digits ab, as a uint32 in the machine's byte
# order, so that writing one into a uint32 view of a row puts the bytes in
# text order on any machine.
_PAIRS = np.frombuffer(
    bytes(c for i in range(100) for c in (48 + i // 10, 0, 48 + i % 10, 0)), dtype=np.uint32
)
_PAIRS.flags.writeable = False

# The cells of one element in _join_floats: the sign (0), "0." and up to
# three zeros (1-5), the leading digit (6), then each digit's point cell and
# the next digit (7-39; digit i at 6 + 2i), the exponent "e+XXX" (40-44) and
# the separator or row end (45).  Cells 4-39 are nine uint32s.
_LEAD, _EXP, _SEP, _CELLS = 6, 40, 45, 48


def _pow10(s: int) -> tuple[float, float]:
    """``10**s`` as a double-double ``hi + lo``, from exact integer arithmetic."""
    num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    return hi, (num * hi_den - hi_num * den) / (den * hi_den)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of each element into two halves of 26 significant bits."""
    t = 134217729.0 * a  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _join_floats(values: np.ndarray, sep: str = ",", end: str = "") -> str:
    """:func:`format_float` of each element of a float64 array, joined.

    The rows of a 2-d array (a 1-d array is one row) are written in order,
    ``sep`` between the values of a row and ``end`` (one character, or
    none) after each row.  The module docstring describes the method.
    """
    v = np.atleast_2d(values)
    width = v.shape[1]
    x = v.ravel()
    n = x.size
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    k0 = int(k.min())
    hi, lo = np.array([_pow10(16 - j) for j in range(k0, int(k.max()) + 1)]).T
    hi, lo = hi[k - k0], lo[k - k0]
    # |x| * 10**(16 - k) = p + c: p = a * hi rounded, and c the rest, from
    # the exact error of that product plus a * lo.
    p = a * hi
    a_hi, a_lo = _split(a)
    h_hi, h_lo = _split(hi)
    c = ((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo + a * lo
    p_int = np.floor(p)
    c += p - p_int
    c_int = np.floor(c)
    c -= c_int
    d = p_int.astype(np.int64) + c_int.astype(np.int64)
    # A near-tie, a log10 one too high (d below 10**16) or a rounding up to
    # 10**17 goes to format_float.  The last needs a value within 5e-18 below
    # a power of ten whose log10 rounds down; log10 usually rounds it up.
    fast &= (d >= 10**16) & (np.abs(c - 0.5) > 1e-6)
    d += c > 0.5
    fast &= d < 10**17
    d[~fast] = 10**16
    fixed = (k >= -4) & (k < 17)
    # Index of the digit the point follows; -1 when it comes before them all.
    point = np.where(fixed, np.where(k >= 0, k, -1), 0)

    # The leading digit, then eight pairs of digits, as indices of _PAIRS.
    pairs = np.empty((9, n), np.intp)
    top = d // 10**8
    pairs[0] = top // 10**8
    low = d - top * 10**8
    top -= pairs[0] * 10**8
    for row, part in ((1, top.astype(np.uint32)), (5, low.astype(np.uint32))):
        upper = part // 10000
        for half in (upper, part - upper * 10000):
            pairs[row] = half // 100
            pairs[row + 1] = half - pairs[row] * 100
            row += 2
    out = np.zeros((n, _CELLS), np.uint8)
    out.view(np.uint32)[:, _LEAD // 4:_EXP // 4] = _PAIRS.take(pairs).T
    out[:, _LEAD - 2] = 0  # the "0" of the leading digit's pair
    out[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    out[:, _SEP] = ord(",")
    out[width - 1::width, _SEP] = ord(end) if end else 0
    flat = out.reshape(-1)
    # Trailing zeros after the point go, the last digit first; the digits
    # before the point stay.
    rows = np.flatnonzero(pairs[8] % 10 == 0)
    for i in range(16, 0, -1):
        rows = rows[(flat[rows * _CELLS + _LEAD + 2 * i] == ord("0")) & (point[rows] < i)]
        if not rows.size:
            break
        flat[rows * _CELLS + _LEAD + 2 * i] = 0
    rows = np.flatnonzero((point >= 0) & (point < 16))
    rows = rows[flat[rows * _CELLS + _LEAD + 2 + 2 * point[rows]] != 0]
    flat[rows * _CELLS + _LEAD + 1 + 2 * point[rows]] = ord(".")
    rows = np.flatnonzero(fixed & (k < 0))
    out[rows, 1:_LEAD] = np.where(np.arange(5) <= -k[rows, None],
                                  np.frombuffer(b"0.000", np.uint8), 0)
    rows = np.flatnonzero(~fixed)
    e = k[rows]
    mag = np.abs(e)
    out[rows, _EXP:_SEP] = np.stack([
        np.full_like(e, ord("e")), np.where(e < 0, ord("-"), ord("+")),
        np.where(mag >= 100, ord("0") + mag // 100, 0),
        ord("0") + mag // 10 % 10, ord("0") + mag % 10,
    ], axis=1)
    # Fallback elements keep only their separator and a marker, \x01, at
    # which their text goes in.
    slow = np.flatnonzero(~fast)
    out[slow, :_SEP] = 0
    out[slow, 0] = 1
    text = out.tobytes().translate(None, b"\0").decode("ascii")
    if slow.size:
        parts = text.split("\x01")
        pieces = [parts[0]]
        for value, rest in zip(x[slow].tolist(), parts[1:]):
            pieces += (format_float(value), rest)
        text = "".join(pieces)
    return text if sep == "," else text.replace(",", sep)


# Floats per text piece of an innermost row in _emit_floats.
_ROW_PIECE = 2**12


def _emit_floats(arr: np.ndarray, indent: int) -> Iterator[str]:
    """Bulk route of :func:`_emit` for a float64 array of one or more dimensions.

    An innermost row is rendered ``_ROW_PIECE`` floats per piece, so only
    one piece's text and temporaries are alive at once, however long the row.
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
            yield _join_floats(arr[a:a + _ROW_PIECE], sep)
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
