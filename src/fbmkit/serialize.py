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
to within 1e-13 of a unit of the last digit; ``D`` is rounded to nearest
(:func:`_digits`).  Each element's text is then laid out in one fixed row
of cells, read eight at a time as uint64 words (:func:`_cells`):

- word 0 holds the sign and, in fixed notation below one, the "0." and up
  to three zeros, or else the point after the leading digit where it goes
  there, from a 6 x 2 table by prefix and sign, and the leading digit,
  written directly;
- words 1-4 hold the other 16 digits, four to a word from a table of
  10**4 words, each digit with the cell after it for the point.  Trailing
  zeros after the point are masked off, from the last word back while
  whole words go, and a point after a later digit goes into its cell;
- ``%g``'s exponent (outside ``-4 <= k < 17``) follows in five cells, then
  ``sep``, or ``end`` after the last value of a row, from a table by k.

Unused cells hold NUL, and one ``bytes.translate`` drops them.  The two
stages free their temporaries in turn, so a piece peaks at about half the
memory of doing both in one frame: freed heap past glibc's trim threshold
goes back to the system, and the next piece would fault its pages in again.
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



def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """The text and the trailing zeros of each group of four digits, 0000 to 9999.

    The text of ``abcd`` is "a\\0b\\0c\\0d\\0": the digits as little-endian
    uint16s, read as one uint64 in the machine's byte order, so that writing
    it into a uint64 view of a row puts the bytes in text order on any
    machine.  The NUL after each digit is its point cell.  The digits a-d
    lie on axes 0-3, so that broadcasting runs over the groups in order.
    """
    chars = np.arange(48, 58, dtype="<u2")
    axes = [(10,) + (1,) * i for i in (3, 2, 1, 0)]
    text = np.stack(np.broadcast_arrays(*(chars.reshape(shape) for shape in axes)), axis=-1)
    trailing = np.zeros(1, np.uint8)
    for shape in axes:
        trailing = (chars == 48).astype(np.uint8).reshape(shape) * (1 + trailing)
    return text.astype("<u2", copy=False).view(np.uint64).ravel(), trailing.ravel()


# The text and trailing zeros (four for 0000) of each group of four digits,
# and masks that keep the first 0-4 digits of a group, with their point cells.
_QUADS, _TZ = _group_tables()
_QUADS.flags.writeable = False
_TZ.flags.writeable = False
_KEEP = np.frombuffer(b"".join(b"\xff" * 2 * c + b"\0" * (8 - 2 * c) for c in range(5)), np.uint64)

# Cells 0-7 of an element, by prefix (row) and sign (column): the sign, the
# "0." and up to three zeros of fixed notation below one (rows 1-4, the row
# being -k), NUL where the leading digit goes, then the cell after it: NUL,
# or the point (row 5) where the point follows the leading digit.
_PREFIX = np.frombuffer(b"".join(
    sign + prefix + b"\0" + point
    for prefix, point in [(b"\0\0\0\0\0", b"\0"), (b"0.\0\0\0", b"\0"), (b"0.0\0\0", b"\0"),
                          (b"0.00\0", b"\0"), (b"0.000", b"\0"), (b"\0\0\0\0\0", b".")]
    for sign in (b"\0", b"-")
), np.uint64).reshape(6, 2)

# The cells of one element in _cells, as 8-cell words: the sign, prefix,
# leading digit (6) and its point cell (word 0), four groups of four digits,
# each digit i at 6 + 2i with its point cell after it (words 1-4), the
# exponent "e+XXX" (40-44), then the separator, or the row end, from 45.
_LEAD, _EXP, _SEP = 6, 40, 45


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


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The exponent and 17 digits of each element of ``x``, and whether they are exact.

    Returns ``ks``, the values of ``k = floor(log10|x|)`` from the least to
    the greatest present, ``kk``, each element's index into ``ks``, the
    digits ``d`` as an int64 in ``[10**16, 10**17)`` and ``fast``, false
    where :func:`format_float` must render the element instead (``d`` then
    holds a placeholder).
    """
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    k0 = int(k.min())
    ks = np.arange(k0, int(k.max()) + 1)
    kk = k - k0
    hi, lo = np.array([_pow10(16 - j) for j in ks.tolist()]).T
    h_hi, h_lo = _split(hi)
    hi, lo, h_hi, h_lo = hi.take(kk), lo.take(kk), h_hi.take(kk), h_lo.take(kk)
    # |x| * 10**(16 - k) = p + c: p = a * hi rounded, and c the rest, from
    # the exact error of that product plus a * lo.
    p = a * hi
    a_hi, a_lo = _split(a)
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
    d[~fast] = 10**16 + 1  # any 17 digits not ending in 0
    return ks, kk, d, fast


def _cells(x: np.ndarray, width: int, sep: str, end: str) -> tuple[bytes, list[float]]:
    """The text of ``x`` as rows of cells, NUL where no character is, and its fallbacks.

    The rows are ``x``'s elements, ``width`` to a row of text.  Each
    element that :func:`format_float` renders keeps only its separator and
    a marker, \\x01, at which its text goes in; they are the values listed.
    """
    ks, kk, d, fast = _digits(x)
    fixed = (ks >= -4) & (ks < 17)
    # Index of the digit the point follows; -1 when it comes before them all.
    point_k = np.where(fixed, np.where(ks >= 0, ks, -1), 0)
    point = point_k.take(kk)
    # The _PREFIX row: the point after the leading digit, "0." and -k - 1
    # zeros, or nothing.
    prefix_k = np.where(point_k == 0, 5, np.where(fixed & (ks < 0), -ks, 0))

    n = x.size
    cells = -(-(_SEP + len(sep)) // 8) * 8
    out = np.empty((n, cells), np.uint8)
    out_words = out.view(np.uint64)
    out_words[:, 0] = _PREFIX.take(2 * prefix_k.take(kk) + np.signbit(x))
    # The leading digit, then four groups of four digits as their cells.
    top = d // 10**8
    low = (d - top * 10**8).astype(np.uint32)
    top = top.astype(np.uint32)
    lead = top // 10**8
    out[:, _LEAD] = lead + 48
    top -= lead * 10**8
    upper, lower = top // 10**4, low // 10**4
    groups = (upper, top - upper * 10**4, lower, low - lower * 10**4)
    for col, g in enumerate(groups, 1):
        out_words[:, col] = _QUADS.take(g)
    # Trailing zeros after the point go, a group at a time from the last one
    # while whole groups go, and the point with them; the digits before the
    # point stay.
    rows = np.flatnonzero(groups[3] % 10 == 0)
    for i in range(3, -1, -1):
        keep = np.minimum(np.maximum(4 - _TZ.take(groups[i][rows]), point[rows] - 4 * i), 4)
        out_words[rows, i + 1] &= _KEEP.take(keep)
        rows = rows[keep == 0]
        if not rows.size:
            break
    out[rows, _LEAD + 1] = 0
    # A point after a later digit, where a digit follows it.
    flat = out.reshape(-1)
    rows = np.flatnonzero(((point_k >= 1) & (point_k < 16)).take(kk))
    rows = rows[flat[rows * cells + _LEAD + 2 + 2 * point[rows]] != 0]
    flat[rows * cells + _LEAD + 1 + 2 * point[rows]] = ord(".")
    # The words from the exponent's on, by k: %g's exponent, or NUL in fixed
    # notation, then sep, or end after the last value of a row.
    exponents = [b"" if f else b"e%+03d" % k for k, f in zip(ks.tolist(), fixed.tolist())]
    for tail, at in ((sep, slice(None)), (end, slice(width - 1, None, width))):
        words = np.frombuffer(b"".join(
            (e.ljust(_SEP - _EXP, b"\0") + tail.encode()).ljust(cells - _EXP, b"\0")
            for e in exponents
        ), np.uint64).reshape(len(exponents), -1)
        for col, column in enumerate(words.T, _EXP // 8):
            out_words[at, col] = column.take(kk[at])
    slow = np.flatnonzero(~fast)
    out[slow, :_SEP] = 0
    out[slow, 0] = 1
    return out.tobytes(), x[slow].tolist()


def _join_floats(values: np.ndarray, sep: str = ",", end: str = "") -> str:
    """:func:`format_float` of each element of a float64 array, joined.

    The rows of a 2-d array (a 1-d array is one row) are written in order,
    ``sep`` between the values of a row and ``end`` (one character, or
    none) after each row.  The module docstring describes the method.
    """
    v = np.atleast_2d(values)
    cells, fallbacks = _cells(v.ravel(), v.shape[1], sep, end)
    text = cells.translate(None, b"\0").decode("ascii")
    if fallbacks:
        parts = text.split("\x01")
        pieces = [parts[0]]
        for value, rest in zip(fallbacks, parts[1:]):
            pieces += (format_float(value), rest)
        text = "".join(pieces)
    return text


# Floats per text piece of the kernel: of an innermost row in _emit_floats,
# and of a block of path CSV rows in cli.
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
