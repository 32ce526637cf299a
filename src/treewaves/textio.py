"""The text of every output: JSON summaries and CSV tables.

Text is deterministic for fixed inputs: no timestamps, floats with 17
significant digits and '.' as the decimal separator, fixed key order, '\n'
line endings.  Two entries give a document as text chunks to write in order:
`json_chunks(header, payload)`, one JSON object, and `csv_chunks(header,
columns)`, a '#'-prefixed metadata block and rows formatted in numpy blocks with
the bytes of Python's `%d` and `%.17g`.  Neither sees the command line, so a
library caller gets the bytes of the `treewaves` command from the same header.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterator

import numpy as np

# CSV rows are formatted in blocks of at most CSV_BLOCK_ROWS rows and
# _CSV_BLOCK_BYTES of padded text (up to 48 bytes a number).  A block of fewer rows,
# or more string bytes a row, takes one `%`: numpy's fixed cost or NUL padding loses.
# A block of such wide text gets 1/16 of the bytes, as `%` holds it about four times.
CSV_BLOCK_ROWS = 1 << 14
_CSV_BLOCK_BYTES = 1 << 22
_CSV_SMALL_ROWS, _CSV_WIDE_TEXT = 256, 192
# 10^e as doubles (those under 1 round up, so |v| >= _DECADES[e + 4] is exactly
# |v| >= 10^e), and 10^q with its Veltkamp halves for Dekker's product
_DECADES = np.array([float(f"1e{e}") for e in range(-4, 17)])
_POW10 = 10.0 ** np.arange(21)
_POW10_HI = _POW10 * (2.0**27 + 1) - (_POW10 * (2.0**27 + 1) - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# the unit of each digit of a 17-digit integer, in its top nine or low eight digits
_DIGIT_UNIT = (10 ** np.r_[8:-1:-1, 7:-1:-1])[:, None].astype(np.int32)


def json_chunks(header: dict, payload: dict) -> list[str]:
    """One JSON object: the header's keys, then the payload's, and a newline."""
    return [_json_text({**header, **payload}), "\n"]


def _json_text(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits and insertion-order keys."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            return '"nan"' if math.isnan(v) else ('"inf"' if v > 0 else '"-inf"')
        return f"{v:.17g}"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{inner}{_json_text(str(k))}: {_json_text(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        rows = [f"{inner}{_json_text(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def csv_chunks(header: dict, columns: dict) -> Iterator[str]:
    """Metadata block (one '# key=value' line per header entry), column names
    and one row per entry of the named columns: strings from a list or a bytes
    array (its NULs deleted), integers like str, floats with 17 significant
    digits.  A column is a list, an array, or a function from row indices to
    values; a function's text is measured at a block's last row, so its strings
    must not narrow as the index grows.  Rows are formatted a block at a time,
    so no large table is held as text: a block's columns become NUL-padded
    uint8 text matrices, joined by ',' and '\n' columns, and the NULs are deleted."""
    lines = [f"# {k}={v if isinstance(v, str) else _json_text(v)}" for k, v in header.items()]
    lines.append(",".join(columns))
    yield "\n".join(lines) + "\n"
    size = len(next(c for c in columns.values() if not callable(c)))
    lo = 0
    while lo < size:
        hi = min(lo + CSV_BLOCK_ROWS, size)
        widths = [_text_width(c(np.arange(hi - 1, hi)) if callable(c) else c[lo:hi])
                  for c in columns.values()]
        wide = sum(widths) > _CSV_WIDE_TEXT
        budget = _CSV_BLOCK_BYTES >> 4 * wide
        hi = min(hi, lo + max(1, budget // (sum(widths) + 48 * len(widths))))
        block = [c(np.arange(lo, hi)) if callable(c) else c[lo:hi] for c in columns.values()]
        text = [isinstance(b, list) or b.dtype.kind == "S" for b in block]
        if hi - lo < _CSV_SMALL_ROWS or wide:
            row = ",".join("%s" if t else "%d" if b.dtype.kind in "iu"
                           else "%.17g" for b, t in zip(block, text)) + "\n"
            cells = zip(*(b if isinstance(b, list) else
                          [a.replace(b"\0", b"").decode() for a in b.tolist()] if t else
                          b.tolist() for b, t in zip(block, text)))
            yield (row * (hi - lo)) % tuple(chain.from_iterable(cells))
        else:
            parts = []
            for b, t, w, end in zip(block, text, widths, b"," * (len(block) - 1) + b"\n"):
                parts += [np.asarray(b, f"S{w}").view(np.uint8).reshape(hi - lo, -1)
                          if t else _int_text(b) if b.dtype.kind in "iu"
                          else _float_text(b), np.full((hi - lo, 1), end, np.uint8)]
            yield np.concatenate(parts, axis=1).tobytes().translate(None, b"\0").decode()
        lo = hi


def _text_width(part) -> int:
    """The longest string of a list, the width of a bytes array, 0 for numbers."""
    if isinstance(part, list):
        return max(map(len, part))
    return part.itemsize if part.dtype.kind == "S" else 0


def _int_text(v: np.ndarray) -> np.ndarray:
    """`"%d" % i` for each 64-bit integer i in v, NUL-padded, one row each."""
    neg, v = v < 0, -np.abs(v.astype(np.int64))  # -|i|: at -2^63 both signs wrap back
    q = v // -10  # |i| // 10
    m = np.zeros((len(str(q.max())) + 2, len(v)), np.uint8)
    m[0] = neg * ord("-")
    m[-1] = ord("0") - (v + 10 * q)
    for k in range(len(m) - 2, 0, -1):  # leading digits, while the quotient is > 0
        m[k] = (q > 0) * (ord("0") + q - q // 10 * 10)
        q //= 10
    return m.T


def _float_text(x: np.ndarray) -> np.ndarray:
    """`"%.17g" % v` for each v in x, NUL-padded, one row each.  For
    1e-4 <= |v| < 1e17, of decade e, the digits are d = round(|v| 10^(16 - e)),
    ties to even: Dekker's product is hi + lo exactly, hi >= 2^53 an integer.
    The point follows digit e; trailing zeros after it are dropped.  Zeros print
    as 0 and -0; the rest (exponent form, nan, inf) take one `%` per block."""
    x = np.asarray(x, np.float64)
    a = np.abs(x)
    exact = (a >= 1e-4) & (a < 1e17)
    a[~exact] = 1.0
    point = np.searchsorted(_DECADES, a, "right") - 5  # the decade e of |v|
    hi = a * _POW10[16 - point]
    ah = a * (2.0**27 + 1)
    ah -= ah - a
    al = a - ah
    bh, bl = _POW10_HI[16 - point], _POW10_LO[16 - point]
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # tail[j]: digits j.. of j's half of d, in place (new (17, rows) arrays page-fault)
    tail = np.empty((17, len(x)), np.int32)
    tail[:9], tail[9:] = np.divmod(d, 10**8)
    high = tail // (10 * _DIGIT_UNIT)
    tail -= np.multiply(high, 10 * _DIGIT_UNIT, out=high)
    digits = np.floor_divide(tail, _DIGIT_UNIT, out=high).astype(np.uint8) + ord("0")
    tail = tail != 0
    tail[:9] |= tail[9]  # now: a nonzero digit from j on
    digits[1:] *= tail[1:] | (np.arange(1, 17)[:, None] <= point)
    # sign, lead, then digits 0..top each with a slot for the point after it
    top = max(int(point.max()), -1)
    m = np.zeros((24 + max(top, 0), len(x)), np.uint8)
    m[0] = np.signbit(x) * ord("-")
    m[1:6] = (point < np.c_[[0, 0, -1, -2, -3]]) * np.c_[list(b"0.000")]  # below 1: 0.0..
    m[6:8 + 2 * top:2] = digits[:top + 1]
    m[8 + 2 * top:24 + top] = digits[top + 1:]
    at = np.flatnonzero((point >= 0) & (point < 16))
    at = at[tail[point[at] + 1, at]]
    m[7 + 2 * point[at], at] = ord(".")
    rest = np.flatnonzero(~exact)
    if len(rest):
        m[1:, rest] = 0
        m[1, rest] = ord("0")
        other = rest[x[rest] != 0]  # no "%.17g" text is longer than 24 characters
        if len(other):
            text = ("%.17g\0" * len(other) % tuple(x[other].tolist())).split("\0")[:-1]
            m[:24, other] = np.array(text, "S24").view(np.uint8).reshape(-1, 24).T
    return m.T
