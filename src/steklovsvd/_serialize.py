"""Deterministic output helpers: float formatting, canonical JSON, atomic writes.

All floats are rendered with 17 significant digits (``%.17g``) so identical
inputs produce byte-identical files; :func:`format_floats` is the one
routine that turns floats into text.  It formats a float64 table (a JSON
matrix, a CSV, the mesh's vertex lines) as whole numpy arrays, exactly:
each value's digits come from an error-free product, and a value whose
rounding is too close to call goes to ``%`` itself, as do small tables.
In canonical JSON a float table is a float64 ndarray of one or two
dimensions; lists, tuples and other arrays are written element by element,
with the same bytes.  Writes go through a temporary file in the target
directory followed by an atomic rename; files written together appear
together or not at all.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np


def _fill_template(template: str, values: tuple) -> str:
    """``template % values``, for a template whose only letters are in its ``%`` fields.

    Raises ``ValueError`` naming the first non-finite value.
    """
    text = template % values
    # 'nan', 'inf' and '-inf' are the only renderings that contain an 'n'.
    if "n" in text:
        bad = next(v for v in values if not math.isfinite(v))
        raise ValueError(f"cannot serialize non-finite value {float(bad)}")
    return text


# Float64 arrays of at least this many values take the array path.  Its
# fixed cost is about 75 us a call, against 0.45 us per value for ``%``:
# the two break even near 256 values, and at 512 the array path takes
# 0.14 ms to the ``%`` call's 0.22 ms (2-vCPU x86 host, one BLAS thread).
_ARRAY_MIN = 512
# Values per block of the array path, which holds about 110 bytes of
# temporaries per value.  Building and dumping a 20-mode disk basis at
# h 0.08 then peaks at 2.1 times its text traced, as the one-call
# formatter did (8192 reads 2.7 times).  4096 dumps a 60-mode basis about
# 9% faster, but raised the resident peak of the basis-query benchmark
# (which hashes five meshes) by 1.5 MB over six probes; 2048 matched it.
_BLOCK = 2048
# Fractions this close to one half are rounded by the ``%`` call instead;
# the scaled products below are exact to about 1e-12.
_TIE_GUARD = 1e-6
_DEKKER = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves.


def _power_table(low: int, high: int) -> np.ndarray:
    """``10**p`` for ``low <= p <= high`` as ``hi + lo``: ``hi`` the nearest
    double, ``lo`` the rest rounded, so the pair is within 2**-107 relative.

    Rows ``hi``, ``lo`` and Dekker's split of ``hi`` into ``head + tail``.  Integer
    arithmetic keeps every step exact until the one rounding of each part.
    """
    hi, lo = [], []
    for p in range(low, high + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    head = hi * _DEKKER - (hi * _DEKKER - hi)
    return np.array([hi, lo, head, hi - head])


# 10**(16 - X) for every exponent X of a value in the array path's range,
# 1e-270 < |x| < 1e270, and one beyond at each end.
_POW_LOW = -256
_POWERS = _power_table(_POW_LOW, 288)


def _table(texts, n: int) -> np.ndarray:
    """Each text padded with NULs to ``n`` little-endian words: shape (n, len(texts))."""
    blob = b"".join(t.ljust(4 * n, b"\0") for t in texts)
    return np.frombuffer(blob, dtype="<u4").reshape(-1, n).T


# One value's text is a row of 8 little-endian words; NUL bytes are
# dropped, so any field may be empty or shorter than its bytes:
#   byte 0       sign
#   bytes 1-5    "0." and up to three zeros, for -4 <= X < 0
#   bytes 6-23   the 17 digits and the point: digit p sits at byte 7 + p,
#                except that the first ``lead`` digits move down one byte
#                and the point takes byte 6 + lead, when digits follow it;
#                trailing zeros after the point are blank
#   bytes 24-28  "e", the exponent's sign and its two or three digits
#   bytes 29-31  the separator after the value
# The rows are built word by word, as arrays of shape (8, n).
_ROW_WORDS = 8
# Words 0-1 for -X = 0 (no prefix), 1, 2, 3, 4.
_PREFIXES = _table([b"\0" + b"0." + b"0" * (k - 1) if k else b"" for k in range(5)], 2)


def _chunk_table() -> np.ndarray:
    """Each integer 0-9999 as a word of four ASCII digits, trailing zeros
    blanked; OR-ing in a word of ``_ZEROS`` restores them."""
    digits = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    digits[np.logical_and.accumulate(digits[:, ::-1] == 48, axis=1)[:, ::-1]] = 0
    return digits.view("<u4").ravel()


_CHUNKS = _chunk_table()
_ZEROS = _table([b"", b"0000"], 1)[0]
# Words 1-5 with the bytes of the first ``lead`` digits set, for lead = 0,
# ..., 17; and the same words holding just the point after those digits.
_LEADING = _table([b"\0\0\0" + b"\xff" * lead for lead in range(18)], 5)
_POINTS = _table([b"\0" * (2 + lead) + b"." * (lead > 0) for lead in range(18)], 5)
# Words 6-7 for X = -300, ..., 300 (two exponent digits at least), then
# for fixed notation.
_EXPONENTS = _table([b"e%+03d" % x for x in range(-300, 301)] + [b""], 2)


def _scaled(a, a_head, a_tail, x):
    """Integer part and fraction of ``a * 10**(16 - x)``.

    ``a * hi`` is exact as a Dekker two-product (no FMA needed); ``a * lo``
    and the sums after it round, and ``hi + lo`` is within 2**-107 of the
    power, which leaves an error below 1e-12 for the products under 10**18
    formed here.
    """
    hi, lo, head, tail = _POWERS.take(16 - _POW_LOW - x, axis=1)
    p = a * hi
    # In place, one product at a time: blocks hold fewer temporaries.
    err = a_head * head
    err -= p
    err += a_head * tail
    err += a_tail * head
    err += a_tail * tail
    err += a * lo
    r = np.round(p)
    p -= r
    p += err
    whole = np.floor(p)
    p -= whole
    return r.astype(np.int64) + whole.astype(np.int64), p


def _decimal(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``|v|`` as ``n * 10**(x - 16)``, ``n`` its 17 significant digits
    rounded to nearest as ``%.17g`` rounds them, and whether ``n`` and
    ``x`` are exact (otherwise the ``%`` call renders the value)."""
    a = np.abs(v)
    exact = (a > 1e-270) & (a < 1e270)
    a[~exact] = 1.0
    x = np.floor(np.log10(a)).astype(np.int64)
    a_head = a * _DEKKER
    a_head = a_head - (a_head - a)
    a_tail = a - a_head
    # X is right when the unrounded 17-digit integer part lies in
    # [10**16, 10**17).  log10 may miss by one near a power of ten: one
    # correction settles X, and a value still out of range falls back.
    whole, frac = _scaled(a, a_head, a_tail, x)
    shift = (whole >= 10**17).astype(np.int64) - (whole < 10**16)
    if shift.any():
        x += shift
        whole, frac = _scaled(a, a_head, a_tail, x)
        exact &= (whole >= 10**16) & (whole < 10**17)
    exact &= np.abs(frac - 0.5) > _TIE_GUARD
    n = whole + (frac > 0.5)
    # Rounding up to 10**17 carries into the exponent.
    carry = n == 10**17
    n[carry] = 10**16
    x += carry
    return n, x, exact


def _text_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The text rows of ``v`` as words of shape (8, n), with NUL separator
    bytes, and whether each row is exact."""
    n, x, exact = _decimal(v)
    fixed = (x >= -4) & (x < 17)
    # Digits before the point: the integer part in fixed notation, none
    # after "0.", one in d.ddde+XX.
    lead = np.where(fixed, np.maximum(x + 1, 0), 1)
    top, low = np.divmod(n, 10**8)
    first, top = np.divmod(top, 10**8)
    chunks = (*np.divmod(top, 10**4), *np.divmod(low, 10**4))
    del n, top, low
    rows = np.empty((_ROW_WORDS, v.size), dtype="<u4")
    digits = rows[1:6]
    digits[0] = (first + 48) << 24
    # Trailing zeros are blanked from the last nonzero chunk on; OR-ing
    # "0000" into a word turns its blanks back into zeros.
    later = np.zeros(v.size, dtype=np.uint8)
    for k in (3, 2, 1, 0):
        digits[1 + k] = _CHUNKS.take(chunks[k]) | _ZEROS.take(later)
        later |= chunks[k] != 0
    del chunks
    leading = _LEADING.take(lead, axis=1)
    head = digits | _ZEROS[1]
    head &= leading
    digits &= np.invert(leading, out=leading)
    del leading
    point = lead * digits.any(axis=0)
    # The leading digits move down one byte, across words, before the point.
    carry = head[1:] << 24
    head >>= 8
    head[:4] |= carry
    digits |= head
    del head, carry
    digits |= _POINTS.take(point, axis=1)
    prefix = _PREFIXES.take(np.where(fixed & (x < 0), -x, 0), axis=1)
    rows[0] = prefix[0] + (v < 0) * 45
    rows[1] |= prefix[1]
    rows[6:] = _EXPONENTS.take(np.where(fixed, -1, x + 300), axis=1)
    return rows, exact


def _format_array(table: np.ndarray, sep: bytes, row_sep: bytes) -> str:
    """The ``%.17g`` text of a float64 array, ``_BLOCK`` values at a time.

    Each value's text, and the separator after it, is written into a fixed
    row of bytes, NUL where a field is empty; dropping the NULs gives the
    text.  ``sep`` and ``row_sep`` are at most three bytes.
    """
    width = table.shape[-1]
    sep, row_sep = (int.from_bytes(s, "little") << 8 for s in (sep, row_sep))
    parts = []
    for start in range(0, table.size, _BLOCK):
        v = table.flat[start : start + _BLOCK]
        rows, exact = _text_rows(v)
        rows[7] |= sep
        ends = rows[7, (width - 1 - start) % width :: width]
        ends ^= sep ^ row_sep
        if start + v.size == table.size:
            rows[7, -1] &= 0xFF
        slow = ~exact
        if slow.any():
            values = v[slow].tolist()
            text = _fill_template("%-24.17g" * len(values), tuple(values)).encode()
            chars = np.frombuffer(text.replace(b" ", b"\0"), dtype="<u4").reshape(-1, 6)
            rows[:6, slow] = chars.T
            rows[6, slow] = 0
            rows[7, slow] &= ~np.uint32(0xFF)
        parts.append(rows.T.tobytes().translate(None, b"\0").decode())
    return "".join(parts)


def format_floats(rows, sep: str = ",", row_sep: str | None = None) -> str:
    """The ``%.17g`` renderings of a float table, byte for byte.

    ``rows`` is a float64 array (1-D, or 2-D with ``row_sep``) or a sequence
    of float rows, which may be ragged: values join with ``sep`` and rows
    with ``row_sep``.  Without ``row_sep``, ``rows`` is one flat row.

    A float64 array of at least ``_ARRAY_MIN`` values is formatted in
    numpy, ``_BLOCK`` values at a time: each value's 17 digits are the
    nearest integer to ``|x| 10**(16 - X)``, formed as an exact double-double
    product, and laid out by ``%g``'s rule for its exponent X.  A value
    whose scaled fraction lies within ``_TIE_GUARD`` of one half, a zero, a
    non-finite value and one outside ``1e-270 < |x| < 1e270`` are rendered by
    ``%`` instead, so no rounding is guessed.  Smaller tables, sequences and
    separators longer than three bytes take one ``%`` call.  Raises ``ValueError`` naming the first
    non-finite value in row-major order.
    """
    if isinstance(rows, np.ndarray):
        seps = (sep.encode(), (sep if row_sep is None else row_sep).encode())
        short = all(len(s) <= 3 and b"\0" not in s for s in seps)
        if rows.dtype == np.float64 and rows.size >= _ARRAY_MIN and short:
            return _format_array(rows, *seps)
        rows = rows.tolist()
    if row_sep is None:
        rows, row_sep = (rows,), ""
    template = row_sep.join(sep.join(("%.17g",) * len(r)) for r in rows)
    return _fill_template(template, tuple(itertools.chain.from_iterable(rows)))


def fmt_float(x: float) -> str:
    return format_floats((float(x),))


def _canonical(obj):
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_canonical(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim == 1:
            return "[" + format_floats(obj) + "]"
        if obj.dtype == np.float64 and obj.ndim == 2 and obj.shape[0]:
            return "[[" + format_floats(obj, ",", "],[") + "]]"
        return _canonical(obj.tolist())
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Compact JSON with fixed key order and 17-significant-digit floats."""
    return _canonical(obj) + "\n"


def atomic_write_text(path: str, text: str, *more: tuple[str, str]):
    """Write ``text`` to ``path``, and each further ``(path, text)`` pair, all or none.

    Each text goes to a sibling temporary file with the mode ``open`` would
    give the target; the renames start only once all are written, so a
    failed write leaves no file behind.  An ``OSError`` names its output.
    """
    outputs = ((path, text), *more)
    staged = []
    try:
        for target, content in outputs:
            directory = os.path.dirname(os.path.abspath(target))
            with open(os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part"), "x") as fh:
                staged.append(fh.name)
                fh.write(content)
        for tmp, (target, _) in zip(staged, outputs):
            os.replace(tmp, target)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, target) from exc
    finally:
        for tmp in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
