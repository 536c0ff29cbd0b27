"""Deterministic output helpers: float formatting, canonical JSON, atomic writes.

Two float renderings, each the same on every run.  JSON floats are the
shortest decimal that reads back to the same double (Steele and White
1990; Adams's Ryu, 2018), written by ``orjson``: ``-0.0`` stays ``-0.0``,
and every finite float64 reads back bit for bit.  Text tables (the CSVs,
the mesh's vertex lines, the domain descriptors) keep ``%.17g``.

A ``%.17g`` text table has one shape: a 2-D float array, whose values
join with a separator and whose rows join with a row separator.
:func:`iter_floats` turns it into text and :func:`iter_canonical` a
payload into JSON; both yield ASCII ``bytes`` parts of at most ``_BLOCK``
values (a text row wider than that is one part), and
:func:`format_floats` and :func:`dumps_canonical` join those parts.  In
canonical JSON a float table is a float64 ndarray of one or two
dimensions, written a block of one row at a time; lists, tuples and other
arrays are written element by element, with the same bytes.

Writes go through a temporary file in the target directory followed by an
atomic rename; files written together appear together or not at all.
:func:`atomic_write_text` writes each part as it arrives, so writing a
payload holds its arrays and one block's text, never the whole file, and
the file's bytes are exactly ``dumps_canonical(obj)``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import orjson


def _refuse(x) -> ValueError:
    return ValueError(f"cannot serialize non-finite value {float(x)}")


def _fill_template(template: str, values: tuple) -> str:
    """``template % values``, for a template whose only letters are in its ``%`` fields.

    Raises ``ValueError`` naming the first non-finite value.
    """
    text = template % values
    # 'nan', 'inf' and '-inf' are the only renderings that contain an 'n'.
    if "n" in text:
        raise _refuse(next(v for v in values if not math.isfinite(v)))
    return text


# Values per part of a float table.  A streamed write then holds one
# part's text and temporaries, 0.16 MB (JSON) to 0.21 MB (CSV) traced,
# whatever the size of the table.
_BLOCK = 2048


def iter_floats(table: np.ndarray, sep: str, row_sep: str):
    """The ``%.17g`` renderings of a 2-D float array as ASCII bytes parts.

    Values join with ``sep`` and rows with ``row_sep``.  Each part is one
    ``%`` call over ``_BLOCK // width`` rows, or over one row when that is
    wider.  Raises ``ValueError`` naming the first non-finite value in
    row-major order, once the parts before it have been yielded.
    """
    rows, width = table.shape
    step = max(1, _BLOCK // max(1, width))
    for start in range(0, rows, step):
        chunk = table[start : start + step]
        template = row_sep.join([sep.join(("%.17g",) * width)] * chunk.shape[0])
        text = _fill_template(template, tuple(chunk.ravel().tolist()))
        yield (row_sep * (start > 0) + text).encode()


def format_floats(table: np.ndarray, sep: str, row_sep: str) -> str:
    """The text of :func:`iter_floats`: ``%.17g`` renderings, byte for byte."""
    return b"".join(iter_floats(table, sep, row_sep)).decode()


def fmt_float(x: float) -> str:
    return _fill_template("%.17g", (float(x),))


def _json_table(table: np.ndarray):
    """A float64 array of one or two dimensions as JSON, one part per
    ``_BLOCK`` values of a row; a block is checked before it is written,
    because ``orjson`` writes a NaN or an infinity as ``null``."""
    yield b"[" * table.ndim
    for i, row in enumerate(table.reshape(-1, table.shape[-1])):
        if i:
            yield b"],["
        for start in range(0, row.size, _BLOCK):
            block = np.ascontiguousarray(row[start : start + _BLOCK])
            finite = np.isfinite(block)
            if not finite.all():
                raise _refuse(block[~finite][0])
            yield b"," * (start > 0) + orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    yield b"]" * table.ndim


def _scalar(obj) -> bytes:
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return b"true" if obj else b"false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj)).encode()
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise _refuse(x)
        return orjson.dumps(x)
    if obj is None:
        return b"null"
    if isinstance(obj, str):
        return json.dumps(obj).encode()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _canonical(obj):
    if isinstance(obj, dict):
        yield b"{"
        for i, (k, v) in enumerate(obj.items()):
            yield b"," * (i > 0) + json.dumps(str(k)).encode() + b":"
            yield from _canonical(v)
        yield b"}"
    elif isinstance(obj, (list, tuple)):
        yield b"["
        for i, v in enumerate(obj):
            if i:
                yield b","
            yield from _canonical(v)
        yield b"]"
    elif isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim in (1, 2) and obj.size:
        yield from _json_table(obj)
    elif isinstance(obj, np.ndarray):
        yield from _canonical(obj.tolist())
    else:
        yield _scalar(obj)


def iter_csv(header: str, table: np.ndarray):
    """A CSV file as bytes parts: the ``header`` line, then one line per row of ``table``."""
    yield header.encode() + b"\n"
    yield from iter_floats(table, ",", "\n")
    yield b"\n"


def iter_canonical(obj):
    """The bytes of :func:`dumps_canonical` as parts: a float table yields one
    part per ``_BLOCK`` values, so the parts never hold the whole text."""
    yield from _canonical(obj)
    yield b"\n"


def dumps_canonical(obj) -> str:
    """Compact JSON with fixed key order and shortest round-trip floats."""
    return b"".join(iter_canonical(obj)).decode()


def atomic_write_text(path: str, text, *more: tuple):
    """Write ``text`` to ``path``, and each further ``(path, text)`` pair, all or none.

    A text is a ``str`` or an iterable of ``str`` and ``bytes`` parts, such
    as :func:`iter_canonical`; each part is written as it arrives, a ``str``
    as UTF-8.  Each text goes to a sibling temporary file with the mode
    ``open`` would give the target; the renames start only once all are
    written, so a failed write, or an exception from a part's iterable,
    leaves no file behind and every target as it was.  An ``OSError``
    names its output.
    """
    outputs = ((path, text), *more)
    staged = []
    try:
        for target, content in outputs:
            directory = os.path.dirname(os.path.abspath(target))
            with open(os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part"), "xb") as fh:
                staged.append(fh.name)
                for part in (content,) if isinstance(content, str) else content:
                    fh.write(part.encode() if isinstance(part, str) else part)
        for tmp, (target, _) in zip(staged, outputs):
            os.replace(tmp, target)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, target) from exc
    finally:
        for tmp in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
