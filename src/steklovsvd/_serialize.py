"""Deterministic output helpers: float formatting, canonical JSON, atomic writes.

All floats are rendered with 17 significant digits (``%.17g``) so identical
inputs produce byte-identical files; :func:`format_floats` is the one
routine that turns floats into text, a whole table (a JSON matrix, a CSV)
in one ``%`` call.  In canonical JSON a float table is a float64 ndarray
of one or two dimensions; lists, tuples and other arrays are written
element by element, with the same bytes.  Writes go through a temporary
file in the target directory followed by an atomic rename; files written
together appear together or not at all.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np


def fill_template(template: str, values: tuple) -> str:
    """``template % values``, for a template whose only letters are in its ``%`` fields.

    Raises ``ValueError`` naming the first non-finite value.
    """
    text = template % values
    # 'nan', 'inf' and '-inf' are the only renderings that contain an 'n'.
    if "n" in text:
        bad = next(v for v in values if not math.isfinite(v))
        raise ValueError(f"cannot serialize non-finite value {float(bad)}")
    return text


def format_floats(rows, sep: str = ",", row_sep: str | None = None) -> str:
    """The ``%.17g`` renderings of a float table, formatted in one ``%`` call.

    ``rows`` is a sequence of float rows, which may be ragged: values join
    with ``sep`` and rows with ``row_sep``.  Without ``row_sep``, ``rows``
    is one flat row.  Raises ``ValueError`` naming the first non-finite
    value in row-major order.
    """
    if row_sep is None:
        rows, row_sep = (rows,), ""
    template = row_sep.join(sep.join(("%.17g",) * len(r)) for r in rows)
    return fill_template(template, tuple(itertools.chain.from_iterable(rows)))


def fmt_float(x: float) -> str:
    return format_floats((float(x),))


def _canonical(obj):
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_canonical(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim == 1:
            return "[" + format_floats(obj.tolist()) + "]"
        if obj.dtype == np.float64 and obj.ndim == 2 and obj.shape[0]:
            return "[[" + format_floats(obj.tolist(), ",", "],[") + "]]"
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
