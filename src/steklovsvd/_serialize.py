"""Deterministic output helpers: float formatting, canonical JSON, atomic writes.

All floats are rendered with 17 significant digits (``%.17g``) so identical
inputs produce byte-identical files; :func:`format_floats` is the one
routine that turns floats into text, a row at a time.  Writes go through a
temporary file in the target directory followed by an atomic rename.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

_FMT = "%.17g".__mod__


def format_floats(values, sep: str = ",") -> str:
    """Join the ``%.17g`` renderings of a flat float sequence with ``sep``.

    Raises ``ValueError`` naming the first non-finite value.
    """
    text = sep.join(map(_FMT, values))
    # 'nan', 'inf' and '-inf' are the only renderings that contain an 'n'.
    if "n" in text:
        bad = next(v for v in values if not math.isfinite(v))
        raise ValueError(f"cannot serialize non-finite value {float(bad)}")
    return text


def fmt_float(x: float) -> str:
    return format_floats((float(x),))


def _canonical(obj):
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_canonical(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) <= {float}:
            return "[" + format_floats(obj) + "]"
        return "[" + ",".join(_canonical(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
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


def atomic_write_text(path: str, text: str):
    """Write via a sibling temp file and rename, so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
