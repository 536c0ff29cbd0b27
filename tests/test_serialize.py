"""Byte-identity of the batched float writers against per-float references.

The reference functions below write one float at a time.  Text tables
(CSVs, mesh text, descriptors) keep the package's original ``%.17g``
writers, copied unchanged.  JSON floats are the shortest round-trip
decimal: the reference writes each one with ``orjson.dumps`` of a Python
float, and :func:`test_json_floats_are_shortest_round_trip_decimals`
checks that text against ``repr`` through ``Decimal``.  The ``%.17g`` JSON
writer the package used before (:func:`ref_dumps_canonical_17g`) stays as
the writer of old basis files, which must still load.
"""

import hashlib
import io
import json
import math
import os
import stat
import struct
import tracemalloc
from decimal import Decimal

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steklovsvd import _serialize, meshing
from steklovsvd._serialize import (
    atomic_write_text,
    dumps_canonical,
    fmt_float,
    format_floats,
    iter_canonical,
    iter_csv,
)
from steklovsvd.bergman import TruncatedKernel, iter_kernel_grid_csv
from steklovsvd.cli import _read_json_object, main
from steklovsvd.meshing import (
    Mesh,
    build_polygon_mesh,
    disk_mesh,
    mesh_hash,
    refine,
    write_mesh_text,
)
from steklovsvd.poisson import PoissonSvd, iter_kernel_slice_csv, kernel_slice
from steklovsvd.spectra import (
    basis_from_json_dict,
    basis_to_json_dict,
    dbs_eigensolve,
    dirichlet_laplacian_eigensolve,
    harmonic_steklov_eigensolve,
)

# -- reference implementations -------------------------------------------------------


def ref_fmt_float(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return format(x, ".17g")


def ref_json_float(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return orjson.dumps(x).decode()


def ref_canonical(obj, fmt=ref_json_float):
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}:{ref_canonical(v, fmt)}" for k, v in obj.items())
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(ref_canonical(v, fmt) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return ref_canonical(obj.tolist(), fmt)
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def ref_dumps_canonical(obj) -> str:
    return ref_canonical(obj) + "\n"


def ref_dumps_canonical_17g(obj) -> str:
    """The JSON the package wrote before its floats were shortest round-trip."""
    return ref_canonical(obj, ref_fmt_float) + "\n"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def ref_write_mesh_text(mesh) -> str:
    lines = [f"nodes {mesh.vertices.shape[0]}"]
    flags = mesh.is_boundary.astype(int)
    for (x, y), fb in zip(mesh.vertices, flags):
        lines.append(f"{_fmt(x)} {_fmt(y)} {fb}")
    lines.append(f"triangles {mesh.triangles.shape[0]}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    lines.append(f"boundary_loops {len(mesh.boundary_loops)}")
    for loop in mesh.boundary_loops:
        lines.append(f"loop {len(loop)}")
        lines.append(" ".join(str(int(i)) for i in loop))
    return "\n".join(lines) + "\n"


def ref_kernel_slice_csv(arclength, values) -> str:
    buf = io.StringIO()
    buf.write("z_arclength,value\n")
    for a, v in zip(arclength, values):
        buf.write(f"{format(a, '.17g')},{format(v, '.17g')}\n")
    return buf.getvalue()


def ref_kernel_grid_csv(vertices, values) -> str:
    buf = io.StringIO()
    buf.write("x,y,value\n")
    for (px, py), v in zip(vertices, values):
        buf.write(
            f"{format(px, '.17g')},{format(py, '.17g')},{format(v, '.17g')}\n"
        )
    return buf.getvalue()


def ref_basis_to_json_dict(basis, domain: str) -> dict:
    return {
        "domain": domain,
        "boundary_length": basis.boundary_length,
        "M": int(basis.rank),
        "q": [float(v) for v in basis.q],
        "b": [[float(v) for v in basis.b_matrix[:, j]] for j in range(basis.rank)],
        "h": [[float(v) for v in basis.h_matrix[:, j]] for j in range(basis.rank)],
        "w": [[float(v) for v in basis.w_matrix[:, j]] for j in range(basis.rank)],
        "mesh_hash": mesh_hash(basis.mesh),
    }


# -- float corpus ----------------------------------------------------------------------

EDGE_FLOATS = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    2.225073858507201e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    1.0,
    -3.0,
    2.0**53,
    2.0**53 + 2.0,
    1e16,
    1e17,
    0.1,
    1 / 3,
    123456789012345680.0,
]


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(_from_bits).filter(math.isfinite),
    st.integers(-(2**62), 2**62).map(float),
    st.sampled_from(EDGE_FLOATS),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(finite_floats, max_size=40))
@example(EDGE_FLOATS)
@example([])
def test_float_rows_match_reference(values):
    arr = np.array(values, dtype=float)
    expected = ref_dumps_canonical(values)
    assert dumps_canonical(values) == expected
    assert dumps_canonical(tuple(values)) == expected
    assert dumps_canonical(arr) == expected
    assert dumps_canonical([np.float64(v) for v in values]) == expected
    assert format_floats(arr[:, None], " ", " ") == " ".join(ref_fmt_float(v) for v in values)
    for v in values[:5]:
        assert fmt_float(v) == ref_fmt_float(v)
        assert dumps_canonical(np.float64(v)) == ref_dumps_canonical(np.float64(v))


@settings(max_examples=100, deadline=None)
@given(st.lists(finite_floats, min_size=6, max_size=6))
def test_float32_and_2d_arrays_match_reference(values):
    arr = np.array(values).reshape(2, 3)
    with np.errstate(over="ignore"):
        small = arr.astype(np.float32)
    payload = {"a": arr, "t": arr.T, "f32": small[np.isfinite(small).all(axis=1)]}
    assert dumps_canonical(payload) == ref_dumps_canonical(payload)


MIXED_PAYLOAD = {
    "domain": "disk;radius=1;h=0.1",
    "flags": [True, False, np.bool_(True), np.bool_(False)],
    "ints": [0, -7, np.int64(2**40), np.int32(-3), 10**20],
    "scalars": [np.float64(0.1), -0.0, 5e-324, None, "é\"q\""],
    "vec": np.array([1.0, -2.5, 1e-300]),
    "mat": np.arange(12.0).reshape(3, 4) / 7.0,
    "cube": np.arange(8.0).reshape(2, 2, 2),
    "empty": np.array([]),
    "empty_rows": np.zeros((0, 3)),
    "empty_cols": np.zeros((2, 0)),
    "scalar_array": np.array(2.5),
    "int_array": np.arange(4),
    "bool_array": np.array([True, False]),
    "mixed_list": [1.0, 2, True, np.float64(3.5), np.array([0.25])],
    "nested": ({"k": [[1.5, 2.5], (3.5,)]}, []),
    3: "non-string key",
}


def test_mixed_payload_matches_reference():
    assert dumps_canonical(MIXED_PAYLOAD) == ref_dumps_canonical(MIXED_PAYLOAD)


def test_pinned_payload_hash():
    # No solver involved: the digest is the same on every machine.
    text = dumps_canonical(MIXED_PAYLOAD)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2b4e5274dff9df95d8fd1f5e0dec8b30083c88cfe45e427510b7e176a19e0958"
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "wrap",
    [
        lambda a: a,
        lambda a: a.reshape(2, 2),
        lambda a: a.tolist(),
        lambda a: {"x": [1, {"y": a}]},
        lambda a: [a.tolist(), a],
    ],
    ids=["1d", "2d", "list", "nested", "list_of_rows"],
)
def test_non_finite_values_raise_as_before(bad, wrap):
    arr = np.array([1.0, -2.0, bad, math.nan])
    payload = wrap(arr)
    with pytest.raises(ValueError) as ref_exc:
        ref_dumps_canonical(payload)
    with pytest.raises(ValueError, match="^cannot serialize non-finite value ") as exc:
        dumps_canonical(payload)
    assert str(exc.value) == str(ref_exc.value)


def test_long_double_arrays_match_reference():
    payload = {"ld": np.array([0.1, 1.0, -2.5], dtype=np.longdouble) / 3}
    assert dumps_canonical(payload) == ref_dumps_canonical(payload)
    if np.finfo(np.longdouble).max > np.finfo(float).max:
        huge = np.array([1.0, np.finfo(np.longdouble).max], dtype=np.longdouble)
        with pytest.raises(ValueError, match="^cannot serialize non-finite value inf$"):
            dumps_canonical(huge)


def test_unserializable_type_still_rejected():
    with pytest.raises(TypeError, match="cannot serialize complex"):
        dumps_canonical({"z": np.array([1j])})


# -- real writers -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_basis():
    return dbs_eigensolve(disk_mesh(1, 0.1), 12)


def test_basis_json_matches_reference(small_basis):
    new = basis_to_json_dict(small_basis, "disk;radius=1;h=0.1")
    ref = ref_basis_to_json_dict(small_basis, "disk;radius=1;h=0.1")
    tables = ("q", "b", "h", "w")
    assert {k: v for k, v in new.items() if k not in tables} == {
        k: v for k, v in ref.items() if k not in tables
    }
    assert all(new[k].dtype == np.float64 and np.array_equal(new[k], ref[k]) for k in tables)
    assert dumps_canonical(new) == ref_dumps_canonical(ref)


def test_basis_payload_is_written_from_its_arrays():
    # The writer formats one matrix at a time from the basis arrays, so the
    # traced peak of building and dumping the payload stays near twice the
    # text: the formatted parts and their join.
    basis = dbs_eigensolve(disk_mesh(1, 0.08), 20)
    tracemalloc.start()
    try:
        text = dumps_canonical(basis_to_json_dict(basis, "disk;radius=1;h=0.08"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)


def test_mesh_text_matches_reference(small_basis):
    mesh = small_basis.mesh
    assert write_mesh_text(mesh) == ref_write_mesh_text(mesh)


def test_mesh_text_is_cached_and_hash_unchanged():
    mesh = disk_mesh(1.0, 0.2)
    expected = ref_write_mesh_text(mesh)
    digest = mesh_hash(mesh)
    assert digest == hashlib.sha256(expected.encode()).hexdigest()
    text = write_mesh_text(mesh)
    assert text == expected
    assert write_mesh_text(mesh) is text
    assert mesh_hash(Mesh(mesh.vertices, mesh.triangles)) == digest


def test_kernel_csvs_match_reference(small_basis):
    x = (-0.3, 0.1)
    svd = PoissonSvd.from_basis(small_basis)
    text = b"".join(iter_kernel_slice_csv(svd, x, 8)).decode()
    assert text == ref_kernel_slice_csv(*kernel_slice(svd, x, 8))
    values = TruncatedKernel(small_basis, 8).values_on_vertices(x)
    text = b"".join(iter_kernel_grid_csv(small_basis, x, 8)).decode()
    assert text == ref_kernel_grid_csv(small_basis.mesh.vertices, values)



# -- whole tables ------------------------------------------------------------------------

float_rows = st.lists(finite_floats, max_size=8)
# Ragged tables of list and tuple rows, empty rows and empty tables included.
float_tables = st.lists(st.one_of(float_rows, float_rows.map(tuple)), max_size=8)


def ref_table(table, sep, row_sep) -> str:
    return row_sep.join(sep.join(ref_fmt_float(v) for v in row) for row in table)


@settings(max_examples=300, deadline=None)
@given(float_tables)
@example([])
@example([[]])
@example([[], (), []])
@example([[0.1]])
@example([(0.1,)])
@example([EDGE_FLOATS, (), EDGE_FLOATS[:1], tuple(EDGE_FLOATS[3:])])
def test_float_tables_match_reference(table):
    for payload in (table, tuple(table), {"m": table}, [table, table[:1]], [[table]]):
        assert dumps_canonical(payload) == ref_dumps_canonical(payload)


RAGGED = [[0.5, -1.5, 2.0, 1 / 3], [1e300, 5e-324, -0.0], [0.1, 7.0, 2.0**53, -3.0, 1e17], [1.0]]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k, j", [(0, 0), (0, 3), (1, 1), (2, 4), (3, 0)])
def test_non_finite_table_entry_raises_the_reference_message(bad, k, j):
    table = [list(row) for row in RAGGED]
    table[k][j] = bad
    if k < 3:
        # A different non-finite value later on: the first one is named.
        table[3][0] = math.inf if math.isnan(bad) else math.nan
    with pytest.raises(ValueError) as ref_exc:
        ref_dumps_canonical(table)
    for call in (
        lambda: dumps_canonical(table),
        lambda: dumps_canonical({"x": [1, {"m": table}]}),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == str(ref_exc.value)


@pytest.mark.parametrize(
    "odd",
    [True, False, 0, -7, 2**70, None, np.float64(0.1), np.float64(-0.0), np.bool_(True),
     np.int64(3)],
    ids=repr,
)  # fmt: skip
@pytest.mark.parametrize("k, j", [(0, 0), (1, 2), (3, 0)])
def test_rows_with_non_float_items_keep_per_element_rendering(odd, k, j):
    table = [list(row) for row in RAGGED]
    table[k][j] = odd
    for payload in (table, [tuple(row) for row in table], {"m": table}):
        assert dumps_canonical(payload) == ref_dumps_canonical(payload)


# -- large float64 arrays ------------------------------------------------------------

BLOCK = _serialize._BLOCK


def ref_array(arr, sep, row_sep=None) -> str:
    if arr.ndim == 1:
        return sep.join(ref_fmt_float(v) for v in arr.tolist())
    return ref_table(arr.tolist(), sep, row_sep)


def _bulk(rng, n: int) -> np.ndarray:
    """``n`` finite float64 values: random bit patterns, decimal-looking values
    across the fixed/exponent switches, short decimals, integers and ties."""
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
    bits[~np.isfinite(bits)] = 0.5
    scaled = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 20, size=n)
    scale = 10.0 ** rng.integers(0, 6, size=n)
    short = np.round(rng.standard_normal(n) * scale) / scale
    integers = rng.integers(-(2**53), 2**53, size=n).astype(float)
    ties = (10**15 + rng.integers(0, 10**15, size=n)) + rng.choice([0.25, 0.75], size=n)
    pick = rng.integers(0, 5, size=n)
    return np.choose(pick, [bits, scaled, short, integers, ties])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    extra=st.lists(finite_floats, max_size=40),
    cols=st.integers(1, 300),
    layout=st.sampled_from(["1d", "c", "f"]),
)
def test_large_arrays_match_the_per_element_reference(seed, extra, cols, layout):
    rng = np.random.default_rng(seed)
    rows = -(-BLOCK // cols) + int(rng.integers(0, 3000 // cols + 1))
    values = _bulk(rng, rows * cols)
    spots = rng.choice(values.size, size=min(len(extra), values.size), replace=False)
    values[spots] = extra[: spots.size]
    if layout == "1d":
        assert format_floats(values[:, None], ",", ",") == ref_array(values, ",")
        assert format_floats(values[:, None], " ", " ") == ref_array(values, " ")
        assert dumps_canonical(values) == ref_dumps_canonical(values)
        return
    table = values.reshape(rows, cols) if layout == "c" else values.reshape(cols, rows).T
    assert format_floats(table, ",", "],[") == ref_array(table, ",", "],[")
    assert format_floats(table, " ", "\n") == ref_array(table, " ", "\n")
    assert dumps_canonical({"m": table}) == ref_dumps_canonical({"m": table})


FIXED_CASES = {
    # m + 0.25 and m + 0.75 for 16-digit m are exact ties: their 18th
    # significant digit is a 5 with nothing after it, so %.17g rounds half
    # to even (1234567890123456.75 rounds up, .25 down).
    "ties": [m + f for m in (1234567890123456, 10**15, 2**51 - 1) for f in (0.25, 0.75)],
    # Each power of ten, its neighbours and 10.0 ** k, which can lie an
    # ulp or two off; rounding some of them carries to a power of ten.
    "powers_of_ten": [
        v
        for k in range(-300, 301)
        for p in (float(f"1e{k}"),)
        for v in (p, np.nextafter(p, 0.0), np.nextafter(p, math.inf), -p, 10.0**k)
    ],
    "extremes": [
        5e-324, -5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308,
        0.0, -0.0, 1.7976931348623157e308, -1.7976931348623157e308, 1e-270, 1e270,
        np.nextafter(1e-270, 0.0), np.nextafter(1e270, math.inf),
    ],  # fmt: skip
    "notation_switches": [
        1e-5, 9.9999999999999991e-06, 0.0001, np.nextafter(0.0001, 0.0),
        0.000099999999999999995, 0.00012345678901234567, 1.2345678901234567e-05,
        1e16, 9999999999999998.0, 9999999999999999.0, 12345678901234568.0,
        99999999999999984.0, 1e17, 123456789012345680.0, 1.0, 10.0, 0.1, 0.5,
    ],  # fmt: skip
}


@pytest.mark.parametrize("case", FIXED_CASES)
def test_fixed_cases_match_the_per_element_reference(case):
    values = np.array(FIXED_CASES[case], dtype=float)
    padded = np.resize(values, max(BLOCK + 1, values.size))
    assert format_floats(padded[:, None], ",", ",") == ref_array(padded, ",")
    assert dumps_canonical(padded) == ref_dumps_canonical(padded)
    table = np.resize(values, (max(BLOCK, values.size) // 4 + 1, 4))
    assert format_floats(table, ",", "\n") == ref_array(table, ",", "\n")
    assert dumps_canonical(table) == ref_dumps_canonical(table)


def _zero_heavy(seed: int, n: int) -> np.ndarray:
    """``n`` values, about two thirds of them ``0.0`` or ``-0.0``, as in a
    mesh's vertex flags or the boundary rows of a basis matrix."""
    rng = np.random.default_rng(seed)
    values = _bulk(rng, n)
    pick = rng.integers(0, 3, size=n)
    values[pick == 0] = 0.0
    values[pick == 1] = -0.0
    return values


@pytest.mark.parametrize(
    "values",
    [
        _zero_heavy(1, 3 * 2258),
        np.zeros(BLOCK),
        -np.zeros(BLOCK + 7),
        np.resize([0.0, -0.0, 1.0, -1.0, 0.5, -0.0, 1e-300], 4 * BLOCK),
    ],
    ids=["zero_heavy", "zeros", "negative_zeros", "signed_mix"],
)
def test_zeros_match_the_per_element_reference(values):
    for sep in (",", " "):
        assert format_floats(values[:, None], sep, sep) == ref_array(values, sep)
    for cols in (1, 3, 60):
        table = np.resize(values, (values.size // cols, cols))
        for sep, row_sep in ((",", "],["), (" ", "\n"), (",", "\n")):
            assert format_floats(table, sep, row_sep) == ref_array(table, sep, row_sep)
        assert format_floats(table.T, ",", "],[") == ref_array(table.T, ",", "],[")
        assert dumps_canonical({"m": table}) == ref_dumps_canonical({"m": table})


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1])
def test_lengths_around_the_block(n):
    values = _bulk(np.random.default_rng(n), n)
    parts = list(_serialize.iter_floats(values[:, None], ",", ","))
    assert len(parts) == -(-n // BLOCK)
    assert b"".join(parts).decode() == ref_array(values, ",")
    table = np.resize(values, (3, n))
    assert format_floats(table, ",", "\n") == ref_array(table, ",", "\n")
    for table in (values, values.reshape(1, n), np.resize(values, (2, n))):
        parts = list(iter_canonical({"m": table}))
        assert b"".join(parts).decode() == ref_dumps_canonical({"m": table})
        # No part holds more than one block of values.
        assert max(part.count(b",") for part in parts) == min(n, BLOCK) - 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("layout", ["1d", "c", "f"])
def test_non_finite_value_deep_in_a_large_array_raises_the_reference_message(bad, layout):
    values = _bulk(np.random.default_rng(3), 120 * 100)
    # Row-major positions 9,000 (block 3) and 11,000; the first is named.
    values[9000] = bad
    values[11000] = math.inf if math.isnan(bad) else math.nan
    table = {
        "1d": values,
        "c": values.reshape(120, 100),
        "f": np.asfortranarray(values.reshape(120, 100)),
    }[layout]
    with pytest.raises(ValueError) as ref_exc:
        ref_dumps_canonical(table)
    rows = np.atleast_2d(table)
    for call in (lambda: dumps_canonical(table), lambda: format_floats(rows, ",", "\n")):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == str(ref_exc.value)


def _basis_like_payload(n: int, nb: int) -> dict:
    """The seeded 60-mode basis payload of ``n`` vertices and ``nb`` boundary nodes."""
    rng = np.random.default_rng(2024)
    return {
        "q": np.sort(rng.random(60)),
        "b": rng.standard_normal((n, 60)).T,
        "h": rng.standard_normal((n, 60)).T,
        "w": rng.standard_normal((nb, 60)).T,
    }


def test_dumps_canonical_peak_memory_is_bounded():
    # A 60-mode basis payload at h 0.04: 280,380 floats.  The parent's one
    # ``%`` call per matrix peaked at 2.13 times the text traced; formatting
    # whole matrices in numpy would hold ~150 bytes per value, over 20 MB.
    payload = _basis_like_payload(2258, 157)
    dumps_canonical(payload)
    tracemalloc.start()
    try:
        text = dumps_canonical(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * len(text)


# A streamed write measured 0.39 MB traced at both sizes below (5.65 MB and
# 21.8 MB of text): one block's text and temporaries, whatever the file's size.
STREAM_PEAK = 1_200_000


def _traced_write_peak(path, parts) -> int:
    """The traced peak of a streamed write, after one untraced warm-up write."""
    atomic_write_text(path, parts())
    tracemalloc.start()
    try:
        atomic_write_text(path, parts())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, nb", [(2258, 157), (8872, 314)])
def test_streamed_write_peak_memory_does_not_grow_with_the_file(tmp_path, n, nb):
    payload = _basis_like_payload(n, nb)
    path = str(tmp_path / "basis.json")
    peak = _traced_write_peak(path, lambda: iter_canonical(payload))
    assert peak < STREAM_PEAK
    assert os.path.getsize(path) > 4 * STREAM_PEAK


def test_streamed_csv_peak_memory_does_not_grow_with_the_table(tmp_path):
    # The vertex counts of disk h 0.04 and of its second refinement.  Both
    # measured 0.21 MB traced, for 0.14 MB and 2.1 MB of text.
    path = str(tmp_path / "grid.csv")
    peaks = []
    for rows in (2258, 35207):
        table = np.random.default_rng(rows).standard_normal((rows, 3))
        peaks.append(_traced_write_peak(path, lambda: iter_csv("x,y,value", table)))
    assert max(peaks) < STREAM_PEAK
    assert peaks[1] < 1.25 * peaks[0]
    assert os.path.getsize(path) > STREAM_PEAK


@pytest.mark.parametrize(
    "payload",
    [MIXED_PAYLOAD, _basis_like_payload(700, 90), {"m": _zero_heavy(2, 3 * 2258).reshape(-1, 3)}],
    ids=["mixed", "basis_like", "vertex_table"],
)
def test_streamed_bytes_are_the_canonical_text(tmp_path, payload):
    path = tmp_path / "out.json"
    atomic_write_text(str(path), iter_canonical(payload))
    assert path.read_bytes() == dumps_canonical(payload).encode()
    parts = list(iter_canonical(payload))
    assert all(isinstance(p, bytes) for p in parts)
    # At most 24 characters and a 3-byte separator per value: one block.
    assert max(map(len, parts)) <= 27 * _serialize._BLOCK


def _temporary_files(directory) -> list:
    return [name for name in os.listdir(directory) if name.startswith(".tmp-")]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_stream_failing_in_its_last_row_leaves_every_target_as_it_was(tmp_path, bad):
    payload = _basis_like_payload(400, 157)
    payload["w"] = payload["w"].copy()
    payload["w"][-1, -1] = bad
    with pytest.raises(ValueError) as ref_exc:
        ref_dumps_canonical(payload)
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_bytes(b"old\n")
    calls = [
        lambda: atomic_write_text(str(new), iter_canonical(payload)),
        lambda: atomic_write_text(str(old), iter_canonical(payload)),
        lambda: atomic_write_text(str(new), iter_canonical(payload), (str(old), "fresh\n")),
        lambda: atomic_write_text(str(old), "fresh\n", (str(new), iter_canonical(payload))),
    ]
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == str(ref_exc.value)
        assert not new.exists()
        assert old.read_bytes() == b"old\n"
        assert _temporary_files(tmp_path) == []


PENTAGON = [(0.0, 0.0), (2.0, 0.0), (3.0, 2.0), (1.0, 3.0), (-1.0, 1.0)]


@pytest.fixture(scope="module")
def text_meshes():
    disks = {h: disk_mesh(1.0, h) for h in (0.2, 0.1, 0.05)}
    pentagon = build_polygon_mesh(PENTAGON, 0.2)
    return {
        **{f"disk_h{h}": mesh for h, mesh in disks.items()},
        "refined_disk_h0.2": refine(disks[0.2]),
        "refined_disk_h0.1": refine(disks[0.1]),
        "pentagon": pentagon,
        "refined_pentagon": refine(pentagon),
    }


def test_mesh_text_corpus_straddles_the_chunk_size(text_meshes):
    counts = [n for m in text_meshes.values() for n in (m.vertices.shape[0], m.triangles.shape[0])]
    assert min(counts) < meshing._TEXT_CHUNK < 2 * meshing._TEXT_CHUNK < max(counts)
    assert any(n % meshing._TEXT_CHUNK for n in counts)


@pytest.mark.parametrize(
    "name",
    ["disk_h0.2", "disk_h0.1", "disk_h0.05", "refined_disk_h0.2", "refined_disk_h0.1",
     "pentagon", "refined_pentagon"],
)  # fmt: skip
def test_mesh_text_matches_reference_across_chunks(text_meshes, name):
    mesh = text_meshes[name]
    expected = ref_write_mesh_text(mesh)
    assert write_mesh_text(mesh) == expected
    assert mesh_hash(mesh) == hashlib.sha256(expected.encode()).hexdigest()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mesh_text_refuses_a_non_finite_vertex_in_a_later_chunk(text_meshes, bad):
    # Unused or not, a non-finite node is refused by index before any text exists.
    base = text_meshes["disk_h0.05"]
    node = base.vertices.shape[0]
    assert node > meshing._TEXT_CHUNK
    with pytest.raises(ValueError) as exc:
        Mesh(np.vstack([base.vertices, [[0.25, bad]]]), base.triangles)
    assert str(exc.value) == f"mesh node {node} is not finite: (0.25, {bad})"


# -- the CLI's files ---------------------------------------------------------------------


@pytest.mark.parametrize("domain", ["disk", "pentagon"])
def test_cli_writes_the_reference_bytes(tmp_path, domain):
    if domain == "disk":
        mesh = disk_mesh(1.0, 0.1)
        flags = ["--domain", "disk", "--radius", "1", "--h", "0.1"]
        descriptor = f"disk;radius={ref_fmt_float(1.0)};h={ref_fmt_float(0.1)}"
    else:
        corners = tmp_path / "corners.txt"
        corners.write_text("".join(f"{x} {y}\n" for x, y in PENTAGON))
        mesh = build_polygon_mesh(PENTAGON, 0.2)
        flags = ["--domain", "polygon", "--vertices-file", corners, "--h", "0.2"]
        descriptor = f"polygon;h={ref_fmt_float(0.2)};vertices=" + ",".join(
            f"{ref_fmt_float(x)} {ref_fmt_float(y)}" for x, y in PENTAGON
        )
    mesh_text = ref_write_mesh_text(mesh)
    digest = hashlib.sha256(mesh_text.encode()).hexdigest()

    def written(name, *argv):
        out = tmp_path / name
        assert main([str(a) for a in (*argv, "--out", out)]) == 0, name
        return out.read_bytes()

    assert written("mesh.txt", "mesh", *flags) == mesh_text.encode()

    basis_path, mesh_path = tmp_path / "basis.json", tmp_path / "basis-mesh.txt"
    written(basis_path.name, "dbs", *flags, "--modes", "8", "--mesh-out", mesh_path)
    basis = dbs_eigensolve(mesh, 8)
    assert mesh_hash(basis.mesh) == digest
    assert basis_path.read_bytes() == ref_dumps_canonical(
        ref_basis_to_json_dict(basis, descriptor)
    ).encode()
    assert mesh_path.read_bytes() == mesh_text.encode()

    steklov = harmonic_steklov_eigensolve(mesh, 5)
    assert written("steklov.json", "steklov", *flags, "--modes", "5") == ref_dumps_canonical({
        "domain": descriptor,
        "boundary_length": mesh.boundary_length,
        "M": steklov.delta.size,
        "delta": steklov.delta.tolist(),
        "s": list(steklov.s_matrix.T),
        "mesh_hash": digest,
    }).encode()  # fmt: skip

    dirichlet = dirichlet_laplacian_eigensolve(mesh, 3)
    assert written("laplace.json", "laplace-eigs", *flags, "--modes", "3") == ref_dumps_canonical({
        "domain": descriptor,
        "M": dirichlet.lam.size,
        "lambda": dirichlet.lam.tolist(),
        "e": list(dirichlet.e_matrix.T),
        "flux": list(dirichlet.flux_matrix.T),
        "mesh_hash": digest,
    }).encode()  # fmt: skip

    loaded = basis_from_json_dict(json.loads(basis_path.read_text()), mesh)
    x = (0.5, 0.5)
    query = ["kernel", "--basis", basis_path, "--x", "0.5,0.5", "--modes", "6"]
    assert written("slice.csv", *query) == ref_kernel_slice_csv(
        *kernel_slice(PoissonSvd.from_basis(loaded), x, 6)
    ).encode()
    assert written("grid.csv", *query, "--which", "bergman") == ref_kernel_grid_csv(
        mesh.vertices, TruncatedKernel(loaded, 6).values_on_vertices(x)
    ).encode()


def test_cli_stream_failing_in_its_last_row_writes_nothing(tmp_path, monkeypatch, capsys):
    from steklovsvd import cli

    def with_nan(basis, descriptor):
        payload = basis_to_json_dict(basis, descriptor)
        payload["w"] = payload["w"].copy()
        payload["w"][-1, -1] = math.nan
        return payload

    monkeypatch.setattr(cli, "basis_to_json_dict", with_nan)
    out, mesh_out = tmp_path / "basis.json", tmp_path / "mesh.txt"
    out.write_bytes(b"old\n")
    argv = ["dbs", "--h", "0.3", "--modes", "3", "--out", out, "--mesh-out", mesh_out]
    assert main([str(a) for a in argv]) == 1
    assert capsys.readouterr().err == "error: cannot serialize non-finite value nan\n"
    assert out.read_bytes() == b"old\n"
    assert not mesh_out.exists()
    assert _temporary_files(tmp_path) == []


# -- atomic writes -------------------------------------------------------------------


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_written_files_take_the_umask_mode(tmp_path, umask):
    old = os.umask(umask)
    try:
        atomic_write_text(str(tmp_path / "a.txt"), "a\n")
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("a\n")
    finally:
        os.umask(old)
    mode = stat.S_IMODE(os.stat(tmp_path / "a.txt").st_mode)
    assert mode == 0o666 & ~umask
    assert mode == stat.S_IMODE(os.stat(tmp_path / "plain.txt").st_mode)


def test_files_written_together_appear_together_or_not_at_all(tmp_path):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    atomic_write_text(str(first), "one\n", (str(second), "two\n"))
    assert (first.read_text(), second.read_text()) == ("one\n", "two\n")
    bad = tmp_path / "absent" / "third.txt"
    with pytest.raises(FileNotFoundError) as info:
        atomic_write_text(str(first), "new\n", (str(bad), "three\n"))
    assert info.value.filename == str(bad)
    # The failed call changed nothing and left no temporary file.
    assert first.read_text() == "one\n"
    assert sorted(os.listdir(tmp_path)) == ["first.txt", "second.txt"]


# -- reading the JSON back ---------------------------------------------------------------


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("domain", ["disk", "pentagon"])
def test_basis_files_decode_to_the_same_bits_through_orjson_and_json(tmp_path, domain):
    if domain == "disk":
        flags = ["--domain", "disk", "--radius", "1", "--h", "0.1", "--modes", "12"]
    else:
        corners = tmp_path / "corners.txt"
        corners.write_text("".join(f"{x} {y}\n" for x, y in PENTAGON))
        flags = ["--domain", "polygon", "--vertices-file", corners, "--h", "0.2", "--modes", "8"]
    path = tmp_path / "basis.json"
    assert main(["dbs", *(str(a) for a in flags), "--out", str(path)]) == 0
    raw = path.read_bytes()
    fast, slow = orjson.loads(raw), json.loads(raw.decode())
    for key in ("q", "b", "h", "w"):
        assert np.array_equal(_bits(fast[key]), _bits(slow[key])), key
    assert fast == slow


@pytest.mark.parametrize("domain", ["disk", "pentagon"])
def test_old_basis_files_give_the_same_outputs(tmp_path, domain):
    # A basis written in the earlier %.17g format, its -0.0 entries as '-0'
    # (read back as +0.0), answers every query with the same bytes.
    if domain == "disk":
        flags = ["--domain", "disk", "--radius", "1", "--h", "0.1"]
    else:
        corners = tmp_path / "corners.txt"
        corners.write_text("".join(f"{x} {y}\n" for x, y in PENTAGON))
        flags = ["--domain", "polygon", "--vertices-file", corners, "--h", "0.2"]
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    assert main([str(a) for a in ("dbs", *flags, "--modes", "12", "--out", new)]) == 0
    old.write_text(ref_dumps_canonical_17g(json.loads(new.read_text())))
    assert ",-0," in old.read_text() and ",-0.0," in new.read_text()
    queries = [
        ["kernel", "--x", "0.5,0.5"],
        ["kernel", "--x", "0.5,0.5", "--which", "bergman"],
        ["extend", "--g-const", "1.0", "--modes", "5"],
        ["project", "--f-const", "2.0"],
    ]
    for query in queries:
        outputs = []
        for basis in (new, old):
            out = tmp_path / "out"
            assert main([str(a) for a in (*query, "--basis", basis, "--out", out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], query


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("floats") / "v.json"


@settings(max_examples=300, deadline=None)
@given(st.lists(finite_floats, max_size=40))
@example(EDGE_FLOATS)
@example([-0.0] * 3)
def test_formatted_floats_read_back_bit_for_bit(json_path, values):
    # Every finite float64, -0.0 and the subnormals included, as a scalar,
    # in a list and in 1-D and 2-D arrays.
    arr = np.array(values, dtype=float)
    payload = {
        "scalars": [np.float64(v) for v in values],
        "list": values,
        "vec": arr,
        "rows": arr.reshape(1, -1),
        "cols": arr.reshape(-1, 1),
    }
    json_path.write_bytes(b"".join(iter_canonical(payload)))
    for read in (_read_json_object(json_path, "basis"), json.loads(json_path.read_text())):
        assert np.array_equal(_bits(read["scalars"]), _bits(values))
        assert np.array_equal(_bits(read["list"]), _bits(values))
        assert np.array_equal(_bits(read["vec"]), _bits(values))
        assert np.array_equal(_bits(read["rows"]).reshape(-1), _bits(values))
        assert np.array_equal(_bits(read["cols"]).reshape(-1), _bits(values))


@settings(max_examples=300, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=40))
@example(EDGE_FLOATS)
@example([1e16, 1e-5, 1e22, 1e-7, 123456789012345680.0, 0.0001])
def test_json_floats_are_shortest_round_trip_decimals(values):
    # The same decimal as Python's repr, the shortest that reads back; only
    # the layout may differ ('1e16' and '0.00001' against '1e+16' and '1e-05').
    texts = dumps_canonical(np.array(values)).strip()[1:-1].split(",")
    assert texts == dumps_canonical(values).strip()[1:-1].split(",")
    for v, text in zip(values, texts):
        assert Decimal(text) == Decimal(repr(v))
        assert float(text) == v and math.copysign(1.0, float(text)) == math.copysign(1.0, v)
