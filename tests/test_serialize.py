"""Byte-identity of the batched float writers against the per-float originals.

The reference functions below are the per-float writers the package used
before floats were formatted a row at a time, copied unchanged; every
writer must still produce exactly their bytes.
"""

import hashlib
import io
import json
import math
import os
import stat
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steklovsvd import _serialize, meshing
from steklovsvd._serialize import atomic_write_text, dumps_canonical, fmt_float, format_floats
from steklovsvd.bergman import TruncatedKernel, kernel_grid_csv
from steklovsvd.cli import _read_json_object, main
from steklovsvd.meshing import (
    Mesh,
    build_polygon_mesh,
    disk_mesh,
    mesh_hash,
    refine,
    write_mesh_text,
)
from steklovsvd.poisson import PoissonSvd, kernel_slice, kernel_slice_csv
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


def ref_canonical(obj):
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{ref_canonical(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(ref_canonical(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return ref_canonical(obj.tolist())
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return ref_fmt_float(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def ref_dumps_canonical(obj) -> str:
    return ref_canonical(obj) + "\n"


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
    assert format_floats(arr, " ") == " ".join(ref_fmt_float(v) for v in values)
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
        "f3f039596443a1ec7ffdd4cc03a1afcbc3edb26d038339aa4c7627553cf9c729"
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
    assert kernel_slice_csv(svd, x, 8) == ref_kernel_slice_csv(*kernel_slice(svd, x, 8))
    values = TruncatedKernel(small_basis, 8).values_on_vertices(x)
    assert kernel_grid_csv(small_basis, x, 8) == ref_kernel_grid_csv(
        small_basis.mesh.vertices, values
    )



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
    assert format_floats(table, ",", "],[") == ref_table(table, ",", "],[")
    assert format_floats(table, " ", "\n") == ref_table(table, " ", "\n")


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
        lambda: format_floats(table, ",", "\n"),
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

CUTOFF = _serialize._ARRAY_MIN


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
    rows = -(-CUTOFF // cols) + int(rng.integers(0, 3000 // cols + 1))
    values = _bulk(rng, rows * cols)
    spots = rng.choice(values.size, size=min(len(extra), values.size), replace=False)
    values[spots] = extra[: spots.size]
    if layout == "1d":
        assert format_floats(values) == ref_array(values, ",")
        assert format_floats(values, " ") == ref_array(values, " ")
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
    padded = np.resize(values, max(CUTOFF, values.size))
    assert format_floats(padded) == ref_array(padded, ",")
    table = np.resize(values, (max(CUTOFF, values.size) // 4 + 1, 4))
    assert format_floats(table, ",", "\n") == ref_array(table, ",", "\n")
    # Alone in an array, so that no other value sets off a second pass.
    for v in values:
        assert format_floats(np.full(CUTOFF, v)) == ",".join([ref_fmt_float(v)] * CUTOFF)


def test_power_table_is_exact():
    hi, lo = _serialize._POWERS[:2]
    for i, p in enumerate(range(_serialize._POW_LOW, _serialize._POW_LOW + hi.size)):
        exact = Fraction(10) ** p
        assert hi[i] == float(exact)
        assert lo[i] == float(exact - Fraction(hi[i]))


@pytest.mark.parametrize("n", [CUTOFF - 1, CUTOFF, CUTOFF + 1])
def test_lengths_around_the_cutoff(monkeypatch, n):
    calls = []
    real = _serialize._format_array
    monkeypatch.setattr(_serialize, "_format_array", lambda *a: calls.append(1) or real(*a))
    values = _bulk(np.random.default_rng(n), n)
    assert format_floats(values) == ref_array(values, ",")
    table = np.resize(values, (n, 1))
    assert format_floats(table, ",", "],[") == ref_array(table, ",", "],[")
    assert len(calls) == (2 if n >= CUTOFF else 0)


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
    for call in (lambda: dumps_canonical(table), lambda: format_floats(table, ",", "\n")):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == str(ref_exc.value)


def test_dumps_canonical_peak_memory_is_bounded():
    # A 60-mode basis payload at h 0.04: 280,380 floats.  The parent's one
    # ``%`` call per matrix peaked at 2.13 times the text traced; formatting
    # whole matrices in numpy would hold ~150 bytes per value, over 20 MB.
    rng = np.random.default_rng(2024)
    payload = {
        "q": np.sort(rng.random(60)),
        "b": rng.standard_normal((2258, 60)).T,
        "h": rng.standard_normal((2258, 60)).T,
        "w": rng.standard_normal((157, 60)).T,
    }
    dumps_canonical(payload)
    tracemalloc.start()
    try:
        text = dumps_canonical(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * len(text)


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
    # An unused vertex is not checked by the constructor; the writer names it.
    base = text_meshes["disk_h0.05"]
    mesh = Mesh(np.vstack([base.vertices, [[0.25, bad]]]), base.triangles)
    with pytest.raises(ValueError) as ref_exc:
        ref_fmt_float(bad)
    with pytest.raises(ValueError) as exc:
        write_mesh_text(mesh)
    assert str(exc.value) == str(ref_exc.value)


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

    pairs = harmonic_steklov_eigensolve(mesh, 5)
    assert written("steklov.json", "steklov", *flags, "--modes", "5") == ref_dumps_canonical({
        "domain": descriptor,
        "boundary_length": mesh.boundary_length,
        "M": len(pairs),
        "delta": [p.delta for p in pairs],
        "s": [p.s.values for p in pairs],
        "mesh_hash": digest,
    }).encode()  # fmt: skip

    pairs = dirichlet_laplacian_eigensolve(mesh, 3)
    assert written("laplace.json", "laplace-eigs", *flags, "--modes", "3") == ref_dumps_canonical({
        "domain": descriptor,
        "M": len(pairs),
        "lambda": [p.lam for p in pairs],
        "e": [p.e.values for p in pairs],
        "flux": [p.flux.values for p in pairs],
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


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("floats") / "v.json"


@settings(max_examples=300, deadline=None)
@given(st.lists(finite_floats, max_size=40))
@example(EDGE_FLOATS)
def test_formatted_floats_read_back_bit_for_bit(json_path, values):
    json_path.write_text('{"v": [' + format_floats(values) + "]}")
    read = _read_json_object(json_path, "basis")["v"]
    assert np.array_equal(_bits(read), _bits(json.loads(json_path.read_text())["v"]))
    # '%.17g' writes -0.0 as '-0', which JSON reads as the integer 0.
    assert np.array_equal(_bits(read), _bits([0.0 if v == 0 else v for v in values]))
