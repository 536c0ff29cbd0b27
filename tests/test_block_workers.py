"""LU column blocks: a fixed partition, so results never depend on the worker count."""

import logging
import threading
import tracemalloc

import numpy as np
import pytest

from steklovsvd import (
    build_polygon_mesh,
    dbs_eigensolve,
    dirichlet_laplacian_eigensolve,
    disk_mesh,
    fem,
    harmonic_steklov_eigensolve,
)
from steklovsvd.fem import operators
from steklovsvd.verify import run_suites

PENTAGON = [(0, 0), (2, 0), (3, 2), (1, 3), (-1, 1)]
MESHES = {
    "disk": lambda: disk_mesh(1.0, 0.05),
    "pentagon": lambda: build_polygon_mesh(PENTAGON, 0.1),
}
WIDTHS = (2, 32, 33, 60, 64, 65, 100)


def blocked_outputs(make_mesh) -> dict:
    """Every result that goes through blocked solves, each on a fresh mesh."""
    mesh = make_mesh()
    ops = operators(mesh)
    rng = np.random.default_rng(7)
    out = {}
    for width in WIDTHS:
        g = rng.standard_normal((mesh.boundary_nodes.size, width))
        mf = ops.mass @ rng.standard_normal((ops.n_vertices, width))
        out[f"extend {width}"] = ops.extend_boundary_columns(g)
        out[f"solve {width}"] = ops.dirichlet_solve(mf, g)
        out[f"source {width}"] = ops.dirichlet_solve(mf)
    out["gram"] = ops.boundary_form("gram")
    out["schur"] = ops.boundary_form("schur")
    out["schur alone"] = operators(make_mesh()).boundary_form("schur")
    out.update(eigensolver_outputs(make_mesh))
    out["verify"] = np.array([r.measured for r in run_suites(make_mesh(), ("all",))])
    return out


def eigensolver_outputs(make_mesh) -> dict:
    """The arrays of every eigensolver, each on a fresh mesh."""
    out = {}
    for method in ("dense", "lanczos"):
        basis = dbs_eigensolve(make_mesh(), 40, method=method)
        for name in ("q", "b_matrix", "h_matrix", "w_matrix"):
            out[f"dbs {method} {name}"] = getattr(basis, name)
        steklov = harmonic_steklov_eigensolve(make_mesh(), 30, method=method)
        out[f"dtn {method} delta"], out[f"dtn {method} s"] = steklov.delta, steklov.s_matrix
    dirichlet = dirichlet_laplacian_eigensolve(make_mesh(), 5)
    out["dirichlet lam"], out["dirichlet e"] = dirichlet.lam, dirichlet.e_matrix
    out["dirichlet flux"] = dirichlet.flux_matrix
    return out


def spy_on_blocks(monkeypatch) -> tuple[list, set]:
    """Record the width of every column block and the threads that ran them."""
    widths, threads = [], set()
    map_blocks = fem._map_blocks

    def spying(fn, blocks):
        widths.extend(b.stop - b.start for b in blocks if isinstance(b, slice))

        def recorded(block):
            threads.add(threading.current_thread().name)
            fn(block)

        map_blocks(recorded, blocks)

    monkeypatch.setattr(fem, "_map_blocks", spying)
    return widths, threads


@pytest.mark.parametrize("name", sorted(MESHES))
def test_one_and_two_workers_give_the_same_bits(monkeypatch, name):
    results = {}
    for workers in (1, 2):
        with monkeypatch.context() as m:
            m.setattr(fem, "_WORKERS", workers)
            widths, threads = spy_on_blocks(m)
            results[workers] = blocked_outputs(MESHES[name])
        assert min(widths) >= 2  # no block of one column
        pool_threads = {t for t in threads if t.startswith("steklovsvd-lu")}
        assert bool(pool_threads) == (workers == 2)
    assert results[1].keys() == results[2].keys()
    for key, serial in results[1].items():
        assert np.array_equal(results[2][key], serial), key


def test_partition_is_fixed_and_has_no_one_column_block():
    for width in range(1, 300):
        blocks = fem._column_blocks(width, fem._SOLVE_BLOCK)
        assert blocks[0].start == 0 and blocks[-1].stop == width
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all(b.start % fem._SOLVE_BLOCK == 0 for b in blocks)
        widths = [b.stop - b.start for b in blocks]
        assert max(widths) <= fem._SOLVE_BLOCK + 1
        assert width == 1 or min(widths) >= 2, width


@pytest.mark.parametrize("name", sorted(MESHES))
def test_solve_block_width_does_not_change_eigensolver_arrays(monkeypatch, name):
    results = {}
    for width in (16, 32, 64, 128):
        monkeypatch.setattr(fem, "_SOLVE_BLOCK", width)
        results[width] = eigensolver_outputs(MESHES[name])
    reference = results.pop(16)
    for width, out in results.items():
        assert out.keys() == reference.keys()
        for key, expected in reference.items():
            assert out[key].tobytes() == expected.tobytes(), (width, key)


@pytest.mark.parametrize("workers", [1, None], ids=["one_worker", "default_pool"])
def test_gram_form_holds_the_extension_and_thin_blocks(monkeypatch, workers):
    # Beside E and the two forms: one n x _FORM_BLOCK mass-product buffer
    # and the blocks in flight (a _SOLVE_BLOCK-column mass product and its
    # copy of E's columns, or a solve block's right-hand side and
    # solution).  Multiplying a whole 64-column slice of E read 1.38 MB
    # here, and the bound is 1.19 MB.
    if workers is not None:
        monkeypatch.setattr(fem, "_WORKERS", workers)
    mesh = disk_mesh(1.0, 0.05)
    ops = operators(mesh)
    n, nb = ops.n_vertices, ops.boundary_idx.size
    ops.extend_boundary_columns(np.ones((nb, 2)))  # the LU and the permuted K_IB, built once
    tracemalloc.start()
    try:
        ops.boundary_form("gram")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = 8 * n * nb + 2 * 8 * nb * nb  # E, the Gram form and the Schur form
    blocks = 8 * n * (fem._FORM_BLOCK + 2 * fem._SOLVE_BLOCK)
    assert peak <= held + blocks + 64 * 1024


@pytest.mark.parametrize("workers", [1, None], ids=["one_worker", "default_pool"])
def test_schur_form_alone_holds_the_extension_and_the_solve_blocks(monkeypatch, workers):
    # Beside E and the Schur form: the solve blocks in flight, one per
    # worker, each a right-hand side and its solution.  Here E is 1.49 MB
    # and the blocks read 0.22 MB with one worker and 0.60 MB with two.
    if workers is not None:
        monkeypatch.setattr(fem, "_WORKERS", workers)
    ops = operators(disk_mesh(1.0, 0.05))
    n, nb = ops.n_vertices, ops.boundary_idx.size
    ops.extend_boundary_columns(np.ones((nb, 2)))  # the LU and the permuted K_IB, built once
    tracemalloc.start()
    try:
        ops.boundary_form("schur")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not ops.has_boundary_form("gram")
    held = 8 * n * nb + 8 * nb * nb  # E and the Schur form
    blocks = 8 * n * 2 * fem._WORKERS * fem._SOLVE_BLOCK
    assert peak <= held + blocks + 64 * 1024


def test_a_pool_thread_runs_nested_blocks_inline(monkeypatch):
    monkeypatch.setattr(fem, "_WORKERS", 2)
    mesh = disk_mesh(1.0, 0.1)
    ops = operators(mesh)
    g = np.random.default_rng(1).standard_normal((mesh.boundary_nodes.size, 70))
    expected = ops.extend_boundary_columns(g)
    out = {}

    def nested(block):
        out[block] = ops.extend_boundary_columns(g)

    # Each block waits on a solve of three blocks; on the pool, that would
    # wait on the pool itself.
    runner = threading.Thread(target=fem._map_blocks, args=(nested, [0, 1]), daemon=True)
    runner.start()
    runner.join(60)
    assert not runner.is_alive(), "a nested block solve waited on its own pool"
    assert len(out) == 2 and all(np.array_equal(u, expected) for u in out.values())


def test_pool_size_is_logged_once(monkeypatch, caplog):
    monkeypatch.setattr(fem, "_WORKERS", 2)
    monkeypatch.setattr(fem, "_pool", None)
    mesh = disk_mesh(1.0, 0.1)
    g = np.ones((mesh.boundary_nodes.size, 64))
    try:
        with caplog.at_level(logging.DEBUG, logger="steklovsvd"):
            operators(mesh).extend_boundary_columns(g)
            operators(mesh).extend_boundary_columns(g)
    finally:
        if fem._pool is not None:
            fem._pool.shutdown()
    assert [r.getMessage() for r in caplog.records if "pool" in r.getMessage()] == [
        "LU column blocks run on a pool of 2 threads"
    ]
