"""LU column blocks: a fixed partition, so results never depend on the worker count."""

import logging
import threading

import numpy as np
import pytest

from steklovsvd import (
    build_polygon_mesh,
    dbs_eigensolve,
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
    for method in ("dense", "lanczos"):
        basis = dbs_eigensolve(make_mesh(), 40, method=method)
        for name in ("q", "b_matrix", "h_matrix", "w_matrix"):
            out[f"dbs {method} {name}"] = getattr(basis, name)
    steklov = harmonic_steklov_eigensolve(make_mesh(), 30)
    out["dtn delta"] = steklov.delta
    out["dtn s"] = steklov.s_matrix
    out["verify"] = np.array([r.measured for r in run_suites(make_mesh(), ("all",))])
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
        # Extending _FORM_BLOCK columns per call solves the blocks of one call.
        regrouped = [
            slice(group.start + b.start, group.start + b.stop)
            for group in fem._column_blocks(width, fem._FORM_BLOCK)
            for b in fem._column_blocks(group.stop - group.start, fem._SOLVE_BLOCK)
        ]
        assert regrouped == blocks, width


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
