"""LU column blocks: a fixed partition, solved one block at a time on the caller's thread."""

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
    refine,
)
from steklovsvd.fem import operators

PENTAGON = [(0, 0), (2, 0), (3, 2), (1, 3), (-1, 1)]
MESHES = {
    "disk": lambda: disk_mesh(1.0, 0.05),
    "pentagon": lambda: build_polygon_mesh(PENTAGON, 0.1),
}


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


def test_gram_form_holds_the_extension_and_thin_blocks():
    # Beside E and the two forms: the block in flight (a _FORM_BLOCK-column
    # block of E and its mass product, or a solve block's right-hand side
    # and solution).  Here the excess reads 0.41 MB; the n x 64 mass-product
    # buffer of the old build added 0.60 MB to it.
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
    blocks = 8 * n * 2 * fem._FORM_BLOCK
    assert peak <= held + blocks + 64 * 1024


def test_schur_form_alone_holds_one_block_of_the_extension():
    # Beside the Schur form: the one block of E in flight, with its solve
    # block's right-hand side and solution, and no n x nb extension.  Here
    # the block reads 0.38 MB, and the whole E would add 1.48 MB.
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
    block = 8 * n * 2 * fem._FORM_BLOCK
    assert peak <= 8 * nb * nb + block + 64 * 1024


def test_a_dense_dtn_solve_on_a_fresh_mesh_holds_less_than_the_extension():
    # The whole solve, from assembly and factorization to the eigenvectors'
    # extension, traced: 11.4 MB here against 22.3 MB for E (26.3 MB when
    # the Schur form was built from the whole extension).
    mesh = refine(disk_mesh(1.0, 0.04))
    n, nb = mesh.vertices.shape[0], mesh.boundary_nodes.size
    tracemalloc.start()
    try:
        harmonic_steklov_eigensolve(mesh, 30)  # "auto" takes the dense path here
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert operators(mesh).has_boundary_form("schur")
    assert peak < 8 * n * nb


def test_every_block_of_an_extension_is_solved_on_the_callers_thread(monkeypatch):
    solves = []
    splu = fem.splu

    class RecordingLU:
        def __init__(self, factor):
            self.factor, self.nnz = factor, factor.nnz

        def solve(self, b):
            solves.append((threading.current_thread(), b.shape[1]))
            return self.factor.solve(b)

    monkeypatch.setattr(fem, "splu", lambda *args, **kwargs: RecordingLU(splu(*args, **kwargs)))
    mesh = disk_mesh(1.0, 0.1)
    g = np.random.default_rng(1).standard_normal((mesh.boundary_nodes.size, 100))
    operators(mesh).extend_boundary_columns(g)
    assert [width for _, width in solves] == [16] * 6 + [4]
    assert {thread for thread, _ in solves} == {threading.current_thread()}
