"""The one ARPACK call and the array-wise canonicalization against the loops they replaced.

``spectra._eigsh`` is the only ARPACK call; ``_canonicalize_clusters``
splits clusters on one ``np.diff`` mask and ``_fix_signs`` flips every
column at once.  The reference functions below are the code the package
ran before that, copied unchanged; the solvers must reproduce them bit for
bit on the dense, Lanczos and shift-invert branches and through a detected
eigenvalue cluster.
"""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from steklovsvd import build_polygon_mesh, disk_mesh, read_mesh_text, refine, write_mesh_text
from steklovsvd.errors import IterationLimitError
from steklovsvd.fem import BoundaryField, dtn_apply, operators, t_apply
from steklovsvd.spectra import (
    _CLUSTER_GAP,
    _EIG_TOL,
    _PROBLEMS,
    _canonicalize_clusters,
    _eigsh,
    _fix_signs,
    dbs_eigensolve,
    dirichlet_laplacian_eigensolve,
    harmonic_steklov_eigensolve,
)

# -- reference implementations -------------------------------------------------------


def ref_start_vector(n: int) -> np.ndarray:
    return np.random.default_rng(20160419).standard_normal(n)


def ref_canonicalize_clusters(values: np.ndarray, columns: list[np.ndarray], reference: np.ndarray):
    n = values.size
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and abs(values[stop] - values[stop - 1]) <= _CLUSTER_GAP * max(
            abs(values[stop]), 1e-300
        ):
            stop += 1
        d = stop - start
        if d > 1:
            block = reference[:, start:stop]
            scale = float(np.max(np.abs(block))) or 1.0
            basis: list[np.ndarray] = []
            for row in block:
                v = row.copy()
                for u in basis:
                    v -= (u @ v) * u
                norm = np.linalg.norm(v)
                if norm > 1e-8 * scale:
                    basis.append(v / norm)
                if len(basis) == d:
                    break
            if len(basis) == d:
                rot = np.column_stack(basis)
                for mat in columns:
                    mat[:, start:stop] = mat[:, start:stop] @ rot
        start = stop


def ref_fix_signs(columns: list[np.ndarray], reference: np.ndarray):
    for j in range(reference.shape[1]):
        col = reference[:, j]
        scale = float(np.max(np.abs(col)))
        if scale == 0.0:
            continue
        idx = np.flatnonzero(np.abs(col) > 1e-3 * scale)[0]
        if col[idx] < 0:
            for mat in columns:
                mat[:, j] = -mat[:, j]


def ref_boundary_spectrum(mesh, n_modes, method, problem, apply):
    """``_boundary_spectrum`` with an explicit method and its own ARPACK call."""
    ops = operators(mesh)
    nb = ops.boundary_idx.size
    form, which, _, _ = _PROBLEMS[problem]
    sw = np.sqrt(ops.boundary_weights)
    step = -1 if which == "LA" else 1
    if method == "dense":
        f = ops.boundary_form(form)
        vals, vecs = sla.eigh(0.5 * (f + f.T) / sw[:, None] / sw[None, :])
        order = slice(None, None, step)
    else:

        def matvec(y):
            return sw * apply(mesh, BoundaryField(mesh, y / sw)).values

        op = spla.LinearOperator((nb, nb), matvec=matvec, dtype=float)
        try:
            vals, vecs = spla.eigsh(op, k=n_modes, which=which, tol=_EIG_TOL, v0=ref_start_vector(nb))
        except spla.ArpackNoConvergence as exc:
            raise IterationLimitError(
                "Lanczos iteration did not converge; partial results refused"
            ) from exc
        order = np.argsort(vals)[::step]
    return vals[order][:n_modes], (vecs / sw[:, None])[:, order][:, :n_modes]


def ref_dbs(mesh, n_modes, method):
    ops = operators(mesh)
    beta, g_cols = ref_boundary_spectrum(mesh, n_modes, method, "dbs", t_apply)
    q = 1.0 / beta
    h_mat = ops.extend_boundary_columns(g_cols)
    mh = ops.mass @ h_mat
    scale = np.sqrt(np.einsum("ij,ij->j", h_mat, mh))
    h_mat /= scale
    mh /= scale
    g_cols = g_cols / scale
    b_mat = ops.dirichlet_solve(mh)
    flux = ops.boundary_flux(b_mat, mh)
    w_mat = np.sqrt(q * mesh.boundary_length)[None, :] * flux
    ref_canonicalize_clusters(q, [g_cols, h_mat, b_mat, flux, w_mat], g_cols)
    ref_fix_signs([g_cols, h_mat, b_mat, flux, w_mat], h_mat)
    return [q, b_mat, h_mat, w_mat]


def ref_dtn(mesh, n_modes, method):
    ops = operators(mesh)
    delta, g_cols = ref_boundary_spectrum(mesh, n_modes, method, "dtn", dtn_apply)
    delta = np.maximum(delta, 0.0)
    g_cols = g_cols * np.sqrt(mesh.boundary_length)
    ref_canonicalize_clusters(delta, [g_cols], g_cols)
    s_mat = ops.extend_boundary_columns(g_cols)
    ref_fix_signs([s_mat], s_mat)
    return [delta, s_mat]


def ref_dirichlet(mesh, n_modes):
    ops = operators(mesh)
    ni = ops.interior_idx.size
    a_ii = ops.stiffness[ops.interior_idx][:, ops.interior_idx]
    m_ii = ops.mass[ops.interior_idx][:, ops.interior_idx]
    if ni <= 200 or n_modes > ni - 2:
        vals, vecs = sla.eigh(
            a_ii.toarray(), m_ii.toarray(), subset_by_index=[0, n_modes - 1]
        )
    else:
        a_inv = spla.LinearOperator((ni, ni), matvec=ops.interior_lu.solve, dtype=float)
        try:
            vals, vecs = spla.eigsh(
                a_ii,
                k=n_modes,
                M=m_ii.tocsc(),
                sigma=0.0,
                which="LM",
                OPinv=a_inv,
                tol=_EIG_TOL,
                v0=ref_start_vector(ni),
            )
        except spla.ArpackNoConvergence as exc:
            raise IterationLimitError(
                "shift-invert Lanczos did not converge; partial results refused"
            ) from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    e_mat = np.zeros((mesh.vertices.shape[0], n_modes))
    e_mat[ops.interior_idx] = vecs
    scale = np.sqrt(np.einsum("ij,ij->j", e_mat, ops.mass @ e_mat))
    e_mat /= scale
    ref_canonicalize_clusters(vals, [e_mat], e_mat[ops.interior_idx])
    ref_fix_signs([e_mat], e_mat)
    flux = ops.boundary_flux(e_mat, ops.mass @ (e_mat * -vals))
    return [vals, e_mat, flux]


def clusters(values) -> int:
    """Number of clusters of more than one eigenvalue, by the reference scan's rule."""
    joined = [
        abs(values[i] - values[i - 1]) <= _CLUSTER_GAP * max(abs(values[i]), 1e-300)
        for i in range(1, values.size)
    ]
    return sum(j and not (i and joined[i - 1]) for i, j in enumerate(joined))


# -- equivalence ---------------------------------------------------------------------

PENTAGON = [(0, 0), (2, 0), (3, 2), (1, 3), (-1, 1)]
MESHES = {
    # 1,338 interior nodes: shift-invert; DBS and DtN clusters at 20 modes.
    "disk_h05": lambda: disk_mesh(1.0, 0.05),
    # 318 interior nodes: shift-invert.
    "disk_h1": lambda: disk_mesh(1.0, 0.1),
    # 142 interior nodes: the dense Dirichlet branch.
    "disk_h15": lambda: disk_mesh(1.0, 0.15),
    "pentagon": lambda: build_polygon_mesh(PENTAGON, 0.1),
    "read_back_refined": lambda: read_mesh_text(write_mesh_text(refine(disk_mesh(1.0, 0.1)))),
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


def assert_bitwise(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize("method", ["dense", "lanczos"])
def test_dbs_matches_reference(mesh, method):
    basis = dbs_eigensolve(mesh, 20, method)
    got = [basis.q, basis.b_matrix, basis.h_matrix, basis.w_matrix]
    assert_bitwise(got, ref_dbs(mesh, 20, method))


@pytest.mark.parametrize("method", ["dense", "lanczos"])
def test_dtn_matches_reference(mesh, method):
    pairs = harmonic_steklov_eigensolve(mesh, 20, method)
    got = [np.array([p.delta for p in pairs]), np.column_stack([p.s.values for p in pairs])]
    assert_bitwise(got, ref_dtn(mesh, 20, method))


@pytest.mark.parametrize("n_modes", [5, 20])
def test_dirichlet_matches_reference(mesh, n_modes):
    pairs = dirichlet_laplacian_eigensolve(mesh, n_modes)
    got = [
        np.array([p.lam for p in pairs]),
        np.column_stack([p.e.values for p in pairs]),
        np.column_stack([p.flux.values for p in pairs]),
    ]
    assert_bitwise(got, ref_dirichlet(mesh, n_modes))


def test_cases_cover_every_branch_and_a_cluster():
    disk, coarse = MESHES["disk_h05"](), MESHES["disk_h15"]()
    assert operators(disk).interior_idx.size > 200 >= operators(coarse).interior_idx.size
    assert clusters(dbs_eigensolve(disk, 20, "dense").q) >= 1
    delta = np.array([p.delta for p in harmonic_steklov_eigensolve(disk, 20, "dense")])
    assert clusters(delta) >= 1


@pytest.mark.parametrize("seed", range(6))
def test_canonicalization_matches_reference_on_synthetic_clusters(seed):
    # Runs of equal, near-equal (inside the gap) and separated values, a
    # column of zeros and a reference that is one of the rotated matrices.
    rng = np.random.default_rng(seed)
    values = np.sort(rng.choice([1.0, 2.0, 3.0, 5.0], size=12))
    values *= 1.0 + rng.choice([0.0, 0.3e-6, 3e-6], size=12)
    values.sort()
    mats = [rng.standard_normal((9, 12)) for _ in range(3)]
    mats[1][:, 4] = 0.0
    expected = [m.copy() for m in mats]
    ref_canonicalize_clusters(values, expected, expected[0])
    ref_fix_signs(expected, expected[1])
    _canonicalize_clusters(values, mats, mats[0])
    _fix_signs(mats, mats[1])
    assert_bitwise(mats, expected)


def test_eigsh_sorts_ascending_and_refuses_partial_results():
    op = np.diag(np.arange(1.0, 41.0)[::-1])
    vals, vecs = _eigsh(op, 4, "test iteration", which="LA")
    assert np.allclose(vals, [37.0, 38.0, 39.0, 40.0], rtol=0, atol=1e-9)
    assert np.all(np.diff(vals) > 0)
    assert np.allclose(np.abs(vecs[[3, 2, 1, 0], range(4)]), 1.0)
    with pytest.raises(IterationLimitError) as info:
        _eigsh(op, 4, "test iteration", which="SA", maxiter=1)
    assert str(info.value) == "test iteration did not converge; partial results refused"
