"""The two solve primitives of ``fem.AssembledOperators``.

Every Dirichlet solve and every flux in the package goes through
``AssembledOperators.dirichlet_solve`` and ``boundary_flux``.  The
reference functions below are the code the package ran before that, copied
unchanged; the primitives must reproduce them bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklovsvd import build_polygon_mesh, disk_mesh, read_mesh_text, write_mesh_text
from steklovsvd.fem import (
    BoundaryField,
    InteriorField,
    dtn_apply,
    green_identity_residual,
    harmonic_extension,
    normal_flux,
    operators,
    solve_dirichlet_poisson,
    t_apply,
)
from steklovsvd.spectra import (
    _boundary_spectrum,
    _canonicalize_clusters,
    _fix_signs,
    dbs_eigensolve,
    dirichlet_laplacian_eigensolve,
)
from test_meshing import convex_polygons

# -- reference implementations -------------------------------------------------------


def ref_field_values(mesh, field, boundary: bool) -> np.ndarray:
    if field is None:
        size = mesh.boundary_nodes.shape[0] if boundary else mesh.vertices.shape[0]
        return np.zeros(size)
    if boundary and isinstance(field, BoundaryField):
        return field.values
    if not boundary and isinstance(field, InteriorField):
        return field.values
    kind = "BoundaryField" if boundary else "InteriorField"
    raise TypeError(f"expected {kind} or None, got {type(field).__name__}")


def ref_solve_dirichlet_poisson(mesh, f, g) -> InteriorField:
    ops = operators(mesh)
    fv = ref_field_values(mesh, f, boundary=False)
    gv = ref_field_values(mesh, g, boundary=True)
    rhs = -(ops.mass @ fv)[ops.interior_idx] - ops.stiffness_ib @ gv
    u = np.zeros(mesh.vertices.shape[0])
    u[ops.interior_idx] = ops.interior_lu.solve(rhs)
    u[ops.boundary_idx] = gv
    return InteriorField(mesh, u)


def ref_harmonic_extension(mesh, g) -> InteriorField:
    return ref_solve_dirichlet_poisson(mesh, None, g)


def ref_normal_flux(mesh, u, f) -> BoundaryField:
    ops = operators(mesh)
    fv = ref_field_values(mesh, f, boundary=False)
    residual = ops.stiffness @ u.values + ops.mass @ fv
    return BoundaryField(mesh, residual[ops.boundary_idx] / ops.boundary_weights)


def ref_dtn_apply(mesh, g) -> BoundaryField:
    return ref_normal_flux(mesh, ref_harmonic_extension(mesh, g), None)


def ref_t_apply(mesh, g) -> BoundaryField:
    h = ref_harmonic_extension(mesh, g)
    b = ref_solve_dirichlet_poisson(mesh, h, None)
    return ref_normal_flux(mesh, b, h)


def ref_extend_boundary_columns(ops, g_columns):
    g = np.atleast_2d(np.asarray(g_columns, dtype=float).T).T
    interior = ops.interior_lu.solve(-(ops.stiffness_ib @ g))
    full = np.empty((ops.n_vertices, g.shape[1]))
    full[ops.boundary_idx] = g
    full[ops.interior_idx] = interior
    return full


def ref_dbs_eigensolve(mesh, n_modes, method):
    """``dbs_eigensolve`` with its post-``eigh`` block and matvec as they were."""
    ops = operators(mesh)
    beta, g_cols = _boundary_spectrum(mesh, n_modes, method, "dbs", ref_t_apply)
    q = 1.0 / beta

    h_mat = ref_extend_boundary_columns(ops, g_cols)
    mh = ops.mass @ h_mat
    scale = np.sqrt(np.einsum("ij,ij->j", h_mat, mh))
    h_mat /= scale
    mh /= scale
    g_cols = g_cols / scale
    b_mat = np.zeros_like(h_mat)
    b_mat[ops.interior_idx] = ops.interior_lu.solve(-mh[ops.interior_idx])
    residual = ops.stiffness @ b_mat + mh
    flux = residual[ops.boundary_idx] / ops.boundary_weights[:, None]
    w_mat = np.sqrt(q * mesh.boundary_length)[None, :] * flux

    _canonicalize_clusters(q, [g_cols, h_mat, b_mat, flux, w_mat], g_cols)
    _fix_signs([g_cols, h_mat, b_mat, flux, w_mat], h_mat)
    return q, b_mat, h_mat, w_mat


def ref_dirichlet_fluxes(mesh, vals, e_mat) -> np.ndarray:
    ops = operators(mesh)
    residual = ops.stiffness @ e_mat + ops.mass @ (e_mat * -vals)
    return residual[ops.boundary_idx] / ops.boundary_weights[:, None]


# -- equivalence ---------------------------------------------------------------------

PENTAGON = [(0, 0), (2, 0), (3, 2), (1, 3), (-1, 1)]
MESHES = {
    "disk": lambda: disk_mesh(1.0, 0.1),
    "polygon": lambda: build_polygon_mesh(PENTAGON, 0.3),
    "read_back": lambda: read_mesh_text(
        write_mesh_text(build_polygon_mesh([(0, 0), (2, 0), (1.5, 1.7), (0.2, 1.1)], 0.15))
    ),
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


def data(mesh, seed=5):
    rng = np.random.default_rng(seed)
    f = InteriorField(mesh, rng.standard_normal(mesh.vertices.shape[0]))
    g = BoundaryField(mesh, rng.standard_normal(mesh.boundary_nodes.size))
    return f, g


class TestPrimitivesMatchTheFormerSolves:
    @pytest.mark.parametrize("with_f", [True, False])
    @pytest.mark.parametrize("with_g", [True, False])
    def test_dirichlet_solve_and_flux(self, mesh, with_f, with_g):
        f, g = data(mesh)
        f, g = (f if with_f else None), (g if with_g else None)
        u = solve_dirichlet_poisson(mesh, f, g)
        assert np.array_equal(u.values, ref_solve_dirichlet_poisson(mesh, f, g).values)
        flux = normal_flux(mesh, u, f)
        assert np.array_equal(flux.values, ref_normal_flux(mesh, u, f).values)

    def test_matvecs(self, mesh):
        _, g = data(mesh)
        assert np.array_equal(t_apply(mesh, g).values, ref_t_apply(mesh, g).values)
        assert np.array_equal(dtn_apply(mesh, g).values, ref_dtn_apply(mesh, g).values)
        ext = harmonic_extension(mesh, g)
        assert np.array_equal(ext.values, ref_harmonic_extension(mesh, g).values)

    def test_column_blocks(self, mesh):
        ops = operators(mesh)
        rng = np.random.default_rng(11)
        g = rng.standard_normal((mesh.boundary_nodes.size, 4))
        assert np.array_equal(ops.extend_boundary_columns(g), ref_extend_boundary_columns(ops, g))
        mf = ops.mass @ rng.standard_normal((ops.n_vertices, 4))
        u = ops.dirichlet_solve(mf, g)
        ref_u = ref_extend_boundary_columns(ops, g)
        ref_u[ops.interior_idx] = ops.interior_lu.solve(
            -mf[ops.interior_idx] - ops.stiffness_ib @ g
        )
        assert np.array_equal(u, ref_u)
        residual = ops.stiffness @ u + mf
        ref_flux = residual[ops.boundary_idx] / ops.boundary_weights[:, None]
        assert np.array_equal(ops.boundary_flux(u, mf), ref_flux)

    @pytest.mark.parametrize("method", ["dense", "lanczos"])
    def test_dbs_eigensolve(self, mesh, method):
        basis = dbs_eigensolve(mesh, 6, method=method)
        q, b_mat, h_mat, w_mat = ref_dbs_eigensolve(mesh, 6, method)
        assert np.array_equal(basis.q, q)
        assert np.array_equal(basis.b_matrix, b_mat)
        assert np.array_equal(basis.h_matrix, h_mat)
        assert np.array_equal(basis.w_matrix, w_mat)

    def test_dtn_spectrum(self, mesh):
        new = _boundary_spectrum(mesh, 5, "lanczos", "dtn", dtn_apply)
        ref = _boundary_spectrum(mesh, 5, "lanczos", "dtn", ref_dtn_apply)
        for a, b in zip(new, ref):
            assert np.array_equal(a, b)

    def test_dirichlet_fluxes(self, mesh):
        dirichlet = dirichlet_laplacian_eigensolve(mesh, 4)
        ref = ref_dirichlet_fluxes(mesh, dirichlet.lam, dirichlet.e_matrix)
        assert np.array_equal(dirichlet.flux_matrix, ref)


def test_shift_invert_dirichlet_fluxes(disk_mid):
    assert disk_mid.interior_nodes.size > 600  # the shift-invert branch
    dirichlet = dirichlet_laplacian_eigensolve(disk_mid, 4)
    ref = ref_dirichlet_fluxes(disk_mid, dirichlet.lam, dirichlet.e_matrix)
    assert np.array_equal(dirichlet.flux_matrix, ref)


# -- work and argument checks --------------------------------------------------------


class CountingMatrix:
    """Delegates ``@`` to a sparse matrix and counts the products."""

    def __init__(self, matrix):
        self.matrix, self.products = matrix, 0

    def __matmul__(self, other):
        self.products += 1
        return self.matrix @ other


class TestMassProducts:
    @pytest.fixture
    def counted(self):
        mesh = disk_mesh(1.0, 0.2)
        ops = operators(mesh)
        ops.mass = CountingMatrix(ops.mass)
        return mesh, ops.mass

    def test_harmonic_extension_makes_none(self, counted):
        mesh, mass = counted
        harmonic_extension(mesh, BoundaryField.constant(mesh, 1.0))
        dtn_apply(mesh, BoundaryField.constant(mesh, 1.0))
        assert mass.products == 0

    def test_t_apply_makes_one(self, counted):
        mesh, mass = counted
        t_apply(mesh, BoundaryField.constant(mesh, 1.0))
        assert mass.products == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda m: solve_dirichlet_poisson(m, BoundaryField.zero(m), None),
        lambda m: solve_dirichlet_poisson(m, None, InteriorField.zero(m)),
        lambda m: normal_flux(m, InteriorField.zero(m), np.zeros(m.vertices.shape[0])),
        lambda m: green_identity_residual(
            m, InteriorField.zero(m), InteriorField.zero(m), None, BoundaryField.zero(m)
        ),
    ],
    ids=["f_boundary", "g_interior", "f_array", "green_fv_boundary"],
)
def test_wrong_field_type_raises(disk_coarse, call):
    with pytest.raises(TypeError, match="^expected (Interior|Boundary)Field or None, got "):
        call(disk_coarse)


# -- properties on random convex polygons --------------------------------------------


@settings(max_examples=20)
@given(convex_polygons(), st.integers(0, 2**16))
def test_green_identity_at_rounding_level(corners, seed):
    mesh = build_polygon_mesh(corners, 0.3)
    (fu, g), (fv, _) = data(mesh, seed), data(mesh, seed + 1)
    u = solve_dirichlet_poisson(mesh, fu, g)
    v = solve_dirichlet_poisson(mesh, fv, None)
    scale = max(u.norm_l2() * fv.norm_l2(), v.norm_l2() * fu.norm_l2(), 1.0)
    assert green_identity_residual(mesh, u, v, fu, fv) < 1e-11 * scale


@settings(max_examples=20)
@given(convex_polygons(), st.integers(0, 2**16))
def test_t_apply_symmetric_and_positive(corners, seed):
    mesh = build_polygon_mesh(corners, 0.3)
    (_, g1), (_, g2) = data(mesh, seed), data(mesh, seed + 1)
    t1, t2 = t_apply(mesh, g1), t_apply(mesh, g2)
    scale = g1.norm_dsigma() * g2.norm_dsigma()
    assert abs(t1.inner_dsigma(g2) - g1.inner_dsigma(t2)) < 1e-12 * scale
    # <T g, g> is the squared L2 norm of the harmonic extension of g.
    energy = t1.inner_dsigma(g1)
    assert energy > 0
    assert energy == pytest.approx(harmonic_extension(mesh, g1).norm_l2() ** 2, rel=1e-10)
