import gc
import importlib
import logging
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from scipy.sparse.linalg import splu

from steklovsvd import (
    Mesh,
    build_polygon_mesh,
    disk_mesh,
    fem,
    read_mesh_text,
    refine,
    transform,
    write_mesh_text,
)
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
    trace,
)
from steklovsvd.spectra import (
    dbs_eigensolve,
    dirichlet_laplacian_eigensolve,
    harmonic_steklov_eigensolve,
)


class TestFields:
    def test_interior_norm_positive_definite(self, disk_coarse):
        rng = np.random.default_rng(0)
        f = InteriorField(disk_coarse, rng.standard_normal(disk_coarse.vertices.shape[0]))
        assert f.norm_l2() > 0
        assert InteriorField.zero(disk_coarse).norm_l2() == 0.0

    def test_boundary_norm_conventions(self, disk_coarse):
        g = BoundaryField.constant(disk_coarse, 2.0)
        length = disk_coarse.boundary_length
        assert g.norm_dsigma() == pytest.approx(2.0 * math.sqrt(length), rel=1e-13)
        assert g.norm_normalized() == pytest.approx(2.0, rel=1e-13)

    def test_wrong_length_rejected(self, disk_coarse):
        with pytest.raises(ValueError):
            InteriorField(disk_coarse, np.zeros(3))
        with pytest.raises(ValueError):
            BoundaryField(disk_coarse, np.zeros(3))

    def test_operator_properties(self, disk_coarse):
        ops = operators(disk_coarse)
        a = ops.stiffness
        m = ops.mass
        assert abs(a - a.T).max() < 1e-14
        assert abs(m - m.T).max() < 1e-14
        # stiffness kernel: constants
        assert np.max(np.abs(a @ np.ones(a.shape[0]))) < 1e-12


class TestDirichletSolve:
    def test_linear_data_reproduced_exactly(self, disk_coarse):
        g = BoundaryField.from_function(disk_coarse, lambda x, y: 2 * x - 3 * y + 1)
        u = solve_dirichlet_poisson(disk_coarse, None, g)
        exact = 2 * disk_coarse.vertices[:, 0] - 3 * disk_coarse.vertices[:, 1] + 1
        assert np.max(np.abs(u.values - exact)) < 1e-10

    def test_zero_data_gives_zero(self, disk_coarse):
        u = solve_dirichlet_poisson(disk_coarse, None, None)
        assert np.max(np.abs(u.values)) == 0.0

    def test_manufactured_solution_second_order(self, disk_coarse):
        # lap(r^2 - 1) = 4 with zero trace on the unit disk.
        def max_err(mesh):
            u = solve_dirichlet_poisson(mesh, InteriorField.constant(mesh, 4.0), None)
            exact = mesh.vertices[:, 0] ** 2 + mesh.vertices[:, 1] ** 2 - 1
            return np.max(np.abs(u.values - exact))

        coarse = max_err(disk_coarse)
        fine = max_err(refine(disk_coarse))
        assert coarse < 2e-2
        assert coarse / fine > 3.0  # O(h^2) up to boundary-polygon effects


class TestHarmonicExtension:
    def test_constants_extend_exactly(self, disk_coarse):
        u = harmonic_extension(disk_coarse, BoundaryField.constant(disk_coarse, 7.25))
        assert np.max(np.abs(u.values - 7.25)) < 1e-10

    def test_cos_theta_extends_to_r_cos_theta(self, disk_mid):
        g = BoundaryField.from_function(disk_mid, lambda x, y: x / np.hypot(x, y))
        u = harmonic_extension(disk_mid, g)
        assert np.max(np.abs(u.values - disk_mid.vertices[:, 0])) < 1e-10

    def test_linearity_machine_precision(self, disk_coarse):
        rng = np.random.default_rng(3)
        nb = disk_coarse.boundary_nodes.size
        g1 = BoundaryField(disk_coarse, rng.standard_normal(nb))
        g2 = BoundaryField(disk_coarse, rng.standard_normal(nb))
        alpha = 0.731
        lhs = harmonic_extension(
            disk_coarse, BoundaryField(disk_coarse, alpha * g1.values + g2.values)
        )
        rhs = alpha * harmonic_extension(disk_coarse, g1).values + harmonic_extension(
            disk_coarse, g2
        ).values
        assert np.max(np.abs(lhs.values - rhs)) < 1e-12

    @pytest.mark.parametrize(
        "make",
        [
            lambda: disk_mesh(1.0, 0.1),
            lambda: refine(disk_mesh(1.0, 0.2)),
            lambda: transform(disk_mesh(1.0, 0.2), rotation=0.4, offset=(1.0, -2.0)),
            lambda: build_polygon_mesh([(0, 0), (2, 0), (3, 2), (1, 3), (-1, 1)], 0.3),
        ],
    )
    def test_nodes_partition_the_vertices(self, make):
        # extend_boundary_columns fills an uninitialized array by these rows.
        ops = operators(make())
        rows = np.sort(np.concatenate([ops.boundary_idx, ops.interior_idx]))
        assert np.array_equal(rows, np.arange(ops.n_vertices))

    def test_columns_match_single_solves(self, disk_coarse):
        ops = operators(disk_coarse)
        g = np.random.default_rng(3).standard_normal((disk_coarse.boundary_nodes.size, 3))
        ext = ops.extend_boundary_columns(g)
        for j in range(3):
            single = harmonic_extension(disk_coarse, BoundaryField(disk_coarse, g[:, j]))
            assert np.max(np.abs(ext[:, j] - single.values)) < 1e-12


class TestNormalFlux:
    def test_radial_manufactured_flux(self, disk_mid):
        f = InteriorField.constant(disk_mid, 4.0)
        u = solve_dirichlet_poisson(disk_mid, f, None)
        d = normal_flux(disk_mid, u, f)
        # D_nu(r^2 - 1) = 2 on the unit circle
        assert np.max(np.abs(d.values - 2.0)) < 0.03
        fine = refine(disk_mid)
        f2 = InteriorField.constant(fine, 4.0)
        d2 = normal_flux(fine, solve_dirichlet_poisson(fine, f2, None), f2)
        assert np.max(np.abs(d2.values - 2.0)) < np.max(np.abs(d.values - 2.0))

    def test_linear_field_flux_is_normal_average(self, disk_coarse):
        mesh = disk_coarse
        u = InteriorField(mesh, mesh.vertices[:, 0].copy())
        d = normal_flux(mesh, u, None)
        expected = np.zeros(mesh.vertices.shape[0])
        np.add.at(expected, mesh.boundary_edges[:, 0], 0.5 * mesh.edge_weights * mesh.normals[:, 0])
        np.add.at(expected, mesh.boundary_edges[:, 1], 0.5 * mesh.edge_weights * mesh.normals[:, 0])
        expected = expected[mesh.boundary_nodes] / mesh.boundary_weights
        assert np.max(np.abs(d.values - expected)) < 1e-12

    def test_constant_field_has_zero_flux(self, disk_coarse):
        d = normal_flux(disk_coarse, InteriorField.constant(disk_coarse, 5.0), None)
        assert np.max(np.abs(d.values)) < 1e-12


class TestDtn:
    def test_constant_maps_to_zero(self, disk_coarse):
        d = dtn_apply(disk_coarse, BoundaryField.constant(disk_coarse, 1.0))
        assert np.max(np.abs(d.values)) < 1e-11

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_disk_modes(self, disk_mid, k):
        # Dirichlet-to-Neumann of cos(k theta) is k cos(k theta) on the unit circle.
        g = BoundaryField.from_function(disk_mid, lambda x, y: np.cos(k * np.arctan2(y, x)))
        d = dtn_apply(disk_mid, g)
        rel = d.values - k * g.values
        assert np.linalg.norm(rel) / np.linalg.norm(k * g.values) < 5e-3

    def test_symmetry(self, disk_coarse):
        rng = np.random.default_rng(5)
        nb = disk_coarse.boundary_nodes.size
        g1 = BoundaryField(disk_coarse, rng.standard_normal(nb))
        g2 = BoundaryField(disk_coarse, rng.standard_normal(nb))
        lhs = dtn_apply(disk_coarse, g1).inner_dsigma(g2)
        rhs = g1.inner_dsigma(dtn_apply(disk_coarse, g2))
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(abs(lhs), 1.0))


class TestTApply:
    def test_constant_gives_half_on_unit_disk(self, disk_mid):
        # b = (r^2 - 1) / 4 solves lap b = 1 with zero trace; D_nu b = 1/2.
        out = t_apply(disk_mid, BoundaryField.constant(disk_mid, 1.0))
        assert np.max(np.abs(out.values - 0.5)) < 1e-2
        assert abs(out.inner_normalized(BoundaryField.constant(disk_mid, 1.0)) - 0.5) < 1e-3

    @pytest.mark.parametrize("k", [1, 2])
    def test_disk_modes(self, disk_mid, k):
        g = BoundaryField.from_function(disk_mid, lambda x, y: np.cos(k * np.arctan2(y, x)))
        out = t_apply(disk_mid, g)
        target = g.values / (2 * k + 2)
        assert np.linalg.norm(out.values - target) / np.linalg.norm(target) < 2e-2

    def test_linearity(self, disk_coarse):
        rng = np.random.default_rng(7)
        g = BoundaryField(disk_coarse, rng.standard_normal(disk_coarse.boundary_nodes.size))
        scaled = t_apply(disk_coarse, BoundaryField(disk_coarse, 2.5 * g.values))
        assert np.max(np.abs(scaled.values - 2.5 * t_apply(disk_coarse, g).values)) < 1e-12


class TestGreenIdentity:
    def test_zero_trace_pair_both_sides_vanish(self, disk_mid):
        # u ~ r^2 - 1 and v ~ (1 - r^2)^2 both have zero trace; every term
        # of the identity vanishes up to discretization.
        fu = InteriorField.constant(disk_mid, 4.0)
        fv = InteriorField.from_function(
            disk_mid, lambda x, y: 16 * (x * x + y * y) - 8
        )
        u = solve_dirichlet_poisson(disk_mid, fu, None)
        v = solve_dirichlet_poisson(disk_mid, fv, None)
        res = green_identity_residual(disk_mid, u, v, fu, fv)
        assert res < 1e-8 * max(u.norm_l2() * v.norm_l2(), 1.0)
        ops = operators(disk_mid)
        volume = u.values @ (ops.mass @ fv.values) - v.values @ (ops.mass @ fu.values)
        assert abs(volume) < 5e-2

    def test_constant_against_radial_equals_four_pi(self, disk_mid):
        # integral of lap(r^2-1) = 4 |domain| ~ 4 pi; matches the flux term.
        one = InteriorField.constant(disk_mid, 1.0)
        fv = InteriorField.constant(disk_mid, 4.0)
        v = solve_dirichlet_poisson(disk_mid, fv, None)
        res = green_identity_residual(disk_mid, one, v, None, fv)
        assert res < 1e-10
        dv = normal_flux(disk_mid, v, fv)
        flux_side = disk_mid.boundary_length * dv.inner_normalized(trace(one))
        assert flux_side == pytest.approx(4 * disk_mid.area, rel=1e-12)
        assert flux_side == pytest.approx(4 * math.pi, rel=1e-3)

    def test_antisymmetry_u_equals_v(self, disk_coarse):
        f = InteriorField.from_function(disk_coarse, lambda x, y: x + y)
        u = solve_dirichlet_poisson(disk_coarse, f, None)
        assert green_identity_residual(disk_coarse, u, u, f, f) < 1e-12


class TestBoundaryForms:
    def test_match_unblocked_products(self, disk_mid):
        ops = operators(disk_mid)
        nb = ops.boundary_idx.size
        assert nb > fem._FORM_BLOCK and nb % fem._FORM_BLOCK != 0
        ext = ops.extend_boundary_columns(np.eye(nb))
        gram_ref = ext.T @ (ops.mass @ ext)
        schur_ref = (ops.stiffness @ ext)[ops.boundary_idx]
        gram, schur = ops.boundary_form("gram"), ops.boundary_form("schur")
        assert np.max(np.abs(gram - gram_ref)) <= 1e-12 * np.max(np.abs(gram_ref))
        assert np.max(np.abs(schur - schur_ref)) <= 1e-12 * np.max(np.abs(schur_ref))
        assert np.array_equal(gram, gram.T)

    def test_forms_are_cached_read_only(self, disk_coarse):
        ops = operators(disk_coarse)
        gram, schur = ops.boundary_form("gram"), ops.boundary_form("schur")
        assert ops.boundary_form("gram") is gram
        for form in (gram, schur):
            with pytest.raises(ValueError):
                form[0, 0] = 1.0

    def test_dbs_and_dtn_extend_the_identity_once(self, monkeypatch):
        mesh = disk_mesh(1.0, 0.1)
        nb = mesh.boundary_nodes.size
        columns = []
        extend = fem.AssembledOperators.extend_boundary_columns

        def counting(self, g_columns):
            out = extend(self, g_columns)
            columns.append(out.shape[1])
            return out

        monkeypatch.setattr(fem.AssembledOperators, "extend_boundary_columns", counting)
        dbs_eigensolve(mesh, 6, method="dense")
        harmonic_steklov_eigensolve(mesh, 5, method="dense")
        # The identity once, then the 6 DBS and 5 DtN eigenvectors.
        assert sum(columns) == nb + 6 + 5

    def test_dtn_first_builds_the_schur_form_alone(self, monkeypatch):
        mesh = disk_mesh(1.0, 0.1)
        ops = operators(mesh)
        nb = mesh.boundary_nodes.size
        columns = []
        extend = fem.AssembledOperators.extend_boundary_columns

        def counting(self, g_columns):
            out = extend(self, g_columns)
            columns.append(out.shape[1])
            return out

        monkeypatch.setattr(fem.AssembledOperators, "extend_boundary_columns", counting)
        harmonic_steklov_eigensolve(mesh, 5, method="dense")
        # The identity in _FORM_BLOCK-column blocks, then the 5 eigenvectors.
        identity = [16, 16, 16, 15]
        assert sum(identity) == nb
        assert columns == identity + [5]
        assert ops.has_boundary_form("schur") and not ops.has_boundary_form("gram")
        schur = ops.boundary_form("schur")
        dbs_eigensolve(mesh, 6, method="dense")
        # The DBS solve extends the identity again for its Gram form.
        assert columns == identity + [5] + identity + [6]
        assert ops.boundary_form("schur") is schur
        # The Schur form built alone equals the one built with the Gram form.
        both = operators(disk_mesh(1.0, 0.1))
        both.boundary_form("gram")
        assert np.array_equal(both.boundary_form("schur"), schur)

    def test_one_factorization_for_all_three_solvers(self, monkeypatch):
        mesh = disk_mesh(1.0, 0.05)
        assert mesh.interior_nodes.size > 600  # the shift-invert Dirichlet branch
        arpack = importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack")
        calls = []

        def counting(splu):
            def wrapper(*args, **kwargs):
                calls.append(args[0].shape)
                return splu(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(fem, "splu", counting(fem.splu))
        monkeypatch.setattr(arpack, "splu", counting(arpack.splu))
        dbs_eigensolve(mesh, 6, method="dense")
        harmonic_steklov_eigensolve(mesh, 5, method="dense")
        dirichlet_laplacian_eigensolve(mesh, 4)
        assert len(calls) == 1


class TestOperatorCache:
    def test_mesh_and_operators_are_freed(self):
        mesh = disk_mesh(1.0, 0.25)
        harmonic_extension(mesh, BoundaryField.constant(mesh, 1.0))
        assert operators(mesh).boundary_form("gram").shape == (mesh.boundary_nodes.size,) * 2
        ref = weakref.ref(mesh)
        cached = len(fem._OPERATOR_CACHE)
        del mesh
        gc.collect()
        assert ref() is None
        assert len(fem._OPERATOR_CACHE) == cached - 1


PENTAGON = [(0, 0), (2, 0), (3, 2), (1, 3), (-1, 1)]
RECTANGLE = [(0, 0), (6, 0), (6, 1), (0, 1)]
FILL_MESHES = {
    "disk": lambda: disk_mesh(1.0, 0.05),
    "pentagon": lambda: build_polygon_mesh(PENTAGON, 0.1),
    "rectangle": lambda: build_polygon_mesh(RECTANGLE, 0.05),
    "refined_disk_read_back": lambda: read_mesh_text(write_mesh_text(refine(disk_mesh(1.0, 0.1)))),
}


FORM_MESHES = {
    "disk": lambda: disk_mesh(1.0, 0.05),
    "pentagon": lambda: build_polygon_mesh(PENTAGON, 0.1),
    "rectangle": lambda: build_polygon_mesh(RECTANGLE, 0.05),
    "refined_disk": lambda: refine(disk_mesh(1.0, 0.04)),
}


class TestBlockedForms:
    @pytest.mark.parametrize("kind", ["gram", "schur"])
    @pytest.mark.parametrize("name", sorted(FORM_MESHES))
    def test_blocks_keep_the_bits_of_the_whole_extension(self, monkeypatch, name, kind):
        # The build before the blocks extended the whole identity in one
        # call and took the Schur form as one product: E's blocks and the
        # Schur form keep those bits, whichever form is built.
        ops = operators(FORM_MESHES[name]())
        whole = ops.extend_boundary_columns(np.eye(ops.boundary_idx.size))
        blocks = []
        extend = fem.AssembledOperators.extend_boundary_columns

        def recording(self, g_columns):
            blocks.append(extend(self, g_columns))
            return blocks[-1]

        monkeypatch.setattr(fem.AssembledOperators, "extend_boundary_columns", recording)
        ops.boundary_form(kind)
        assert ops.has_boundary_form("gram") == (kind == "gram")
        assert np.hstack(blocks).tobytes() == whole.tobytes()
        assert ops.boundary_form("schur").tobytes() == (ops.stiffness_b @ whole).tobytes()


def _colamd_lu(ops):
    """The interior LU as it was factorized before nested dissection: COLAMD, ascending order."""
    return splu(ops.stiffness[ops.interior_idx][:, ops.interior_idx].tocsc())


class TestNestedDissection:
    @pytest.mark.parametrize("name", sorted(FILL_MESHES))
    def test_order_is_a_repeatable_permutation(self, name):
        first, second = (operators(FILL_MESHES[name]()).interior_lu for _ in range(2))
        ni = first.factor.shape[0]
        assert np.array_equal(np.sort(first.order), np.arange(ni))
        assert np.array_equal(first.order, second.order)

    @pytest.mark.parametrize("name", sorted(FILL_MESHES))
    def test_less_fill_than_colamd(self, name):
        ops = operators(FILL_MESHES[name]())
        assert ops.interior_lu.nnz < _colamd_lu(ops).nnz

    @pytest.mark.parametrize("name", sorted(FILL_MESHES))
    def test_solve_matches_colamd_in_ascending_order(self, name):
        ops = operators(FILL_MESHES[name]())
        reference = _colamd_lu(ops)
        rng = np.random.default_rng(5)
        for b in rng.standard_normal(ops.interior_idx.size), rng.standard_normal(
            (ops.interior_idx.size, 40)
        ):
            expected = reference.solve(b)
            got = ops.interior_lu.solve(b)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize(
        "mesh",
        [
            Mesh(
                np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], dtype=float),
                np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]),
            ),
            disk_mesh(1.0, 0.4),
        ],
        ids=["one_interior_node", "below_one_leaf"],
    )
    def test_small_meshes_solve(self, mesh):
        ops = operators(mesh)
        assert ops.interior_idx.size <= fem._DISSECTION_LEAF
        a_ii = ops.stiffness[ops.interior_idx][:, ops.interior_idx].toarray()
        b = np.arange(1.0, ops.interior_idx.size + 1)
        np.testing.assert_allclose(ops.interior_lu.solve(b), np.linalg.solve(a_ii, b), rtol=1e-12)
        # The block path of dirichlet_solve agrees with the ascending-order solve.
        g = np.linspace(-1.0, 1.0, ops.boundary_idx.size)
        u = ops.dirichlet_solve(None, g)
        np.testing.assert_allclose(
            u[ops.interior_idx], ops.interior_lu.solve(-(ops.stiffness_ib @ g)), rtol=1e-12
        )

    def test_block_solves_copy_no_permuted_block(self):
        # One block is in flight, so the peak is the result u (0.75 MB) plus
        # one block's right-hand side and solution: 1.10 MB of traced
        # allocations with 16-column blocks.  A permuted copy of a block
        # adds another 0.17 MB.
        mesh = disk_mesh(1.0, 0.05)
        ops = operators(mesh)
        g = np.random.default_rng(6).standard_normal((mesh.boundary_nodes.size, 64))
        ops.extend_boundary_columns(g)  # the LU and the permuted K_IB, built once
        block = ops.interior_idx.size * fem._SOLVE_BLOCK * 8
        tracemalloc.start()
        try:
            u = ops.extend_boundary_columns(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= u.nbytes + 2 * block + 64 * 1024

    def test_factorization_is_logged_at_debug(self, caplog):
        ops = operators(disk_mesh(1.0, 0.1))
        with caplog.at_level(logging.DEBUG, logger="steklovsvd"):
            lu = ops.interior_lu
            ops.extend_boundary_columns(np.eye(ops.boundary_idx.size)[:, :3])
        records = [r for r in caplog.records if r.getMessage().startswith("interior LU of")]
        assert len(records) == 1
        record = records[0]
        assert record.name == "steklovsvd" and record.levelno == logging.DEBUG
        # Formatted lazily: node count, factor entries, ordering and factorizing seconds.
        assert record.args[:2] == (ops.interior_idx.size, lu.nnz)
        assert all(seconds >= 0.0 for seconds in record.args[2:])
