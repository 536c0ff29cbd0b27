import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from steklovsvd import build_polygon_mesh, disk_mesh, transform
from steklovsvd.analytic_disk import disk_poisson_kernel_exact
from steklovsvd.bergman import TruncatedKernel, bergman_project
from steklovsvd.errors import CapacityError, OutsideDomainError
from steklovsvd.fem import BoundaryField, InteriorField, harmonic_extension, operators
from steklovsvd.poisson import (
    PoissonSvd,
    extend_harmonic_svd,
    extension_norm,
    iter_kernel_slice_csv,
    kernel_slice,
    poisson_kernel_eval,
    truncation_error_report,
)
from steklovsvd.spectra import dbs_eigensolve
from test_meshing import convex_polygons


@pytest.fixture(scope="module")
def disk_svd(disk_mid_basis):
    return PoissonSvd.from_basis(disk_mid_basis)


class TestSvdStructure:
    def test_maps_right_singular_vectors_to_left(self, disk_svd):
        basis = disk_svd.basis
        mesh = basis.mesh
        for j in (0, 3, 9):
            g = BoundaryField(mesh, basis.w_matrix[:, j].copy())
            ext = extend_harmonic_svd(g, disk_svd)
            target = math.sqrt(disk_svd.boundary_length / basis.q[j]) * basis.h_matrix[:, j]
            assert InteriorField(mesh, ext.values - target).norm_l2() < 1e-8

    def test_singular_values_nonincreasing_to_zero(self, disk_svd):
        sv = disk_svd.singular_values
        assert np.all(np.diff(sv) <= 1e-12)
        assert sv[-1] < 0.5 * sv[0]

    def test_extension_norm_identities(self, disk_svd):
        # equal to 1/sqrt(q_1) by construction, and close to the analytic
        # disk value 1/sqrt(2)
        norm = extension_norm(disk_svd)
        assert norm == 1.0 / math.sqrt(disk_svd.basis.q[0])
        assert norm == pytest.approx(1 / math.sqrt(2), rel=1e-3)

    def test_extension_norm_matches_dense_svd_oracle(self):
        mesh = disk_mesh(1.0, 0.12)
        basis = dbs_eigensolve(mesh, 10)
        svd = PoissonSvd.from_basis(basis)
        # assemble the extension operator column by column through the
        # public solver and take its largest singular value directly
        nb = mesh.boundary_nodes.size
        cols = []
        for j in range(nb):
            e = np.zeros(nb)
            e[j] = 1.0
            cols.append(harmonic_extension(mesh, BoundaryField(mesh, e)).values)
        ext = np.column_stack(cols)
        ops = operators(mesh)
        gram = ext.T @ (ops.mass @ ext)
        sigma_max = math.sqrt(
            sla.eigh(gram, np.diag(mesh.boundary_weights), eigvals_only=True)[-1]
        )
        assert extension_norm(svd) == pytest.approx(sigma_max, rel=0.02)

    def test_scaled_disk_norm(self):
        mesh = transform(disk_mesh(1.0, 0.1), scale=2.0)
        svd = PoissonSvd.from_basis(dbs_eigensolve(mesh, 5))
        # q_1(R) = 2/R so the norm is sqrt(R/2)
        assert extension_norm(svd) == pytest.approx(1.0, rel=2e-3)


class TestTruncatedExtension:
    def test_constant_data(self, disk_svd):
        mesh = disk_svd.basis.mesh
        u = extend_harmonic_svd(BoundaryField.constant(mesh, 1.0), disk_svd)
        assert InteriorField(mesh, u.values - 1).norm_l2() < 1e-2

    def test_cos_theta_error_decreases_in_rank_and_mesh(self, disk_svd):
        mesh = disk_svd.basis.mesh
        g = BoundaryField.from_function(mesh, lambda x, y: x / np.hypot(x, y))
        exact = InteriorField.from_function(mesh, lambda x, y: x)

        def err(m):
            u = extend_harmonic_svd(g, disk_svd, m)
            return InteriorField(mesh, u.values - exact.values).norm_l2()

        assert err(1) > 0.1  # the cos mode is not in a rank-1 expansion
        assert err(10) < 5e-3
        assert err(40) <= err(10) + 1e-12
        fine = disk_mesh(1.0, 0.025)
        svd_fine = PoissonSvd.from_basis(dbs_eigensolve(fine, 10))
        g2 = BoundaryField.from_function(fine, lambda x, y: x / np.hypot(x, y))
        u2 = extend_harmonic_svd(g2, svd_fine, 10)
        err_fine = InteriorField(fine, u2.values - fine.vertices[:, 0]).norm_l2()
        assert err_fine < err(10)

    def test_orthogonal_data_extends_to_zero(self, disk_svd):
        mesh = disk_svd.basis.mesh
        g = BoundaryField(mesh, disk_svd.basis.w_matrix[:, 20].copy())
        u = extend_harmonic_svd(g, disk_svd, 10)
        assert u.norm_l2() < 1e-8


class TestKernelEvaluation:
    def test_center_matches_uniform_kernel(self, disk_svd):
        for m in (1, 5, 40):
            val = poisson_kernel_eval(disk_svd, m, (0.0, 0.0), (1.0, 0.0))
            assert val == pytest.approx(1 / (2 * math.pi), rel=0.01)

    def test_half_radius_point(self, disk_svd):
        val = poisson_kernel_eval(disk_svd, 40, (0.5, 0.0), (1.0, 0.0))
        assert val == pytest.approx(1.5 / math.pi, rel=0.01)

    def test_rotational_covariance(self, disk_svd):
        # the kernel depends only on |x| and the angle between x and z
        mesh = disk_svd.basis.mesh
        alpha = 2 * math.pi * 20 / mesh.boundary_nodes.size  # a boundary-node angle
        x0, z0 = (0.4, 0.0), (1.0, 0.0)
        x1 = (0.4 * math.cos(alpha), 0.4 * math.sin(alpha))
        z1 = (math.cos(alpha), math.sin(alpha))
        v0 = poisson_kernel_eval(disk_svd, 39, x0, z0)
        v1 = poisson_kernel_eval(disk_svd, 39, x1, z1)
        assert v1 == pytest.approx(v0, rel=2e-2)

    def test_against_exact_kernel_at_several_points(self, disk_svd):
        for x, z in [((0.3, 0.2), (1.0, 0.0)), ((-0.4, 0.1), (0.0, 1.0))]:
            mesh = disk_svd.basis.mesh
            zi = mesh.vertices[mesh.boundary_nodes[np.argmin(np.hypot(*(mesh.vertices[mesh.boundary_nodes] - np.array(z)).T))]]
            val = poisson_kernel_eval(disk_svd, 40, x, zi)
            exact = disk_poisson_kernel_exact(x, zi / np.hypot(*zi))
            assert val == pytest.approx(exact, rel=0.05)

    def test_domain_errors(self, disk_svd):
        # The messages print the points as plain floats, not numpy reprs.
        with pytest.raises(OutsideDomainError, match=r"^point \(0\.999, 0\.0\) is within"):
            poisson_kernel_eval(disk_svd, 5, (0.999, 0.0), (1.0, 0.0))
        with pytest.raises(OutsideDomainError, match=r"^\(0\.7, 0\.7\) is not a boundary node"):
            poisson_kernel_eval(disk_svd, 5, (0.2, 0.0), (0.7, 0.7))

    @pytest.mark.parametrize("offset", [(0.0, 0.0), (1000.0, 0.0)])
    def test_boundary_node_tolerance_ignores_translation(self, offset):
        # The tolerance scales with the mesh's own extent, not with its
        # distance from the origin.
        mesh = transform(disk_mesh(1.0, 0.2), offset=offset)
        svd = PoissonSvd.from_basis(dbs_eigensolve(mesh, 6))
        z = mesh.vertices[mesh.boundary_nodes[0]]
        assert np.isfinite(poisson_kernel_eval(svd, None, offset, z))
        with pytest.raises(OutsideDomainError, match="is not a boundary node"):
            poisson_kernel_eval(svd, None, offset, z + (0.0, 5e-6))

    @pytest.mark.parametrize("radius", [1.0, 1e-6])
    def test_boundary_node_tolerance_scales_with_the_domain(self, radius):
        # An offset of 3e-3 of the radius is off the node at any size: an
        # absolute floor of 1e-8 once took 3e-9 as the node on the small disk.
        mesh = disk_mesh(radius, 0.1 * radius)
        svd = PoissonSvd.from_basis(dbs_eigensolve(mesh, 6))
        z = mesh.vertices[mesh.boundary_nodes[0]]
        assert np.isfinite(poisson_kernel_eval(svd, None, (0.0, 0.0), z))
        with pytest.raises(OutsideDomainError, match="is not a boundary node"):
            poisson_kernel_eval(svd, None, (0.0, 0.0), z + (0.0, 3e-3 * radius))

    def test_margin_errors_share_one_text(self, disk_svd):
        # One check serves both kernels: each names the first point inside
        # the margin, and the margin.
        basis = disk_svd.basis
        points = [(0.1, 0.2), (0.0, -0.9995), (0.999, 0.0)]
        expected = f"point (0.0, -0.9995) is within the boundary margin {basis.mesh.max_edge_length}"
        z = basis.mesh.vertices[basis.mesh.boundary_nodes[0]]
        calls = {
            "gram": lambda: TruncatedKernel(basis).gram(points),
            "eval": lambda: TruncatedKernel(basis).eval(points[1], points[2]),
            "values_on_vertices": lambda: TruncatedKernel(basis).values_on_vertices(points[1]),
            "poisson_kernel_eval": lambda: poisson_kernel_eval(disk_svd, None, points[1], z),
            "kernel_slice": lambda: kernel_slice(disk_svd, points[1]),
            "harmonic_values": lambda: basis.harmonic_values(np.array([points] * 2)),
        }
        for name, call in calls.items():
            with pytest.raises(OutsideDomainError) as info:
                call()
            assert str(info.value) == expected, name

    @pytest.mark.parametrize("domain", ["disk", "pentagon"])
    def test_point_values_are_the_slice_entries(self, disk_svd, domain):
        # One contraction serves both: each point value equals the slice
        # entry at its node bit for bit, as the CSV prints it.
        if domain == "disk":
            svd, m, x = disk_svd, 30, (0.3, -0.1)
        else:
            mesh = build_polygon_mesh([(0, 0), (2, 0), (3, 2), (1, 3), (-1, 1)], 0.2)
            svd, m, x = PoissonSvd.from_basis(dbs_eigensolve(mesh, 12)), 10, (1.0, 1.2)
        mesh = svd.basis.mesh
        _, values = kernel_slice(svd, x, m)
        for i, z in enumerate(mesh.vertices[mesh.boundary_nodes]):
            assert poisson_kernel_eval(svd, m, x, z) == values[i]

    def test_slice_and_csv(self, disk_svd):
        arc, values = kernel_slice(disk_svd, (0.0, 0.0), 10)
        assert arc.shape == values.shape
        assert np.all(np.diff(arc) > 0)
        assert np.max(np.abs(values - 1 / (2 * math.pi))) < 0.01 / (2 * math.pi) * 10
        text = b"".join(iter_kernel_slice_csv(disk_svd, (0.0, 0.0), 10)).decode()
        assert text.splitlines()[0] == "z_arclength,value"


class TestTruncationReport:
    def test_single_tail_mode_attains_bound(self, disk_svd):
        mesh = disk_svd.basis.mesh
        for m in (5, 12):
            g = BoundaryField(mesh, disk_svd.basis.w_matrix[:, m].copy())
            report = truncation_error_report(g, disk_svd, m)
            assert report.ratio == pytest.approx(1.0, abs=1e-6)

    def test_in_span_data_has_zero_ratio(self, disk_svd):
        mesh = disk_svd.basis.mesh
        g = BoundaryField(mesh, disk_svd.basis.w_matrix[:, 2].copy())
        report = truncation_error_report(g, disk_svd, 5)
        assert report.error < 1e-8  # solver roundoff only
        assert report.bound < 1e-12
        assert report.ratio == 0.0

    @pytest.mark.parametrize("k", [-60, -50, 10])
    def test_ratio_does_not_depend_on_the_scale(self, k):
        # The zero-tail test compared the bound, a norm of g times a length,
        # with 1e-14 times the norm of g: below 2**-50 every ratio read 0.
        ratios = []
        for scale in 1.0, 2.0**k:
            mesh = transform(disk_mesh(1.0, 0.1), scale=scale)
            data = np.random.default_rng(1).standard_normal(mesh.boundary_nodes.size)
            g = BoundaryField(mesh, data)
            svd = PoissonSvd.from_basis(dbs_eigensolve(mesh, 12))
            ratios.append(truncation_error_report(g, svd, 5).ratio)
        assert ratios[1] == ratios[0] > 0.5

    def test_random_data_ratio_in_unit_interval(self, disk_svd):
        mesh = disk_svd.basis.mesh
        rng = np.random.default_rng(12)
        for _ in range(20):
            g = BoundaryField(mesh, rng.standard_normal(mesh.boundary_nodes.size))
            report = truncation_error_report(g, disk_svd, 10)
            assert 0 < report.ratio <= 1 + 1e-6

    def test_error_monotone_in_rank(self, disk_svd):
        mesh = disk_svd.basis.mesh
        rng = np.random.default_rng(13)
        g = BoundaryField(mesh, rng.standard_normal(mesh.boundary_nodes.size))
        errors = [truncation_error_report(g, disk_svd, m).error for m in range(1, 20)]
        assert np.all(np.diff(errors) <= 1e-12)

    @pytest.mark.parametrize("m", [0, 41])
    def test_out_of_range_rank_is_a_capacity_error_in_both_modules(self, disk_svd, m):
        basis = disk_svd.basis
        mesh = basis.mesh
        assert basis.rank == 40
        with pytest.raises(CapacityError, match="truncation rank must lie in"):
            bergman_project(InteriorField.constant(mesh, 1.0), basis, m)
        with pytest.raises(CapacityError, match="truncation rank must lie in"):
            extend_harmonic_svd(BoundaryField.constant(mesh, 1.0), disk_svd, m)

    @settings(max_examples=20)
    @given(convex_polygons(), st.integers(1, 6), st.integers(0, 2**16))
    def test_truncation_bound_on_convex_polygons(self, corners, m, seed):
        # ||E g - E_m g|| <= sqrt(|bdy| / q_{m+1}) ||g - g_m||, with equality
        # for data on the first mode beyond the truncation.
        basis = dbs_eigensolve(build_polygon_mesh(corners, 0.35), 8)
        svd = PoissonSvd.from_basis(basis)
        rng = np.random.default_rng(seed)
        g = BoundaryField(basis.mesh, rng.standard_normal(basis.mesh.boundary_nodes.size))
        assert 0 <= truncation_error_report(g, svd, m).ratio <= 1 + 1e-6
        tail = BoundaryField(basis.mesh, basis.w_matrix[:, m].copy())
        assert truncation_error_report(tail, svd, m).ratio == pytest.approx(1.0, abs=1e-6)

    def test_capacity_error(self, disk_svd):
        mesh = disk_svd.basis.mesh
        g = BoundaryField.constant(mesh, 1.0)
        with pytest.raises(CapacityError):
            truncation_error_report(g, disk_svd, disk_svd.rank)

    def test_report_fields(self, disk_svd):
        mesh = disk_svd.basis.mesh
        report = truncation_error_report(BoundaryField.constant(mesh, 1.0), disk_svd, 3)
        assert report.norm_convention == "dsigma"
        assert report.M == 3
