import math

import numpy as np
import pytest

from steklovsvd import refine, transform
from steklovsvd.bergman import (
    TruncatedKernel,
    bergman_project,
    biharmonic_potential,
    harmonic_trace,
    iter_kernel_grid_csv,
    neumann_biharmonic_extension,
    reproducing_kernel_eval,
)
from steklovsvd.errors import CapacityError, OutsideDomainError, TruncationWarning
from steklovsvd.fem import BoundaryField, InteriorField, operators
from steklovsvd.spectra import dbs_eigensolve


def radial_squared_minus_one(mesh):
    return InteriorField.from_function(mesh, lambda x, y: x * x + y * y - 1)


class TestBergmanProjection:
    def test_basis_element_is_fixed_point(self, disk_mid_basis):
        h1 = InteriorField(disk_mid_basis.mesh, disk_mid_basis.h_matrix[:, 3].copy())
        p = bergman_project(h1, disk_mid_basis)
        assert np.max(np.abs(p.values - h1.values)) < 1e-10

    def test_radial_function_projects_to_its_mean(self, disk_mid_basis):
        # the only radial harmonic function is the constant, so the
        # projection of r^2 - 1 is its mean value -1/2
        mesh = disk_mid_basis.mesh
        p = bergman_project(radial_squared_minus_one(mesh), disk_mid_basis)
        err = InteriorField(mesh, p.values + 0.5).norm_l2()
        assert err / (0.5 * math.sqrt(math.pi)) < 0.02

    def test_laplacian_of_zero_flux_potential_projects_to_zero(self, disk_mid, disk_mid_basis):
        # psi = (1 - r^2)^2 has zero trace and zero flux, so lap(psi) is
        # orthogonal to every harmonic function; the discrete projection
        # shrinks under mesh refinement.
        f = InteriorField.from_function(disk_mid, lambda x, y: 16 * (x * x + y * y) - 8)
        p = bergman_project(f, disk_mid_basis)
        rel = p.norm_l2() / f.norm_l2()
        assert rel < 0.02
        fine = refine(disk_mid)
        basis_fine = dbs_eigensolve(fine, 40)
        f2 = InteriorField.from_function(fine, lambda x, y: 16 * (x * x + y * y) - 8)
        rel_fine = bergman_project(f2, basis_fine).norm_l2() / f2.norm_l2()
        assert rel_fine < rel

    def test_idempotent_orthogonal_contractive(self, disk_mid_basis):
        mesh = disk_mid_basis.mesh
        rng = np.random.default_rng(8)
        f = InteriorField(mesh, rng.standard_normal(mesh.vertices.shape[0]))
        p = bergman_project(f, disk_mid_basis)
        pp = bergman_project(p, disk_mid_basis)
        assert InteriorField(mesh, pp.values - p.values).norm_l2() < 1e-10 * f.norm_l2()
        res = InteriorField(mesh, f.values - p.values)
        coeffs = disk_mid_basis.interior_coeffs(res)
        assert np.max(np.abs(coeffs)) < 1e-8 * f.norm_l2()
        total = p.norm_l2() ** 2 + res.norm_l2() ** 2
        assert total == pytest.approx(f.norm_l2() ** 2, rel=1e-10)
        assert p.norm_l2() <= f.norm_l2() * (1 + 1e-12)

    def test_truncation_rank_argument(self, disk_mid_basis):
        mesh = disk_mid_basis.mesh
        f = radial_squared_minus_one(mesh)
        p1 = bergman_project(f, disk_mid_basis, 1)
        assert np.max(np.abs(p1.values - p1.values.mean())) < 1e-2
        with pytest.raises(ValueError):
            bergman_project(f, disk_mid_basis, 0)
        with pytest.raises(ValueError):
            bergman_project(f, disk_mid_basis, disk_mid_basis.rank + 1)


class TestReproducingKernel:
    def test_center_value_is_inverse_area(self, disk_mid_basis):
        # mean value property: R(0, .) is the constant 1/pi on the unit disk
        val = reproducing_kernel_eval(disk_mid_basis, (0, 0), (0, 0))
        assert val == pytest.approx(1 / math.pi, rel=0.02)

    def test_symmetry_exact(self, disk_mid_basis):
        kernel = TruncatedKernel(disk_mid_basis)
        assert kernel.eval((0.3, 0.1), (-0.2, 0.4)) == kernel.eval((-0.2, 0.4), (0.3, 0.1))

    def test_margin_enforced(self, disk_mid_basis):
        with pytest.raises(OutsideDomainError):
            reproducing_kernel_eval(disk_mid_basis, (0.999, 0), (0, 0))

    def test_gram_positive_semidefinite(self, disk_mid_basis):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-0.55, 0.55, size=(10, 2))
        kernel = TruncatedKernel(disk_mid_basis)
        eigs = np.linalg.eigvalsh(kernel.gram(pts))
        assert eigs.min() >= -1e-8

    def test_gram_equals_stacked_point_values(self, disk_mid_basis):
        # One batched interpolation gives exactly the per-point rows, repeated
        # points included.
        rng = np.random.default_rng(10)
        pts = rng.uniform(-0.6, 0.6, size=(40, 2))
        pts = np.concatenate([pts, pts[:5], disk_mid_basis.mesh.vertices[:3]])
        kernel = TruncatedKernel(disk_mid_basis, 25)
        rows = np.stack([disk_mid_basis.harmonic_values(p, 25) for p in pts])
        assert np.array_equal(kernel.gram(pts), rows @ rows.T)
        assert kernel.eval(pts[1], pts[2]) == float(rows[1] @ rows[2])

    def test_gram_with_one_outside_point_raises(self, disk_mid_basis):
        kernel = TruncatedKernel(disk_mid_basis)
        pts = [(0.1, 0.2), (0.0, 0.0), (3.0, 0.5), (-0.4, 0.1)]
        with pytest.raises(OutsideDomainError):
            kernel.gram(pts)
        with pytest.raises(OutsideDomainError, match="margin"):
            kernel.gram([(0.1, 0.2), (0.999, 0.0)])

    def test_delta_property_on_harmonic_polynomial(self, disk_mid_basis):
        # integral of R_M(x0, .) k against the area measure reproduces k(x0)
        mesh = disk_mid_basis.mesh
        ops = operators(mesh)
        k = InteriorField.from_function(mesh, lambda x, y: x)
        x0 = (0.3, 0.0)
        errors = []
        for m in (1, 3, 40):
            hx = disk_mid_basis.harmonic_values(x0, m)
            integral = float(hx @ (disk_mid_basis.h_matrix[:, :m].T @ (ops.mass @ k.values)))
            errors.append(abs(integral - 0.3))
        assert errors[-1] <= 0.02  # within 2% of sup-norm 1
        # truncation error is monotone; below the discretization floor the
        # values only jitter at noise level
        floor = 1e-4
        assert errors[2] <= errors[1] + floor
        assert errors[1] <= errors[0] + floor
        assert errors[0] > 0.1  # mode not yet captured at rank 1

    def test_grid_csv_shape(self, disk_mid_basis):
        text = b"".join(iter_kernel_grid_csv(disk_mid_basis, (0.1, 0.2), 5)).decode()
        lines = text.strip().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == disk_mid_basis.mesh.vertices.shape[0] + 1


class TestBiharmonicPotential:
    def test_harmonic_input_has_zero_potential(self, disk_mid_basis):
        mesh = disk_mid_basis.mesh
        f = InteriorField.constant(mesh, 1.0)
        dec = biharmonic_potential(f, disk_mid_basis)
        assert dec.potential.norm_l2() < 2e-2
        assert InteriorField(mesh, dec.harmonic.values - 1).norm_l2() < 2e-2
        assert dec.converged

    def test_radial_case_matches_hand_integration(self, disk_mid_basis):
        # lap(psi) = r^2 - 1/2 with psi = D_nu psi = 0 gives psi = (1-r^2)^2/16
        mesh = disk_mid_basis.mesh
        dec = biharmonic_potential(radial_squared_minus_one(mesh), disk_mid_basis)
        exact = InteriorField.from_function(
            mesh, lambda x, y: (1 - x * x - y * y) ** 2 / 16
        )
        err = InteriorField(mesh, dec.potential.values - exact.values).norm_l2()
        assert err / exact.norm_l2() < 0.02
        assert dec.flux_norm < 1e-2
        assert dec.converged
        # remainder approximates r^2 - 1/2
        rem_exact = InteriorField.from_function(mesh, lambda x, y: x * x + y * y - 0.5)
        rem_err = InteriorField(mesh, dec.remainder.values - rem_exact.values).norm_l2()
        assert rem_err / rem_exact.norm_l2() < 0.02

    def test_remainder_orthogonal_to_basis(self, disk_mid_basis):
        mesh = disk_mid_basis.mesh
        rng = np.random.default_rng(10)
        f = InteriorField(mesh, rng.standard_normal(mesh.vertices.shape[0]))
        # rough data legitimately reports a still-moving projection
        with pytest.warns(TruncationWarning):
            dec = biharmonic_potential(f, disk_mid_basis)
        coeffs = disk_mid_basis.interior_coeffs(dec.remainder)
        assert np.max(np.abs(coeffs)) < 1e-8 * f.norm_l2()

    @pytest.mark.parametrize("k", [-50, 10])
    def test_convergence_does_not_depend_on_the_scale(self, disk_mid_basis, k):
        # The flux is f times a length, and it was compared with f alone.
        mesh = disk_mid_basis.mesh
        f = radial_squared_minus_one(mesh)
        scaled = dbs_eigensolve(transform(mesh, scale=2.0**k), disk_mid_basis.rank)
        dec = biharmonic_potential(f, disk_mid_basis)
        moved = biharmonic_potential(InteriorField(scaled.mesh, f.values), scaled)
        assert moved.flux_norm == pytest.approx(2.0**k * dec.flux_norm, rel=1e-9)
        assert moved.converged == dec.converged

    def test_split_is_consistent(self, disk_mid_basis):
        mesh = disk_mid_basis.mesh
        f = radial_squared_minus_one(mesh)
        dec = biharmonic_potential(f, disk_mid_basis)
        recon = dec.harmonic.values + dec.remainder.values
        assert np.max(np.abs(recon - f.values)) < 1e-12


class TestNeumannBiharmonicExtension:
    def test_constant_flux_on_disk(self, disk_mid_basis):
        # minimal-energy field with unit flux: (r^2 - 1)/2, energy 4 pi
        mesh = disk_mid_basis.mesh
        eta = BoundaryField.constant(mesh, 1.0)
        bt = neumann_biharmonic_extension(eta, disk_mid_basis)
        exact = InteriorField.from_function(mesh, lambda x, y: (x * x + y * y - 1) / 2)
        assert InteriorField(mesh, bt.values - exact.values).norm_l2() < 1e-2
        ghat = disk_mid_basis.boundary_coeffs(eta)
        energy = mesh.boundary_length * float(np.sum(disk_mid_basis.q * ghat**2))
        assert energy == pytest.approx(4 * math.pi, rel=1e-2)

    def test_orthogonal_data_gives_zero(self, disk_mid_basis):
        mesh = disk_mid_basis.mesh
        eta = BoundaryField(mesh, disk_mid_basis.w_matrix[:, 15].copy())
        with pytest.warns(TruncationWarning):
            bt = neumann_biharmonic_extension(eta, disk_mid_basis, m=10)
        assert bt.norm_l2() < 1e-8

    def test_flux_closure(self, disk_mid):
        # recovered flux of the extension reproduces smooth data
        basis = dbs_eigensolve(disk_mid, 40)
        eta = BoundaryField.from_function(
            disk_mid, lambda x, y: 1 + 0.5 * x + 0.3 * (x * x - y * y)
        )
        bt = neumann_biharmonic_extension(eta, basis)
        from steklovsvd.fem import normal_flux

        h = InteriorField(disk_mid, basis.h_matrix @ (np.sqrt(basis.q * disk_mid.boundary_length) * basis.boundary_coeffs(eta)))
        d = normal_flux(disk_mid, bt, h)
        diff = BoundaryField(disk_mid, d.values - eta.values)
        assert diff.norm_normalized() / eta.norm_normalized() < 0.02


class TestHarmonicTrace:
    def test_first_basis_mode(self, disk_mid_basis):
        g = harmonic_trace([1.0], disk_mid_basis)
        assert np.max(np.abs(g.values - 1 / math.sqrt(math.pi))) < 1e-2

    def test_constant_member(self, disk_mid_basis):
        mesh = disk_mid_basis.mesh
        c = 2.75
        coeffs = disk_mid_basis.interior_coeffs(InteriorField.constant(mesh, c))
        g = harmonic_trace(coeffs, disk_mid_basis)
        assert BoundaryField(mesh, g.values - c).norm_normalized() < 0.02 * c

    def test_norm_growth_reflects_unboundedness(self, disk_mid_basis):
        mesh = disk_mid_basis.mesh
        norms = []
        for j in (0, 5, 20):
            coeffs = np.zeros(j + 1)
            coeffs[j] = 1.0
            norms.append(harmonic_trace(coeffs, disk_mid_basis).norm_normalized())
            expected = math.sqrt(disk_mid_basis.q[j] / mesh.boundary_length)
            assert norms[-1] == pytest.approx(expected, rel=1e-6)
        assert norms[0] < norms[1] < norms[2]

    def test_too_many_coefficients_is_a_capacity_error(self, disk_mid_basis):
        with pytest.raises(CapacityError, match="^more coefficients than basis modes$"):
            harmonic_trace(np.ones(disk_mid_basis.rank + 1), disk_mid_basis)
