"""Acceptance suite: one test per exit criterion, one printed line each.

Heavy objects (the h = 0.02 disk, its refinement, and their rank-60 bases)
are session fixtures shared across criteria; everything here runs at desk
scale.  Expected values come from the closed-form disk oracle or from the
brute-force dense operators assembled through the public solver API.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from steklovsvd import build_polygon_mesh, refine
from steklovsvd.bergman import bergman_project, biharmonic_potential
from steklovsvd.errors import TruncationWarning
from steklovsvd.fem import (
    BoundaryField,
    InteriorField,
    harmonic_extension,
    operators,
    t_apply,
)
from steklovsvd.poisson import (
    PoissonSvd,
    extension_norm,
    poisson_kernel_eval,
    truncation_error_report,
)
from steklovsvd.spectra import (
    dbs_eigensolve,
    dirichlet_laplacian_eigensolve,
    hassell_tao_check,
    normal_derivative_series,
)

from conftest import UNIT_SQUARE

DISK_DBS = np.array([2.0, 4.0, 4.0, 6.0, 6.0, 8.0, 8.0])


def report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


class TestCriterion1DiskSpectrum:
    def test_disk_dbs_spectrum_and_refinement(self, disk_accept_basis, disk_fine_basis):
        q_coarse = disk_accept_basis.q[:7]
        q_fine = disk_fine_basis.q[:7]
        rel = np.abs(q_coarse - DISK_DBS) / DISK_DBS
        assert np.max(rel) < 0.02
        err_coarse = np.abs(q_coarse - DISK_DBS)
        err_fine = np.abs(q_fine - DISK_DBS)
        assert np.all(err_fine <= err_coarse)
        report(
            "1 disk DBS spectrum",
            f"max rel err {np.max(rel):.2e} at h=0.02, refinement shrinks all seven",
        )


class TestCriterion2ExtensionNorm:
    def test_norm_identity_and_dense_oracle(self, disk_accept, disk_accept_basis):
        svd = PoissonSvd.from_basis(disk_accept_basis)
        norm = extension_norm(svd)
        # exact by construction: the norm is 1/sqrt of the first eigenvalue
        assert norm == 1.0 / math.sqrt(disk_accept_basis.q[0])
        assert norm == pytest.approx(1 / math.sqrt(2), rel=0.02)
        # independent dense assembly through the public solver, largest
        # singular value via a generalized symmetric eigensolve
        mesh = disk_accept
        nb = mesh.boundary_nodes.size
        cols = []
        for j in range(nb):
            e = np.zeros(nb)
            e[j] = 1.0
            cols.append(harmonic_extension(mesh, BoundaryField(mesh, e)).values)
        ext = np.column_stack(cols)
        gram = ext.T @ (operators(mesh).mass @ ext)
        sigma_max = math.sqrt(
            sla.eigh(gram, np.diag(mesh.boundary_weights), eigvals_only=True)[-1]
        )
        assert norm == pytest.approx(sigma_max, rel=0.02)
        report(
            "2 extension norm",
            f"1/sqrt(q1)={norm:.6f}, dense oracle {sigma_max:.6f}, target {1/math.sqrt(2):.6f}",
        )


class TestCriterion3PoissonKernel:
    def test_center_and_half_radius_values(self, disk_accept_basis, disk_fine_basis):
        svd = PoissonSvd.from_basis(disk_accept_basis)
        for m in (1, 7, 25, 40):
            val = poisson_kernel_eval(svd, m, (0.0, 0.0), (1.0, 0.0))
            assert val == pytest.approx(1 / (2 * math.pi), rel=0.01)
        svd_fine = PoissonSvd.from_basis(disk_fine_basis)
        target = 1.5 / math.pi
        values = [
            poisson_kernel_eval(svd_fine, m, (0.5, 0.0), (1.0, 0.0)) for m in range(1, 41)
        ]
        errors = np.abs(np.array(values) - target)
        assert errors[-1] < 0.05 * target
        # truncation error is monotone; allow discretization-floor jitter
        assert np.max(np.diff(errors)) <= 2e-6
        report(
            "3 Poisson kernel",
            f"P_M(0,z) within 1%, P_40((.5,0),(1,0)) rel err {errors[-1] / target:.2e}, "
            f"monotone to {np.max(np.diff(errors)):.1e}",
        )


class TestCriterion4TruncationBound:
    @pytest.mark.parametrize("domain", ["disk", "square"])
    def test_bound_and_sharpness(self, domain, disk_accept_basis):
        if domain == "disk":
            basis = disk_accept_basis
        else:
            basis = dbs_eigensolve(build_polygon_mesh(UNIT_SQUARE, 0.05), 15)
        mesh = basis.mesh
        svd = PoissonSvd.from_basis(basis)
        rng = np.random.default_rng(42)
        ratios = []
        for _ in range(20):
            g = BoundaryField(mesh, rng.standard_normal(mesh.boundary_nodes.size))
            ratios.append(truncation_error_report(g, svd, 10).ratio)
        ratios = np.array(ratios)
        assert np.all(ratios > 0)
        assert np.all(ratios <= 1 + 1e-6)
        tail = truncation_error_report(
            BoundaryField(mesh, basis.w_matrix[:, 10].copy()), svd, 10
        )
        assert tail.ratio == pytest.approx(1.0, abs=1e-6)
        report(
            f"4 truncation bound ({domain})",
            f"20 random ratios in ({ratios.min():.3f}, {ratios.max():.6f}], tail mode 1±{abs(tail.ratio - 1):.1e}",
        )


class TestCriterion5DeltaProperty:
    def test_harmonic_polynomials_reproduced(self, disk_accept, disk_accept_basis):
        mesh = disk_accept
        ops = operators(mesh)
        polys = {
            "1": (lambda x, y: np.ones_like(x), 1.0),
            "x": (lambda x, y: x, 1.0),
            "x^2-y^2": (lambda x, y: x * x - y * y, 1.0),
            "xy": (lambda x, y: x * y, 0.5),
        }
        points = [(0.0, 0.0), (0.5, 0.0), (-0.3, 0.4), (0.2, -0.6), (-0.45, -0.45)]
        worst = 0.0
        for name, (fn, sup) in polys.items():
            k = InteriorField.from_function(mesh, fn)
            for x0 in points:
                errors = []
                for m in (1, 5, 20, 40):
                    hx = disk_accept_basis.harmonic_values(x0, m)
                    coeffs = disk_accept_basis.h_matrix[:, :m].T @ (ops.mass @ k.values)
                    integral = float(hx @ coeffs)
                    errors.append(abs(integral - fn(np.array(x0[0]), np.array(x0[1]))))
                assert errors[-1] <= 0.02 * sup
                # non-increasing beyond the discretization floor (the
                # captured coefficients jitter at ~1e-4 of the sup norm)
                for a, b in zip(errors, errors[1:]):
                    assert b <= a + 2e-4 * sup
                worst = max(worst, errors[-1] / sup)
        report("5 reproducing delta property", f"worst rel err {worst:.2e} at M=40")


class TestCriterion6BergmanProjection:
    def test_radial_projection_and_projector_identities(self, disk_accept, disk_accept_basis):
        mesh = disk_accept
        f = InteriorField.from_function(mesh, lambda x, y: x * x + y * y - 1)
        p = bergman_project(f, disk_accept_basis, 40)
        err = InteriorField(mesh, p.values + 0.5).norm_l2()
        assert err <= 0.02 * 0.5 * math.sqrt(math.pi)
        rng = np.random.default_rng(7)
        fr = InteriorField(mesh, rng.standard_normal(mesh.vertices.shape[0]))
        p1 = bergman_project(fr, disk_accept_basis, 40)
        p2 = bergman_project(p1, disk_accept_basis, 40)
        idem = InteriorField(mesh, p2.values - p1.values).norm_l2() / fr.norm_l2()
        assert idem <= 1e-10
        res = InteriorField(mesh, fr.values - p1.values)
        pyth = abs(fr.norm_l2() ** 2 - p1.norm_l2() ** 2 - res.norm_l2() ** 2)
        assert pyth <= 1e-10 * fr.norm_l2() ** 2
        report(
            "6 Bergman projection",
            f"projection err {err:.2e}, idempotence {idem:.1e}, Pythagoras {pyth:.1e}",
        )


class TestCriterion7BiharmonicPotential:
    def test_potential_matches_hand_integration(self, disk_accept, disk_accept_basis, disk_fine, disk_fine_basis):
        mesh = disk_accept
        f = InteriorField.from_function(mesh, lambda x, y: x * x + y * y - 1)
        dec = biharmonic_potential(f, disk_accept_basis, 40)
        exact = InteriorField.from_function(mesh, lambda x, y: (1 - x * x - y * y) ** 2 / 16)
        rel = (
            InteriorField(mesh, dec.potential.values - exact.values).norm_l2()
            / exact.norm_l2()
        )
        assert rel < 0.02
        assert dec.flux_norm <= 1e-2
        f_fine = InteriorField.from_function(disk_fine, lambda x, y: x * x + y * y - 1)
        dec_fine = biharmonic_potential(f_fine, disk_fine_basis, 40)
        assert dec_fine.flux_norm < dec.flux_norm
        report(
            "7 biharmonic potential",
            f"L2 rel err {rel:.2e}, flux {dec.flux_norm:.2e} -> {dec_fine.flux_norm:.2e} refined",
        )


class TestCriterion8FluxFormulaAndBound:
    def test_first_ten_dirichlet_pairs(self, disk_fine, disk_fine_basis):
        dirichlet = dirichlet_laplacian_eigensolve(disk_fine, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            ht = hassell_tao_check(dirichlet, disk_fine_basis)
        assert np.all(ht.ratio <= 1 + 1e-6)
        worst_rellich = 0.0
        worst_series = 0.0
        for j, lam in enumerate(dirichlet.lam):
            flux = BoundaryField(disk_fine, dirichlet.flux_matrix[:, j])
            flux_sq = flux.inner_dsigma(flux)
            worst_rellich = max(worst_rellich, abs(flux_sq / (2 * lam) - 1))
            assert flux_sq == pytest.approx(2 * lam, rel=0.02)
            e = InteriorField(disk_fine, dirichlet.e_matrix[:, j])
            series = normal_derivative_series(
                disk_fine_basis.interior_coeffs(e), lam, disk_fine_basis
            )
            diff = BoundaryField(disk_fine, series.values - flux.values)
            rel = diff.norm_dsigma() / flux.norm_dsigma()
            worst_series = max(worst_series, rel)
            assert rel < 0.05
        report(
            "8 flux series + Hassell-Tao",
            f"worst Rellich defect {worst_rellich:.2e}, worst series mismatch {worst_series:.2e}",
        )


class TestCriterion9BasisStructure:
    def test_gram_identities_and_ordering(self, disk_accept, disk_accept_basis):
        basis = disk_accept_basis
        mesh = disk_accept
        ops = operators(mesh)
        gram_h = basis.h_matrix.T @ (ops.mass @ basis.h_matrix)
        gh = float(np.max(np.abs(gram_h - np.eye(basis.rank))))
        assert gh <= 1e-8
        gram_w = (
            basis.w_matrix.T @ (basis.w_matrix * mesh.boundary_weights[:, None])
        ) / mesh.boundary_length
        gw = float(np.max(np.abs(gram_w - np.eye(basis.rank))))
        assert gw <= 1e-8
        worst = 0.0
        for j in range(basis.rank):
            diff = (
                basis.h_matrix[mesh.boundary_nodes, j]
                - math.sqrt(basis.q[j] / mesh.boundary_length) * basis.w_matrix[:, j]
            )
            worst = max(worst, BoundaryField(mesh, diff).norm_normalized())
        assert worst <= 1e-6
        # strictly increasing across multiplicity clusters
        clusters = [[basis.q[0]]]
        for value in basis.q[1:]:
            if value - clusters[-1][-1] <= 1e-3 * value:
                clusters[-1].append(value)
            else:
                clusters.append([value])
        means = [np.mean(c) for c in clusters]
        assert np.all(np.diff(means) > 0)
        report(
            "9 basis structure",
            f"gram defects {gh:.1e}/{gw:.1e}, coupling identity {worst:.1e}, "
            f"{len(clusters)} strictly increasing clusters",
        )


class TestCriterion10SquareSelfConsistency:
    def test_square_convergence_oracle_and_laplacian(self):
        coarse = build_polygon_mesh(UNIT_SQUARE, 0.125)
        mid = refine(coarse)
        fine = refine(mid)
        q_coarse = dbs_eigensolve(coarse, 5).q[0]
        q_mid = dbs_eigensolve(mid, 5).q[0]
        q_fine = dbs_eigensolve(fine, 5).q[0]
        step1 = abs(q_mid - q_coarse) / q_mid
        step2 = abs(q_fine - q_mid) / q_fine
        assert step1 < 0.01
        assert step2 < 0.01
        assert step2 < step1  # Cauchy: successive differences shrink
        # dense brute-force oracle through the public operator composition
        nb = coarse.boundary_nodes.size
        cols = []
        for j in range(nb):
            e = np.zeros(nb)
            e[j] = 1.0
            cols.append(t_apply(coarse, BoundaryField(coarse, e)).values)
        t_mat = np.column_stack(cols)
        w = coarse.boundary_weights
        sym = np.sqrt(w)[:, None] * t_mat / np.sqrt(w)[None, :]
        beta_max = sla.eigvalsh(0.5 * (sym + sym.T))[-1]
        assert q_coarse == pytest.approx(1.0 / beta_max, rel=1e-3)
        lam1 = dirichlet_laplacian_eigensolve(fine, 1).lam[0]
        assert lam1 == pytest.approx(2 * math.pi**2, rel=0.01)
        report(
            "10 square self-consistency",
            f"q1 steps {step1:.2e}, {step2:.2e}; oracle gap {abs(q_coarse * beta_max - 1):.1e}; "
            f"lam1 rel err {abs(lam1 / (2 * math.pi**2) - 1):.2e}",
        )
