import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from steklovsvd import Mesh, build_polygon_mesh, disk_mesh, refine, spectra, transform
from steklovsvd.analytic_disk import bessel_j_zero
from steklovsvd.errors import CapacityError, TruncationWarning
from steklovsvd.fem import (
    BoundaryField,
    InteriorField,
    dtn_apply,
    normal_flux,
    operators,
    t_apply,
)
from steklovsvd.spectra import (
    basis_from_json_dict,
    basis_to_json_dict,
    dbs_eigensolve,
    dirichlet_laplacian_eigensolve,
    harmonic_steklov_eigensolve,
    hassell_tao_check,
    normal_derivative_series,
    trace_sobolev_norm,
)
from test_meshing import convex_polygons


def dense_t_matrix(mesh):
    """Brute-force assembly of the flux-composition operator, column by column."""
    nb = mesh.boundary_nodes.size
    cols = []
    for j in range(nb):
        e = np.zeros(nb)
        e[j] = 1.0
        cols.append(t_apply(mesh, BoundaryField(mesh, e)).values)
    return np.column_stack(cols)


class TestDbsEigensolve:
    def test_disk_spectrum_against_separation_of_variables(self, disk_mid_basis):
        # Radial mode gives q = 2; angular modes give q = 2k + 2, twice each.
        expected = [2, 4, 4, 6, 6, 8, 8, 10, 10]
        q = disk_mid_basis.q[:9]
        assert np.max(np.abs(q - expected) / np.array(expected)) < 0.02

    def test_q_positive_sorted(self, disk_mid_basis):
        q = disk_mid_basis.q
        assert q.min() > 0
        assert np.all(np.diff(q) >= -1e-12)

    def test_eigenfield_normalizations(self, disk_mid_basis):
        basis = disk_mid_basis
        mesh = basis.mesh
        ops = operators(mesh)
        gram_h = basis.h_matrix.T @ (ops.mass @ basis.h_matrix)
        assert np.max(np.abs(gram_h - np.eye(basis.rank))) < 1e-8
        gram_w = (
            basis.w_matrix.T @ (basis.w_matrix * mesh.boundary_weights[:, None])
        ) / mesh.boundary_length
        assert np.max(np.abs(gram_w - np.eye(basis.rank))) < 1e-8
        # zero trace exactly
        assert np.max(np.abs(basis.b_matrix[mesh.boundary_nodes])) == 0.0

    def test_trace_flux_coupling_identity(self, disk_mid_basis):
        basis = disk_mid_basis
        mesh = basis.mesh
        for j in range(basis.rank):
            diff = basis.h_matrix[mesh.boundary_nodes, j] - math.sqrt(
                basis.q[j] / mesh.boundary_length
            ) * basis.w_matrix[:, j]
            assert BoundaryField(mesh, diff).norm_normalized() < 1e-6

    def test_flux_energy_is_reciprocal_eigenvalue(self, disk_mid_basis):
        basis = disk_mid_basis
        mesh = basis.mesh
        for j in range(basis.rank):
            # The normal flux of b_j is w_j / sqrt(q_j |bdy|).
            flux = BoundaryField(
                mesh, basis.w_matrix[:, j] / np.sqrt(basis.q[j] * mesh.boundary_length)
            )
            assert flux.inner_dsigma(flux) * basis.q[j] == pytest.approx(1.0, abs=1e-6)

    def test_radial_mode_fields_match_closed_form(self, disk_mid_basis):
        basis = disk_mid_basis
        mesh = basis.mesh
        assert np.max(np.abs(basis.w_matrix[:, 0] - 1.0)) < 2e-2
        assert np.max(np.abs(basis.h_matrix[:, 0] - 1 / math.sqrt(math.pi))) < 1e-2
        exact_b = (mesh.vertices[:, 0] ** 2 + mesh.vertices[:, 1] ** 2 - 1) / (
            4 * math.sqrt(math.pi)
        )
        assert np.max(np.abs(basis.b_matrix[:, 0] - exact_b)) < 1e-2

    def test_capacity_errors(self, disk_coarse):
        nb = disk_coarse.boundary_nodes.size
        with pytest.raises(CapacityError):
            dbs_eigensolve(disk_coarse, nb)
        with pytest.raises(CapacityError):
            dbs_eigensolve(disk_coarse, 0)

    def test_square_matches_dense_operator_oracle(self, square_coarse):
        basis = dbs_eigensolve(square_coarse, 5)
        t_mat = dense_t_matrix(square_coarse)
        w = square_coarse.boundary_weights
        sym = np.sqrt(w)[:, None] * t_mat / np.sqrt(w)[None, :]
        beta = np.sort(sla.eigvalsh(0.5 * (sym + sym.T)))[::-1]
        assert basis.q[0] == pytest.approx(1.0 / beta[0], rel=1e-3)
        assert np.allclose(basis.q[:5], 1.0 / beta[:5], rtol=1e-6)

    def test_lanczos_agrees_with_dense(self, disk_coarse):
        dense = dbs_eigensolve(disk_coarse, 6, method="dense")
        lanczos = dbs_eigensolve(disk_coarse, 6, method="lanczos")
        assert np.max(np.abs(dense.q - lanczos.q) / dense.q) < 1e-8

    def test_rigid_motion_invariance(self, disk_coarse):
        base = dbs_eigensolve(disk_coarse, 5).q
        moved = transform(disk_coarse, rotation=1.1, offset=(4.0, -2.5))
        assert np.max(np.abs(dbs_eigensolve(moved, 5).q - base) / base) < 1e-10

    def test_scaling_law(self, disk_coarse):
        base = dbs_eigensolve(disk_coarse, 5).q
        scaled = dbs_eigensolve(transform(disk_coarse, scale=2.0), 5).q
        assert np.max(np.abs(2.0 * scaled - base) / base) < 1e-10

    @settings(max_examples=20)
    @given(
        convex_polygons(),
        st.floats(-math.pi, math.pi),
        st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        st.floats(0.25, 4.0),
    )
    def test_rigid_motion_and_scaling_on_convex_polygons(self, corners, rotation, offset, scale):
        # The triangles keep their shape, so q moves only by rounding: not at
        # all under a rigid motion, and by the factor 1 / scale under scaling.
        mesh = build_polygon_mesh(corners, 0.35)
        base = dbs_eigensolve(mesh, 5).q
        moved = dbs_eigensolve(transform(mesh, rotation=rotation, offset=offset), 5).q
        scaled = dbs_eigensolve(transform(mesh, scale=scale), 5).q
        assert np.max(np.abs(moved - base) / base) < 1e-10
        assert np.max(np.abs(scale * scaled - base) / base) < 1e-10

    def test_refinement_one_sided_convergence(self, square_coarse, disk_coarse):
        # Empirically the discrete eigenvalues converge monotonically, but
        # the side depends on the domain: on the disk the boundary polygon
        # grows under refinement and q ~ 1/R decreases, while on a fixed
        # polygon the discretization approaches the limit from below.
        coarse_q = dbs_eigensolve(square_coarse, 5).q
        fine_q = dbs_eigensolve(refine(square_coarse), 5).q
        assert np.all(fine_q >= coarse_q - 1e-6 * np.abs(coarse_q))
        coarse_q = dbs_eigensolve(disk_coarse, 5).q
        fine_q = dbs_eigensolve(refine(disk_coarse), 5).q
        assert np.all(coarse_q >= fine_q - 1e-6 * np.abs(fine_q))

    def test_disk_multiplicity_pairs(self, disk_mid_basis):
        q = disk_mid_basis.q
        for lo in (1, 3, 5):
            assert abs(q[lo + 1] - q[lo]) <= 1e-3 * q[lo]

    def test_sign_fix_makes_no_float_temporary(self):
        # The DBS call: three n x M arrays, the first also the reference.
        # An |reference| copy alone is 8 n M bytes; the boolean masks are 3 n M.
        n, m = 3000, 40
        rng = np.random.default_rng(11)
        mats = [rng.standard_normal((n, m)) for _ in range(3)]
        mag = np.abs(mats[0])
        first = np.argmax(mag > 1e-3 * mag.max(axis=0), axis=0)
        flip = mats[0][first, np.arange(m)] < 0
        expected = [np.where(flip, -mat, mat) for mat in mats]
        del mag
        tracemalloc.start()
        try:
            spectra._fix_signs(mats, mats[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * m
        for got, want in zip(mats, expected):
            np.testing.assert_array_equal(got, want)


class TestHarmonicSteklov:
    def test_disk_spectrum(self, disk_mid):
        delta = harmonic_steklov_eigensolve(disk_mid, 5).delta
        assert np.max(np.abs(delta - [0, 1, 1, 2, 2])) < 0.02

    def test_constant_first_mode_on_any_domain(self, square_coarse):
        steklov = harmonic_steklov_eigensolve(square_coarse, 3)
        assert abs(steklov.delta[0]) < 1e-10
        s0 = steklov.s_matrix[:, 0]
        assert np.max(np.abs(s0 - s0.mean())) < 1e-9 * max(abs(s0.mean()), 1.0)

    def test_traces_orthonormal(self, disk_mid):
        traces = harmonic_steklov_eigensolve(disk_mid, 6).s_matrix[disk_mid.boundary_nodes]
        gram = traces.T @ (disk_mid.boundary_weights[:, None] * traces) / disk_mid.boundary_length
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10

    def test_square_against_dense_dtn_oracle(self, square_coarse):
        steklov = harmonic_steklov_eigensolve(square_coarse, 3)
        nb = square_coarse.boundary_nodes.size
        cols = []
        for j in range(nb):
            e = np.zeros(nb)
            e[j] = 1.0
            cols.append(dtn_apply(square_coarse, BoundaryField(square_coarse, e)).values)
        dtn = np.column_stack(cols)
        w = square_coarse.boundary_weights
        sym = np.sqrt(w)[:, None] * dtn / np.sqrt(w)[None, :]
        delta = np.sort(sla.eigvalsh(0.5 * (sym + sym.T))) * square_coarse.boundary_length
        # eigenvalues are reported against arclength measure, not normalized
        delta = delta / square_coarse.boundary_length
        assert steklov.delta[1] == pytest.approx(delta[1], rel=1e-3)

    def test_capacity(self, disk_coarse):
        with pytest.raises(CapacityError):
            harmonic_steklov_eigensolve(disk_coarse, disk_coarse.boundary_nodes.size + 1)

    def test_lanczos_capacity_is_one_below_the_boundary_nodes(self):
        # ARPACK finds at most nb - 1 pairs; dense (and auto, which picks
        # dense here) solves for all nb.
        mesh = disk_mesh(1.0, 0.1)
        nb = mesh.boundary_nodes.size
        with pytest.raises(CapacityError, match=f"Lanczos capacity {nb - 1} "):
            harmonic_steklov_eigensolve(mesh, nb, method="lanczos")
        for method in ("dense", "auto"):
            assert harmonic_steklov_eigensolve(mesh, nb, method=method).delta.size == nb

    def test_negativity_guard_scales_with_the_mesh(self):
        # delta_1 is -6.1e-15 here at M = 1, so -6.7e-3 on the copy scaled by
        # 2**-40: rounding, which an absolute guard of -1e-8 refused.
        mesh = disk_mesh(1.0, 0.15)
        for k in (0, -40):
            delta = harmonic_steklov_eigensolve(transform(mesh, scale=2.0**k), 1, "lanczos").delta
            assert delta.tolist() == [0.0]

    def test_lanczos_agrees_with_dense(self, disk_coarse):
        dense = harmonic_steklov_eigensolve(disk_coarse, 6, method="dense").delta
        lanczos = harmonic_steklov_eigensolve(disk_coarse, 6, method="lanczos").delta
        # delta_1 = 0: relative agreement with a floor of one.
        assert np.max(np.abs(dense - lanczos) / np.maximum(dense, 1.0)) < 1e-8


class TestDirichletLaplacian:
    def test_disk_ground_state(self, disk_mid):
        lam = dirichlet_laplacian_eigensolve(disk_mid, 1).lam
        assert lam[0] == pytest.approx(bessel_j_zero(0, 1) ** 2, rel=0.01)

    def test_square_ground_state(self, square_mid):
        lam = dirichlet_laplacian_eigensolve(square_mid, 1).lam
        assert lam[0] == pytest.approx(2 * math.pi**2, rel=0.01)

    def test_orthonormal_eigenfields(self, disk_mid):
        e = dirichlet_laplacian_eigensolve(disk_mid, 6).e_matrix
        gram = e.T @ (operators(disk_mid).mass @ e)
        assert np.max(np.abs(gram - np.eye(6))) < 1e-8

    def test_capacity(self, disk_coarse):
        with pytest.raises(CapacityError):
            dirichlet_laplacian_eigensolve(disk_coarse, disk_coarse.interior_nodes.size + 1)

    def test_shift_invert_agrees_with_dense(self, disk_mid):
        ops = operators(disk_mid)
        interior = ops.interior_idx
        assert interior.size > 600  # above the dense cutoff: shift-invert Lanczos
        a_ii = ops.stiffness[interior][:, interior].toarray()
        m_ii = ops.mass[interior][:, interior].toarray()
        dense = sla.eigh(a_ii, m_ii, eigvals_only=True, subset_by_index=[0, 5])
        lam = dirichlet_laplacian_eigensolve(disk_mid, 6).lam
        assert np.max(np.abs(lam - dense) / dense) < 1e-8


    def test_fluxes_match_the_per_mode_loop(self, disk_mid):
        dirichlet = dirichlet_laplacian_eigensolve(disk_mid, 6)
        for lam, e, flux in zip(dirichlet.lam, dirichlet.e_matrix.T, dirichlet.flux_matrix.T):
            f = InteriorField(disk_mid, -lam * e)
            assert np.array_equal(flux, normal_flux(disk_mid, InteriorField(disk_mid, e), f).values)


# (n, interior LU factor entries) by boundary node count, recorded from
# disk_mesh(1, 0.04), the 1.5:1 rectangle of area 1 at h=0.02, and
# refine(disk_mesh(1, h)) for h = 0.04, 0.03 and 0.02.
RECORDED_SIZES = {
    157: (2258, 98464),
    206: (2989, 128236),
    314: (8872, 525702),
    418: (15528, 1018482),
    628: (35207, 2651116),
}


class TestMethodChoice:
    @staticmethod
    def choose(problem, nb, n_modes, cached=False, n=None):
        # A fake size (n given) has 75 factor entries per vertex, no fewer
        # than the recorded meshes (25 at 381 vertices, 75.3 at 35,207).
        n, lu_nnz = RECORDED_SIZES[nb] if n is None else (n, 75 * n)
        return spectra._choose_method(problem, n, nb, n_modes, lu_nnz, cached)

    # (314, 36), (418, 53) and (628, 88) lie just above the DBS crossover:
    # dense 0.32, 0.69 and 2.58 s against Lanczos 0.43, 0.91 and 3.56 s,
    # medians of 10 runs alternating the methods on fresh meshes.
    @pytest.mark.parametrize(
        "nb, n_modes",
        [(157, 60), (314, 60), (418, 60), (206, 40), (314, 36), (418, 53), (628, 88)],
    )
    def test_dense_where_it_was_measured_faster(self, nb, n_modes):
        choice = self.choose("dbs", nb, n_modes)
        assert choice.method == "dense" and choice.reason == "costs"
        assert choice.dense_cost < choice.lanczos_cost

    @pytest.mark.parametrize("nb, n_modes", [(628, 60), (206, 5)])
    def test_lanczos_where_it_was_measured_faster(self, nb, n_modes):
        choice = self.choose("dbs", nb, n_modes)
        assert choice.method == "lanczos" and choice.reason == "costs"

    @pytest.mark.parametrize("nb, n_modes", [(157, 8), (314, 40)])
    def test_fresh_dtn_stays_dense_at_these_sizes(self, nb, n_modes):
        assert self.choose("dtn", nb, n_modes).method == "dense"

    @pytest.mark.parametrize("problem", ["dbs", "dtn"])
    @pytest.mark.parametrize("nb", sorted(RECORDED_SIZES))
    @pytest.mark.parametrize("n_modes", [1, 5, 60])
    def test_dense_whenever_the_form_is_cached(self, problem, nb, n_modes):
        choice = self.choose(problem, nb, n_modes, cached=True)
        assert choice.method == "dense" and choice.reason == "cached forms"
        assert choice.dense_cost == 0.0

    @pytest.mark.parametrize("problem", ["dbs", "dtn"])
    def test_never_dense_above_the_memory_ceiling(self, problem):
        n = 35207
        limit_nb = spectra._DENSE_MEMORY_LIMIT // (8 * n)
        # Nearly every mode of a fake boundary: by cost alone dense would win.
        below = self.choose(problem, limit_nb, limit_nb - 1, n=n)
        assert below.method == "dense"
        above = self.choose(problem, limit_nb + 1, limit_nb, n=n)
        assert above.method == "lanczos" and above.reason == "memory ceiling"
        assert above.dense_cost < above.lanczos_cost

    def test_choice_is_logged_at_debug(self, caplog):
        mesh = disk_mesh(1.0, 0.1)
        with caplog.at_level(logging.DEBUG, logger="steklovsvd"):
            dbs_eigensolve(mesh, 6)
            harmonic_steklov_eigensolve(mesh, 5)
        # Only the solver's records: the LU pool logs its first use too.
        records = [r for r in caplog.records if r.module == "spectra"]
        messages = [r.getMessage() for r in records]
        assert len(messages) == 2
        assert messages[0].startswith("dbs eigensolve of 6 modes")
        assert ": dense by costs, dense " in messages[0]
        assert messages[1].startswith("dtn eigensolve of 5 modes")
        assert ": dense by cached forms, dense 0 vs lanczos " in messages[1]
        # The fresh mesh's choice reads the entries of its own factor.
        ops = operators(mesh)
        n, nb, lu_nnz = ops.n_vertices, ops.boundary_idx.size, ops.interior_lu.nnz
        choice = spectra._choose_method("dbs", n, nb, 6, lu_nnz, False)
        assert records[0].args == ("dbs", 6, n, nb, lu_nnz, *choice)
        assert f"{nb} boundary nodes, {lu_nnz} factor entries): " in messages[0]

    def test_auto_on_a_mesh_without_interior_nodes(self):
        # The interior LU is empty (no entries): auto must still rate both methods.
        square = ([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2), (0, 2, 3)])
        auto = dbs_eigensolve(Mesh(*square), 2)
        assert np.array_equal(auto.q, dbs_eigensolve(Mesh(*square), 2, method="dense").q)


class TestNormalDerivativeSeries:
    def test_zero_coefficients_give_zero_field(self, disk_mid_basis):
        out = normal_derivative_series(np.zeros(5), 1.0, disk_mid_basis)
        assert np.max(np.abs(out.values)) == 0.0

    def test_radial_mode_rellich_identity(self, disk_mid, disk_mid_basis):
        dirichlet = dirichlet_laplacian_eigensolve(disk_mid, 1)
        lam = dirichlet.lam[0]
        coeffs = disk_mid_basis.interior_coeffs(InteriorField(disk_mid, dirichlet.e_matrix[:, 0]))
        series = normal_derivative_series(coeffs, lam, disk_mid_basis)
        energy = series.inner_dsigma(series)
        assert energy == pytest.approx(2 * lam, rel=0.02)

    def test_series_matches_recovered_flux(self, disk_mid, disk_mid_basis):
        dirichlet = dirichlet_laplacian_eigensolve(disk_mid, 3)
        for lam, e, flux in zip(dirichlet.lam, dirichlet.e_matrix.T, dirichlet.flux_matrix.T):
            coeffs = disk_mid_basis.interior_coeffs(InteriorField(disk_mid, e))
            series = normal_derivative_series(coeffs, lam, disk_mid_basis)
            diff = BoundaryField(disk_mid, series.values - flux)
            assert diff.norm_dsigma() / BoundaryField(disk_mid, flux).norm_dsigma() < 0.05

    def test_nonpositive_eigenvalue_rejected(self, disk_mid_basis):
        for lam in (-1.0, math.nan):
            with pytest.raises(ValueError):
                normal_derivative_series(np.ones(3), lam, disk_mid_basis)


class TestHassellTao:
    def test_matches_the_per_mode_formula(self, disk_mid, disk_mid_basis):
        dirichlet = dirichlet_laplacian_eigensolve(disk_mid, 5)
        report = hassell_tao_check(dirichlet, disk_mid_basis)
        q1 = float(disk_mid_basis.q[0])
        for j, lam in enumerate(dirichlet.lam.tolist()):
            flux = BoundaryField(disk_mid, dirichlet.flux_matrix[:, j])
            e = InteriorField(disk_mid, dirichlet.e_matrix[:, j])
            coeffs = disk_mid_basis.interior_coeffs(e)
            flux_sq, bound = flux.norm_dsigma() ** 2, lam**2 * float(coeffs @ coeffs) / q1
            got = (report.flux_sq[j], report.bound[j], report.bound_weak[j], report.ratio[j])
            assert got == pytest.approx((flux_sq, bound, lam**2 / q1, flux_sq / bound), rel=1e-12)

    def test_disk_reports(self, disk_mid, disk_mid_basis):
        dirichlet = dirichlet_laplacian_eigensolve(disk_mid, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            report = hassell_tao_check(dirichlet, disk_mid_basis)
        assert report.flux_sq == pytest.approx(2 * dirichlet.lam, rel=0.02)
        assert np.all(report.ratio <= 1 + 1e-6)
        assert np.all(report.bound_weak >= report.bound)

    def test_short_basis_warns_when_the_bound_fails(self):
        pentagon = build_polygon_mesh([(0, 0), (2, 0), (3, 2), (1, 3), (-1, 1)], 0.1)
        dirichlet = dirichlet_laplacian_eigensolve(pentagon, 3)
        with pytest.warns(TruncationWarning, match=r"exceeds the truncated bound by up to 427\.1 "):
            report = hassell_tao_check(dirichlet, dbs_eigensolve(pentagon, 2))
        assert report.ratio[2] == pytest.approx(428.1, rel=1e-3)

    def test_warning_states_the_excess(self):
        # A ratio of 1 + 1.7e-4, which the ratio's own 4 digits print as 1.
        mesh = disk_mesh(1.0, 0.2)
        dirichlet = dirichlet_laplacian_eigensolve(mesh, 3)
        with pytest.warns(TruncationWarning) as record:
            report = hassell_tao_check(dirichlet, dbs_eigensolve(mesh, 6))
        excess = float(report.ratio.max()) - 1.0
        assert 1e-6 < excess < 1e-3
        assert f"{excess + 1:.4g}" == "1"
        messages = [str(w.message) for w in record]
        assert messages == [
            f"flux energy exceeds the truncated bound by up to {excess:.4g} times the bound;"
            " the 6-mode basis misses part of the harmonic projection, extend it"
        ]

    def test_unnormalized_field_rejected(self, disk_mid, disk_mid_basis):
        good = dirichlet_laplacian_eigensolve(disk_mid, 1)
        bad = type(good)(disk_mid, good.lam, 2 * good.e_matrix, good.flux_matrix)
        with pytest.raises(ValueError):
            hassell_tao_check(bad, disk_mid_basis)


class TestTraceSobolevNorm:
    def test_constant_is_one_for_every_order(self, disk_mid):
        steklov = harmonic_steklov_eigensolve(disk_mid, 8)
        g = BoundaryField(disk_mid, steklov.s_matrix[disk_mid.boundary_nodes, 0])
        for s in (-1.0, -0.5, 0.0, 0.5, 1.0):
            assert trace_sobolev_norm(g, s, steklov) == pytest.approx(1.0, abs=1e-8)

    def test_single_mode_weight(self, disk_mid):
        # the unit-trace-norm mode of r cos(theta) has eigenvalue 1, so the
        # s-norm is 2**s (through the discretized eigenvalue exactly, and
        # through the analytic one up to discretization error)
        steklov = harmonic_steklov_eigensolve(disk_mid, 8)
        g = BoundaryField(disk_mid, steklov.s_matrix[disk_mid.boundary_nodes, 1])
        for s in (-1.0, -0.25, 0.5, 1.0):
            norm = trace_sobolev_norm(g, s, steklov)
            assert norm == pytest.approx((1 + steklov.delta[1]) ** s, rel=1e-8)
            assert norm == pytest.approx(2.0**s, rel=2e-3)

    def test_parseval_at_order_zero(self, disk_mid):
        steklov = harmonic_steklov_eigensolve(disk_mid, 10)
        rng = np.random.default_rng(2)
        g = BoundaryField(
            disk_mid, steklov.s_matrix[disk_mid.boundary_nodes] @ rng.standard_normal(10)
        )
        assert trace_sobolev_norm(g, 0.0, steklov) == pytest.approx(
            g.norm_normalized(), rel=1e-8
        )

    def test_order_out_of_range_rejected(self, disk_mid):
        steklov = harmonic_steklov_eigensolve(disk_mid, 3)
        g = BoundaryField(disk_mid, steklov.s_matrix[disk_mid.boundary_nodes, 0])
        for s in (1.5, math.nan):
            with pytest.raises(ValueError):
                trace_sobolev_norm(g, s, steklov)

    def test_matches_the_per_mode_sum(self, disk_mid):
        steklov = harmonic_steklov_eigensolve(disk_mid, 8)
        nb = disk_mid.boundary_nodes.size
        g = BoundaryField(disk_mid, np.random.default_rng(5).standard_normal(nb))
        traces = (BoundaryField(disk_mid, s[disk_mid.boundary_nodes]) for s in steklov.s_matrix.T)
        ghat = [g.inner_normalized(t) for t in traces]
        for s in (-1.0, 0.0, 0.5):
            terms = [(1 + d) ** (2 * s) * c**2 for d, c in zip(steklov.delta.tolist(), ghat)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)  # eight modes miss most of g
                norm = trace_sobolev_norm(g, s, steklov)
            assert norm == pytest.approx(math.sqrt(sum(terms)), rel=1e-12)

    def test_truncation_warning_for_rough_data(self, disk_mid):
        steklov = harmonic_steklov_eigensolve(disk_mid, 3)
        rng = np.random.default_rng(4)
        g = BoundaryField(disk_mid, rng.standard_normal(disk_mid.boundary_nodes.size))
        with pytest.warns(TruncationWarning):
            trace_sobolev_norm(g, 0.0, steklov)


class TestSpectrumInputs:
    @pytest.mark.parametrize("other", ["moved", "refined"])
    def test_inputs_from_another_mesh_rejected(self, other):
        # The moved mesh has the same sizes, so array shapes alone cannot tell.
        mesh = disk_mesh(1.0, 0.2)
        if other == "moved":
            other = transform(mesh, rotation=0.7, offset=(0.3, -1.2), scale=2)
        else:
            other = refine(mesh)
        steklov = harmonic_steklov_eigensolve(mesh, 6)
        with pytest.raises(ValueError, match="come from different meshes"):
            trace_sobolev_norm(BoundaryField.constant(other, 1.0), 0.0, steklov)
        basis = dbs_eigensolve(mesh, 6)
        with pytest.raises(ValueError, match="come from different meshes"):
            hassell_tao_check(dirichlet_laplacian_eigensolve(other, 3), basis)

    def test_an_equal_mesh_built_again_is_accepted(self):
        mesh, again = disk_mesh(1.0, 0.2), disk_mesh(1.0, 0.2)
        steklov = harmonic_steklov_eigensolve(mesh, 6)
        g = BoundaryField.constant(again, 1.0)
        assert trace_sobolev_norm(g, 0.5, steklov) == pytest.approx(1.0, abs=1e-8)
        basis = dbs_eigensolve(mesh, 6)
        with warnings.catch_warnings():
            # Six modes fall just short of the bound's projection here.
            warnings.simplefilter("ignore", TruncationWarning)
            ratios = [
                hassell_tao_check(dirichlet_laplacian_eigensolve(m, 3), basis).ratio
                for m in (mesh, again)
            ]
        assert ratios[0].shape == (3,) and np.array_equal(*ratios)

    def test_per_mode_views_are_the_array_columns(self, disk_mid):
        # perfbench/workloads.py reads exactly these two expressions.
        steklov = harmonic_steklov_eigensolve(disk_mid, 5)
        dirichlet = dirichlet_laplacian_eigensolve(disk_mid, 4)
        delta = [p.delta for p in steklov]
        lam = [p.lam for p in dirichlet]
        assert all(type(x) is float for x in delta + lam)
        assert delta == steklov.delta.tolist() and lam == dirichlet.lam.tolist()
        for j, p in enumerate(steklov):
            assert p.s.mesh is disk_mid
            assert p.s.values.tobytes() == steklov.s_matrix[:, j].tobytes()
        for j, p in enumerate(dirichlet):
            assert p.e.mesh is p.flux.mesh is disk_mid
            assert p.e.values.tobytes() == dirichlet.e_matrix[:, j].tobytes()
            assert p.flux.values.tobytes() == dirichlet.flux_matrix[:, j].tobytes()
        assert (j, len(delta)) == (3, 5)


class TestBasisSerialization:
    def test_roundtrip(self, disk_coarse):
        basis = dbs_eigensolve(disk_coarse, 4)
        data = basis_to_json_dict(basis, "disk;radius=1;h=0.1")
        assert list(data.keys()) == [
            "domain",
            "boundary_length",
            "M",
            "q",
            "b",
            "h",
            "w",
            "mesh_hash",
        ]
        back = basis_from_json_dict(data, disk_coarse)
        assert np.array_equal(back.q, basis.q)
        assert np.array_equal(back.h_matrix, basis.h_matrix)

    def test_wrong_mesh_rejected(self, disk_coarse, square_coarse):
        basis = dbs_eigensolve(disk_coarse, 3)
        data = basis_to_json_dict(basis, "disk")
        with pytest.raises(ValueError, match="hash"):
            basis_from_json_dict(data, square_coarse)
