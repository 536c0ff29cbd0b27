import weakref

import numpy as np
import pytest

from steklovsvd import (
    build_polygon_mesh,
    dbs_eigensolve,
    dirichlet_laplacian_eigensolve,
    disk_mesh,
    transform,
    verify,
)
from steklovsvd.fem import (
    BoundaryField,
    InteriorField,
    harmonic_extension,
    normal_flux,
    operators,
    solve_dirichlet_poisson,
    t_apply,
)
from steklovsvd.poisson import PoissonSvd, extend_harmonic_svd
from steklovsvd.verify import SUITE_NAMES, run_suites


def test_all_suites_pass_on_disk(disk_coarse):
    results = run_suites(disk_coarse, ("all",), n_modes=12)
    failed = [r for r in results if not r.passed]
    assert not failed, "\n".join(r.line() for r in failed)


def test_all_suites_pass_on_square(square_coarse):
    results = run_suites(square_coarse, ("all",), n_modes=12)
    failed = [r for r in results if not r.passed]
    assert not failed, "\n".join(r.line() for r in failed)


def test_all_suites_pass_on_a_small_disk():
    # The spectra suite solves a moved copy.  Taken from the origin, the
    # shoelace of a copy moved by (0.31, -1.25) was off by 1.4e-9 of its area,
    # as each product is about 1.25**2 in size; taken from the frame's origin,
    # its rounding scales with the disk.
    results = run_suites(disk_mesh(1e-4, 1e-5), ("all",), n_modes=12)
    failed = [r for r in results if not r.passed]
    assert not failed, "\n".join(r.line() for r in failed)


@pytest.mark.parametrize("copy", ["2**-20", "2**-10", "2**10", "2**20", "2**30", "moved"])
@pytest.mark.parametrize("domain", ["disk", "pentagon"])
def test_all_suites_pass_at_every_scale_and_far_from_the_origin(domain, copy):
    # Every allowed value reads the mesh's frame or the data, and a
    # power-of-two scale scales the frame exactly, so each copy passes as the
    # mesh does.  Absolute tolerances failed at 2**20 and 2**30, an area floor
    # from the largest coordinate refused the spectra suite's moved copy at
    # 2**-20, and the shoelace from the origin failed the moved copy.
    mesh = disk_mesh(1.0, 0.1) if domain == "disk" else build_polygon_mesh(PENTAGON, 0.3)
    if copy == "moved":
        extent = float(np.max(np.ptp(mesh.vertices, axis=0)))
        mesh = transform(mesh, offset=(1e3 * extent, 1e3 * extent))
    else:
        mesh = transform(mesh, scale=2.0 ** int(copy[3:]))
    failed = [r.line() for r in run_suites(mesh, ("all",), 20) if not r.passed]
    assert not failed



def test_spectra_suite_frees_each_transformed_copy(square_coarse, monkeypatch):
    # The basis, the moved copy, then the scaled copy: the moved copy (and
    # with it its operators and LU) is gone before the scaled one is solved.
    seen = []
    solve = verify.dbs_eigensolve

    def recording_solve(mesh, n_modes, *args, **kwargs):
        if len(seen) == 2:
            assert seen[1]() is None, "the moved copy is still alive"
        seen.append(weakref.ref(mesh))
        return solve(mesh, n_modes, *args, **kwargs)

    monkeypatch.setattr(verify, "dbs_eigensolve", recording_solve)
    run_suites(square_coarse, ("spectra",), n_modes=12)
    assert len(seen) == 3


def test_selected_suite_only(disk_coarse):
    results = run_suites(disk_coarse, ("mesh",))
    assert results
    assert all(r.name.startswith("mesh.") for r in results)


def test_every_result_names_measured_and_allowed(disk_coarse):
    for r in run_suites(disk_coarse, ("mesh", "solver")):
        line = r.line()
        assert "measured=" in line and "allowed=" in line
        assert r.name.split(".")[0] in SUITE_NAMES


def test_unknown_suite_rejected(disk_coarse):
    with pytest.raises(ValueError):
        run_suites(disk_coarse, ("bogus",))


PENTAGON = [(0.0, 0.0), (2.0, 0.0), (3.0, 2.0), (1.0, 3.0), (-1.0, 1.0)]


def _per_mode_identities(mesh, basis):
    """The two identities as per-mode loops over the basis columns measure them."""
    q = basis.q
    worst = 0.0
    for j in range(basis.rank):
        lhs = basis.h_matrix[mesh.boundary_nodes, j]
        rhs = np.sqrt(q[j] / mesh.boundary_length) * basis.w_matrix[:, j]
        worst = max(worst, BoundaryField(mesh, lhs - rhs).norm_normalized())
    trace_flux = worst
    worst = 0.0
    for j in range(basis.rank):
        # The normal flux of b_j: w_j / sqrt(q_j |bdy|).
        scale = np.sqrt(float(q[j]) * mesh.boundary_length)
        flux = BoundaryField(mesh, basis.w_matrix[:, j] / scale)
        m_bb = flux.inner_dsigma(flux)
        worst = max(worst, abs(m_bb * q[j] - 1.0))
    return {"spectra.trace_flux_identity": trace_flux, "spectra.flux_energy_reciprocal": worst}


@pytest.mark.parametrize("domain", ["disk", "pentagon"])
def test_array_identities_equal_per_mode_loops(domain):
    mesh = disk_mesh(1.0, 0.1) if domain == "disk" else build_polygon_mesh(PENTAGON, 0.2)
    expected = _per_mode_identities(mesh, dbs_eigensolve(mesh, 12))
    measured = {r.name: r.measured for r in run_suites(mesh, ("spectra",), n_modes=12)}
    assert {name: measured[name].hex() for name in expected} == {
        name: float(value).hex() for name, value in expected.items()
    }


# The checks of ``run_suites(mesh, ("all",), n_modes=12)`` in order, with the
# allowed value on the disk (h 0.1) and on the pentagon (h 0.2); ``None``
# where that mesh has no such check.
CHECKS = [
    ("mesh.area_quadrature_exact", 1e-10, 4e-10),
    ("mesh.perimeter_quadrature_exact", 1e-10, 2e-10),
    ("mesh.normals_outward", 1e-300, 1e-300),
    ("mesh.refine_quadruples_triangles", 0.0, 0.0),
    ("mesh.refine_grows_disk_boundary", 0.0, None),
    ("mesh.refine_halves_max_edge", None, 3e-14),
    ("solver.linear_solution_exact", 4e-11, 1.2e-10),
    ("solver.constant_extension_exact", 3.5e-11, 3.5e-11),
    ("solver.linear_flux_exact", 4e-11, 6e-11),
    ("solver.zero_data_zero_solution", 0.0, 0.0),
    ("solver.t_apply_symmetric", 1e-10, 2e-10),
    ("solver.t_apply_positive", -1e-12, -2e-12),
    ("solver.green_identity_residual", 3.487337566696549e-11, 2.4715028626646663e-09),
    ("spectra.q_strictly_positive", 1e-300, 1e-300),
    ("spectra.q_sorted_ascending", -1e-12, -5e-13),
    ("spectra.h_gram_identity", 1e-08, 1e-08),
    ("spectra.w_gram_identity", 1e-08, 1e-08),
    ("spectra.trace_flux_identity", 1e-06, 5e-07),
    ("spectra.flux_energy_reciprocal", 1e-06, 1e-06),
    ("spectra.flux_continuity_bound", 1.00000001, 1.00000001),
    ("spectra.laplacian_norm_equivalence", 1.00000001, 1.00000001),
    ("spectra.steklov_first_eigenvalue_zero", 1e-08, 5e-09),
    ("spectra.steklov_first_mode_constant", 1e-08, 1e-08),
    ("spectra.trace_norm_parseval", 1e-08, 1e-08),
    ("spectra.rigid_motion_invariance", 4e-11, 6e-11),
    ("spectra.scaling_law", 1e-10, 1e-10),
    ("spectra.disk_multiplicity_pairs", 0.00401100905232124, None),
    ("bergman.projection_idempotent", 1e-10, 1e-10),
    ("bergman.residual_orthogonal", 1e-08, 1e-08),
    ("bergman.pythagoras", 1e-10, 1e-10),
    ("bergman.contraction", 1.000000000001, 1.000000000001),
    ("bergman.kernel_gram_psd", -1e-08, -2.5e-09),
    ("bergman.projection_separates_dirichlet_modes", 0.1, 0.1),
    ("poisson.svd_maps_right_to_left", 1e-08, 2e-08),
    ("poisson.singular_values_nonincreasing", 1e-12, 1.4142135623730952e-12),
    ("poisson.singular_values_decay", 0.35334068653876205, 0.4438144107349924),
    ("poisson.truncation_bound", 1.000001, 1.000001),
    ("poisson.single_tail_mode_sharp", 1e-06, 1e-06),
    ("poisson.truncation_error_monotone", 6.267785766610841e-13, 8.922003874994586e-13),
]


def _sampled_checks_per_sample(mesh, n_modes):
    """The solver and spectra suites' sampled checks as loops over single samples.

    Draws from the seeded stream in the order ``run_suites(mesh, ("all",))``
    does: ten boundary pairs ``(g1, g2)``, then fifty sources.
    """
    rng = np.random.default_rng(0)
    nb, n = mesh.boundary_nodes.size, mesh.vertices.shape[0]
    sym = pos = 0.0
    for _ in range(10):
        g1 = BoundaryField(mesh, rng.standard_normal(nb))
        g2 = BoundaryField(mesh, rng.standard_normal(nb))
        t1, t2 = t_apply(mesh, g1), t_apply(mesh, g2)
        scale = g1.norm_dsigma() * g2.norm_dsigma()
        sym = max(sym, abs(t1.inner_dsigma(g2) - g1.inner_dsigma(t2)) / scale)
        pos = min(pos, t1.inner_dsigma(g1) / g1.inner_dsigma(g1))
    q0 = float(dbs_eigensolve(mesh, n_modes).q[0])
    lam1 = dirichlet_laplacian_eigensolve(mesh, 1).lam[0]
    stiffness = operators(mesh).stiffness
    flux_ratio = norm_ratio = 0.0
    for _ in range(50):
        f = InteriorField(mesh, rng.standard_normal(n))
        u = solve_dirichlet_poisson(mesh, f, None)
        d = normal_flux(mesh, u, f)
        f_sq = f.inner(f)
        flux_ratio = max(flux_ratio, d.inner_dsigma(d) * q0 / f_sq)
        energy = float(u.values @ (stiffness @ u.values)) + f_sq
        norm_ratio = max(norm_ratio, energy / ((1.0 + 1.0 / lam1) * f_sq))
    return {
        "solver.t_apply_symmetric": sym,
        "solver.t_apply_positive": pos,
        "spectra.flux_continuity_bound": flux_ratio,
        "spectra.laplacian_norm_equivalence": norm_ratio,
    }


@pytest.mark.parametrize("domain", ["disk", "pentagon"])
def test_block_sampled_checks_match_per_sample_loops(domain):
    mesh = disk_mesh(1.0, 0.1) if domain == "disk" else build_polygon_mesh(PENTAGON, 0.2)
    results = run_suites(mesh, ("all",), n_modes=12)
    column = 1 if domain == "disk" else 2
    expected = [(c[0], c[column]) for c in CHECKS if c[column] is not None]
    assert [r.name for r in results] == [name for name, _ in expected]
    for r, (_, allowed) in zip(results, expected):
        assert r.allowed == pytest.approx(allowed, rel=1e-9, abs=0.0), r.name
        assert r.passed, r.line()

    reference = _sampled_checks_per_sample(mesh, 12)
    measured = {r.name: r.measured for r in results}
    for name in ("spectra.flux_continuity_bound", "spectra.laplacian_norm_equivalence"):
        assert measured[name] == pytest.approx(reference[name], rel=1e-12, abs=0.0), name
    assert measured["solver.t_apply_positive"] == reference["solver.t_apply_positive"]
    # Rounding noise either way: a block of columns sums in another order.
    assert measured["solver.t_apply_symmetric"] < 1e-15
    assert reference["solver.t_apply_symmetric"] < 1e-15


def _poisson_per_mode_loops(mesh, basis):
    """The two matrix-form poisson checks as the per-mode loops they replace.

    Returns each loop's value and the scale of what it subtracts: the
    largest field norm, and the rank-1 truncation error.  The boundary data
    is the stream's 21st draw, as ``run_suites(mesh, ("poisson",))`` draws.
    """
    svd = PoissonSvd.from_basis(basis)
    worst = scale = 0.0
    for j in range(min(10, svd.rank)):
        ext = extend_harmonic_svd(BoundaryField(mesh, basis.w_matrix[:, j]), svd)
        target = np.sqrt(svd.boundary_length / basis.q[j]) * basis.h_matrix[:, j]
        worst = max(worst, InteriorField(mesh, ext.values - target).norm_l2())
        scale = max(scale, InteriorField(mesh, target).norm_l2())
    rng = np.random.default_rng(0)
    nb = mesh.boundary_nodes.size
    for _ in range(20):
        rng.standard_normal(nb)
    g = BoundaryField(mesh, rng.standard_normal(nb))
    full = harmonic_extension(mesh, g)
    errors = [
        InteriorField(mesh, full.values - extend_harmonic_svd(g, svd, r).values).norm_l2()
        for r in range(1, min(svd.rank, 12) + 1)
    ]
    return {
        "poisson.svd_maps_right_to_left": (worst, scale),
        "poisson.truncation_error_monotone": (float(np.max(np.diff(errors))), errors[0]),
    }


@pytest.mark.parametrize("domain", ["disk", "pentagon"])
def test_poisson_matrix_checks_match_per_mode_loops(domain):
    mesh = disk_mesh(1.0, 0.1) if domain == "disk" else build_polygon_mesh(PENTAGON, 0.2)
    expected = _poisson_per_mode_loops(mesh, dbs_eigensolve(mesh, 12))
    measured = {r.name: r.measured for r in run_suites(mesh, ("poisson",), n_modes=12)}
    # Both values are differences of nearly equal fields, so they agree
    # relative to the scale of those fields, not to themselves.
    for name, (value, scale) in expected.items():
        assert abs(measured[name] - value) <= 1e-12 * scale, name
