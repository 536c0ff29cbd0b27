import numpy as np
import pytest

from steklovsvd import build_polygon_mesh, dbs_eigensolve, disk_mesh
from steklovsvd.fem import BoundaryField
from steklovsvd.verify import SUITE_NAMES, run_suites


def test_all_suites_pass_on_disk(disk_coarse):
    results = run_suites(disk_coarse, ("all",), n_modes=12)
    failed = [r for r in results if not r.passed]
    assert not failed, "\n".join(r.line() for r in failed)


def test_all_suites_pass_on_square(square_coarse):
    results = run_suites(square_coarse, ("all",), n_modes=12)
    failed = [r for r in results if not r.passed]
    assert not failed, "\n".join(r.line() for r in failed)


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
