"""Invariant batteries behind the ``verify`` command.

Each check measures one invariant and records the measured against the
allowed value, so failures always name the violated property and both
numbers.  The batteries are grouped into suites mirroring the package
layout (mesh, solver, spectra, bergman, poisson).

Each check's allowed value is a relative factor times a named quantity of
the check, with a comment that names both: a norm of its data, the mesh's
``scale`` (see :class:`~steklovsvd.meshing.Mesh`) to the power its units
need, or the largest absolute coordinate where rounding follows the
coordinates.  So a power-of-two scaling scales each allowed value exactly,
and moving a domain loosens only what rounding loosens.

Some checks take the worst case over random samples: the solver suite
draws 10 pairs of boundary data for the symmetry and positivity of
``t_apply``, the spectra suite 50 interior sources for the flux and norm
bounds, and the poisson suite 20 boundary data for the truncation bound.
All come from one stream seeded with ``_SEED``, drawn in this fixed order,
and the solver and spectra samples are solved as fixed column blocks (one
block of 20 columns, two of 25), so each sample is solved in the same LU
solve block on every run.  One Dirichlet eigensolve serves two suites:
spectra reads its first eigenvalue and bergman its first five modes, or as
many as the mesh has interior nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bergman as bg
from . import poisson as ps
from .fem import (
    BoundaryField,
    InteriorField,
    harmonic_extension,
    green_identity_residual,
    normal_flux,
    operators,
    solve_dirichlet_poisson,
)
from .meshing import Mesh, refine, transform
from .spectra import (
    DirichletSpectrum,
    SpectralBasis,
    dbs_eigensolve,
    dirichlet_laplacian_eigensolve,
    harmonic_steklov_eigensolve,
    trace_sobolev_norm,
)

__all__ = ["CheckResult", "run_suites", "SUITE_NAMES"]

SUITE_NAMES = ("mesh", "solver", "spectra", "bergman", "poisson")

_SEED = 0
# Random sources of the spectra suite's flux and norm bounds, solved in blocks
# of ``_SOURCE_BLOCK`` columns: wider blocks hold more ``n``-row arrays at once.
_SOURCES = 50
_SOURCE_BLOCK = 25
# Least modes of the basis suites (spectra, bergman, poisson): poisson needs one past a truncation.
_MIN_BASIS_MODES = 2


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    allowed: float
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: measured={self.measured:.6e} "
            f"allowed={self.allowed:.6e}"
        )


def _leq(name: str, measured: float, allowed: float) -> CheckResult:
    return CheckResult(name, float(measured), float(allowed), bool(measured <= allowed))


def _geq(name: str, measured: float, allowed: float) -> CheckResult:
    return CheckResult(name, float(measured), float(allowed), bool(measured >= allowed))


def _mesh_suite(mesh: Mesh) -> list[CheckResult]:
    scale, fine = mesh.scale, refine(mesh)
    area, length = mesh.polygon_measures()
    out = [
        # 1e-10 of the area's unit, scale squared; then of the length's, scale.
        _leq("mesh.area_quadrature_exact", abs(mesh.area - area), 1e-10 * scale * scale),
        _leq("mesh.perimeter_quadrature_exact", abs(mesh.boundary_length - length), 1e-10 * scale),
        # A sign: 1e-300 stands for zero, here and in each "> 0" check below.
        _geq("mesh.normals_outward", float(np.min(mesh.outward_clearance())), 1e-300),
        # A count: exact.
        _leq(
            "mesh.refine_quadruples_triangles",
            abs(fine.triangles.shape[0] - 4 * mesh.triangles.shape[0]),
            0.0,
        ),
    ]
    if mesh.geometry[0] == "disk":
        # A sign: exact, as the new boundary nodes lie on the circle.
        grown = fine.boundary_length - mesh.boundary_length
        out.append(_geq("mesh.refine_grows_disk_boundary", grown, 0.0))
    else:
        # Midpoints round with the coordinates: 1e-14 of the largest absolute coordinate.
        halved = abs(fine.max_edge_length - 0.5 * mesh.max_edge_length)
        coords = float(np.max(np.abs(mesh.vertices)))
        out.append(_leq("mesh.refine_halves_max_edge", halved, 1e-14 * coords))
    return out


def _solver_suite(mesh: Mesh, rng: np.random.Generator) -> list[CheckResult]:
    out = []
    scale, coords = mesh.scale, float(np.max(np.abs(mesh.vertices)))
    g_lin = BoundaryField.from_function(mesh, lambda x, y: x)
    u = solve_dirichlet_poisson(mesh, None, g_lin)
    error = np.max(np.abs(u.values - mesh.vertices[:, 0]))
    # Rounds with the data, the coordinates: 4e-11 of the largest absolute coordinate.
    out.append(_leq("solver.linear_solution_exact", error, 4e-11 * coords))
    const = harmonic_extension(mesh, BoundaryField.constant(mesh, 3.5))
    # 1e-11 of the data, the constant 3.5.
    error = np.max(np.abs(const.values - 3.5))
    out.append(_leq("solver.constant_extension_exact", error, 1e-11 * 3.5))
    # Flux of a linear field equals the length-weighted average of edge normals.
    d = normal_flux(mesh, InteriorField(mesh, mesh.vertices[:, 0].copy()), None)
    expected = np.zeros(mesh.vertices.shape[0])
    np.add.at(expected, mesh.boundary_edges[:, 0], 0.5 * mesh.edge_weights * mesh.normals[:, 0])
    np.add.at(expected, mesh.boundary_edges[:, 1], 0.5 * mesh.edge_weights * mesh.normals[:, 0])
    expected = expected[mesh.boundary_nodes] / mesh.boundary_weights
    # A unit normal from coordinates: 4e-11 of the largest coordinate over the scale.
    error = np.max(np.abs(d.values - expected))
    out.append(_leq("solver.linear_flux_exact", error, 4e-11 * coords / scale))
    zero = solve_dirichlet_poisson(mesh, None, None)
    # Exact: no data, no rounding.
    out.append(_leq("solver.zero_data_zero_solution", np.max(np.abs(zero.values)), 0.0))

    # Ten pairs (g1, g2), drawn in turn, as the columns of one block.
    g = rng.standard_normal((20, mesh.boundary_nodes.size)).T
    t = operators(mesh).t_apply(g)
    g1, g2, t1, t2 = g[:, 0::2], g[:, 1::2], t[:, 0::2], t[:, 1::2]

    def inner(a, b):
        return np.einsum("i,ij,ij->j", mesh.boundary_weights, a, b)

    sym = np.abs(inner(t1, g2) - inner(g1, t2)) / np.sqrt(inner(g1, g1) * inner(g2, g2))
    pos = min(0.0, float(np.min(inner(t1, g1) / inner(g1, g1))))
    # T scales as a length: 1e-10, then -1e-12, of the scale.
    out.append(_leq("solver.t_apply_symmetric", np.max(sym), 1e-10 * scale))
    out.append(_geq("solver.t_apply_positive", pos, -1e-12 * scale))

    fu = InteriorField.from_function(mesh, lambda x, y: 1.0 + 0.0 * x)
    fv = InteriorField.from_function(mesh, lambda x, y: x * y)
    uu = solve_dirichlet_poisson(mesh, fu, BoundaryField.from_function(mesh, lambda x, y: y))
    vv = solve_dirichlet_poisson(mesh, fv, None)
    residual = green_identity_residual(mesh, uu, vv, fu, fv)
    # 1e-10 of the bound ||u|| ||f_v|| + ||v|| ||f_u|| on the identity's volume terms.
    terms = uu.norm_l2() * fv.norm_l2() + vv.norm_l2() * fu.norm_l2()
    out.append(_leq("solver.green_identity_residual", residual, 1e-10 * terms))
    return out


def _spectra_suite(
    mesh: Mesh, basis: SpectralBasis, dirichlet: DirichletSpectrum, rng: np.random.Generator
) -> list[CheckResult]:
    out = []
    ops = operators(mesh)
    scale, q = mesh.scale, basis.q
    # q scales as an inverse length: a sign, then -1e-12 over the scale.
    out.append(_geq("spectra.q_strictly_positive", q.min(), 1e-300))
    gaps = np.min(np.diff(q)) if q.size > 1 else 0.0
    out.append(_geq("spectra.q_sorted_ascending", gaps, -1e-12 / scale))

    # Each against the identity's unit entries: 1e-8.
    gram_h = basis.h_matrix.T @ (ops.mass @ basis.h_matrix)
    out.append(_leq("spectra.h_gram_identity", np.max(np.abs(gram_h - np.eye(q.size))), 1e-8))
    ww = basis.w_matrix * ops.boundary_weights[:, None]
    gram_w = (basis.w_matrix.T @ ww) / mesh.boundary_length
    out.append(_leq("spectra.w_gram_identity", np.max(np.abs(gram_w - np.eye(q.size))), 1e-8))
    # One C-contiguous row per mode, so each row sums as the mode's own vector would.
    length, weights = mesh.boundary_length, mesh.boundary_weights
    gap = np.ascontiguousarray(
        (basis.h_matrix[mesh.boundary_nodes] - np.sqrt(q / length) * basis.w_matrix).T
    )
    gap_norms = np.sqrt(np.sum(weights * gap * gap, axis=1)) / np.sqrt(length)
    # A unit-norm h_j scales as an inverse length: 1e-6 over the scale.
    out.append(_leq("spectra.trace_flux_identity", np.max(gap_norms, initial=0.0), 1e-6 / scale))
    flux = np.ascontiguousarray((basis.w_matrix / np.sqrt(q * length)).T)
    energy = np.sum(weights * flux * flux, axis=1)
    # Against the product's unit value: 1e-6.
    energy_gap = np.max(np.abs(energy * q - 1.0), initial=0.0)
    out.append(_leq("spectra.flux_energy_reciprocal", energy_gap, 1e-6))

    lam1 = dirichlet.lam[0]
    flux_ratio = 0.0
    norm_ratio = 0.0
    for _ in range(_SOURCES // _SOURCE_BLOCK):
        # Each row is one source, drawn as a loop over sources would draw it.
        f = rng.standard_normal((_SOURCE_BLOCK, mesh.vertices.shape[0])).T
        mf = ops.mass @ f
        u = ops.dirichlet_solve(mf)
        d = ops.boundary_flux(u, mf)
        f_sq = np.einsum("ij,ij->j", f, mf)
        d_sq = np.einsum("i,ij,ij->j", weights, d, d)
        flux_ratio = max(flux_ratio, np.max(d_sq * q[0] / f_sq))
        energy = np.einsum("ij,ij->j", u, ops.stiffness @ u) + f_sq
        norm_ratio = max(norm_ratio, np.max(energy / ((1.0 + 1.0 / lam1) * f_sq)))
    del f, mf, u  # not held through the eigensolves below
    # Ratios to their bounds: 1e-8 above one.
    out.append(_leq("spectra.flux_continuity_bound", flux_ratio, 1.0 + 1e-8))
    out.append(_leq("spectra.laplacian_norm_equivalence", norm_ratio, 1.0 + 1e-8))

    steklov = harmonic_steklov_eigensolve(mesh, min(8, mesh.boundary_nodes.size))
    # delta scales as an inverse length: 1e-8 over the scale.
    out.append(_leq("spectra.steklov_first_eigenvalue_zero", abs(steklov.delta[0]), 1e-8 / scale))
    s0 = steklov.s_matrix[:, 0]
    # 1e-8 of the mode's own value, +-1 for a constant of unit normalized norm.
    spread = float(np.max(np.abs(s0 - s0.mean())))
    out.append(_leq("spectra.steklov_first_mode_constant", spread, 1e-8 * abs(s0.mean())))
    coeffs = rng.standard_normal(steklov.delta.size)
    g = BoundaryField(mesh, steklov.s_matrix[mesh.boundary_nodes] @ coeffs)
    parseval = trace_sobolev_norm(g, 0.0, steklov)
    # Relative to the datum's norm: 1e-8.
    parseval_gap = abs(parseval - g.norm_normalized()) / g.norm_normalized()
    out.append(_leq("spectra.trace_norm_parseval", parseval_gap, 1e-8))

    # Each copy goes unnamed, so it, its operators and its LU are freed
    # before the next copy is built.  Both relative to q.  The rotated copy's
    # coordinates round: 4e-11 of the largest coordinate over the scale.
    q_moved = dbs_eigensolve(
        transform(mesh, rotation=0.7, offset=(0.31 * scale, -1.25 * scale)), min(5, basis.rank)
    ).q
    moved_gap = np.max(np.abs(q_moved - q[: q_moved.size]) / q[: q_moved.size])
    coords = float(np.max(np.abs(mesh.vertices)))
    out.append(_leq("spectra.rigid_motion_invariance", moved_gap, 4e-11 * coords / scale))
    # A power-of-two scaling is exact: 1e-10.
    q_scaled = dbs_eigensolve(transform(mesh, scale=2.0), min(5, basis.rank)).q
    scaled_gap = np.max(np.abs(2.0 * q_scaled - q[: q_scaled.size]) / q[: q_scaled.size])
    out.append(_leq("spectra.scaling_law", scaled_gap, 1e-10))
    if mesh.geometry[0] == "disk" and basis.rank >= 3:
        # A discretization gate, relative to q_2: 1e-3.
        out.append(_leq("spectra.disk_multiplicity_pairs", abs(q[2] - q[1]), 1e-3 * q[1]))
    return out


def _bergman_suite(
    mesh: Mesh, basis: SpectralBasis, dirichlet: DirichletSpectrum, rng: np.random.Generator
) -> list[CheckResult]:
    out = []
    n, scale = mesh.vertices.shape[0], mesh.scale
    f = InteriorField(mesh, rng.standard_normal(n))
    pf = bg.bergman_project(f, basis)
    ppf = bg.bergman_project(pf, basis)
    fnorm = f.norm_l2()
    # Each relative to the datum's norm (squared for Pythagoras): 1e-10, 1e-8, 1e-10, 1e-12.
    idem = InteriorField(mesh, ppf.values - pf.values).norm_l2() / fnorm
    out.append(_leq("bergman.projection_idempotent", idem, 1e-10))
    coeffs = basis.interior_coeffs(InteriorField(mesh, f.values - pf.values))
    out.append(_leq("bergman.residual_orthogonal", float(np.max(np.abs(coeffs))) / fnorm, 1e-8))
    res = InteriorField(mesh, f.values - pf.values)
    pyth = abs(fnorm**2 - pf.norm_l2() ** 2 - res.norm_l2() ** 2) / fnorm**2
    out.append(_leq("bergman.pythagoras", pyth, 1e-10))
    out.append(_leq("bergman.contraction", pf.norm_l2() / fnorm, 1.0 + 1e-12))

    area, _ = mesh.polygon_measures()
    centroid = mesh.vertices.mean(axis=0)
    ring = np.array(
        [[math.cos(t), math.sin(t)] for t in np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False)]
    )
    radius = 0.4 * math.sqrt(area / math.pi)
    margin = mesh.max_edge_length
    if np.min(mesh.distance_to_boundary(centroid + radius * ring)) < margin:
        # The circle leaves a thin domain's accurate part: shrink it so that
        # it keeps twice the point margin from the boundary.
        radius = max(float(mesh.distance_to_boundary(centroid)) - 2.0 * margin, 0.0)
    eigs = np.linalg.eigvalsh(bg.TruncatedKernel(basis).gram(centroid + radius * ring))
    # The kernel scales as an inverse area: -1e-8 over the scale squared.
    out.append(_geq("bergman.kernel_gram_psd", float(eigs.min()), -1e-8 / (scale * scale)))

    # The check is on ``bergman_project`` itself, so it projects each mode's field.
    projected = (bg.bergman_project(InteriorField(mesh, e), basis) for e in dirichlet.e_matrix.T)
    worst = min(p.norm_l2() for p in projected)
    # The modes have unit norm: 0.1 of it.
    out.append(_geq("bergman.projection_separates_dirichlet_modes", worst, 0.1))
    return out


def _poisson_suite(
    mesh: Mesh, basis: SpectralBasis, rng: np.random.Generator
) -> list[CheckResult]:
    out = []
    svd = ps.PoissonSvd.from_basis(basis)
    mass = operators(mesh).mass
    length, weights = svd.boundary_length, mesh.boundary_weights

    def l2_norms(v):
        return np.sqrt(np.maximum(np.einsum("ij,ij->j", v, mass @ v), 0.0))

    # E w_j for the first modes, from their coefficient matrix, against
    # sqrt(|bdy| / q_j) h_j.
    k = min(10, svd.rank)
    coeffs = basis.w_matrix.T @ (weights[:, None] * basis.w_matrix[:, :k]) / length
    ext = basis.h_matrix @ (np.sqrt(length / basis.q)[:, None] * coeffs)
    target = basis.h_matrix[:, :k] * np.sqrt(length / basis.q[:k])
    # L2 norms of unit boundary data's extensions scale as a length: 1e-8 of the scale.
    mapped = float(np.max(l2_norms(ext - target)))
    out.append(_leq("poisson.svd_maps_right_to_left", mapped, 1e-8 * mesh.scale))
    sv = svd.singular_values
    # Singular values scale as the root of a length: 1e-12 of the scale's root.
    rises = float(np.max(np.diff(sv)))
    out.append(_leq("poisson.singular_values_nonincreasing", rises, 1e-12 * math.sqrt(mesh.scale)))
    # A fixed discretization gate, relative to sigma_1: one half.
    out.append(_leq("poisson.singular_values_decay", float(sv[-1]), 0.5 * float(sv[0])))

    nb = mesh.boundary_nodes.size
    m = min(10, svd.rank - 1)
    worst_ratio = 0.0
    for _ in range(20):
        g = BoundaryField(mesh, rng.standard_normal(nb))
        worst_ratio = max(worst_ratio, ps.truncation_error_report(g, svd, m).ratio)
    # Ratios to the bound: 1e-6 above one, then 1e-6 from one.
    out.append(_leq("poisson.truncation_bound", worst_ratio, 1.0 + 1e-6))
    tail = ps.truncation_error_report(BoundaryField(mesh, basis.w_matrix[:, m]), svd, m)
    out.append(_leq("poisson.single_tail_mode_sharp", abs(tail.ratio - 1.0), 1e-6))

    # Column r - 1 of the partial sums: the rank-r truncated extension of g.
    g = BoundaryField(mesh, rng.standard_normal(nb))
    k = min(svd.rank, 12)
    terms = np.sqrt(length / basis.q[:k]) * basis.boundary_coeffs(g)[:k]
    truncated = np.cumsum(basis.h_matrix[:, :k] * terms, axis=1)
    errors = l2_norms(harmonic_extension(mesh, g).values[:, None] - truncated)
    # 1e-12 of the largest error, the first.
    rises = float(np.max(np.diff(errors)))
    out.append(_leq("poisson.truncation_error_monotone", rises, 1e-12 * errors[0]))
    return out


def run_suites(mesh: Mesh, suites=("all",), n_modes: int = 40) -> list[CheckResult]:
    """Run the named invariant suites on ``mesh`` and return all results."""
    chosen = set(SUITE_NAMES) if "all" in suites else set(suites)
    unknown = chosen - set(SUITE_NAMES)
    if unknown:
        raise ValueError(f"unknown suite(s): {sorted(unknown)}")
    basis_suites = chosen & {"spectra", "bergman", "poisson"}
    if basis_suites and n_modes < _MIN_BASIS_MODES:
        raise ValueError(f"the basis suites need at least {_MIN_BASIS_MODES} modes, got {n_modes}")
    rng = np.random.default_rng(_SEED)
    results = []
    if "mesh" in chosen:
        results.extend(_mesh_suite(mesh))
    if "solver" in chosen:
        results.extend(_solver_suite(mesh, rng))
    basis = dirichlet = None
    if basis_suites:
        n_modes = min(n_modes, mesh.boundary_nodes.size - 1)
        basis = dbs_eigensolve(mesh, n_modes)
    if chosen & {"spectra", "bergman"}:
        # One eigensolve for both: spectra reads lambda_1, bergman up to five modes.  A mesh
        # with no interior node asks for one, which the capacity check refuses by count.
        modes = min(5 if "bergman" in chosen else 1, max(mesh.interior_nodes.size, 1))
        dirichlet = dirichlet_laplacian_eigensolve(mesh, modes)
    if "spectra" in chosen:
        results.extend(_spectra_suite(mesh, basis, dirichlet, rng))
    if "bergman" in chosen:
        results.extend(_bergman_suite(mesh, basis, dirichlet, rng))
    if "poisson" in chosen:
        results.extend(_poisson_suite(mesh, basis, rng))
    return results
