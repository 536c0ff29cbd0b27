"""The three eigenproblems and their derived spectral quantities.

* :func:`dbs_eigensolve` - biharmonic Steklov eigenpairs with zero trace,
  where the eigenvalue couples the Laplacian trace to the normal flux.
  The discrete operator composition (harmonic extension, zero-trace
  Poisson solve, consistent flux) is self-adjoint and positive in the
  boundary L2 inner product:  ``<T g, g'> = <E g, E g'>_{L2(domain)}``.
  The solve is therefore posed as the symmetric generalized eigenproblem
  ``N g = beta W g`` with ``N`` the Gram matrix of discrete harmonic
  extensions and ``W`` the (diagonal) boundary quadrature, and the
  eigenvalues of interest are ``q = 1 / beta``.  This is equivalent to
  sequentially maximizing the boundary-flux functional over Laplacian-unit
  balls, but far better conditioned.
* :func:`harmonic_steklov_eigensolve` - Dirichlet-to-Neumann eigenpairs
  through the boundary Schur complement of the stiffness matrix.
* :func:`dirichlet_laplacian_eigensolve` - Dirichlet Laplacian eigenpairs
  with consistently recovered boundary fluxes.

The dense DBS and DtN branches read the Gram and Schur forms that
:meth:`fem.AssembledOperators.boundary_form` builds once per mesh from a
harmonic extension of the boundary identity: a DBS solve builds both from
one extension, a DtN solve on a fresh mesh only the Schur form.  The
shift-invert Dirichlet branch inverts with the mesh's cached interior LU
instead of factorizing again.  The Lanczos branches apply the operator
compositions matrix-free.  ``method="auto"`` picks dense or Lanczos by
:func:`_choose_method`'s cost model.

Degenerate eigenvalue clusters (relative gap below 1e-6) are rotated to a
deterministic basis: within each cluster the eigenvectors are re-combined
by Gram-Schmidt against coordinate directions in fixed node order, and
every eigenfield is scaled so its first significantly nonzero coefficient
is positive.  All returned orderings are deterministic.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import CapacityError, IterationLimitError, OutsideDomainError, TruncationWarning
from .fem import (
    BoundaryField,
    InteriorField,
    dtn_apply,
    interpolate_values,
    operators,
    t_apply,
)
from .meshing import Mesh, mesh_hash

__all__ = [
    "SpectralBasis",
    "SteklovSpectrum",
    "DirichletSpectrum",
    "HassellTaoReport",
    "dbs_eigensolve",
    "harmonic_steklov_eigensolve",
    "dirichlet_laplacian_eigensolve",
    "normal_derivative_series",
    "hassell_tao_check",
    "trace_sobolev_norm",
    "basis_to_json_dict",
    "basis_from_json_dict",
]

_CLUSTER_GAP = 1e-6
_EIG_TOL = 1e-10
_TRACE_TAIL_TOL = 1e-6
# On the disk the Hassell-Tao bound is attained: the ratio reads up to
# 1 + 4.5e-8 there (refine(disk 0.04), 60 modes), from rounding alone.
_HT_RATIO_TOL = 1e-6

_log = logging.getLogger("steklovsvd")


def _eigsh(op, n_modes: int, what: str, **kwargs):
    """``n_modes`` eigenpairs of ``op`` by the package's one ARPACK call, ascending.

    Seeded start vector, tolerance ``_EIG_TOL``; an unconverged run raises
    :class:`IterationLimitError` naming ``what``.  ``kwargs`` go to ``eigsh``.
    """
    v0 = np.random.default_rng(20160419).standard_normal(op.shape[0])
    try:
        vals, vecs = spla.eigsh(op, k=n_modes, tol=_EIG_TOL, v0=v0, **kwargs)
    except spla.ArpackNoConvergence as exc:
        raise IterationLimitError(f"{what} did not converge; partial results refused") from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _canonicalize_clusters(values: np.ndarray, columns: list[np.ndarray], reference: np.ndarray):
    """Rotate eigenvector clusters to a deterministic basis, in place.

    ``values`` are sorted eigenvalues; ``columns`` is a list of matrices
    whose columns transform identically under cluster rotations (they are
    all linear images of the same eigenvectors); ``reference`` supplies the
    rows (fixed node ordering) used to pick the rotation.
    """
    joined = np.abs(np.diff(values)) <= _CLUSTER_GAP * np.maximum(np.abs(values[1:]), 1e-300)
    # Each run of joined gaps [start, stop - 1) is the cluster [start, stop).
    runs = np.flatnonzero(np.diff(np.concatenate(([0], joined, [0])))).reshape(-1, 2)
    for start, stop in (runs + [0, 1]).tolist():
        d = stop - start
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


def _fix_signs(columns: list[np.ndarray], reference: np.ndarray):
    """Flip columns so the first significant coefficient of ``reference`` is positive.

    The significance cutoff sits well above discretization noise so the
    convention does not hinge on the sign of a nearly-zero coefficient.
    The flips are found first, as ``reference`` is often one of ``columns``.
    No ``n x M`` float temporary is made: ``|reference|`` is never formed, and
    a product with -1.0 flips a column in place with the same bits as negation.
    """
    cut = 1e-3 * np.maximum(reference.max(axis=0), -reference.min(axis=0))
    first = np.argmax((reference > cut) | (reference < -cut), axis=0)
    sign = np.where(reference[first, np.arange(reference.shape[1])] < 0, -1.0, 1.0)
    for mat in columns:
        mat *= sign


class SpectralBasis:
    """Ordered biharmonic Steklov eigenpairs as columns, plus vectorized accessors.

    Column ``j`` of ``b_matrix`` has zero trace and unit Laplacian norm,
    column ``j`` of ``h_matrix`` is its (harmonic) Laplacian with unit L2
    norm, and ``w_j = sqrt(q_j |bdy|) D_nu b_j`` has unit norm in the
    normalized boundary inner product.

    Attributes
    ----------
    mesh : Mesh
    q : ndarray, shape (M,)
        Eigenvalues in nondecreasing order, all strictly positive.
    b_matrix, h_matrix : ndarray, shape (n, M)
        Stacked coefficient vectors of the eigenfields.
    w_matrix : ndarray, shape (n_boundary, M)
        Stacked boundary functions ``w_j``.
    """

    def __init__(self, mesh: Mesh, q: np.ndarray, b_matrix, h_matrix, w_matrix):
        self.mesh = mesh
        self.q = np.asarray(q, dtype=float)
        self.b_matrix = np.asarray(b_matrix, dtype=float)
        self.h_matrix = np.asarray(h_matrix, dtype=float)
        self.w_matrix = np.asarray(w_matrix, dtype=float)
        self.boundary_length = mesh.boundary_length

    @property
    def rank(self) -> int:
        return self.q.size

    def truncation_rank(self, m: int | None) -> int:
        """``m`` checked against the rank (``None`` means the full rank).

        Raises :class:`CapacityError` unless ``1 <= m <= rank``.
        """
        m = self.rank if m is None else int(m)
        if m < 1 or m > self.rank:
            raise CapacityError(f"truncation rank must lie in [1, {self.rank}], got {m}")
        return m

    def interior_coeffs(self, f: InteriorField) -> np.ndarray:
        """Coefficients ``<f, h_j>`` in L2(domain), via the mass matrix."""
        ops = operators(self.mesh)
        return self.h_matrix.T @ (ops.mass @ f.values)

    def boundary_coeffs(self, g: BoundaryField) -> np.ndarray:
        """Coefficients ``<g, w_j>`` in the normalized boundary inner product."""
        weighted = self.mesh.boundary_weights * g.values
        return (self.w_matrix.T @ weighted) / self.boundary_length

    def harmonic_values(self, points, m: int | None = None):
        """Rows ``h_j(x)``, ``j < m``, interpolated at ``points`` (..., 2): shape (..., m).

        The series degrades near the boundary, so every point must keep a
        margin of one longest mesh edge from it, or an
        :class:`OutsideDomainError` names the first point that does not.
        """
        m = self.truncation_rank(m)
        margin = self.mesh.max_edge_length
        points = np.asarray(points, dtype=float)
        flat = points.reshape(-1, 2)
        # A point with a NaN coordinate fails the check too.
        close = np.flatnonzero(~(self.mesh.distance_to_boundary(flat) >= margin))
        if close.size:
            point = tuple(flat[close[0]].tolist())
            raise OutsideDomainError(f"point {point} is within the boundary margin {margin}")
        rows = interpolate_values(self.mesh, self.h_matrix[:, :m], flat)
        return rows.reshape(points.shape[:-1] + (m,))


@dataclass(eq=False)
class SteklovSpectrum:
    """Dirichlet-to-Neumann eigenvalues ``delta`` (M,), ascending from zero, and
    harmonic eigenfields ``s_matrix`` (n, M) with orthonormal traces."""

    mesh: Mesh
    delta: np.ndarray
    s_matrix: np.ndarray

    # Per-mode views for perfbench/workloads.py; they go when ROADMAP item 10 edits it.
    def __iter__(self):
        for delta, s in zip(self.delta.tolist(), self.s_matrix.T):
            yield SimpleNamespace(delta=delta, s=InteriorField(self.mesh, s))


@dataclass(eq=False)
class DirichletSpectrum:
    """Dirichlet Laplacian eigenvalues ``lam`` (M,), ascending, L2-orthonormal
    eigenfields ``e_matrix`` (n, M) and their recovered fluxes ``flux_matrix``
    (n_boundary, M)."""

    mesh: Mesh
    lam: np.ndarray
    e_matrix: np.ndarray
    flux_matrix: np.ndarray

    # Per-mode views for perfbench/workloads.py; they go when ROADMAP item 10 edits it.
    def __iter__(self):
        for lam, e, flux in zip(self.lam.tolist(), self.e_matrix.T, self.flux_matrix.T):
            yield SimpleNamespace(
                lam=lam, e=InteriorField(self.mesh, e), flux=BoundaryField(self.mesh, flux)
            )


def _check_modes(m: int, limit: int, what: str):
    if m < 1:
        raise CapacityError(f"need at least one mode, got M={m}")
    if m > limit:
        raise CapacityError(f"M={m} exceeds the {what} capacity {limit} of this mesh")


# Cost model of ``method="auto"``, in LU-solve columns: the time of one
# single-right-hand-side solve with the interior LU (about 2e-9 s per LU
# nonzero, one BLAS thread).  Fitted on disk and rectangle meshes of 566 to
# 35,207 vertices:
# * one column of the identity extension, solved in blocks, costs 0.49-0.65
#   of a single solve;
# * the Gram product costs 0.03 columns per unit of n * nb**2 / (LU nonzeros),
#   read from the mesh's factor.
# Dense is never chosen when the n x nb extension that builds either form
# (8 n nb bytes) would exceed the memory ceiling.
_BLOCK_COLUMN = 0.55
_GRAM_COST = 0.03
_DENSE_MEMORY_LIMIT = 2**28  # bytes

# Boundary problem -> (form of the dense branch, ARPACK end, LU-solve
# columns per matvec, ARPACK matvecs for M modes on nb boundary nodes).
# DBS (t_apply, two solves timed as 2.2-2.9 single ones; M largest)
# measured 34, 124, 153 and 253 matvecs at M = 5, 40, 60 and 100, alike
# from 157 to 410 boundary nodes.  DtN (dtn_apply, M smallest) grows with
# the spread of its spectrum, which is about nb: 114, 208 and 313 at M = 8
# and nb = 79, 206 and 410.
_PROBLEMS = {
    "dbs": ("gram", "LA", 2.25, lambda m, nb: 22 + 2.3 * m),
    "dtn": ("schur", "SA", 1, lambda m, nb: (14 + 0.06 * m) * math.sqrt(nb)),
}


class MethodChoice(NamedTuple):
    method: str
    reason: str  # "cached forms", "memory ceiling" or "costs"
    dense_cost: float  # LU-solve columns
    lanczos_cost: float


def _choose_method(
    problem: str, n: int, nb: int, n_modes: int, lu_nnz: int, cached: bool
) -> MethodChoice:
    """Dense or Lanczos for ``n_modes`` modes of ``problem`` ("dbs" or "dtn").

    ``n`` vertices, ``nb`` boundary nodes, ``lu_nnz`` stored entries of the
    interior LU, ``cached`` whether the mesh holds the dense branch's form
    already.  Dense costs nothing beyond ``eigh`` with the form cached;
    otherwise it extends the identity (and for DBS multiplies out the Gram
    form).  Lanczos costs its matvecs, at most ``nb + 1`` (ARPACK's Krylov
    space is then the whole boundary space).
    """
    form, _, solves, matvecs = _PROBLEMS[problem]
    lanczos = solves * min(matvecs(n_modes, nb), nb + 1)
    if cached:
        return MethodChoice("dense", "cached forms", 0.0, lanczos)
    dense = _BLOCK_COLUMN * nb
    if form == "gram":
        dense += _GRAM_COST * n * nb * nb / max(lu_nnz, 1)
    if 8 * n * nb > _DENSE_MEMORY_LIMIT:
        return MethodChoice("lanczos", "memory ceiling", dense, lanczos)
    return MethodChoice("dense" if dense <= lanczos else "lanczos", "costs", dense, lanczos)


def _boundary_spectrum(mesh, n_modes: int, method: str, problem: str, apply):
    """``n_modes`` extreme eigenpairs of ``W^-1/2 F W^-1/2``, ``W`` the boundary quadrature.

    ``F`` is the problem's boundary form (DBS: Gram, DtN: Schur) for
    "dense" and the matrix-free ``apply`` for "lanczos"; "auto" asks
    :func:`_choose_method`.  Eigenvalues come largest first for DBS,
    smallest first for DtN, with their columns ``g`` (weights removed).
    """
    ops = operators(mesh)
    nb = ops.boundary_idx.size
    form, which, _, _ = _PROBLEMS[problem]
    if method == "auto":
        # Both methods solve with the LU, so reading its size here costs nothing.
        lu_nnz = ops.interior_lu.nnz
        choice = _choose_method(
            problem, ops.n_vertices, nb, n_modes, lu_nnz, ops.has_boundary_form(form)
        )
        _log.debug(
            "%s eigensolve of %d modes (%d vertices, %d boundary nodes, %d factor entries): "
            "%s by %s, dense %.0f vs lanczos %.0f LU-solve columns",
            problem, n_modes, ops.n_vertices, nb, lu_nnz, *choice,
        )  # fmt: skip
        method = choice.method
    sw = np.sqrt(ops.boundary_weights)
    if method == "dense":
        f = ops.boundary_form(form)
        # The Gram form is exactly symmetric already, so this is a no-op for it.
        vals, vecs = sla.eigh(0.5 * (f + f.T) / sw[:, None] / sw[None, :])
    elif method == "lanczos":
        # ARPACK finds at most nb - 1 pairs of an nb x nb operator.
        _check_modes(n_modes, nb - 1, "Lanczos")

        def matvec(y):
            return sw * apply(mesh, BoundaryField(mesh, y / sw)).values

        op = spla.LinearOperator((nb, nb), matvec=matvec, dtype=float)
        vals, vecs = _eigsh(op, n_modes, "Lanczos iteration", which=which)
    else:
        raise ValueError(f"unknown method {method!r}")
    pick = slice(None, None, -1) if which == "LA" else slice(None)
    return vals[pick][:n_modes], (vecs / sw[:, None])[:, pick][:, :n_modes]


def dbs_eigensolve(mesh: Mesh, n_modes: int, method: str = "auto") -> SpectralBasis:
    """Smallest ``n_modes`` biharmonic Steklov eigenpairs of ``mesh``.

    Parameters
    ----------
    mesh : Mesh
    n_modes : int
        Number of requested eigenpairs; at most ``boundary nodes - 1``.
    method : {"auto", "dense", "lanczos"}
        "dense" solves the full boundary problem through the mesh's Gram
        form; "lanczos" applies the operator composition iteratively.
        "auto" picks dense when the mesh holds the Gram form already,
        Lanczos when the dense extension would exceed 256 MiB
        (``8 n nb`` bytes, ``n`` vertices, ``nb`` boundary nodes), and
        otherwise the cheaper by a cost model counted in LU solves.  The
        choice depends only on ``n``, ``nb``, the stored entries of the
        mesh's interior LU, ``n_modes``, the problem and which boundary
        forms the mesh has cached; it is logged at DEBUG on the
        ``steklovsvd`` logger.

    Returns
    -------
    SpectralBasis
        Eigenvalues ascending; eigenfields normalized and orthonormal as
        described on :class:`SpectralBasis`.
    """
    ops = operators(mesh)
    _check_modes(n_modes, ops.boundary_idx.size - 1, "boundary-node")
    beta, g_cols = _boundary_spectrum(mesh, n_modes, method, "dbs", t_apply)
    if beta[-1] <= 0:
        raise IterationLimitError("eigensolver returned a nonpositive spectrum")
    q = 1.0 / beta

    h_mat = ops.extend_boundary_columns(g_cols)
    mh = ops.mass @ h_mat
    scale = np.sqrt(np.einsum("ij,ij->j", h_mat, mh))
    h_mat /= scale
    mh /= scale
    g_cols = g_cols / scale
    b_mat = ops.dirichlet_solve(mh)
    w_mat = np.sqrt(q * mesh.boundary_length)[None, :] * ops.boundary_flux(b_mat, mh)
    del mh  # not held through the rotation and the sign fix

    # Rotate the finished orthonormal systems: cluster rotations then leave
    # the Gram identities at rounding level, while the per-mode coupling
    # identities only move at the (sub-1e-6) eigenvalue split of the cluster.
    _canonicalize_clusters(q, [h_mat, b_mat, w_mat], g_cols)
    _fix_signs([h_mat, b_mat, w_mat], h_mat)
    return SpectralBasis(mesh, q, b_mat, h_mat, w_mat)


def harmonic_steklov_eigensolve(mesh: Mesh, n_modes: int, method: str = "auto") -> SteklovSpectrum:
    """Smallest ``n_modes`` Dirichlet-to-Neumann eigenpairs.

    The first eigenvalue is zero with constant eigenfunction; traces are
    orthonormal in the normalized boundary inner product.  ``method`` is
    chosen as in :func:`dbs_eigensolve`, with the Schur form in place of
    the Gram form: "dense" builds only the Schur form on a mesh that has
    neither, and "auto" picks dense whenever the Schur form is cached
    (any dense solve on the mesh leaves it).  The build holds the whole
    ``n x nb`` extension; "auto" bounds it by 256 MiB, "dense" does not.
    """
    ops = operators(mesh)
    _check_modes(n_modes, ops.boundary_idx.size, "boundary-node")
    delta, g_cols = _boundary_spectrum(mesh, n_modes, method, "dtn", dtn_apply)
    if delta[0] < -1e-8 / mesh.scale:  # delta is an inverse length
        raise IterationLimitError("Dirichlet-to-Neumann spectrum came out negative")
    delta = np.maximum(delta, 0.0)
    g_cols = g_cols * np.sqrt(mesh.boundary_length)

    _canonicalize_clusters(delta, [g_cols], g_cols)
    s_mat = ops.extend_boundary_columns(g_cols)
    _fix_signs([s_mat], s_mat)
    return SteklovSpectrum(mesh, delta, s_mat)


def dirichlet_laplacian_eigensolve(mesh: Mesh, n_modes: int) -> DirichletSpectrum:
    """Smallest ``n_modes`` Dirichlet Laplacian eigenpairs, L2-orthonormal.

    Dense ``eigh`` with at most 200 interior nodes or ``n_modes > interior
    nodes - 2``, else shift-invert ARPACK about zero with the mesh's cached
    interior LU (the crossover of 5 modes, with one BLAS thread); the cost
    model of ``method="auto"`` does not apply.
    """
    ops = operators(mesh)
    ni = ops.interior_idx.size
    _check_modes(n_modes, ni, "interior-node")
    a_ii = ops.stiffness[ops.interior_idx][:, ops.interior_idx]
    m_ii = ops.mass[ops.interior_idx][:, ops.interior_idx]
    if ni <= 200 or n_modes > ni - 2:
        vals, vecs = sla.eigh(
            a_ii.toarray(), m_ii.toarray(), subset_by_index=[0, n_modes - 1]
        )
    else:
        # Shift-invert about zero: the inverse is the mesh's cached LU.
        a_inv = spla.LinearOperator((ni, ni), matvec=ops.interior_lu.solve, dtype=float)
        vals, vecs = _eigsh(
            a_ii, n_modes, "shift-invert Lanczos",
            M=m_ii, sigma=0.0, which="LM", OPinv=a_inv,
        )  # fmt: skip
    if vals[0] <= 0:
        raise IterationLimitError("Dirichlet spectrum came out nonpositive")

    e_mat = np.zeros((mesh.vertices.shape[0], n_modes))
    e_mat[ops.interior_idx] = vecs
    scale = np.sqrt(np.einsum("ij,ij->j", e_mat, ops.mass @ e_mat))
    e_mat /= scale
    _canonicalize_clusters(vals, [e_mat], e_mat[ops.interior_idx])
    _fix_signs([e_mat], e_mat)

    # The flux of every mode at once, with f = -lam e.
    flux = ops.boundary_flux(e_mat, ops.mass @ (e_mat * -vals))
    return DirichletSpectrum(mesh, vals, e_mat, flux)


def normal_derivative_series(
    e_coeffs, lam: float, basis: SpectralBasis
) -> BoundaryField:
    """Truncated flux series of a Dirichlet eigenfunction.

    Given interior coefficients ``e_coeffs[j] = <e, h_j>`` and the
    eigenvalue, returns
    ``- lam * sum_j e_coeffs[j] / sqrt(|bdy| q_j) * w_j``,
    which converges to the recovered flux of ``e`` as the rank grows.
    """
    if not lam > 0:
        raise ValueError(f"Dirichlet eigenvalue must be positive, got {lam}")
    c = np.asarray(e_coeffs, dtype=float)
    if c.size > basis.rank:
        raise CapacityError("more coefficients than basis modes")
    k = c.size
    weights = -lam * c / np.sqrt(basis.boundary_length * basis.q[:k])
    return BoundaryField(basis.mesh, basis.w_matrix[:, :k] @ weights)


def _check_same_mesh(a: Mesh, b: Mesh, what: str):
    """Refuse inputs from two meshes; equal meshes are equal by their text."""
    if a is not b and mesh_hash(a) != mesh_hash(b):
        raise ValueError(f"{what} come from different meshes")


@dataclass(frozen=True)
class HassellTaoReport:
    """Boundary flux energy of each Dirichlet eigenfunction against its bound, per mode."""

    flux_sq: np.ndarray
    bound: np.ndarray
    bound_weak: np.ndarray
    ratio: np.ndarray


def hassell_tao_check(dirichlet: DirichletSpectrum, basis: SpectralBasis) -> HassellTaoReport:
    """Check that each mode's flux energy obeys ``lam**2 ||P_H e||**2 / q_1``.

    ``flux_sq`` is the squared boundary L2 norm of the recovered flux;
    ``bound`` uses the harmonic projection of the eigenfunction, and
    ``bound_weak`` replaces that projection norm by its upper bound one.

    The projection is taken onto the basis's ``M`` modes, so below full
    rank (``M`` less than the boundary-node count) it can fall short of
    ``||P_H e||`` and ``bound`` with it.  A :class:`TruncationWarning` is
    raised when a flux then exceeds its ``bound``: the basis is too short
    for that eigenfunction, and the report does not bound its flux.
    """
    _check_same_mesh(dirichlet.mesh, basis.mesh, "the Dirichlet spectrum and the basis")
    e, flux, lam = dirichlet.e_matrix, dirichlet.flux_matrix, dirichlet.lam
    me = operators(basis.mesh).mass @ e
    norm = np.sqrt(np.einsum("ij,ij->j", e, me))
    if not np.all(np.abs(norm - 1.0) <= 1e-6):
        raise ValueError(f"eigenfunctions must have unit L2 norm, got {norm.min()} to {norm.max()}")
    flux_sq = np.einsum("i,ij,ij->j", basis.mesh.boundary_weights, flux, flux)
    coeffs = basis.h_matrix.T @ me
    bound_weak = lam**2 / basis.q[0]
    bound = bound_weak * np.einsum("ij,ij->j", coeffs, coeffs)
    ratio = flux_sq / bound
    if ratio.max() > 1 + _HT_RATIO_TOL and basis.rank < basis.mesh.boundary_nodes.size:
        # The excess, not the ratio: a ratio of 1 + 2e-6 would print as 1.
        warnings.warn(
            f"flux energy exceeds the truncated bound by up to {ratio.max() - 1:.4g} times"
            f" the bound; the {basis.rank}-mode basis misses part of the harmonic"
            " projection, extend it",
            TruncationWarning,
            stacklevel=2,
        )
    return HassellTaoReport(flux_sq, bound, bound_weak, ratio)


def trace_sobolev_norm(g: BoundaryField, s: float, steklov: SteklovSpectrum) -> float:
    """Spectrally defined trace-space norm of boundary data.

    Computes ``(sum_j (1 + delta_j)**(2 s) |<g, s_j>|**2)**0.5`` over the
    supplied Dirichlet-to-Neumann eigenpairs.  ``s = 0`` reproduces the
    normalized boundary norm by Parseval; negative ``s`` yields the dual
    pairing weights.  When the captured coefficients miss more than
    ``1e-6`` of the squared norm of ``g``, a :class:`TruncationWarning`
    is attached to the result.
    """
    if not abs(s) <= 1:
        raise ValueError(f"order s must satisfy |s| <= 1, got {s}")
    _check_same_mesh(g.mesh, steklov.mesh, "the boundary data and the spectrum")
    traces = steklov.s_matrix[g.mesh.boundary_nodes]
    ghat = traces.T @ (g.mesh.boundary_weights * g.values) / g.mesh.boundary_length
    total = g.inner_normalized(g)
    tail = total - float(ghat @ ghat)
    if tail > _TRACE_TAIL_TOL * max(total, 1e-300):
        warnings.warn(
            f"coefficient tail {tail:.3e} above tolerance; extend the eigenbasis",
            TruncationWarning,
            stacklevel=2,
        )
    return float(np.sqrt(np.sum((1.0 + steklov.delta) ** (2.0 * s) * ghat**2)))


# -- basis serialization ------------------------------------------------------------


def basis_to_json_dict(basis: SpectralBasis, domain: str) -> dict:
    """Schema: domain, boundary_length, M, q, b, h, w, mesh_hash."""
    return {
        "domain": domain,
        "boundary_length": basis.boundary_length,
        "M": int(basis.rank),
        "q": basis.q,
        "b": basis.b_matrix.T,
        "h": basis.h_matrix.T,
        "w": basis.w_matrix.T,
        "mesh_hash": mesh_hash(basis.mesh),
    }


def basis_from_json_dict(data: dict, mesh: Mesh) -> SpectralBasis:
    """Rebuild a basis against ``mesh``; the stored mesh hash must match.

    ``q`` must hold ``M`` positive values in nondecreasing order, ``b`` and
    ``h`` ``M`` rows of one value per vertex and ``w`` ``M`` rows of one per
    boundary node, all finite; otherwise a ``ValueError`` names the entry.
    """
    if data["mesh_hash"] != mesh_hash(mesh):
        raise ValueError("basis was computed on a different mesh (hash mismatch)")
    m, n, nb = data["M"], mesh.vertices.shape[0], mesh.boundary_nodes.size
    if type(m) is not int or m < 1:
        raise ValueError(f"basis entry 'M' must be a positive integer, got {m!r}")
    arrays = {}
    for key, shape, dims in (
        ("q", (m,), "M,"), ("b", (m, n), "M, vertices"),
        ("h", (m, n), "M, vertices"), ("w", (m, nb), "M, boundary nodes"),
    ):  # fmt: skip
        try:
            arrays[key] = a = np.asarray(data[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"basis entry '{key}' is not an array of numbers") from exc
        if a.shape != shape:
            raise ValueError(
                f"basis entry '{key}' has shape {a.shape}, expected ({dims}) = {shape}"
            )
        if not np.all(np.isfinite(a)):
            raise ValueError(f"basis entry '{key}' holds a non-finite value")
    if not (np.all(arrays["q"] > 0) and np.all(np.diff(arrays["q"]) >= 0)):
        raise ValueError("basis entry 'q' must be positive and nondecreasing")
    return SpectralBasis(mesh, arrays["q"], arrays["b"].T, arrays["h"].T, arrays["w"].T)
