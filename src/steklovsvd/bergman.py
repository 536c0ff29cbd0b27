"""Harmonic Bergman constructions on top of a spectral basis.

The Laplacians ``h_j`` of the biharmonic Steklov eigenfields form an
L2-orthonormal set of harmonic functions; truncating at rank ``M`` gives

* the harmonic projection ``P_H f = sum_j <f, h_j> h_j``,
* the reproducing kernel ``R_M(x, y) = sum_j h_j(x) h_j(y)``, which acts
  as a delta function on harmonic functions,
* the biharmonic potential splitting ``f = P_H f + lap(psi)`` with ``psi``
  of zero trace and (up to truncation) zero flux,
* the minimal-energy biharmonic extension of Neumann boundary data, and
* the harmonic trace series mapping interior coefficients to boundary data.

Kernel point evaluation reads ``h_j`` through
:meth:`SpectralBasis.harmonic_values`, which interpolates and is only
accurate away from the boundary; evaluation points must keep a fixed
margin of one longest mesh edge from the boundary.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._serialize import iter_csv
from .errors import CapacityError, TruncationWarning
from .fem import BoundaryField, InteriorField, operators
from .spectra import SpectralBasis

_FLUX_TOL = 1e-2
_SETTLE_TOL = 1e-3
_NEUMANN_TAIL_TOL = 1e-4

__all__ = [
    "bergman_project",
    "TruncatedKernel",
    "reproducing_kernel_eval",
    "BergmanDecomposition",
    "biharmonic_potential",
    "neumann_biharmonic_extension",
    "harmonic_trace",
    "iter_kernel_grid_csv",
]


def bergman_project(f: InteriorField, basis: SpectralBasis, m: int | None = None) -> InteriorField:
    """Rank-``m`` harmonic projection of ``f`` (idempotent on its range)."""
    m = basis.truncation_rank(m)
    coeffs = basis.interior_coeffs(f)[:m]
    return InteriorField(basis.mesh, basis.h_matrix[:, :m] @ coeffs)


class TruncatedKernel:
    """Rank-``m`` reproducing kernel of the harmonic Bergman space.

    Symmetric and positive semidefinite by construction.  Evaluation
    points must keep one longest mesh edge from the boundary, as
    :meth:`SpectralBasis.harmonic_values` checks.
    """

    def __init__(self, basis: SpectralBasis, m: int | None = None):
        self.basis = basis
        self.m = basis.truncation_rank(m)

    def eval(self, x, y) -> float:
        hx, hy = self.basis.harmonic_values([x, y], self.m)
        return float(hx @ hy)

    def gram(self, points) -> np.ndarray:
        """Kernel Gram matrix of a point set (positive semidefinite)."""
        v = self.basis.harmonic_values(points, self.m)
        return v @ v.T

    def values_on_vertices(self, x) -> np.ndarray:
        """Raw truncated series ``R_M(x, .)`` sampled at every mesh vertex."""
        hx = self.basis.harmonic_values(x, self.m)
        return self.basis.h_matrix[:, : self.m] @ hx


def reproducing_kernel_eval(basis: SpectralBasis, x, y, m: int | None = None) -> float:
    """Evaluate the rank-``m`` Bergman reproducing kernel at two interior points."""
    return TruncatedKernel(basis, m).eval(x, y)


@dataclass(eq=False)
class BergmanDecomposition:
    """Orthogonal split ``f = harmonic + lap(potential)``.

    ``potential`` has zero trace; ``flux_norm`` is the normalized boundary
    norm of its recovered flux, which vanishes as the truncation rank and
    the mesh are refined.  ``converged`` records whether the flux is at most
    ``1e-2`` times the root-mean-square of ``f`` times the mesh's ``scale``
    (the flux of a potential of ``f`` is ``f`` times a length).
    """

    harmonic: InteriorField
    potential: InteriorField
    remainder: InteriorField
    flux_norm: float
    converged: bool


def biharmonic_potential(
    f: InteriorField,
    basis: SpectralBasis,
    m: int | None = None,
) -> BergmanDecomposition:
    """Biharmonic potential of ``f``: zero-trace ``psi`` with ``lap psi = f - P_H f``.

    The harmonic part is removed by basis truncation and the potential is
    recovered with a single Dirichlet solve; membership in the zero-flux
    class is checked a posteriori through the recovered flux.  A
    :class:`TruncationWarning` is raised when the projection has not yet
    settled between ranks ``m - 5`` and ``m`` (relative change above 1e-3).
    """
    m = basis.truncation_rank(m)
    coeffs = basis.interior_coeffs(f)[:m]
    scale = max(f.norm_l2(), 1e-300)
    if m > 5:
        settle = float(np.sqrt(np.sum(coeffs[m - 5 :] ** 2))) / scale
        if settle > _SETTLE_TOL:
            warnings.warn(
                f"projection still moving between ranks {m - 5} and {m} "
                f"(relative change {settle:.3e})",
                TruncationWarning,
                stacklevel=2,
            )
    harmonic = InteriorField(basis.mesh, basis.h_matrix[:, :m] @ coeffs)
    remainder = InteriorField(basis.mesh, f.values - harmonic.values)
    ops = operators(basis.mesh)
    mr = ops.mass @ remainder.values
    psi = InteriorField(basis.mesh, ops.dirichlet_solve(mr))
    flux_norm = BoundaryField(basis.mesh, ops.boundary_flux(psi.values, mr)).norm_normalized()
    rms = scale / np.sqrt(basis.mesh.area)
    converged = bool(flux_norm <= _FLUX_TOL * rms * basis.mesh.scale)
    return BergmanDecomposition(harmonic, psi, remainder, flux_norm, converged)


def neumann_biharmonic_extension(
    eta: BoundaryField,
    basis: SpectralBasis,
    m: int | None = None,
) -> InteriorField:
    """Minimal-Laplacian-norm biharmonic field with zero trace and flux ``eta``.

    Expands ``eta`` over the boundary functions ``w_j`` and returns
    ``sum_j sqrt(q_j |bdy|) <eta, w_j> b_j``; its squared Laplacian norm is
    ``|bdy| * sum_j q_j <eta, w_j>**2``.  A :class:`TruncationWarning` is
    raised when more than 1e-4 of the squared norm of ``eta`` lies beyond
    rank ``m``.
    """
    m = basis.truncation_rank(m)
    ghat = basis.boundary_coeffs(eta)[:m]
    total = eta.inner_normalized(eta)
    tail = total - float(ghat @ ghat)
    if tail > _NEUMANN_TAIL_TOL * max(total, 1e-300):
        warnings.warn(
            f"flux data tail {tail:.3e} above tolerance; extend the basis",
            TruncationWarning,
            stacklevel=2,
        )
    weights = np.sqrt(basis.q[:m] * basis.boundary_length) * ghat
    return InteriorField(basis.mesh, basis.b_matrix[:, :m] @ weights)


def harmonic_trace(k_coeffs, basis: SpectralBasis) -> BoundaryField:
    """Boundary trace of a Bergman-space member given by its coefficients.

    Returns ``|bdy|**-0.5 * sum_j sqrt(q_j) k_coeffs[j] w_j``; the growth
    of the weights with ``j`` reflects that the trace map is unbounded.
    """
    c = np.asarray(k_coeffs, dtype=float)
    if c.size > basis.rank:
        raise CapacityError("more coefficients than basis modes")
    k = c.size
    weights = np.sqrt(basis.q[:k]) * c / np.sqrt(basis.boundary_length)
    return BoundaryField(basis.mesh, basis.w_matrix[:, :k] @ weights)


def iter_kernel_grid_csv(basis: SpectralBasis, x, m: int | None = None):
    """CSV ``x,y,value`` of the truncated kernel slice ``R_M(x, .)`` on the
    vertices, as bytes parts; the slice is computed before this returns."""
    values = TruncatedKernel(basis, m).values_on_vertices(x)
    return iter_csv("x,y,value", np.column_stack([basis.mesh.vertices, values]))
