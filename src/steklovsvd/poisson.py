"""Singular value decomposition of the harmonic extension (Poisson) operator.

Viewed as a map from boundary L2 data to square-integrable harmonic
functions, the extension operator sends the orthonormal boundary system
``w_j`` to the orthonormal harmonic system ``h_j`` scaled by
``sqrt(|bdy| / q_j)``; with the normalization conventions used here its
operator norm from L2(dsigma) to L2(domain) is ``1 / sqrt(q_1)`` and its
kernel - the Poisson kernel - has the rank-``M`` truncation

    P_M(x, z) = sum_{j<=M} h_j(x) w_j(z) / sqrt(|bdy| q_j).

Truncation errors obey ``||E g - E_M g|| <= sqrt(|bdy| / q_{M+1})
||g - g_M||_normalized`` with ``g_M`` the rank-``M`` boundary projection.

Normalization ledger: boundary coefficients always use the normalized
inner product (measure divided by boundary length); operator norms are
reported for the L2(dsigma) -> L2(domain) convention, with the normalized
variant labeled separately where both appear in reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._serialize import iter_csv
from .errors import CapacityError, OutsideDomainError
from .fem import BoundaryField, InteriorField, harmonic_extension
from .spectra import SpectralBasis

__all__ = [
    "PoissonSvd",
    "extend_harmonic_svd",
    "poisson_kernel_eval",
    "kernel_slice",
    "iter_kernel_slice_csv",
    "extension_norm",
    "TruncationReport",
    "truncation_error_report",
]


@dataclass(eq=False)
class PoissonSvd:
    """Singular triples of the harmonic extension operator.

    Right singular vectors are the boundary functions ``w_j``, left
    singular vectors are the harmonic fields ``h_j``, and the singular
    values ``1 / sqrt(q_j)`` are nonincreasing and tend to zero.
    """

    basis: SpectralBasis
    singular_values: np.ndarray = field(init=False)

    def __post_init__(self):
        self.singular_values = 1.0 / np.sqrt(self.basis.q)

    @classmethod
    def from_basis(cls, basis: SpectralBasis) -> "PoissonSvd":
        return cls(basis)

    @property
    def rank(self) -> int:
        return self.basis.rank

    @property
    def boundary_length(self) -> float:
        return self.basis.boundary_length


def extend_harmonic_svd(g: BoundaryField, svd: PoissonSvd, m: int | None = None) -> InteriorField:
    """Rank-``m`` truncated harmonic extension of boundary data ``g``."""
    basis = svd.basis
    m = basis.truncation_rank(m)
    ghat = basis.boundary_coeffs(g)[:m]
    weights = np.sqrt(svd.boundary_length / basis.q[:m]) * ghat
    return InteriorField(basis.mesh, basis.h_matrix[:, :m] @ weights)


def _boundary_node_index(svd: PoissonSvd, z) -> int:
    mesh = svd.basis.mesh
    z = np.asarray(z, dtype=float)
    coords = mesh.vertices[mesh.boundary_nodes]
    dist = np.hypot(*(coords - z).T)
    idx = int(np.argmin(dist))
    if dist[idx] > 1e-8 * mesh.scale:
        raise OutsideDomainError(f"{tuple(z.tolist())} is not a boundary node of the mesh")
    return idx


def poisson_kernel_eval(svd: PoissonSvd, m: int | None, x, z) -> float:
    """Truncated Poisson kernel ``P_M(x, z)`` at an interior point and boundary node.

    ``x`` must keep one longest mesh edge from the boundary (the series
    degrades there); ``z`` must coincide with a boundary node.  The value
    is the entry of :func:`kernel_slice` at that node, bit for bit.
    """
    _, values = kernel_slice(svd, x, m)
    return float(values[_boundary_node_index(svd, z)])


def kernel_slice(svd: PoissonSvd, x, m: int | None = None):
    """Kernel slice ``P_M(x, .)`` over all boundary nodes.

    Returns ``(arclength, values)`` where ``arclength`` is the cumulative
    boundary coordinate of each node along its loop.
    """
    basis = svd.basis
    m = basis.truncation_rank(m)
    weights = basis.harmonic_values(x, m) / np.sqrt(svd.boundary_length * basis.q[:m])
    values = basis.w_matrix[:, :m] @ weights

    mesh = basis.mesh
    arclength = np.empty(mesh.boundary_nodes.size)
    pos = 0
    # Boundary edges follow the nodes: a loop's edges sit where its nodes do.
    for loop in mesh.boundary_loops:
        lengths = mesh.edge_weights[pos : pos + len(loop)]
        arclength[pos : pos + len(loop)] = np.concatenate([[0.0], np.cumsum(lengths[:-1])])
        pos += len(loop)
    return arclength, values


def iter_kernel_slice_csv(svd: PoissonSvd, x, m: int | None = None):
    """CSV ``z_arclength,value`` of the kernel slice at fixed interior ``x``,
    as bytes parts; the slice is computed before this returns."""
    return iter_csv("z_arclength,value", np.column_stack(kernel_slice(svd, x, m)))


def extension_norm(svd: PoissonSvd) -> float:
    """Operator norm of the harmonic extension, L2(dsigma) -> L2(domain).

    Equals ``1 / sqrt(q_1)`` by the singular value representation.
    """
    return float(svd.singular_values[0])


@dataclass(frozen=True)
class TruncationReport:
    """Truncation error of the rank-``M`` Poisson operator against its bound."""

    M: int
    error: float
    bound: float
    ratio: float
    norm_convention: str = "dsigma"


def truncation_error_report(
    g: BoundaryField, svd: PoissonSvd, m: int
) -> TruncationReport:
    """Compare ``||E g - E_M g||`` with ``sqrt(|bdy|/q_{M+1}) ||g - g_M||``.

    The reference extension is the finite element harmonic extension on
    the same mesh, so the report isolates truncation error from
    discretization error.  The ratio lies in ``[0, 1]`` up to rounding;
    it is defined as zero when ``g`` has no tail beyond rank ``m``.
    """
    m = int(m)
    if m < 1 or m + 1 > svd.rank:
        raise CapacityError(
            f"need m + 1 <= rank, got m={m} with rank {svd.rank}"
        )
    basis = svd.basis
    full = harmonic_extension(basis.mesh, g)
    truncated = extend_harmonic_svd(g, svd, m)
    diff = InteriorField(basis.mesh, full.values - truncated.values)
    error = diff.norm_l2()
    ghat = basis.boundary_coeffs(g)[:m]
    tail_sq = max(g.inner_normalized(g) - float(ghat @ ghat), 0.0)
    bound = float(np.sqrt(svd.boundary_length / basis.q[m] * tail_sq))
    # The bound is a norm of g times a length: below 1e-14 of that, g has no tail.
    ratio = 0.0 if bound <= 1e-14 * g.norm_normalized() * basis.mesh.scale else error / bound
    return TruncationReport(m, error, bound, ratio)
