"""Biharmonic Steklov spectra, harmonic Bergman bases, and the Poisson SVD.

The package computes, on triangulated planar domains:

* eigenpairs of the biharmonic Steklov problem with zero trace, whose
  eigenvalue couples the Laplacian trace to the normal flux,
* orthonormal bases of the harmonic Bergman space and of boundary L2
  built from those eigenpairs, with a truncated reproducing kernel,
* the singular value decomposition of the harmonic extension (Poisson)
  operator, with computable truncation error bounds,
* Dirichlet-to-Neumann and Dirichlet Laplacian spectra, boundary flux
  series for Laplacian eigenfunctions, and the associated flux bound.

A closed-form disk oracle (:mod:`steklovsvd.analytic_disk`) backs the
verification suites.
"""

from .analytic_disk import (
    bessel_j,
    bessel_j_zero,
    disk_dbs_exact,
    disk_dirichlet_exact,
    disk_poisson_kernel_exact,
    disk_steklov_exact,
)
from .bergman import (
    BergmanDecomposition,
    TruncatedKernel,
    bergman_project,
    biharmonic_potential,
    harmonic_trace,
    neumann_biharmonic_extension,
    reproducing_kernel_eval,
)
from .errors import (
    CapacityError,
    IterationLimitError,
    OutsideDomainError,
    TruncationWarning,
)
from .fem import (
    BoundaryField,
    InteriorField,
    dtn_apply,
    green_identity_residual,
    harmonic_extension,
    interpolate_values,
    normal_flux,
    operators,
    solve_dirichlet_poisson,
    t_apply,
    trace,
)
from .meshing import (
    Mesh,
    build_disk_mesh,
    build_polygon_mesh,
    disk_mesh,
    mesh_hash,
    read_mesh_text,
    refine,
    transform,
    write_mesh_text,
)
from .poisson import (
    PoissonSvd,
    extend_harmonic_svd,
    extension_norm,
    poisson_kernel_eval,
    truncation_error_report,
)
from .spectra import (
    DirichletSpectrum,
    SpectralBasis,
    SteklovSpectrum,
    dbs_eigensolve,
    dirichlet_laplacian_eigensolve,
    harmonic_steklov_eigensolve,
    hassell_tao_check,
    normal_derivative_series,
    trace_sobolev_norm,
)

__version__ = "0.1.0"
