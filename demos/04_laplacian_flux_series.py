"""Boundary flux of Dirichlet Laplacian eigenfunctions.

An eigenfunction's normal derivative expands over the boundary system
w_j with coefficients proportional to its harmonic-projection
coefficients.  On the unit disk each eigenfunction has a single angular
frequency, so the series collapses to one term, the flux energy obeys
the Rellich identity (2 lambda on the unit circle), and the flux bound
in terms of the first biharmonic Steklov eigenvalue is strict.
"""

import numpy as np

from steklovsvd import dbs_eigensolve, dirichlet_laplacian_eigensolve, disk_mesh
from steklovsvd.fem import BoundaryField, operators
from steklovsvd.spectra import hassell_tao_check, normal_derivative_series

mesh = disk_mesh(1.0, 0.03)
basis = dbs_eigensolve(mesh, 60)
dirichlet = dirichlet_laplacian_eigensolve(mesh, 8)
ht = hassell_tao_check(dirichlet, basis)
# Column j holds the coefficients <e_j, h_k> of eigenfunction j.
coeffs = basis.h_matrix.T @ (operators(mesh).mass @ dirichlet.e_matrix)

print("lambda      flux^2/(2 lambda)   series vs flux   HT ratio")
for j, ratio in enumerate(ht.ratio):
    lam, flux = dirichlet.lam[j], BoundaryField(mesh, dirichlet.flux_matrix[:, j])
    series = normal_derivative_series(coeffs[:, j], lam, basis)
    mismatch = BoundaryField(mesh, series.values - flux.values).norm_dsigma() / flux.norm_dsigma()
    print(
        f"{lam:9.4f}   {ht.flux_sq[j] / (2 * lam):14.6f}   "
        f"{mismatch:12.2e}   {ratio:8.4f}"
    )

print()
print("The ratio column stays at or below one: the flux energy is bounded")
print("by lambda^2 ||P_H e||^2 / q_1, and the harmonic projection of an")
print("eigenfunction is far from zero even though its boundary trace vanishes:")
norms = np.sqrt(np.sum(coeffs[:, :5] ** 2, axis=0))
print("||P_H e|| for the first five eigenfunctions:", np.array2string(norms, precision=4))
