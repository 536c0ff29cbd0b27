"""Harmonic Bergman projection, reproducing kernel, biharmonic potential.

The Laplacians of the biharmonic Steklov eigenfields form an orthonormal
basis of the square-integrable harmonic functions.  Truncating the basis
gives the harmonic projection, a reproducing kernel that acts as a delta
function on harmonic inputs, and the orthogonal splitting of arbitrary
data into a harmonic part plus the Laplacian of a zero-trace, zero-flux
potential.
"""

import math
import os

import numpy as np

from steklovsvd import dbs_eigensolve, disk_mesh
from steklovsvd.bergman import (
    TruncatedKernel,
    bergman_project,
    biharmonic_potential,
    iter_kernel_grid_csv,
)
from steklovsvd.fem import InteriorField, operators

mesh = disk_mesh(1.0, 0.04)
basis = dbs_eigensolve(mesh, 40)
ops = operators(mesh)

print("== Projection of the radial function r^2 - 1 ==")
f = InteriorField.from_function(mesh, lambda x, y: x * x + y * y - 1)
proj = bergman_project(f, basis)
print("the only radial harmonic function is the constant, so the")
print("projection is the mean value -1/2:")
print(f"  ||P_H f - (-1/2)||_L2 = {InteriorField(mesh, proj.values + 0.5).norm_l2():.2e}")

print()
print("== Reproducing kernel ==")
kernel = TruncatedKernel(basis)
print(f"R_M(0, 0) = {kernel.eval((0, 0), (0, 0)):.6f}   (mean value property: 1/pi = {1 / math.pi:.6f})")
print("delta property on harmonic polynomials at x0 = (0.3, 0):")
for name, fn in [("x", lambda x, y: x), ("x^2-y^2", lambda x, y: x * x - y * y)]:
    k = InteriorField.from_function(mesh, fn)
    coeffs = basis.h_matrix.T @ (ops.mass @ k.values)
    integral = float(basis.harmonic_values((0.3, 0.0)) @ coeffs)
    print(f"  integral R_M((0.3, 0), .) * {name:8s} = {integral:+.6f}  "
          f"target {fn(np.float64(0.3), np.float64(0.0)):+.6f}")

print()
print("== Biharmonic potential of r^2 - 1 ==")
dec = biharmonic_potential(f, basis)
exact = InteriorField.from_function(mesh, lambda x, y: (1 - x * x - y * y) ** 2 / 16)
err = InteriorField(mesh, dec.potential.values - exact.values).norm_l2()
print(f"potential matches (1 - r^2)^2 / 16 to {err / exact.norm_l2():.2e} relative L2")
print(f"recovered flux of the potential: {dec.flux_norm:.2e}  (zero in the limit)")
print(f"decomposition converged: {dec.converged}")

os.makedirs("demos/output", exist_ok=True)
path = "demos/output/bergman_kernel_grid.csv"
with open(path, "wb") as fh:
    fh.writelines(iter_kernel_grid_csv(basis, (0.3, 0.0)))
print(f"\nkernel slice R_M((0.3, 0), .) on the vertices written to {path}")
