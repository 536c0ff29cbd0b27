"""Singular value decomposition of the harmonic extension operator.

The harmonic extension of boundary data expands over the boundary
functions w_j with singular values 1/sqrt(q_j); the kernel of the
operator is the Poisson kernel.  On the unit disk the operator norm is
1/sqrt(2) and the kernel is (1 - |x|^2) / (2 pi |x - z|^2), which gives
exact targets for everything computed here.
"""

import math
import os

import numpy as np

from steklovsvd import dbs_eigensolve, disk_mesh
from steklovsvd.analytic_disk import disk_poisson_kernel_exact
from steklovsvd.fem import BoundaryField
from steklovsvd.poisson import (
    PoissonSvd,
    extension_norm,
    iter_kernel_slice_csv,
    poisson_kernel_eval,
    truncation_error_report,
)

mesh = disk_mesh(1.0, 0.03)
basis = dbs_eigensolve(mesh, 40)
svd = PoissonSvd.from_basis(basis)

print("== Operator norm ==")
print(f"extension norm 1/sqrt(q_1) = {extension_norm(svd):.8f}")
print(f"exact disk value 1/sqrt(2) = {1 / math.sqrt(2):.8f}")

print()
print("== Singular values decay like 1/sqrt(2k + 2) ==")
print(np.array2string(svd.singular_values[:10], precision=5))

print()
print("== Truncated kernel against the classical Poisson kernel ==")
for x, z in [((0.0, 0.0), (1.0, 0.0)), ((0.5, 0.0), (1.0, 0.0)), ((-0.3, 0.4), (1.0, 0.0))]:
    exact = disk_poisson_kernel_exact(x, z)
    for m in (5, 20, 40):
        val = poisson_kernel_eval(svd, m, x, z)
        print(f"x={x} z={z} M={m:2d}: P_M = {val:.6f}  exact {exact:.6f}")

print()
print("== Truncation error against its computable bound ==")
rng = np.random.default_rng(0)
g = BoundaryField(mesh, rng.standard_normal(mesh.boundary_nodes.size))
print(" M    error        bound        ratio")
for m in (2, 5, 10, 20, 35):
    rep = truncation_error_report(g, svd, m)
    print(f"{m:3d}  {rep.error:.6e}  {rep.bound:.6e}  {rep.ratio:.4f}")
print("(a single tail mode saturates the bound)")
tail = truncation_error_report(BoundaryField(mesh, basis.w_matrix[:, 10].copy()), svd, 10)
print(f"g = w_11, M = 10: ratio = {tail.ratio:.12f}")

os.makedirs("demos/output", exist_ok=True)
path = "demos/output/poisson_kernel_slice.csv"
with open(path, "wb") as fh:
    fh.writelines(iter_kernel_slice_csv(svd, (0.5, 0.0), 40))
print(f"\nkernel slice P_40((0.5, 0), .) written to {path}")
