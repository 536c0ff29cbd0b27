"""Everything again on the unit square, where no closed forms exist.

Without separation of variables the checks become self-consistency:
Cauchy convergence of the first eigenvalue under refinement, agreement
with a brute-force dense assembly of the flux-composition operator, and
the one classical value that is known, the Dirichlet Laplacian ground
state 2 pi^2.
"""

import math

import numpy as np
import scipy.linalg as sla

from steklovsvd import (
    build_polygon_mesh,
    dbs_eigensolve,
    dirichlet_laplacian_eigensolve,
    harmonic_steklov_eigensolve,
    refine,
)
from steklovsvd.fem import BoundaryField, t_apply

square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

print("== First biharmonic Steklov eigenvalue under refinement ==")
mesh = build_polygon_mesh(square, 0.125)
meshes = [mesh]
values = []
for level in range(3):
    values.append(dbs_eigensolve(meshes[-1], 5).q[0])
    print(f"level {level}: q_1 = {values[-1]:.6f}")
    if level < 2:
        meshes.append(refine(meshes[-1]))
print(f"successive relative differences: "
      f"{abs(values[1] - values[0]) / values[1]:.2e}, {abs(values[2] - values[1]) / values[2]:.2e}")

print()
print("== Dense brute-force oracle on the coarse mesh ==")
coarse = meshes[0]
nb = coarse.boundary_nodes.size
cols = []
for j in range(nb):
    e = np.zeros(nb)
    e[j] = 1.0
    cols.append(t_apply(coarse, BoundaryField(coarse, e)).values)
t_mat = np.column_stack(cols)
w = coarse.boundary_weights
sym = np.sqrt(w)[:, None] * t_mat / np.sqrt(w)[None, :]
beta = np.sort(sla.eigvalsh(0.5 * (sym + sym.T)))[::-1]
print(f"q_1 from the eigensolver: {values[0]:.10f}")
print(f"q_1 from dense assembly : {1 / beta[0]:.10f}")

print()
print("== Classical values ==")
lam1 = dirichlet_laplacian_eigensolve(meshes[-1], 1).lam[0]
print(f"Dirichlet ground state: {lam1:.5f}  (2 pi^2 = {2 * math.pi ** 2:.5f})")
steklov = harmonic_steklov_eigensolve(meshes[-1], 4)
print("first Dirichlet-to-Neumann eigenvalues:",
      np.array2string(steklov.delta, precision=5))
