"""Biharmonic Steklov spectrum of the unit disk.

The eigenproblem couples the Laplacian trace of a zero-trace biharmonic
field to its normal flux; separation of variables on the unit disk gives
the eigenvalues 2, 4, 4, 6, 6, ... (the radial mode, then cosine/sine
pairs 2k + 2).  This script watches the discrete spectrum converge to
those values under mesh refinement and inspects the structure of the
first eigenpair.
"""

import math

import numpy as np

from steklovsvd import dbs_eigensolve, disk_mesh, refine
from steklovsvd.fem import BoundaryField

EXPECTED = np.array([2.0, 4.0, 4.0, 6.0, 6.0, 8.0, 8.0])

print("== Discrete spectrum under refinement ==")
mesh = disk_mesh(1.0, 0.08)
for level in range(3):
    basis = dbs_eigensolve(mesh, 7)
    rel = np.abs(basis.q - EXPECTED) / EXPECTED
    h = mesh.boundary_length / mesh.boundary_nodes.size
    print(
        f"h ~ {h:.4f}  q = {np.array2string(basis.q, precision=5)}"
        f"  max rel err {rel.max():.2e}"
    )
    if level < 2:
        mesh = refine(mesh)

print()
print("== Structure of the first eigenpair (radial mode) ==")
basis = dbs_eigensolve(mesh, 7)
q1, h1, w1 = basis.q[0], basis.h_matrix[:, 0], basis.w_matrix[:, 0]
print(f"q_1               = {q1:.6f}   (exact 2)")
print(f"max |w_1 - 1|     = {np.max(np.abs(w1 - 1)):.2e}   (w_1 is the constant 1)")
print(f"max |h_1 - 1/sqrt(pi)| = {np.max(np.abs(h1 - 1 / math.sqrt(math.pi))):.2e}")
# The normal flux of b_1 is w_1 / sqrt(q_1 |bdy|).
flux = BoundaryField(mesh, w1 / math.sqrt(q1 * mesh.boundary_length))
flux_energy = flux.inner_dsigma(flux)
print(f"flux energy m(b,b) = {flux_energy:.8f}   (exact 1/q = 0.5)")

print()
print("== Angular structure of the next pair ==")
# The canonicalized cosine-type mode peaks at the first boundary node
# (angle zero); the sine-type mode vanishes there.
print(f"w_2 at angle 0: {basis.w_matrix[0, 1]:+.5f}   (cos mode, sqrt(2) = {math.sqrt(2):.5f})")
print(f"w_3 at angle 0: {basis.w_matrix[0, 2]:+.2e}   (sin mode, exact 0)")
