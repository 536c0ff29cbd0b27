"""Piecewise-linear finite elements: fields, operators, solves, flux recovery.

Sign convention throughout: ``lap u = f`` with ``lap = div grad`` (no minus
sign).  The weak form of the Dirichlet problem is therefore

    integral(grad u . grad v) = - integral(f v)   for interior test v.

Every solve and flux in the package goes through two array-level
primitives of :class:`AssembledOperators`: ``dirichlet_solve`` solves this
weak form from the mass-weighted source ``M f`` and the boundary values,
and ``boundary_flux`` recovers fluxes variationally.  The flux of ``u`` is
the unique boundary function ``d`` with

    <d, trace(v)>_{dsigma} = integral(grad u . grad v) + integral(f v)

for every test function ``v``, that is ``(K u + M f)[boundary] / w``: the
discrete Green-formula flux, superconvergent relative to pointwise
gradient sampling.  The field-level functions below wrap the two.

The interior block ``A_II`` of the stiffness matrix is factorized once per
mesh, in nested-dissection order: recursive coordinate bisection of the
interior nodes, each separator after the two halves it separates.  This
solve order is private.  Every public array keeps the ascending interior
order; only the block solves of ``dirichlet_solve`` run in the solve order.

A solve with many right-hand sides is cut into fixed blocks of
``_SOLVE_BLOCK`` columns, solved one after another on the calling thread.
The blocks depend only on the column count, so neither do the results.
The dense boundary forms are built the same way, one fixed block of
``_FORM_BLOCK`` columns of the boundary identity at a time.

Norm conventions for boundary data: ``norm_dsigma`` is the plain L2 norm
with respect to arclength measure; ``norm_normalized`` divides the measure
by the boundary length (so constants have unit norm).
"""

from __future__ import annotations

import logging
import os
import threading
import time
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .meshing import Mesh

__all__ = [
    "InteriorField",
    "BoundaryField",
    "AssembledOperators",
    "operators",
    "trace",
    "interpolate_values",
    "solve_dirichlet_poisson",
    "harmonic_extension",
    "normal_flux",
    "dtn_apply",
    "t_apply",
    "green_identity_residual",
]


@dataclass(eq=False)
class InteriorField:
    """A function on the domain: one coefficient per mesh vertex."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.vertices.shape[0],):
            raise ValueError("coefficient count must equal the vertex count")

    @classmethod
    def zero(cls, mesh: Mesh) -> "InteriorField":
        return cls(mesh, np.zeros(mesh.vertices.shape[0]))

    @classmethod
    def constant(cls, mesh: Mesh, value: float) -> "InteriorField":
        return cls(mesh, np.full(mesh.vertices.shape[0], float(value)))

    @classmethod
    def from_function(cls, mesh: Mesh, fn) -> "InteriorField":
        """Sample ``fn(x, y)`` (vectorized) at the mesh vertices."""
        return cls(mesh, np.asarray(fn(mesh.vertices[:, 0], mesh.vertices[:, 1]), dtype=float))

    def inner(self, other: "InteriorField") -> float:
        """L2(domain) inner product through the assembled mass matrix."""
        ops = operators(self.mesh)
        return float(self.values @ (ops.mass @ other.values))

    def norm_l2(self) -> float:
        return float(np.sqrt(max(self.inner(self), 0.0)))


@dataclass(eq=False)
class BoundaryField:
    """A function on the boundary: one value per boundary node (loop order)."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.boundary_nodes.shape[0],):
            raise ValueError("value count must equal the boundary node count")

    @classmethod
    def zero(cls, mesh: Mesh) -> "BoundaryField":
        return cls(mesh, np.zeros(mesh.boundary_nodes.shape[0]))

    @classmethod
    def constant(cls, mesh: Mesh, value: float) -> "BoundaryField":
        return cls(mesh, np.full(mesh.boundary_nodes.shape[0], float(value)))

    @classmethod
    def from_function(cls, mesh: Mesh, fn) -> "BoundaryField":
        p = mesh.vertices[mesh.boundary_nodes]
        return cls(mesh, np.asarray(fn(p[:, 0], p[:, 1]), dtype=float))

    def inner_dsigma(self, other: "BoundaryField") -> float:
        """Boundary L2 inner product with respect to arclength measure."""
        return float(np.sum(self.mesh.boundary_weights * self.values * other.values))

    def inner_normalized(self, other: "BoundaryField") -> float:
        """Inner product with respect to the length-normalized boundary measure."""
        return self.inner_dsigma(other) / self.mesh.boundary_length

    def norm_dsigma(self) -> float:
        return float(np.sqrt(max(self.inner_dsigma(self), 0.0)))

    def norm_normalized(self) -> float:
        return self.norm_dsigma() / np.sqrt(self.mesh.boundary_length)


_log = logging.getLogger("steklovsvd")

# Columns per LU solve block, for two reasons.  It fixes the bits: blocks
# start at column 0 and a trailing one-column block joins the one before
# it, and a column's last bits can depend on its block's width (with scipy
# 1.17's SuperLU, 1- to 3-column solves and some wider ones differ from a
# 128-column block; blocks of 16-128 give the same eigensolver arrays).  It
# bounds the memory: one block is in flight, solved straight into its
# columns of the result, so its right-hand side and SuperLU's copy and work
# array stay small next to the result.
_SOLVE_BLOCK = 16
# Columns per block of the boundary identity that builds the boundary forms,
# apart from ``_SOLVE_BLOCK`` so that the forms' bits do not follow it: each
# block is extended, multiplied into its Schur columns and its Gram rows
# ``(M E[:, cols])^T E[:, :stop]``, and dropped.  The GEMM's row count sets
# the Gram form's last bits (64 rows round differently on small meshes); wider
# rows read E fewer times but hold the mass product of more columns.
_FORM_BLOCK = 16


# Nested dissection stops splitting groups of at most this many interior nodes.
_DISSECTION_LEAF = 16


def _column_blocks(width: int, size: int) -> list[slice]:
    """``range(width)`` cut into ``size``-column blocks with no one-column tail."""
    starts = list(range(0, width, size))
    if len(starts) > 1 and width - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [width])]


def _dissection_order(vertices: np.ndarray, stiffness: sp.csr_matrix, interior: np.ndarray):
    """Nested-dissection order of the ``interior`` nodes, as positions into ``interior``.

    Recursive coordinate bisection, one level of groups at a time with one
    sort per level: each group of more than ``_DISSECTION_LEAF`` nodes is
    sorted along the longer side of its bounding box (ties by node index)
    and split at the median.  The separator is the set of first-half nodes
    with a stiffness edge into the second half.  The rest of the first
    half, the second half and the separator are ordered in that order, and
    the two halves are split in turn, so every separator comes after the
    nodes it separates.  Leaves and separators keep their sorted order.
    """
    ni = interior.size
    if ni <= _DISSECTION_LEAF:
        return np.arange(ni)
    local = np.full(stiffness.shape[0], -1, dtype=np.int32)
    local[interior] = np.arange(ni)
    # Each interior-interior edge once, as local (lo, hi) ends.
    lo_end = np.repeat(local, np.diff(stiffness.indptr))
    hi_end = local[stiffness.indices]
    edge = (lo_end >= 0) & (lo_end < hi_end)
    ei, ej = lo_end[edge], hi_end[edge]
    del lo_end, hi_end, edge
    x, y = vertices[interior].T
    rank_x, rank_y = np.empty(ni, dtype=np.int64), np.empty(ni, dtype=np.int64)
    rank_x[np.argsort(x, kind="stable")] = np.arange(ni)
    rank_y[np.argsort(y, kind="stable")] = np.arange(ni)
    pos = np.empty(ni, dtype=np.int64)
    upper, alive = np.zeros(ni, dtype=bool), np.zeros(ni, dtype=bool)
    # The groups still to split, contiguous in ``nodes``: their sizes and
    # the first position of each in the order.
    nodes, size, first = np.arange(ni), np.array([ni]), np.zeros(1, dtype=np.int64)
    while size.size:
        ends = np.cumsum(size)
        starts = ends - size
        g = np.repeat(np.arange(size.size), size)
        gx, gy = x[nodes], y[nodes]
        wide = np.maximum.reduceat(gx, starts) - np.minimum.reduceat(gx, starts) >= (
            np.maximum.reduceat(gy, starts) - np.minimum.reduceat(gy, starts)
        )
        nodes = nodes[np.argsort(np.where(wide[g], rank_x[nodes], rank_y[nodes]) + g * ni)]
        r = np.arange(nodes.size) - starts[g]
        half = size // 2
        second = r >= half[g]
        upper[nodes] = second
        cross = upper[ei] != upper[ej]
        on_sep = np.zeros(ni, dtype=bool)
        on_sep[np.where(upper[ei[cross]], ej[cross], ei[cross])] = True
        sep = on_sep[nodes]
        seps = np.cumsum(sep)
        before = seps[starts] - sep[starts]
        n_sep = seps[ends - 1] - before
        seps -= before[g]  # separator nodes so far in the group, this one included
        pos[nodes] = first[g] + np.where(
            second, r - n_sep[g], np.where(sep, size[g] - n_sep[g] + seps - 1, r - seps)
        )
        halves = np.stack([half - n_sep, size - half], axis=1).ravel()
        split = halves > _DISSECTION_LEAF
        go_on = ~sep & split[2 * g + second]
        # An edge stays if it joins two nodes of one half that is split again.
        alive[nodes] = go_on
        stay = ~cross & alive[ei] & alive[ej]
        ei, ej = ei[stay], ej[stay]
        # The halves' nodes stay in sorted order, so each half is contiguous.
        nodes = nodes[go_on]
        first = np.stack([first, first + half - n_sep], axis=1).ravel()[split]
        size = halves[split]
    order = np.empty(ni, dtype=np.int64)
    order[pos] = np.arange(ni)
    return order


class _OrderedLU:
    """Sparse LU of ``A_II`` in the solve order, solving in ascending interior order.

    ``factor`` is the SuperLU object of ``A_II[order][:, order]`` and
    ``nnz`` its stored entries; :meth:`solve` permutes ``b`` into the solve
    order and the solution back.
    """

    def __init__(self, factor, order: np.ndarray):
        self.factor, self.order, self.nnz = factor, order, factor.nnz

    def solve(self, b) -> np.ndarray:
        y = self.factor.solve(np.asarray(b)[self.order])
        x = np.empty_like(y)
        x[self.order] = y
        return x


class AssembledOperators:
    """Stiffness, mass and boundary quadrature for one mesh, assembled once.

    The stiffness matrix is symmetric positive semidefinite with kernel
    spanned by constants; the mass matrix is symmetric positive definite.
    Two things are computed at most once per mesh, on first use, and
    reused by every solver on it:

    * ``interior_lu``, the sparse LU of the interior stiffness block,
      behind :meth:`dirichlet_solve` (every Dirichlet solve and harmonic
      extension) and the shift-invert Dirichlet eigensolve.  It factorizes
      ``A_II`` in nested-dissection order (:func:`_dissection_order`), the
      solve order, without pivoting (``A_II`` is SPD).  Its ``solve(b)``
      takes and returns ascending interior order, as ``interior_idx`` and
      ``stiffness_ib`` have it; only the block solves of
      :meth:`dirichlet_solve` work in the solve order, with their interior
      rows and ``K_IB`` permuted once;
    * the ``nb x nb`` Gram and Schur forms of the harmonic extension
      (:meth:`boundary_form`) that the dense DBS and DtN eigensolvers
      read (``nb**2`` floats each, with ``nb`` boundary nodes).

    Instances may be shared between threads.  The matrices are never
    changed after construction; the LU and each boundary form are built
    under a per-instance lock, so at most once, and a thread that needs one
    while another builds it waits for it.  Concurrent calls return the
    same arrays as serial ones.  Instances keep no reference to the mesh,
    so the per-mesh cache in :func:`operators` drops them, factorization
    and forms included, with the mesh.
    """

    def __init__(self, mesh: Mesh):
        v, t = mesh.vertices, mesh.triangles
        p = v[t]
        # Barycentric gradient coefficients: grad(lambda_i) = (b_i, c_i) / (2A).
        b = np.stack(
            [
                p[:, 1, 1] - p[:, 2, 1],
                p[:, 2, 1] - p[:, 0, 1],
                p[:, 0, 1] - p[:, 1, 1],
            ],
            axis=1,
        )
        c = np.stack(
            [
                p[:, 2, 0] - p[:, 1, 0],
                p[:, 0, 0] - p[:, 2, 0],
                p[:, 1, 0] - p[:, 0, 0],
            ],
            axis=1,
        )
        area = mesh.interior_weights
        a_loc = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
            4.0 * area[:, None, None]
        )
        m_loc = (area[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))
        rows = np.repeat(t, 3, axis=1).ravel()
        cols = np.tile(t, (1, 3)).ravel()
        n = self.n_vertices = v.shape[0]
        self.stiffness = sp.coo_matrix(
            (a_loc.ravel(), (rows, cols)), shape=(n, n)
        ).tocsr()
        self.mass = sp.coo_matrix((m_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()

        self._vertices = v
        self.interior_idx = mesh.interior_nodes
        self.boundary_idx = mesh.boundary_nodes
        self.boundary_weights = mesh.boundary_weights
        self.boundary_length = mesh.boundary_length
        self._forms: dict[str, np.ndarray] = {}
        self._lu = None
        # Reentrant: a boundary form is built under it and factorizes first.
        self._lock = threading.RLock()

    @cached_property
    def stiffness_ib(self) -> sp.csr_matrix:
        return self.stiffness[self.interior_idx][:, self.boundary_idx]

    @cached_property
    def stiffness_b(self) -> sp.csr_matrix:
        """The stiffness matrix's boundary rows: ``K[b] u`` sums each row as ``(K u)[b]`` does."""
        return self.stiffness[self.boundary_idx]

    @property
    def interior_lu(self) -> _OrderedLU:
        """Sparse LU of the interior stiffness block, factorized on first use."""
        if self._lu is None:
            with self._lock:
                if self._lu is None:
                    self._lu = self._factorize()
        return self._lu

    def _factorize(self) -> _OrderedLU:
        start = time.perf_counter()
        order = _dissection_order(self._vertices, self.stiffness, self.interior_idx)
        rows = self.interior_idx[order]
        ordered = time.perf_counter()
        a = self.stiffness[rows][:, rows]
        # Each off-diagonal entry sums at most two triangles' terms, so the
        # block is exactly symmetric and its CSR arrays are its CSC arrays.
        a = sp.csc_matrix((a.data, a.indices, a.indptr), shape=a.shape)
        try:
            factor = splu(
                a, permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
            )
        except RuntimeError as exc:  # a zero pivot: a node in no triangle, say
            raise ValueError(f"cannot factorize the interior stiffness block: {exc}") from None
        _log.debug(
            "interior LU of %d nodes: %d factor entries, %.4f s ordering, %.4f s factorizing",
            rows.size, factor.nnz, ordered - start, time.perf_counter() - ordered,
        )  # fmt: skip
        return _OrderedLU(factor, order)

    @cached_property
    def _solve_rows(self) -> tuple[np.ndarray, sp.csr_matrix]:
        """The interior rows in the solve order, and ``K_IB`` with its rows in that order."""
        order = self.interior_lu.order
        return self.interior_idx[order], self.stiffness_ib[order]

    def has_boundary_form(self, kind: str) -> bool:
        """Whether :meth:`boundary_form` ``kind`` is built already."""
        return kind in self._forms

    def boundary_form(self, kind: str) -> np.ndarray:
        """Gram form ``E^T M E`` (``"gram"``) or Schur form ``K[b] E`` (``"schur"``).

        ``E`` is the discrete harmonic extension of the boundary identity
        (column ``j`` extends the unit vector of boundary node ``j``).  Both
        forms are ``nb x nb``, read-only and built at most once.  Either
        build extends the identity one ``_FORM_BLOCK``-column block at a
        time and takes the block's Schur columns, the stiffness matrix's
        boundary rows applied to it.  Only the Gram form keeps ``E``
        (``8 n nb`` bytes): each block is copied into it and its Gram rows
        are multiplied out on and below the diagonal, then mirrored, so the
        form is exactly symmetric.  The Schur form built alone holds one
        block of ``E`` at a time.
        """
        if kind not in ("gram", "schur"):
            raise ValueError(f"unknown boundary form {kind!r}")
        if kind not in self._forms:
            with self._lock:
                if kind not in self._forms:
                    for name, form in self._extend_identity(gram=kind == "gram").items():
                        form.setflags(write=False)
                        self._forms.setdefault(name, form)
        return self._forms[kind]

    def _extend_identity(self, gram: bool) -> dict[str, np.ndarray]:
        nb = self.boundary_idx.size
        # The identity as a strided view of 2 nb - 1 floats: no nb x nb array
        # is held while the extension's blocks are in flight.
        diagonal = np.zeros(2 * nb - 1)
        diagonal[nb - 1] = 1.0
        step = diagonal.strides[0]
        identity = np.lib.stride_tricks.as_strided(
            diagonal[nb - 1 :], (nb, nb), (-step, step), writeable=False
        )
        forms = {"schur": np.empty((nb, nb))}
        if gram:
            forms["gram"] = np.empty((nb, nb))
            ext = np.empty((self.n_vertices, nb))
        for cols in _column_blocks(nb, _FORM_BLOCK):
            block = self.extend_boundary_columns(identity[:, cols])
            forms["schur"][:, cols] = self.stiffness_b @ block
            if gram:
                ext[:, cols] = block
                forms["gram"][cols, : cols.stop] = (self.mass @ block).T @ ext[:, : cols.stop]
            del block  # not held while the next block is solved
        if gram:
            del ext
            upper = np.triu_indices(nb, 1)
            forms["gram"][upper] = forms["gram"].T[upper]
        return forms

    def extend_boundary_columns(self, g_columns: np.ndarray) -> np.ndarray:
        """Discrete harmonic extension of boundary data, one column per field."""
        return self.dirichlet_solve(None, np.atleast_2d(np.asarray(g_columns, dtype=float).T).T)

    def dirichlet_solve(self, mf=None, g=None) -> np.ndarray:
        """Nodal values of ``u`` with ``lap u = f`` and ``u = g`` on the boundary.

        ``mf`` is the mass-weighted source ``M f`` (``n`` rows) and ``g``
        the boundary values (``nb`` rows); each is a vector or one column
        per field.  ``None`` means zero, and its term is skipped rather
        than multiplied out.  The interior rows solve
        ``A_II u_I = -(M f)_I - K_IB g``, in blocks of ``_SOLVE_BLOCK``
        columns that are solved in turn, straight into ``u``, which is
        allocated once the first block is solved.
        The interior rows are read and written in the LU's solve order, so
        no block is permuted or copied on its way.
        """
        if mf is None and g is None:
            return np.zeros(self.n_vertices)
        lu = self.interior_lu.factor
        rows, k_ib = self._solve_rows
        shape = (self.n_vertices,) + (mf if g is None else g).shape[1:]
        u = None
        # A vector is one block; ``...`` indexes all of it.
        for cols in _column_blocks(shape[1], _SOLVE_BLOCK) if len(shape) == 2 else [...]:
            # Negated in place, then rebound to its solution: the right-hand
            # side is freed before the first block's solution meets u.
            block = k_ib @ g[:, cols] if mf is None else mf[rows, cols]
            np.negative(block, out=block)
            if mf is not None and g is not None:
                block -= k_ib @ g[:, cols]
            block = lu.solve(block)
            if u is None:  # not held beside the first solve
                # Boundary and interior nodes partition the vertices: every row is written.
                u = np.empty(shape)
                u[self.boundary_idx] = 0.0 if g is None else g
            u[rows, cols] = block
        return np.empty(shape) if u is None else u  # no columns, no block

    def boundary_flux(self, u: np.ndarray, mf=None) -> np.ndarray:
        """Consistent normal flux ``(K u + M f)[boundary] / w`` of ``u`` with ``lap u = f``.

        ``u`` and ``mf = M f`` are shaped as in :meth:`dirichlet_solve`;
        ``mf=None`` means ``f = 0``.
        """
        r = self.stiffness_b @ u
        if mf is not None:
            r += mf[self.boundary_idx]
        w = self.boundary_weights
        return r / (w[:, None] if r.ndim > 1 else w)

    def t_apply(self, g: np.ndarray) -> np.ndarray:
        """:func:`t_apply` of boundary data ``g``, a vector or one column per field."""
        mh = self.mass @ self.dirichlet_solve(None, g)
        return self.boundary_flux(self.dirichlet_solve(mh), mh)


_OPERATOR_CACHE: "weakref.WeakKeyDictionary[Mesh, AssembledOperators]" = (
    weakref.WeakKeyDictionary()
)
_operator_lock = threading.Lock()


def operators(mesh: Mesh) -> AssembledOperators:
    """Assembled operators for ``mesh``, cached per mesh instance (one per mesh)."""
    with _operator_lock:
        ops = _OPERATOR_CACHE.get(mesh)
        if ops is None:
            ops = _OPERATOR_CACHE[mesh] = AssembledOperators(mesh)
    return ops


def _after_fork_in_child():
    """A forked child has none of the parent's threads: drop the cache lock they may hold."""
    global _operator_lock
    _operator_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def trace(u: InteriorField) -> BoundaryField:
    """Boundary trace: restriction to the boundary nodes."""
    return BoundaryField(u.mesh, u.values[u.mesh.boundary_nodes])


def interpolate_values(mesh: Mesh, values: np.ndarray, points) -> np.ndarray:
    """Barycentric interpolation of nodal data at interior points.

    ``values`` may be a vector (one field) or an ``(n, m)`` matrix of
    stacked fields; the result has one row per point.
    """
    values = np.asarray(values, dtype=float)
    tri, lam = mesh.locate(np.reshape(points, (-1, 2)))
    corner_values = values.reshape(values.shape[0], -1)[mesh.triangles[tri]]
    return (lam[:, None, :] @ corner_values)[:, 0].reshape(tri.shape + values.shape[1:])


def _field_values(field, kind):
    """``field.values`` of a ``kind`` field, or ``None`` (zero) for ``None``."""
    if field is not None and not isinstance(field, kind):
        raise TypeError(f"expected {kind.__name__} or None, got {type(field).__name__}")
    return None if field is None else field.values


def _mass_source(ops: AssembledOperators, f) -> np.ndarray | None:
    """``M f`` for a source ``f`` (``InteriorField`` or ``None``)."""
    fv = _field_values(f, InteriorField)
    return None if fv is None else ops.mass @ fv


def solve_dirichlet_poisson(mesh: Mesh, f, g) -> InteriorField:
    """Solve ``lap u = f`` with ``u = g`` on the boundary (``None`` means zero).

    ``f`` is an :class:`InteriorField` and ``g`` a :class:`BoundaryField`.
    The result equals ``g`` exactly at boundary nodes and satisfies the
    discrete weak form at interior nodes.
    """
    ops = operators(mesh)
    gv = _field_values(g, BoundaryField)
    return InteriorField(mesh, ops.dirichlet_solve(_mass_source(ops, f), gv))


def harmonic_extension(mesh: Mesh, g) -> InteriorField:
    """Discrete harmonic extension of boundary data ``g``."""
    return solve_dirichlet_poisson(mesh, None, g)


def normal_flux(mesh: Mesh, u: InteriorField, f) -> BoundaryField:
    """Consistent (variational) normal flux of ``u`` given ``lap u = f``."""
    ops = operators(mesh)
    return BoundaryField(mesh, ops.boundary_flux(u.values, _mass_source(ops, f)))


def dtn_apply(mesh: Mesh, g: BoundaryField) -> BoundaryField:
    """Dirichlet-to-Neumann map: flux of the harmonic extension of ``g``."""
    ops = operators(mesh)
    return BoundaryField(mesh, ops.boundary_flux(ops.dirichlet_solve(None, g.values)))


def t_apply(mesh: Mesh, g: BoundaryField) -> BoundaryField:
    """Flux of the zero-trace Poisson solve driven by the extension of ``g``.

    Composition: extend ``g`` harmonically to ``h``, solve ``lap b = h``
    with zero trace, return the consistent flux of ``b``; ``M h`` is formed
    once for both.  Boundary eigenfunctions of the biharmonic Steklov
    problem satisfy ``t_apply(g) = g / q`` for the corresponding
    eigenvalue ``q``.
    """
    return BoundaryField(mesh, operators(mesh).t_apply(g.values))


def green_identity_residual(mesh: Mesh, u: InteriorField, v: InteriorField, fu, fv) -> float:
    """Defect in the second Green identity for two discrete solutions.

    Both ``(u, fu)`` and ``(v, fv)`` must satisfy the discrete equation
    ``lap u = fu`` at interior nodes; the residual

        | integral(u fv - v fu)
          - |bdy| ( <D_nu v, u>_normalized - <D_nu u, v>_normalized ) |

    is then at rounding level.
    """
    ops = operators(mesh)
    mfu, mfv = _mass_source(ops, fu), _mass_source(ops, fv)
    du = BoundaryField(mesh, ops.boundary_flux(u.values, mfu))
    dv = BoundaryField(mesh, ops.boundary_flux(v.values, mfv))
    volume = (0.0 if mfv is None else u.values @ mfv) - (0.0 if mfu is None else v.values @ mfu)
    boundary = ops.boundary_length * (
        dv.inner_normalized(trace(u)) - du.inner_normalized(trace(v))
    )
    return float(abs(volume - boundary))
