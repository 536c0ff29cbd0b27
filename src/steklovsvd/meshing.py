"""Triangulated planar domains with oriented boundaries and quadrature.

A :class:`Mesh` stores a triangulation of a bounded convex planar domain
together with everything the solvers need: counterclockwise triangles with
areas above a floor set by the mesh's frame, ordered closed boundary loops, unit outward
normals, and quadrature weights.  Interior quadrature is exact per-triangle area
(midpoint rule on piecewise constants); boundary quadrature is the
trapezoid rule on boundary edges, which is exact for piecewise-linear
boundary data and therefore consistent with the P1 element order used
downstream.

Meshes are immutable after construction: all arrays are frozen and safe to
share between threads.  Construction is deterministic for fixed inputs.

Two generators are provided:

* :func:`build_disk_mesh` - a graded triangulation of the regular polygon
  inscribed in a circle, with boundary nodes exactly on the circle.
* :func:`build_polygon_mesh` - a Delaunay triangulation of a simple,
  counterclockwise, convex polygon.

Both refuse a spacing that would give them more points than they can
build (``_MAX_POINTS``).  Both are exact under power-of-two scaling: the
size and the spacing times ``2**k`` give every vertex times ``2**k`` and the
same triangles, while the areas stay normal floats.  :func:`refine` performs
uniform midpoint subdivision; new boundary midpoints of disk meshes are
projected back onto the circle.
"""

from __future__ import annotations

import hashlib
import math
from functools import cached_property

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from ._serialize import format_floats
from .errors import OutsideDomainError

__all__ = [
    "Mesh",
    "build_disk_mesh",
    "build_polygon_mesh",
    "refine",
    "transform",
    "disk_mesh",
    "write_mesh_text",
    "read_mesh_text",
    "mesh_hash",
]


# Triangle rows of mesh text formatted per ``%`` call.
_TEXT_CHUNK = 512


def _signed_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p = vertices[triangles]
    with np.errstate(over="ignore", invalid="ignore"):
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def _frame(vertices: np.ndarray) -> tuple[np.ndarray, float]:
    """``(origin, scale)`` of the frame of ``vertices``, as :class:`Mesh` defines them."""
    lo, hi = vertices.min(axis=0), vertices.max(axis=0)
    mantissa, exponent = math.frexp(float(np.max(0.5 * hi - 0.5 * lo)))
    scale = math.ldexp(1.0, min(exponent - (mantissa == 0.5), 1023))
    return scale * np.trunc((0.5 * lo + 0.5 * hi) / scale), scale


def _flat(areas: np.ndarray, scale: float) -> np.ndarray:
    """Mask of the finite signed ``areas`` not above ``1e-14 * scale * scale`` in size.  (An
    overflowed area is no sliver; ``scale ** 2`` would raise OverflowError near 1e154.)"""
    return np.isfinite(areas) & (np.abs(areas) <= 1e-14 * scale * scale)


def _edge_table(triangles: np.ndarray, n_vertices: int):
    """Unique edges of a triangulation, keyed by one integer per edge.

    Returns ``(edges, first, inverse, counts)``: ``edges`` (3t, 2) holds the
    edges ``01, 12, 20`` of each triangle in turn, each ``(lo, hi)``; the
    rest is ``np.unique``'s table of those rows, taken on the scalar key
    ``lo * n_vertices + hi``, which sorts in the rows' lexicographic order
    (a 1-d integer sort; numpy sorts 2-d rows as opaque records, far slower).
    """
    a = triangles.ravel()
    b = triangles[:, [1, 2, 0]].ravel()
    edges = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)
    _, first, inverse, counts = np.unique(
        edges[:, 0] * n_vertices + edges[:, 1],
        return_index=True,
        return_inverse=True,
        return_counts=True,
    )
    return edges, first, inverse, counts


def _orient_ccw(triangles: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Swap two corners of each triangle whose signed area in ``areas`` is negative: that
    negates the area exactly, so ``abs(areas)`` are the new triangles' areas, bit for bit."""
    flip = areas < 0
    triangles = triangles.copy()
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    return triangles


# Smallest barycentric coordinate of a point that counts as inside a triangle.
_INSIDE = -1e-10


def _barycentrics(corners: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of ``points`` in the triangles ``corners`` (k, 3, 2): (k, 3)."""
    mat = np.stack([corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]], axis=2)
    lam = np.linalg.solve(mat, (points - corners[:, 0])[:, :, None])[:, :, 0]
    return np.column_stack([1.0 - lam[:, 0] - lam[:, 1], lam[:, 0], lam[:, 1]])


class Mesh:
    """Immutable triangulation of a convex planar domain.

    Parameters
    ----------
    vertices : (n, 2) array_like
        Vertex coordinates.
    triangles : (t, 3) array_like
        Vertex index triples, counterclockwise with finite areas above ``1e-14``
        times ``scale`` squared; use the module generators rather than building
        by hand unless you control orientation.
    geometry : tuple
        ``("polygon",)`` for straight-sided domains, or
        ``("disk", cx, cy, radius)`` for disk meshes whose boundary nodes
        lie on the circle.  Refinement uses this to snap new boundary
        nodes back to the circle.
    areas : (t,) array_like, optional
        The triangles' signed areas, when the caller has them already
        (the generators do); taken as given, not recomputed.

    Attributes
    ----------
    vertices, triangles : ndarray
        Geometry and connectivity (read-only).
    boundary_loops : list of ndarray
        Ordered closed loops of vertex indices, counterclockwise.
    boundary_nodes : ndarray
        Concatenation of the loops; fixes the ordering of boundary data.
    boundary_edges : ndarray, shape (e, 2)
        Directed boundary edges ``(a, b)`` in loop order.
    edge_weights : ndarray, shape (e,)
        Boundary edge lengths; sums to the polygonal boundary length.
    boundary_weights : ndarray
        Trapezoid-rule weight per boundary node (half the length of the
        two adjacent edges); same ordering as ``boundary_nodes``.
    interior_weights : ndarray, shape (t,)
        Triangle areas; sums to the polygonal area.
    normals : ndarray, shape (e, 2)
        Unit outward normal per boundary edge.
    origin, scale : ndarray, float
        The frame that sets every geometric tolerance.  ``scale`` is the least
        power of two not below the bounding box's half-extent (1 for the unit
        disk), so a power-of-two scaling scales it exactly; ``origin`` is the
        box's centre truncated to a whole multiple of ``scale`` (zero within one
        scale of zero), so coordinates taken from it round with the domain's size.
    """

    def __init__(self, vertices, triangles, geometry=("polygon",), *, areas=None):
        v = np.array(vertices, dtype=float)
        t = np.array(triangles, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must have shape (n, 2)")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError("triangles must have shape (t, 3)")
        if not t.size:
            raise ValueError("a mesh needs at least one triangle")
        if t.min() < 0 or t.max() >= v.shape[0]:
            raise ValueError("triangle index out of range")
        bad = np.flatnonzero(~np.isfinite(v).all(axis=1))
        if bad.size:
            node = int(bad[0])
            raise ValueError(f"mesh node {node} is not finite: {tuple(v[node].tolist())}")
        self.origin, self.scale = _frame(v)
        areas = _signed_areas(v, t) if areas is None else np.array(areas, dtype=float)
        bad = np.flatnonzero(~(np.isfinite(areas) & (areas > 0)) | _flat(areas, self.scale))
        if bad.size:
            raise ValueError(
                f"triangle {bad[0]} has signed area {float(areas[bad[0]])!r}: each must be finite "
                f"and above 1e-14 times the mesh scale squared (scale {self.scale!r})"
            )

        self.vertices = v
        self.triangles = t
        self.interior_weights = areas
        self.geometry = tuple(geometry)

        self._extract_boundary()

        self.is_boundary = np.zeros(v.shape[0], dtype=bool)
        self.is_boundary[self.boundary_nodes] = True
        self.interior_nodes = np.flatnonzero(~self.is_boundary)

        for arr in (
            self.origin,
            self.vertices,
            self.triangles,
            self.interior_weights,
            self.boundary_nodes,
            self.boundary_edges,
            self.edge_weights,
            self.boundary_weights,
            self.normals,
            self.is_boundary,
            self.interior_nodes,
        ):
            arr.setflags(write=False)

        self.validate()

    # -- construction helpers -------------------------------------------------

    def _extract_boundary(self):
        """Find boundary edges (owned by exactly one triangle) and chain loops."""
        t = self.triangles
        n = self.vertices.shape[0]
        _, _, inverse, counts = _edge_table(t, n)
        if np.any(counts > 2):
            raise ValueError("non-manifold edge: shared by more than two triangles")
        # Edge i (triangle-major, 01 12 20) runs from t.flat[i] in triangle i // 3.
        on_boundary = np.flatnonzero(counts[inverse] == 1)
        starts = t.ravel()[on_boundary]
        ends = t[:, [1, 2, 0]].ravel()[on_boundary]
        # Each boundary node must start one boundary edge and end one, so
        # following the edges from any node closes a simple loop.
        sorted_starts = np.sort(starts)
        if np.any(sorted_starts[1:] == sorted_starts[:-1]) or not np.array_equal(
            sorted_starts, np.sort(ends)
        ):
            raise ValueError("boundary is not a disjoint union of simple loops")
        nxt = np.empty(n, dtype=np.int64)
        nxt[starts] = ends
        owner_of_start = np.empty(n, dtype=np.int64)
        owner_of_start[starts] = on_boundary // 3

        # Each loop starts at its smallest node; loops in order of that node.
        follow = dict(zip(starts.tolist(), ends.tolist()))
        seen = set()
        loops = []
        for start in sorted_starts.tolist():
            if start in seen:
                continue
            loop = [start]
            cur = follow[start]
            while cur != start:
                loop.append(cur)
                cur = follow[cur]
            seen.update(loop)
            loops.append(np.array(loop, dtype=np.int64))

        self.boundary_loops = loops
        self.boundary_nodes = np.concatenate(loops)
        self.boundary_edges = np.stack([self.boundary_nodes, nxt[self.boundary_nodes]], axis=1)
        self._edge_owner_triangle = owner_of_start[self.boundary_nodes]

        a = self.vertices[self.boundary_edges[:, 0]]
        b = self.vertices[self.boundary_edges[:, 1]]
        tangent = b - a
        self.edge_weights = np.hypot(tangent[:, 0], tangent[:, 1])
        # For counterclockwise loops the outward normal is the tangent rotated -90deg.
        self.normals = np.column_stack([tangent[:, 1], -tangent[:, 0]]) / self.edge_weights[:, None]

        weights = np.zeros(self.vertices.shape[0])
        np.add.at(weights, self.boundary_edges[:, 0], 0.5 * self.edge_weights)
        np.add.at(weights, self.boundary_edges[:, 1], 0.5 * self.edge_weights)
        self.boundary_weights = weights[self.boundary_nodes]

    # -- derived scalar geometry ----------------------------------------------

    @property
    def area(self) -> float:
        return float(self.interior_weights.sum())

    @property
    def boundary_length(self) -> float:
        return float(self.edge_weights.sum())

    @cached_property
    def max_edge_length(self) -> float:
        p = self.vertices[self.triangles]
        lengths = [np.hypot(*(p[:, i] - p[:, j]).T) for i, j in ((0, 1), (1, 2), (2, 0))]
        return float(np.max(lengths))

    @cached_property
    def _text(self) -> str:
        """Canonical text of :func:`write_mesh_text`, built once: the arrays are read-only.

        Vertex lines are one ``x y flag`` float table (``%.17g`` writes the
        flags 0.0 and 1.0 as ``0`` and ``1``); triangle lines are formatted
        ``_TEXT_CHUNK`` rows per ``%`` call, which bounds the Python objects
        alive at once.
        """
        v, t = self.vertices, self.triangles
        table = np.column_stack([v, self.is_boundary])
        parts = [f"nodes {v.shape[0]}\n", format_floats(table, " ", "\n"), "\n"]
        parts.append(f"triangles {t.shape[0]}\n")
        for a in range(0, t.shape[0], _TEXT_CHUNK):
            chunk = t[a : a + _TEXT_CHUNK]
            parts.append("%d %d %d\n" * chunk.shape[0] % tuple(chunk.ravel().tolist()))
        parts.append(f"boundary_loops {len(self.boundary_loops)}\n")
        for loop in self.boundary_loops:
            parts.append(f"loop {len(loop)}\n" + " ".join(map(str, loop.tolist())) + "\n")
        return "".join(parts)

    def outward_clearance(self) -> np.ndarray:
        """Per boundary edge, its normal dotted with the vector from the owning
        triangle's centroid to the edge midpoint: positive where the normal points out."""
        ends = self.vertices[self.boundary_edges]
        centroid = self.vertices[self.triangles[self._edge_owner_triangle]].mean(axis=1)
        return np.einsum("ij,ij->i", self.normals, 0.5 * (ends[:, 0] + ends[:, 1]) - centroid)

    def polygon_measures(self) -> tuple[float, float]:
        """Area (shoelace formula) and perimeter of the boundary polygon, over all loops,
        from coordinates taken relative to ``origin``; past the float range they are inf or nan."""
        with np.errstate(over="ignore", invalid="ignore"):
            e = self.vertices[self.boundary_edges] - self.origin
            area = 0.5 * float(np.sum(e[:, 0, 0] * e[:, 1, 1] - e[:, 1, 0] * e[:, 0, 1]))
            return area, float(np.sum(np.hypot(*(e[:, 1] - e[:, 0]).T)))

    def validate(self):
        """Check the invariants that construction leaves open; raises ``ValueError``.

        Every boundary normal points outward, and the interior weights sum to
        the boundary polygon's area within ``1e-10 * scale**2``.
        """
        if np.any(self.outward_clearance() <= 0):
            raise ValueError("boundary normal does not point outward")
        shoelace, _ = self.polygon_measures()
        with np.errstate(over="ignore"):
            area = self.area
        if not abs(area - shoelace) <= 1e-10 * self.scale * self.scale:
            raise ValueError(f"interior weights sum {area!r} != polygon area {shoelace!r}")

    # -- point queries ----------------------------------------------------------

    @cached_property
    def _locator(self) -> tuple[cKDTree, np.ndarray, np.ndarray]:
        """kd-tree of the vertices and CSR vertex -> triangle incidence.

        ``triangles_of[offsets[v]:offsets[v + 1]]`` lists the triangles
        around vertex ``v`` in ascending index order.
        """
        corners = self.triangles.ravel()
        offsets = np.zeros(self.vertices.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(corners, minlength=self.vertices.shape[0]), out=offsets[1:])
        triangles_of = np.argsort(corners, kind="stable") // 3
        return cKDTree(self.vertices), offsets, triangles_of

    def _place(self, points, owner, candidates, tri, lam):
        """Give each point ``owner[i]`` (non-decreasing) its first containing candidate."""
        bary = _barycentrics(self.vertices[self.triangles[candidates]], points[owner])
        hits = np.flatnonzero(bary.min(axis=1) >= _INSIDE)
        placed, first = np.unique(owner[hits], return_index=True)
        tri[placed] = candidates[hits[first]]
        lam[placed] = bary[hits[first]]

    def locate(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Containing triangle and barycentric coordinates of ``points`` (..., 2).

        Returns ``(tri, lam)`` with shapes ``(...)`` and ``(..., 3)``.  Each
        point takes the first triangle, around its 8 nearest vertices
        (nearest first, triangles in index order), whose barycentric
        coordinates are all at least ``-1e-10``; a point with none there
        takes the first such triangle of the whole mesh.  Raises
        :class:`OutsideDomainError` for the first point outside the
        triangulated polygon.
        """
        shape = np.shape(points)[:-1]
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        tree, offsets, triangles_of = self._locator
        k = min(8, self.vertices.shape[0])
        near = tree.query(points, k=k)[1].reshape(points.shape[0], k)
        tri = np.full(points.shape[0], -1, dtype=np.int64)
        lam = np.empty((points.shape[0], 3))
        # One near vertex per pass, for the points not yet placed: a pass
        # tests only that vertex's CSR row of triangles, so most points are
        # placed by the first pass and each batch stays a few rows per point.
        for j in range(k):
            todo = np.flatnonzero(tri < 0)
            if not todo.size:
                break
            v = near[todo, j]
            counts = offsets[v + 1] - offsets[v]
            owner = np.repeat(todo, counts)
            starts = np.repeat(offsets[v] - np.cumsum(counts) + counts, counts)
            self._place(points, owner, triangles_of[np.arange(owner.size) + starts], tri, lam)
        all_triangles = np.arange(self.triangles.shape[0])
        for i in np.flatnonzero(tri < 0):
            self._place(points, np.full(all_triangles.size, i), all_triangles, tri, lam)
            if tri[i] < 0:
                point = tuple(points[i].tolist())
                raise OutsideDomainError(f"point {point} lies outside the mesh")
        return tri.reshape(shape), lam.reshape(shape + (3,))

    def distance_to_boundary(self, points):
        """Euclidean distances from ``points`` (..., 2) to the polygonal boundary, shape (...).

        In blocks of ``_DISTANCE_BLOCK`` point-edge pairs, so memory stays bounded.
        """
        flat = np.asarray(points, dtype=float).reshape(-1, 2)
        a = self.vertices[self.boundary_edges[:, 0]]
        b = self.vertices[self.boundary_edges[:, 1]]
        step = max(1, _DISTANCE_BLOCK // a.shape[0])
        out = np.empty(flat.shape[0])
        for i in range(0, flat.shape[0], step):
            out[i : i + step] = np.min(_segment_distances(flat[i : i + step], a, b), axis=-1)
        return out.reshape(np.shape(points)[:-1])[()]


# -- generators -----------------------------------------------------------------


def _require_positive(name: str, value: float):
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


# Most points a builder may make, by its estimate.  A build's peak resident
# memory was about 790 B per vertex for disks (219k and 874k vertices) and
# 910 B for squares (290k and 1.16M; numpy 2.4.6, scipy 1.17.1), so a build
# stays below 1 GB.  Without a limit, `mesh --h 1e-30` ran out of memory in
# the disk's ring loop.
_MAX_POINTS = 2**20


def _require_point_count(points, spacing: str):
    """Refuse ``spacing`` if ``points``, the builder's estimate of its point
    count, is not finite or is above ``_MAX_POINTS``; before any array is built."""
    if not math.isfinite(points):
        raise ValueError(f"the domain is too large for {spacing}: its point count is not finite")
    if points > _MAX_POINTS:
        raise ValueError(
            f"the domain is too large for {spacing}: it needs about {points:.3g} points, "
            f"more than {_MAX_POINTS}"
        )


def _delaunay(points: np.ndarray, domain: str) -> np.ndarray:
    """Delaunay triangles of ``points``; a Qhull failure is a ValueError naming ``domain``.

    Qhull sees the points divided by the power of two that brings the largest
    coordinate into [0.5, 1), which is exact, so its lifted coordinates
    ``x**2 + y**2`` stay far from overflow and underflow, and the same
    points at any power-of-two scale give the same triangles.
    """
    exponent = math.frexp(float(np.max(np.abs(points))))[1]
    try:
        return Delaunay(np.ldexp(points, -exponent)).simplices.astype(np.int64)
    except RuntimeError as exc:  # scipy's QhullError
        reason = str(exc).partition("\n")[0]
        raise ValueError(f"cannot triangulate the {domain}: {reason}") from exc


_GRADING = 0.8


def build_disk_mesh(radius: float, n_radial: int, n_angular: int) -> Mesh:
    """Triangulate the regular ``n_angular``-gon inscribed in a circle.

    Vertices are placed on ``n_radial`` concentric rings plus the center.
    Ring radii follow ``radius * (i / n_radial) ** 0.8`` so spacing
    tightens toward the boundary; each ring carries a number of nodes
    proportional to its circumference, and the outer ring carries exactly
    ``n_angular`` nodes lying on the circle, starting at angle zero.

    Parameters
    ----------
    radius : float
        Circle radius, must be positive and finite.
    n_radial : int
        Number of rings, at least 1.
    n_angular : int
        Nodes on the boundary circle, at least 3.

    Returns
    -------
    Mesh
    """
    if n_angular < 3:
        raise ValueError(f"n_angular must be >= 3, got {n_angular}")
    if n_radial < 1:
        raise ValueError(f"n_radial must be >= 1, got {n_radial}")
    _require_positive("radius", radius)
    _require_point_count(n_radial * n_angular, f"n_radial={n_radial}, n_angular={n_angular}")

    points = [np.zeros((1, 2))]
    for i in range(1, n_radial + 1):
        r = radius * (i / n_radial) ** _GRADING
        if i == n_radial:
            m = n_angular
            offset = 0.0
        else:
            m = max(4, int(round(n_angular * r / radius)))
            offset = (math.pi / m) * ((n_radial - i) % 2)
        theta = offset + 2.0 * math.pi * np.arange(m) / m
        points.append(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
    pts = np.concatenate(points)
    # Boundary nodes exactly on the circle: the parametrization above already
    # evaluates cos/sin at radius `radius`; no snapping needed here.
    triangles = _delaunay(pts, f"disk of radius {radius!r}")
    areas = _signed_areas(pts, triangles)
    triangles = _orient_ccw(triangles, areas)
    return Mesh(pts, triangles, ("disk", 0.0, 0.0, float(radius)), areas=np.abs(areas))


def disk_mesh(radius: float, target_h: float) -> Mesh:
    """Disk mesh with boundary spacing close to ``target_h``."""
    _require_positive("radius", radius)
    _require_positive("target_h", target_h)
    turns = 2.0 * math.pi * radius / target_h
    # Rings times boundary nodes: the graded rings hold about 1 / 1.8 of it.
    _require_point_count(turns * (radius / target_h), f"target_h={target_h!r}")
    n_angular = max(12, int(round(turns)))
    n_radial = max(2, int(round(radius / target_h)))
    return build_disk_mesh(radius, n_radial, n_angular)


_DISTANCE_BLOCK = 2**16  # point-edge pairs per block of Mesh.distance_to_boundary


def _segment_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances from ``points`` (..., 2) to the segments ``a``-``b`` (s, 2), shape (..., s)."""
    # x and y apart, so each temporary is one (..., s) array.
    x, y = np.asarray(points)[..., 0, None], np.asarray(points)[..., 1, None]
    (ax, ay), (abx, aby) = a.T, (b - a).T
    t = np.clip(((x - ax) * abx + (y - ay) * aby) / (abx * abx + aby * aby), 0.0, 1.0)
    return np.hypot(x - (ax + t * abx), y - (ay + t * aby))


def build_polygon_mesh(vertices, target_h: float) -> Mesh:
    """Delaunay triangulation of a simple convex counterclockwise polygon.

    Boundary edges are subdivided so every boundary segment is at most
    ``target_h`` long; the interior is filled with a staggered hexagonal
    point lattice of spacing ``target_h``.  The resulting maximum edge
    length is bounded by ``2 * target_h``.

    Parameters
    ----------
    vertices : (k, 2) array_like
        Polygon corners in counterclockwise order, strictly convex, finite.
    target_h : float
        Target spacing, must be positive and finite.

    Raises
    ------
    ValueError
        For clockwise, self-intersecting, or non-convex input (the latter
        with an explicit "convexity required" message), a non-finite
        corner, a non-positive or non-finite ``target_h``, or a
        ``target_h`` that gives the polygon a non-finite point count or
        more than ``_MAX_POINTS``.
    """
    corners = np.asarray(vertices, dtype=float)
    if corners.ndim != 2 or corners.shape[1] != 2 or corners.shape[0] < 3:
        raise ValueError("polygon needs at least 3 planar vertices")
    if not np.all(np.isfinite(corners)):
        raise ValueError("polygon corners must be finite")
    _require_positive("target_h", target_h)
    nxt = np.roll(corners, -1, axis=0)
    xmin, ymin = corners.min(axis=0)
    xmax, ymax = corners.max(axis=0)
    dy = target_h * math.sqrt(3.0) / 2.0
    # Corners near the float range overflow here: an infinite count is refused,
    # a NaN from inf - inf fails the checks, and Mesh refuses overflowed areas.
    with np.errstate(over="ignore", invalid="ignore"):
        edges = nxt - corners
        # Boundary points, then the lattice over the bounding box.
        points = np.hypot(*edges.T).sum() / target_h + ((xmax - xmin) / target_h + 1) * (
            (ymax - ymin) / dy + 1
        )
        signed_area = 0.5 * float(np.sum(corners[:, 0] * nxt[:, 1] - nxt[:, 0] * corners[:, 1]))
        prev_edges = np.roll(edges, 1, axis=0)
        cross = prev_edges[:, 0] * edges[:, 1] - prev_edges[:, 1] * edges[:, 0]
    _require_point_count(float(points), f"target_h={target_h!r}")
    if not signed_area > 0:
        raise ValueError(
            "polygon must be simple with counterclockwise orientation "
            f"(signed area {signed_area!r})"
        )
    if not np.all(cross > 0):
        raise ValueError("convexity required: input polygon is not strictly convex")

    boundary_pts = []
    for a, b in zip(corners, nxt):
        n_seg = max(1, int(math.ceil(np.hypot(*(b - a)) / target_h)))
        boundary_pts.append(a + (b - a) * (np.arange(n_seg) / n_seg)[:, None])
    boundary_pts = np.concatenate(boundary_pts)

    rows = int(math.floor((ymax - ymin) / dy)) + 1
    interior = []
    for r in range(rows):
        # One lattice row at a time: the temporaries are cols x polygon edges.
        x0 = xmin + (target_h / 2.0 if r % 2 else 0.0)
        cols = int(math.floor((xmax - x0) / target_h)) + 1
        row = np.column_stack([x0 + np.arange(cols) * target_h, np.full(cols, ymin + r * dy)])
        rel = row[:, None, :] - corners
        with np.errstate(over="ignore", invalid="ignore"):
            inside = np.all(edges[:, 0] * rel[:, :, 1] - edges[:, 1] * rel[:, :, 0] > 0, axis=1)
            # Inside a convex polygon the distance to the boundary is the least
            # distance to its edges, so the k edges stand in for their subdivisions.
            clear = np.min(_segment_distances(row, corners, nxt), axis=1) >= 0.4 * target_h
        interior.append(row[inside & clear])
    interior = np.concatenate(interior)
    order = np.lexsort((interior[:, 0], interior[:, 1]))
    pts = np.concatenate([boundary_pts, interior[order]])

    triangles = _delaunay(pts, "polygon")
    # Delaunay closes the rounded, nearly collinear subdivision points of a
    # slanted edge into zero-area slivers along the boundary: drop those.
    # Mesh refuses any other degenerate triangle.
    areas = _signed_areas(pts, triangles)
    keep = ~(_flat(areas, _frame(pts)[1]) & np.all(triangles < boundary_pts.shape[0], axis=1))
    triangles = _orient_ccw(triangles[keep], areas[keep])
    return Mesh(pts, triangles, ("polygon",), areas=np.abs(areas[keep]))


def refine(mesh: Mesh) -> Mesh:
    """Uniform midpoint refinement: every triangle becomes four.

    New vertices are the edge midpoints, numbered in the order the edges
    ``01, 12, 20`` of the triangles first meet them.  For disk meshes the
    new boundary midpoints are projected radially back onto the circle, so
    the boundary polygon converges to the circle under repeated refinement.
    """
    v, t = mesh.vertices, mesh.triangles
    edges, first, inverse, counts = _edge_table(t, v.shape[0])
    order = np.argsort(first)
    number = np.empty(order.size, dtype=np.int64)
    number[order] = np.arange(order.size) + v.shape[0]
    ends = edges[first[order]]
    midpoints = 0.5 * (v[ends[:, 0]] + v[ends[:, 1]])
    if mesh.geometry[0] == "disk":
        _, cx, cy, radius = mesh.geometry
        center = np.array([cx, cy])
        on_boundary = counts[order] == 1
        d = midpoints[on_boundary] - center
        midpoints[on_boundary] = center + d * (radius / np.hypot(d[:, 0], d[:, 1]))[:, None]
    m01, m12, m20 = number[inverse.reshape(-1, 3)].T
    t0, t1, t2 = t.T
    triangles = np.stack(
        [t0, m01, m20, t1, m12, m01, t2, m20, m12, m01, m12, m20], axis=1
    ).reshape(-1, 3)
    return Mesh(np.concatenate([v, midpoints]), triangles, mesh.geometry)


def transform(mesh: Mesh, rotation: float = 0.0, offset=(0.0, 0.0), scale: float = 1.0) -> Mesh:
    """Return a rigidly moved (and optionally scaled) copy of ``mesh``."""
    if not scale > 0:
        raise ValueError("scale must be positive")
    c, s = math.cos(rotation), math.sin(rotation)
    rot = np.array([[c, -s], [s, c]])
    v = scale * mesh.vertices @ rot.T + np.asarray(offset, dtype=float)
    geometry = mesh.geometry
    if geometry[0] == "disk":
        _, cx, cy, radius = geometry
        cnew = scale * rot @ np.array([cx, cy]) + np.asarray(offset, dtype=float)
        geometry = ("disk", float(cnew[0]), float(cnew[1]), float(scale * radius))
    return Mesh(v, mesh.triangles, geometry)


# -- text serialization -----------------------------------------------------------


def write_mesh_text(mesh: Mesh) -> str:
    """Serialize a mesh to the canonical text format (bit-exact round trip).

    Layout: ``nodes <N>`` then one ``x y is_boundary`` line per node;
    ``triangles <T>`` then one ``i j k`` line per triangle (counterclockwise,
    0-based); ``boundary_loops <L>`` then per loop a ``loop <len>`` line
    followed by the node indices of the loop on one line.  The text is
    cached on the mesh, so :func:`mesh_hash` and later writes reuse it.
    """
    return mesh._text


def read_mesh_text(text: str) -> Mesh:
    """Parse the text format written by :func:`write_mesh_text`.

    The geometry tag is not part of the format, so meshes read back are
    treated as straight-sided polygons by :func:`refine`.
    """
    lines = [line for line in map(str.strip, text.split("\n")) if line]
    pos = 0

    def take(count: int) -> list[str]:
        nonlocal pos
        if pos + count > len(lines):
            raise ValueError("truncated mesh text")
        pos += count
        return lines[pos - count : pos]

    def header(name: str) -> int:
        """Count on the next line, which must read ``<name> <count>``."""
        (line,) = take(1)
        words = line.split()
        if len(words) != 2 or words[0] != name or not words[1].isdigit():
            raise ValueError(f"expected a '{name} <count>' header, got {line!r}")
        # Nothing is allocated from the count: a count past the text fails as truncated.
        return int(words[1])

    def rows(name: str, dtype, width: int) -> np.ndarray:
        """The ``name`` section as one array, one row of ``width`` values per line."""
        count = header(name)
        if count == 0:
            return np.empty((0, width), dtype)
        block = np.loadtxt(take(count), dtype=dtype, comments=None, ndmin=2)
        if block.shape[1] != width:
            raise ValueError(f"expected {width} values per '{name}' row")
        return block

    nodes = rows("nodes", float, 3)
    vertices, flags = nodes[:, :2], nodes[:, 2]
    triangles = rows("triangles", np.int64, 3)
    loops = []
    for _ in range(header("boundary_loops")):
        length = header("loop")
        loops.append(np.array(take(1)[0].split(), dtype=np.int64))
        if loops[-1].size != length:
            raise ValueError("loop length mismatch")

    mesh = Mesh(vertices, triangles, geometry=("polygon",))
    if not np.array_equal(mesh.is_boundary.astype(int), flags):
        raise ValueError("boundary flags inconsistent with triangulation")
    declared = {tuple(map(int, lp)) for lp in loops}
    derived = {tuple(map(int, lp)) for lp in mesh.boundary_loops}
    if declared != derived:
        raise ValueError("boundary loops inconsistent with triangulation")
    return mesh


def mesh_hash(mesh: Mesh) -> str:
    """SHA-256 of the canonical text serialization."""
    return hashlib.sha256(write_mesh_text(mesh).encode()).hexdigest()
