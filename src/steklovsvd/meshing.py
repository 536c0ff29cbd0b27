"""Triangulated planar domains with oriented boundaries and quadrature.

A :class:`Mesh` stores a triangulation of a bounded convex planar domain
together with everything the solvers need: counterclockwise triangles with
positive areas, ordered closed boundary loops, unit outward normals, and
quadrature weights.  Interior quadrature is exact per-triangle area
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

:func:`refine` performs uniform midpoint subdivision; new boundary
midpoints of disk meshes are projected back onto the circle.
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


def _signed_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p = vertices[triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def boundary_polygon_measures(mesh: Mesh) -> tuple[float, float]:
    """Area (shoelace formula) and perimeter of the boundary polygon, over all loops."""
    area = 0.0
    length = 0.0
    for loop in mesh.boundary_loops:
        p = mesh.vertices[loop]
        q = mesh.vertices[np.roll(loop, -1)]
        area += 0.5 * float(np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]))
        length += float(np.sum(np.hypot(*(q - p).T)))
    return area, length


def _orient_ccw(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Swap vertices of clockwise triangles in place; reject degenerate ones."""
    areas = _signed_areas(vertices, triangles)
    flip = areas < 0
    triangles = triangles.copy()
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    areas = np.abs(areas)
    scale = float(np.max(np.abs(vertices))) if vertices.size else 1.0
    if np.any(areas <= 1e-14 * max(scale, 1.0) ** 2):
        raise ValueError("triangulation contains a degenerate (zero-area) triangle")
    return triangles


class Mesh:
    """Immutable triangulation of a convex planar domain.

    Parameters
    ----------
    vertices : (n, 2) array_like
        Vertex coordinates.
    triangles : (t, 3) array_like
        Vertex index triples.  Must be counterclockwise with strictly
        positive area; use the module generators rather than building by
        hand unless you control orientation.
    geometry : tuple
        ``("polygon",)`` for straight-sided domains, or
        ``("disk", cx, cy, radius)`` for disk meshes whose boundary nodes
        lie on the circle.  Refinement uses this to snap new boundary
        nodes back to the circle.

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
    """

    def __init__(self, vertices, triangles, geometry=("polygon",)):
        v = np.array(vertices, dtype=float)
        t = np.array(triangles, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must have shape (n, 2)")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError("triangles must have shape (t, 3)")
        if t.size and (t.min() < 0 or t.max() >= v.shape[0]):
            raise ValueError("triangle index out of range")
        areas = _signed_areas(v, t)
        if np.any(areas <= 0):
            raise ValueError("all triangles must be counterclockwise with positive area")

        self.vertices = v
        self.triangles = t
        self.interior_weights = areas
        self.geometry = tuple(geometry)

        self._extract_boundary()

        self.is_boundary = np.zeros(v.shape[0], dtype=bool)
        self.is_boundary[self.boundary_nodes] = True
        self.interior_nodes = np.flatnonzero(~self.is_boundary)

        for arr in (
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

        self._vertex_triangles = None
        self._kdtree = None
        self.validate()

    # -- construction helpers -------------------------------------------------

    def _extract_boundary(self):
        """Find boundary edges (owned by exactly one triangle) and chain loops."""
        t = self.triangles
        edges = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        owner = np.tile(np.arange(t.shape[0]), 3)
        key = np.sort(edges, axis=1)
        _, inverse, counts = np.unique(key, axis=0, return_inverse=True, return_counts=True)
        if np.any(counts > 2):
            raise ValueError("non-manifold edge: shared by more than two triangles")
        on_boundary = counts[inverse] == 1
        bedges = edges[on_boundary]
        bowner = owner[on_boundary]

        nxt = {}
        edge_owner = {}
        for (a, b), tri in zip(bedges, bowner):
            a, b = int(a), int(b)
            if a in nxt:
                raise ValueError("boundary is not a disjoint union of simple loops")
            nxt[a] = b
            edge_owner[(a, b)] = int(tri)

        loops = []
        remaining = set(nxt)
        while remaining:
            start = min(remaining)
            loop = [start]
            remaining.discard(start)
            cur = nxt[start]
            while cur != start:
                loop.append(cur)
                remaining.discard(cur)
                cur = nxt[cur]
            loops.append(np.array(loop, dtype=np.int64))
        loops.sort(key=lambda lp: int(lp[0]))

        self.boundary_loops = loops
        self.boundary_nodes = np.concatenate(loops)

        edge_list = []
        owners = []
        for loop in loops:
            pairs = np.stack([loop, np.roll(loop, -1)], axis=1)
            edge_list.append(pairs)
            owners.extend(edge_owner[(int(a), int(b))] for a, b in pairs)
        self.boundary_edges = np.concatenate(edge_list)
        self._edge_owner_triangle = np.array(owners, dtype=np.int64)

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

    @property
    def max_edge_length(self) -> float:
        p = self.vertices[self.triangles]
        lengths = [np.hypot(*(p[:, i] - p[:, j]).T) for i, j in ((0, 1), (1, 2), (2, 0))]
        return float(np.max(lengths))

    @cached_property
    def _text(self) -> str:
        """Canonical text of :func:`write_mesh_text`, built once: the arrays are read-only."""
        flags = self.is_boundary.astype(int).tolist()
        lines = [f"nodes {self.vertices.shape[0]}"]
        lines += [f"{format_floats(xy, ' ')} {fb}" for xy, fb in zip(self.vertices, flags)]
        lines.append(f"triangles {self.triangles.shape[0]}")
        lines += [f"{i} {j} {k}" for i, j, k in self.triangles]
        lines.append(f"boundary_loops {len(self.boundary_loops)}")
        for loop in self.boundary_loops:
            lines.append(f"loop {len(loop)}")
            lines.append(" ".join(map(str, loop.tolist())))
        return "\n".join(lines) + "\n"

    def validate(self):
        """Check mesh invariants; raises ``ValueError`` on violation."""
        if np.any(self.interior_weights <= 0):
            raise ValueError("triangle with non-positive area")
        # Outward orientation: normal points away from the owning triangle's centroid.
        mid = 0.5 * (
            self.vertices[self.boundary_edges[:, 0]] + self.vertices[self.boundary_edges[:, 1]]
        )
        centroid = self.vertices[self.triangles[self._edge_owner_triangle]].mean(axis=1)
        if np.any(np.einsum("ij,ij->i", self.normals, mid - centroid) <= 0):
            raise ValueError("boundary normal does not point outward")
        # Quadrature exactness against the shoelace formula on the boundary polygon.
        shoelace, _ = boundary_polygon_measures(self)
        scale = max(abs(shoelace), 1.0)
        if abs(self.area - shoelace) > 1e-10 * scale:
            raise ValueError(
                f"interior weights sum {self.area!r} != polygon area {shoelace!r}"
            )

    # -- point queries ----------------------------------------------------------

    def _incidence(self):
        if self._vertex_triangles is None:
            inc = [[] for _ in range(self.vertices.shape[0])]
            for ti, tri in enumerate(self.triangles):
                for vi in tri:
                    inc[vi].append(ti)
            self._vertex_triangles = inc
            self._kdtree = cKDTree(self.vertices)
        return self._vertex_triangles, self._kdtree

    def _barycentric(self, tri_index: int, point: np.ndarray):
        p = self.vertices[self.triangles[tri_index]]
        mat = np.column_stack([p[1] - p[0], p[2] - p[0]])
        lam = np.linalg.solve(mat, point - p[0])
        return np.array([1.0 - lam[0] - lam[1], lam[0], lam[1]])

    def locate(self, point) -> tuple[int, np.ndarray]:
        """Return ``(triangle_index, barycentric_coords)`` containing ``point``.

        Raises :class:`OutsideDomainError` when the point is not inside the
        triangulated polygon (up to a small tolerance).
        """
        point = np.asarray(point, dtype=float)
        inc, tree = self._incidence()
        tol = -1e-10
        _, near = tree.query(point, k=min(8, self.vertices.shape[0]))
        seen = set()
        for vi in np.atleast_1d(near):
            for ti in inc[int(vi)]:
                if ti in seen:
                    continue
                seen.add(ti)
                lam = self._barycentric(ti, point)
                if lam.min() >= tol:
                    return ti, lam
        for ti in range(self.triangles.shape[0]):
            if ti in seen:
                continue
            lam = self._barycentric(ti, point)
            if lam.min() >= tol:
                return ti, lam
        raise OutsideDomainError(f"point {tuple(point)} lies outside the mesh")

    def distance_to_boundary(self, point) -> float:
        """Euclidean distance from ``point`` to the polygonal boundary."""
        point = np.asarray(point, dtype=float)
        a = self.vertices[self.boundary_edges[:, 0]]
        b = self.vertices[self.boundary_edges[:, 1]]
        return float(np.min(_segment_distances(point, a, b)))


# -- generators -----------------------------------------------------------------


def build_disk_mesh(radius: float, n_radial: int, n_angular: int, grading: float = 0.8) -> Mesh:
    """Triangulate the regular ``n_angular``-gon inscribed in a circle.

    Vertices are placed on ``n_radial`` concentric rings plus the center.
    Ring radii follow ``radius * (i / n_radial) ** grading`` so spacing
    tightens toward the boundary; each ring carries a number of nodes
    proportional to its circumference, and the outer ring carries exactly
    ``n_angular`` nodes lying on the circle, starting at angle zero.

    Parameters
    ----------
    radius : float
        Circle radius, must be positive.
    n_radial : int
        Number of rings, at least 1.
    n_angular : int
        Nodes on the boundary circle, at least 3.
    grading : float
        Radial grading exponent in (0, 1]; 1 gives uniform rings.

    Returns
    -------
    Mesh
    """
    if n_angular < 3:
        raise ValueError(f"n_angular must be >= 3, got {n_angular}")
    if n_radial < 1:
        raise ValueError(f"n_radial must be >= 1, got {n_radial}")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if not 0 < grading <= 1:
        raise ValueError(f"grading must lie in (0, 1], got {grading}")

    points = [np.zeros((1, 2))]
    for i in range(1, n_radial + 1):
        r = radius * (i / n_radial) ** grading
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
    tri = Delaunay(pts)
    triangles = _orient_ccw(pts, tri.simplices.astype(np.int64))
    return Mesh(pts, triangles, geometry=("disk", 0.0, 0.0, float(radius)))


def disk_mesh(radius: float, target_h: float, grading: float = 0.8) -> Mesh:
    """Disk mesh with boundary spacing close to ``target_h``."""
    if not target_h > 0:
        raise ValueError(f"target_h must be positive, got {target_h}")
    n_angular = max(12, int(round(2.0 * math.pi * radius / target_h)))
    n_radial = max(2, int(round(radius / target_h)))
    return build_disk_mesh(radius, n_radial, n_angular, grading=grading)


def _segment_distances(point: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ab = b - a
    t = np.einsum("ij,ij->i", point - a, ab) / np.einsum("ij,ij->i", ab, ab)
    t = np.clip(t, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.hypot(*(point - proj).T)


def build_polygon_mesh(vertices, target_h: float) -> Mesh:
    """Delaunay triangulation of a simple convex counterclockwise polygon.

    Boundary edges are subdivided so every boundary segment is at most
    ``target_h`` long; the interior is filled with a staggered hexagonal
    point lattice of spacing ``target_h``.  The resulting maximum edge
    length is bounded by ``2 * target_h``.

    Parameters
    ----------
    vertices : (k, 2) array_like
        Polygon corners in counterclockwise order, strictly convex.
    target_h : float
        Target spacing, must be positive.

    Raises
    ------
    ValueError
        For clockwise, self-intersecting, or non-convex input (the latter
        with an explicit "convexity required" message), or non-positive
        ``target_h``.
    """
    corners = np.asarray(vertices, dtype=float)
    if corners.ndim != 2 or corners.shape[1] != 2 or corners.shape[0] < 3:
        raise ValueError("polygon needs at least 3 planar vertices")
    if not target_h > 0:
        raise ValueError(f"target_h must be positive, got {target_h}")
    k = corners.shape[0]
    nxt = np.roll(corners, -1, axis=0)
    signed_area = 0.5 * float(np.sum(corners[:, 0] * nxt[:, 1] - nxt[:, 0] * corners[:, 1]))
    if signed_area <= 0:
        raise ValueError(
            "polygon must be simple with counterclockwise orientation "
            f"(signed area {signed_area!r})"
        )
    edges = nxt - corners
    prev_edges = np.roll(edges, 1, axis=0)
    cross = prev_edges[:, 0] * edges[:, 1] - prev_edges[:, 1] * edges[:, 0]
    if np.any(cross <= 0):
        raise ValueError("convexity required: input polygon is not strictly convex")

    boundary_pts = []
    for i in range(k):
        a, b = corners[i], corners[(i + 1) % k]
        n_seg = max(1, int(math.ceil(np.hypot(*(b - a)) / target_h)))
        for j in range(n_seg):
            boundary_pts.append(a + (b - a) * (j / n_seg))
    boundary_pts = np.asarray(boundary_pts)

    xmin, ymin = corners.min(axis=0)
    xmax, ymax = corners.max(axis=0)
    dy = target_h * math.sqrt(3.0) / 2.0
    rows = int(math.floor((ymax - ymin) / dy)) + 1
    interior = []
    seg_a = boundary_pts
    seg_b = np.roll(boundary_pts, -1, axis=0)
    for r in range(rows):
        y = ymin + r * dy
        x0 = xmin + (target_h / 2.0 if r % 2 else 0.0)
        cols = int(math.floor((xmax - x0) / target_h)) + 1
        for c in range(cols):
            p = np.array([x0 + c * target_h, y])
            rel = p - corners
            inside = np.all(edges[:, 0] * rel[:, 1] - edges[:, 1] * rel[:, 0] > 0)
            if inside and np.min(_segment_distances(p, seg_a, seg_b)) >= 0.4 * target_h:
                interior.append(p)
    if interior:
        interior = np.asarray(interior)
        order = np.lexsort((interior[:, 0], interior[:, 1]))
        pts = np.concatenate([boundary_pts, interior[order]])
    else:
        pts = boundary_pts

    tri = Delaunay(pts)
    triangles = _orient_ccw(pts, tri.simplices.astype(np.int64))
    return Mesh(pts, triangles, geometry=("polygon",))


def refine(mesh: Mesh) -> Mesh:
    """Uniform midpoint refinement: every triangle becomes four.

    For disk meshes the new boundary midpoints are projected radially back
    onto the circle, so the boundary polygon converges to the circle under
    repeated refinement.
    """
    v = mesh.vertices
    new_vertices = [v]
    midpoint_index: dict[tuple[int, int], int] = {}
    next_index = v.shape[0]

    boundary_keys = {tuple(sorted(map(int, e))) for e in mesh.boundary_edges}
    is_disk = mesh.geometry[0] == "disk"
    if is_disk:
        _, cx, cy, radius = mesh.geometry
        center = np.array([cx, cy])

    midpoints = []

    def midpoint(a: int, b: int) -> int:
        nonlocal next_index
        key = (a, b) if a < b else (b, a)
        idx = midpoint_index.get(key)
        if idx is None:
            p = 0.5 * (v[a] + v[b])
            if is_disk and key in boundary_keys:
                d = p - center
                p = center + d * (radius / np.hypot(*d))
            midpoints.append(p)
            idx = next_index
            midpoint_index[key] = idx
            next_index += 1
        return idx

    new_triangles = []
    for t0, t1, t2 in mesh.triangles:
        t0, t1, t2 = int(t0), int(t1), int(t2)
        m01 = midpoint(t0, t1)
        m12 = midpoint(t1, t2)
        m20 = midpoint(t2, t0)
        new_triangles.extend(
            [(t0, m01, m20), (t1, m12, m01), (t2, m20, m12), (m01, m12, m20)]
        )

    new_vertices.append(np.asarray(midpoints))
    return Mesh(np.concatenate(new_vertices), np.asarray(new_triangles, dtype=np.int64), mesh.geometry)


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
    tokens = text.split("\n")
    pos = 0

    def take() -> str:
        nonlocal pos
        while pos < len(tokens) and not tokens[pos].strip():
            pos += 1
        if pos >= len(tokens):
            raise ValueError("truncated mesh text")
        line = tokens[pos].strip()
        pos += 1
        return line

    head = take().split()
    if head[0] != "nodes":
        raise ValueError("mesh text must start with a 'nodes' header")
    n = int(head[1])
    vertices = np.empty((n, 2))
    flags = np.empty(n, dtype=int)
    for i in range(n):
        x, y, fb = take().split()
        vertices[i] = (float(x), float(y))
        flags[i] = int(fb)
    head = take().split()
    if head[0] != "triangles":
        raise ValueError("expected 'triangles' header")
    t = int(head[1])
    triangles = np.empty((t, 3), dtype=np.int64)
    for i in range(t):
        triangles[i] = [int(w) for w in take().split()]
    head = take().split()
    if head[0] != "boundary_loops":
        raise ValueError("expected 'boundary_loops' header")
    n_loops = int(head[1])
    loops = []
    for _ in range(n_loops):
        head = take().split()
        if head[0] != "loop":
            raise ValueError("expected 'loop' header")
        length = int(head[1])
        idx = [int(w) for w in take().split()]
        if len(idx) != length:
            raise ValueError("loop length mismatch")
        loops.append(np.array(idx, dtype=np.int64))

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
