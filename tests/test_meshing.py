import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from steklovsvd import (
    build_disk_mesh,
    build_polygon_mesh,
    disk_mesh,
    mesh_hash,
    read_mesh_text,
    refine,
    transform,
    write_mesh_text,
)
from steklovsvd.errors import OutsideDomainError
from steklovsvd.fem import interpolate_values
from steklovsvd.meshing import Mesh, boundary_polygon_measures

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def shoelace(mesh):
    area = 0.0
    length = 0.0
    for loop in mesh.boundary_loops:
        p = mesh.vertices[loop]
        q = mesh.vertices[np.roll(loop, -1)]
        area += 0.5 * np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1])
        length += np.sum(np.hypot(*(q - p).T))
    return area, length


class TestDiskMesh:
    def test_inscribed_polygon_perimeter(self):
        # Perimeter of the inscribed n-gon: 2 n r sin(pi / n).
        mesh = build_disk_mesh(1.0, 4, 12)
        assert mesh.boundary_length == pytest.approx(24 * math.sin(math.pi / 12), abs=1e-12)

    def test_boundary_nodes_on_circle(self):
        mesh = build_disk_mesh(2.5, 5, 40)
        radii = np.hypot(*mesh.vertices[mesh.boundary_nodes].T)
        assert np.max(np.abs(radii - 2.5)) < 1e-12

    def test_refinement_boundary_length_increases_toward_circle(self):
        mesh = build_disk_mesh(1.0, 3, 16)
        lengths = [mesh.boundary_length]
        for _ in range(3):
            mesh = refine(mesh)
            lengths.append(mesh.boundary_length)
        assert all(b > a for a, b in zip(lengths, lengths[1:]))
        assert lengths[-1] < 2 * math.pi
        assert lengths[-1] == pytest.approx(2 * math.pi, rel=2e-4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(radius=1.0, n_radial=4, n_angular=2),
            dict(radius=-1.0, n_radial=4, n_angular=12),
            dict(radius=0.0, n_radial=4, n_angular=12),
            dict(radius=1.0, n_radial=0, n_angular=12),
        ],
    )
    def test_parameter_domain_errors(self, kwargs):
        with pytest.raises(ValueError):
            build_disk_mesh(**kwargs)

    def test_first_boundary_node_at_angle_zero(self):
        mesh = disk_mesh(1.0, 0.1)
        assert mesh.vertices[mesh.boundary_nodes[0]] == pytest.approx([1.0, 0.0])


class TestPolygonMesh:
    def test_unit_square_exact_geometry(self):
        mesh = build_polygon_mesh(UNIT_SQUARE, 0.1)
        assert mesh.area == pytest.approx(1.0, abs=1e-12)
        assert mesh.boundary_length == pytest.approx(4.0, abs=1e-12)

    def test_right_triangle_exact_geometry(self):
        mesh = build_polygon_mesh([(0, 0), (1, 0), (0, 1)], 0.2)
        assert mesh.area == pytest.approx(0.5, abs=1e-12)
        assert mesh.boundary_length == pytest.approx(2 + math.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("h", [0.3, 0.1, 0.05])
    def test_max_edge_bound(self, h):
        mesh = build_polygon_mesh(UNIT_SQUARE, h)
        assert mesh.max_edge_length <= 2 * h

    def test_bowtie_rejected(self):
        with pytest.raises(ValueError):
            build_polygon_mesh([(0, 0), (1, 1), (1, 0), (0, 1)], 0.1)

    def test_clockwise_rejected(self):
        with pytest.raises(ValueError, match="counterclockwise"):
            build_polygon_mesh([(0, 0), (0, 1), (1, 0)], 0.1)

    def test_nonconvex_rejected_with_explicit_message(self):
        lshape = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
        with pytest.raises(ValueError, match="convexity required"):
            build_polygon_mesh(lshape, 0.2)

    def test_nonpositive_spacing_rejected(self):
        with pytest.raises(ValueError):
            build_polygon_mesh(UNIT_SQUARE, 0.0)


class TestInvariants:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_disk_mesh(1.0, 4, 24),
            lambda: build_polygon_mesh(UNIT_SQUARE, 0.15),
            lambda: build_polygon_mesh([(0, 0), (2, 0), (3, 2), (1, 3), (-1, 1)], 0.3),
        ],
    )
    def test_quadrature_matches_polygon_exactly(self, make):
        mesh = make()
        area, length = shoelace(mesh)
        assert boundary_polygon_measures(mesh) == pytest.approx((area, length), rel=1e-13)
        assert mesh.area == pytest.approx(area, rel=1e-13)
        assert mesh.boundary_length == pytest.approx(length, rel=1e-13)
        assert np.all(mesh.interior_weights > 0)

    def test_normals_unit_and_outward(self):
        mesh = build_polygon_mesh([(0, 0), (2, 0), (3, 2), (1, 3), (-1, 1)], 0.3)
        assert np.max(np.abs(np.hypot(*mesh.normals.T) - 1)) < 1e-12
        mid = 0.5 * (
            mesh.vertices[mesh.boundary_edges[:, 0]]
            + mesh.vertices[mesh.boundary_edges[:, 1]]
        )
        centroid = mesh.vertices.mean(axis=0)
        assert np.min(np.einsum("ij,ij->i", mesh.normals, mid - centroid)) > 0

    def test_boundary_edges_belong_to_one_triangle(self):
        mesh = build_disk_mesh(1.0, 3, 18)
        edges = np.concatenate(
            [mesh.triangles[:, [0, 1]], mesh.triangles[:, [1, 2]], mesh.triangles[:, [2, 0]]]
        )
        key = np.sort(edges, axis=1)
        uniq, counts = np.unique(key, axis=0, return_counts=True)
        boundary = {tuple(sorted(e)) for e in mesh.boundary_edges.tolist()}
        for edge, count in zip(uniq.tolist(), counts):
            assert count == (1 if tuple(edge) in boundary else 2)

    def test_refine_quadruples_and_composes(self):
        mesh = build_polygon_mesh(UNIT_SQUARE, 0.25)
        t = mesh.triangles.shape[0]
        fine = refine(mesh)
        assert fine.triangles.shape[0] == 4 * t
        assert refine(fine).triangles.shape[0] == 16 * t

    def test_refine_halves_max_edge_for_straight_domains(self):
        mesh = build_polygon_mesh(UNIT_SQUARE, 0.25)
        fine = refine(mesh)
        assert fine.max_edge_length == pytest.approx(0.5 * mesh.max_edge_length, rel=1e-13)

    def test_transform_preserves_topology_and_scales_geometry(self):
        mesh = build_disk_mesh(1.0, 3, 16)
        moved = transform(mesh, rotation=0.3, offset=(2.0, -1.0), scale=3.0)
        assert np.array_equal(moved.triangles, mesh.triangles)
        assert moved.boundary_length == pytest.approx(3 * mesh.boundary_length, rel=1e-13)
        assert moved.area == pytest.approx(9 * mesh.area, rel=1e-13)
        assert moved.geometry[3] == pytest.approx(3.0)


class TestPointQueries:
    def test_locate_and_interpolate_consistency(self, disk_coarse):
        ti, lam = disk_coarse.locate((0.21, -0.37))
        assert lam.min() >= -1e-10
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
        point = lam @ disk_coarse.vertices[disk_coarse.triangles[ti]]
        assert point == pytest.approx([0.21, -0.37], abs=1e-12)

    def test_locate_outside_raises(self, disk_coarse):
        with pytest.raises(OutsideDomainError):
            disk_coarse.locate((2.0, 0.0))

    def test_distance_to_boundary(self):
        mesh = build_polygon_mesh(UNIT_SQUARE, 0.2)
        assert mesh.distance_to_boundary((0.5, 0.5)) == pytest.approx(0.5)
        assert mesh.distance_to_boundary((0.1, 0.4)) == pytest.approx(0.1)


class TestTextFormat:
    def test_roundtrip_is_bit_exact(self):
        mesh = build_polygon_mesh([(0, 0), (2, 0), (1.5, 1.7), (0.2, 1.1)], 0.3)
        text = write_mesh_text(mesh)
        back = read_mesh_text(text)
        assert write_mesh_text(back) == text
        assert mesh_hash(back) == mesh_hash(mesh)

    def test_disk_roundtrip_hash(self):
        mesh = disk_mesh(1.0, 0.2)
        assert mesh_hash(read_mesh_text(write_mesh_text(mesh))) == mesh_hash(mesh)

    def test_corrupted_flags_rejected(self):
        mesh = build_polygon_mesh(UNIT_SQUARE, 0.4)
        lines = write_mesh_text(mesh).splitlines()
        # flip the boundary flag of the first node
        x, y, flag = lines[1].split()
        lines[1] = f"{x} {y} {1 - int(flag)}"
        with pytest.raises(ValueError):
            read_mesh_text("\n".join(lines))


# -- reference implementations -------------------------------------------------------
#
# The per-triangle and per-point loops the package used before the geometry
# layer was built from arrays, copied unchanged (methods made functions of
# the mesh); the array versions must reproduce them bit for bit.


def ref_refine(mesh: Mesh) -> Mesh:
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


def ref_incidence(mesh):
    inc = [[] for _ in range(mesh.vertices.shape[0])]
    for ti, tri in enumerate(mesh.triangles):
        for vi in tri:
            inc[vi].append(ti)
    return inc, cKDTree(mesh.vertices)


def ref_barycentric(mesh, tri_index: int, point: np.ndarray):
    p = mesh.vertices[mesh.triangles[tri_index]]
    mat = np.column_stack([p[1] - p[0], p[2] - p[0]])
    lam = np.linalg.solve(mat, point - p[0])
    return np.array([1.0 - lam[0] - lam[1], lam[0], lam[1]])


def ref_locate(mesh, point, incidence) -> tuple[int, np.ndarray]:
    point = np.asarray(point, dtype=float)
    inc, tree = incidence
    tol = -1e-10
    _, near = tree.query(point, k=min(8, mesh.vertices.shape[0]))
    seen = set()
    for vi in np.atleast_1d(near):
        for ti in inc[int(vi)]:
            if ti in seen:
                continue
            seen.add(ti)
            lam = ref_barycentric(mesh, ti, point)
            if lam.min() >= tol:
                return ti, lam
    for ti in range(mesh.triangles.shape[0]):
        if ti in seen:
            continue
        lam = ref_barycentric(mesh, ti, point)
        if lam.min() >= tol:
            return ti, lam
    raise OutsideDomainError(f"point {tuple(point)} lies outside the mesh")


def ref_interpolate_values(mesh, values, points, incidence) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty((pts.shape[0],) + values.shape[1:])
    for i, point in enumerate(pts):
        ti, lam = ref_locate(mesh, point, incidence)
        out[i] = lam @ values[mesh.triangles[ti]]
    return out


# -- array-built geometry against the references --------------------------------------

SLANTED = [(0, 0), (2, 0), (3, 2), (1, 3), (-1, 1)]

REFINE_CASES = {
    "disk": lambda: disk_mesh(1.0, 0.1),
    "moved_disk": lambda: transform(disk_mesh(1.0, 0.12), 0.7, (0.4, -1.3), 1.7),
    "polygon": lambda: build_polygon_mesh(SLANTED, 0.3),
    "read_back": lambda: read_mesh_text(write_mesh_text(disk_mesh(1.0, 0.15))),
    "small_disk": lambda: build_disk_mesh(0.01, 2, 12),
}


def assert_same_mesh(mesh, ref):
    assert np.array_equal(mesh.vertices, ref.vertices)
    assert np.array_equal(mesh.triangles, ref.triangles)
    assert mesh.geometry == ref.geometry
    assert mesh_hash(mesh) == mesh_hash(ref)


class TestArrayRefine:
    @pytest.mark.parametrize("name", sorted(REFINE_CASES))
    def test_matches_reference(self, name):
        mesh = REFINE_CASES[name]()
        assert_same_mesh(refine(mesh), ref_refine(mesh))

    @pytest.mark.parametrize("name", ["disk", "polygon"])
    def test_twice_matches_reference(self, name):
        mesh = REFINE_CASES[name]()
        assert_same_mesh(refine(refine(mesh)), ref_refine(ref_refine(mesh)))


def point_corpus(mesh, seed):
    """Random interior points, every vertex, every edge midpoint (where two
    triangles tie) and points one element size inside the boundary."""
    rng = np.random.default_rng(seed)
    p = mesh.vertices[mesh.triangles[rng.integers(0, mesh.triangles.shape[0], 300)]]
    weights = rng.dirichlet(np.ones(3), 300)
    random_points = np.einsum("ij,ijk->ik", weights, p)
    edges = np.unique(np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1), axis=0)
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    boundary = mesh.vertices[mesh.boundary_nodes]
    center = mesh.vertices.mean(axis=0)
    inward = boundary - center
    inward *= (1.0 - mesh.max_edge_length / np.hypot(*inward.T))[:, None]
    return np.concatenate([random_points, mesh.vertices, midpoints, center + inward])


LOCATE_CASES = {
    "disk": lambda: disk_mesh(1.0, 0.1),
    "moved_disk": lambda: transform(disk_mesh(1.0, 0.12), 0.7, (0.4, -1.3), 1.7),
    "polygon": lambda: build_polygon_mesh(SLANTED, 0.3),
}


class TestBatchedLocate:
    @pytest.mark.parametrize("name", sorted(LOCATE_CASES))
    def test_matches_reference(self, name):
        mesh = LOCATE_CASES[name]()
        points = point_corpus(mesh, seed=len(name))
        incidence = ref_incidence(mesh)
        expected = [ref_locate(mesh, p, incidence) for p in points]
        tri, lam = mesh.locate_many(points)
        assert tri.tolist() == [t for t, _ in expected]
        assert np.array_equal(lam, np.array([l for _, l in expected]))
        t0, l0 = mesh.locate(points[7])
        assert (t0, l0.tolist()) == (expected[7][0], expected[7][1].tolist())

    @pytest.mark.parametrize("name", sorted(LOCATE_CASES))
    def test_interpolation_matches_reference(self, name):
        mesh = LOCATE_CASES[name]()
        points = point_corpus(mesh, seed=len(name))[::5]
        incidence = ref_incidence(mesh)
        values = np.random.default_rng(3).standard_normal((mesh.vertices.shape[0], 6))
        for field in (values, values[:, 0]):
            expected = ref_interpolate_values(mesh, field, points, incidence)
            assert np.array_equal(interpolate_values(mesh, field, points), expected)
        single = ref_interpolate_values(mesh, values, points[3], incidence)
        assert np.array_equal(interpolate_values(mesh, values, points[3]), single)
        none = ref_interpolate_values(mesh, values, np.empty((0, 2)), incidence)
        assert np.array_equal(interpolate_values(mesh, values, np.empty((0, 2))), none)

    def test_outside_point_in_a_batch_raises(self, disk_coarse):
        points = [(0.1, 0.2), (0.0, 0.0), (1.5, 0.3), (-0.4, 0.1)]
        with pytest.raises(OutsideDomainError, match="outside the mesh"):
            disk_coarse.locate_many(points)
        with pytest.raises(OutsideDomainError):
            interpolate_values(disk_coarse, np.ones(disk_coarse.vertices.shape[0]), points)

    def test_point_away_from_its_nearest_vertices(self):
        # One large triangle below y = 0 and a fan of small ones above it:
        # the nine fan vertices near the point belong only to fan triangles,
        # so the point is found in the whole-mesh pass, as in the reference.
        arc = np.column_stack([np.linspace(1.0, -1.0, 9), np.full(9, 0.3)])
        vertices = np.concatenate([[(-10.0, 0.0), (10.0, 0.0), (0.0, -10.0)], arc])
        triangles = [(0, 2, 1), (0, 1, 3)] + [(0, i, i + 1) for i in range(3, 11)]
        mesh = Mesh(vertices, triangles)
        point = np.array([0.0, -0.1])
        tri, lam = mesh.locate_many(point[None])
        ti, li = ref_locate(mesh, point, ref_incidence(mesh))
        assert (int(tri[0]), lam[0].tolist()) == (ti, li.tolist()) == (0, li.tolist())


# -- polygon meshing with slanted edges ----------------------------------------------


def polygon_shoelace(corners):
    corners = np.asarray(corners, dtype=float)
    nxt = np.roll(corners, -1, axis=0)
    return 0.5 * float(np.sum(corners[:, 0] * nxt[:, 1] - nxt[:, 0] * corners[:, 1]))


@st.composite
def convex_polygons(draw):
    """Strictly convex polygons: sorted angles on a stretched, rotated circle."""
    n = draw(st.integers(3, 9))
    gaps = np.array(draw(st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n)))
    angles = np.cumsum(2.0 * math.pi * gaps / gaps.sum())
    if np.max(2.0 * math.pi * gaps / gaps.sum()) > 0.9 * math.pi:
        angles = 2.0 * math.pi * np.arange(n) / n
    aspect = draw(st.floats(0.5, 1.0))
    turn = draw(st.floats(0.0, math.pi))
    offset = np.array(draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))))
    c, s = math.cos(turn), math.sin(turn)
    points = np.column_stack([np.cos(angles), aspect * np.sin(angles)])
    return points @ np.array([[c, s], [-s, c]]) + offset


class TestPolygonMeshSlantedEdges:
    # Convex 7-gon whose slanted edges used to give "degenerate (zero-area)
    # triangle" at h = 0.05.
    PINNED_7GON = [
        (0.217, 0.4455),
        (-0.0244, 0.6454),
        (-0.2635, 0.6836),
        (-0.3833, 0.6607),
        (-0.6517, -0.1529),
        (-0.2959, -0.3654),
        (-0.0179, -0.3278),
    ]

    @settings(max_examples=40)
    @given(convex_polygons(), st.sampled_from([0.05, 0.08, 0.13]))
    def test_convex_polygon_meshes(self, corners, h):
        mesh = build_polygon_mesh(corners, h)
        mesh.validate()
        assert mesh.area == pytest.approx(polygon_shoelace(corners), rel=1e-12)
        assert np.array_equal(np.unique(mesh.triangles), np.arange(mesh.vertices.shape[0]))

    def test_pinned_heptagon(self):
        mesh = build_polygon_mesh(self.PINNED_7GON, 0.05)
        assert mesh.area == pytest.approx(polygon_shoelace(self.PINNED_7GON), rel=1e-12)
        assert np.array_equal(np.unique(mesh.triangles), np.arange(mesh.vertices.shape[0]))
