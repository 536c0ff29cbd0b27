import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay, cKDTree

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
from steklovsvd import meshing
from steklovsvd.errors import OutsideDomainError
from steklovsvd.fem import interpolate_values
from steklovsvd.meshing import (
    Mesh,
    _flat,
    _frame,
    _orient_ccw,
    _segment_distances,
    _signed_areas,
)

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

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: disk_mesh(math.nan, 0.1), "radius must be positive and finite, got nan"),
            (lambda: disk_mesh(math.inf, 0.1), "radius must be positive and finite, got inf"),
            (lambda: disk_mesh(1.0, math.inf), "target_h must be positive and finite, got inf"),
            (lambda: disk_mesh(1.0, math.nan), "target_h must be positive and finite, got nan"),
            (lambda: build_disk_mesh(math.inf, 4, 12), "radius must be positive and finite"),
            (
                lambda: build_polygon_mesh([(0, 0), (1, 0), (math.nan, 1), (0, 1)], 0.2),
                "polygon corners must be finite",
            ),
            (lambda: build_polygon_mesh(UNIT_SQUARE, math.inf), "target_h must be positive and finite"),
        ],
        ids=["radius_nan", "radius_inf", "h_inf", "h_nan", "build_radius_inf", "corner_nan", "polygon_h_inf"],
    )
    def test_non_finite_parameters_are_named(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            call()

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
        assert mesh.polygon_measures() == pytest.approx((area, length), rel=1e-13)
        assert mesh.area == pytest.approx(area, rel=1e-13)
        assert mesh.boundary_length == pytest.approx(length, rel=1e-13)
        assert np.all(mesh.interior_weights > 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vertex_is_refused(self, bad):
        with pytest.raises(ValueError, match=rf"^mesh node 2 is not finite: \({bad}, 1\.0\)$"):
            Mesh([[0, 0], [1, 0], [bad, 1]], [[0, 1, 2]])

    def test_nan_area_is_refused(self):
        with pytest.raises(ValueError, match=r"^triangle 0 has signed area nan: each must be "):
            Mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]], areas=[math.nan])

    @pytest.mark.parametrize(
        "second, areas, text",
        [
            ([1, 2, 3], None, "-0.5"),
            ([1, 2, 2], None, "0.0"),
            ([1, 3, 2], [0.5, math.nan], "nan"),
        ],
        ids=["clockwise", "zero_area", "nan_area"],
    )
    def test_a_bad_triangle_is_named_by_index(self, second, areas, text):
        vertices = [[0, 0], [1, 0], [0, 1], [1, 1]]
        with pytest.raises(ValueError) as exc:
            Mesh(vertices, [[0, 1, 2], second], areas=areas)
        assert str(exc.value) == (
            f"triangle 1 has signed area {text}: each must be finite and above 1e-14 times "
            "the mesh scale squared (scale 0.5)"
        )

    def test_an_empty_triangulation_is_refused(self):
        with pytest.raises(ValueError, match="^a mesh needs at least one triangle$"):
            Mesh([[0, 0], [1, 0], [0, 1]], np.empty((0, 3), dtype=np.int64))

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


PENTAGON = np.array([(0, 0), (2, 0), (3, 2), (1, 3), (-1, 1)], dtype=float)


class TestSizeAndScale:
    @pytest.mark.parametrize(
        "call, spacing",
        [
            (lambda: disk_mesh(1.0, 1e-30), "target_h=1e-30"),
            (lambda: build_polygon_mesh(UNIT_SQUARE, 1e-9), "target_h=1e-09"),
            (lambda: build_disk_mesh(1.0, 10**6, 10**6), "n_radial=1000000, n_angular=1000000"),
        ],
        ids=["disk", "polygon", "build_disk"],
    )
    def test_too_many_points_are_refused_before_any_array(self, call, spacing):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as exc:
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value).startswith(f"the domain is too large for {spacing}: it needs about ")
        assert str(exc.value).endswith(f" points, more than {meshing._MAX_POINTS}")
        assert peak < 2**20

    @pytest.mark.parametrize(
        "make",
        [
            lambda: disk_mesh(1.0, 0.05),
            lambda: build_disk_mesh(1.0, 3, 16),
            lambda: build_polygon_mesh(UNIT_SQUARE, 0.05),
            lambda: build_polygon_mesh(PENTAGON, 0.1),
        ],
        ids=["disk", "build_disk", "square", "pentagon"],
    )
    def test_the_estimate_bounds_the_point_count(self, monkeypatch, make):
        # A limit one below the real count refuses the mesh: the check never lets more through.
        monkeypatch.setattr(meshing, "_MAX_POINTS", make().vertices.shape[0] - 1)
        with pytest.raises(ValueError, match="points, more than"):
            make()

    @pytest.mark.parametrize("k", [-300, -40, -1, 250, 332])
    def test_a_power_of_two_scale_moves_no_triangle(self, k):
        # Qhull once refused 2**332 (about 1e100) as a flat initial simplex,
        # and an absolute area floor once refused domains smaller than 1.
        for make in (
            lambda s: disk_mesh(s, 0.1 * s),
            lambda s: build_polygon_mesh(PENTAGON * s, 0.2 * s),
        ):
            base, scaled = make(1.0), make(2.0**k)
            np.testing.assert_array_equal(scaled.vertices, np.ldexp(base.vertices, k))
            np.testing.assert_array_equal(scaled.triangles, base.triangles)

    def test_coordinates_whose_areas_overflow_are_refused(self, recwarn):
        square = np.array(UNIT_SQUARE) - 0.5
        mesh = build_polygon_mesh(square * 2.0**510, 2.0**508)
        assert np.all(np.isfinite(mesh.interior_weights))
        with pytest.raises(ValueError, match=r"^triangle \d+ has signed area inf: each must be "):
            build_polygon_mesh(square * 2.0**513, 2.0**513)
        # Each triangle's area is finite here, but not their sum.
        with pytest.raises(ValueError, match=r"^interior weights sum inf != polygon area inf$"):
            build_polygon_mesh(square * 2.0**512, 2.0**510)
        assert not recwarn.list

    @pytest.mark.parametrize(
        "make",
        [lambda: disk_mesh(1e-6, 1e-7), lambda: build_polygon_mesh(PENTAGON * 1e-6, 2e-7)],
        ids=["disk", "pentagon"],
    )
    def test_a_domain_smaller_than_one_builds(self, make):
        mesh = make()
        assert mesh.area == pytest.approx(mesh.polygon_measures()[0], rel=1e-13)

    def test_the_frame_is_one_on_unit_domains_and_follows_powers_of_two(self):
        w, h = 1.2247448713915889, 0.816496580927726
        rect = [(0, 0), (w, 0), (w, h), (0, h)]
        for mesh in disk_mesh(1.0, 0.2), build_polygon_mesh(rect, 0.02):
            assert mesh.scale == 1.0 and np.all(mesh.origin == 0.0)
        mesh = build_polygon_mesh(PENTAGON, 0.3)  # half-extents 2 and 1.5
        assert mesh.scale == 2.0 and np.all(mesh.origin == 0.0)
        for k in (-40, 30):
            scaled = transform(mesh, scale=2.0**k)
            assert scaled.scale == mesh.scale * 2.0**k and np.all(scaled.origin == 0.0)
        moved = transform(mesh, offset=(1000.5, -5.0))  # centre (1001.5, -3.5)
        assert moved.scale == mesh.scale and np.array_equal(moved.origin, [1000.0, -2.0])

    def test_a_mesh_far_from_the_origin_builds(self):
        # An area floor from the largest absolute coordinate refused this copy
        # of the unit disk, though its triangles are the disk's.
        for offset in 1e6, 1e7:
            moved = transform(disk_mesh(1.0, 0.1), offset=(offset, 0.0))
            assert moved.scale == 1.0
            assert moved.polygon_measures()[0] == pytest.approx(moved.area, rel=1e-12)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: disk_mesh(1.0, 0.1),
            lambda: disk_mesh(1e-6, 1e-7),
            lambda: transform(disk_mesh(1e-4, 1e-5), 0.7, (0.31, -1.25)),
        ],
        ids=["unit", "small", "small_moved"],
    )
    def test_weights_off_the_polygon_area_are_refused_at_any_size(self, make):
        # The quadrature check is relative to the scale squared: an absolute
        # floor of 1e-10 once let a domain of area 3e-12 through with twice its area.
        mesh = make()
        with pytest.raises(ValueError, match=r"^interior weights sum .* != polygon area "):
            Mesh(mesh.vertices, mesh.triangles, areas=2 * mesh.interior_weights)


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

    @pytest.mark.parametrize("name", ["disk", "square"])
    def test_distance_to_boundary_of_many_points_is_per_point(self, name):
        # One batched call over points of any leading shape gives exactly the
        # per-point distances of the former (..., s, 2) formula, inside and
        # outside the domain.
        mesh = disk_mesh(1.0, 0.1) if name == "disk" else build_polygon_mesh(UNIT_SQUARE, 0.2)
        a = mesh.vertices[mesh.boundary_edges[:, 0]]
        b = mesh.vertices[mesh.boundary_edges[:, 1]]
        points = np.random.default_rng(4).uniform(-1.5, 1.5, size=(3, 20, 2))
        assert np.array_equal(_segment_distances(points, a, b), ref_segment_distances(points, a, b))
        expected = np.array(
            [[float(np.min(ref_segment_distances(p, a, b))) for p in row] for row in points]
        )
        assert np.array_equal(mesh.distance_to_boundary(points), expected)
        assert np.array_equal(mesh.distance_to_boundary(points[1]), expected[1])
        assert mesh.distance_to_boundary(points[1, 4]) == expected[1, 4]

    def test_distance_to_boundary_memory_is_bounded(self):
        # 8,000 points against 126 boundary edges: unblocked, each (points,
        # edges) temporary is 8 MB and the call peaks at 32 MB; in blocks of
        # _DISTANCE_BLOCK pairs it stays near 2 MB.  The values equal the
        # per-point ones.
        mesh = refine(disk_mesh(1.0, 0.1))
        points = np.random.default_rng(7).uniform(-0.7, 0.7, size=(8000, 2))
        expected = np.array([mesh.distance_to_boundary(p) for p in points])
        tracemalloc.start()
        try:
            got = mesh.distance_to_boundary(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, expected)
        assert peak < 4_000_000

    def test_max_edge_length_is_computed_once(self):
        mesh = build_polygon_mesh(UNIT_SQUARE, 0.2)
        p = mesh.vertices[mesh.triangles]
        longest = max(np.max(np.hypot(*(p[:, i] - p[:, j]).T)) for i, j in ((0, 1), (1, 2), (2, 0)))
        assert mesh.max_edge_length == longest
        assert "max_edge_length" in vars(mesh)


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

    @pytest.mark.parametrize("name", ["nodes", "triangles", "boundary_loops", "loop"])
    @pytest.mark.parametrize("count", ["", " x", " -1"], ids=["no_count", "word", "negative"])
    def test_bad_header_names_the_header(self, name, count):
        lines = write_mesh_text(build_polygon_mesh(UNIT_SQUARE, 0.5)).splitlines()
        i = next(k for k, line in enumerate(lines) if line.split()[0] == name)
        lines[i] = name + count
        with pytest.raises(ValueError, match=f"^expected a '{name} <count>' header"):
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
        tri, lam = mesh.locate(points)
        assert tri.tolist() == [t for t, _ in expected]
        assert np.array_equal(lam, np.array([l for _, l in expected]))
        t0, l0 = mesh.locate(points[7])
        assert (t0.shape, l0.shape) == ((), (3,))
        assert (int(t0), l0.tolist()) == (expected[7][0], expected[7][1].tolist())
        # Any leading shape: (..., 2) points give (...) triangles and (..., 3) coordinates.
        grid_tri, grid_lam = mesh.locate(points[:40].reshape(4, 10, 2))
        assert (grid_tri.shape, grid_lam.shape) == ((4, 10), (4, 10, 3))
        assert np.array_equal(grid_tri.ravel(), tri[:40])
        assert np.array_equal(grid_lam.reshape(-1, 3), lam[:40])

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
            disk_coarse.locate(points)
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
        tri, lam = mesh.locate(point[None])
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
        assert_same_mesh(mesh, ref_build_polygon_mesh(corners, h))
        assert mesh.area == pytest.approx(polygon_shoelace(corners), rel=1e-12)
        assert np.array_equal(np.unique(mesh.triangles), np.arange(mesh.vertices.shape[0]))

    def test_pinned_heptagon(self):
        mesh = build_polygon_mesh(self.PINNED_7GON, 0.05)
        assert mesh.area == pytest.approx(polygon_shoelace(self.PINNED_7GON), rel=1e-12)
        assert np.array_equal(np.unique(mesh.triangles), np.arange(mesh.vertices.shape[0]))


# -- the edge table and the polygon builder against the void-row versions --------------
#
# `Mesh._extract_boundary` and `build_polygon_mesh` as they were before the
# integer-keyed edge table and the clearance against the polygon's own
# edges, copied unchanged (the method made a function of a namespace
# holding the mesh arrays).


def ref_extract_boundary(vertices, triangles):
    self = SimpleNamespace(
        vertices=np.asarray(vertices, dtype=float),
        triangles=np.asarray(triangles, dtype=np.int64),
    )
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
    return self


def ref_segment_distances(points, a, b) -> np.ndarray:
    points = np.asarray(points)[..., None, :]
    ab = b - a
    rel = points - a
    dots = rel[..., 0] * ab[:, 0] + rel[..., 1] * ab[:, 1]
    t = np.clip(dots / (ab[:, 0] * ab[:, 0] + ab[:, 1] * ab[:, 1]), 0.0, 1.0)
    gap = points - (a + t[..., None] * ab)
    return np.hypot(gap[..., 0], gap[..., 1])


def ref_build_polygon_mesh(vertices, target_h: float) -> Mesh:
    corners = np.asarray(vertices, dtype=float)
    if corners.ndim != 2 or corners.shape[1] != 2 or corners.shape[0] < 3:
        raise ValueError("polygon needs at least 3 planar vertices")
    if not target_h > 0:
        raise ValueError(f"target_h must be positive, got {target_h}")
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
    for a, b in zip(corners, nxt):
        n_seg = max(1, int(math.ceil(np.hypot(*(b - a)) / target_h)))
        boundary_pts.append(a + (b - a) * (np.arange(n_seg) / n_seg)[:, None])
    boundary_pts = np.concatenate(boundary_pts)

    xmin, ymin = corners.min(axis=0)
    xmax, ymax = corners.max(axis=0)
    dy = target_h * math.sqrt(3.0) / 2.0
    rows = int(math.floor((ymax - ymin) / dy)) + 1
    seg_a = boundary_pts
    seg_b = np.roll(boundary_pts, -1, axis=0)
    interior = []
    for r in range(rows):
        # One lattice row at a time: the temporaries are cols x boundary segments.
        x0 = xmin + (target_h / 2.0 if r % 2 else 0.0)
        cols = int(math.floor((xmax - x0) / target_h)) + 1
        row = np.column_stack([x0 + np.arange(cols) * target_h, np.full(cols, ymin + r * dy)])
        rel = row[:, None, :] - corners
        inside = np.all(edges[:, 0] * rel[:, :, 1] - edges[:, 1] * rel[:, :, 0] > 0, axis=1)
        clear = np.min(ref_segment_distances(row, seg_a, seg_b), axis=1) >= 0.4 * target_h
        interior.append(row[inside & clear])
    interior = np.concatenate(interior)
    order = np.lexsort((interior[:, 0], interior[:, 1]))
    pts = np.concatenate([boundary_pts, interior[order]])

    triangles = Delaunay(pts).simplices.astype(np.int64)
    # Delaunay closes the rounded, nearly collinear subdivision points of a
    # slanted edge into zero-area slivers along the boundary: drop those.
    # Mesh refuses any other degenerate triangle.
    areas = _signed_areas(pts, triangles)
    sliver = _flat(areas, _frame(pts)[1]) & np.all(triangles < boundary_pts.shape[0], axis=1)
    triangles = _orient_ccw(triangles[~sliver], areas[~sliver])
    return Mesh(pts, triangles, geometry=("polygon",))


BOUNDARY_ARRAYS = (
    "boundary_nodes",
    "boundary_edges",
    "_edge_owner_triangle",
    "edge_weights",
    "boundary_weights",
    "normals",
)


class TestEdgeTable:
    @pytest.mark.parametrize("variant", ["as_built", "refined", "transformed"])
    @pytest.mark.parametrize("name", sorted(REFINE_CASES))
    def test_boundary_matches_reference(self, name, variant):
        mesh = REFINE_CASES[name]()
        if variant == "refined":
            mesh = refine(mesh)
        elif variant == "transformed":
            mesh = transform(mesh, 0.4, (1.0, -2.0), 0.6)
        ref = ref_extract_boundary(mesh.vertices, mesh.triangles)
        assert len(mesh.boundary_loops) == len(ref.boundary_loops)
        for loop, ref_loop in zip(mesh.boundary_loops, ref.boundary_loops):
            assert loop.dtype == ref_loop.dtype and np.array_equal(loop, ref_loop)
        for attr in BOUNDARY_ARRAYS:
            got, want = getattr(mesh, attr), getattr(ref, attr)
            assert got.dtype == want.dtype and np.array_equal(got, want), attr

    def test_two_loops_in_order_of_their_smallest_node(self):
        # Two separate squares, the second numbered below the first.
        vertices = [(10, 0), (11, 0), (11, 1), (10, 1), (0, 0), (1, 0), (1, 1), (0, 1)]
        triangles = [(0, 1, 2), (0, 2, 3), (4, 5, 6), (4, 6, 7)]
        mesh = Mesh(vertices, triangles)
        ref = ref_extract_boundary(vertices, triangles)
        assert [lp.tolist() for lp in mesh.boundary_loops] == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert [lp.tolist() for lp in ref.boundary_loops] == [[0, 1, 2, 3], [4, 5, 6, 7]]
        for attr in BOUNDARY_ARRAYS:
            assert np.array_equal(getattr(mesh, attr), getattr(ref, attr)), attr

    @pytest.mark.parametrize(
        "vertices, triangles, message",
        [
            # Three triangles on the edge (0, 1).
            (
                [(0, 0), (1, 0), (0.5, 1), (0.5, 2), (0.5, -1)],
                [(0, 1, 2), (0, 1, 3), (1, 0, 4)],
                "non-manifold edge: shared by more than two triangles",
            ),
            # Bowtie: two triangles that share only vertex 0.
            (
                [(0, 0), (1, 0), (1, 1), (-1, 0), (-1, -1)],
                [(0, 1, 2), (0, 3, 4)],
                "boundary is not a disjoint union of simple loops",
            ),
        ],
        ids=["non_manifold", "bowtie"],
    )
    def test_topology_errors_keep_their_messages(self, vertices, triangles, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ref_extract_boundary(vertices, triangles)
        with pytest.raises(ValueError, match=f"^{message}$"):
            Mesh(vertices, triangles)


POLYGON_CASES = {
    "slanted": (SLANTED, 0.02),
    "unit_square": (UNIT_SQUARE, 0.02),
    "pinned_7gon": (TestPolygonMeshSlantedEdges.PINNED_7GON, 0.02),
    "rectangle_3_2": ([(0, 0), (1.5, 0), (1.5, 1), (0, 1)], 0.02),
}


class TestPolygonClearance:
    @pytest.mark.parametrize("name", sorted(POLYGON_CASES))
    def test_matches_reference(self, name):
        corners, h = POLYGON_CASES[name]
        assert_same_mesh(build_polygon_mesh(corners, h), ref_build_polygon_mesh(corners, h))


class TestSignedAreasOnce:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: disk_mesh(1.3, 0.1),
            lambda: build_polygon_mesh(UNIT_SQUARE, 0.1),
            lambda: build_polygon_mesh([(0.0, 0.0), (1.0, 0.1), (0.6, 0.9), (-0.2, 0.5)], 0.07),
        ],
        ids=["disk", "square", "slanted"],
    )
    def test_one_call_per_generated_mesh(self, monkeypatch, build):
        calls = []

        def counting(vertices, triangles):
            calls.append(triangles.shape[0])
            return _signed_areas(vertices, triangles)

        monkeypatch.setattr(meshing, "_signed_areas", counting)
        mesh = build()
        assert len(calls) == 1
        # The areas handed to Mesh are the ones it would compute itself.
        assert np.array_equal(mesh.interior_weights, _signed_areas(mesh.vertices, mesh.triangles))
