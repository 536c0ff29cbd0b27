import math

import numpy as np
import pytest

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
from steklovsvd.meshing import boundary_polygon_measures

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
