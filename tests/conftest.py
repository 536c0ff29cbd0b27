import numpy as np
import pytest
from hypothesis import settings

from steklovsvd import (
    build_polygon_mesh,
    dbs_eigensolve,
    disk_mesh,
    refine,
)

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

# Property tests draw the same examples on every run (seeded from each
# test), and no example is failed for its running time.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def disk_coarse():
    return disk_mesh(1.0, 0.1)


@pytest.fixture(scope="session")
def disk_mid():
    return disk_mesh(1.0, 0.05)


@pytest.fixture(scope="session")
def disk_mid_basis(disk_mid):
    return dbs_eigensolve(disk_mid, 40)


@pytest.fixture(scope="session")
def square_mid():
    return build_polygon_mesh(UNIT_SQUARE, 0.05)


@pytest.fixture(scope="session")
def square_coarse():
    return build_polygon_mesh(UNIT_SQUARE, 0.125)


# Acceptance-scale fixtures: built once, shared by the acceptance module.


@pytest.fixture(scope="session")
def disk_accept():
    return disk_mesh(1.0, 0.02)


@pytest.fixture(scope="session")
def disk_accept_basis(disk_accept):
    return dbs_eigensolve(disk_accept, 60)


@pytest.fixture(scope="session")
def disk_fine(disk_accept):
    return refine(disk_accept)


@pytest.fixture(scope="session")
def disk_fine_basis(disk_fine):
    return dbs_eigensolve(disk_fine, 60)


def l2_field_error(field, exact_fn):
    """L2 norm of (field - exact) through the mass matrix."""
    from steklovsvd.fem import InteriorField

    mesh = field.mesh
    exact = exact_fn(mesh.vertices[:, 0], mesh.vertices[:, 1])
    return InteriorField(mesh, field.values - np.asarray(exact)).norm_l2()
