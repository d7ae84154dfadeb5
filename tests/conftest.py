import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

import signorini_lab as sl
from signorini_lab import solvers
from signorini_lab.material import yeoh_density


@pytest.fixture(scope="session")
def mesh1():
    return sl.build_box_mesh(1)


@pytest.fixture(scope="session")
def mesh2():
    return sl.build_box_mesh(2)


@pytest.fixture(scope="session")
def mesh3():
    return sl.build_box_mesh(3)


@pytest.fixture(scope="session")
def obstacle2(mesh2):
    return sl.extract_obstacle(mesh2)


@pytest.fixture(scope="session")
def obstacle3(mesh3):
    return sl.extract_obstacle(mesh3)


@pytest.fixture(scope="session")
def yeoh():
    return sl.yeoh_material(1.0, 0.2, 0.1)


@pytest.fixture(scope="session")
def gravity():
    """Uniform vertical dead load, the flagship config."""
    return sl.LoadSpec(f=sl.constant_field([0.0, 0.0, -1.0]))


@pytest.fixture(scope="session")
def bottom_weighted():
    """Net-down load with nonnegative height moment: passes the full global
    Phi sweep (edge flips included), unlike uniform gravity."""
    a = np.zeros((3, 3))
    a[2, 0] = 0.0
    a[2, 2] = 1.6
    return sl.LoadSpec(f=sl.affine_field(a, [0.0, 0.0, -1.0]))


@pytest.fixture(scope="session")
def identity_only_load():
    """Admissible load with L(x1 e1 + x2 e2) > 0, so the kernel is {I}."""
    a = np.zeros((3, 3))
    a[0, 0] = 0.5
    return sl.LoadSpec(f=sl.affine_field(a, [-0.25, 0.0, -1.0]))


@pytest.fixture(scope="session")
def test_loads(gravity, bottom_weighted, identity_only_load):
    """Distinct loads passing the linear-order admissibility gate."""
    tilted = sl.LoadSpec(f=sl.affine_field(
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), [0.0, 0.0, -1.0]))
    surface = sl.LoadSpec(g=(("top", sl.constant_field([0.0, 0.0, -1.0])),))
    mixed = sl.LoadSpec(f=sl.constant_field([0.0, 0.0, -1.0]),
                        g=(("top", sl.constant_field([0.0, 0.0, -0.25])),))
    return [gravity, bottom_weighted, identity_only_load, tilted, surface, mixed]


@pytest.fixture(scope="session")
def limit_gravity(mesh2, obstacle2, yeoh, gravity):
    """Reference solve of the shear-reduced limit problem for the flagship config."""
    kernel = sl.classify_kernel(gravity, obstacle2, mesh2)
    problem = solvers.QuadraticProblem(mesh=mesh2, material=yeoh, load=gravity,
                                       obstacle=obstacle2,
                                       variant=solvers.Variant.GTILDE,
                                       kernel_class=kernel)
    return solvers.minimize_limit(problem), kernel


def random_divergence_free(mesh, rng, scale=0.1):
    """Projection of a random nodal field onto per-element div = 0 (exact KKT)."""
    from signorini_lab.solvers import active_set_qp, assemble_div_matrix

    n3 = 3 * mesh.num_nodes
    v = scale * rng.standard_normal(n3)
    b = assemble_div_matrix(mesh)
    x, _ = active_set_qp(np.eye(n3), -v, b, np.zeros(b.shape[0]), np.array([], dtype=int))
    return sl.DisplacementField.from_nodal(mesh, x.reshape(-1, 3))


def yeoh_energy(f, m):
    """The F-form of the stored energy, W(F) = W(|F|^2 - 3): the oracle the
    g-form of `material` is checked against."""
    f = np.asarray(f, dtype=float)
    return yeoh_density((f * f).sum(axis=(-2, -1)) - 3.0, m)


def rotation_from_axis_angle(axis, angle):
    """Rotation by `angle` about the (nonzero) vector `axis`."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    mat = ScipyRotation.from_rotvec(axis * angle).as_matrix()
    return sl.Rotation(matrix=mat, axis=axis, angle=float(angle))


def is_rotation(r, tol=1e-12):
    """Whether r.matrix is orthogonal with determinant 1, to tol."""
    m = r.matrix
    return bool(np.abs(m.T @ m - np.eye(3)).max() <= tol
                and abs(np.linalg.det(m) - 1.0) <= tol)
