import numpy as np
import pytest
from numpy.testing import assert_allclose

import signorini_lab as sl
from signorini_lab.kinematics import DeformationField, DisplacementField
from signorini_lab.loads import Rotation


def rotation_sq_distance(y_field, mesh, rmat):
    diff = y_field.gradients - rmat
    return float(np.sum(mesh.element_volumes * (diff**2).sum(axis=(1, 2))))


def grid_search_rotation(y_field, mesh, n_axis=150, n_angle=90, refine=4):
    """Brute-force axis-angle minimizer of the mean-square rotation distance."""
    rng = np.random.default_rng(42)
    axes = rng.standard_normal((n_axis, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    axes = np.concatenate([axes, np.eye(3)])
    best = (np.inf, np.eye(3))
    for ax in axes:
        for ang in np.linspace(0, np.pi, n_angle):
            r = Rotation.from_axis_angle(ax, ang).matrix if ang > 0 else np.eye(3)
            val = rotation_sq_distance(y_field, mesh, r)
            if val < best[0]:
                best = (val, r)
    # local refinement around the best rotation vector
    from scipy.optimize import minimize
    from scipy.spatial.transform import Rotation as SR

    x0 = SR.from_matrix(best[1]).as_rotvec()
    res = minimize(lambda w: rotation_sq_distance(y_field, mesh,
                                                  SR.from_rotvec(w).as_matrix()),
                   x0, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 600})
    return res.fun, SR.from_rotvec(res.x).as_matrix()


def test_fields_consistent_gradients(mesh2):
    rng = np.random.default_rng(0)
    u = rng.standard_normal((mesh2.num_nodes, 3))
    f = DisplacementField.from_nodal(mesh2, u)
    assert_allclose(f.gradients, mesh2.element_gradients(u))
    assert_allclose(f.divergence, np.trace(f.gradients, axis1=1, axis2=2))
    assert_allclose(np.trace(f.strains, axis1=1, axis2=2), f.divergence, atol=1e-14)


def test_optimal_rotation_exact_for_rigid(mesh2):
    r0 = Rotation.from_axis_angle([1.0, 2.0, -0.5], 0.8).matrix
    y = DeformationField.from_nodal(mesh2, mesh2.nodes @ r0.T)
    rot = sl.optimal_rotation(y, mesh2)
    assert_allclose(rot.matrix, r0, atol=1e-12)
    assert not rot.degenerate


def test_optimal_rotation_small_skew(mesh2):
    # grad y = I + 0.01 (e1 x e2 - e2 x e1): optimal rotation about e3 with
    # angle atan(0.01), verified against the brute-force grid oracle
    skew = np.zeros((3, 3))
    skew[0, 1] = 0.01
    skew[1, 0] = -0.01
    y = DeformationField.from_nodal(mesh2, mesh2.nodes @ (np.eye(3) + skew).T)
    rot = sl.optimal_rotation(y, mesh2)
    assert_allclose(abs(rot.axis[2]), 1.0, atol=1e-12)
    assert_allclose(rot.angle, np.arctan(0.01), rtol=1e-10)
    val_grid, r_grid = grid_search_rotation(y, mesh2)
    val_kabsch = rotation_sq_distance(y, mesh2, rot.matrix)
    assert val_kabsch <= val_grid + 1e-10
    assert_allclose(rot.matrix, r_grid, atol=1e-6)


def test_optimal_rotation_random_field_vs_grid(mesh2):
    rng = np.random.default_rng(1)
    y = DeformationField.from_nodal(
        mesh2, mesh2.nodes + 0.05 * rng.standard_normal((mesh2.num_nodes, 3)))
    rot = sl.optimal_rotation(y, mesh2)
    val_grid, r_grid = grid_search_rotation(y, mesh2)
    assert rotation_sq_distance(y, mesh2, rot.matrix) <= val_grid + 1e-10
    assert np.abs(rot.matrix - r_grid).max() < 1e-6


def test_optimal_rotation_equivariance(mesh2):
    rng = np.random.default_rng(2)
    y = DeformationField.from_nodal(
        mesh2, mesh2.nodes + 0.1 * rng.standard_normal((mesh2.num_nodes, 3)))
    r_base = sl.optimal_rotation(y, mesh2).matrix
    for _ in range(5):
        q = Rotation.from_axis_angle(rng.standard_normal(3), rng.uniform(0, np.pi)).matrix
        yq = DeformationField.from_nodal(mesh2, y.y @ q.T)
        rq = sl.optimal_rotation(yq, mesh2).matrix
        assert_allclose(rq, q @ r_base, atol=1e-9)


def test_optimal_rotation_degenerate_flag(mesh2):
    y = DeformationField.from_nodal(
        mesh2, np.outer(mesh2.nodes[:, 0], [1.0, 0.0, 0.0]))
    rot = sl.optimal_rotation(y, mesh2)
    assert rot.degenerate


def test_translations_examples(mesh2, obstacle2):
    ident = Rotation.identity()
    y = DeformationField.from_nodal(mesh2, mesh2.nodes)
    assert_allclose(sl.translations(y, ident, obstacle2, mesh2), np.zeros(3), atol=1e-14)
    y2 = DeformationField.from_nodal(mesh2, mesh2.nodes + np.array([1.0, 2.0, 0.0]))
    assert_allclose(sl.translations(y2, ident, obstacle2, mesh2), [1.0, 2.0, 0.0],
                    atol=1e-12)


def test_translation_c3_corner_enumeration(mesh2, obstacle2):
    # rotation sending (R x)_3 = -sin(0.1) x2 on the plane: the minimum over
    # the hull is attained at the corners with x2 = 1, e.g. (0, 1, 0)
    rot = Rotation.from_axis_angle([1.0, 0.0, 0.0], -0.1)
    y = DeformationField.from_nodal(mesh2, mesh2.nodes)
    c = sl.translations(y, rot, obstacle2, mesh2)
    corners = mesh2.nodes[obstacle2.node_indices]
    heights = corners @ rot.matrix.T
    assert_allclose(c[2], -heights[:, 2].min(), rtol=1e-12)
    assert_allclose(c[2], np.sin(0.1), rtol=1e-12)


def test_extract_displacement_identity(mesh2):
    y = DeformationField.from_nodal(mesh2, mesh2.nodes)
    u = sl.extract_displacement(y, Rotation.identity(), np.zeros(3), 0.3, mesh2)
    assert np.abs(u.u).max() == 0.0


def test_extract_displacement_recovers_field(mesh2, obstacle2):
    # y = x + h v with horizontal mean-zero v gives back u = v
    rng = np.random.default_rng(3)
    v = rng.standard_normal((mesh2.num_nodes, 3))
    for alpha in range(2):
        mean = sl.integrate_volume(mesh2, v[:, alpha]) / mesh2.volume
        v[:, alpha] -= mean
    h = 0.05
    y = DeformationField.from_nodal(mesh2, mesh2.nodes + h * v)
    ident = Rotation.identity()
    c = sl.translations(y, ident, obstacle2, mesh2)
    assert_allclose(c, np.zeros(3), atol=1e-12)
    u = sl.extract_displacement(y, ident, c, h, mesh2)
    assert_allclose(u.u, v, atol=1e-10)


def test_extract_displacement_kernel_rotation(mesh2, obstacle2):
    # y = R x + c with R about e3: the third displacement component vanishes
    rot = Rotation.about_e3(0.4)
    y = DeformationField.from_nodal(mesh2, mesh2.nodes @ rot.matrix.T + [0.1, -0.2, 0.0])
    u = sl.extract_displacement(y, rot, np.array([0.1, -0.2, 0.0]), 0.1, mesh2)
    assert np.abs(u.u @ np.array([0.0, 0.0, 1.0])).max() < 1e-12


def test_extract_displacement_rejects_bad_h(mesh2):
    y = DeformationField.from_nodal(mesh2, mesh2.nodes)
    with pytest.raises(ValueError):
        sl.extract_displacement(y, Rotation.identity(), np.zeros(3), 0.0, mesh2)


def rebuild_deformation(u_field, rotation, c, h, mesh):
    """Inverse of extract_displacement: nodal y from (R, c, h, u)."""
    r = rotation.matrix
    x = mesh.nodes
    v = h * (u_field.u @ r.T)
    y = np.empty_like(v)
    rigid = x @ r.T + np.asarray(c, dtype=float)
    y[:, 0] = rigid[:, 0] + v[:, 0]
    y[:, 1] = rigid[:, 1] + v[:, 1]
    y[:, 2] = x[:, 2] + v[:, 2]
    return DeformationField.from_nodal(mesh, y)


def test_rebuild_inverts_extraction(mesh2, obstacle2):
    rng = np.random.default_rng(4)
    y = DeformationField.from_nodal(
        mesh2, mesh2.nodes + 0.07 * rng.standard_normal((mesh2.num_nodes, 3)))
    rot = sl.optimal_rotation(y, mesh2)
    c = sl.translations(y, rot, obstacle2, mesh2)
    h = 0.07
    u = sl.extract_displacement(y, rot, c, h, mesh2)
    back = rebuild_deformation(u, rot, c, h, mesh2)
    assert_allclose(back.y, y.y, atol=1e-12)


def test_determinant_expansion_identity(mesh2):
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = DisplacementField.from_nodal(
            mesh2, rng.standard_normal((mesh2.num_nodes, 3)))
        h = rng.uniform(0.01, 0.9)
        assert sl.determinant_expansion_check(u, h) < 1e-12
    zero = DisplacementField.from_nodal(mesh2, np.zeros((mesh2.num_nodes, 3)))
    assert sl.determinant_expansion_check(zero, 0.5) == 0.0

