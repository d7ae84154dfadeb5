import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scipy.optimize import minimize
from scipy.spatial.transform import Rotation as ScipyRotation

import signorini_lab as sl
from conftest import is_rotation, rotation_from_axis_angle
from signorini_lab.loads import (
    Rotation,
    _davenport,
    _phi_batch,
    _quaternion_rotation,
    _torque,
    load_moments,
    load_vector,
)


def load_value(load, v, mesh):
    """L(v) for a nodal field v."""
    return float((load_vector(load, mesh) * v).sum())


def shear_batch(rmats, t_mom):
    """The horizontal shear functional L((R x - x)_alpha e_alpha) for a batch
    of matrices, from the moment matrix."""
    d = np.asarray(rmats, dtype=float) - np.eye(3)
    return (d[..., :2, :] * t_mom[:2, :]).sum(axis=(-2, -1))


def shear_value(load, rotation, mesh):
    return float(shear_batch(rotation.matrix[None], load_moments(load, mesh)[1])[0])


def quadrature_oracle(load, field_fn, n=6):
    """Independent dense quadrature of L(v): refined mesh plus its own vector."""
    fine = sl.build_box_mesh(n)
    v = np.array([field_fn(x) for x in fine.nodes])
    return load_value(load, v, fine)


def test_eval_load_examples(mesh2, gravity):
    n = mesh2.num_nodes
    e3 = np.tile([0.0, 0.0, 1.0], (n, 1))
    assert_allclose(load_value(gravity, e3, mesh2), -1.0, rtol=1e-12)
    v = np.zeros((n, 3))
    v[:, 2] = mesh2.nodes[:, 2]
    assert_allclose(load_value(gravity, v, mesh2), -0.5, rtol=1e-12)
    assert_allclose(quadrature_oracle(gravity, lambda x: [0, 0, x[2]]), -0.5, rtol=1e-12)
    assert load_value(gravity, np.zeros((n, 3)), mesh2) == 0.0


def test_eval_load_linearity(mesh2, bottom_weighted):
    rng = np.random.default_rng(0)
    u = rng.standard_normal((mesh2.num_nodes, 3))
    v = rng.standard_normal((mesh2.num_nodes, 3))
    a, b = 0.7, -1.3
    lhs = load_value(bottom_weighted, a * u + b * v, mesh2)
    rhs = (a * load_value(bottom_weighted, u, mesh2)
           + b * load_value(bottom_weighted, v, mesh2))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_eval_load_affine_examples(mesh2, gravity):
    # L(A x + b) is exact because P1 reproduces affine fields
    assert_allclose(load_value(gravity, np.tile([0.0, 0.0, 1.0], (mesh2.num_nodes, 1)), mesh2),
                    -1.0, rtol=1e-12)
    assert_allclose(load_value(gravity, mesh2.nodes, mesh2),
                    -0.5, rtol=1e-12)
    # antisymmetric matrix with axis e3: (e3 ^ x) has zero third component
    a = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert abs(load_value(gravity, mesh2.nodes @ a.T, mesh2)) < 1e-12
    assert abs(quadrature_oracle(gravity, lambda x: np.cross([0, 0, 1], x))) < 1e-12


def test_resultant_and_torque(mesh2, gravity):
    # the torque about a pivot p is T0 - p ^ F
    f, t_mom = load_moments(gravity, mesh2)
    assert_allclose(f, [0.0, 0.0, -1.0], atol=1e-12)
    assert np.abs(_torque(t_mom) - np.cross([0.5, 0.5, 0.0], f)).max() < 1e-12
    f0, t_mom0 = load_moments(sl.LoadSpec(), mesh2)
    assert np.abs(f0).max() == 0.0 and np.abs(_torque(t_mom0)).max() == 0.0


def test_torque_pivot_shift(mesh2, bottom_weighted):
    # (T0 - d ^ F) . a = L(a ^ (x - d)) for every axis a
    rng = np.random.default_rng(1)
    d = rng.standard_normal(3)
    f, t_mom = load_moments(bottom_weighted, mesh2)
    td = _torque(t_mom) - np.cross(d, f)
    for a in np.eye(3):
        val = load_value(bottom_weighted, np.cross(a, mesh2.nodes - d), mesh2)
        assert abs(val - a @ td) < 1e-12


def test_torque_matches_affine_route(mesh2, test_loads):
    # antisymmetric consistency: a . T(0) = L(a ^ x) for every unit axis
    rng = np.random.default_rng(2)
    for load in test_loads:
        t0 = _torque(load_moments(load, mesh2)[1])
        for _ in range(5):
            a = rng.standard_normal(3)
            a /= np.linalg.norm(a)
            mat = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
            val = load_value(load, mesh2.nodes @ mat.T, mesh2)
            assert abs(val - a @ t0) < 1e-12 * max(1.0, abs(val))


def test_about_e3_closed_form_matches_axis_angle():
    for theta in (0.0, 1e-9, 0.3, np.pi / 2, 2.0, np.pi, 4.4, 2.0 * np.pi - 1e-3, -0.8, 7.5):
        r = Rotation.about_e3(theta)
        ref = rotation_from_axis_angle([0.0, 0.0, 1.0], theta)
        assert np.abs(r.matrix - ref.matrix).max() <= 1e-15, theta
        assert_allclose(r.axis, ref.axis, rtol=0, atol=0)
        assert r.angle == ref.angle
        assert is_rotation(r)


def test_phi_identity_and_symmetry(mesh2, obstacle2, gravity):
    assert sl.phi(gravity, obstacle2, Rotation.identity(), mesh2) == 0.0
    for theta in (0.3, 1.1, 2.0):
        assert abs(sl.phi(gravity, obstacle2, Rotation.about_e3(theta), mesh2)) < 1e-12


def test_phi_flip_value(mesh2, obstacle2, gravity):
    # Rotation about e1 by pi: L((R - I)x) = L(-2 x3 e3 - 2 x2 e2) = +1 for the
    # uniform vertical load and the minimum over E of (R x)_3 is zero, so
    # Phi = +1: the flip gains potential energy and the global condition fails
    # for gravity-type loads (their vertical moment L(x3 e3) is negative).
    flip = rotation_from_axis_angle([1.0, 0.0, 0.0], np.pi)
    val = sl.phi(gravity, obstacle2, flip, mesh2)
    oracle = quadrature_oracle(gravity, lambda x: (flip.matrix - np.eye(3)) @ x)
    assert_allclose(val, oracle, rtol=1e-12)
    assert_allclose(val, 1.0, rtol=1e-12)


def test_phi_small_rotations_nonpositive(mesh2, obstacle2, gravity):
    rng = np.random.default_rng(3)
    for _ in range(50):
        axis = rng.standard_normal(3)
        angle = rng.uniform(0.0, 0.5)
        r = rotation_from_axis_angle(axis, angle)
        assert sl.phi(gravity, obstacle2, r, mesh2) <= 1e-12


def test_verify_admissibility_gravity(mesh2, obstacle2, gravity):
    rep = sl.verify_global_admissibility(gravity, obstacle2, mesh2, budget=1500, seed=0)
    assert rep.conditions_basic_ok
    assert rep.shear_ok and rep.worst_shear <= 1e-9
    assert rep.kernel_class == sl.KernelClass.ROTATIONS_ABOUT_E3
    assert_allclose(rep.load_center, [0.5, 0.5, 0.0], atol=1e-12)
    assert rep.load_center_interior
    # the flip family beats the global Phi condition for gravity
    assert not rep.global_phi_ok
    assert rep.worst_phi > 0.9


def test_verify_admissibility_bottom_weighted(mesh3, obstacle3, bottom_weighted):
    rep = sl.verify_global_admissibility(bottom_weighted, obstacle3, mesh3,
                                         budget=2000, seed=0)
    assert rep.conditions_basic_ok and rep.shear_ok and rep.global_phi_ok, rep.violations
    # independent dense sampling oracle with a different seed
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(4000):
        axis = rng.standard_normal(3)
        angle = rng.uniform(0, np.pi)
        r = rotation_from_axis_angle(axis, angle)
        worst = max(worst, sl.phi(bottom_weighted, obstacle3, r, mesh3))
    assert worst <= 1e-9


def test_verify_admissibility_failures(mesh2, obstacle2):
    up = sl.LoadSpec(f=sl.constant_field([0, 0, 1]))
    rep = sl.verify_global_admissibility(up, obstacle2, mesh2, budget=1000, seed=0)
    assert not rep.conditions_basic_ok
    assert any("L(e3)" in v for v in rep.violations)
    assert_allclose(rep.L_e3, 1.0, rtol=1e-12)

    side = sl.LoadSpec(f=sl.constant_field([1, 0, -1]))
    rep2 = sl.verify_global_admissibility(side, obstacle2, mesh2, budget=1000, seed=0)
    assert any("L(e1)" in v for v in rep2.violations)
    assert_allclose(rep2.L_e1, 1.0, rtol=1e-12)


def sampled_suprema(load, obstacle, mesh, budget=1500, seed=0):
    """Independent oracle: lower estimates of sup Phi and sup shear over SO(3).

    A structured net of rotations (13 axes times 6 angles, and the identity),
    `budget` uniform random rotations, and Nelder-Mead ascent in the rotation
    vector from the ten best of them, for each functional; floored at the
    identity's value 0.
    """
    f_res, t_mom = load_moments(load, mesh)
    hull = obstacle.hull_vertices_2d
    axes = [*np.eye(3)]
    for s1 in (-1.0, 1.0):
        axes += [np.array([s1, 1.0, 0.0]) / np.sqrt(2), np.array([s1, 0.0, 1.0]) / np.sqrt(2),
                 np.array([0.0, s1, 1.0]) / np.sqrt(2), np.array([s1, 1.0, 1.0]) / np.sqrt(3)]
    angles = np.pi * np.arange(1, 7) / 6
    net = ScipyRotation.from_rotvec([ax * ang for ax in axes for ang in angles]).as_matrix()
    quats = np.random.default_rng(seed).standard_normal((budget, 4))
    mats = np.concatenate([np.eye(3)[None], net, ScipyRotation.from_quat(quats).as_matrix()])
    out = []
    for objective in (lambda m: _phi_batch(m, f_res, t_mom, hull),
                      lambda m: shear_batch(m, t_mom)):
        vals = objective(mats)
        best = float(vals.max())
        for mat in mats[np.argsort(vals)[-10:]]:
            res = minimize(
                lambda w: -objective(ScipyRotation.from_rotvec(w).as_matrix()[None])[0],
                ScipyRotation.from_matrix(mat).as_rotvec(), method="Nelder-Mead",
                options={"maxiter": 300, "xatol": 1e-12, "fatol": 1e-14})
            best = max(best, -res.fun)
        out.append(max(best, 0.0))
    return out


def test_davenport_identity():
    rng = np.random.default_rng(21)
    for _ in range(50):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        b = rng.standard_normal((3, 3))
        rmat = _quaternion_rotation(q)
        assert_allclose(rmat @ rmat.T, np.eye(3), atol=1e-14)
        assert abs(np.linalg.det(rmat) - 1.0) < 1e-14
        assert abs(q @ _davenport(b) @ q - (rmat * b).sum()) < 1e-14 * (1 + np.abs(b).sum())
    batch = rng.standard_normal((2, 5, 3, 3))
    assert_allclose(_davenport(batch)[1, 3], _davenport(batch[1, 3]), rtol=0, atol=0)


@pytest.mark.parametrize("cube", [2, 3])
def test_bracket_contains_the_sampled_supremum(cube, request, test_loads):
    mesh = request.getfixturevalue(f"mesh{cube}")
    obstacle = request.getfixturevalue(f"obstacle{cube}")
    for load in test_loads:
        rep = sl.verify_global_admissibility(load, obstacle, mesh, budget=1500, seed=0)
        phi_sampled, shear_sampled = sampled_suprema(load, obstacle, mesh)
        assert phi_sampled <= rep.worst_phi + 1e-12
        assert rep.worst_phi_lower >= phi_sampled - 1e-12
        assert rep.worst_phi - rep.worst_phi_lower <= 1e-12
        assert abs(sl.phi(load, obstacle, rep.worst_phi_rotation, mesh)
                   - rep.worst_phi_lower) <= 1e-12
        assert shear_sampled <= rep.worst_shear + 1e-12
        assert abs(max(shear_value(load, rep.worst_shear_rotation, mesh), 0.0)
                   - rep.worst_shear) <= 1e-12


def test_bracket_holds_for_loads_failing_the_conditions(mesh2, obstacle2):
    # these loads fail the linear-order conditions, so the load center is no
    # dual optimum: the bracket comes from the SLSQP dual and the Nelder-Mead
    # ascent. It stays certified; for the random affine load it is left open
    # (the SDP relaxation is not tight there).
    side = sl.LoadSpec(f=sl.constant_field([1.0, 0.0, -1.0]))
    a = np.array([[-0.96, 1.6, 0.2], [-1.73, -0.08, -1.16], [-0.63, -0.49, -0.71]])
    affine = sl.LoadSpec(f=sl.affine_field(a, [0.55, -0.06, -0.59]))
    widths = []
    for load in (side, affine):
        rep = sl.verify_global_admissibility(load, obstacle2, mesh2)
        phi_sampled, shear_sampled = sampled_suprema(load, obstacle2, mesh2)
        assert not rep.conditions_basic_ok and not rep.global_phi_ok
        assert phi_sampled <= rep.worst_phi + 1e-12
        assert rep.worst_phi_lower >= phi_sampled - 1e-12
        assert shear_sampled <= rep.worst_shear + 1e-12
        widths.append(rep.worst_phi - rep.worst_phi_lower)
    assert widths[0] <= 1e-12
    assert 1e-3 < widths[1] < 0.05


def test_bracket_degenerate_loads(mesh2, obstacle2, identity_only_load):
    zero = sl.verify_global_admissibility(sl.LoadSpec(), obstacle2, mesh2)
    assert (zero.worst_phi_lower, zero.worst_phi, zero.worst_shear) == (0.0, 0.0, 0.0)
    assert zero.worst_phi_rotation.angle == 0.0 and zero.global_phi_ok
    # F3 > 0: the exact branch; the third row u of R maximizes
    # (u1 + u2 + u3 - 1) / 2 - min(0, u1, u2, u1 + u2) at u = (-1, -1, 1) / sqrt(3)
    up = sl.verify_global_admissibility(sl.LoadSpec(f=sl.constant_field([0, 0, 1])),
                                        obstacle2, mesh2)
    assert_allclose(up.worst_phi, (np.sqrt(3.0) - 1.0) / 2.0, rtol=1e-14)
    assert_allclose(up.worst_phi, 0.3660254037844, atol=1e-13)
    assert up.worst_phi - up.worst_phi_lower <= 1e-15
    ident = sl.verify_global_admissibility(identity_only_load, obstacle2, mesh2)
    assert ident.kernel_class == sl.KernelClass.IDENTITY_ONLY
    assert ident.basic_admissible and not ident.global_phi_ok
    assert_allclose([ident.worst_phi_lower, ident.worst_phi], 1.0, rtol=1e-14)


def test_bottom_weighted_is_certified(mesh3, obstacle3, bottom_weighted):
    # the upper bound itself is 0, where sampling could only show Phi <= 1e-17
    rep = sl.verify_global_admissibility(bottom_weighted, obstacle3, mesh3)
    assert rep.worst_phi == 0.0 and rep.global_phi_ok
    assert rep.worst_phi_rotation.angle == 0.0


def test_axis_identities_are_exact_maxima(mesh2, obstacle2, test_loads):
    side = sl.LoadSpec(f=sl.constant_field([1.0, 0.0, -1.0]))
    a = np.array([[0.3, -0.2, 0.1], [0.4, -0.6, 0.5], [0.0, 0.2, 0.0]])
    skew = sl.LoadSpec(f=sl.affine_field(a, [0.0, 0.0, -1.0]))
    axes = np.random.default_rng(22).standard_normal((20000, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    for load in [*test_loads, side, skew]:
        rep = sl.verify_global_admissibility(load, obstacle2, mesh2)
        _, t = load_moments(load, mesh2)
        eq = (axes[:, 1] * t[0, 2] - axes[:, 2] * t[0, 1]
              + axes[:, 2] * t[1, 0] - axes[:, 0] * t[1, 2])
        comp = sum(axes[:, al] * (axes @ t[al]) - t[al, al] for al in (0, 1))
        for sampled, exact in ((np.abs(eq).max(), rep.axis_identity_residual),
                               (comp.max(), rep.axis_compression_worst)):
            assert sampled <= exact + 1e-12
            assert exact - sampled <= 1e-2 * (1.0 + abs(exact))


def test_kernel_closed_form_maximum():
    theta = np.linspace(0.0, 2 * np.pi, 200_001)
    rng = np.random.default_rng(23)
    for p, q in [*rng.standard_normal((20, 2)), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0)]:
        grid = np.abs((np.cos(theta) - 1.0) * p + np.sin(theta) * q).max()
        exact = abs(p) + np.hypot(p, q)
        assert grid <= exact + 1e-12
        assert exact - grid <= 1e-9 * (1.0 + exact)


def test_verify_admissibility_budget_precondition(mesh2, obstacle2, gravity):
    with pytest.raises(ValueError):
        sl.verify_global_admissibility(gravity, obstacle2, mesh2, budget=10)


def test_monotone_budget(mesh2, obstacle2, bottom_weighted):
    r1 = sl.verify_global_admissibility(bottom_weighted, obstacle2, mesh2,
                                        budget=1000, seed=5)
    r2 = sl.verify_global_admissibility(bottom_weighted, obstacle2, mesh2,
                                        budget=2000, seed=5)
    assert r2.worst_phi >= r1.worst_phi - 1e-12
    assert r2.worst_shear >= r1.worst_shear - 1e-12


def test_admissibility_deterministic(mesh2, obstacle2, gravity):
    r1 = sl.verify_global_admissibility(gravity, obstacle2, mesh2, budget=1000, seed=7)
    r2 = sl.verify_global_admissibility(gravity, obstacle2, mesh2, budget=1000, seed=7)
    assert r1.worst_phi == r2.worst_phi
    assert r1.worst_shear == r2.worst_shear


def test_remark_0l_identities(mesh2, test_loads):
    # L(x3 e1) = L(x3 e2) = 0 follows from the shear condition
    for load in test_loads:
        _, t = load_moments(load, mesh2)
        assert abs(t[0, 2]) < 1e-12
        assert abs(t[1, 2]) < 1e-12


def test_shear_functional_vertical_loads(mesh2, gravity):
    rng = np.random.default_rng(4)
    for _ in range(20):
        r = rotation_from_axis_angle(rng.standard_normal(3), rng.uniform(0, np.pi))
        assert abs(shear_value(gravity, r, mesh2)) < 1e-12


def test_classify_kernel_cases(mesh2, obstacle2, gravity, identity_only_load):
    assert sl.classify_kernel(gravity, obstacle2, mesh2) == sl.KernelClass.ROTATIONS_ABOUT_E3
    assert (sl.classify_kernel(identity_only_load, obstacle2, mesh2)
            == sl.KernelClass.IDENTITY_ONLY)
    # constructed load with L(x1 e1 + x2 e2) < 0: still IdentityOnly (the grid
    # sees nonvanishing Phi), although such a load fails global admissibility
    a = np.zeros((3, 3))
    a[0, 0] = -0.5
    lneg = sl.LoadSpec(f=sl.affine_field(a, [0.25, 0.0, -1.0]))
    assert sl.classify_kernel(lneg, obstacle2, mesh2) == sl.KernelClass.IDENTITY_ONLY


def test_classify_kernel_requires_negative_resultant(mesh2, obstacle2):
    with pytest.raises(sl.LoadError):
        sl.classify_kernel(sl.LoadSpec(f=sl.constant_field([0, 0, 1])),
                           sl.extract_obstacle(mesh2), mesh2)


def theta_grid_oracle(load, obstacle, mesh, n=10_000, tol=1e-9):
    worst = 0.0
    for theta in np.linspace(0.0, 2 * np.pi, n, endpoint=False):
        worst = max(worst, abs(sl.phi(load, obstacle, Rotation.about_e3(theta), mesh)))
    return worst <= tol


def test_kernel_grid_agrees_with_closed_form(mesh2, obstacle2, test_loads):
    for load in test_loads:
        _, t = load_moments(load, mesh2)
        closed = abs(t[0, 0] + t[1, 1]) <= 1e-9
        grid = theta_grid_oracle(load, obstacle2, mesh2, n=512)
        assert closed == grid
        got = sl.classify_kernel(load, obstacle2, mesh2)
        expected = (sl.KernelClass.ROTATIONS_ABOUT_E3 if closed
                    else sl.KernelClass.IDENTITY_ONLY)
        assert got == expected


def test_find_load_center_moment_density(mesh2, obstacle2):
    # f = -(1 + x1) e3: center at (int x1 (1+x1) / int (1+x1), 1/2, 0)
    a = np.zeros((3, 3))
    a[2, 0] = -1.0
    load = sl.LoadSpec(f=sl.affine_field(a, [0.0, 0.0, -1.0]))
    rep = sl.verify_global_admissibility(load, obstacle2, mesh2)
    expected_x = (0.5 + 1.0 / 3.0) / 1.5
    assert_allclose(rep.load_center, [expected_x, 0.5, 0.0], atol=1e-12)
    assert rep.load_center_residual < 1e-12
    assert rep.load_center_interior


def test_find_load_center_undetermined(mesh2, obstacle2):
    # no vertical resultant, so no pivot with vanishing torque
    rep = sl.verify_global_admissibility(sl.LoadSpec(), obstacle2, mesh2)
    assert rep.load_center is None


def test_l0_l1_consistency_reported(mesh2, obstacle2, gravity):
    rep = sl.verify_global_admissibility(gravity, obstacle2, mesh2, budget=1000, seed=1)
    # with vanishing horizontal resultants the two formulations share the same
    # supremum by construction; the unbounded flag stays off
    assert not rep.l0_unbounded
    side = sl.LoadSpec(f=sl.constant_field([1.0, 0.0, -1.0]))
    rep2 = sl.verify_global_admissibility(side, obstacle2, mesh2, budget=1000, seed=1)
    assert rep2.l0_unbounded


def test_moment_conditions_not_sufficient(mesh2, obstacle2, gravity):
    # uniform gravity passes the linear-order conditions and the shear sweep,
    # yet the edge flip (a half turn about a horizontal axis) raises the body:
    # Phi = -L((R x - x)_3 e3) = 2 int x3 = 1 with the flipped hull at height 0
    rep = sl.verify_global_admissibility(gravity, obstacle2, mesh2, budget=1000, seed=1)
    assert rep.conditions_basic_ok
    assert rep.shear_ok
    assert not rep.global_phi_ok
    assert rep.worst_phi > 0
    assert_allclose(rep.worst_phi, 1.0, rtol=1e-9)
    assert_allclose(rep.worst_phi_rotation.angle, np.pi, rtol=1e-9)
    assert abs(rep.worst_phi_rotation.axis[2]) < 1e-9


def test_admissibility_flags_are_plain_bools(mesh2, obstacle2, gravity):
    rep = sl.verify_global_admissibility(gravity, obstacle2, mesh2, budget=1000, seed=1)
    flags = {name: getattr(rep, name) for name in (
        "l0_unbounded", "conditions_basic_ok", "shear_ok", "global_phi_ok",
        "load_center_interior", "basic_admissible")}
    for name, flag in flags.items():
        assert type(flag) is bool, f"{name} is {type(flag).__name__}"
    assert json.loads(json.dumps(flags)) == flags


def test_rotation_type():
    r = rotation_from_axis_angle([0.0, 0.0, 2.0], 0.4)
    assert is_rotation(r)
    assert_allclose(r.axis, [0, 0, 1])
    back = Rotation.from_matrix(r.matrix)
    assert_allclose(back.angle, 0.4, rtol=1e-12)
    assert_allclose(back.axis, [0, 0, 1], atol=1e-12)


def test_load_file_roundtrip(tmp_path, mesh2):
    text = """# sample load
f affine 0 0 0 0 0 0 -1 0 0  0 0 -1
g region=top constant 0 0 -0.25
"""
    path = tmp_path / "load.txt"
    path.write_text(text)
    cfg = sl.parse_config(path.read_text())
    load = sl.LoadSpec(f=cfg.f_desc, g=cfg.g_descs)
    assert load.f.kind == "affine"
    assert load.g[0][0] == "top"
    e3 = np.tile([0.0, 0.0, 1.0], (mesh2.num_nodes, 1))
    assert_allclose(load_value(load, e3, mesh2), -1.5 - 0.25, rtol=1e-12)


def test_load_caches_follow_the_mesh():
    # a long-lived load meets many short-lived meshes; a freed mesh's id is
    # reused, so a cache keyed by that id would serve another mesh's vector
    kept = sl.LoadSpec(f=sl.constant_field([0.0, 0.0, -1.0]))
    stale = 0
    for cycle in range(120):
        mesh = sl.build_box_mesh(1 + cycle % 3)
        fresh = sl.LoadSpec(f=sl.constant_field([0.0, 0.0, -1.0]))
        want_ell = load_vector(fresh, mesh).copy()
        want_f, want_t = (a.copy() for a in load_moments(fresh, mesh))
        ell = load_vector(kept, mesh)
        f_res, t_mom = load_moments(kept, mesh)
        if (ell.shape != want_ell.shape or not np.array_equal(ell, want_ell)
                or not np.array_equal(f_res, want_f) or not np.array_equal(t_mom, want_t)):
            stale += 1
        del mesh, fresh
    assert stale == 0
