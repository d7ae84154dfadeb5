import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose

import signorini_lab as sl
from conftest import random_divergence_free
from signorini_lab import solvers
from signorini_lab.geometry import volume_mass_matrix
from signorini_lab.kinematics import DisplacementField
from signorini_lab.loads import Rotation, load_vector
from signorini_lab.material import det_minus_one_from_deviation
from signorini_lab.solvers import (
    Variant,
    active_set_qp,
    assemble_div_matrix,
    assemble_strain_hessian,
    obstacle_bound_dofs,
    strain_energy_quadratic,
)

TWO_TET_MESH = """nodes 5
0 0 0
1 0 0
0 1 0
0 0 1
1 1 1
tets 2
0 1 2 3
1 2 3 4
"""


@pytest.fixture(scope="module")
def two_tet(tmp_path_factory):
    path = tmp_path_factory.mktemp("mesh") / "two.mesh"
    path.write_text(TWO_TET_MESH)
    mesh = sl.read_mesh_file(path)
    return mesh, sl.extract_obstacle(mesh)


def quad_energy_oracle(u_field, mat, mesh, b=None):
    """Raw reimplementation of the incompressible quadratic energy: per element
    2 c1 |E|^2 + 4 c2 (tr E)^2 on the strain, shear lift added by hand."""
    strains = 0.5 * (u_field.gradients + np.transpose(u_field.gradients, (0, 2, 1)))
    if b is not None:
        s = np.zeros((3, 3))
        s[0, 2] = s[2, 0] = 0.5 * b[0]
        s[1, 2] = s[2, 1] = 0.5 * b[1]
        strains = strains + s
    dens = (2.0 * mat.c1 * (strains**2).sum(axis=(1, 2))
            + 4.0 * mat.c2 * np.trace(strains, axis1=1, axis2=2) ** 2)
    return float(mesh.element_volumes @ dens)


def enumerate_qp_oracle(h, g, a_eq, b_eq, bound_idx):
    """Exhaustive active-set enumeration: for every subset of bounds solve the
    equality-constrained KKT system; the minimum over feasible candidates is
    the global QP minimum."""
    import itertools

    n = h.shape[0]
    best = np.inf
    for r in range(len(bound_idx) + 1):
        for subset in itertools.combinations(bound_idx, r):
            rows = [a_eq] if a_eq.size else []
            for i in subset:
                e = np.zeros((1, n))
                e[0, i] = 1.0
                rows.append(e)
            a = np.vstack(rows) if rows else np.zeros((0, n))
            m = a.shape[0]
            kkt = np.zeros((n + m, n + m))
            kkt[:n, :n] = h
            kkt[:n, n:] = a.T
            kkt[n:, :n] = a
            rhs = np.concatenate([-g, b_eq, np.zeros(len(subset))])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            x = sol[:n]
            if a_eq.size and np.abs(a_eq @ x - b_eq).max() > 1e-9:
                continue
            if len(subset) and np.abs(x[list(subset)]).max() > 1e-9:
                continue
            if bound_idx.size and x[bound_idx].min() < -1e-9:
                continue
            best = min(best, 0.5 * x @ h @ x + g @ x)
    return best


def make_problem(mesh, obstacle, mat, load, variant, kernel):
    return solvers.QuadraticProblem(mesh=mesh, material=mat, load=load,
                                    obstacle=obstacle, variant=variant,
                                    kernel_class=kernel)


# ---------------------------------------------------------------------------
# quadratic limit problems

def test_zero_load_minimizer_is_zero(mesh2, obstacle2, yeoh):
    load = sl.LoadSpec()
    for variant in Variant:
        p = make_problem(mesh2, obstacle2, yeoh, load, variant,
                         sl.KernelClass.ROTATIONS_ABOUT_E3)
        res = solvers.minimize_limit(p)
        assert abs(res.objective) < 1e-12
        assert np.abs(res.field.u).max() < 1e-9


def test_limit_feasibility(mesh2, obstacle2, yeoh, gravity, limit_gravity):
    res, _ = limit_gravity
    assert res.residuals["div"] < 1e-9
    assert res.residuals["bound_min"] >= -1e-12
    assert res.residuals["value_consistency"] < 1e-10 * (1 + abs(res.objective))


def test_variant_ordering_pointwise(mesh2, obstacle2, yeoh, gravity):
    # G~ <= G <= E at any feasible displacement (definitional inequality)
    kernel = sl.classify_kernel(gravity, obstacle2, mesh2)
    rng = np.random.default_rng(0)
    u = random_divergence_free(mesh2, rng)
    shift = u.u.copy()
    shift[:, 2] -= shift[obstacle2.node_indices, 2].min() - 1e-6
    u = DisplacementField.from_nodal(mesh2, shift)
    pe = make_problem(mesh2, obstacle2, yeoh, gravity, Variant.EI, kernel)
    pg = make_problem(mesh2, obstacle2, yeoh, gravity, Variant.GI, kernel)
    pt = make_problem(mesh2, obstacle2, yeoh, gravity, Variant.GTILDE, kernel)
    ei = solvers.eval_limit(u, pe)
    gi = solvers.eval_limit(u, pg)
    gt = solvers.eval_limit(u, pt)
    assert gt <= gi + 1e-12
    assert gi <= ei + 1e-12


def test_minima_ordering_and_equality(mesh2, obstacle2, yeoh, test_loads):
    for load in test_loads:
        kernel = sl.classify_kernel(load, obstacle2, mesh2)
        vals = {}
        for variant in Variant:
            res = solvers.minimize_limit(
                make_problem(mesh2, obstacle2, yeoh, load, variant, kernel))
            vals[variant] = res.objective
        scale = 1.0 + max(abs(v) for v in vals.values())
        assert vals[Variant.GTILDE] <= vals[Variant.GI] + 1e-10 * scale
        assert vals[Variant.GI] <= vals[Variant.EI] + 1e-10 * scale
        assert abs(vals[Variant.GTILDE] - vals[Variant.GI]) <= 1e-8 * scale


def test_identity_kernel_gi_equals_ei(mesh2, obstacle2, yeoh, identity_only_load):
    kernel = sl.classify_kernel(identity_only_load, obstacle2, mesh2)
    assert kernel == sl.KernelClass.IDENTITY_ONLY
    ei = solvers.minimize_limit(make_problem(mesh2, obstacle2, yeoh,
                                             identity_only_load, Variant.EI, kernel))
    gi = solvers.minimize_limit(make_problem(mesh2, obstacle2, yeoh,
                                             identity_only_load, Variant.GI, kernel))
    assert_allclose(gi.objective, ei.objective, rtol=1e-12)


def test_symmetric_vertical_load_gi_equals_ei(mesh2, obstacle2, yeoh, gravity):
    # L(v) = L(R v) for vertical loads and rotations fixing e3, so the kernel
    # maximum never helps even though the kernel is the full circle
    kernel = sl.classify_kernel(gravity, obstacle2, mesh2)
    assert kernel == sl.KernelClass.ROTATIONS_ABOUT_E3
    ei = solvers.minimize_limit(make_problem(mesh2, obstacle2, yeoh, gravity,
                                             Variant.EI, kernel))
    gi = solvers.minimize_limit(make_problem(mesh2, obstacle2, yeoh, gravity,
                                             Variant.GI, kernel))
    assert abs(ei.objective - gi.objective) < 1e-10 * (1 + abs(ei.objective))


def test_load_scaling_in_unconstrained_regime(mesh2, obstacle2, yeoh, gravity):
    kernel = sl.classify_kernel(gravity, obstacle2, mesh2)
    res1 = solvers.minimize_limit(make_problem(mesh2, obstacle2, yeoh, gravity,
                                               Variant.EI, kernel))
    double = sl.LoadSpec(f=sl.constant_field([0.0, 0.0, -2.0]))
    res2 = solvers.minimize_limit(make_problem(mesh2, obstacle2, yeoh, double,
                                               Variant.EI, kernel))
    # same active set: minimizer and linear term scale, value scales by 4
    assert set(res1.active_nodes) == set(res2.active_nodes)
    assert_allclose(res2.objective, 4.0 * res1.objective, rtol=1e-9)


def test_qp_oracle_two_tets(two_tet, yeoh):
    mesh, obstacle = two_tet
    load = sl.LoadSpec(f=sl.constant_field([0.0, 0.0, -1.0]))
    kernel = sl.classify_kernel(load, obstacle, mesh)

    for variant in (Variant.EI, Variant.GTILDE):
        p = make_problem(mesh, obstacle, yeoh, load, variant, kernel)
        res = solvers.minimize_limit(p)
        with_shear = variant == Variant.GTILDE
        h = assemble_strain_hessian(mesh, yeoh, with_shear=with_shear)
        b = assemble_div_matrix(mesh)
        if with_shear:
            b = np.hstack([b, np.zeros((b.shape[0], 2))])
        g = np.zeros(h.shape[0])
        g[:3 * mesh.num_nodes] = -load_vector(load, mesh).ravel()
        oracle = enumerate_qp_oracle(h, g, b, np.zeros(b.shape[0]),
                                     obstacle_bound_dofs(obstacle))
        assert abs(res.objective - oracle) < 1e-8


def test_active_set_qp_simple_bound():
    # min (x - 1)^2 + (y + 1)^2 with y >= 0 has minimum at (1, 0)
    h = 2.0 * np.eye(2)
    g = np.array([-2.0, 2.0])
    x, info = active_set_qp(h, g, np.zeros((0, 2)), np.zeros(0), np.array([1]))
    assert_allclose(x, [1.0, 0.0], atol=1e-12)
    assert info["bound_multipliers"].min() >= -1e-12


def test_active_set_qp_infeasible_equalities():
    h = np.eye(2)
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(solvers.SolveFailure):
        active_set_qp(h, np.zeros(2), a, np.array([0.0, 1.0]), np.array([], dtype=int))


def scan_load(mesh, rng, amplitude=1.0):
    """Gravity plus a random horizontal nodal force of the given amplitude whose
    resultant and first moments are projected out: it passes the gate like
    gravity, but its rotated load vector depends on the angle."""
    mass = volume_mass_matrix(mesh)
    basis = np.column_stack([np.ones(mesh.num_nodes), mesh.nodes])
    force = np.zeros((mesh.num_nodes, 3))
    force[:, 2] = -1.0
    for i in range(2):
        f = amplitude * rng.standard_normal(mesh.num_nodes)
        force[:, i] = f - basis @ np.linalg.solve(basis.T @ mass @ basis, basis.T @ (mass @ f))
    return sl.LoadSpec(f=sl.nodal_field(force))


def rotated_load_vector(problem, theta):
    """Flattened load vector of u -> L(R_theta u), from the rotation matrix."""
    return (load_vector(problem.load, problem.mesh) @ Rotation.about_e3(theta).matrix).ravel()


def test_active_set_qp_shared_factors_over_angles(mesh2, obstacle2, yeoh, monkeypatch):
    load = scan_load(mesh2, np.random.default_rng(8))
    p = make_problem(mesh2, obstacle2, yeoh, load, Variant.GI,
                     sl.KernelClass.ROTATIONS_ABOUT_E3)
    h = assemble_strain_hessian(mesh2, yeoh)
    b = assemble_div_matrix(mesh2)
    zeros = np.zeros(b.shape[0])
    bound = obstacle_bound_dofs(obstacle2)
    factored, frames = [], []
    kkt_factor = solvers._kkt_factor
    null_space_frame = solvers._null_space_frame

    def counting(hz, z, working):
        factored.append(tuple(working))
        return kkt_factor(hz, z, working)

    def counting_frame(a_eq, n):
        frames.append(n)
        return null_space_frame(a_eq, n)

    monkeypatch.setattr(solvers, "_kkt_factor", counting)
    monkeypatch.setattr(solvers, "_null_space_frame", counting_frame)
    factors, warm, solved = {}, None, []
    for theta in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
        g = -rotated_load_vector(p, theta)
        x, info = active_set_qp(h, g, b, zeros, bound, warm_working=warm, factors=factors)
        solved.append((g, warm, x))
        warm = info["working_set"]
    shared, shared_frames = list(factored), list(frames)
    for g, warm, x in solved:
        x_fresh, _ = active_set_qp(h, g, b, zeros, bound, warm_working=warm)
        assert_allclose(x, x_fresh, rtol=0.0, atol=1e-12)
    # the null-space frame is computed once for the scan, and every working
    # set met is factored exactly once, and the angles share them
    assert shared_frames == [h.shape[0]]
    assert set(factors) - {"null_space", "reduced_hessian"} == set(shared)
    assert len(shared) == len(set(shared)) == len(factors) - 2
    assert len(factors) - 2 < len(factored) - len(shared)


def test_active_set_qp_shared_factors_follow_the_working_set():
    # one bound that g decides: no factorization of another working set leaks in
    rng = np.random.default_rng(9)
    m = rng.standard_normal((3, 3))
    h = m @ m.T + 0.5 * np.eye(3)
    a_eq = np.array([[1.0, 1.0, 1.0]])
    bound = np.array([0, 1])
    factors, warm, finals = {}, None, set()
    for trial in range(12):
        g = 2.0 * rng.standard_normal(3)
        b_eq = np.array([0.5 * (trial % 3)])
        x, info = active_set_qp(h, g, a_eq, b_eq, bound, warm_working=warm,
                                factors=factors)
        oracle = enumerate_qp_oracle(h, g, a_eq, b_eq, bound)
        assert abs(0.5 * x @ h @ x + g @ x - oracle) < 1e-10, f"trial {trial}"
        assert x[bound].min() >= -1e-12
        assert np.abs(a_eq @ x - b_eq).max() < 1e-12
        warm = info["working_set"]
        finals.add(tuple(sorted(int(i) for i in warm)))
    assert len(finals) > 1


def test_active_set_qp_redundant_kuhn_rows(mesh2, obstacle2, yeoh, gravity):
    # the per-element divergence rows of a Kuhn mesh are linearly dependent
    # and H is singular (rigid modes): minimum-norm solves still reach the
    # oracle's minimum
    h = assemble_strain_hessian(mesh2, yeoh)
    b = assemble_div_matrix(mesh2)
    assert np.linalg.matrix_rank(b) < b.shape[0]
    corners = [i for i in obstacle2.node_indices
               if mesh2.nodes[i, 0] in (0.0, 1.0) and mesh2.nodes[i, 1] in (0.0, 1.0)]
    bound = 3 * np.array(corners) + 2
    g = -load_vector(gravity, mesh2).ravel()
    x, _ = active_set_qp(h, g, b, np.zeros(b.shape[0]), bound)
    oracle = enumerate_qp_oracle(h, g, b, np.zeros(b.shape[0]), bound)
    assert abs(0.5 * x @ h @ x + g @ x - oracle) < 1e-10 * (1.0 + abs(oracle))
    assert np.abs(b @ x).max() < 1e-12
    # horizontal translations and the rotation about e3 leave the KKT system
    # unchanged; the minimum-norm solution has no component along them
    nodes = mesh2.nodes
    flat = np.zeros((3, mesh2.num_nodes, 3))
    flat[0, :, 0] = flat[1, :, 1] = 1.0
    flat[2, :, 0], flat[2, :, 1] = -nodes[:, 1], nodes[:, 0]
    assert np.abs(flat.reshape(3, -1) @ x).max() < 1e-10 * np.abs(x).max()


def full_kkt_qp_oracle(h, g, a_eq, b_eq, bound_idx, warm_working=None):
    """The active-set method with every step a minimum-norm solve of the full
    KKT matrix [[H, A_eq^T, E_W^T], [A_eq, 0, 0], [E_W, 0, 0]] (truncated
    eigh at lstsq's cutoff) and a loop ratio test, as the solver ran before
    it moved to the null space of A_eq. Returns (x, working set, bound
    multipliers)."""
    n, n_eq = h.shape[0], a_eq.shape[0]
    x = np.zeros(n)
    working = list(bound_idx) if warm_working is None else list(warm_working)
    for _ in range(3 * max(len(bound_idx), 1) + 30):
        dim = n + n_eq + len(working)
        kkt = np.zeros((dim, dim))
        kkt[:n, :n] = h
        kkt[:n, n:n + n_eq] = a_eq.T
        kkt[n:n + n_eq, :n] = a_eq
        for r, i in enumerate(working):
            kkt[i, n + n_eq + r] = kkt[n + n_eq + r, i] = 1.0
        lam, v = np.linalg.eigh(kkt)
        keep = np.abs(lam) > np.finfo(float).eps * dim * np.abs(lam).max(initial=0.0)
        v, lam = v[:, keep], lam[keep]
        rhs = np.concatenate([-g, b_eq, np.zeros(len(working))])
        sol = v @ ((v.T @ rhs) / lam)
        p = sol[:n] - x
        if np.abs(p).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(x).max(initial=0.0)):
            mu = -sol[n + n_eq:]
            if mu.size == 0 or mu.min() >= -solvers.QP_MULTIPLIER_TOL:
                return sol[:n], working, mu
            working.pop(int(np.argmin(mu)))
            continue
        alpha, blocker = 1.0, None
        for i in bound_idx:
            if i not in working and p[i] < -1e-14:
                cand = max(x[i], 0.0) / (-p[i])
                if cand < alpha:
                    alpha, blocker = cand, i
        x = x + alpha * p
        if blocker is not None:
            x[blocker] = 0.0
            working.append(blocker)
    raise AssertionError("oracle did not converge")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_active_set_qp_matches_full_kkt_oracle(n, yeoh):
    # the null-space solve reproduces the full-KKT minimum-norm solve of the
    # limit QPs: same minimizer, objective, working set and multipliers
    mesh = sl.build_box_mesh(n)
    obstacle = sl.extract_obstacle(mesh)
    load = scan_load(mesh, np.random.default_rng(20 + n))
    p = make_problem(mesh, obstacle, yeoh, load, Variant.GI,
                     sl.KernelClass.ROTATIONS_ABOUT_E3)
    bound = obstacle_bound_dofs(obstacle)
    b_div = assemble_div_matrix(mesh)
    cases = [(Variant.EI, 0.0)] + [(v, t) for v in (Variant.GI, Variant.GTILDE)
                                   for t in (0.7, 2.9, 4.4)]
    for variant, theta in cases:
        with_shear = variant == Variant.GTILDE
        h = assemble_strain_hessian(mesh, yeoh, with_shear=with_shear)
        b = np.hstack([b_div, np.zeros((b_div.shape[0], 2))]) if with_shear else b_div
        g = np.zeros(h.shape[0])
        g[:3 * mesh.num_nodes] = -rotated_load_vector(p, theta)
        zeros = np.zeros(b.shape[0])
        x, info = active_set_qp(h, g, b, zeros, bound)
        x_ref, working_ref, mu_ref = full_kkt_qp_oracle(h, g, b, zeros, bound)
        case = f"{variant.value} theta={theta}"
        assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max(), case
        obj, obj_ref = 0.5 * x @ h @ x + g @ x, 0.5 * x_ref @ h @ x_ref + g @ x_ref
        assert abs(obj - obj_ref) <= 1e-14 * (1.0 + abs(obj_ref)), case
        assert info["working_set"] == working_ref, case
        assert_allclose(info["bound_multipliers"], mu_ref, rtol=0.0,
                        atol=1e-10 * max(1.0, np.abs(mu_ref).max()), err_msg=case)


def test_active_set_qp_bound_implied_by_equalities():
    # x0 = x1 and x0 + x1 = 0 force x1 = 0, so the working bound x1 >= 0 is a
    # dependent row: its reduced KKT row is zero and the solve goes through
    h = np.diag([1.0, 2.0, 1.0])
    g = np.array([1.0, -3.0, -1.0])
    a_eq = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0]])
    for bound in (np.array([1]), np.array([1, 2])):
        x, info = active_set_qp(h, g, a_eq, np.zeros(2), bound)
        assert_allclose(x, [0.0, 0.0, 1.0], atol=1e-14)
        assert info["bound_multipliers"].min() >= -solvers.QP_MULTIPLIER_TOL
        oracle = enumerate_qp_oracle(h, g, a_eq, np.zeros(2), bound)
        assert abs(0.5 * x @ h @ x + g @ x - oracle) < 1e-14


def test_active_set_qp_ratio_ties_follow_bound_order():
    # from x = 0 every bound whose step points below it blocks at ratio 0:
    # the blocker is the first such bound in bound_idx order, not the lowest dof
    h = np.eye(4)
    g = np.array([1.0, 1.0, 1.0, -1.0])
    bound = np.array([2, 3, 0, 1])
    x, info = active_set_qp(h, g, np.zeros((0, 4)), np.zeros(0), bound, warm_working=[])
    assert [int(i) for i in info["working_set"]] == [2, 0, 1]
    assert_allclose(x, [0.0, 0.0, 0.0, 1.0], atol=1e-14)
    _, working_ref, _ = full_kkt_qp_oracle(h, g, np.zeros((0, 4)), np.zeros(0), bound,
                                           warm_working=[])
    assert info["working_set"] == working_ref


def grid_refine_oracle(solve_theta, theta_grid=48):
    """(value, theta) of the minimum over theta of solve_theta(theta) by the
    angle scan the limit solver once ran: the best of `theta_grid` equally
    spaced angles, refined by a bounded Brent search over the grid cells on
    either side of it."""
    from scipy.optimize import minimize_scalar

    thetas = np.linspace(0.0, 2.0 * np.pi, theta_grid, endpoint=False)
    vals = [solve_theta(t) for t in thetas]
    k = int(np.argmin(vals))
    span = 2.0 * np.pi / theta_grid
    res = minimize_scalar(solve_theta, bounds=(thetas[k] - span, thetas[k] + span),
                          method="bounded", options={"xatol": 1e-10})
    if res.fun <= vals[k]:
        return float(res.fun), float(res.x)
    return float(vals[k]), float(thetas[k])


def limit_qp_oracle(problem):
    """`grid_refine_oracle` over the limit QPs of a G^I or G~^I problem, each
    angle warm-started from the last with factorizations shared."""
    p = problem
    with_shear = p.variant == Variant.GTILDE
    h = assemble_strain_hessian(p.mesh, p.material, with_shear=with_shear)
    b = assemble_div_matrix(p.mesh)
    if with_shear:
        b = np.hstack([b, np.zeros((b.shape[0], 2))])
    bound, zeros = obstacle_bound_dofs(p.obstacle), np.zeros(b.shape[0])
    factors, warm = {}, [None]

    def solve_theta(theta):
        g = np.zeros(h.shape[0])
        g[:3 * p.mesh.num_nodes] = -rotated_load_vector(p, theta)
        x, info = active_set_qp(h, g, b, zeros, bound, warm_working=warm[0], factors=factors)
        warm[0] = info["working_set"]
        return 0.5 * x @ h @ x + g @ x

    return grid_refine_oracle(solve_theta)


def test_limit_load_parts_match_the_rotated_load(mesh2, obstacle2, yeoh):
    load = scan_load(mesh2, np.random.default_rng(5), amplitude=3.0)
    p = make_problem(mesh2, obstacle2, yeoh, load, Variant.EI, None)
    parts = solvers._limit_load_parts(load_vector(load, mesh2))
    for theta in (0.0, 0.4, 2.0, 3.7, 6.1):
        assert_allclose(parts @ [1.0, np.cos(theta), np.sin(theta)],
                        rotated_load_vector(p, theta), rtol=0.0, atol=1e-15)


# cube 2 seed 3 starts an arc at a bound that sits at its tolerance, falling;
# cube 3 seed 5 was not used while the angle path was written
@pytest.mark.parametrize("n, seed", [(2, 2), (2, 3), (2, 4), (3, 0), (3, 1), (3, 5)])
def test_angle_path_matches_the_grid_oracle(n, seed, yeoh, monkeypatch):
    mesh = sl.build_box_mesh(n)
    obstacle = sl.extract_obstacle(mesh)
    load = scan_load(mesh, np.random.default_rng(seed), amplitude=10.0)
    calls = []
    qp = solvers.active_set_qp

    def counting_qp(*args, **kwargs):
        calls.append(kwargs.get("warm_working"))
        return qp(*args, **kwargs)

    for variant in (Variant.GI, Variant.GTILDE):
        p = make_problem(mesh, obstacle, yeoh, load, variant, sl.KernelClass.ROTATIONS_ABOUT_E3)
        oracle, _ = limit_qp_oracle(p)
        monkeypatch.setattr(solvers, "active_set_qp", counting_qp)
        del calls[:]
        res = solvers.minimize_limit(p)
        monkeypatch.setattr(solvers, "active_set_qp", qp)
        scale = 1.0 + abs(oracle)
        assert abs(res.objective - oracle) <= 1e-10 * scale, variant
        assert res.objective <= oracle + 1e-12 * scale, variant
        assert res.residuals["value_consistency"] <= 1e-12 * scale, variant
        assert res.residuals["div"] <= 1e-12 and res.residuals["bound_min"] >= -1e-12
        # these loads cross several working sets
        assert len(calls) > 1, variant


def test_minimize_limit_calls_the_qp_once_per_arc(mesh2, obstacle2, yeoh, monkeypatch):
    # the bench counts solvers.active_set_qp calls: one per arc of the angle
    # path, the first at theta = 0 cold and each later one warm from the last
    # working set with one bound added or dropped, at a later angle
    calls = []
    qp = solvers.active_set_qp

    def recording_qp(h, g, a_eq, b_eq, bound_idx, warm_working=None, factors=None):
        x, info = qp(h, g, a_eq, b_eq, bound_idx, warm_working=warm_working, factors=factors)
        calls.append((g.copy(), warm_working, list(info["working_set"])))
        return x, info

    monkeypatch.setattr(solvers, "active_set_qp", recording_qp)
    kernel = sl.KernelClass.ROTATIONS_ABOUT_E3
    single = scan_load(mesh2, np.random.default_rng(8))
    for variant in Variant:
        del calls[:]
        solvers.minimize_limit(make_problem(mesh2, obstacle2, yeoh, single, variant, kernel))
        assert len(calls) == 1 and calls[0][1] is None, variant

    multi = scan_load(mesh2, np.random.default_rng(3), amplitude=10.0)
    parts = -solvers._limit_load_parts(load_vector(multi, mesh2))
    for variant in (Variant.GI, Variant.GTILDE):
        del calls[:]
        solvers.minimize_limit(make_problem(mesh2, obstacle2, yeoh, multi, variant, kernel))
        assert len(calls) > 2 and calls[0][1] is None, variant
        n3 = parts.shape[0]
        cs = [np.linalg.lstsq(parts[:, 1:], g[:n3] - parts[:, 0], rcond=None)[0]
              for g, _, _ in calls]
        thetas = [np.mod(np.arctan2(s, c), 2.0 * np.pi) for c, s in cs]
        assert thetas[0] < 1e-14 and all(a < b for a, b in zip(thetas, thetas[1:])), thetas
        for (_, _, before), (_, warm, _) in zip(calls, calls[1:]):
            assert len(set(before) ^ set(warm)) == 1 and abs(len(before) - len(warm)) == 1


def test_arc_end_degenerate_start():
    tol = np.array([1e-14])
    below = -1e-14 - 1e-16
    # at the tolerance and falling: the arc ends at once, not a turn later
    assert solvers._arc_end(np.array([[below, 0.0, -1.0]]), tol, 0.0) == (0.0, 0)
    # at the tolerance and rising: the row falls below -tol again near pi
    dist, row = solvers._arc_end(np.array([[below, 0.0, 1.0]]), tol, 0.0)
    assert row == 0 and abs(dist - np.pi) < 1e-12
    # the first of several crossings ends the arc; a row that never reaches
    # -tol, or is constant, never does
    rows = np.array([[0.2, 0.0, 1.0], [1.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 1.0, 0.0]])
    dist, row = solvers._arc_end(rows, np.full(4, 1e-14), 0.0)
    assert row == 3 and abs(dist - np.arccos(-0.5 - 1e-14)) < 1e-12
    # past 2 pi / 3 the last row is below -tol and falling
    assert solvers._arc_end(rows, np.full(4, 1e-14), 2.5) == (0.0, 3)
    dist, row = solvers._arc_end(rows[:3], np.full(3, 1e-14), 2.5)
    assert row == 0 and abs(2.5 + dist - (np.pi + np.arcsin(0.2 + 1e-14))) < 1e-12
    assert solvers._arc_end(rows[1:3], np.full(2, 1e-14), 1.0) == (np.inf, None)


def test_angle_path_ends_an_arc_that_starts_below_tolerance(monkeypatch):
    # min (1/2)|x|^2 + g(theta).x with x0 >= 0 and g(theta) = (-1.001e-9 - sin, -cos):
    # at theta = 0 the multiplier of the pinned x0 is -1.001e-9, past
    # -QP_MULTIPLIER_TOL and falling. Let the first QP accept the pinned set,
    # as roundoff at the tolerance can: the arc must end at once, not run
    # the whole turn on a set that is optimal nowhere after 0
    qp = solvers.active_set_qp
    first = [True]

    def accepting_qp(*args, **kwargs):
        x, info = qp(*args, **kwargs)
        if first[0]:
            first[0] = False
            info = dict(info, working_set=[0])
        return x, info

    monkeypatch.setattr(solvers, "active_set_qp", accepting_qp)
    parts = np.array([[-1.001e-9, 0.0, -1.0], [0.0, -1.0, 0.0]])
    val, theta, x, _ = solvers._angle_path(np.eye(2), parts, np.zeros((0, 2)), np.array([0]),
                                           {})
    assert abs(val + 0.5 * (1.0 + 1.001e-9) ** 2) < 1e-15
    assert abs(theta - 0.5 * np.pi) < 1e-6
    assert_allclose(x, [1.0 + 1.001e-9, 0.0], atol=1e-6)


def test_arc_minimum_matches_a_dense_scan():
    rng = np.random.default_rng(12)
    for _ in range(50):
        m = rng.standard_normal((3, 3))
        q = m + m.T
        lo = rng.uniform(0.0, 2.0 * np.pi)
        hi = rng.uniform(lo, 2.0 * np.pi)
        val, theta = solvers._arc_minimum(q, lo, hi)
        t = np.linspace(lo, hi, 20001)
        v = np.stack([np.ones_like(t), np.cos(t), np.sin(t)])
        dense = np.einsum("ik,ij,jk->k", v, q, v)
        assert lo <= theta <= hi
        assert val <= dense.min() + 1e-14 and val >= dense.min() - 1e-6
        w = np.array([1.0, np.cos(theta), np.sin(theta)])
        assert abs(w @ q @ w - val) < 1e-14
    # a constant objective
    assert solvers._arc_minimum(np.diag([1.0, 2.0, 2.0]), 0.5, 1.0) == (3.0, 0.5)


def test_angle_path_on_small_qps():
    # random convex QPs whose bounds switch many times around the circle; the
    # path minimum matches the grid oracle and its x is feasible and attains it
    rng = np.random.default_rng(13)
    n = 6
    a_eq = np.array([[1.0, 1.0, 1.0, 1.0, 1.0, 1.0]])
    bound = np.array([0, 2, 3, 5])
    arcs = []
    for trial in range(8):
        m = rng.standard_normal((n, n))
        h = m @ m.T + 0.1 * np.eye(n)
        parts = rng.standard_normal((n, 3)) * [0.3, 1.0, 1.0]
        factors = {}
        val, theta, x, _ = solvers._angle_path(h, parts, a_eq, bound, factors)
        arcs.append(len(factors) - 2)

        def solve_theta(t):
            g = parts @ [1.0, np.cos(t), np.sin(t)]
            y, _ = active_set_qp(h, g, a_eq, np.zeros(1), bound)
            return 0.5 * y @ h @ y + g @ y

        oracle, _ = grid_refine_oracle(solve_theta, theta_grid=360)
        assert abs(val - oracle) <= 1e-10 * (1.0 + abs(oracle)), trial
        assert val <= oracle + 1e-12 * (1.0 + abs(oracle)), trial
        g = parts @ [1.0, np.cos(theta), np.sin(theta)]
        assert abs(0.5 * x @ h @ x + g @ x - val) < 1e-12
        assert x[bound].min() >= -1e-12 and abs(a_eq @ x).max() < 1e-12
    assert max(arcs) > 2


def test_angle_path_that_does_not_close_fails_by_name(mesh2, obstacle2, yeoh, monkeypatch):
    monkeypatch.setattr(solvers, "_arc_end", lambda rows, tols, theta: (0.0, 0))
    load = scan_load(mesh2, np.random.default_rng(8))
    p = make_problem(mesh2, obstacle2, yeoh, load, Variant.GI, sl.KernelClass.ROTATIONS_ABOUT_E3)
    cap = 4 * (obstacle2.num_nodes + 1)
    with pytest.raises(solvers.SolveFailure, match=f"angle path did not close after {cap} arcs"):
        solvers.minimize_limit(p)


def test_active_set_qp_degenerate_kkt_gives_zeros():
    x, info = active_set_qp(np.zeros((2, 2)), np.zeros(2), np.zeros((0, 2)), np.zeros(0),
                            np.array([1]))
    assert_allclose(x, 0.0, atol=0.0)
    assert info["iterations"] == 1
    x, _ = active_set_qp(np.zeros((0, 0)), np.zeros(0), np.zeros((0, 0)), np.zeros(0),
                         np.array([], dtype=int))
    assert x.shape == (0,)


# ---------------------------------------------------------------------------
# shear reduction and kernel maximum

def test_optimal_shear_b_trivial(mesh2, yeoh):
    u = DisplacementField.from_nodal(mesh2, np.zeros((mesh2.num_nodes, 3)))
    assert_allclose(solvers.optimal_shear_b(u, yeoh, mesh2), [0.0, 0.0], atol=1e-14)


def test_optimal_shear_b_x3_shear(mesh2, yeoh):
    # u = x3 e1 has constant strain E13 = 1/2; the minimizing lift cancels it
    u = DisplacementField.from_nodal(
        mesh2, np.outer(mesh2.nodes[:, 2], [1.0, 0.0, 0.0]))
    b = solvers.optimal_shear_b(u, yeoh, mesh2)
    assert_allclose(b, [-1.0, 0.0], atol=1e-12)


def grid_search_b(u_field, mat, mesh, span=2.0, n=41, rounds=8, step=1e-2):
    """Minimize the raw shear-lift energy over b: shrinking grids bracket the
    minimum, then one Newton step on central differences finishes it.

    The energy is quadratic in b, so central differences are exact up to
    roundoff and the step lands on the minimizer; the grid alone cannot
    resolve b below sqrt(eps) because energies that close differ by an ulp.
    """
    def energy(b):
        return quad_energy_oracle(u_field, mat, mesh, b=b)

    center = np.zeros(2)
    for _ in range(rounds):
        b1 = np.linspace(center[0] - span, center[0] + span, n)
        b2 = np.linspace(center[1] - span, center[1] + span, n)
        vals = np.array([[energy((x, y)) for y in b2] for x in b1])
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        center = np.array([b1[i], b2[j]])
        span /= n / 2.5
    e = step * np.eye(2)
    mid = energy(center)
    plus = [energy(center + e[k]) for k in range(2)]
    minus = [energy(center - e[k]) for k in range(2)]
    grad = np.array([(plus[k] - minus[k]) / (2 * step) for k in range(2)])
    hess = np.diag([(plus[k] - 2 * mid + minus[k]) / step**2 for k in range(2)])
    hess[0, 1] = hess[1, 0] = (energy(center + e[0] + e[1]) - energy(center + e[0] - e[1])
                               - energy(center - e[0] + e[1])
                               + energy(center - e[0] - e[1])) / (4 * step**2)
    center = center - np.linalg.solve(hess, grad)
    return center, energy(center)


def test_optimal_shear_b_matches_grid_search(mesh2, yeoh):
    rng = np.random.default_rng(1)
    for trial in range(20):
        u = random_divergence_free(mesh2, rng)
        b_closed = solvers.optimal_shear_b(u, yeoh, mesh2)
        b_grid, _ = grid_search_b(u, yeoh, mesh2)
        assert np.abs(b_closed - b_grid).max() < 1e-8, f"trial {trial}"


def test_optimal_shear_requires_divergence_free(mesh2, yeoh):
    u = DisplacementField.from_nodal(
        mesh2, np.outer(mesh2.nodes[:, 0], [1.0, 0.0, 0.0]))
    with pytest.raises(solvers.SolveFailure):
        solvers.optimal_shear_b(u, yeoh, mesh2)


def test_max_load_cosine_formula():
    # a cos(t) + b sin(t) + c with a = 1, b = 0, c = -2 peaks at t = 0, value -1
    a, b, c = 1.0, 0.0, -2.0
    theta = np.linspace(0, 2 * np.pi, 10_000, endpoint=False)
    grid_max = (a * np.cos(theta) + b * np.sin(theta) + c).max()
    assert_allclose(c + np.hypot(a, b), -1.0)
    assert grid_max <= c + np.hypot(a, b) + 1e-7


def theta_grid_max_load(u_field, load, mesh, n=10_000):
    """Oracle: rotate the nodal field and evaluate the load directly."""
    ell = load_vector(load, mesh)
    best_val, best_theta = -np.inf, 0.0
    for theta in np.linspace(0.0, 2 * np.pi, n, endpoint=False):
        r = Rotation.about_e3(theta).matrix
        val = float((ell * (u_field.u @ r.T)).sum())
        if val > best_val:
            best_val, best_theta = val, theta
    # golden-section refinement around the best grid angle
    span = 2 * np.pi / n
    lo, hi = best_theta - span, best_theta + span
    phi = (np.sqrt(5.0) - 1.0) / 2.0

    def f(t):
        r = Rotation.about_e3(t).matrix
        return float((ell * (u_field.u @ r.T)).sum())

    a, b = lo, hi
    c1, c2 = b - phi * (b - a), a + phi * (b - a)
    for _ in range(60):
        if f(c1) > f(c2):
            b, c2 = c2, c1
            c1 = b - phi * (b - a)
        else:
            a, c1 = c1, c2
            c2 = a + phi * (b - a)
    tm = 0.5 * (a + b)
    return max(best_val, f(tm))


def test_max_load_over_kernel_matches_grid(mesh2, gravity, identity_only_load):
    rng = np.random.default_rng(2)
    aff = sl.LoadSpec(f=sl.affine_field(
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 0.5, 0.0]]), [0.0, 0.0, -1.0]))
    for trial in range(20):
        u = DisplacementField.from_nodal(
            mesh2, 0.3 * rng.standard_normal((mesh2.num_nodes, 3)))
        load = (gravity, aff)[trial % 2]
        val, rot = solvers.max_load_over_kernel(
            u, load, sl.KernelClass.ROTATIONS_ABOUT_E3, mesh2)
        oracle = theta_grid_max_load(u, load, mesh2)
        assert abs(val - oracle) < 1e-9, f"trial {trial}"
        ell = load_vector(load, mesh2)
        assert_allclose(val, float((ell * (u.u @ rot.matrix.T)).sum()), rtol=1e-10,
                        atol=1e-12)


def test_max_load_identity_kernel(mesh2, gravity):
    rng = np.random.default_rng(3)
    u = DisplacementField.from_nodal(mesh2, rng.standard_normal((mesh2.num_nodes, 3)))
    val, rot = solvers.max_load_over_kernel(u, gravity, sl.KernelClass.IDENTITY_ONLY,
                                            mesh2)
    ell = load_vector(gravity, mesh2)
    assert_allclose(val, float((ell * u.u).sum()), rtol=1e-14)
    assert rot.angle == 0.0


# ---------------------------------------------------------------------------
# lift identities

def test_tilde_lift_properties(mesh2, obstacle2, yeoh, gravity, limit_gravity):
    res, kernel = limit_gravity
    u = res.field
    b = solvers.optimal_shear_b(u, yeoh, mesh2)
    lifted = solvers.tilde_lift(u, b, mesh2)
    # trace-free addition: divergence unchanged element by element
    assert_allclose(lifted.divergence, u.divergence, atol=1e-13)
    # equality on the contact plane
    assert_allclose(lifted.u[obstacle2.node_indices, 2],
                    u.u[obstacle2.node_indices, 2], atol=1e-14)
    # load invariance over the kernel (needs L(x3 e_alpha) = 0)
    for theta in (0.0, 0.7, 2.1):
        r = Rotation.about_e3(theta).matrix
        ell = load_vector(gravity, mesh2)
        assert abs(float((ell * (lifted.u @ r.T)).sum())
                   - float((ell * (u.u @ r.T)).sum())) < 1e-12
    # the lift turns the shear-reduced functional into the plain one
    p_t = solvers.QuadraticProblem(mesh=mesh2, material=yeoh, load=gravity,
                                   obstacle=obstacle2, variant=Variant.GTILDE,
                                   kernel_class=kernel)
    p_g = solvers.QuadraticProblem(mesh=mesh2, material=yeoh, load=gravity,
                                   obstacle=obstacle2, variant=Variant.GI,
                                   kernel_class=kernel)
    gt_u = solvers.eval_limit(u, p_t, b=b)
    g_lift = solvers.eval_limit(lifted, p_g)
    assert abs(gt_u - g_lift) <= 1e-10 * (1.0 + abs(gt_u))


def test_tilde_lift_trivial_cases(mesh2):
    rng = np.random.default_rng(4)
    u = DisplacementField.from_nodal(mesh2, rng.standard_normal((mesh2.num_nodes, 3)))
    same = solvers.tilde_lift(u, np.zeros(2), mesh2)
    assert_allclose(same.u, u.u)
    zero = DisplacementField.from_nodal(mesh2, np.zeros((mesh2.num_nodes, 3)))
    lifted = solvers.tilde_lift(zero, np.array([1.0, 0.0]), mesh2)
    assert_allclose(lifted.u[:, 0], mesh2.nodes[:, 2], atol=1e-14)
    assert np.abs(lifted.divergence).max() < 1e-13


def test_lift_identity_random_fields(mesh2, obstacle2, yeoh, gravity):
    kernel = sl.classify_kernel(gravity, obstacle2, mesh2)
    p_t = solvers.QuadraticProblem(mesh=mesh2, material=yeoh, load=gravity,
                                   obstacle=obstacle2, variant=Variant.GTILDE,
                                   kernel_class=kernel)
    p_g = solvers.QuadraticProblem(mesh=mesh2, material=yeoh, load=gravity,
                                   obstacle=obstacle2, variant=Variant.GI,
                                   kernel_class=kernel)
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = random_divergence_free(mesh2, rng)
        b = solvers.optimal_shear_b(u, yeoh, mesh2)
        lifted = solvers.tilde_lift(u, b, mesh2)
        gt = solvers.eval_limit(u, p_t, b=b)
        gl = solvers.eval_limit(lifted, p_g)
        assert abs(gt - gl) <= 1e-10 * (1.0 + abs(gt))


def test_strain_energy_matches_oracle(mesh2, yeoh):
    rng = np.random.default_rng(6)
    u = DisplacementField.from_nodal(mesh2, rng.standard_normal((mesh2.num_nodes, 3)))
    b = rng.standard_normal(2)
    assert_allclose(strain_energy_quadratic(u, yeoh, mesh2, b=b),
                    quad_energy_oracle(u, yeoh, mesh2, b=b), rtol=1e-12)


@pytest.mark.parametrize("with_shear", [False, True])
def test_strain_hessian_is_twice_the_energy(mesh2, yeoh, with_shear):
    # 0.5 x^T H x is the quadratic energy of x = (u, b); the bilinear form
    # of two fields is its polarization
    rng = np.random.default_rng(11)
    h = assemble_strain_hessian(mesh2, yeoh, with_shear=with_shear)
    n3 = 3 * mesh2.num_nodes
    assert h.shape == (n3 + 2 * with_shear,) * 2
    assert np.abs(h - h.T).max() <= 1e-14 * np.abs(h).max()
    for _ in range(3):
        x1, x2 = rng.standard_normal((2, h.shape[0]))
        b1, b2 = (x[n3:] if with_shear else None for x in (x1, x2))
        u1, u2 = (DisplacementField.from_nodal(mesh2, x[:n3].reshape(-1, 3)) for x in (x1, x2))
        q1 = strain_energy_quadratic(u1, yeoh, mesh2, b=b1)
        assert_allclose(0.5 * x1 @ h @ x1, q1, rtol=1e-12)
        u12 = DisplacementField.from_nodal(mesh2, (x1 + x2)[:n3].reshape(-1, 3))
        b12 = (x1 + x2)[n3:] if with_shear else None
        q12 = strain_energy_quadratic(u12, yeoh, mesh2, b=b12)
        q2 = strain_energy_quadratic(u2, yeoh, mesh2, b=b2)
        assert_allclose(x1 @ h @ x2, q12 - q1 - q2, rtol=1e-10, atol=1e-12 * q12)


def _central_jacobian(fun, y, step):
    """Columns d fun / d y_k by central differences."""
    cols = []
    for k in range(y.size):
        e = np.zeros(y.size)
        e[k] = step
        cols.append((np.asarray(fun(y + e)) - np.asarray(fun(y - e))) / (2.0 * step))
    return np.stack(cols, axis=-1)


@pytest.fixture(scope="module")
def nonlinear_point(mesh2, obstacle2, yeoh, gravity):
    """An assembler on cube 2 at h = 0.2, a deformation 5% off the identity
    and multipliers near the identity pressure."""
    p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=gravity,
                                 obstacle=obstacle2, h=0.2)
    rng = np.random.default_rng(12)
    y = mesh2.nodes.ravel() + 0.05 * rng.standard_normal(3 * mesh2.num_nodes)
    lam = -yeoh.pressure + 0.3 * rng.standard_normal(mesh2.num_elements)
    return solvers._NonlinearAssembler(p), y, lam


def _deviation(mesh, y):
    """Per-element F - I and |F|^2 - 3 of a flat deformation."""
    d_el = mesh.element_gradients(y.reshape(-1, 3) - mesh.nodes)
    return d_el, 2.0 * np.trace(d_el, axis1=1, axis2=2) + (d_el * d_el).sum(axis=(1, 2))


def test_al_gradient_matches_central_differences(nonlinear_point):
    asm, y, lam = nonlinear_point
    kappa = 50.0
    _, grad = asm.al_value_grad(y, lam, kappa)
    fd = _central_jacobian(lambda yy: asm.al_value_grad(yy, lam, kappa)[0], y, 1e-6)
    assert np.abs(grad - fd).max() <= 1e-8 * np.abs(grad).max()


def test_lagrangian_hessian_matches_central_differences(nonlinear_point):
    # the gradient of h^-2 sum vol W + sum nu vol (det - 1) - L/h is the AL
    # gradient with lam = h^2 nu and kappa = 0
    asm, y, lam = nonlinear_point
    h2 = asm.p.h**2
    nu = lam / h2
    d_el, g = _deviation(asm.mesh, y)
    hess = asm.lagrangian_hessian(d_el, g, nu)
    assert np.abs(hess - hess.T).max() <= 1e-12 * np.abs(hess).max()
    fd = _central_jacobian(lambda yy: asm.al_value_grad(yy, lam, 0.0)[1], y, 1e-6)
    assert np.abs(hess - fd).max() <= 1e-8 * np.abs(hess).max()


def test_constraint_jacobian_matches_central_differences(nonlinear_point):
    asm, y, _ = nonlinear_point
    jac = asm.constraint_jacobian(_deviation(asm.mesh, y)[0])
    fd = _central_jacobian(
        lambda yy: asm.vols * det_minus_one_from_deviation(_deviation(asm.mesh, yy)[0]), y, 1e-6)
    assert jac.shape == fd.shape
    assert np.abs(jac - fd).max() <= 1e-8 * np.abs(jac).max()


# ---------------------------------------------------------------------------
# nonlinear problem

def test_nonlinear_zero_load(mesh2, obstacle2, yeoh):
    p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=sl.LoadSpec(),
                                 obstacle=obstacle2, h=0.2)
    res = solvers.minimize_nonlinear(p)
    assert abs(res.objective) < 1e-10
    assert res.residuals["det"] < 1e-6


def test_nonlinear_gravity_between_bounds(mesh2, obstacle2, yeoh, gravity,
                                          limit_gravity):
    res_lim, kernel = limit_gravity
    p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=gravity,
                                 obstacle=obstacle2, h=0.1)
    res = solvers.minimize_nonlinear(p)
    # no better than the identity (value 0), no worse than the limit minus slack
    assert res.objective <= 1e-10
    assert res.objective >= res_lim.objective - 0.05
    assert res.residuals["bound_min"] >= -1e-12
    assert res.residuals["det"] <= 1e-6
    # trace of best objectives is nonincreasing across stages at fixed kappa run
    objs = [t["objective"] for t in res.trace]
    best_so_far = np.minimum.accumulate(objs)
    assert all(b <= o + 1e-12 for b, o in zip(best_so_far, objs))


def _random_start_oracle(p, n_starts=4, seed=0):
    """Best polished value over seeded random starts, each an AL solve plus a
    Newton polish, with the start perturbation the former multistart used."""
    asm = solvers._NonlinearAssembler(p)
    rng = np.random.default_rng(seed)
    bound = obstacle_bound_dofs(p.obstacle)
    best = np.inf
    for _ in range(n_starts):
        y0 = p.mesh.nodes.ravel() + p.h * 0.1 * rng.standard_normal(3 * p.mesh.num_nodes)
        y0[bound] = np.maximum(y0[bound], 0.0)
        y, lam, det_res, _, _ = solvers._al_solve(asm, y0, p)
        value, _ = asm.objective(y)
        polished, _ = solvers._newton_polish(asm, y, lam, p)
        if polished is not None:
            val_pol, det_pol = asm.objective(polished[0])
            if det_pol <= det_res + 1e-12 and polished[0][bound].min() >= -1e-12:
                value, det_res = val_pol, det_pol
        if det_res <= 10.0 * solvers.DET_TARGET:
            best = min(best, value)
    return best


def test_single_path_matches_random_multistart(mesh2, obstacle2, yeoh, gravity):
    # the acceptance h list with the harness's warm chain; the deleted
    # multistart serves as the oracle at every h
    h_list = (0.2, 0.1, 0.05, 0.025)
    warm = None
    for h, h_next in zip(h_list, (*h_list[1:], None)):
        p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=gravity,
                                     obstacle=obstacle2, h=h, warm_start=warm)
        res = solvers.minimize_nonlinear(p)
        assert res.polish == "ok"
        oracle = _random_start_oracle(p)
        assert np.isfinite(oracle)
        assert res.objective <= oracle + 1e-12 * (1.0 + abs(res.objective)), (h, oracle)
        if h_next is not None:
            warm = (mesh2.nodes + (h_next / h) * (res.field.y - mesh2.nodes)).ravel()


def test_newton_finish_reaches_roundoff_determinants_on_the_acceptance_chain(
        mesh2, obstacle2, yeoh, gravity):
    # the finish's roundoff test is on det - 1, not on vol (det - 1): on the
    # latter it stopped this chain at det - 1 = 1.8e-14 (h = 0.1), where one
    # more Newton step reaches roundoff
    h_list = (0.2, 0.1, 0.05, 0.025)
    warm = None
    for h, h_next in zip(h_list, (*h_list[1:], None)):
        p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=gravity,
                                     obstacle=obstacle2, h=h, warm_start=warm)
        res = solvers.minimize_nonlinear(p)
        assert res.polish == "ok", h
        assert res.residuals["det"] <= 1e-15, (h, res.residuals["det"])
        if h_next is not None:
            warm = (mesh2.nodes + (h_next / h) * (res.field.y - mesh2.nodes)).ravel()


@pytest.mark.parametrize("start", ["identity", "warm"])
def test_failed_al_solve_names_its_start(mesh2, obstacle2, yeoh, gravity, monkeypatch, start):
    def fail(asm, y0, problem):
        raise FloatingPointError("inner solve blew up")

    monkeypatch.setattr(solvers, "_al_solve", fail)
    warm = mesh2.nodes.ravel() if start == "warm" else None
    p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=gravity,
                                 obstacle=obstacle2, h=0.2, warm_start=warm)
    message = f"augmented Lagrangian from start {start} failed: inner solve blew up"
    with pytest.raises(solvers.SolveFailure, match=message) as info:
        solvers.minimize_nonlinear(p)
    assert isinstance(info.value.__cause__, FloatingPointError)


POLISH_FAILURES = {"no-convergence", "active-set-cycling", "rejected-det", "rejected-bound"}


def test_newton_polish_outcome_is_named(mesh2, obstacle2, yeoh, gravity):
    p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=gravity,
                                 obstacle=obstacle2, h=0.2)
    res = solvers.minimize_nonlinear(p)
    assert (res.polish == "ok") == ("+newton" in res.termination)
    assert res.polish == "ok" or res.polish in POLISH_FAILURES
    asm = solvers._NonlinearAssembler(p)
    y = mesh2.nodes.ravel().copy()
    lam = np.zeros(mesh2.num_elements)
    assert solvers._newton_polish(asm, y, lam, p, max_rounds=0) == (None, "active-set-cycling")


@pytest.mark.parametrize("h", [1e-3, 1e-4])
def test_newton_polish_converges_at_small_h(mesh2, obstacle2, yeoh, gravity, h):
    # the stationarity rows scale as h^-2 against O(1) constraint rows; an
    # unbalanced KKT matrix loses the constraint directions to the least-squares
    # cutoff and the polish ends with a worse determinant than it started from
    p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=gravity,
                                 obstacle=obstacle2, h=h)
    res = solvers.minimize_nonlinear(p)
    assert res.polish == "ok"
    assert res.residuals["det"] <= 1e-14
    assert res.residuals["bound_min"] >= -1e-12


@pytest.mark.parametrize("reason", ["rejected-det", "rejected-bound"])
def test_discarded_newton_polish_is_named(mesh1, yeoh, gravity, monkeypatch, reason):
    obstacle = sl.extract_obstacle(mesh1)
    p = solvers.NonlinearProblem(mesh=mesh1, material=yeoh, load=gravity,
                                 obstacle=obstacle, h=0.3)
    # a dilation breaks det = 1; a downward translation keeps det = 1 but
    # pushes the contact nodes below the plane
    if reason == "rejected-det":
        y_bad = 1.01 * mesh1.nodes
    else:
        y_bad = mesh1.nodes - [0.0, 0.0, 1e-6]
    monkeypatch.setattr(solvers, "_newton_polish",
                        lambda asm, y, lam, problem: ((y_bad.ravel(), lam), "ok"))
    res = solvers.minimize_nonlinear(p)
    assert res.polish == reason
    assert "+newton" not in res.termination
    assert res.residuals["bound_min"] >= -1e-12 and res.residuals["det"] <= 1e-6


def _tight_al(p):
    """Every AL stage at the configured gtol from the problem's start: the
    reference that the inexact stages and the tail are checked against."""
    asm = solvers._NonlinearAssembler(p)
    y0 = p.mesh.nodes if p.warm_start is None else p.warm_start
    return asm, solvers._al_solve(asm, np.asarray(y0, dtype=float).ravel(), p, tail=True)


def test_failed_finish_resumes_at_the_configured_gtol(mesh2, obstacle2, yeoh, gravity,
                                                      monkeypatch, caplog):
    p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=gravity,
                                 obstacle=obstacle2, h=0.2)
    asm, (y_tight, *_) = _tight_al(p)
    oracle, _ = asm.objective(y_tight)
    monkeypatch.setattr(solvers, "_newton_polish",
                        lambda asm, y, lam, problem: (None, "no-convergence"))
    with caplog.at_level(logging.INFO, logger="signorini_lab.solvers"):
        res = solvers.minimize_nonlinear(p)
    assert res.polish == "no-convergence"
    assert "+newton" not in res.termination
    assert res.residuals["det"] <= solvers.DET_TARGET
    scale = max(1.0, yeoh.c1 / p.h**2)
    assert [t["tail"] for t in res.trace[:p.kappa_stages]] == [False] * p.kappa_stages
    assert res.trace[0]["inner_gtol"] == solvers.DET_TARGET * scale
    assert res.trace[-1]["tail"] and res.trace[-1]["inner_gtol"] == p.gtol * scale
    assert [t["stage"] for t in res.trace] == list(range(len(res.trace)))
    assert res.iterations == sum(t["inner_iterations"] for t in res.trace)
    assert any(r.getMessage().endswith(f"{res.iterations} L-BFGS-B iterations over "
                                       f"{len(res.trace)} stages, tail run")
               for r in caplog.records)
    assert abs(res.objective - oracle) <= 1e-9


def _tight_al_then_finish(p):
    """Oracle of the handover: the tight AL solve, then the Newton finish with
    minimize_nonlinear's acceptance rules. Returns (energy, outcome)."""
    asm, (y, lam, det_res, _, _) = _tight_al(p)
    polished, outcome = solvers._newton_polish(asm, y, lam, p)
    if polished is None:
        return asm.objective(y)[0], outcome
    value, det_pol = asm.objective(polished[0])
    if det_pol > det_res + 1e-12:
        outcome = "rejected-det"
    elif polished[0][obstacle_bound_dofs(p.obstacle)].min() < -1e-12:
        outcome = "rejected-bound"
    return value, outcome


@pytest.mark.parametrize("cube", [2, 3])
def test_inexact_al_hands_over_to_the_same_finish(cube, mesh2, obstacle2, mesh3, obstacle3,
                                                  yeoh, gravity):
    # the acceptance h list with the harness's warm chain; from the same start
    # the inexact AL and the tight one lead the finish to the same energy, up
    # to the nearby KKT points the two iterates select (at most 6.3e-9 here,
    # cube 3 at h = 0.05)
    mesh, obstacle = (mesh2, obstacle2) if cube == 2 else (mesh3, obstacle3)
    h_list = (0.2, 0.1, 0.05, 0.025)
    warm = None
    for h, h_next in zip(h_list, (*h_list[1:], None)):
        p = solvers.NonlinearProblem(mesh=mesh, material=yeoh, load=gravity,
                                     obstacle=obstacle, h=h, warm_start=warm)
        res = solvers.minimize_nonlinear(p)
        oracle, outcome = _tight_al_then_finish(p)
        assert res.polish == "ok" and outcome == "ok", (h, res.polish, outcome)
        assert abs(res.objective - oracle) <= 1e-8 * (1.0 + abs(oracle)), (h, oracle)
        if h_next is not None:
            warm = (mesh.nodes + (h_next / h) * (res.field.y - mesh.nodes)).ravel()


def test_nonlinear_objective_recomputable(mesh2, obstacle2, yeoh, gravity):
    p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=gravity,
                                 obstacle=obstacle2, h=0.2)
    res = solvers.minimize_nonlinear(p)
    value, r = solvers._NonlinearAssembler(p).energy_parts(res.field.y.ravel())
    det_res = float(np.abs(r).max())
    assert abs(value - res.objective) < 1e-10 * (1.0 + abs(res.objective))
    assert_allclose(det_res, res.residuals["det"], rtol=1e-6)


def test_nonlinear_rejects_inadmissible_load(mesh2, obstacle2, yeoh):
    p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh,
                                 load=sl.LoadSpec(f=sl.constant_field([0, 0, 1])),
                                 obstacle=obstacle2, h=0.2)
    with pytest.raises(solvers.SolveFailure, match="admissibility"):
        solvers.minimize_nonlinear(p)


def test_nonlinear_rejects_a_pure_couple(mesh1, yeoh, monkeypatch):
    # f = (0.5 - x2, x1 - 0.5, 0) has zero resultant and torque L(e3 ^ x) = 1/6:
    # it is not the zero load, so the linear-order check runs and fails
    def never(asm, y0, problem):
        raise AssertionError("the augmented-Lagrangian solve ran")

    monkeypatch.setattr(solvers, "_al_solve", never)
    couple = sl.LoadSpec(f=sl.affine_field([[0, -1, 0], [1, 0, 0], [0, 0, 0]], [0.5, -0.5, 0]))
    p = solvers.NonlinearProblem(mesh=mesh1, material=yeoh, load=couple,
                                 obstacle=sl.extract_obstacle(mesh1), h=0.2)
    with pytest.raises(solvers.SolveFailure, match=r"L\(e3 \^ x\)"):
        solvers.minimize_nonlinear(p)


def test_nonlinear_problem_validation(mesh2, obstacle2, yeoh, gravity):
    with pytest.raises(ValueError):
        solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=gravity,
                                 obstacle=obstacle2, h=1.5)
    with pytest.raises(ValueError):
        solvers.QuadraticProblem(mesh=mesh2, material=yeoh, load=gravity,
                                 obstacle=obstacle2, variant=Variant.GI)
