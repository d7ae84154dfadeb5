import logging
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from numpy.testing import assert_allclose

import signorini_lab as sl
from conftest import random_divergence_free
from signorini_lab import solvers
from signorini_lab.geometry import gradient_form, gradient_rows, volume_mass_matrix
from signorini_lab.kinematics import DisplacementField
from signorini_lab.loads import Rotation, load_vector
from signorini_lab.material import (cofactor, det_minus_one_from_deviation, yeoh_curvature,
                                   yeoh_density, yeoh_slope)
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


def test_padded_frame_shares_the_div_frames_range_basis(mesh2):
    # G~'s frame appends two free coordinates to the div frame without a copy
    # of its row-space basis; its particular solution is the div frame's with
    # two zeros appended
    frame = solvers._div_null_space(mesh2)
    padded = frame.padded(2)
    assert padded.range_basis is frame.range_basis
    b_eq = assemble_div_matrix(mesh2) @ np.random.default_rng(3).standard_normal(
        3 * mesh2.num_nodes)
    x = frame.particular(b_eq)
    assert np.abs(x).max() > 0.0
    assert np.array_equal(padded.particular(b_eq), np.concatenate([x, np.zeros(2)]))
    assert np.array_equal(padded.particular(0.0 * b_eq), np.zeros(x.size + 2))


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


# An augmented Lagrangian with L-BFGS-B inner solves: an independent solver
# of the nonlinear problem, the oracle that the Newton finish and its
# h-continuation are checked against. Its stages may stop at this max|Pi(det - 1)|.
AL_DET_TARGET = 1e-6


def _al_value_grad(asm, y, lam, kappa):
    """Augmented Lagrangian of Pi r = 0 with the penalty inside the h^-2
    scaling, the penalized density being W + lam r + (kappa/2) (Pi r)^2. For
    lam in range(Pi), as `_al_oracle` keeps it, lam r integrates to lam Pi r."""
    h = asm.p.h
    d_el, g, r = asm.deviation(y)
    s = asm.project(r)
    density = yeoh_density(g, asm.mat) + lam * r + 0.5 * kappa * s**2
    value = float(asm.vols @ density) / h**2 - float(asm.ell_flat @ (y - asm.x_flat)) / h
    return value, asm.lagrangian_gradient(d_el, g, (lam + kappa * s) / h**2)


def _al_oracle(asm, y0, det_target=AL_DET_TARGET):
    """Augmented-Lagrangian loop on Pi(det - 1) = 0 from y0 around projected
    L-BFGS-B inner solves. The multipliers start at the identity pressure and
    each stage adds kappa Pi r; stage k penalizes with kappa = 100 c1 10**k,
    the third repeated. The loop runs until 3 stages have run and
    max|Pi(det - 1)| <= det_target, or for at most 15 stages; the inner
    tolerance is det_target max(1, c1/h^2). Returns (y, lam)."""
    p = asm.p
    lower = np.full(y0.size, -np.inf)
    lower[obstacle_bound_dofs(p.obstacle)] = 0.0
    bounds = scipy.optimize.Bounds(lower, np.full(y0.size, np.inf))
    lam = solvers._identity_pressure(p)
    y = y0.copy()
    gtol = det_target * max(1.0, p.material.c1 / p.h**2)
    for stage in range(15):
        kappa = 100.0 * p.material.c1 * 10.0**min(stage, 2)
        y = scipy.optimize.minimize(lambda yy: _al_value_grad(asm, yy, lam, kappa), y, jac=True,
                                    method="L-BFGS-B", bounds=bounds,
                                    options={"maxiter": 5000, "ftol": 1e-16, "gtol": gtol,
                                             "maxcor": 30}).x
        s = asm.project(asm.deviation(y)[2])
        lam = lam + kappa * s
        if stage >= 2 and np.abs(s).max() <= det_target:
            break
    return y, lam


def test_al_gradient_matches_central_differences(nonlinear_point):
    asm, y, lam = nonlinear_point
    kappa = 50.0
    _, grad = _al_value_grad(asm, y, lam, kappa)
    fd = _central_jacobian(lambda yy: _al_value_grad(asm, yy, lam, kappa)[0], y, 1e-6)
    assert np.abs(grad - fd).max() <= 1e-8 * np.abs(grad).max()


def test_kkt_hessian_block_matches_central_differences(nonlinear_point):
    # the gradient of h^-2 sum vol W + sum nu vol (det - 1) - L/h is the AL
    # oracle's gradient with lam = h^2 nu and kappa = 0; with every dof free the KKT
    # matrix's leading block is h^2 times its Hessian
    asm, y, lam = nonlinear_point
    h2 = asm.p.h**2
    nu = lam / h2
    d_el, g = _deviation(asm.mesh, y)
    n = y.size
    hess = asm.kkt_matrix(y, d_el, g, nu, np.arange(n))[:n, :n] / h2
    assert np.abs(hess - hess.T).max() <= 1e-12 * np.abs(hess).max()
    fd = _central_jacobian(lambda yy: _al_value_grad(asm, yy, lam, 0.0)[1], y, 1e-6)
    assert np.abs(hess - fd).max() <= 1e-8 * np.abs(hess).max()


def test_kkt_constraint_block_matches_central_differences(nonlinear_point):
    # with every dof free the KKT matrix's constraint rows are Q^T J, the
    # Jacobian of c(y) = Q^T V (det - 1)
    asm, y, lam = nonlinear_point
    d_el, g = _deviation(asm.mesh, y)
    n, m = y.size, asm.q.shape[1]
    jac = asm.kkt_matrix(y, d_el, g, lam / asm.p.h**2, np.arange(n))[n:n + m, :n].copy()
    fd = _central_jacobian(
        lambda yy: asm.q.T @ (asm.vols * det_minus_one_from_deviation(_deviation(asm.mesh, yy)[0])),
        y, 1e-6)
    assert jac.shape == fd.shape
    assert np.abs(jac - fd).max() <= 1e-8 * np.abs(jac).max()


def _dense_hessian(asm, d_el, g, nu):
    """Oracle of the Lagrangian Hessian: dense D^T blockdiag(h9_e) D by
    `gradient_form`, h9_e the 9x9 Hessian in F of h^-2 vol W + nu vol (det - 1)."""
    m = d_el.shape[0]
    vec_f = (d_el + np.eye(3)).reshape(m, 9)
    hw = (2.0 * yeoh_slope(g, asm.mat)[:, None, None] * np.eye(9)
          + 4.0 * yeoh_curvature(g, asm.mat)[:, None, None] * vec_f[:, :, None] * vec_f[:, None, :])
    hdet = (vec_f @ solvers._DET_HESS.T).reshape(m, 9, 9)
    h9 = (asm.vols / asm.p.h**2)[:, None, None] * hw + (nu * asm.vols)[:, None, None] * hdet
    return gradient_form(asm.mesh, h9)


def _oracle_kkt_blocks(asm, d_el, g, nu, free):
    """Oracle of the finish's unbordered KKT blocks (h^2 H_ff, Q^T J_f): the
    dense Hessian's free block by `np.ix_`, and Q^T times the dense Jacobian
    blockdiag(vol_e vec(cof F_e)^T) D of `gradient_rows` on the free columns."""
    jac = gradient_rows(asm.mesh, asm.vols[:, None] * cofactor(d_el + np.eye(3)).reshape(-1, 9))
    return (asm.p.h**2 * _dense_hessian(asm, d_el, g, nu)[np.ix_(free, free)],
            asm.q.T @ jac[:, free])


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
    # a finished KKT point meets the projected constraint to roundoff
    assert res.residuals["det_projected"] <= 1e-14, res.residuals


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
        y, lam = _al_oracle(asm, y0)
        y_pol = solvers._newton_polish(asm, y, lam)[0]
        if y_pol is not None and y_pol[bound].min() >= -1e-12:
            y = y_pol
        # the AL's stopping residual, max|Pi(det - 1)|
        value, r = asm.energy_parts(y)
        if np.abs(asm.project(r)).max() <= 10.0 * AL_DET_TARGET:
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
        assert "+newton" in res.termination
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
        assert "+newton" in res.termination, h
        assert res.residuals["det"] <= 1e-15, (h, res.residuals["det"])
        if h_next is not None:
            warm = (mesh2.nodes + (h_next / h) * (res.field.y - mesh2.nodes)).ravel()


@pytest.fixture(scope="module")
def heavy():
    """Gravity a hundred times the flagship's: at h >= 0.25 on cube 2 the
    finish does not converge from the identity, and the continuation runs."""
    return sl.LoadSpec(f=sl.constant_field([0.0, 0.0, -100.0]))


POLISH_FAILURES = {"no-convergence", "active-set-cycling", "singular-kkt"}


def _gelsy_step(asm, d_el, g, nu, free, r1, c):
    """Oracle of the finish's step: the minimum-norm least-squares solution of
    the unbordered KKT system [[h^2 H_ff, (Q^T J_f)^T], [Q^T J_f, 0]] by
    gelsy's pivoted QR with relative singular values below 1e-10 dropped, as
    the finish solved it before the flat motions were bordered."""
    h2 = asm.p.h**2
    hff, jac = _oracle_kkt_blocks(asm, d_el, g, nu, free)
    nf, m = free.size, c.size
    kkt = np.zeros((nf + m, nf + m))
    kkt[:nf, :nf] = hff
    kkt[:nf, nf:] = jac.T
    kkt[nf:, :nf] = jac
    step = scipy.linalg.lstsq(kkt, -np.concatenate([h2 * r1, c]), cond=1e-10,
                              lapack_driver="gelsy")[0]
    return step[:nf], step[nf:]


@pytest.mark.parametrize("load", ["gravity", "identity-only"])
def test_bordered_newton_step_is_the_minimum_norm_step(load, mesh2, obstacle2, yeoh, gravity,
                                                       identity_only_load):
    # the border holds exactly the flat motions: three under gravity (the
    # horizontal translations and the rotation about e3), two under the
    # identity-only load at the acceptance chain's h = 0.1 start (the h = 0.2
    # minimizer rescaled), where its horizontal part makes that rotation a
    # genuine mode, and three at the stress-free identity under either load
    f = gravity if load == "gravity" else identity_only_load
    first = solvers.minimize_nonlinear(solvers.NonlinearProblem(
        mesh=mesh2, material=yeoh, load=f, obstacle=obstacle2, h=0.2))
    bound = obstacle_bound_dofs(obstacle2)
    for h, y in ((0.2, mesh2.nodes.ravel().copy()),
                 (0.1, (mesh2.nodes + 0.5 * (first.field.y - mesh2.nodes)).ravel())):
        p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=f, obstacle=obstacle2, h=h)
        asm = solvers._NonlinearAssembler(p)
        assert asm.load_vertical == (load == "gravity")
        nu = solvers._identity_pressure(p) / h**2
        free = np.setdiff1d(np.arange(y.size), bound[y[bound] <= 1e-8])
        d_el, g, r = asm.deviation(y)
        r1 = asm.lagrangian_gradient(d_el, g, nu)[free]
        c = asm.q.T @ (asm.vols * r)
        step = np.concatenate(asm.newton_step(y, d_el, g, nu, free, r1, c))
        oracle = np.concatenate(_gelsy_step(asm, d_el, g, nu, free, r1, c))
        err = np.linalg.norm(step - oracle) / np.linalg.norm(oracle)
        assert err <= 1e-10, (h, err)


@pytest.mark.parametrize("cube", [2, 3])
@pytest.mark.parametrize("load", ["gravity", "identity-only"])
def test_kkt_matrix_matches_the_dense_oracle(cube, load, request, yeoh, gravity,
                                             identity_only_load):
    # the element blocks scattered in place against the dense products, block
    # by block, at a stressed iterate with half the bound dofs freed: under
    # gravity the border has 3 columns, under the identity-only load 2
    mesh = request.getfixturevalue(f"mesh{cube}")
    obstacle = request.getfixturevalue(f"obstacle{cube}")
    f = gravity if load == "gravity" else identity_only_load
    p = solvers.NonlinearProblem(mesh=mesh, material=yeoh, load=f, obstacle=obstacle, h=0.2)
    asm = solvers._NonlinearAssembler(p)
    rng = np.random.default_rng(cube)
    y = mesh.nodes.ravel() + 0.02 * rng.standard_normal(3 * mesh.num_nodes)
    nu = solvers._identity_pressure(p) / p.h**2 + rng.standard_normal(mesh.num_elements)
    free = np.setdiff1d(np.arange(y.size), obstacle_bound_dofs(obstacle)[::2])
    d_el, g, _ = asm.deviation(y)
    kkt = asm.kkt_matrix(y, d_el, g, nu, free).copy()
    hff, jac = _oracle_kkt_blocks(asm, d_el, g, nu, free)
    nf, m, nb = free.size, asm.q.shape[1], 3 if load == "gravity" else 2
    assert kkt.shape == (nf + m + nb,) * 2
    for block, want in ((kkt[:nf, :nf], hff), (kkt[nf:nf + m, :nf], jac),
                        (kkt[:nf, nf:nf + m], jac.T)):
        assert np.abs(block - want).max() <= 1e-13 * np.abs(want).max()
    border = np.zeros((y.size, 3))
    border[0::3, 0] = border[1::3, 1] = 1.0
    border[0::3, 2], border[1::3, 2] = -y[1::3], y[0::3]
    assert np.array_equal(kkt[:nf, nf + m:], border[free, :nb])
    assert np.array_equal(kkt[nf + m:, :nf], border[free, :nb].T)
    assert not kkt[nf:, nf:].any()


def test_kkt_workspace_keeps_no_state_between_steps(yeoh, identity_only_load):
    # a large KKT (the stress-free identity, 3 border columns) and then a
    # smaller one (a stressed iterate under the identity-only load, 2 border
    # columns, 5 more dofs fixed) on one mesh give, bit for bit, the step of a
    # fresh mesh; so do two assemblers at different h interleaved on one mesh
    def assembler(mesh, h):
        return solvers._NonlinearAssembler(solvers.NonlinearProblem(
            mesh=mesh, material=yeoh, load=identity_only_load,
            obstacle=sl.extract_obstacle(mesh), h=h))

    def step(asm, stressed):
        p = asm.p
        bound = obstacle_bound_dofs(p.obstacle)
        y = p.mesh.nodes.ravel().copy()
        free = np.setdiff1d(np.arange(y.size), bound)
        if stressed:
            y[free] += 0.01 * np.random.default_rng(5).standard_normal(free.size)
            free = free[5:]
        nu = solvers._identity_pressure(p) / p.h**2
        d_el, g, r = asm.deviation(y)
        r1 = asm.lagrangian_gradient(d_el, g, nu)[free]
        out = asm.newton_step(y, d_el, g, nu, free, r1, asm.q.T @ (asm.vols * r))
        assert out is not None
        return np.concatenate(out)

    fresh = {h: step(assembler(sl.build_box_mesh(2), h), True) for h in (0.2, 0.1)}
    mesh = sl.build_box_mesh(2)
    asm = assembler(mesh, 0.2)
    step(asm, False)
    assert np.array_equal(step(asm, True), fresh[0.2])
    a, b = assembler(mesh, 0.2), assembler(mesh, 0.1)
    step(b, False)
    assert np.array_equal(step(a, True), fresh[0.2])
    assert np.array_equal(step(b, True), fresh[0.1])
    step(a, False)
    assert np.array_equal(step(a, True), fresh[0.2])


def test_every_finish_factorization_works_in_the_workspace(mesh3, obstacle3, yeoh, gravity,
                                                           monkeypatch):
    # over the cube-3 acceptance chain every LU factors a view of its
    # assembler's workspace, in place: no step allocates its KKT matrix. The
    # chain takes 4 + 3 + 3 + 3 Newton steps, and the confirming step of each
    # h reuses the factors of the step before it: 9 LU factorizations
    made, in_place = [], []

    class Recording(solvers._NonlinearAssembler):
        def __init__(self, problem):
            super().__init__(problem)
            made.append(self)

    lu_factor = scipy.linalg.lu_factor

    def checked(a, **kwargs):
        lu = lu_factor(a, **kwargs)
        in_place.append(np.shares_memory(a, made[-1].workspace)
                        and np.shares_memory(lu[0], a))
        return lu

    monkeypatch.setattr(solvers, "_NonlinearAssembler", Recording)
    monkeypatch.setattr(solvers.scipy.linalg, "lu_factor", checked)
    h_list = (0.2, 0.1, 0.05, 0.025)
    warm, steps = None, []
    for h, h_next in zip(h_list, (*h_list[1:], None)):
        res = solvers.minimize_nonlinear(solvers.NonlinearProblem(
            mesh=mesh3, material=yeoh, load=gravity, obstacle=obstacle3, h=h, warm_start=warm))
        assert res.termination.startswith("direct"), h
        steps.append(res.iterations)
        if h_next is not None:
            warm = (mesh3.nodes + (h_next / h) * (res.field.y - mesh3.nodes)).ravel()
    assert len(made) == len(h_list)
    assert steps == [4, 3, 3, 3]
    assert len(in_place) == 9 and all(in_place), in_place


def _record_newton_steps(monkeypatch):
    """(assembler, free dofs, chord) of every Newton step, recorded through
    monkeypatch, with `plant(step, free, chord)` applied to each step's result."""
    seen, newton_step = [], solvers._NonlinearAssembler.newton_step

    def recording(self, y, d_el, g, nu, free, r1, c, chord=False):
        seen.append((self, free.tobytes(), bool(chord)))
        step = newton_step(self, y, d_el, g, nu, free, r1, c, chord)
        return recording.plant(step, free, bool(chord))

    recording.plant = lambda step, free, chord: step
    monkeypatch.setattr(solvers._NonlinearAssembler, "newton_step", recording)
    return seen, recording


def _chords_follow_their_factorization(seen):
    """Whether every chord step comes right after a factored step of the same
    assembler on the same free dofs."""
    return all(not cur[2] or (prev[:2] == cur[:2] and not prev[2])
               for prev, cur in zip([(None, None, True)] + seen, seen))


def test_no_factorization_crosses_a_round_or_an_h(mesh2, obstacle2, yeoh, monkeypatch):
    seen, _ = _record_newton_steps(monkeypatch)
    # under the zero load every h's one round starts converged at the
    # identity, before that round has factored anything: its one step factors
    zero = sl.LoadSpec()
    warm = None
    for h in (0.3, 0.15):
        res = solvers.minimize_nonlinear(solvers.NonlinearProblem(
            mesh=mesh2, material=yeoh, load=zero, obstacle=obstacle2, h=h, warm_start=warm))
        assert res.termination == f"direct({'warm' if warm is not None else 'identity'})+newton"
        warm = res.field.y.ravel()
    assert [chord for *_, chord in seen] == [False, False]
    assert seen[0][0] is not seen[1][0]
    # a load that lifts the x1 = 0 side, scaled so that round 1 ends with one
    # bound multiplier at -3.1e-8, below the -1e-8 that drops the bound, and
    # round 2 starts within its stationarity tolerance 1e-11 h^-2 = 1e-7: it
    # factors afresh instead of reusing round 1's factors, and is done in one step
    seen.clear()
    lift = _affine_load(4e-8 * np.array(CYCLING))
    p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=lift, obstacle=obstacle2, h=0.01)
    y, outcome, steps, _ = solvers._newton_polish(solvers._NonlinearAssembler(p),
                                                  mesh2.nodes.ravel().copy(),
                                                  solvers._identity_pressure(p))
    assert (outcome, steps) == ("ok", 3)
    assert [chord for *_, chord in seen] == [False, True, False]
    (_, round_1, _), _, (_, round_2, _) = seen
    assert np.frombuffer(round_2, dtype=int).size == np.frombuffer(round_1, dtype=int).size + 1
    assert _chords_follow_their_factorization(seen)


def test_confirming_step_that_misses_the_tolerance_is_followed_by_a_factorization(
        mesh2, obstacle2, yeoh, gravity, monkeypatch):
    # the first chord step is planted 1e-6 off in every free vertical dof
    # (not a flat motion, which the finish would keep): the iterate it
    # reaches misses the tolerance, so the next step factors afresh, and the
    # finish then confirms with a chord step on those new factors, at the
    # unplanted finish's point
    p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=gravity, obstacle=obstacle2,
                                 h=0.2)

    def polish():
        return solvers._newton_polish(solvers._NonlinearAssembler(p), mesh2.nodes.ravel().copy(),
                                      solvers._identity_pressure(p))

    seen, recording = _record_newton_steps(monkeypatch)
    y_clean, outcome, steps, _ = polish()
    assert (outcome, steps) == ("ok", 4)
    assert [chord for *_, chord in seen] == [False, False, False, True]

    planted = []

    def plant(step, free, chord):
        if chord and not planted:
            planted.append(step)
            return step[0] + 1e-6 * (free % 3 == 2), step[1]
        return step

    seen.clear()
    recording.plant = plant
    y, outcome, steps, _ = polish()
    assert planted and (outcome, steps) == ("ok", 6)
    assert [chord for *_, chord in seen] == [False, False, False, True, False, True]
    assert _chords_follow_their_factorization(seen)
    assert np.abs(y - y_clean).max() <= 1e-12


def test_newton_finish_never_drifts_along_a_flat_motion(mesh3, obstacle3, yeoh, gravity):
    # the acceptance chain on cube 3: the finished displacement carries no
    # rotation about e3 and no horizontal translation beyond roundoff. The
    # least-squares step took residual noise along the rotation, which left a
    # relative moment of up to 1e-10 on this chain
    h_list = (0.2, 0.1, 0.05, 0.025)
    x = mesh3.nodes
    warm = None
    for h, h_next in zip(h_list, (*h_list[1:], None)):
        res = solvers.minimize_nonlinear(solvers.NonlinearProblem(
            mesh=mesh3, material=yeoh, load=gravity, obstacle=obstacle3, h=h, warm_start=warm))
        u = res.field.y - x
        size = np.abs(u).sum()
        moment = (x[:, 0] * u[:, 1] - x[:, 1] * u[:, 0]).sum() / size
        assert abs(moment) <= 1e-14, (h, moment)
        assert np.abs(u[:, :2].sum(axis=0)).max() / size <= 1e-13, h
        if h_next is not None:
            warm = (x + (h_next / h) * u).ravel()


def test_newton_polish_outcome_is_named(mesh2, obstacle2, yeoh, gravity, monkeypatch):
    p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=gravity,
                                 obstacle=obstacle2, h=0.2)
    res = solvers.minimize_nonlinear(p)
    assert "+newton" in res.termination
    asm = solvers._NonlinearAssembler(p)
    y = mesh2.nodes.ravel().copy()
    lam = np.zeros(mesh2.num_elements)
    monkeypatch.setattr(solvers, "NEWTON_ROUNDS", 0)
    assert solvers._newton_polish(asm, y, lam)[:2] == (None, "active-set-cycling")


def _spy_finishes(monkeypatch):
    """(outcome, active bounds at the start, active bounds at the end or None)
    of every `_newton_polish` call, a bound counted active at or below the
    finish's own 1e-8."""
    finish, seen = solvers._newton_polish, []

    def spy(asm, y, lam):
        bounds = obstacle_bound_dofs(asm.p.obstacle)
        out = finish(asm, y, lam)
        seen.append((out[1], int(np.count_nonzero(y[bounds] <= 1e-8)),
                     None if out[0] is None else int(np.count_nonzero(out[0][bounds] <= 1e-8))))
        return out

    monkeypatch.setattr(solvers, "_newton_polish", spy)
    return seen


def _affine_load(values):
    values = np.asarray(values, dtype=float)
    return sl.LoadSpec(f=sl.affine_field(values[:9].reshape(3, 3), values[9:]))


def test_finish_drops_and_adds_bounds(mesh3, obstacle3, yeoh, monkeypatch):
    # f = (0, 0, -1.8 x1 - 0.1) tips the body toward x1 = 1: from the
    # identity at h = 0.5 one of the 16 bounds lets go, and the warm finish
    # at h = 0.2 takes it back; both on their direct try
    seen = _spy_finishes(monkeypatch)
    load = _affine_load([0, 0, 0, 0, 0, 0, -1.8, 0, 0, 0, 0, -0.1])
    warm = None
    for h in (0.5, 0.2):
        res = solvers.minimize_nonlinear(solvers.NonlinearProblem(
            mesh=mesh3, material=yeoh, load=load, obstacle=obstacle3, h=h, warm_start=warm))
        assert res.termination.startswith("direct"), h
        warm = (mesh3.nodes + (0.2 / h) * (res.field.y - mesh3.nodes)).ravel()
    assert seen == [("ok", 16, 15), ("ok", 15, 16)]


CYCLING = [0, 0, 0, 0, 0, 0, -3, 0, 0, 0, 0, 0.5]


def _al_oracle_then_finish(p):
    """Oracle of a heavy solve: the AL oracle from the identity, then the
    Newton finish from its iterate. Returns (energy, outcome)."""
    asm = solvers._NonlinearAssembler(p)
    y, lam = _al_oracle(asm, p.mesh.nodes.ravel().copy())
    y_fin, outcome, *_ = solvers._newton_polish(asm, y, lam)
    return asm.energy_parts(y if y_fin is None else y_fin)[0], outcome


def test_finish_that_cycles_is_continued(mesh2, obstacle2, yeoh, monkeypatch):
    # f = (0, 0, 0.5 - 3 x1) lifts the x1 = 0 side: from the identity the
    # active set does not settle within NEWTON_ROUNDS updates, and the
    # continuation's last try finishes with 6 bounds active, at the AL
    # oracle's value
    seen = _spy_finishes(monkeypatch)
    p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=_affine_load(CYCLING),
                                 obstacle=obstacle2, h=0.5)
    res = solvers.minimize_nonlinear(p)
    assert seen[0] == ("active-set-cycling", 9, None)
    assert seen[-1][0] == "ok" and seen[-1][2] == 6, seen
    assert res.termination.startswith("continuation(identity)+newton")
    assert res.active_nodes.size == 6
    assert [t["outcome"] for t in res.trace] == [outcome for outcome, *_ in seen]
    oracle, outcome = _al_oracle_then_finish(p)
    assert outcome == "ok"
    assert abs(res.objective - oracle) <= 1e-12 * (1.0 + abs(oracle)), oracle


@pytest.mark.parametrize("case", ["zero-pivot", "non-finite-step"])
def test_singular_bordered_kkt_ends_the_finish_by_name(case, mesh2, obstacle2, yeoh, gravity,
                                                       monkeypatch):
    # a singular bordered KKT, as when no bound is active and the vertical
    # translation is flat too. Vanishing element Jacobian rows leave exact
    # zero rows, whose zero pivot lu_factor warns of; element Hessians of NaNs
    # give a step that is not finite, on which numpy would warn. Either ends
    # the try by name, and no warning escapes
    asm_cls = solvers._NonlinearAssembler
    if case == "zero-pivot":
        jacobians = asm_cls.element_jacobians
        monkeypatch.setattr(asm_cls, "element_jacobians",
                            lambda self, d_el: 0.0 * jacobians(self, d_el))
    else:
        hessians = asm_cls.element_hessians
        monkeypatch.setattr(asm_cls, "element_hessians",
                            lambda self, *args: np.full_like(hessians(self, *args), np.nan))
    p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=gravity,
                                 obstacle=obstacle2, h=0.2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = solvers._newton_polish(solvers._NonlinearAssembler(p),
                                        mesh2.nodes.ravel().copy(),
                                        solvers._identity_pressure(p))
    assert result[:3] == (None, "singular-kkt", 0)
    assert caught == []


@pytest.mark.parametrize("h", [1e-3, 1e-4])
def test_newton_polish_converges_at_small_h(mesh2, obstacle2, yeoh, gravity, h):
    # the stationarity rows scale as h^-2 against O(1) constraint rows; an
    # unbalanced KKT matrix loses the constraint directions to the least-squares
    # cutoff and the polish ends with a worse determinant than it started from
    p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=gravity,
                                 obstacle=obstacle2, h=h)
    res = solvers.minimize_nonlinear(p)
    assert "+newton" in res.termination
    assert res.residuals["det"] <= 1e-14
    assert res.residuals["bound_min"] >= -1e-12


@pytest.mark.parametrize("outcome", sorted(POLISH_FAILURES))
def test_failed_finish_raises_by_name(mesh2, obstacle2, yeoh, gravity, monkeypatch, outcome):
    # a finish that always fails: the continuation halves h down to
    # MIN_H_STEP and stops there, naming the last try's outcome and its h
    p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=gravity,
                                 obstacle=obstacle2, h=0.2)
    tries = []

    def fail(asm, y, lam):
        tries.append(asm.p.h)
        return None, outcome, 20, 9.2e-7

    monkeypatch.setattr(solvers, "_newton_polish", fail)
    message = (f"newton finish at h=0.2 from start identity: {outcome} after 20 steps "
               r"at h=0\.0001953125, \|Pi\(det - 1\)\| 9\.2e-07$")
    with pytest.raises(solvers.SolveFailure, match=message):
        solvers.minimize_nonlinear(p)
    assert 1 < len(tries) <= math.ceil(math.log2(0.2 / solvers.MIN_H_STEP)) + 1
    assert tries == [0.2 / 2**k for k in range(len(tries))]
    assert tries[-1] >= solvers.MIN_H_STEP > tries[-1] / 2


def test_continuation_gives_up_below_the_smallest_step(mesh2, obstacle2, yeoh, gravity,
                                                       monkeypatch):
    # a finish that is ok only at h <= 0.05: the march from 0.05 halves its
    # step after each failure and stops before a step below MIN_H_STEP; the
    # failure names the warm start
    p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=gravity,
                                 obstacle=obstacle2, h=0.2, warm_start=mesh2.nodes.ravel())
    tries = []

    def finish(asm, y, lam):
        tries.append(asm.p.h)
        if asm.p.h <= 0.05:
            return y.copy(), "ok", 1, 0.0
        return None, "no-convergence", 20, 1e-3

    monkeypatch.setattr(solvers, "_newton_polish", finish)
    with pytest.raises(solvers.SolveFailure,
                       match="h=0.2 from start warm: no-convergence after 20 steps"):
        solvers.minimize_nonlinear(p)
    steps = [0.05 / 2**k for k in range(9)]
    assert steps[-1] >= solvers.MIN_H_STEP > steps[-1] / 2
    assert tries == [0.2, 0.1, 0.05, *(0.05 + step for step in steps)]


@pytest.mark.parametrize("h", [0.5, 0.6])
def test_continuation_reaches_the_al_oracle(mesh2, obstacle2, yeoh, heavy, caplog, h):
    # a heavy load at a large h: the finish does not converge from the
    # identity, and the continuation reaches the value that the AL oracle
    # and a finish reach from the same start
    p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=heavy, obstacle=obstacle2, h=h)
    with caplog.at_level(logging.INFO, logger="signorini_lab.solvers"):
        res = solvers.minimize_nonlinear(p)
    oracle, outcome = _al_oracle_then_finish(p)
    assert outcome == "ok"
    assert abs(res.objective - oracle) <= 1e-12 * (1.0 + abs(oracle)), oracle
    assert res.termination == "continuation(identity)+newton"
    # the trace: the failed direct try, the halving to an ok try, and the
    # march back, the last try ok at the target
    assert res.trace[0]["h"] == h and res.trace[0]["outcome"] != "ok"
    assert res.trace[-1] == {"h": h, "outcome": "ok", "steps": res.trace[-1]["steps"]}
    assert all(0.0 < t["h"] <= h for t in res.trace)
    assert res.iterations == sum(t["steps"] for t in res.trace) > 0
    polish = [m.getMessage() for m in caplog.records if "newton polish" in m.getMessage()]
    assert len(polish) == len(res.trace)
    assert [m.split(", ")[2] for m in polish] == [
        "direct", *[f"continuation to h={h:g}"] * (len(polish) - 1)]
    assert [m.rsplit(": ", 1)[1] for m in polish] == [t["outcome"] for t in res.trace]


def test_heavy_load_keeps_the_upright_branch(mesh3, obstacle3, yeoh):
    # cube 3 under 500 times gravity at h = 0.5: the continuation reaches the
    # upright local minimizer, where the AL fallback it replaces returned a
    # body flipped upside down (tilt 3.13)
    p = solvers.NonlinearProblem(mesh=mesh3, material=yeoh,
                                 load=sl.LoadSpec(f=sl.constant_field([0.0, 0.0, -500.0])),
                                 obstacle=obstacle3, h=0.5)
    res = solvers.minimize_nonlinear(p)
    assert res.termination.startswith("continuation(identity)+newton")
    rot = sl.kinematics.optimal_rotation(res.field, mesh3)
    assert np.arccos(np.clip(rot.matrix[2, 2], -1.0, 1.0)) < 0.5 * np.pi, rot.angle


@pytest.fixture(scope="module")
def perturbed_cube3(tmp_path_factory, mesh3):
    """Mesh file of cube 3 with its 8 interior nodes moved by up to 1e-3 of a
    cell (uniform, seed 0): B loses its clean rank gap."""
    nodes = mesh3.nodes.copy()
    interior = np.all((nodes > 1e-12) & (nodes < 1.0 - 1e-12), axis=1)
    nodes[interior] += np.random.default_rng(0).uniform(-1e-3 / 3, 1e-3 / 3,
                                                        (int(interior.sum()), 3))
    rows = [f"nodes {len(nodes)}", *(" ".join(f"{v:.17g}" for v in p) for p in nodes),
            f"tets {mesh3.num_elements}", *(" ".join(map(str, t)) for t in mesh3.tets)]
    path = tmp_path_factory.mktemp("mesh") / "cube3-perturbed.mesh"
    path.write_text("\n".join(rows) + "\n")
    return path


def test_finish_on_a_perturbed_mesh_fails_by_name(perturbed_cube3, yeoh, gravity, tmp_path):
    # the finish does not converge where B has no clean rank gap; it raises
    # rather than hand back an unfinished AL iterate, and the sweep records
    # the failure instead of a verdict PASS on flagged records
    mesh = sl.read_mesh_file(perturbed_cube3)
    p = solvers.NonlinearProblem(mesh=mesh, material=yeoh, load=gravity,
                                 obstacle=sl.extract_obstacle(mesh), h=0.2)
    with pytest.raises(solvers.SolveFailure, match="no-convergence"):
        solvers.minimize_nonlinear(p)
    cfg = sl.harness.parse_config("\n".join([
        f"domain mesh {perturbed_cube3.as_posix()}", "material yeoh 1.0 0.2 0.1",
        "penalty 100 10 3", "f constant 0 0 -1", "h_list 0.2 0.1", "solver 5000 1e-8",
        f"output {(tmp_path / 'out').as_posix()}", "seed 1234"]))
    report = sl.harness.run_experiment(cfg)
    assert not report.verdict
    assert all(r.termination.startswith("failed: newton finish") for r in report.records)


def _tight_al(p):
    """The AL oracle's full schedule with the feasibility target and its inner
    tolerance at 1e-8, from the problem's start: the reference that the
    direct finish is checked against."""
    asm = solvers._NonlinearAssembler(p)
    y0 = p.mesh.nodes if p.warm_start is None else p.warm_start
    return asm, _al_oracle(asm, np.asarray(y0, dtype=float).ravel(), det_target=1e-8)


def _tight_al_then_finish(p):
    """Oracle of the finish: the tight AL solve, then the Newton finish.
    Returns (energy, outcome)."""
    asm, (y, lam) = _tight_al(p)
    y_pol, outcome, *_ = solvers._newton_polish(asm, y, lam)
    return asm.energy_parts(y if y_pol is None else y_pol)[0], outcome


@pytest.mark.parametrize("cube, load", [
    pytest.param(2, "gravity", id="2"), pytest.param(3, "gravity", id="3"),
    pytest.param(4, "gravity", id="4"), pytest.param(2, "identity-only", id="2-identity-only"),
    pytest.param(3, "identity-only", id="3-identity-only"),
    *(pytest.param(2, name, id=f"2-{name}")
      for name in ("bottom-weighted", "tilted", "surface", "mixed"))])
def test_inexact_al_hands_over_to_the_same_finish(cube, load, mesh2, obstacle2, mesh3, obstacle3,
                                                  yeoh, test_loads):
    # the acceptance h list with the harness's warm chain; the finish converges
    # from the start itself at every h, with no AL stage, and reaches the
    # energy that the tight AL leads it to from the same start: the projected
    # constraint has full rank, so the KKT point is isolated, and a direct
    # finish that stopped at a saddle would miss the oracle. Every admissible
    # test load is checked on cube 2
    if cube == 4:
        mesh = sl.build_box_mesh(4)
        obstacle = sl.extract_obstacle(mesh)
    else:
        mesh, obstacle = (mesh2, obstacle2) if cube == 2 else (mesh3, obstacle3)
    f = dict(zip(("gravity", "bottom-weighted", "identity-only", "tilted", "surface", "mixed"),
                 test_loads, strict=True))[load]
    h_list = (0.2, 0.1, 0.05, 0.025)
    warm = None
    for h, h_next in zip(h_list, (*h_list[1:], None)):
        p = solvers.NonlinearProblem(mesh=mesh, material=yeoh, load=f,
                                     obstacle=obstacle, h=h, warm_start=warm)
        res = solvers.minimize_nonlinear(p)
        assert res.trace == [] and res.iterations > 0, (h, res.trace)
        oracle, outcome = _tight_al_then_finish(p)
        assert res.termination.startswith("direct(") and res.termination.endswith("+newton")
        assert outcome == "ok", (h, outcome)
        assert abs(res.objective - oracle) <= 1e-12 * (1.0 + abs(oracle)), (h, oracle)
        if h_next is not None:
            warm = (mesh.nodes + (h_next / h) * (res.field.y - mesh.nodes)).ravel()


def test_gamma_limit_gap_has_no_offset_on_cube3(tmp_path):
    # gap(h) = inf G_h - min G~ must vanish as h -> 0 on a fixed mesh: the
    # projected constraint linearizes to the limit QPs' B u = 0. det = 1 in
    # every element also imposed the checkerboard rows of B, which left an
    # offset b = +9.35e-6 in the quadratic fit on this sweep
    cfg = sl.harness.parse_config("\n".join([
        "domain cube 3", "material yeoh 1.0 0.2 0.1", "penalty 100 10 3",
        "f constant 0 0 -1", "h_list 0.2 0.1 0.05 0.025", "solver 5000 1e-8",
        f"output {(tmp_path / 'out').as_posix()}", "seed 1234"]))
    report = sl.harness.run_experiment(cfg)
    hs = np.array([r.h for r in report.records])
    gaps = np.array([r.gap for r in report.records])
    c, a, b = np.polyfit(hs, gaps, 2)
    assert abs(b) <= 1e-6, (b, a, c)


@pytest.mark.parametrize("case", ["cube1-gravity", "cube2-identity-only", "cube3-identity-only",
                                  "cube3-gravity-tiny-h"])
def test_newton_finish_on_degenerate_cases(case, mesh1, mesh2, mesh3, yeoh, gravity,
                                           identity_only_load):
    # a coarse mesh, a kernel that is only the identity, and a tiny h: the
    # finish reaches the projected constraint to roundoff from a cold start
    mesh, load, h = {"cube1-gravity": (mesh1, gravity, 0.3),
                     "cube2-identity-only": (mesh2, identity_only_load, 0.2),
                     "cube3-identity-only": (mesh3, identity_only_load, 0.1),
                     "cube3-gravity-tiny-h": (mesh3, gravity, 1e-3)}[case]
    p = solvers.NonlinearProblem(mesh=mesh, material=yeoh, load=load,
                                 obstacle=sl.extract_obstacle(mesh), h=h)
    res = solvers.minimize_nonlinear(p)
    assert "+newton" in res.termination, res.termination
    assert res.residuals["det_projected"] <= 1e-14, res.residuals
    assert res.residuals["bound_min"] >= -1e-12


def test_nonlinear_objective_recomputable(mesh2, obstacle2, yeoh, gravity, caplog):
    p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=gravity,
                                 obstacle=obstacle2, h=0.2)
    with caplog.at_level(logging.INFO, logger="signorini_lab.solvers"):
        res = solvers.minimize_nonlinear(p)
    value, r = solvers._NonlinearAssembler(p).energy_parts(res.field.y.ravel())
    det_res = float(np.abs(r).max())
    assert abs(value - res.objective) < 1e-10 * (1.0 + abs(res.objective))
    assert_allclose(det_res, res.residuals["det"], rtol=1e-6)
    # the finish converges from the identity: no continuation runs, and the
    # one INFO line is the direct try's, with the steps that `iterations` counts
    assert res.termination == "direct(identity)+newton"
    assert res.trace == []
    messages = [m.getMessage() for m in caplog.records]
    direct = [m for m in messages if "newton polish" in m]
    assert len(direct) == 1, messages
    assert direct[0].startswith(f"newton polish at h=0.2, start identity, direct, "
                                f"{res.iterations} steps, ")
    assert direct[0].endswith(": ok")


def test_nonlinear_rejects_inadmissible_load(mesh2, obstacle2, yeoh):
    p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh,
                                 load=sl.LoadSpec(f=sl.constant_field([0, 0, 1])),
                                 obstacle=obstacle2, h=0.2)
    with pytest.raises(solvers.SolveFailure, match="admissibility"):
        solvers.minimize_nonlinear(p)


def test_nonlinear_rejects_a_pure_couple(mesh1, yeoh, monkeypatch):
    # f = (0.5 - x2, x1 - 0.5, 0) has zero resultant and torque L(e3 ^ x) = 1/6:
    # it is not the zero load, so the linear-order check runs and fails
    def never(asm, y, lam):
        raise AssertionError("the Newton finish ran")

    monkeypatch.setattr(solvers, "_newton_polish", never)
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
