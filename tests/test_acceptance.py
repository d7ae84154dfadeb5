"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not configurable elsewhere. Oracles are
independent of the code paths they check: enumeration for the QP, grids with
golden-section refinement for rotations and shear lifts, dense sampling for
the rotation sweep, and raw reimplementations of the quadratic energies.
"""

import time

import numpy as np
import pytest

import signorini_lab as sl
from conftest import random_divergence_free
from signorini_lab import harness, recovery, solvers
from signorini_lab.kinematics import DeformationField, DisplacementField
from signorini_lab.loads import Rotation, load_vector
from signorini_lab.solvers import Variant


def _report(criterion, passed, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {criterion}: {detail}"


ACCEPTANCE_CONFIG = """domain cube 2
material yeoh 1.0 0.2 0.1
penalty 100 10 3
f constant 0 0 -1
h_list 0.2 0.1 0.05 0.025
solver 5000 1e-8
multistart 1234 1
output {out}
seed 1234
budget 1500
"""


@pytest.fixture(scope="module")
def acceptance_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    cfg = harness.parse_config(ACCEPTANCE_CONFIG.format(out=out.as_posix()))
    t0 = time.monotonic()
    report = harness.run_experiment(cfg)
    elapsed = time.monotonic() - t0
    return report, elapsed


def test_criterion_01_gamma_limit_trend(acceptance_run):
    report, elapsed = acceptance_run
    gaps = [max(r.gap, 0.0) for r in report.records]
    tail = gaps[-3:]
    noninc = all(tail[i] >= tail[i + 1] - 1e-12 for i in range(len(tail) - 1))
    threshold = 5e-3 * (1.0 + abs(report.min_gtilde))
    ok = noninc and gaps[-1] <= threshold and elapsed <= 600.0
    _report(1, ok, f"gaps+ {['%.3e' % g for g in gaps]}, final {gaps[-1]:.3e} "
                   f"<= {threshold:.3e}, runtime {elapsed:.1f}s")


def test_criterion_02_equality_of_limits(mesh2, obstacle2, yeoh, test_loads):
    worst = 0.0
    for load in test_loads:
        kernel = sl.classify_kernel(load, obstacle2, mesh2)
        vals = {}
        for variant in (Variant.GI, Variant.GTILDE):
            p = solvers.QuadraticProblem(mesh=mesh2, material=yeoh, load=load,
                                         obstacle=obstacle2, variant=variant,
                                         kernel_class=kernel)
            vals[variant] = solvers.minimize_limit(p).objective
        defect = abs(vals[Variant.GTILDE] - vals[Variant.GI])
        worst = max(worst, defect / (1.0 + abs(vals[Variant.GI])))
    _report(2, worst <= 1e-8, f"worst relative equality defect {worst:.3e} over "
                              f"{len(test_loads)} loads")


def test_criterion_03_ordering(mesh2, obstacle2, yeoh, test_loads):
    violations = 0
    assert len(test_loads) >= 5
    for load in test_loads:
        kernel = sl.classify_kernel(load, obstacle2, mesh2)
        vals = {}
        for variant in Variant:
            p = solvers.QuadraticProblem(mesh=mesh2, material=yeoh, load=load,
                                         obstacle=obstacle2, variant=variant,
                                         kernel_class=kernel)
            vals[variant] = solvers.minimize_limit(p).objective
        scale = 1e-10 * (1.0 + max(abs(v) for v in vals.values()))
        if not (vals[Variant.GTILDE] <= vals[Variant.GI] + scale
                and vals[Variant.GI] <= vals[Variant.EI] + scale):
            violations += 1
    _report(3, violations == 0, f"{violations} ordering violations over "
                                f"{len(test_loads)} loads")


def test_criterion_04_kernel_dichotomy(mesh2, obstacle2, gravity):
    def theta_grid_class(load, tol=1e-9, n=10_000):
        worst = 0.0
        for theta in np.linspace(0.0, 2.0 * np.pi, n, endpoint=False):
            worst = max(worst, abs(sl.phi(load, obstacle2,
                                          Rotation.about_e3(theta), mesh2)))
            if worst > tol:
                break
        return (sl.KernelClass.ROTATIONS_ABOUT_E3 if worst <= tol
                else sl.KernelClass.IDENTITY_ONLY)

    a = np.zeros((3, 3))
    a[0, 0] = -0.5
    constructed = sl.LoadSpec(f=sl.affine_field(a, [0.25, 0.0, -1.0]))

    got_sym = sl.classify_kernel(gravity, obstacle2, mesh2)
    got_neg = sl.classify_kernel(constructed, obstacle2, mesh2)
    ok = (got_sym == sl.KernelClass.ROTATIONS_ABOUT_E3
          and got_neg == sl.KernelClass.IDENTITY_ONLY
          and theta_grid_class(gravity) == got_sym
          and theta_grid_class(constructed) == got_neg)
    _report(4, ok, f"symmetric -> {got_sym.value}, constructed -> {got_neg.value}, "
                   "grid oracle agrees at 1e-9")


def test_criterion_05_rotation_diagnostics(mesh2, obstacle2, yeoh, gravity):
    from signorini_lab import kinematics

    h_list = (1e-2, 1e-3, 1e-4, 2e-5)
    warm = None
    phis = []
    for i, h in enumerate(h_list):
        p = solvers.NonlinearProblem(mesh=mesh2, material=yeoh, load=gravity,
                                     obstacle=obstacle2, h=h,
                                     warm_start=warm)
        res = solvers.minimize_nonlinear(p)
        rot = kinematics.optimal_rotation(res.field, mesh2)
        phis.append(abs(sl.phi(gravity, obstacle2, rot, mesh2)))
        if i + 1 < len(h_list):
            warm = (mesh2.nodes + (h_list[i + 1] / h)
                    * (res.field.y - mesh2.nodes)).ravel()
    trending = all(b <= a + 1e-12 for a, b in zip(phis, phis[1:]))
    ok = trending and phis[-1] <= 1e-6
    _report(5, ok, f"|Phi(R_j)| = {['%.2e' % v for v in phis]}, final <= 1e-6")


def test_criterion_06_kabsch_oracle(mesh2):
    rng = np.random.default_rng(2024)
    exceptions = 0
    for _ in range(100):
        y = DeformationField.from_nodal(
            mesh2, mesh2.nodes @ (np.eye(3) + 0.3 * rng.standard_normal((3, 3))).T
            + 0.05 * rng.standard_normal((mesh2.num_nodes, 3)))
        a = np.einsum("e,eij->ij", mesh2.element_volumes, y.gradients)
        best = sl.optimal_rotation(y, mesh2).matrix
        q = rng.standard_normal((1000, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        w, x1, x2, x3 = q.T
        rots = np.empty((1000, 3, 3))
        rots[:, 0, 0] = 1 - 2 * (x2**2 + x3**2)
        rots[:, 0, 1] = 2 * (x1 * x2 - x3 * w)
        rots[:, 0, 2] = 2 * (x1 * x3 + x2 * w)
        rots[:, 1, 0] = 2 * (x1 * x2 + x3 * w)
        rots[:, 1, 1] = 1 - 2 * (x1**2 + x3**2)
        rots[:, 1, 2] = 2 * (x2 * x3 - x1 * w)
        rots[:, 2, 0] = 2 * (x1 * x3 - x2 * w)
        rots[:, 2, 1] = 2 * (x2 * x3 + x1 * w)
        rots[:, 2, 2] = 1 - 2 * (x1**2 + x2**2)
        # minimizing int |grad y - R|^2 maximizes tr(R^T A)
        if np.einsum("kij,ij->k", rots, a).max() > (best * a).sum() + 1e-12:
            exceptions += 1
    _report(6, exceptions == 0, f"{exceptions} exceptions in 100 fields x 1000 rotations")


def test_criterion_07_closed_forms_vs_brute_force(mesh2, yeoh, gravity):
    import sys

    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    from test_solvers import grid_search_b, theta_grid_max_load

    rng = np.random.default_rng(7)
    worst_b = 0.0
    for _ in range(20):
        u = random_divergence_free(mesh2, rng)
        b_closed = solvers.optimal_shear_b(u, yeoh, mesh2)
        b_grid, _ = grid_search_b(u, yeoh, mesh2)
        worst_b = max(worst_b, float(np.abs(b_closed - b_grid).max()))

    aff = sl.LoadSpec(f=sl.affine_field(
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 0.5, 0.0]]),
        [0.0, 0.0, -1.0]))
    worst_t = 0.0
    for trial in range(20):
        u = DisplacementField.from_nodal(
            mesh2, 0.3 * rng.standard_normal((mesh2.num_nodes, 3)))
        load = (gravity, aff)[trial % 2]
        val, _ = solvers.max_load_over_kernel(u, load,
                                              sl.KernelClass.ROTATIONS_ABOUT_E3, mesh2)
        worst_t = max(worst_t, abs(val - theta_grid_max_load(u, load, mesh2)))
    ok = worst_b <= 1e-8 and worst_t <= 1e-9
    _report(7, ok, f"shear lift worst {worst_b:.2e} <= 1e-8, "
                   f"kernel max worst {worst_t:.2e} <= 1e-9")


def test_criterion_08_flow_ledger(mesh2, mesh3):
    rng = np.random.default_rng(8)
    cases = [(mesh2, 0.05, 0.04), (mesh2, 0.08, 0.07), (mesh3, 0.06, 0.05)]
    worst_det = 0.0
    instances = 0
    for count in range(10):
        mesh, eps, t = cases[count % len(cases)]
        u = random_divergence_free(mesh, rng, scale=0.2)
        ext = recovery.ReflectedExtension(mesh, u.u)
        fld = recovery.mollify(ext, eps=eps, gamma=0.25, nq=6)
        res = recovery.integrate_flow(fld, t, mesh, steps=8, ledger_samples=4)
        worst_det = max(worst_det, res.max_det_residual)
        for entry in res.ledger:
            for key in ("nuova1", "flux2", "nuova2", "flux3"):
                lhs, rhs = entry[key]
                # literal check up to a pure-roundoff guard
                assert lhs <= rhs * (1.0 + 1e-10) + 1e-13, (key, lhs, rhs)
                instances += 1
    _report(8, worst_det <= 1e-6,
            f"{instances} bound instances hold, max |det - 1| {worst_det:.2e} <= 1e-6")


def test_criterion_09_determinant_expansion(mesh2):
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        u = DisplacementField.from_nodal(
            mesh2, rng.standard_normal((mesh2.num_nodes, 3)))
        h = rng.uniform(0.01, 0.99)
        worst = max(worst, sl.determinant_expansion_check(u, h))
    _report(9, worst <= 1e-12, f"max residual {worst:.2e} <= 1e-12 on 100 pairs")


def test_criterion_10_bogovskii(mesh3):
    rng = np.random.default_rng(10)
    interior = np.setdiff1d(np.arange(mesh3.num_nodes), mesh3.boundary_node_indices())
    bnodes = mesh3.boundary_node_indices()
    vols = mesh3.element_volumes
    worst = 0.0
    boundary_exact = True
    for _ in range(10):
        vals = np.zeros((mesh3.num_nodes, 3))
        vals[interior] = 0.5 * rng.standard_normal((interior.size, 3))
        v = DisplacementField.from_nodal(mesh3, vals)
        w, _ = sl.bogovskii_correct(v, mesh3)
        boundary_exact &= bool(np.abs(w.u[bnodes]).max() == 0.0)
        mean = float(vols @ v.divergence) / mesh3.volume
        div = DisplacementField.from_nodal(mesh3, v.u + w.u).divergence
        worst = max(worst, float(np.abs(div - mean).max()))
    ok = worst <= 1e-9 and boundary_exact
    _report(10, ok, f"max |div(v+w) - mean| {worst:.2e} <= 1e-9, "
                    f"boundary exactly zero: {boundary_exact}")


def test_criterion_11_material_expansion(yeoh):
    table = sl.verify_taylor_remainder(yeoh)
    hs = sorted(table, reverse=True)
    vals = [table[h] for h in hs]
    noninc = all(b <= a + 1e-7 for a, b in zip(vals, vals[1:]))
    ok = noninc and table[1e-4] <= 1e-3
    _report(11, ok, "remainders " + ", ".join(f"{h:g}: {table[h]:.2e}" for h in hs))


def test_criterion_12_upper_bound(mesh2, obstacle2, yeoh, gravity, limit_gravity):
    res, kernel = limit_gravity
    h_list = (1e-4, 1e-5, 1e-6, 1e-7)
    steps = recovery.build_recovery_sequence(res.field, yeoh, gravity, obstacle2,
                                             mesh2, h_list, gamma=0.75,
                                             kernel_class=kernel, steps_per_h=16,
                                             ledger_samples=4)
    rep = recovery.verify_upper_bound(res.field, steps, yeoh, gravity, obstacle2,
                                      mesh2, kernel_class=kernel)
    plus = [r["gap_plus"] for r in rep["rows"]]
    threshold = 1e-2 * rep["scale"]
    ok = rep["positive_part_nonincreasing"] and rep["final_gap_plus"] <= threshold
    _report(12, ok, f"gaps+ {['%.3e' % g for g in plus]}, final "
                    f"{rep['final_gap_plus']:.3e} <= {threshold:.3e}")


def test_criterion_13_qp_oracle(tmp_path, yeoh):
    import sys

    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    from test_solvers import TWO_TET_MESH, enumerate_qp_oracle

    path = tmp_path / "two.mesh"
    path.write_text(TWO_TET_MESH)
    mesh = sl.read_mesh_file(path)
    obstacle = sl.extract_obstacle(mesh)
    load = sl.LoadSpec(f=sl.constant_field([0.0, 0.0, -1.0]))
    kernel = sl.classify_kernel(load, obstacle, mesh)
    worst = 0.0
    for variant in (Variant.EI, Variant.GTILDE):
        p = solvers.QuadraticProblem(mesh=mesh, material=yeoh, load=load,
                                     obstacle=obstacle, variant=variant,
                                     kernel_class=kernel)
        res = solvers.minimize_limit(p)
        with_shear = variant == Variant.GTILDE
        h = solvers.assemble_strain_hessian(mesh, yeoh, with_shear=with_shear)
        b = solvers.assemble_div_matrix(mesh)
        if with_shear:
            b = np.hstack([b, np.zeros((b.shape[0], 2))])
        g = np.zeros(h.shape[0])
        g[:3 * mesh.num_nodes] = -load_vector(load, mesh).ravel()
        oracle = enumerate_qp_oracle(h, g, b, np.zeros(b.shape[0]),
                                     solvers.obstacle_bound_dofs(obstacle))
        worst = max(worst, abs(res.objective - oracle))
    _report(13, worst <= 1e-8, f"worst objective defect vs enumeration {worst:.2e}")
