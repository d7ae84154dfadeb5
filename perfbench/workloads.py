"""The three benchmark workloads: inputs from a seed, one timed pass, its checks.

Each workload builds its inputs in `__init__` (that is the set-up the
benchmark times), runs one pass in `run_pass` and returns the list of failed
correctness checks for a pass result in `check`. Tolerances are the ones the
acceptance suite pins; none is looser.
"""

from __future__ import annotations

import math

import numpy as np

from signorini_lab import geometry, harness, loads, material, recovery, solvers

# Acceptance tolerances (tests/test_acceptance.py).
EQUALITY_TOL = 1e-8        # criteria 2 and 3: |min G~ - min G| <= 1e-8 scale
DET_TOL = 1e-6             # determinant residuals of the sweep records
DIV_TOL = 1e-8             # divergence residual of a limit minimizer
TOL_CONV = 5e-3            # criterion 1: final positive gap <= 5e-3 (1 + |min G~|)
RECOVERY_GAP_TOL = 1e-2    # criterion 12: final positive gap <= 1e-2 scale
# Below this horizontal share the limit QPs skip the angle scan (solvers.minimize_limit).
THETA_INDEPENDENT_TOL = 1e-14

YEOH = (1.0, 0.2, 0.1)
PENALTY_KAPPA = 100.0
GATE_BUDGET = 1500         # SO(3) samples of the load gate, as in the acceptance config
LIMIT_LOADS = 4            # seeded loads a limit-scan run rotates through
HORIZONTAL_AMPLITUDE = 1.0  # of the random horizontal force, against gravity's 1


def limit_triple_problems(mins):
    """Failed ordering/equality checks for {variant: objective}."""
    ei, gi, gt = (mins[v] for v in (solvers.Variant.EI, solvers.Variant.GI,
                                    solvers.Variant.GTILDE))
    scale = 1.0 + max(abs(ei), abs(gi), abs(gt))
    out = []
    if not (gt <= gi + EQUALITY_TOL * scale and gi <= ei + EQUALITY_TOL * scale):
        out.append(f"ordering G~ <= G <= E violated ({gt:.12e}, {gi:.12e}, {ei:.12e})")
    if abs(gt - gi) > EQUALITY_TOL * scale:
        out.append(f"|min G~ - min G| = {abs(gt - gi):.3e} > {EQUALITY_TOL:g} scale")
    return out


def nonincreasing(values):
    return all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class SweepCube3:
    """`lab run` on the acceptance config (gravity) over a 3x3x3 cube."""

    name = "sweep-cube3"

    def __init__(self, seed, out_dir, divisions=3, h_list=(0.2, 0.1, 0.05, 0.025)):
        text = "\n".join([
            f"domain cube {divisions}",
            "material yeoh " + " ".join(str(c) for c in YEOH),
            "penalty 100 10 3",
            "f constant 0 0 -1",
            "h_list " + " ".join(str(h) for h in h_list),
            "solver 5000 1e-8",
            f"multistart {seed} 1",
            f"output {out_dir}",
            f"seed {seed}",
            f"budget {GATE_BUDGET}",
        ])
        self.cfg = harness.parse_config(text)
        self.mesh_size = ((divisions + 1) ** 3, 6 * divisions ** 3)
        self.first_outputs = None

    def run_pass(self):
        return harness.run_experiment(self.cfg)

    def gap_final(self, report):
        return max(report.records[-1].gap, 0.0)

    def check(self, report):
        out = []
        gaps = [r.gap for r in report.records]
        if not all(math.isfinite(g) for g in gaps):
            return [f"non-finite records: {[r.termination for r in report.records]}"]
        plus = [max(g, 0.0) for g in gaps]
        threshold = TOL_CONV * (1.0 + abs(report.min_gtilde))
        if not (report.verdict and nonincreasing(plus[-3:]) and plus[-1] <= threshold):
            out.append(f"verdict FAIL: gaps+ {plus}, threshold {threshold:.3e}")
        out += limit_triple_problems({solvers.Variant.EI: report.min_ei,
                                      solvers.Variant.GI: report.min_gi,
                                      solvers.Variant.GTILDE: report.min_gtilde})
        for r in report.records:
            if not (math.isfinite(r.inf_gh) and r.det_residual <= DET_TOL):
                out.append(f"h={r.h:g}: inf {r.inf_gh}, det residual {r.det_residual:.3e}")
        # sweep.csv and report.txt are byte-stable for a fixed config and seed
        outputs = []
        for path in (report.csv_path, report.report_path):
            with open(path, "rb") as fh:
                outputs.append(fh.read())
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            out.append("sweep.csv or report.txt changed between passes")
        return out


class LimitScanCube3:
    """`lab limit` on gravity plus a seeded horizontal body force, 3x3x3 cube.

    The horizontal part has its resultant and first moments projected out, so
    the load moments equal those of gravity: the load passes the gate, the
    kernel is the circle of rotations about e3, and GI and G~ must scan the
    rotation angle because the horizontal load vector is nonzero.

    The seed draws LIMIT_LOADS such loads and pass k solves load k mod LIMIT_LOADS.
    The angle refinement takes a load-dependent number of QPs (117 to 134 on
    ten seeds), so a run's median pass covers that spread, not one draw of it.
    """

    name = "limit-scan-cube3"

    def __init__(self, seed, out_dir=None, divisions=3):
        self.mesh = geometry.build_box_mesh((divisions,) * 3)
        self.obstacle = geometry.extract_obstacle(self.mesh)
        self.material = material.yeoh_material(*YEOH, penalty_kappa=PENALTY_KAPPA)
        rng = np.random.default_rng(seed)
        self.loads = [loads.LoadSpec(f=loads.nodal_field(self._body_force(rng)))
                      for _ in range(LIMIT_LOADS)]
        for load in self.loads:
            self._guard(load, seed)
        self.mesh_size = (self.mesh.num_nodes, self.mesh.num_elements)
        self.passes = 0

    def _body_force(self, rng):
        mesh = self.mesh
        mass = geometry.volume_mass_matrix(mesh)
        basis = np.column_stack([np.ones(mesh.num_nodes), mesh.nodes])  # 1, x1, x2, x3
        force = np.zeros((mesh.num_nodes, 3))
        force[:, 2] = -1.0
        for i in range(2):
            f = HORIZONTAL_AMPLITUDE * rng.standard_normal(mesh.num_nodes)
            coef = np.linalg.solve(basis.T @ mass @ basis, basis.T @ (mass @ f))
            force[:, i] = f - basis @ coef
        return force

    def _guard(self, load, seed):
        """Refuse an input that would not exercise the angle scan."""
        report = loads.verify_global_admissibility(load, self.obstacle, self.mesh,
                                                   budget=GATE_BUDGET, seed=seed)
        if not (report.conditions_basic_ok and report.shear_ok):
            raise ValueError(f"generated load fails the gate: {report.violations}")
        kernel = loads.classify_kernel(load, self.obstacle, self.mesh)
        if kernel != loads.KernelClass.ROTATIONS_ABOUT_E3:
            raise ValueError(f"generated load has kernel {kernel.value}")
        ell = loads.load_vector(load, self.mesh)
        horizontal = float(np.abs(ell[:, :2]).max())
        if horizontal <= THETA_INDEPENDENT_TOL * max(1.0, float(np.abs(ell).max())):
            raise ValueError(f"horizontal load part {horizontal:.3e} is angle independent")

    def run_pass(self):
        load = self.loads[self.passes % len(self.loads)]
        self.passes += 1
        kernel = loads.classify_kernel(load, self.obstacle, self.mesh)
        results = {}
        for variant in (solvers.Variant.EI, solvers.Variant.GI, solvers.Variant.GTILDE):
            problem = solvers.QuadraticProblem(mesh=self.mesh, material=self.material,
                                               load=load, obstacle=self.obstacle,
                                               variant=variant, kernel_class=kernel)
            results[variant] = solvers.minimize_limit(problem)
        return kernel, results

    def gap_final(self, result):
        return None

    def check(self, result):
        kernel, results = result
        out = []
        if kernel != loads.KernelClass.ROTATIONS_ABOUT_E3:
            out.append(f"kernel {kernel.value}")
        out += limit_triple_problems({v: r.objective for v, r in results.items()})
        for variant, r in results.items():
            if not r.residuals["div"] <= DIV_TOL:
                out.append(f"{variant.value}: div residual {r.residuals['div']:.3e}")
        return out


class RecoveryCube2:
    """Criterion 12: the recovery sequence of the gravity G~ minimizer, 2x2x2 cube."""

    name = "recovery-cube2"

    def __init__(self, seed, out_dir=None, divisions=2, h_list=(1e-4, 1e-5, 1e-6, 1e-7),
                 steps_per_h=16):
        # The criterion-12 input has no random part; the seed is only recorded.
        self.mesh = geometry.build_box_mesh((divisions,) * 3)
        self.obstacle = geometry.extract_obstacle(self.mesh)
        self.material = material.yeoh_material(*YEOH, penalty_kappa=PENALTY_KAPPA)
        self.load = loads.LoadSpec(f=loads.constant_field([0.0, 0.0, -1.0]))
        self.kernel = loads.classify_kernel(self.load, self.obstacle, self.mesh)
        problem = solvers.QuadraticProblem(mesh=self.mesh, material=self.material,
                                           load=self.load, obstacle=self.obstacle,
                                           variant=solvers.Variant.GTILDE,
                                           kernel_class=self.kernel)
        self.u_limit = solvers.minimize_limit(problem).field
        self.h_list = tuple(h_list)
        self.steps_per_h = steps_per_h
        self.mesh_size = (self.mesh.num_nodes, self.mesh.num_elements)

    def run_pass(self):
        steps = recovery.build_recovery_sequence(
            self.u_limit, self.material, self.load, self.obstacle, self.mesh, self.h_list,
            gamma=0.75, kernel_class=self.kernel, steps_per_h=self.steps_per_h,
            ledger_samples=4)
        report = recovery.verify_upper_bound(self.u_limit, steps, self.material, self.load,
                                             self.obstacle, self.mesh, kernel_class=self.kernel)
        return steps, report

    def gap_final(self, result):
        return result[1]["final_gap_plus"]

    def check(self, result):
        steps, report = result
        out = [f"h={s.h:g}: ledger entry fails at t={e['t']:.3e}"
               for s in steps for e in s.flow.ledger if not e["all_hold"]]
        plus = [row["gap_plus"] for row in report["rows"]]
        if not nonincreasing(plus):
            out.append(f"positive gaps not nonincreasing: {plus}")
        threshold = RECOVERY_GAP_TOL * report["scale"]
        if not report["final_gap_plus"] <= threshold:
            out.append(f"final gap+ {report['final_gap_plus']:.3e} > {threshold:.3e}")
        return out


WORKLOADS = {w.name: w for w in (SweepCube3, LimitScanCube3, RecoveryCube2)}
