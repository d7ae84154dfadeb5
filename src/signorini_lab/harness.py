"""Experiment orchestration: each stage of the `lab` commands, defined once.

`build_setup` turns a config into its mesh, obstacle, material and load;
`gate` decides the load gate on them; `gated_setup` adds the limit kernel and
aborts on a rejected load, and `lab run`, `lab limit` and `lab recover` start
from it. `limit_triple` solves the three quadratic limit problems, `recover`
checks a recovery sequence, and `run_experiment` runs the h-sweep with its
rotation and displacement diagnostics and writes a CSV plus a plain-text
report whose bytes depend only on the config and seed.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

import numpy as np

from . import geometry, kinematics, loads, material as material_mod, recovery, solvers

logger = logging.getLogger(__name__)


class ExperimentError(Exception):
    """A config, set-up, load-gate or output failure that aborts a command."""


class RecoveryFailure(Exception):
    """A failed recovery sequence: `lab run` records it, `lab recover` ends on it."""


# Relative tolerance of the ordering and equality of the three limit minima.
EQUALITY_TOL = 1e-8


@dataclass
class ExperimentConfig:
    domain: tuple = ("box", (2, 2, 2), (1.0, 1.0, 1.0))
    material: tuple = (1.0, 0.2, 0.1)
    f_desc: loads.FieldDescriptor = None
    g_descs: tuple = ()
    h_list: tuple = (0.2, 0.1, 0.05, 0.025)
    recovery_gamma: float = 0.25
    recovery_steps_per_h: int = 32
    recovery_ledger_samples: int = 8
    run_recovery: bool = False
    output_dir: str = "out"
    seed: int = 1234
    tol_conv: float = 5e-3
    require_global_phi: bool = False

    def validate(self):
        hs = list(self.h_list)
        if not hs or any(not (0.0 < h < 1.0) for h in hs):
            raise ExperimentError("h_list must lie in (0, 1)")
        if any(a <= b for a, b in zip(hs, hs[1:])):
            raise ExperimentError("h_list must be strictly decreasing")
        if self.domain[0] == "mesh" and not os.path.exists(self.domain[1]):
            raise ExperimentError(f"mesh file {self.domain[1]!r} does not exist")
        if self.domain[0] == "box":
            if any(d < 1 for d in self.domain[1]):
                raise ExperimentError(f"domain divisions {self.domain[1]} must be at least 1")
            if any(not length > 0.0 for length in self.domain[2]):
                raise ExperimentError(f"domain lengths {self.domain[2]} must be positive")
        try:
            material_mod.yeoh_material(*self.material)
        except material_mod.MaterialError as exc:
            raise ExperimentError(f"material yeoh {self.material}: {exc}") from exc
        return self


@dataclass
class ConvergenceRecord:
    h: float
    inf_gh: float
    gap: float
    t_j: float
    phi_rj: float
    det_residual: float
    active_nodes: int
    rotation_axis: np.ndarray
    rotation_angle: float
    c: np.ndarray
    u_ref_l2: float = 0.0
    termination: str = ""


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    admissibility: loads.AdmissibilityReport
    kernel_class: loads.KernelClass
    min_ei: float
    min_gi: float
    min_gtilde: float
    records: list
    verdict: bool
    verdict_detail: dict
    sandwich: dict
    recovery_report: dict = None
    csv_path: str = None
    report_path: str = None
    degenerate: bool = False


def parse_config(text):
    """Parse config text in the line-oriented format; `#` starts a comment. A
    line that cannot be read raises ExperimentError naming its number and text."""
    cfg = ExperimentConfig()
    g_descs = []
    for number, raw in enumerate(text.splitlines(), 1):
        ln = raw.split("#", 1)[0].strip()
        if not ln:
            continue
        try:
            _apply_directive(cfg, ln.split(), g_descs)
        except IndexError as exc:
            raise ExperimentError(f"line {number} {ln!r}: too few values") from exc
        except ValueError as exc:
            raise ExperimentError(f"line {number} {ln!r}: {exc}") from exc
    cfg.g_descs = tuple(g_descs)
    return cfg.validate()


def _values(tok, start, *counts):
    """tok[start:], which must hold one of `counts` values."""
    vals = tok[start:]
    if len(vals) not in counts:
        raise ValueError(f"expected {' or '.join(str(c) for c in counts)} values, "
                         f"got {len(vals)}")
    return vals


def _floats(vals):
    """The config values `vals` as floats, which must be finite."""
    out = [float(v) for v in vals]
    if not np.isfinite(out).all():
        raise ValueError(f"values must be finite, got {' '.join(vals)}")
    return out


# Directives that old configs still carry, each with the reason it sets nothing.
_NEWTON_ONLY = "the nonlinear solver is Newton's method alone, with no penalty schedule"
_RETIRED_DIRECTIVES = {
    "multistart": "the nonlinear solver runs one warm-started path per h",
    "penalty": _NEWTON_ONLY,
    "continuation": _NEWTON_ONLY,
    "solver": _NEWTON_ONLY,
    "budget": "the load gate samples no rotations",
}


def _apply_directive(cfg, tok, g_descs):
    key = tok[0]
    if key in _RETIRED_DIRECTIVES:
        logger.warning("config directive %r has no effect: %s", key, _RETIRED_DIRECTIVES[key])
    elif key == "domain":
        if tok[1] == "cube":
            cfg.domain = ("box", (int(_values(tok, 2, 1)[0]),) * 3, (1.0, 1.0, 1.0))
        elif tok[1] == "box":
            vals = _values(tok, 2, 3, 6)
            div = tuple(int(v) for v in vals[:3])
            lens = tuple(_floats(vals[3:])) if len(vals) == 6 else (1.0, 1.0, 1.0)
            cfg.domain = ("box", div, lens)
        elif tok[1] == "mesh":
            cfg.domain = ("mesh", _values(tok, 2, 1)[0])
        else:
            raise ValueError(f"unknown domain {tok[1]!r}")
    elif key == "material":
        if tok[1] != "yeoh":
            raise ValueError("only yeoh materials are supported")
        cfg.material = tuple(_floats(_values(tok, 2, 3)))
    elif key == "f":
        if tok[1] == "constant":
            cfg.f_desc = loads.constant_field(_floats(_values(tok, 2, 3)))
        elif tok[1] == "affine":
            vals = _floats(_values(tok, 2, 12))
            cfg.f_desc = loads.affine_field(np.reshape(vals[:9], (3, 3)), vals[9:])
        else:
            raise ValueError(f"unknown volume descriptor {tok[1]!r}")
    elif key == "g":
        if not tok[1].startswith("region="):
            raise ValueError("surface descriptor needs region=<name>")
        if tok[2] != "constant":
            raise ValueError(f"unknown surface descriptor {tok[2]!r}")
        g_descs.append((tok[1].split("=", 1)[1],
                        loads.constant_field(_floats(_values(tok, 3, 3)))))
    elif key == "h_list":
        cfg.h_list = tuple(_floats(tok[1:]))
    elif key == "recovery":
        gamma, steps, samples = _values(tok, 1, 3)
        cfg.recovery_gamma = _floats([gamma])[0]
        cfg.recovery_steps_per_h = int(steps)
        cfg.recovery_ledger_samples = int(samples)
    elif key == "run_recovery":
        cfg.run_recovery = bool(int(_values(tok, 1, 1)[0]))
    elif key == "output":
        cfg.output_dir = _values(tok, 1, 1)[0]
    elif key == "seed":
        cfg.seed = int(_values(tok, 1, 1)[0])
    elif key == "tol_conv":
        cfg.tol_conv = _floats(_values(tok, 1, 1))[0]
        if not cfg.tol_conv > 0.0:
            raise ValueError("tol_conv must be positive")
    elif key == "require_global_phi":
        cfg.require_global_phi = bool(int(_values(tok, 1, 1)[0]))
    else:
        raise ValueError(f"unknown config directive {key!r}")


def build_setup(cfg):
    """(mesh, obstacle, material, load) of a config. A mesh file that cannot be
    opened or parsed, or a surface load on a region the mesh lacks, raises
    ExperimentError: the load vector is assembled here, and cached on the mesh."""
    domain = f"mesh file {cfg.domain[1]!r}" if cfg.domain[0] == "mesh" else "box mesh"
    load = loads.LoadSpec(f=cfg.f_desc, g=cfg.g_descs)
    try:
        if cfg.domain[0] == "box":
            mesh = geometry.build_box_mesh(cfg.domain[1], lengths=cfg.domain[2])
        else:
            mesh = geometry.read_mesh_file(cfg.domain[1])
        obstacle = geometry.extract_obstacle(mesh)
        loads.load_vector(load, mesh)
    except (OSError, UnicodeError, geometry.MeshError, geometry.ObstacleError) as exc:
        raise ExperimentError(f"{domain}: {getattr(exc, 'strerror', None) or exc}") from exc
    return mesh, obstacle, material_mod.yeoh_material(*cfg.material), load


def admissibility_failure(report, cfg, zero_load):
    """Why the load gate rejects a load, or None when it passes.

    The enforced conditions are the linear-order ones plus the shear supremum;
    the zero load is degenerate but bounded and passes. The global Phi
    supremum (its certified upper bound) is reported but only enforced on
    request: every load with negative vertical moment (gravity included) is
    beaten by the edge-flip rotations at angle pi, while the
    identity-neighborhood sweep and the limit functionals are governed by the
    local conditions.
    """
    if zero_load:
        return None
    if not report.conditions_basic_ok or not report.shear_ok:
        return "; ".join(report.violations)
    if report.L_e3 > -report.tol:
        return f"L(e3) <= 0 violated (L(e3) = {report.L_e3:.3e})"
    if cfg.require_global_phi and not report.global_phi_ok:
        return f"global Phi condition (worst {report.worst_phi:.3e})"
    return None


def gate(cfg, setup):
    """The load gate on `build_setup`'s objects: the admissibility report, and
    why the gate rejects the load (`admissibility_failure`) or None."""
    mesh, obstacle, _, load = setup
    report = loads.verify_global_admissibility(load, obstacle, mesh)
    return report, admissibility_failure(report, cfg, loads.is_zero_load(load, mesh))


def gated_setup(cfg):
    """`build_setup`'s objects, the gate's report and the limit kernel: all
    rotations about e3 for the zero load, else `loads.classify_kernel` (which
    needs L(e3) < 0). A rejected load raises ExperimentError."""
    setup = build_setup(cfg)
    report, failure = gate(cfg, setup)
    if failure is not None:
        raise ExperimentError(f"admissibility failure: {failure}")
    mesh, obstacle, _, load = setup
    kernel = (loads.KernelClass.ROTATIONS_ABOUT_E3 if loads.is_zero_load(load, mesh)
              else loads.classify_kernel(load, obstacle, mesh))
    return (*setup, report, kernel)


def limit_triple(mesh, mat, load, obstacle, kernel):
    """{variant: SolveResult} of the three limit problems E^I, G^I and G~^I.

    The three solves share the set-up that `minimize_limit` caches on the mesh:
    the div rows, and E^I's H, Z^T H Z and working-set factors for G^I."""
    return {variant: solvers.minimize_limit(solvers.QuadraticProblem(
        mesh=mesh, material=mat, load=load, obstacle=obstacle, variant=variant,
        kernel_class=kernel)) for variant in solvers.Variant}


def recover(cfg, setup, u_ref=None):
    """`recovery.verify_upper_bound`'s report on the recovery sequence of the
    G~ minimizer `u_ref` (solved here when None) of `gated_setup`'s objects at
    the config's h_list and recovery settings; RecoveryFailure if it fails."""
    mesh, obstacle, mat, load, _, kernel = setup
    if u_ref is None:
        u_ref = solvers.minimize_limit(solvers.QuadraticProblem(
            mesh=mesh, material=mat, load=load, obstacle=obstacle,
            variant=solvers.Variant.GTILDE, kernel_class=kernel)).field
    try:
        steps = recovery.build_recovery_sequence(
            u_ref, mat, load, obstacle, mesh, cfg.h_list,
            gamma=cfg.recovery_gamma, kernel_class=kernel,
            steps_per_h=cfg.recovery_steps_per_h,
            ledger_samples=cfg.recovery_ledger_samples)
        return recovery.verify_upper_bound(u_ref, steps, mat, load, obstacle, mesh,
                                           kernel_class=kernel)
    except (solvers.SolveFailure, recovery.UnderResolvedError, recovery.FlowDomainError) as exc:
        raise RecoveryFailure(str(exc)) from exc


def run_experiment(cfg):
    """The h-sweep of a config; the output directory is made before the first h."""
    cfg.validate()
    setup = gated_setup(cfg)
    mesh, obstacle, mat, load, adm, kernel = setup
    results = limit_triple(mesh, mat, load, obstacle, kernel)
    min_ei, min_gi, min_gtilde = (results[v].objective for v in solvers.Variant)
    u_ref = results[solvers.Variant.GTILDE].field
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise ExperimentError(f"output {cfg.output_dir!r}: {exc.strerror or exc}") from exc

    records = []
    last = None   # (h, y) of the last minimizer: the sweep's warm start, rescaled to h
    for h in cfg.h_list:
        warm = None
        if last is not None:
            warm = solvers.rescale_deformation(mesh.nodes, last[1], last[0], h).ravel()
        problem = solvers.NonlinearProblem(
            mesh=mesh, material=mat, load=load, obstacle=obstacle, h=h, warm_start=warm)
        try:
            res = solvers.minimize_nonlinear(problem)
        except solvers.SolveFailure as exc:
            logger.error("solve at h=%g failed: %s", h, exc)
            records.append(ConvergenceRecord(
                h=h, inf_gh=np.nan, gap=np.nan, t_j=np.nan, phi_rj=np.nan,
                det_residual=np.nan, active_nodes=0,
                rotation_axis=np.array([0.0, 0.0, 1.0]), rotation_angle=0.0,
                c=np.zeros(3), termination=f"failed: {exc}"))
            continue
        y_field = res.field
        rot = kinematics.optimal_rotation(y_field, mesh)
        c = kinematics.translations(y_field, rot, obstacle, mesh)
        u_j = kinematics.extract_displacement(y_field, rot, c, h, mesh)
        w3 = y_field.y[:, 2] - (mesh.nodes @ rot.matrix.T)[:, 2] - c[2]
        t_j = geometry.l2_norm(mesh, w3) / h
        phi_rj = loads.phi(load, obstacle, rot, mesh)
        u_diff = u_j.u - u_ref.u
        records.append(ConvergenceRecord(
            h=h, inf_gh=res.objective, gap=res.objective - min_gtilde,
            t_j=t_j, phi_rj=phi_rj, det_residual=res.residuals["det"],
            active_nodes=int(res.active_nodes.size),
            rotation_axis=rot.axis, rotation_angle=rot.angle, c=c,
            u_ref_l2=geometry.l2_norm(mesh, u_diff),
            termination=res.termination))
        last = (h, y_field.y)

    recovery_report = None
    if cfg.run_recovery:
        try:
            recovery_report = recover(cfg, setup, u_ref)
        except RecoveryFailure as exc:
            recovery_report = {"error": str(exc)}

    detail = verdict_from_records(records, cfg.tol_conv, min_gtilde)
    sandwich = sandwich_summary(records, min_ei, min_gi, min_gtilde)
    if not sandwich["equality_gtilde_gi"]:
        logger.warning("limit equality defect: %.3e", sandwich["equality_defect"])
    report = ExperimentReport(
        config=cfg, admissibility=adm, kernel_class=kernel,
        min_ei=min_ei, min_gi=min_gi, min_gtilde=min_gtilde,
        records=records, verdict=detail["pass"], verdict_detail=detail,
        sandwich=sandwich, recovery_report=recovery_report,
        degenerate=loads.is_zero_load(load, mesh))
    csv_path, report_path = emit_outputs(records, cfg.output_dir, report)
    report.csv_path, report.report_path = csv_path, report_path
    return report


def verdict_from_records(records, tol_conv, min_gtilde):
    """Pure convergence verdict: positive-part gap nonincreasing over the final
    three h values and final value below tol_conv (1 + |min G_tilde|)."""
    gaps = [r.gap for r in records if np.isfinite(r.gap)]
    if len(gaps) < len(records) or not gaps:
        return {"pass": False, "reason": "missing records", "positive_parts": []}
    plus = [max(g, 0.0) for g in gaps]
    tail = plus[-3:]
    noninc = all(tail[i] >= tail[i + 1] - 1e-12 for i in range(len(tail) - 1))
    threshold = tol_conv * (1.0 + abs(min_gtilde))
    final_ok = plus[-1] <= threshold
    return {"pass": bool(noninc and final_ok), "positive_parts": plus,
            "tail_nonincreasing": noninc, "final_gap_plus": plus[-1],
            "threshold": threshold}


def sandwich_summary(records, min_ei, min_gi, min_gtilde):
    """Ordering of the three limit minima (to EQUALITY_TOL) plus the
    lower-bound slack (min G~ - inf G_h)+ of each finite record."""
    tol = EQUALITY_TOL
    scale = 1.0 + max(abs(min_ei), abs(min_gi), abs(min_gtilde))
    ordered = (min_gtilde <= min_gi + tol * scale) and (min_gi <= min_ei + tol * scale)
    equality = abs(min_gtilde - min_gi) <= tol * scale
    slacks = [(r.h, max(min_gtilde - r.inf_gh, 0.0)) for r in records
              if np.isfinite(r.inf_gh)]
    return {"ordered": bool(ordered), "equality_gtilde_gi": bool(equality),
            "equality_defect": abs(min_gtilde - min_gi), "slacks": slacks,
            "bounded_below": bool(slacks) or bool(np.isfinite(min_gtilde))}


CSV_HEADER = ("h,inf_Gh,gap,t_j,phi_Rj,det_residual,active_nodes,"
              "R_axis,R_angle,c1,c2,c3")


def emit_outputs(records, out_dir, report=None):
    """Write sweep.csv and report.txt; bytes depend only on inputs and seed."""
    if not records:
        raise ExperimentError("no records to emit")
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "sweep.csv")
    lines = [CSV_HEADER]
    for r in records:
        axis = ";".join(f"{v:.9e}" for v in r.rotation_axis)
        lines.append(
            f"{r.h:.12e},{r.inf_gh:.12e},{r.gap:.12e},{r.t_j:.12e},{r.phi_rj:.12e},"
            f"{r.det_residual:.12e},{r.active_nodes},{axis},{r.rotation_angle:.12e},"
            f"{r.c[0]:.12e},{r.c[1]:.12e},{r.c[2]:.12e}")
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    report_path = os.path.join(out_dir, "report.txt")
    with open(report_path, "w") as fh:
        fh.write(render_report(records, report))
    return csv_path, report_path


def render_report(records, report=None):
    out = ["incompressible contact sweep", "=" * 32]
    if report is not None:
        out.append(f"seed: {report.config.seed}")
        adm = report.admissibility
        out.append(f"load gate: basic={adm.basic_admissible} "
                   f"global_phi={adm.global_phi_ok} worst_phi={adm.worst_phi:.6e} "
                   f"worst_shear={adm.worst_shear:.6e}")
        out.append(f"kernel: {report.kernel_class.value if report.kernel_class else 'n/a'}")
        out.append(f"min E^I      = {report.min_ei:.12e}")
        out.append(f"min G^I      = {report.min_gi:.12e}")
        out.append(f"min G~^I     = {report.min_gtilde:.12e}")
        out.append(f"equality defect |min G~ - min G| = "
                   f"{report.sandwich['equality_defect']:.3e}")
        out.append(f"ordering G~ <= G <= E: {report.sandwich['ordered']}")
    out.append("")
    out.append(f"{'h':>10} {'inf_Gh':>16} {'gap':>13} {'t_j':>11} "
               f"{'phi_Rj':>11} {'det_res':>10} {'act':>4} {'|u-u_ref|':>11}")
    for r in records:
        out.append(f"{r.h:10.4e} {r.inf_gh:16.9e} {r.gap:13.4e} {r.t_j:11.4e} "
                   f"{r.phi_rj:11.4e} {r.det_residual:10.2e} {r.active_nodes:4d} "
                   f"{r.u_ref_l2:11.4e}")
    if report is not None:
        out.append("")
        d = report.verdict_detail
        out.append(f"verdict: {'PASS' if report.verdict else 'FAIL'} "
                   f"(final gap+ {d.get('final_gap_plus', float('nan')):.4e} "
                   f"vs threshold {d.get('threshold', float('nan')):.4e}, "
                   f"tail nonincreasing: {d.get('tail_nonincreasing', False)})")
        if report.recovery_report is not None:
            rr = report.recovery_report
            if "error" in rr:
                out.append(f"recovery: error: {rr['error']}")
            else:
                out.append(f"recovery: final gap+ {rr['final_gap_plus']:.4e}, "
                           f"nonincreasing {rr['positive_part_nonincreasing']}")
    return "\n".join(out) + "\n"

