"""Command line entry point: run sweeps, check loads, solve limits, build recoveries."""

from __future__ import annotations

import argparse
import logging
import sys

from . import harness, loads, recovery, solvers


def main(argv=None):
    parser = argparse.ArgumentParser(prog="lab", description=__doc__)
    parser.add_argument("--log-level", default="WARNING",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
                        help="level of the package's log messages on stderr "
                             "(default WARNING; INFO shows the Newton polish outcomes)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "check-load", "limit", "recover"):
        p = sub.add_parser(name)
        p.add_argument("config")
    args = parser.parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("signorini_lab").setLevel(args.log_level)

    try:
        with open(args.config) as fh:
            text = fh.read()
    except (OSError, UnicodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        print(f"config error: cannot read {args.config}: {reason}", file=sys.stderr)
        return 2
    try:
        cfg = harness.parse_config(text)
        # run_experiment builds its own set-up
        setup = None if args.command == "run" else harness.build_setup(cfg)
    except harness.ExperimentError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _command(args.command, cfg, setup)
    except solvers.SolveFailure as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 2


def _command(command, cfg, setup):
    """Exit code of `command`; `setup` is `harness.build_setup(cfg)`, None for run."""
    if command == "run":
        try:
            report = harness.run_experiment(cfg)
        except harness.ExperimentError as exc:
            print(f"abort: {exc}", file=sys.stderr)
            return 2
        sys.stdout.write(harness.render_report(report.records, report))
        print(f"csv: {report.csv_path}")
        return 0 if report.verdict else 1

    mesh, obstacle, mat, load = setup
    if command == "check-load":
        rep = loads.verify_global_admissibility(load, obstacle, mesh)
        print(f"L(e1), L(e2), L(e3) = {rep.L_e1:.6e}, {rep.L_e2:.6e}, {rep.L_e3:.6e}")
        print(f"torque about e3     = {rep.torque_about_e3:.6e}")
        print(f"planar compression  = {rep.planar_compression:.6e}")
        print(f"worst shear         = {rep.worst_shear:.6e}")
        print(f"sup Phi in          [{rep.worst_phi_lower:.6e}, {rep.worst_phi:.6e}] "
              f"(width {rep.worst_phi - rep.worst_phi_lower:.1e}; lower bound at axis "
              f"{rep.worst_phi_rotation.axis}, angle {rep.worst_phi_rotation.angle:.4f})")
        if rep.kernel_class is not None:
            print(f"kernel              = {rep.kernel_class.value}")
        if rep.load_center is not None:
            print(f"load center         = {rep.load_center} "
                  f"(residual {rep.load_center_residual:.2e}, interior {rep.load_center_interior})")
        for v in rep.violations:
            print(f"violation: {v}")
        failure = harness.admissibility_failure(rep, cfg, loads.is_zero_load(load, mesh))
        if failure is not None:
            print(f"gate failure: {failure}")
        print(f"gate: {'PASS' if failure is None else 'FAIL'}")
        return 0 if failure is None else 1

    if command == "limit":
        results = harness.limit_triple(mesh, mat, load, obstacle,
                                       harness.limit_kernel(load, obstacle, mesh))
        for variant, res in results.items():
            print(f"min {variant.value:8s} = {res.objective:.12e}")
        s = harness.sandwich_summary([], results[solvers.Variant.EI].objective,
                                     results[solvers.Variant.GI].objective,
                                     results[solvers.Variant.GTILDE].objective)
        ok = s["ordered"] and s["equality_gtilde_gi"]
        print(f"ordering and equality: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1

    if command == "recover":
        kernel = harness.limit_kernel(load, obstacle, mesh)
        problem = solvers.QuadraticProblem(mesh=mesh, material=mat, load=load,
                                           obstacle=obstacle,
                                           variant=solvers.Variant.GTILDE,
                                           kernel_class=kernel)
        res = solvers.minimize_limit(problem)
        try:
            steps = recovery.build_recovery_sequence(
                res.field, mat, load, obstacle, mesh, cfg.h_list,
                gamma=cfg.recovery_gamma, kernel_class=kernel,
                steps_per_h=cfg.recovery_steps_per_h,
                ledger_samples=cfg.recovery_ledger_samples)
        except (solvers.SolveFailure, recovery.UnderResolvedError,
                recovery.FlowDomainError) as exc:
            print(f"recovery failed: {exc}", file=sys.stderr)
            print("hint: recovery needs small h values and a gamma suited to "
                  "the mesh (try h_list 1e-4 ... 1e-7 with recovery 0.75 16 4)",
                  file=sys.stderr)
            return 2
        rep = recovery.verify_upper_bound(res.field, steps, mat, load, obstacle,
                                          mesh, kernel_class=kernel)
        for row in rep["rows"]:
            print(f"h={row['h']:.3e} energy={row['energy']:.6e} gap={row['gap']:+.6e} "
                  f"beta={row['beta']:.3e} det_res={row['det_residual']:.2e}")
        ok = rep["positive_part_nonincreasing"]
        print(f"upper-bound trend: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
