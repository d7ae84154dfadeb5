"""Command line entry point: run sweeps, check loads, solve limits, build recoveries.

Each command runs stages of `harness`: `lab check-load` prints the load gate,
and `lab run`, `lab limit` and `lab recover` start from its gated set-up, so a
load the gate rejects aborts all three alike. This module only parses,
dispatches and prints. Every failure a command can end in has one line on
stderr and exit code 2, mapped in `main`; exit code 1 is a FAIL verdict.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import harness, solvers


def main(argv=None):
    parser = argparse.ArgumentParser(prog="lab", description=__doc__.split("\n", 1)[0])
    parser.add_argument("--log-level", default="WARNING",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
                        help="level of the package's log messages on stderr "
                             "(default WARNING; INFO shows the Newton polish outcomes)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name).add_argument("config")
    args = parser.parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("signorini_lab").setLevel(args.log_level)

    try:
        with open(args.config) as fh:
            cfg = harness.parse_config(fh.read())
    except (OSError, UnicodeError) as exc:
        message = (f"config error: cannot read {args.config}: "
                   f"{getattr(exc, 'strerror', None) or exc}")
    except harness.ExperimentError as exc:
        message = f"config error: {exc}"
    else:
        try:
            return _COMMANDS[args.command](cfg)
        except harness.ExperimentError as exc:
            message = f"abort: {exc}"
        except solvers.SolveFailure as exc:
            message = f"solve failed: {exc}"
        except harness.RecoveryFailure as exc:
            message = f"recovery failed: {exc}"
    print(message, file=sys.stderr)
    return 2


def _run(cfg):
    report = harness.run_experiment(cfg)
    sys.stdout.write(harness.render_report(report.records, report))
    print(f"csv: {report.csv_path}")
    return 0 if report.verdict else 1


def _check_load(cfg):
    rep, failure = harness.gate(cfg, harness.build_setup(cfg))
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
    if failure is not None:
        print(f"gate failure: {failure}")
    print(f"gate: {'PASS' if failure is None else 'FAIL'}")
    return 0 if failure is None else 1


def _limit(cfg):
    mesh, obstacle, mat, load, _, kernel = harness.gated_setup(cfg)
    results = harness.limit_triple(mesh, mat, load, obstacle, kernel)
    for variant, res in results.items():
        print(f"min {variant.value:8s} = {res.objective:.12e}")
    s = harness.sandwich_summary([], *(results[v].objective for v in solvers.Variant))
    ok = s["ordered"] and s["equality_gtilde_gi"]
    print(f"ordering and equality: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _recover(cfg):
    rep = harness.recover(cfg, harness.gated_setup(cfg))
    for row in rep["rows"]:
        print(f"h={row['h']:.3e} energy={row['energy']:.6e} gap={row['gap']:+.6e} "
              f"beta={row['beta']:.3e} det_res={row['det_residual']:.2e}")
    ok = rep["positive_part_nonincreasing"]
    print(f"upper-bound trend: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


_COMMANDS = {"run": _run, "check-load": _check_load, "limit": _limit, "recover": _recover}


if __name__ == "__main__":
    sys.exit(main())
