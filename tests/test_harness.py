import logging
import os
from pathlib import Path

import numpy as np
import pytest

import signorini_lab as sl
from signorini_lab import harness, solvers
from signorini_lab.cli import main as cli_main
from signorini_lab.harness import ConvergenceRecord, verdict_from_records

FAST_CONFIG = """# tiny but complete sweep
domain cube 1
material yeoh 1.0 0.2 0.1
penalty 100 10 3
f constant 0 0 -1
h_list 0.3 0.15
solver 4000 1e-8
output {out}
seed 7
budget 1000
"""


def fake_record(h, gap, min_gtilde=-0.02):
    return ConvergenceRecord(
        h=h, inf_gh=min_gtilde + gap, gap=gap, t_j=0.1, phi_rj=-1e-9,
        det_residual=1e-9, active_nodes=4,
        rotation_axis=np.array([0.0, 0.0, 1.0]), rotation_angle=0.0,
        c=np.zeros(3))


def test_parse_config_full(tmp_path, caplog):
    text = """domain box 2 3 1 1.0 2.0 0.5
material yeoh 1.5 0.1 0.05
penalty 50 5 4
f affine 0 0 0 0 0 0 -1 0 0  0 0 -1
g region=top constant 0 0 -0.5
h_list 0.2 0.1
solver 1000 1e-7
multistart 42 2
recovery 0.5 16 4
run_recovery 1
output somewhere
seed 42
tol_conv 1e-2
budget 1200
require_global_phi 0
"""
    with caplog.at_level(logging.WARNING, logger="signorini_lab.harness"):
        cfg = harness.parse_config(text)
    assert cfg.domain == ("box", (2, 3, 1), (1.0, 2.0, 0.5))
    assert cfg.material == (1.5, 0.1, 0.05)
    assert cfg.penalty == (50.0, 5.0, 4)
    assert cfg.f_desc.kind == "affine"
    assert cfg.g_descs[0][0] == "top"
    assert cfg.h_list == (0.2, 0.1)
    # multistart is accepted so that old configs parse, and only warns
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and "multistart" in warnings[0] and "no effect" in warnings[0]
    assert not hasattr(cfg, "multistart_seed") and not hasattr(cfg, "multistart_n")
    assert cfg.recovery_gamma == 0.5
    assert cfg.run_recovery
    assert cfg.tol_conv == 1e-2


def test_parse_config_rejects_bad_h_list():
    with pytest.raises(harness.ExperimentError):
        harness.parse_config("h_list 0.1 0.2\nf constant 0 0 -1")
    with pytest.raises(harness.ExperimentError):
        harness.parse_config("nonsense 1")


@pytest.mark.parametrize("line", ["solver 5000", "domain cube x", "f bogus 1 2 3",
                                  "g top constant 0 0 1", "material yeoh 1 0.2",
                                  "penalty 100 10 3 4", "seed 1 2", "domain box 2 2 2 1 1",
                                  "f affine 0 0 0 0 0 0 -1 0 0 0 0",
                                  "g region=top constant 0 0 1 1"])
def test_parse_config_names_a_malformed_line(line):
    with pytest.raises(harness.ExperimentError, match=f"line 2 '{line}'"):
        harness.parse_config(f"domain cube 1\n{line}\nf constant 0 0 -1")


def test_verdict_logic_pure():
    recs = [fake_record(h, g) for h, g in zip((0.2, 0.1, 0.05, 0.025),
                                              (4e-4, 2e-4, 1e-4, 5e-5))]
    out = verdict_from_records(recs, 5e-3, -0.02)
    assert out["pass"]
    # increasing tail fails
    recs_bad = [fake_record(h, g) for h, g in zip((0.2, 0.1, 0.05),
                                                  (1e-5, 2e-5, 4e-5))]
    assert not verdict_from_records(recs_bad, 5e-3, -0.02)["pass"]
    # large final gap fails
    recs_big = [fake_record(h, g) for h, g in zip((0.2, 0.1, 0.05),
                                                  (3e-1, 2e-1, 1e-1))]
    assert not verdict_from_records(recs_big, 5e-3, -0.02)["pass"]
    # negative gaps pass trivially via the positive part
    recs_neg = [fake_record(h, g) for h, g in zip((0.2, 0.1, 0.05),
                                                  (-1e-3, -2e-3, -1e-4))]
    assert verdict_from_records(recs_neg, 5e-3, -0.02)["pass"]


def test_emit_outputs_csv_shape(tmp_path):
    recs = [fake_record(h, 1e-4) for h in (0.2, 0.1, 0.05, 0.025)]
    csv_path, report_path = harness.emit_outputs(recs, tmp_path.as_posix())
    lines = Path(csv_path).read_text().strip().split("\n")
    assert len(lines) == 5
    assert lines[0] == harness.CSV_HEADER
    assert os.path.exists(report_path)


def test_emit_outputs_deterministic(tmp_path):
    recs = [fake_record(h, 1e-4) for h in (0.2, 0.1)]
    p1, r1 = harness.emit_outputs(recs, (tmp_path / "a").as_posix())
    p2, r2 = harness.emit_outputs(recs, (tmp_path / "b").as_posix())
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
    assert Path(r1).read_bytes() == Path(r2).read_bytes()


def test_emit_outputs_empty_records(tmp_path):
    with pytest.raises(harness.ExperimentError):
        harness.emit_outputs([], tmp_path.as_posix())


def test_gap_recomputable(tmp_path):
    cfg = harness.parse_config(FAST_CONFIG.format(out=tmp_path.as_posix()))
    report = harness.run_experiment(cfg)
    for rec in report.records:
        assert abs(rec.gap - (rec.inf_gh - report.min_gtilde)) < 1e-12


def test_sweep_runs_one_warm_started_path(tmp_path):
    cfg = harness.parse_config(FAST_CONFIG.format(out=tmp_path.as_posix()))
    first, second = harness.run_experiment(cfg).records
    assert first.termination.startswith("augmented-lagrangian(identity)")
    assert second.termination.startswith("augmented-lagrangian(warm)")


def test_run_experiment_byte_stable(tmp_path):
    cfg1 = harness.parse_config(FAST_CONFIG.format(out=(tmp_path / "r1").as_posix()))
    cfg2 = harness.parse_config(FAST_CONFIG.format(out=(tmp_path / "r2").as_posix()))
    rep1 = harness.run_experiment(cfg1)
    rep2 = harness.run_experiment(cfg2)
    assert Path(rep1.csv_path).read_bytes() == Path(rep2.csv_path).read_bytes()
    assert Path(rep1.report_path).read_bytes() == Path(rep2.report_path).read_bytes()


def test_zero_load_run(tmp_path):
    cfg = harness.parse_config(
        "domain cube 1\nmaterial yeoh 1 0.2 0.1\nh_list 0.3 0.15\n"
        f"output {tmp_path.as_posix()}\nbudget 1000")
    report = harness.run_experiment(cfg)
    assert report.degenerate
    for rec in report.records:
        assert abs(rec.gap) < 1e-10
    assert report.min_gtilde == pytest.approx(0.0, abs=1e-12)


def test_upward_load_aborts(tmp_path):
    cfg = harness.parse_config(
        "domain cube 1\nmaterial yeoh 1 0.2 0.1\nf constant 0 0 1\n"
        f"h_list 0.2\noutput {tmp_path.as_posix()}\nbudget 1000")
    with pytest.raises(harness.ExperimentError, match="L[(]e3[)]|L\\(e3\\)"):
        harness.run_experiment(cfg)


def test_horizontal_load_aborts(tmp_path):
    cfg = harness.parse_config(
        "domain cube 1\nmaterial yeoh 1 0.2 0.1\nf constant 1 0 -1\n"
        f"h_list 0.2\noutput {tmp_path.as_posix()}\nbudget 1000")
    with pytest.raises(harness.ExperimentError, match="admissibility"):
        harness.run_experiment(cfg)


def test_global_phi_gate_optional(tmp_path):
    # gravity fails the full rotation sweep (flip family) but passes the
    # default gate; requiring the global condition aborts the run
    cfg = harness.parse_config(
        "domain cube 1\nmaterial yeoh 1 0.2 0.1\nf constant 0 0 -1\n"
        f"h_list 0.2\noutput {tmp_path.as_posix()}\nbudget 1000\nrequire_global_phi 1")
    with pytest.raises(harness.ExperimentError, match="Phi"):
        harness.run_experiment(cfg)


def test_sandwich_check(tmp_path):
    cfg = harness.parse_config(FAST_CONFIG.format(out=tmp_path.as_posix()))
    report = harness.run_experiment(cfg)
    out = report.sandwich
    assert out["ordered"] and out["equality_gtilde_gi"] and out["bounded_below"]
    tri = (report.min_gtilde, report.min_gi, report.min_ei)
    assert tri[0] <= tri[1] + 1e-10 and tri[1] <= tri[2] + 1e-10
    # lower-bound slack: inf G_h >= min G~ - slack with small fitted slope
    for h, slack in out["slacks"]:
        assert slack <= max(0.1 * h, 1e-8)


def test_limit_triple_shares_the_set_up(yeoh, monkeypatch):
    # E^I and G^I have one H and one B, and G^I's QP at theta = 0 is E^I's:
    # one limit_triple assembles the div rows once and each H once, and
    # factors no working set of one H twice, with the results of separate
    # minimize_limit calls
    from test_solvers import scan_load

    mesh = sl.build_box_mesh(2)   # a fresh mesh: its div null space is not cached yet
    obstacle = sl.extract_obstacle(mesh)
    load = scan_load(mesh, np.random.default_rng(3), amplitude=10.0)
    kernel = sl.KernelClass.ROTATIONS_ABOUT_E3
    counts = {"assemble_strain_hessian": 0, "assemble_div_matrix": 0}
    factored = []

    def counting(name):
        original = getattr(solvers, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    kkt_factor = solvers._kkt_factor

    def recording_factor(hz, z, working):
        factored.append((hz.shape[0], tuple(working)))
        return kkt_factor(hz, z, working)

    for name in counts:
        monkeypatch.setattr(solvers, name, counting(name))
    monkeypatch.setattr(solvers, "_kkt_factor", recording_factor)
    results = harness.limit_triple(mesh, yeoh, load, obstacle, kernel)
    assert counts == {"assemble_strain_hessian": 2, "assemble_div_matrix": 1}
    assert factored and len(factored) == len(set(factored))
    shared_factored = len(factored)
    for variant, res in results.items():
        alone = solvers.minimize_limit(solvers.QuadraticProblem(
            mesh=mesh, material=yeoh, load=load, obstacle=obstacle, variant=variant,
            kernel_class=kernel))
        tol = 1e-14 * (1.0 + abs(alone.objective))
        assert abs(res.objective - alone.objective) <= tol, variant
        assert abs(res.theta_star - alone.theta_star) <= tol, variant
    # separate calls factor E^I's working sets again for G^I
    assert len(factored) - shared_factored > shared_factored


def test_minimize_limit_refuses_a_set_up_of_another_mesh(mesh2, obstacle2, yeoh, gravity):
    shared = {}
    problem = solvers.QuadraticProblem(mesh=mesh2, material=yeoh, load=gravity,
                                       obstacle=obstacle2, variant=solvers.Variant.EI)
    solvers.minimize_limit(problem, shared=shared)
    other = sl.build_box_mesh(1)
    with pytest.raises(ValueError, match="another mesh"):
        solvers.minimize_limit(solvers.QuadraticProblem(
            mesh=other, material=yeoh, load=gravity, obstacle=sl.extract_obstacle(other),
            variant=solvers.Variant.EI), shared=shared)


def test_cli_run_and_check(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(FAST_CONFIG.format(out=(tmp_path / "out").as_posix()))
    code = cli_main(["run", cfg_path.as_posix()])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: PASS" in out
    assert (tmp_path / "out" / "sweep.csv").exists()

    code = cli_main(["check-load", cfg_path.as_posix()])
    out = capsys.readouterr().out
    assert code == 0
    assert "gate: PASS" in out

    code = cli_main(["limit", cfg_path.as_posix()])
    out = capsys.readouterr().out
    assert code == 0
    assert "ordering and equality: PASS" in out


def test_cli_log_level(tmp_path, capsys, caplog):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(FAST_CONFIG.format(out=(tmp_path / "out").as_posix()))
    package = logging.getLogger("signorini_lab")
    try:
        assert cli_main(["--log-level", "INFO", "run", cfg_path.as_posix()]) == 0
        polish = [r.getMessage() for r in caplog.records
                  if r.name == "signorini_lab.solvers" and "newton polish" in r.getMessage()]
        assert len(polish) == 2  # one per h of the config
        assert all(m.rsplit(": ", 1)[1] in ("ok", "no-convergence", "active-set-cycling",
                                            "rejected-det", "rejected-bound")
                   for m in polish)
        capsys.readouterr()
        assert cli_main(["check-load", cfg_path.as_posix()]) == 0
        assert package.level == logging.WARNING
        with pytest.raises(SystemExit):
            cli_main(["--log-level", "CHATTY", "check-load", cfg_path.as_posix()])
    finally:
        package.setLevel(logging.NOTSET)
    capsys.readouterr()


def test_cli_bad_load_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "bad.txt"
    cfg_path.write_text(
        "domain cube 1\nmaterial yeoh 1 0.2 0.1\nf constant 0 0 1\n"
        f"h_list 0.2\noutput {(tmp_path / 'o').as_posix()}\nbudget 1000")
    assert cli_main(["run", cfg_path.as_posix()]) == 2
    capsys.readouterr()
    assert cli_main(["check-load", cfg_path.as_posix()]) == 1
    capsys.readouterr()
    cfg_path.write_text("domain cube 1\nsolver 5000\n")
    assert cli_main(["run", cfg_path.as_posix()]) == 2
    assert "config error: line 2 'solver 5000'" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["f constant 0 0", "domain box 2 2", "domain cube 0",
                                  "material yeoh -1 0 0", "penalty 100 10 0"])
def test_cli_rejects_values_of_the_wrong_count_or_range(line, tmp_path, capsys):
    # each of these once parsed and then ended `lab run` in a traceback or
    # in NaN records
    cfg_path = tmp_path / "bad.txt"
    cfg_path.write_text(FAST_CONFIG.format(out=(tmp_path / "out").as_posix())
                        + line + "\n")
    for command in ("run", "check-load", "limit", "recover"):
        assert cli_main([command, cfg_path.as_posix()]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err, command
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lift, last_tet, message", [
    (0.0, "0 1 2 8", "outside 0..7"),     # once an IndexError
    (1.0, None, "no boundary node on {x3 = 0}"),   # once an ObstacleError
])
def test_cli_malformed_mesh_file_is_a_one_line_error(lift, last_tet, message, tmp_path, capsys):
    mesh1 = sl.build_box_mesh(1)
    tets = [" ".join(map(str, t)) for t in mesh1.tets]
    rows = [f"nodes {mesh1.num_nodes}",
            *(f"{x:g} {y:g} {z + lift:g}" for x, y, z in mesh1.nodes),
            f"tets {mesh1.num_elements}", *tets[:-1], last_tet or tets[-1]]
    mesh_path = tmp_path / "bad.mesh"
    mesh_path.write_text("\n".join(rows) + "\n")
    cfg_path = tmp_path / "bad.txt"
    cfg_path.write_text(FAST_CONFIG.format(out=(tmp_path / "out").as_posix())
                        + f"domain mesh {mesh_path.as_posix()}\n")
    for command in ("run", "check-load", "limit", "recover"):
        assert cli_main([command, cfg_path.as_posix()]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, command
        assert f"mesh file {mesh_path.as_posix()!r}" in err and message in err, err
    assert not (tmp_path / "out").exists()


RECOVERY_CONFIG = """domain cube 2
material yeoh 1.0 0.2 0.1
f constant 0 0 -1
h_list 1e-3 1e-4
recovery 0.75 8 2
run_recovery 1
output {out}
budget 1000
"""


def test_run_experiment_with_recovery(tmp_path):
    cfg = harness.parse_config(RECOVERY_CONFIG.format(out=tmp_path.as_posix()))
    report = harness.run_experiment(cfg)
    rr = report.recovery_report
    assert rr is not None and "error" not in rr
    assert rr["positive_part_nonincreasing"]
    assert "recovery:" in Path(report.report_path).read_text()


def test_recovery_error_is_reported_not_raised(tmp_path):
    # default gamma at sweep-scale h gives an over-wide mollification radius;
    # the failure lands in the report instead of aborting the sweep
    cfg = harness.parse_config(
        "domain cube 2\nmaterial yeoh 1 0.2 0.1\nf constant 0 0 -1\n"
        "h_list 0.3 0.15\nrecovery 0.25 8 2\nrun_recovery 1\n"
        f"output {tmp_path.as_posix()}\nbudget 1000")
    report = harness.run_experiment(cfg)
    assert report.recovery_report is not None
    assert "error" in report.recovery_report


def test_cli_recover(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(RECOVERY_CONFIG.format(out=(tmp_path / "out").as_posix()))
    code = cli_main(["recover", cfg_path.as_posix()])
    out = capsys.readouterr().out
    assert code == 0
    assert "upper-bound trend: PASS" in out


def test_cli_zero_load_limit_and_recover(tmp_path, capsys):
    # the zero load has every rotation about e3 in its kernel; classify_kernel
    # raises LoadError for it, so no command may call it on this config
    cfg_path = tmp_path / "zero.txt"
    cfg_path.write_text(RECOVERY_CONFIG.replace("f constant 0 0 -1", "f constant 0 0 0")
                        .format(out=(tmp_path / "out").as_posix()))
    assert cli_main(["limit", cfg_path.as_posix()]) == 0
    assert "ordering and equality: PASS" in capsys.readouterr().out
    assert cli_main(["recover", cfg_path.as_posix()]) == 0
    assert "upper-bound trend: PASS" in capsys.readouterr().out


def test_cli_check_load_passes_the_zero_load(tmp_path, capsys):
    # `lab run`, `limit` and `recover` accept the zero load as degenerate but
    # bounded; `check-load` gives the same verdict
    cfg_path = tmp_path / "zero.txt"
    cfg_path.write_text(RECOVERY_CONFIG.replace("f constant 0 0 -1", "f constant 0 0 0")
                        .format(out=(tmp_path / "out").as_posix()))
    assert cli_main(["check-load", cfg_path.as_posix()]) == 0
    assert "gate: PASS" in capsys.readouterr().out


def test_report_render_contains_summary(tmp_path):
    cfg = harness.parse_config(FAST_CONFIG.format(out=tmp_path.as_posix()))
    report = harness.run_experiment(cfg)
    text = Path(report.report_path).read_text()
    assert "min G~^I" in text
    assert "verdict:" in text
    assert "kernel:" in text
