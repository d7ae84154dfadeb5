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
    assert cfg.f_desc.kind == "affine"
    assert cfg.g_descs[0][0] == "top"
    assert cfg.h_list == (0.2, 0.1)
    # the retired directives are accepted so that old configs parse, and only warn
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert [w.split("'")[1] for w in warnings] == ["penalty", "solver", "multistart", "budget"]
    assert all("no effect" in w for w in warnings)
    assert cfg.recovery_gamma == 0.5
    assert cfg.run_recovery
    assert cfg.tol_conv == 1e-2


def test_parse_config_rejects_bad_h_list():
    with pytest.raises(harness.ExperimentError):
        harness.parse_config("h_list 0.1 0.2\nf constant 0 0 -1")
    with pytest.raises(harness.ExperimentError):
        harness.parse_config("nonsense 1")


@pytest.mark.parametrize("line", ["recovery 0.5 16", "domain cube x", "f bogus 1 2 3",
                                  "g top constant 0 0 1", "material yeoh 1 0.2",
                                  "tol_conv 1 2", "seed 1 2", "domain box 2 2 2 1 1",
                                  "f affine 0 0 0 0 0 0 -1 0 0 0 0",
                                  "g region=top constant 0 0 1 1", "domain sphere 2",
                                  "material neo 1 0 0", "nonsense 1"])
def test_parse_config_names_a_malformed_line(line):
    with pytest.raises(harness.ExperimentError, match=f"line 2 '{line}'"):
        harness.parse_config(f"domain cube 1\n{line}\nf constant 0 0 -1")


@pytest.mark.parametrize("line", ["multistart 1234 1", "penalty 0.1 100 3",
                                  "continuation 100 10 3", "solver 5000 1e-8", "budget 2000",
                                  "penalty 100 10 0", "solver 5000"])
def test_retired_directive_warns_once_and_sets_nothing(line, caplog):
    base = "domain cube 1\nh_list 0.2 0.1\nseed 3\n"
    with caplog.at_level(logging.WARNING, logger="signorini_lab.harness"):
        cfg = harness.parse_config(base + line)
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 1
    assert warnings[0].startswith(f"config directive '{line.split()[0]}' has no effect: ")
    assert cfg == harness.parse_config(base)


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
    assert first.termination.startswith("direct(identity)")
    assert second.termination.startswith("direct(warm)")


def test_sweep_warm_starts_from_the_last_success(tmp_path, monkeypatch):
    # a failed h leaves the chain at the last minimizer, rescaled to each later h
    solve, calls, results = solvers.minimize_nonlinear, [], []

    def fail_second(problem):
        calls.append(problem)
        if len(calls) == 2:
            raise solvers.SolveFailure("forced")
        results.append(solve(problem))
        return results[-1]

    monkeypatch.setattr(solvers, "minimize_nonlinear", fail_second)
    cfg = harness.parse_config(FAST_CONFIG.format(out=tmp_path.as_posix()).replace(
        "h_list 0.3 0.15", "h_list 0.3 0.15 0.075"))
    records = harness.run_experiment(cfg).records
    assert [r.termination.split("(")[0] for r in records] == [
        "direct", "failed: forced", "direct"]
    nodes, y1 = calls[0].mesh.nodes, results[0].field.y
    assert calls[0].warm_start is None
    for call, h in zip(calls[1:], (0.15, 0.075)):
        assert np.array_equal(call.warm_start, (nodes + (h / 0.3) * (y1 - nodes)).ravel())


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


@pytest.mark.parametrize("defect, warns", [(1e-6, False), (1e-3, True)])
def test_equality_warning_follows_the_sandwich(defect, warns, tmp_path, monkeypatch, caplog):
    # min E^I raised to 1e4 makes the sandwich's scale 1e-8 (1 + 1e4): a G~ = G
    # defect of 1e-6 is above 1e-8 (1 + |min G|) but within it, and logs
    # nothing; one of 1e-3 is above both and is the warning
    triple = harness.limit_triple

    def shifted(*args):
        results = triple(*args)
        results[solvers.Variant.EI].objective = 1e4
        results[solvers.Variant.GTILDE].objective = results[solvers.Variant.GI].objective - defect
        return results

    monkeypatch.setattr(harness, "limit_triple", shifted)
    cfg = harness.parse_config(FAST_CONFIG.format(out=tmp_path.as_posix()))
    with caplog.at_level(logging.WARNING, logger="signorini_lab.harness"):
        report = harness.run_experiment(cfg)
    assert defect > 1e-8 * (1.0 + abs(report.min_gi))
    assert report.sandwich["equality_gtilde_gi"] is not warns
    logged = [r.getMessage() for r in caplog.records if "limit equality defect" in r.getMessage()]
    assert logged == ([f"limit equality defect: {report.sandwich['equality_defect']:.3e}"]
                      if warns else [])


def _count_limit_set_up(monkeypatch):
    """Counts of the limit set-up's assemblies and the (H size, working set)
    of every working-set factorization, recorded through monkeypatch."""
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
    return counts, factored


def test_limit_triple_shares_the_set_up(yeoh, monkeypatch):
    # E^I and G^I have one H and one B, and G^I's QP at theta = 0 is E^I's:
    # one limit_triple assembles the div rows once and each H once, and
    # factors no working set of one H twice. The set-up stays on the mesh, so
    # separate minimize_limit calls after it assemble and factor nothing new
    # and give exactly the same results
    from test_solvers import scan_load

    mesh = sl.build_box_mesh(2)   # a fresh mesh: its div null space is not cached yet
    obstacle = sl.extract_obstacle(mesh)
    load = scan_load(mesh, np.random.default_rng(3), amplitude=10.0)
    kernel = sl.KernelClass.ROTATIONS_ABOUT_E3
    counts, factored = _count_limit_set_up(monkeypatch)
    results = harness.limit_triple(mesh, yeoh, load, obstacle, kernel)
    assert counts == {"assemble_strain_hessian": 2, "assemble_div_matrix": 1}
    assert factored and len(factored) == len(set(factored))
    before = (dict(counts), len(factored))
    for variant, res in results.items():
        alone = solvers.minimize_limit(solvers.QuadraticProblem(
            mesh=mesh, material=yeoh, load=load, obstacle=obstacle, variant=variant,
            kernel_class=kernel))
        assert alone.objective == res.objective, variant
        assert alone.theta_star == res.theta_star, variant
        assert np.array_equal(alone.field.u, res.field.u), variant
    assert (counts, len(factored)) == before


def test_limit_set_up_is_keyed_by_the_material_constants(monkeypatch):
    # the set-up lives on the mesh under the material's constants: two
    # materials on one mesh each get their own, exactly as on a mesh of their
    # own, a new material object of the same constants reuses it, and a
    # repeated solve adds no cache entry
    from test_solvers import scan_load

    mesh = sl.build_box_mesh(2)
    load = scan_load(mesh, np.random.default_rng(3), amplitude=10.0)
    soft, stiff = sl.yeoh_material(1.0, 0.2, 0.1), sl.yeoh_material(2.0, 0.2, 0.1)

    def solve(on_mesh, mat, variant):
        return solvers.minimize_limit(solvers.QuadraticProblem(
            mesh=on_mesh, material=mat, load=load, obstacle=sl.extract_obstacle(on_mesh),
            variant=variant, kernel_class=sl.KernelClass.ROTATIONS_ABOUT_E3))

    on_one = {(mat.c1, v): solve(mesh, mat, v) for mat in (soft, stiff) for v in solvers.Variant}
    for mat in (soft, stiff):
        for v in solvers.Variant:
            own = solve(sl.build_box_mesh(2), mat, v)
            assert on_one[mat.c1, v].objective == own.objective, (mat.c1, v)
            assert np.array_equal(on_one[mat.c1, v].field.u, own.field.u), (mat.c1, v)
    for v in solvers.Variant:
        assert on_one[1.0, v].objective != on_one[2.0, v].objective, v

    keys = set(mesh._cache)
    counts, factored = _count_limit_set_up(monkeypatch)
    for v in solvers.Variant:
        again = solve(mesh, sl.yeoh_material(1.0, 0.2, 0.1), v)
        assert again.objective == on_one[1.0, v].objective, v
        assert np.array_equal(again.field.u, on_one[1.0, v].field.u), v
        solve(mesh, stiff, v)
    assert counts == {"assemble_strain_hessian": 0, "assemble_div_matrix": 0}
    assert factored == []
    assert set(mesh._cache) == keys


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
        assert all(m.rsplit(": ", 1)[1] in ("ok", "no-convergence", "active-set-cycling")
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
    cfg_path.write_text("domain cube 1\nrecovery 0.5 16\n")
    assert cli_main(["run", cfg_path.as_posix()]) == 2
    assert "config error: line 2 'recovery 0.5 16'" in capsys.readouterr().err


def test_cli_missing_config_file_is_reported_as_missing(tmp_path, capsys):
    # a path that does not exist was once parsed as the one-line config
    # text `<path>`: "unknown config directive"
    missing = (tmp_path / "no_such.cfg").as_posix()
    for command in ("run", "check-load", "limit", "recover"):
        assert cli_main([command, missing]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: cannot read {missing}: No such file or directory\n", command


@pytest.mark.parametrize("line", ["f constant 0 0", "domain box 2 2", "domain cube 0",
                                  "material yeoh -1 0 0", "tol_conv 1 2"])
def test_cli_rejects_values_of_the_wrong_count_or_range(line, tmp_path, capsys):
    # each of these is a config error, not a traceback or NaN records
    cfg_path = tmp_path / "bad.txt"
    cfg_path.write_text(FAST_CONFIG.format(out=(tmp_path / "out").as_posix())
                        + line + "\n")
    for command in ("run", "check-load", "limit", "recover"):
        assert cli_main([command, cfg_path.as_posix()]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err, command
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", [
    "f constant nan 0 -1", "f constant inf 0 -1", "f affine 0.5 0 0 0 0 0 0 0 nan -0.25 0 -1",
    "g region=top constant 0 nan 0", "material yeoh nan 0.2 0.1", "domain box 2 2 2 inf 1 1",
    "recovery nan 16 4", "tol_conv nan", "tol_conv inf", "tol_conv 0", "tol_conv -1e-3"])
def test_cli_rejects_non_finite_values(line, tmp_path, capsys):
    # a non-finite load value, material constant or box length once ended
    # every command in a ValueError traceback with exit code 1, a FAIL
    # verdict's code (a gamma of nan ended `lab recover` so); tol_conv nan
    # printed a FAIL against a threshold of nan, and tol_conv inf passed every
    # sweep
    cfg_path = tmp_path / "bad.txt"
    cfg_path.write_text(f"domain cube 2\noutput {(tmp_path / 'out').as_posix()}\n{line}\n")
    for command in ("run", "check-load", "limit", "recover"):
        assert cli_main([command, cfg_path.as_posix()]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith(f"config error: line 3 {line!r}: "), err
        assert err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def _write_cube1_mesh(path, lift=0.0, last_tet=None):
    """Write the 1x1x1 box mesh to path in the text mesh format, its nodes
    lifted by `lift` and its last tet replaced by `last_tet` when given."""
    mesh1 = sl.build_box_mesh(1)
    tets = [" ".join(map(str, t)) for t in mesh1.tets]
    rows = [f"nodes {mesh1.num_nodes}",
            *(f"{x:g} {y:g} {z + lift:g}" for x, y, z in mesh1.nodes),
            f"tets {mesh1.num_elements}", *tets[:-1], last_tet or tets[-1]]
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("lift, last_tet, message", [
    (0.0, "0 1 2 8", "outside 0..7"),     # once an IndexError
    (1.0, None, "no boundary node on {x3 = 0}"),   # once an ObstacleError
])
def test_cli_malformed_mesh_file_is_a_one_line_error(lift, last_tet, message, tmp_path, capsys):
    mesh_path = _write_cube1_mesh(tmp_path / "bad.mesh", lift, last_tet)
    cfg_path = tmp_path / "bad.txt"
    cfg_path.write_text(FAST_CONFIG.format(out=(tmp_path / "out").as_posix())
                        + f"domain mesh {mesh_path.as_posix()}\n")
    for command in ("run", "check-load", "limit", "recover"):
        assert cli_main([command, cfg_path.as_posix()]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, command
        assert f"mesh file {mesh_path.as_posix()!r}" in err and message in err, err
    assert not (tmp_path / "out").exists()


def test_cli_mesh_path_that_is_a_directory_is_a_one_line_error(tmp_path, capsys):
    # opening it once ended every command in an IsADirectoryError traceback
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(FAST_CONFIG.format(out=(tmp_path / "out").as_posix())
                        + f"domain mesh {tmp_path.as_posix()}\n")
    for command in ("run", "check-load", "limit", "recover"):
        assert cli_main([command, cfg_path.as_posix()]) == 2, command
        assert capsys.readouterr().err == f"abort: mesh file {tmp_path.as_posix()!r}: Is a directory\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, module, name", [
    ("run", harness, "limit_triple"), ("limit", harness, "limit_triple"),
    ("recover", solvers, "minimize_limit")], ids=["run", "limit", "recover"])
def test_cli_failed_limit_solve_is_a_one_line_error(command, module, name, tmp_path, capsys,
                                                    monkeypatch):
    # a limit QP that does not converge (as on cube 3 with its interior nodes
    # moved by up to 1e-7 of a cell) once ended each command in a traceback
    def fail(*args, **kwargs):
        raise solvers.SolveFailure("active-set QP did not converge")

    monkeypatch.setattr(module, name, fail)
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(FAST_CONFIG.format(out=(tmp_path / "out").as_posix()))
    assert cli_main([command, cfg_path.as_posix()]) == 2
    assert capsys.readouterr().err == "solve failed: active-set QP did not converge\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("domain, region, message", [
    ("box", "bogus", "box mesh: unknown boundary region 'bogus'"),
    ("mesh", "top", "named region 'top' requires a box mesh"),
], ids=["box", "mesh"])
@pytest.mark.parametrize("command", ["run", "check-load", "limit", "recover"])
def test_cli_surface_load_on_a_missing_region_is_a_one_line_error(command, domain, region,
                                                                  message, tmp_path, capsys):
    # the load vector is assembled in the set-up, inside its mesh-error guard:
    # a region the mesh does not have once ended every command in a MeshError
    # traceback with exit code 1
    text = FAST_CONFIG.format(out=(tmp_path / "out").as_posix())
    text += f"g region={region} constant 0 0 -1\n"
    if domain == "mesh":
        mesh_path = _write_cube1_mesh(tmp_path / "cube.mesh")
        text += f"domain mesh {mesh_path.as_posix()}\n"
        message = f"mesh file {mesh_path.as_posix()!r}: {message}"
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(text)
    assert cli_main([command, cfg_path.as_posix()]) == 2
    err = capsys.readouterr().err
    assert err == f"abort: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cli_run_output_path_that_is_a_file_aborts_before_the_sweep(tmp_path, capsys,
                                                                    monkeypatch):
    # `output` naming an existing file once cost the whole sweep and then a
    # FileExistsError traceback; the directory is made before the first h
    calls = []
    monkeypatch.setattr(solvers, "minimize_nonlinear", lambda *a: calls.append(a))
    out = tmp_path / "out"
    out.write_text("")
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(FAST_CONFIG.format(out=out.as_posix()))
    assert cli_main(["run", cfg_path.as_posix()]) == 2
    assert capsys.readouterr().err == f"abort: output {out.as_posix()!r}: File exists\n"
    assert calls == []


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


@pytest.mark.parametrize("load", ["f constant 1 0 -1", "f constant 0 0 1"],
                         ids=["horizontal", "upward"])
def test_cli_limit_and_recover_abort_on_a_load_the_gate_rejects(load, tmp_path, capsys):
    # E^I is unbounded below along a horizontal resultant, and an upward one
    # has no kernel class: `lab limit` and `lab recover` once printed finite
    # minima and PASS for the first, and a LoadError traceback for the second.
    # They start from the gated set-up of `lab run` and end on its abort line
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(RECOVERY_CONFIG.replace("f constant 0 0 -1", load)
                        .format(out=(tmp_path / "out").as_posix()))
    assert cli_main(["run", cfg_path.as_posix()]) == 2
    err = capsys.readouterr().err
    assert err.startswith("abort: admissibility failure: ") and err.count("\n") == 1
    for command in ("limit", "recover"):
        assert cli_main([command, cfg_path.as_posix()]) == 2, command
        assert capsys.readouterr() == ("", err), command
    assert not (tmp_path / "out").exists()


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


FLOW_ESCAPE_CONFIG = """domain cube 2
material yeoh 1.0 0.2 0.1
f constant 0 0 -30
h_list 0.8
recovery 4.0 16 4
output {out}
"""
FLOW_ESCAPE = "trajectory left the validated neighborhood; existence time exceeded"


def test_cli_recover_reports_a_flow_that_leaves_its_box(tmp_path, capsys):
    # the flow leaves the box where the mollified field is defined, and an RK
    # stage's box check raises FlowDomainError (the base points are not the
    # flow's reach inside that box, so the anchor's reach check cannot stand
    # in for it); `lab recover` reports it as a failed recovery
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(FLOW_ESCAPE_CONFIG.format(out=(tmp_path / "out").as_posix()))
    assert cli_main(["recover", cfg_path.as_posix()]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"recovery failed: {FLOW_ESCAPE}\n") and "Traceback" not in err


def test_cli_run_reports_a_flow_that_leaves_its_box(tmp_path, capsys):
    # under `run_recovery 1` the same FlowDomainError goes into report.txt,
    # and the sweep's files are still written; the single h's gap fails the
    # verdict, so the exit code is 1
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(FLOW_ESCAPE_CONFIG.format(out=out.as_posix()) + "run_recovery 1\n")
    assert cli_main(["run", cfg_path.as_posix()]) == 1
    capsys.readouterr()
    assert (out / "sweep.csv").is_file()
    assert f"recovery: error: {FLOW_ESCAPE}\n" in (out / "report.txt").read_text()
