"""Benchmark of the signorini-lab laboratory: the h-sweep, the angle-scanned
limit QPs and the recovery flow.

    python3 perfbench/run.py --workload sweep-cube3 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

One process runs one workload: it builds the inputs from the seed, runs passes
until the next one would end past `--seconds`, and checks every pass. Set-up
is timed in this process and in fresh child processes, and the median is
reported. `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
traced and untraced passes and reports the per-layer metrics of the traced
ones plus the tracing overhead. `--workload all` runs each workload in its own
child process and prints one summary line per workload. The last line of
standard output is one JSON object. See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("sweep-cube3", "limit-scan-cube3", "recovery-cube2")

# One BLAS/OpenMP thread: iteration counts of the nonlinear solver depend on
# the thread count, and they repeat exactly only at a fixed one.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up samples per run: this process plus SETUP_SAMPLES - 1 fresh children.
SETUP_SAMPLES = 3


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Import signorini_lab from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "signorini_lab", "__init__.py")):
        sys.exit(f"perfbench: no package sources under {SRC}")
    sys.path.insert(0, SRC)
    import signorini_lab

    if not os.path.abspath(signorini_lab.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: signorini_lab imported from {signorini_lab.__file__}")
    import scipy.optimize  # noqa: F401  (the solvers' first call would load it)


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(workload, seed):
    import numpy
    import scipy

    nodes, elements = workload.mesh_size
    return {"workload": workload.name, "seed": seed, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": git_commit(), "mesh_nodes": nodes, "mesh_elements": elements}


def child_setup_times(args, count):
    """Set-up seconds of `count` fresh processes running `--setup-only`."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(count):
        child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if child.returncode != 0:
            sys.exit(f"perfbench: set-up child failed: {child.stderr.strip()}")
        times.append(float(child.stdout.split()[-1]))
    return times


def measure(workload, seconds, tracer=None):
    """Run checked passes until the next one would end after `seconds`.

    With a tracer, even passes are traced and odd ones are not, so both
    halves see the same drift of the machine.
    """
    record = {"untraced": [], "traced": [], "traced_ids": [], "problems": [], "gaps": []}
    start = time.perf_counter()
    attempted = 0
    while True:
        traced = tracer is not None and attempted % 2 == 0
        if traced:
            tracer.install()
            tracer.pass_id = attempted
            tracer.begin("pass")
        t0 = time.perf_counter()
        try:
            result = workload.run_pass()
            error = None
        except Exception as exc:  # a pass that raises is a failed pass
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.end()
            tracer.pass_id = None
            tracer.uninstall()
            record["traced_ids"].append(attempted)
        record["traced" if traced else "untraced"].append(elapsed)
        if error is None:
            try:
                problems = workload.check(result)
            except Exception as exc:  # a check that cannot run fails the pass
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        if problems:
            record["problems"].append((attempted, problems))
        else:
            record["gaps"].append(workload.gap_final(result))
        attempted += 1
        so_far = time.perf_counter() - start
        typical = statistics.median(record["untraced"] + record["traced"])
        if attempted >= (2 if tracer else 1) and so_far + typical > seconds:
            break
    record["attempted"] = attempted
    return record


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload, seed, seconds, trace, setup_s):
    """Measure one set-up workload; returns (result, report lines)."""
    from spans import Tracer, unit

    env = environment(workload, seed)
    tracer = Tracer() if trace else None
    record = measure(workload, seconds, tracer)
    attempted = record["attempted"]
    failed = len(record["problems"])
    lines = ["env " + json.dumps(env),
             "pass_s " + json.dumps({"untraced": record["untraced"], "traced": record["traced"]})]
    for index, problems in record["problems"]:
        lines.append(f"failed pass {index}: " + "; ".join(problems))
    fail_frac = f"fail_frac {failed}/{attempted} = {failed / attempted:.3g}"

    if tracer is None:
        walls = record["untraced"]
        metrics = {"setup_s": (setup_s, "s"),
                   "wall_s": (statistics.median(walls), "s"),
                   "peak_rss_mb": (peak_rss_mb(), "MB")}
        gaps = record["gaps"]
        gap = "n/a" if not gaps or gaps[0] is None else f"{statistics.median(gaps):.6e}"
        lines.append(
            f"summary {workload.name}: setup_s {setup_s:.4f} s"
            f" | wall_s {metrics['wall_s'][0]:.4f} s (median of {len(walls)} passes)"
            f" | peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB | {fail_frac}"
            f" | gap_final {gap}")
    else:
        ids = record["traced_ids"]
        values = tracer.median_metrics(ids)
        untraced = statistics.median(record["untraced"])
        values["trace.overhead_s"] = statistics.median(record["traced"]) - untraced
        metrics = {name: (value, unit(name)) for name, value in values.items()}
        lines += self_time_table(tracer, ids)
        path = os.path.join(ROOT, ".perfbench", "spans", f"{workload.name}-seed{seed}.jsonl")
        tracer.write(path, {"env": env, "traced_passes": ids})
        lines.append(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
        lines.append(
            f"summary {workload.name}: traced pass {values['trace.pass_s']:.4f} s, untraced "
            f"{untraced:.4f} s, overhead {values['trace.overhead_s']:+.4f} s | {fail_frac}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, lines


def self_time_table(tracer, ids):
    """Per span name: calls, total and self seconds per traced pass, and share."""
    table = tracer.self_times(set(ids))
    per_pass = len(ids)
    pass_s = table["pass"][1] / per_pass
    rows = sorted(table.items(), key=lambda kv: -kv[1][2])
    out = [f"self time, mean of {per_pass} traced passes of {pass_s:.4f} s",
           f"  {'span':28s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s} {'share':>7s}"]
    for name, (count, total, own) in rows:
        out.append(f"  {name:28s} {count / per_pass:9.0f} {total / per_pass:10.4f}"
                   f" {own / per_pass:10.4f} {total / per_pass / pass_s:7.1%}")
    return out


def run_all(args):
    """Each workload in a child process, so set-up and peak memory stay separate."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            sys.stderr.write(child.stderr)
            print(f"summary {name}: exited with code {child.returncode}")
            status = 1
            continue
        for line in lines[:-1]:
            print(line)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs once and print the set-up seconds")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    pin_threads()
    import_package()
    import workloads

    out_dir = os.path.join(ROOT, ".perfbench", "out", args.workload)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    except ValueError as exc:  # the input guard refused the generated input
        sys.exit(f"perfbench: {exc}")
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(f"{setup_s!r}")
        return 0
    if not args.trace:
        setup_s = statistics.median([setup_s] + child_setup_times(args, SETUP_SAMPLES - 1))
    result, lines = run_workload(workload, args.seed, args.seconds, args.trace, setup_s)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
