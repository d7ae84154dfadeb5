"""In-memory span tracer and the wrappers that attach it to the package's layers.

Every wrap point is a module or class attribute that the calling code looks up
at call time, so rebinding it from here intercepts the call without touching
the package. Each wrapper passes arguments and results through unchanged and
re-raises whatever the wrapped callable raises. Nothing is wrapped until
`Tracer.install` runs, and `Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict

# Number of h values the acceptance sweep runs; one per-h metric each.
SWEEP_H_COUNT = 4


def unit(name):
    """Unit of a per-layer metric, read off its name."""
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


class Tracer:
    """Spans (name, start, end, parent, pass id) and per-pass counters.

    Spans live in plain lists until `write` dumps them. The parent of a span
    is the index of the span that was open when it started.
    """

    def __init__(self):
        self.spans = []          # [name, start, end, parent, pass_id]
        self.counts = defaultdict(lambda: defaultdict(float))
        self.maxima = defaultdict(lambda: defaultdict(float))
        self.pass_id = None
        self._stack = []
        self._saved = []

    # -- spans and counters -------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def count(self, name, value=1.0):
        self.counts[self.pass_id][name] += value

    def peak(self, name, value):
        slot = self.maxima[self.pass_id]
        slot[name] = max(slot[name], value)

    def span(self, name, fn, after=None, on_error=None):
        """Wrap `fn` in a span; `after(args, kwargs, result)` reads the result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if on_error is not None:
                    on_error()
                raise
            finally:
                self.end()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installing wrappers ------------------------------------------------

    def wrap(self, owner, attr, wrapper_factory):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install(self):
        """Wrap each layer's call boundaries on the benchmark paths."""
        from signorini_lab import geometry, harness, kinematics, loads, recovery, solvers

        # geometry: mesh construction (the extended mesh of the recovery
        # reaches build_box_mesh through recovery's own binding)
        for owner in (geometry, recovery):
            self.wrap(owner, "build_box_mesh", lambda f: self.span("geometry.mesh", f))
        self.wrap(geometry, "extract_obstacle", lambda f: self.span("geometry.mesh", f))

        # loads: the gate, its Nelder-Mead ascent, kernel classification and
        # the load vector under each binding its callers use
        self.wrap(loads, "verify_global_admissibility", lambda f: self.span("loads.gate", f))
        self.wrap(loads, "classify_kernel", lambda f: self.span("loads.classify_kernel", f))
        self.wrap(loads, "minimize", lambda f: self.span(
            "loads.ascent", f, after=lambda a, k, res: self.count("loads.ascent.nfev", res.nfev)))
        for owner in (loads, solvers, recovery):
            self.wrap(owner, "load_vector", lambda f: self.span("loads.load_vector", f))

        # kinematics: per-h rotation, translation and displacement diagnostics
        for attr in ("optimal_rotation", "translations", "extract_displacement"):
            self.wrap(kinematics, attr, lambda f: self.span("kinematics.diag", f))

        # solvers
        self.wrap(solvers, "minimize", self._wrap_lbfgsb)
        self.wrap(solvers, "minimize_nonlinear", self._wrap_nonlinear)
        self.wrap(solvers, "minimize_limit", lambda f: self.span("solvers.limit", f))
        self.wrap(solvers, "active_set_qp", self._wrap_qp)
        for attr in ("assemble_strain_hessian", "assemble_div_matrix"):
            self.wrap(solvers, attr, lambda f: self.span("solvers.assembly", f))

        # recovery
        self.wrap(recovery, "build_recovery_sequence", lambda f: self.span(
            "recovery.build", f, on_error=lambda: self.count("recovery.failures")))
        self.wrap(recovery, "mollify", self._wrap_mollify)
        self.wrap(recovery, "integrate_flow", lambda f: self.span(
            "recovery.flow", f, after=lambda a, k, res: self.count("recovery.flow.steps", res.steps)))
        self.wrap(recovery.ReflectedExtension, "locate", lambda f: self.span(
            "recovery.locate", f,
            after=lambda a, k, res: self.count("recovery.locate.points", len(res[0]))))
        self.wrap(recovery, "verify_upper_bound", lambda f: self.span(
            "recovery.upper_bound", f, on_error=lambda: self.count("recovery.failures")))

        # harness: the experiment runner and its output files
        self.wrap(harness, "run_experiment", lambda f: self.span("harness.run_experiment", f))
        self.wrap(harness, "emit_outputs", lambda f: self.span(
            "harness.emit", f, after=lambda a, k, paths: self.count(
                "harness.emit.bytes", sum(os.path.getsize(p) for p in paths))))

    def _wrap_lbfgsb(self, minimize):
        """scipy's minimize as solvers binds it; its `fun` is the AL kernel."""

        @functools.wraps(minimize)
        def wrapper(fun, x0, *args, **kwargs):
            kernel = self.span("solvers.kernel", fun)
            self.begin("solvers.lbfgsb")
            try:
                res = minimize(kernel, x0, *args, **kwargs)
            finally:
                self.end()
            self.count("solvers.lbfgsb.calls")
            self.count("solvers.lbfgsb.nit", res.nit)
            self.count("solvers.lbfgsb.nfev", res.nfev)
            return res

        return wrapper

    def _wrap_nonlinear(self, minimize_nonlinear):
        @functools.wraps(minimize_nonlinear)
        def wrapper(problem, *args, **kwargs):
            calls_before = self.counts[self.pass_id]["solvers.lbfgsb.calls"]
            self.begin("solvers.nonlinear")
            try:
                res = minimize_nonlinear(problem, *args, **kwargs)
            except Exception:
                self.count("solvers.nonlinear.failures")
                raise
            finally:
                self.end()
            self.count("solvers.nonlinear.solved")
            self.count("solvers.lbfgsb.winning", len(res.trace))
            self.count("solvers.lbfgsb.in_nonlinear",
                       self.counts[self.pass_id]["solvers.lbfgsb.calls"] - calls_before)
            if "+newton" in res.termination:
                self.count("solvers.polish.ok")
            return res

        return wrapper

    def _wrap_qp(self, active_set_qp):
        traced = self.span("solvers.qp", active_set_qp)

        @functools.wraps(active_set_qp)
        def wrapper(h, g, a_eq, b_eq, bound_idx, *args, **kwargs):
            warm = kwargs.get("warm_working")
            x, info = traced(h, g, a_eq, b_eq, bound_idx, *args, **kwargs)
            n_eq = a_eq.shape[0] if a_eq is not None and len(a_eq) else 0
            first = len(bound_idx) if warm is None else len(warm)
            width = max(first, len(info["working_set"]))
            self.count("solvers.qp.calls")
            self.count("solvers.qp.iterations", info["iterations"])
            self.peak("solvers.qp.kkt_dim_max", h.shape[0] + n_eq + width)
            return x, info

        return wrapper

    def _wrap_mollify(self, mollify):
        """Count RK stages through the returned field's gradient callable,
        which the flow's right-hand side calls exactly once per stage."""

        def after(args, kwargs, fld):
            grad_fn = fld.grad_fn

            def counted(points):
                self.count("recovery.flow.rhs_evals")
                return grad_fn(points)

            fld.grad_fn = counted

        return self.span("recovery.mollify", mollify, after=after)

    # -- reduction ----------------------------------------------------------

    def self_times(self, pass_ids):
        """Per span name: (count, total s, self s), summed over the passes."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, pid in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid in pass_ids:
                row = table[name]
                row[0] += 1
                row[1] += end - start
                row[2] += end - start - child[i]
        return dict(table)

    def pass_metrics(self, pid):
        """Per-layer metric values of one traced pass."""
        table = self.self_times({pid})
        c = self.counts[pid]

        def total(name):
            return table.get(name, (0, 0.0, 0.0))[1]

        def calls(name):
            return float(table.get(name, (0, 0.0, 0.0))[0])

        def ratio(num, den):
            return num / den if den else 0.0

        nonlinear = [end - start for name, start, end, parent, p in self.spans
                     if p == pid and name == "solvers.nonlinear"]
        m = {
            "solvers.kernel.s": total("solvers.kernel"),
            "solvers.kernel.calls": calls("solvers.kernel"),
            "solvers.kernel.us_per_call": 1e6 * ratio(total("solvers.kernel"),
                                                      calls("solvers.kernel")),
            "solvers.lbfgsb.s": table.get("solvers.lbfgsb", (0, 0.0, 0.0))[2],
            "solvers.lbfgsb.calls": c["solvers.lbfgsb.calls"],
            "solvers.lbfgsb.nit": c["solvers.lbfgsb.nit"],
            "solvers.lbfgsb.nfev": c["solvers.lbfgsb.nfev"],
            "solvers.lbfgsb.useful_ratio": ratio(c["solvers.lbfgsb.winning"],
                                                 c["solvers.lbfgsb.in_nonlinear"]),
            "solvers.nonlinear.s": total("solvers.nonlinear"),
        }
        for k in range(SWEEP_H_COUNT):
            m[f"solvers.nonlinear.h{k + 1}.s"] = nonlinear[k] if k < len(nonlinear) else 0.0
        m.update({
            "solvers.nonlinear.self_s": table.get("solvers.nonlinear", (0, 0.0, 0.0))[2],
            "solvers.polish.ok_ratio": ratio(c["solvers.polish.ok"], c["solvers.nonlinear.solved"]),
            "solvers.nonlinear.failures": c["solvers.nonlinear.failures"],
            "solvers.limit.s": total("solvers.limit"),
            "solvers.limit.calls": calls("solvers.limit"),
            "solvers.qp.s": total("solvers.qp"),
            "solvers.qp.calls": c["solvers.qp.calls"],
            "solvers.qp.iterations": c["solvers.qp.iterations"],
            "solvers.qp.kkt_dim_max": self.maxima[pid]["solvers.qp.kkt_dim_max"],
            "solvers.assembly.s": total("solvers.assembly"),
            "loads.gate.s": total("loads.gate"),
            "loads.ascent.s": total("loads.ascent"),
            "loads.ascent.nfev": c["loads.ascent.nfev"],
            "loads.load_vector.s": total("loads.load_vector"),
            "geometry.mesh.s": total("geometry.mesh"),
            "geometry.mesh.calls": calls("geometry.mesh"),
            "kinematics.diag.s": total("kinematics.diag"),
            "recovery.build.s": total("recovery.build"),
            "recovery.mollify.s": total("recovery.mollify"),
            "recovery.flow.s": total("recovery.flow"),
            "recovery.flow.steps": c["recovery.flow.steps"],
            "recovery.flow.rhs_evals": c["recovery.flow.rhs_evals"],
            "recovery.flow.useful_ratio": ratio(4.0 * c["recovery.flow.steps"],
                                                c["recovery.flow.rhs_evals"]),
            "recovery.locate.s": total("recovery.locate"),
            "recovery.locate.calls": calls("recovery.locate"),
            "recovery.locate.points": c["recovery.locate.points"],
            "recovery.upper_bound.s": total("recovery.upper_bound"),
            "recovery.failures": c["recovery.failures"],
            "harness.emit.s": total("harness.emit"),
            "harness.emit.bytes": c["harness.emit.bytes"],
            "trace.pass_s": total("pass"),
            "trace.spans": float(sum(row[0] for row in table.values())),
        })
        return m

    def median_metrics(self, pass_ids):
        per_pass = [self.pass_metrics(pid) for pid in pass_ids]
        return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}

    def write(self, path, header):
        """Dump the spans as JSON lines after a header line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, pid in self.spans:
                fh.write(json.dumps([name, start, end, parent, pid]) + "\n")
