"""The benchmark's span tracer (perfbench/spans.py) wraps package attributes by
name. Installing it must find every one of them, and uninstalling it must put
each original object back, so a rename in the package fails here."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_wrap_point():
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        wrapped = [getattr(owner, attr) is not original for owner, attr, original in saved]
    finally:
        tracer.uninstall()
    assert saved and all(wrapped)
    assert all(getattr(owner, attr) is original for owner, attr, original in saved)
    assert not tracer._saved


def test_tracer_counts_every_rk_stage_of_a_recovery_pass(mesh2, obstacle2, yeoh, gravity,
                                                          limit_gravity):
    # the bench counts RK stages through the mollified field's grad_fn, which
    # the flow calls once per stage, the Richardson run included; an
    # evaluation path that bypassed grad_fn would empty the bench's rows. No
    # point is located: the flow evaluates through its anchor, whose build
    # takes the element codes itself
    from signorini_lab import recovery

    res, kernel = limit_gravity
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        steps = recovery.build_recovery_sequence(res.field, yeoh, gravity, obstacle2, mesh2,
                                                 (1e-7,), gamma=0.75, kernel_class=kernel,
                                                 steps_per_h=4, ledger_samples=2)
    finally:
        tracer.uninstall()
    flow = steps[0].flow
    coarse, delivered = flow.richardson["steps"]
    counts = tracer.counts[None]
    assert (coarse, delivered) == (2, 4)
    assert counts["recovery.flow.steps"] == delivered
    assert counts["recovery.flow.rhs_evals"] == 4 * (delivered + coarse)
    assert counts["recovery.locate.points"] == 0
