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
