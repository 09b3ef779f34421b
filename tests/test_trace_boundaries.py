"""The benchmark's traced run (perfbench/spans.py) patches hybridsens at
named layer boundaries, looked up with ``vars(owner)``: a method moved onto
a base class or a renamed function makes that run report ``correct: false``.
This test fails first, in the ordinary suite."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_boundaries_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
