"""The benchmark's own files, checked in the test suite.

The tracer wraps package functions by (module, attribute), so a rename in
the package would break its per-layer spans only when the benchmark runs;
and the workloads check every answer, so a wrong answer would show only
there.  Both checks here fail at once instead.  ``perfbench/tracer.py`` and
``perfbench/workloads.py`` are loaded, not edited.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)    # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    tracer = load(monkeypatch, "tracer")
    missing = [(module, attr) for module, attr, _ in tracer.WRAPPED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert tracer.WRAPPED and missing == []


def test_classify_requests_pass_the_benchmark_checks(monkeypatch):
    # Each request round-trips its matrix document, classifies it and writes
    # the report; the workload checks the parsed matrix against the one
    # sent, the report's "final" against the label, and certificate residuals.
    workloads = load(monkeypatch, "workloads")
    for seed in (1, 2):
        p = workloads.run_pass(workloads.ClassifyMixed(seed), ops=30)
        assert (p.attempted, p.ops) == (30, 30)
        assert (p.failed, p.incorrect) == (0, 0), p.notes
