"""The benchmark's own files, checked in the test suite.

The tracer wraps package functions by (module, attribute), so a rename in
the package would break its per-layer spans only when the benchmark runs,
and a refactor that stops calling a wrapped function would leave its span
empty; the workloads check every answer, so a wrong answer would show only
there.  The checks here fail at once instead.  ``perfbench/tracer.py`` and
``perfbench/workloads.py`` are loaded, not edited, and the layers each
workload must reach are read from ``perfbench/test_perfbench.py``.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import uecsm.search

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


def test_search3_counts_a_planted_breakdown(monkeypatch):
    # perfbench's own check of breakdown counting plants a classify that
    # raises on seed 0: the search must pass each block's first index as the
    # seed, and a block that raises must still count exactly that candidate.
    workloads = load(monkeypatch, "workloads")
    classify = uecsm.search.classify

    def breaks_on_first(m, cfg, seed):
        if seed == 0:
            raise uecsm.NumericalBreakdownError("planted")
        return classify(m, cfg, seed=seed)

    monkeypatch.setattr(uecsm.search, "classify", breaks_on_first)
    p = workloads.run_pass(workloads.Search3(seed=1), ops=1)
    assert p.counts["breakdown"] == 1
    assert p.failed == 0, p.notes


def works_on(workload):
    """The layers ``WORKS_ON`` in perfbench/test_perfbench.py says a
    workload reaches, read from its source without importing it."""
    tree = ast.parse((PERFBENCH / "test_perfbench.py").read_text())
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["WORKS_ON"]:
            return ast.literal_eval(node.value)[workload]
    raise LookupError("WORKS_ON is not assigned in perfbench/test_perfbench.py")


def test_search3_reaches_every_pinned_layer(monkeypatch):
    # search3 traces a per-candidate classify through its helpers; a path
    # that bypasses one of them would leave that span empty.
    workloads = load(monkeypatch, "workloads")
    tracer = load(monkeypatch, "tracer")
    untraced = workloads.run_pass(workloads.Search3(seed=7), ops=3)
    with tracer.Tracer() as spans:
        traced = workloads.run_pass(workloads.Search3(seed=7), ops=3)
    assert (untraced.failed, traced.failed) == (0, 0), untraced.notes + traced.notes
    assert traced.answers == untraced.answers
    calls = spans.metrics(traced.timed_s)
    layers = works_on("search3")
    assert "linalg.unit_eigenvector" in layers
    assert [layer for layer in layers if calls[f"{layer}.calls"] < 1] == []
