"""The benchmark's tracer wraps package functions by (module, attribute).

A rename in the package would break its per-layer spans only when the
benchmark runs; this check fails at once instead.  ``perfbench/tracer.py``
is loaded, not edited.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)    # dataclasses look it up
    spec.loader.exec_module(tracer)
    missing = [(module, attr) for module, attr, _ in tracer.WRAPPED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert tracer.WRAPPED and missing == []
