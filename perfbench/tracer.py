"""Per-layer spans recorded from outside the package.

Each traced function is replaced, for the duration of a ``Tracer`` context,
by a wrapper installed in the module namespace that *calls* it: ``classify``
looks up ``uecsm.criteria.compute_spectral_data`` at call time, so the
spectral layer is wrapped there and not in ``uecsm.spectral``.  Spans are
kept in memory; a span's self time is its duration minus the time covered by
the spans it caused.  Nothing in the package source is edited.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from uecsm.spectral import NotApplicable

# (namespace the call is looked up in, attribute, span name)
WRAPPED = (
    ("uecsm.spectral", "eigenvalues", "linalg.eigenvalues"),
    ("uecsm.spectral", "unit_eigenvector", "linalg.unit_eigenvector"),
    ("uecsm.criteria", "compute_spectral_data", "spectral.compute_spectral_data"),
    ("uecsm.criteria", "classify", "criteria.classify"),
    ("uecsm.search", "classify", "criteria.classify"),
    ("uecsm.criteria", "angle_test", "criteria.angle_test"),
    ("uecsm.criteria", "grammian_test", "criteria.grammian_test"),
    ("uecsm.criteria", "parallelepiped_test", "criteria.parallelepiped_test"),
    ("uecsm.criteria", "strong_angle_test", "criteria.strong_angle_test"),
    ("uecsm.criteria", "build_beta", "conjugation.build_beta"),
    ("uecsm.criteria", "complete_beta", "conjugation.complete_beta"),
    ("uecsm.criteria", "extract_alpha", "conjugation.extract_alpha"),
    ("uecsm.criteria", "build_s", "conjugation.build_s"),
    ("uecsm.criteria", "verify_certificate", "conjugation.verify_certificate"),
    ("uecsm.documents", "parse_matrix_document", "documents.parse_matrix_document"),
    ("uecsm.documents", "build_report_document", "documents.build_report_document"),
    ("uecsm.documents", "serialize_report_document",
     "documents.serialize_report_document"),
    ("uecsm.search", "candidate_matrix", "search.candidate_matrix"),
    ("uecsm.oracle", "brute_force_uecsm", "oracle.brute_force_uecsm"),
    ("uecsm.oracle", "_descend", "oracle._descend"),
    ("uecsm.oracle", "_gradient", "oracle._gradient"),
    ("uecsm.oracle", "_objective", "oracle._objective"),
    ("uecsm.oracle", "_expm_skew", "oracle._expm_skew"),
)

# Spans additionally split by the dimension of their first argument.
SPLIT_BY_N = {"criteria.classify", "spectral.compute_spectral_data",
              "criteria.strong_angle_test"}

# Spans whose results feed a counter.
_COUNTED = {"spectral.compute_spectral_data", "conjugation.verify_certificate",
            "oracle.brute_force_uecsm"}


def _dimension(arg) -> int:
    n = getattr(arg, "n", None)
    return int(n) if n is not None else int(np.shape(arg)[0])


@dataclass
class SpanStats:
    durations: array = field(default_factory=lambda: array("d"))
    self_times: array = field(default_factory=lambda: array("d"))


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.by_n: dict[tuple[str, int], float] = {}
        self.search_classify_s = 0.0
        self.not_applicable = 0
        self.max_residual = 0.0
        self.restarts_used = 0
        self._stack: list[float] = []    # child time accumulated per open span
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr,
                    self._wrap(original, name, module_name == "uecsm.search"))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, from_search: bool):
        stats = self.spans.setdefault(name, SpanStats())
        split = name in SPLIT_BY_N
        counted = name in _COUNTED
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                stats.durations.append(duration)
                stats.self_times.append(duration - child)
            if split:
                key = (name, _dimension(args[0]))
                self.by_n[key] = self.by_n.get(key, 0.0) + duration
            if from_search:
                self.search_classify_s += duration
            if counted:
                self._count(name, result)
            return result

        return wrapper

    def _count(self, name: str, result) -> None:
        if name == "spectral.compute_spectral_data":
            self.not_applicable += isinstance(result, NotApplicable)
        elif name == "conjugation.verify_certificate":
            self.max_residual = max(self.max_residual, max(result.residuals()))
        else:
            self.restarts_used += result.restarts_used

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures; ``wall_s`` is the traced workload's timed total."""
        out: dict[str, float] = {}
        for name, stats in self.spans.items():
            calls = len(stats.durations)
            busy = float(np.sum(stats.durations)) if calls else 0.0
            out[f"{name}.calls"] = calls
            out[f"{name}.us_p50"] = (float(np.median(stats.durations)) * 1e6
                                     if calls else 0.0)
            if name.startswith("oracle._"):
                continue
            out[f"{name}.busy_s"] = busy
            out[f"{name}.share"] = busy / wall_s if wall_s > 0 else 0.0
        classify = self.spans["criteria.classify"].self_times
        out["criteria.classify.self_us"] = (float(np.median(classify)) * 1e6
                                            if len(classify) else 0.0)
        for part in ("spectral.compute_spectral_data", "criteria.strong_angle_test"):
            for n in (3, 8, 32):
                whole = self.by_n.get(("criteria.classify", n), 0.0)
                out[f"{part}.n{n}.classify_share"] = (
                    self.by_n.get((part, n), 0.0) / whole if whole > 0 else 0.0)
        out["search.classify.share"] = (self.search_classify_s / wall_s
                                        if wall_s > 0 else 0.0)
        out["spectral.not_applicable"] = self.not_applicable
        out["conjugation.max_residual"] = self.max_residual
        out["oracle.restarts_used"] = self.restarts_used
        descents = len(self.spans["oracle._descend"].durations)
        gradients = len(self.spans["oracle._gradient"].durations)
        out["oracle.gradients_per_descent"] = (gradients / descents
                                               if descents else 0.0)
        return out
