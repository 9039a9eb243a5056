"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import uecsm  # noqa: E402
import uecsm.criteria  # noqa: E402
import uecsm.search  # noqa: E402
import workloads  # noqa: E402
from tracer import WRAPPED, Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Inputs per traced pass: small, but enough to reach every predicted layer.
OPS = {"search3": 3, "classify-mixed": 30, "oracle": 4}

# Layers the prediction table says do real work on each workload ...
WORKS_ON = {
    "search3": ("linalg.eigenvalues", "linalg.unit_eigenvector",
                "spectral.compute_spectral_data", "criteria.classify",
                "criteria.angle_test", "criteria.grammian_test",
                "criteria.parallelepiped_test", "criteria.strong_angle_test",
                "search.candidate_matrix"),
    "classify-mixed": ("linalg.eigenvalues", "linalg.unit_eigenvector",
                       "spectral.compute_spectral_data", "criteria.classify",
                       "criteria.angle_test", "criteria.grammian_test",
                       "criteria.parallelepiped_test", "criteria.strong_angle_test",
                       "conjugation.build_beta", "conjugation.complete_beta",
                       "conjugation.extract_alpha", "conjugation.build_s",
                       "conjugation.verify_certificate",
                       "documents.parse_matrix_document",
                       "documents.build_report_document",
                       "documents.serialize_report_document"),
    "oracle": ("oracle.brute_force_uecsm", "oracle._descend", "oracle._gradient",
               "oracle._objective", "oracle._expm_skew"),
}
# ... and layers it bypasses entirely.
BYPASSED = {
    "search3": ("documents.parse_matrix_document", "oracle.brute_force_uecsm"),
    "classify-mixed": ("search.candidate_matrix", "oracle.brute_force_uecsm"),
    "oracle": ("criteria.classify", "spectral.compute_spectral_data",
               "conjugation.build_s", "documents.parse_matrix_document"),
}


@pytest.fixture(scope="module", params=sorted(OPS))
def passes(request):
    workload = workloads.WORKLOADS[request.param](seed=7)
    untraced = workloads.run_pass(workload, ops=OPS[request.param])
    with Tracer() as tracer:
        traced = workloads.run_pass(workload, ops=OPS[request.param])
    return request.param, untraced, traced, tracer


def test_predicted_layers_record_calls(passes):
    name, _, traced, tracer = passes
    metrics = tracer.metrics(traced.timed_s)
    for layer in WORKS_ON[name]:
        assert metrics[f"{layer}.calls"] >= 1, layer
    for layer in BYPASSED[name]:
        assert metrics[f"{layer}.calls"] == 0, layer


def test_traced_answers_equal_untraced(passes):
    _, untraced, traced, _ = passes
    assert traced.answers == untraced.answers
    assert traced.counts == untraced.counts
    assert untraced.incorrect == traced.incorrect == 0


def test_tracer_restores_the_namespaces():
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in WRAPPED}
    with Tracer():
        assert uecsm.criteria.classify is not originals[("uecsm.criteria", "classify")]
    assert all(getattr(sys.modules[m], a) is fn for (m, a), fn in originals.items())


def test_inputs_come_from_the_seed():
    for cls in workloads.WORKLOADS.values():
        assert workloads.input_hash(cls(3)) == workloads.input_hash(cls(3))
        assert workloads.input_hash(cls(3)) != workloads.input_hash(cls(4))


def test_checks_catch_a_wrong_verdict(monkeypatch):
    ginibre = workloads.ginibre(3, workloads.np.random.default_rng(0))
    report = uecsm.criteria.classify(ginibre)
    monkeypatch.setattr(uecsm.criteria, "classify", lambda t, cfg: report)
    p = workloads.run_pass(workloads.ClassifyMixed(seed=1), ops=3)
    assert report.final.value == "NotUECSM"
    assert p.incorrect == p.failed == 3    # requests 0-2 are labelled UECSM


def test_confirm_hits_flags_an_unconfirmed_hit():
    rng = workloads.np.random.default_rng(0)
    p = workloads.Pass()
    p.hits.append((0, SimpleNamespace(index=0, matrix=workloads.ginibre(3, rng))))
    workloads.confirm_hits(p)
    assert p.incorrect == p.failed == 1


def test_a_search_breakdown_is_counted_not_failed(monkeypatch):
    classify = uecsm.search.classify

    def breaks_on_first(m, cfg, seed):
        if seed == 0:
            raise uecsm.NumericalBreakdownError("planted")
        return classify(m, cfg, seed=seed)

    monkeypatch.setattr(uecsm.search, "classify", breaks_on_first)
    p = workloads.run_pass(workloads.Search3(seed=1), ops=1)
    assert p.counts["breakdown"] == 1
    assert p.failed == 0


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", sorted(OPS))
def test_result_line_meets_the_contract(name, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
