"""Tests for the random search harness.

Candidate i is a pure function of (seed, i) via a counter-keyed stream, so
results are reproducible and independent of how the index range is split
across workers; hit lists come back ordered by candidate index.
"""

import numpy as np
import pytest

import uecsm.search
from uecsm.criteria import FinalVerdict, classify
from uecsm.fixtures import find_fixture
from uecsm.search import SearchResult, _is_hit, candidate_matrix, run_search

COUNTEREXAMPLE = find_fixture("strong-angle-counterexample").matrix()
CLOSED_FORM = find_fixture("closed-form-s").matrix()


class TestCandidateMatrix:
    def test_deterministic(self):
        a = candidate_matrix(7, 123, 3, -9, 9)
        b = candidate_matrix(7, 123, 3, -9, 9)
        assert np.array_equal(a, b)

    def test_integer_entries_in_range(self):
        for index in range(50):
            m = candidate_matrix(0, index, 3, -9, 9)
            assert m.shape == (3, 3)
            assert np.all(m.imag == 0)
            assert np.all(m.real == np.round(m.real))
            assert m.real.min() >= -9 and m.real.max() <= 9

    def test_streams_differ_across_indices_and_seeds(self):
        base = candidate_matrix(0, 0, 4, -9, 9)
        assert not np.array_equal(base, candidate_matrix(0, 1, 4, -9, 9))
        assert not np.array_equal(base, candidate_matrix(1, 0, 4, -9, 9))


class TestHitPredicate:
    def test_counterexample_is_a_hit(self):
        assert _is_hit(classify(COUNTEREXAMPLE)) is True

    def test_uecsm_matrix_is_not(self):
        assert _is_hit(classify(CLOSED_FORM)) is False

    def test_necessary_failure_is_not(self):
        assert _is_hit(classify(find_fixture("necessary-tests-fail").matrix())) is False


class TestRunSearch:
    def test_deterministic(self):
        a = run_search(300, seed=2)
        b = run_search(300, seed=2)
        assert (a.not_applicable, a.breakdown, a.uecsm, a.not_uecsm) == \
               (b.not_applicable, b.breakdown, b.uecsm, b.not_uecsm)
        assert [h.index for h in a.hits] == [h.index for h in b.hits]

    def test_verdict_stream_is_pinned(self):
        # Counts and hits of the first 2000 candidates, pinned so that a
        # change to the eigensystem cannot move the verdict stream silently.
        # Candidate 550 has an exactly repeated, defective eigenvalue: its
        # adjoint spectrum does not pair with the conjugated eigenvalues, so
        # it is NotApplicable; pairing with conj(lambda) would call it NotUECSM.
        result = run_search(2000, seed=0)
        assert (result.candidates, result.not_applicable, result.breakdown,
                result.uecsm, result.not_uecsm) == (2000, 2, 0, 4, 1994)
        assert [h.index for h in result.hits] == []
        assert classify(candidate_matrix(0, 550, 3, -9, 9)).final \
            is FinalVerdict.NOT_APPLICABLE

    def test_counts_are_a_partition(self):
        result = run_search(500, seed=0)
        assert (result.not_applicable + result.breakdown + result.uecsm
                + result.not_uecsm) == result.candidates == 500

    def test_worker_count_does_not_change_results(self):
        serial = run_search(200, seed=1, workers=1)
        parallel = run_search(200, seed=1, workers=3)
        assert serial.not_applicable == parallel.not_applicable
        assert serial.breakdown == parallel.breakdown
        assert serial.uecsm == parallel.uecsm
        assert serial.not_uecsm == parallel.not_uecsm
        assert ([h.index for h in serial.hits]
                == [h.index for h in parallel.hits])

    def test_pool_is_no_larger_than_the_job_list(self, monkeypatch):
        asked = []

        class InlinePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(uecsm.search, "ProcessPoolExecutor", InlinePool)
        result = run_search(3, seed=2, workers=64)
        assert asked and max(asked) <= 3
        assert result == run_search(3, seed=2, workers=1)

    def test_injected_hit_is_found(self):
        result = run_search(3, dim=4, inject=(COUNTEREXAMPLE,), seed=0)
        assert len(result.hits) == 1
        assert result.hits[0].index == 0
        np.testing.assert_array_equal(result.hits[0].matrix, COUNTEREXAMPLE)

    def test_injected_member_is_not_a_hit(self):
        result = run_search(2, inject=(CLOSED_FORM,), seed=0)
        assert result.hits == []
        assert result.uecsm >= 1

    def test_injected_repeated_spectrum_counted(self):
        result = run_search(1, inject=(np.diag([1.0, 1.0, 2.0]),))
        assert result.not_applicable == 1

    def test_injection_respected_under_workers(self):
        result = run_search(40, dim=4, inject=(COUNTEREXAMPLE,), seed=0,
                            workers=2)
        assert [h.index for h in result.hits][:1] == [0]

    def test_empty_search(self):
        result = run_search(0)
        assert result == SearchResult(candidates=0)

    @pytest.mark.parametrize("kwargs", [
        {"count": -1},
        {"count": 1, "dim": 0},
        {"count": 1, "entry_low": 5, "entry_high": 4},
        {"count": 1, "seed": -3},
    ])
    def test_argument_validation(self, kwargs):
        with pytest.raises(ValueError):
            run_search(**kwargs)
