"""Tests for the random search harness.

Candidate i is a pure function of (seed, i) via a counter-keyed stream, so
results are reproducible and independent of how the index range is split
across workers; hit lists come back ordered by candidate index.
"""

import concurrent.futures
import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest

import uecsm.criteria as criteria
import uecsm.search as search
from uecsm.criteria import FinalVerdict, classify
from uecsm.fixtures import find_fixture
from uecsm.linalg import DEFAULT_TOLERANCES, EigenSolverError, LinearAlgebraError
from uecsm.search import SearchResult, _hits, _reports, candidate_matrix, run_search


COUNTEREXAMPLE = find_fixture("strong-angle-counterexample").matrix()
CLOSED_FORM = find_fixture("closed-form-s").matrix()
# The eigensystems of candidates 3006 and 9817 stall in inverse iteration.
BREAKDOWN = candidate_matrix(0, 3006, 3, -9, 9)


@pytest.fixture
def inline_pool(monkeypatch):
    """Run the search's process pool in this process; the list of the pool
    sizes asked for."""
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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return asked


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

    @pytest.mark.parametrize("seed, digest", [
        (0, "86210c68a0d8fd403d2c66cf96805b97c45e9f1730dba4ec5fa0f625d116f439"),
        (7, "c56da689f6b1bbbe98027a4006ff7a4f9155eb04a47831b28802729810bd9ee8"),
    ])
    def test_stream_is_pinned(self, seed, digest):
        # sha256 of the bytes of candidates 0-999, one Philox(key=(seed, i))
        # per candidate; a stack of the range gives the same bytes.
        stack = candidate_matrix(seed, range(1000), 3, -9, 9)
        assert stack.shape == (1000, 3, 3)
        assert hashlib.sha256(stack.tobytes()).hexdigest() == digest
        assert np.array_equal(stack[123], candidate_matrix(seed, 123, 3, -9, 9))

    @pytest.mark.parametrize("low, high", [
        (-9, 9), (0, 0), (-1, 1),
        (0, 2**31),                   # about half the 32-bit halves are rejected
        (-2**31, 2**31 - 3),
        (-2**40, 2**40),              # 2**32 values or more: numpy's 64-bit rule
    ])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_stream_is_numpys_stream(self, dim, low, high):
        # Candidates come from raw Philox words through numpy's bounded-integer
        # rule; they must stay what numpy's own draw gives.
        indices = range(40, 100)
        expected = [np.random.Generator(np.random.Philox(key=(11, i))).integers(
            low, high + 1, size=(dim, dim)) for i in indices]
        stack = candidate_matrix(11, indices, dim, low, high)
        assert stack.shape == (len(indices), dim, dim)
        assert np.array_equal(stack, np.array(expected, dtype=np.complex128))

    def test_streams_differ_across_indices_and_seeds(self):
        base = candidate_matrix(0, 0, 4, -9, 9)
        assert not np.array_equal(base, candidate_matrix(0, 1, 4, -9, 9))
        assert not np.array_equal(base, candidate_matrix(1, 0, 4, -9, 9))


def is_hit(m) -> bool:
    """The search's rule on the outcomes of ``m`` decided as a stack of one."""
    (hit,) = _hits(classify(m[None]).outcomes).tolist()
    return hit


class TestHitPredicate:
    def test_counterexample_is_a_hit(self):
        assert is_hit(COUNTEREXAMPLE) is True

    def test_uecsm_matrix_is_not(self):
        assert is_hit(CLOSED_FORM) is False

    def test_necessary_failure_is_not(self):
        assert is_hit(find_fixture("necessary-tests-fail").matrix()) is False


class TestSignGrid:
    def test_every_tenth_matrix_is_pinned(self):
        # Every 10th matrix of the 3x3 grid with entries in {-1, 0, 1}, in
        # itertools.product order: exactly repeated integer spectra end as
        # NotApplicable, by the gap or the adjoint pairing, or as breakdowns.
        grid = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=9)))
        grid = grid[::10].reshape(-1, 3, 3)
        final, outcomes = _reports(grid, 0, DEFAULT_TOLERANCES)
        assert Counter(final.tolist()) == {
            FinalVerdict.NOT_APPLICABLE.value: 431, FinalVerdict.UECSM.value: 566,
            FinalVerdict.NOT_UECSM.value: 952, "": 20}
        assert not _hits(outcomes).any()
        rules = Counter(classify(t).not_applicable.reason.split()[0]
                        for t in grid[final == FinalVerdict.NOT_APPLICABLE.value])
        assert rules == {"repeated": 374, "adjoint": 57}
        errors = Counter()
        for t in grid[final == ""]:
            with pytest.raises(LinearAlgebraError) as info:
                classify(t)
            errors[type(info.value).__name__] += 1
        assert errors == {"EigenSolverError": 19, "NumericalBreakdownError": 1}


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

    def test_breakdown_in_the_stream_is_pinned(self):
        # Candidate 3006 raises inside its stream block, which is decided
        # again in halves down to it alone.
        result = run_search(3010, seed=0)
        assert (result.candidates, result.not_applicable, result.breakdown,
                result.uecsm, result.not_uecsm) == (3010, 2, 1, 9, 2998)
        assert result.hits == []

    def test_every_classify_call_gets_a_stack(self, monkeypatch):
        shapes = []

        def spy(m, cfg, seed):
            shapes.append(np.shape(m))
            return classify(m, cfg, seed=seed)

        monkeypatch.setattr(search, "classify", spy)
        run_search(3010, seed=0)
        run_search(3, inject=(COUNTEREXAMPLE, BREAKDOWN, CLOSED_FORM))
        assert shapes and all(len(shape) == 3 for shape in shapes)

    def test_builds_no_report_objects(self, monkeypatch):
        # Counts and hits come from the stacked arrays: no report, verdict or
        # witness is built for a candidate, breakdowns and halving included.
        built = []
        for name in ("ClassificationReport", "TestVerdict", "Witness"):
            cls = getattr(criteria, name)
            monkeypatch.setattr(criteria, name,
                                lambda *args, _cls=cls, **kwargs: built.append(_cls.__name__)
                                or _cls(*args, **kwargs))
        result = run_search(3010, seed=0)
        assert (result.breakdown, result.uecsm) == (1, 9)
        assert built == []
        classify(CLOSED_FORM[None])[0]    # a report asked for is built on access
        assert set(built) == {"ClassificationReport", "TestVerdict", "Witness"}

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

    def test_pool_is_no_larger_than_the_job_list(self, inline_pool):
        result = run_search(3, seed=2, workers=64)
        assert inline_pool and max(inline_pool) <= 3
        assert result == run_search(3, seed=2, workers=1)

    @pytest.mark.parametrize("count, workers", [(2**53 + 1, 2), (2**64, 3)])
    def test_parts_tile_the_range_exactly(self, inline_pool, monkeypatch, count, workers):
        parts = []

        def record(indices, **kwargs):
            parts.append(indices)
            return SearchResult(candidates=indices.stop - indices.start)

        monkeypatch.setattr(search, "_scan_range", record)
        result = run_search(count, workers=workers)
        assert len(parts) == workers
        assert parts[0].start == 0 and parts[-1].stop == count
        assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))
        assert result.candidates == count

    def test_last_candidates_of_the_key_space(self):
        indices = range(2**64 - 3, 2**64)
        result = search._scan_range(indices, seed=0, dim=3, entry_low=-9, entry_high=9,
                                    cfg=DEFAULT_TOLERANCES, inject=())
        assert result.candidates == 3
        assert (result.not_applicable + result.breakdown + result.uecsm
                + result.not_uecsm) == 3

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

    def test_numerical_failure_counted_as_breakdown(self):
        # Each planted candidate is decided as a stack of one; the one that
        # raises counts as a breakdown.
        result = run_search(3, inject=(COUNTEREXAMPLE, BREAKDOWN, CLOSED_FORM))
        assert result.breakdown == 1
        assert (result.not_uecsm, result.uecsm) == (1, 1)
        assert [h.index for h in result.hits] == [0]

    def test_a_stack_raises_as_its_member_does(self):
        with pytest.raises(EigenSolverError) as alone:
            classify(BREAKDOWN)
        stack = candidate_matrix(0, range(2990, 3010), 3, -9, 9)
        with pytest.raises(EigenSolverError) as stacked:
            classify(stack)
        assert str(stacked.value) == str(alone.value)
        reports = classify(np.delete(stack, 16, axis=0))
        assert len(reports) == 19

    def test_block_isolates_the_candidates_that_raise(self):
        indices = [550, 383, 3005, 3006, 3007, 9816, 9817, 9818, 1035]
        stack = np.array([candidate_matrix(0, i, 3, -9, 9) for i in indices])
        final, outcomes = _reports(stack, 0, DEFAULT_TOLERANCES)
        assert [i for i, f in zip(indices, final) if f == ""] == [3006, 9817]
        for m, f, o in zip(stack, final, outcomes.T):
            if f != "":
                report = classify(m)
                assert (f, o.tolist()) == (report.final.value,
                                           [v.outcome.value for v in report.verdicts])
        assert set(final) == {""} | {f.value for f in FinalVerdict}

    def test_empty_search(self):
        result = run_search(0)
        assert result == SearchResult(candidates=0)

    @pytest.mark.parametrize("kwargs", [
        {"count": -1},
        {"count": 2**64 + 1},
        {"count": 1, "dim": 0},
        {"count": 1, "entry_low": 5, "entry_high": 4},
        {"count": 1, "seed": -3},
        {"count": 1, "seed": 2**64},
        {"count": 0, "entry_low": 0, "entry_high": 2**63},
        {"count": 1, "entry_low": -2**63 - 1, "entry_high": 0},
        {"count": 1, "entry_low": 2**63, "entry_high": 2**63},
    ])
    def test_argument_validation(self, kwargs):
        with pytest.raises(ValueError):
            run_search(**kwargs)

    def test_int64_range_is_accepted(self):
        result = run_search(3, entry_low=-2**63, entry_high=2**63 - 1)
        assert result.candidates == 3

    @pytest.mark.parametrize("m, message", [
        (np.zeros((2, 3)), r"inject\[1\]: expected a square matrix, got shape \(2, 3\)"),
        (np.array([[1.0, np.inf], [0.0, 1.0]]), r"inject\[1\]: matrix has non-finite entries"),
    ], ids=["not-square", "non-finite"])
    def test_planted_matrix_is_checked_up_front(self, monkeypatch, m, message):
        decided = []
        monkeypatch.setattr(search, "classify", lambda *args, **kwargs: decided.append(args))
        with pytest.raises(ValueError, match=message):
            run_search(2, inject=(CLOSED_FORM, m), workers=2)
        assert decided == []
