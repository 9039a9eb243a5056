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
from hypothesis import given, settings
from hypothesis import strategies as st

import uecsm.criteria as criteria
import uecsm.search as search
from uecsm.criteria import FinalVerdict, classify
from uecsm.fixtures import find_fixture
from uecsm.linalg import (
    DEFAULT_TOLERANCES,
    EigenSolverError,
    NumericalBreakdownError,
)
from uecsm.search import SearchResult, _hits, _reports, candidate_matrix, run_search


COUNTEREXAMPLE = find_fixture("strong-angle-counterexample").matrix()
CLOSED_FORM = find_fixture("closed-form-s").matrix()
# Candidates of the 4 x 4 [-1, 1] stream of seed 3, written out so that a
# change to the candidate stream cannot swap them; the tests that use them
# assert their roles.  The 3 x 3 integer stream no longer breaks down: the
# exact gate decides every exactly repeated 3 x 3 integer spectrum.  Both
# inputs here have an exactly repeated spectrum, which no gate sees at
# n = 4: the eigensystem of candidate 41 stalls in inverse iteration, and
# the adjoint spectrum of candidate 28 does not pair with the conjugated
# eigenvalues.
BREAKDOWN = np.array([[-1, 1, 0, -1], [1, 0, 0, 1], [0, 1, 1, -1], [1, 1, 1, 0]],
                     dtype=np.complex128)
PAIRING_FAILURE = np.array([[0, -1, 0, 0], [0, 0, 1, -1], [-1, 0, 0, 0], [0, -1, 1, -1]],
                           dtype=np.complex128)
# Candidates 28, 0, 2, 41, 5, 7, 277, 8 and 1 of that stream with their
# outcomes alone: every final verdict, and two breakdowns ("").
MIXED = np.array([
    PAIRING_FAILURE,
    [[1, -1, 0, 1], [1, 0, -1, 0], [-1, 0, 0, -1], [1, -1, 1, 1]],
    [[0, 1, -1, 0], [0, 0, 0, 0], [0, 0, -1, -1], [-1, 0, 0, -1]],
    BREAKDOWN,
    [[1, 0, 0, -1], [0, 0, 1, -1], [-1, 1, 0, -1], [0, 0, 1, 0]],
    [[-1, 1, -1, 1], [-1, 0, -1, 0], [0, -1, 1, 1], [-1, 1, 0, 1]],
    [[-1, 0, 0, 1], [-1, 0, 0, 1], [0, -1, 1, 0], [0, -1, 1, 0]],
    [[0, -1, 0, 1], [1, 0, 1, -1], [0, -1, 0, 0], [1, 1, -1, 0]],
    [[1, 1, -1, -1], [1, 0, 0, 1], [0, 0, -1, 1], [0, -1, 0, -1]],
], dtype=np.complex128)
MIXED_FINAL = ["NotApplicable", "UECSM", "NotUECSM", "", "NotUECSM", "NotUECSM", "",
               "NotUECSM", "UECSM"]
# c12 candidate 15768: p = x**2 (x - 1), a Jordan block at 0.  LAPACK's
# complex routine split the double eigenvalue past the gap threshold and
# the adjoint paired, so it got a NotUECSM verdict; the exact gate decides
# it before any LAPACK call.
CANDIDATE_15768 = np.array([[9, 5, -9], [-6, 1, 6], [9, 5, -9]], dtype=np.complex128)
# The sign grid: every 3 x 3 matrix with entries in {-1, 0, 1}, in
# itertools.product order.
SIGN_GRID = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=9))).reshape(-1, 3, 3)
# Entry ranges of the stream tests, from one value to the whole int64 range.
RANGES = [(-9, 9), (0, 0), (-1, 1), (0, 2**31), (-2**31, 2**31 - 3), (-2**40, 2**40),
          (-2**63, 2**63 - 1)]


def documented_map(seed, indices, dim, low, high):
    """Candidates ``indices`` by the documented map in Python integers: the
    first dim**2 raw words of counter steps [i*s, (i+1)*s) of Philox(key=seed),
    s = ceil(dim**2 / 4), each w mapped to low + w * R // 2**64."""
    s = -(-dim * dim // 4)
    words = np.random.Philox(key=seed).random_raw(4 * s * indices.stop).tolist()
    r = high - low + 1
    return [[low + (words[4 * s * i + k] * r >> 64) for k in range(dim * dim)]
            for i in indices]


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
        (0, "735b8f454ae9ecce4afd8f92a9024a95f3ffc67d2bd6e8d4b1f8c8e436688fc8"),
        (7, "86e8c1e2adc36bab6cea7d53098633e8e788f7c1d681733d19d23f8adb4ecc3f"),
    ], ids=["seed-0", "seed-7"])
    def test_stream_is_pinned(self, seed, digest):
        # sha256 of the bytes of candidates 0-999, one Philox counter range;
        # candidate 123 alone gives the same bytes as its row of the stack.
        stack = candidate_matrix(seed, range(1000), 3, -9, 9)
        assert stack.shape == (1000, 3, 3)
        assert hashlib.sha256(stack.tobytes()).hexdigest() == digest
        assert np.array_equal(stack[123], candidate_matrix(seed, 123, 3, -9, 9))

    @pytest.mark.parametrize("low, high", RANGES)
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_stream_is_numpys_stream(self, dim, low, high):
        # Candidates are numpy's raw Philox words through the documented
        # multiply-high map: the 64-bit limb arithmetic must give what Python
        # integers give, on every range up to 2**64 values.
        indices = range(40, 100)
        expected = np.array(documented_map(11, indices, dim, low, high), dtype=np.complex128)
        stack = candidate_matrix(11, indices, dim, low, high)
        assert stack.shape == (len(indices), dim, dim)
        assert np.array_equal(stack, expected.reshape(stack.shape))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**64 - 1), start=st.integers(0, 2**64 - 64),
           lengths=st.tuples(st.integers(0, 31), st.integers(0, 31)),
           dim=st.integers(1, 5), bounds=st.sampled_from(RANGES))
    def test_any_cut_gives_the_same_stack(self, seed, start, lengths, dim, bounds):
        cut, stop = start + lengths[0], start + sum(lengths)
        whole = candidate_matrix(seed, range(start, stop), dim, *bounds)
        parts = [candidate_matrix(seed, r, dim, *bounds)
                 for r in (range(start, cut), range(cut, stop))]
        assert whole.tobytes() == np.concatenate(parts).tobytes()

    def test_indices_must_be_consecutive(self):
        with pytest.raises(ValueError, match="consecutive"):
            candidate_matrix(0, range(0, 10, 2), 3, -9, 9)

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


def discriminants(stack):
    """The discriminant of the characteristic polynomial of each 3 x 3
    integer matrix of ``stack``, in Python integers from the coefficients
    of det(x I - M) = x**3 - t x**2 + q x - r: q sums the principal 2 x 2
    minors, r is the determinant by the Leibniz formula."""
    out = []
    for m in np.real(stack).astype(int).tolist():
        t = m[0][0] + m[1][1] + m[2][2]
        q = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
        r = sum((-1) ** sum(p[i] > p[j] for i, j in ((0, 1), (0, 2), (1, 2)))
                * m[0][p[0]] * m[1][p[1]] * m[2][p[2]] for p in itertools.permutations(range(3)))
        out.append(t * t * q * q - 4 * t**3 * r + 18 * t * q * r - 4 * q**3 - 27 * r * r)
    return np.array(out)


class TestSignGrid:
    def test_every_tenth_matrix_is_pinned(self):
        # Every 10th matrix of the sign grid: exactly repeated integer spectra
        # end as NotApplicable by the exact gate, and nothing breaks down.
        grid = SIGN_GRID[::10]
        final, outcomes = _reports(grid, 0, DEFAULT_TOLERANCES)
        assert Counter(final.tolist()) == {
            FinalVerdict.NOT_APPLICABLE.value: 456, FinalVerdict.UECSM.value: 561,
            FinalVerdict.NOT_UECSM.value: 952}
        assert not _hits(outcomes).any()
        rules = Counter(classify(t).not_applicable.reason.split()[0]
                        for t in grid[final == FinalVerdict.NOT_APPLICABLE.value])
        assert rules == {"exactly": 456}
        repeated = discriminants(grid) == 0
        assert ((final == FinalVerdict.NOT_APPLICABLE.value) == repeated).all()

    def test_every_uecsm_verdict_is_certified(self):
        # On every 10th matrix of the sign grid, each UECSM verdict carries a
        # certificate that checks; on an exactly repeated spectrum none did.
        grid = SIGN_GRID[::10]
        final, _ = _reports(grid, 0, DEFAULT_TOLERANCES)
        reports = [classify(t) for t in grid[final == FinalVerdict.UECSM.value]]
        assert len(reports) == 561
        assert all(r.certificate.is_valid() for r in reports)

    @pytest.mark.parametrize("stack", [
        SIGN_GRID[::10],
        candidate_matrix(29, range(2000), 3, -2, 2),
    ], ids=["sign-grid", "range-2"])
    def test_final_verdict_does_not_depend_on_the_frame(self, stack):
        # Every 10th matrix of the sign grid, and a seeded sample of
        # [-2, 2]^(3x3): a cyclic permutation similarity P T P^t (np.roll on
        # both axes), the transpose and the negation each leave every final
        # verdict as it is.
        final, _ = _reports(stack, 0, DEFAULT_TOLERANCES)
        assert "" not in final.tolist()
        for variant in (np.roll(stack, 1, axis=(-2, -1)), stack.swapaxes(-1, -2), -stack):
            assert _reports(variant, 0, DEFAULT_TOLERANCES)[0].tolist() == final.tolist()

    @pytest.mark.parametrize("scale", [1 / 2, 1 / 3], ids=["half", "third"])
    def test_scaled_grid_gets_the_integer_verdict(self, scale):
        # Every 10th matrix of the sign grid, scaled: the exact gate decides
        # each repeated spectrum at any scale, and every final verdict is the
        # integer grid's, with no breakdown.
        grid = SIGN_GRID[::10]
        final, _ = _reports(grid, 0, DEFAULT_TOLERANCES)
        assert _reports(scale * grid, 0, DEFAULT_TOLERANCES)[0].tolist() == final.tolist()

    def test_candidate_15768_is_decided_by_the_exact_gate(self):
        assert discriminants(CANDIDATE_15768[None]).tolist() == [0]
        report = classify(CANDIDATE_15768)
        assert report.final is FinalVerdict.NOT_APPLICABLE
        assert report.not_applicable.reason.startswith("exactly repeated spectrum")


# Candidates of the dim-4 [-1, 1] stream of seed 0 whose characteristic
# polynomial has discriminant exactly 0; no exact gate decides them at n = 4.
DIM4_REPEATED = (9587, 16373, 19569, 25276, 31908, 33244, 34381, 34521, 37288)


@pytest.mark.xfail(strict=True, reason=(
    "FOUND 61: at n = 4 an exactly repeated spectrum gets UECSM with a "
    "certificate that fails is_valid(), worst residual 2.3e-2 to 27.7; "
    "ROADMAP item 18 (exact gate) or item 19 (certified UECSM) mends it"))
def test_dim4_repeated_spectra_get_no_uncertified_uecsm():
    for index in DIM4_REPEATED:
        report = classify(candidate_matrix(0, index, 4, -1, 1))
        assert report.final is not FinalVerdict.UECSM or report.certificate.is_valid()


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
        # Candidates 1422 and 1968 are NotApplicable by the exact gate.
        result = run_search(2000, seed=0)
        assert (result.candidates, result.not_applicable, result.breakdown,
                result.uecsm, result.not_uecsm) == (2000, 2, 0, 13, 1985)
        assert [h.index for h in result.hits] == []

    def test_breakdown_in_the_stream_is_pinned(self):
        # Candidate 41 of the 4 x 4 [-1, 1] stream of seed 3 raises alone; its
        # stream block, [0, 100), records it and decides the other candidates.
        with pytest.raises(EigenSolverError):
            classify(candidate_matrix(3, 41, 4, -1, 1))
        result = run_search(100, dim=4, entry_low=-1, entry_high=1, seed=3)
        assert (result.candidates, result.not_applicable, result.breakdown,
                result.uecsm, result.not_uecsm) == (100, 16, 1, 9, 74)
        assert result.hits == []

    def test_every_classify_call_gets_a_stack(self, monkeypatch):
        # One call per block: blocks hold at most 227 candidates at n = 3 and
        # 128 at n = 4, and the block that holds the breakdowns at 41 and 277
        # records them.
        calls = []

        def spy(m, cfg, seed):
            calls.append((seed, np.shape(m)))
            return classify(m, cfg, seed=seed)

        monkeypatch.setattr(search, "classify", spy)
        run_search(500, seed=3)
        assert calls == [(k, (min(227, 500 - k), 3, 3)) for k in range(0, 500, 227)]
        del calls[:]
        assert run_search(300, dim=4, entry_low=-1, entry_high=1, seed=3).breakdown == 2
        assert calls == [(k, (min(128, 300 - k), 4, 4)) for k in range(0, 300, 128)]

    def test_builds_no_report_objects(self, monkeypatch):
        # Counts and hits come from the stacked arrays: no report, verdict or
        # witness is built for a candidate, breakdowns included.
        built = []
        for name in ("ClassificationReport", "TestVerdict", "Witness"):
            cls = getattr(criteria, name)
            monkeypatch.setattr(criteria, name,
                                lambda *args, _cls=cls, **kwargs: built.append(_cls.__name__)
                                or _cls(*args, **kwargs))
        result = run_search(300, dim=4, entry_low=-1, entry_high=1, seed=3)
        assert (result.breakdown, result.uecsm) == (2, 21)
        assert built == []

    def test_builds_no_certificate(self, monkeypatch):
        # A UECSM candidate is a StrongAngle pass; no S is built for it.
        built = []
        certificate = criteria._certificate
        monkeypatch.setattr(criteria, "_certificate",
                            lambda *args: built.append(args) or certificate(*args))
        result = run_search(300, dim=4, entry_low=-1, entry_high=1, seed=3)
        assert (result.breakdown, result.uecsm) == (2, 21)
        assert built == []

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
                                    cfg=DEFAULT_TOLERANCES)
        assert result.candidates == 3
        assert (result.not_applicable + result.breakdown + result.uecsm
                + result.not_uecsm) == 3

    def test_stream_hit_is_found(self):
        # Candidate 508 of the 4 x 4 [-1, 1] stream of seed 3 is its first hit.
        result = run_search(600, dim=4, entry_low=-1, entry_high=1, seed=3)
        assert [h.index for h in result.hits] == [508]
        np.testing.assert_array_equal(result.hits[0].matrix,
                                      candidate_matrix(3, 508, 4, -1, 1))
        assert is_hit(result.hits[0].matrix)

    def test_numerical_failure_counted_as_breakdown(self, monkeypatch):
        # A block of three candidates, one of which raises alone: it counts as
        # a breakdown and the others keep their verdicts and hits.
        block = np.array([COUNTEREXAMPLE, BREAKDOWN, MIXED[1]])
        monkeypatch.setattr(search, "candidate_matrix", lambda *args: block)
        result = run_search(3, dim=4)
        assert result.breakdown == 1
        assert (result.not_uecsm, result.uecsm) == (1, 1)
        assert [h.index for h in result.hits] == [0]

    def test_a_stack_records_the_error_its_member_raises(self):
        with pytest.raises(EigenSolverError) as alone:
            classify(BREAKDOWN)
        stack = candidate_matrix(3, range(1100, 1120), 4, -1, 1)
        stack[16] = BREAKDOWN    # planted in a stream block
        reports = classify(stack)
        assert [b for b, e in enumerate(reports.breakdowns) if e is not None] == [16]
        assert type(reports.breakdowns[16]) is EigenSolverError
        assert str(reports.breakdowns[16]) == str(alone.value)
        assert reports.not_applicable[16] is None
        assert reports.final[16] == "" and reports.outcomes[:, 16].tolist() == [""] * 4
        rest = classify(np.delete(stack, 16, axis=0))
        assert np.delete(reports.final, 16).tolist() == rest.final.tolist()
        assert np.delete(reports.outcomes, 16, axis=1).tolist() == rest.outcomes.tolist()

    def test_a_stack_that_fails_as_a_whole_is_decided_member_by_member(self, monkeypatch):
        # A stand-in for a stacked LAPACK call that fails: every stack longer
        # than one raises, so each block is decided one candidate at a time,
        # each under its own index as seed.
        seeds = []

        def fails_stacked(m, cfg, seed):
            if len(m) > 1:
                raise NumericalBreakdownError("stacked call failed")
            seeds.append(seed)
            return classify(m, cfg, seed=seed)

        real = run_search(2600, seed=3)
        monkeypatch.setattr(search, "classify", fails_stacked)
        member_by_member = run_search(2600, seed=3)
        assert member_by_member == real
        assert seeds == list(range(2600))

    def test_dim4_sign_stream_is_pinned(self):
        # The dim-4 [-1, 1] stream breaks down in about 0.8% of candidates,
        # so most of its blocks of 128 hold a breakdown; each is one call.
        results = [run_search(4000, dim=4, entry_low=-1, entry_high=1, seed=3, workers=w)
                   for w in (1, 2)]
        for result in results:
            assert (result.not_applicable, result.breakdown, result.uecsm,
                    result.not_uecsm) == (632, 34, 270, 3064)
            assert len(result.hits) == 3
        assert [h.index for h in results[0].hits] == [h.index for h in results[1].hits]

    def test_block_isolates_the_candidates_that_raise(self):
        final, outcomes = _reports(MIXED, 0, DEFAULT_TOLERANCES)
        assert final.tolist() == MIXED_FINAL
        for m, f, o in zip(MIXED, final, outcomes.T):
            if f == "":
                with pytest.raises(EigenSolverError):
                    classify(m)
            else:
                report = classify(m)
                assert (f, o.tolist()) == (report.final.value,
                                           [v.outcome.value for v in report.verdicts])
        # At n = 4 the adjoint pairing, not an exact gate, decides the
        # exactly repeated spectrum of the first member.
        assert classify(PAIRING_FAILURE).not_applicable.reason.startswith(
            "adjoint spectrum does not pair")

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
        # complex128 rounds integers past 2**53: [2**53, 2**53 + 3] would
        # give even entries only, and the top of int64 would give 2**63.
        {"count": 1, "entry_low": 2**53 + 1, "entry_high": 2**53 + 1},
        {"count": 3, "entry_low": -2**63, "entry_high": 2**63 - 1},
        {"count": 1, "workers": 0},
    ])
    def test_argument_validation(self, monkeypatch, kwargs):
        drawn = []
        monkeypatch.setattr(search, "candidate_matrix", lambda *args: drawn.append(args))
        with pytest.raises(ValueError):
            run_search(**kwargs)
        assert drawn == []

    def test_widest_exact_range_is_accepted(self):
        result = run_search(3, entry_low=-2**53, entry_high=2**53)
        assert result.candidates == 3
        stack = candidate_matrix(0, range(3), 3, -2**53, 2**53)
        assert not stack.imag.any()
        assert stack.real.astype(np.int64).tolist() == [
            [row[k:k + 3] for k in (0, 3, 6)]
            for row in documented_map(0, range(3), 3, -2**53, 2**53)]
