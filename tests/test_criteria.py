"""Tests for the four geometric tests and the classification pipeline.

Reference values, all exact or derived in closed form:

  * the 3x3 rejected example has |det U| = sqrt(2/5) vs |det V| = 2/3,
    angle moduli 1/sqrt(2) vs 2/3 at the pair (1, 2), and its worst angle
    violation 1/sqrt(10) vs 0 at the pair (2, 3);
  * the triangular family [[0,7,0],[0,1,s],[0,0,6]] is UECSM exactly when
    |s| = 5;
  * the 4x4 counterexample passes all three necessary tests (shared Gram
    spectrum, equal determinant moduli 2/(5 sqrt 3)) while the strong angle
    test fails with discrepancy (4/75) sqrt(5).
"""

import numpy as np
import pytest

import uecsm.criteria as criteria
from uecsm.criteria import (
    TEST_KINDS,
    FinalVerdict,
    Outcome,
    angle_test,
    classify,
    gram_pair,
    grammian_test,
    parallelepiped_test,
    strong_angle_test,
)
from uecsm.linalg import DEFAULT_TOLERANCES, NumericalBreakdownError, complex_ldexp
from uecsm.fixtures import (
    COUNTEREXAMPLE,
    COUNTEREXAMPLE_BETA_SPECTRUM,
    COUNTEREXAMPLE_DET,
    COUNTEREXAMPLE_GRAM_SPECTRUM,
    FAMILY,
    TABLE1,
    family_member,
    find_fixture,
)
from uecsm.conjugation import BetaInconsistencyError, build_beta
from uecsm.oracle import random_unitary
from uecsm.spectral import SpectralData, assert_distinct_spectrum, compute_spectral_data


def outcomes_by_kind(report):
    return {v.kind: v.outcome for v in report.verdicts}


class TestTriangularFamily:
    @pytest.mark.parametrize("fx", FAMILY, ids=lambda fx: fx.label)
    def test_published_verdicts(self, fx):
        report = classify(fx.matrix())
        assert report.final.value == fx.expected_final

    def test_modulus_five_circle(self):
        # Membership depends on s only through |s|.
        rng = np.random.default_rng(6)
        for _ in range(5):
            phase = np.exp(2j * np.pi * rng.random())
            assert classify(family_member(5 * phase)).final is FinalVerdict.UECSM
            assert classify(family_member(4.5 * phase)).final is FinalVerdict.NOT_UECSM


@pytest.fixture(scope="module")
def rejected_report():
    return classify(find_fixture("necessary-tests-fail").matrix())


@pytest.fixture(scope="module")
def rejected_data():
    return compute_spectral_data(find_fixture("necessary-tests-fail").matrix())


class TestRejectedExample:
    def test_every_test_fails(self, rejected_report):
        assert all(v.outcome is Outcome.FAIL for v in rejected_report.verdicts)
        assert rejected_report.final is FinalVerdict.NOT_UECSM
        assert rejected_report.certificate is None

    def test_angle_values_at_first_pair(self, rejected_data):
        gu, gv = gram_pair(rejected_data)
        assert abs(gu[0, 1]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert abs(gv[0, 1]) == pytest.approx(2 / 3, abs=1e-12)

    def test_angle_worst_witness(self, rejected_report):
        w = {v.kind: v for v in rejected_report.verdicts}["Angle"].witness
        assert w.indices == (2, 3)
        assert w.left == pytest.approx(1 / np.sqrt(10), abs=1e-12)
        assert w.right == pytest.approx(0.0, abs=1e-12)
        assert w.discrepancy == pytest.approx(1 / np.sqrt(10), abs=1e-12)

    def test_parallelepiped_values(self, rejected_data):
        verdict = parallelepiped_test(rejected_data)
        assert verdict.outcome is Outcome.FAIL
        assert verdict.witness.left == pytest.approx(np.sqrt(2 / 5), abs=1e-9)
        assert verdict.witness.right == pytest.approx(2 / 3, abs=1e-9)


@pytest.fixture(scope="module")
def closed_form_report():
    return classify(find_fixture("closed-form-s").matrix())


class TestClosedFormExample:
    def test_all_tests_pass(self, closed_form_report):
        assert all(v.outcome is Outcome.PASS for v in closed_form_report.verdicts)
        assert closed_form_report.final is FinalVerdict.UECSM

    def test_determinant_moduli(self, closed_form_report):
        w = {v.kind: v for v in closed_form_report.verdicts}["Parallelepiped"].witness
        assert w.left == pytest.approx(3 * np.sqrt(2) / 55, abs=1e-9)
        assert w.right == pytest.approx(3 * np.sqrt(2) / 55, abs=1e-9)

    def test_certificate_attached_and_valid(self, closed_form_report):
        cert = closed_form_report.certificate
        assert cert is not None
        assert max(cert.residuals()) < 1e-9
        assert cert.is_valid()
        # min |<u_i, v_i>| = 1/10 dominates the divisor floor here.
        assert cert.beta_min_divisor == pytest.approx(0.1, abs=1e-9)


@pytest.fixture(scope="module")
def counterexample_report():
    return classify(COUNTEREXAMPLE[0].matrix())


@pytest.fixture(scope="module")
def counterexample_data():
    return compute_spectral_data(COUNTEREXAMPLE[0].matrix())


class TestCounterexample:
    """4x4 integer matrix where the necessary tests are collectively blind."""

    def test_outcome_pattern(self, counterexample_report):
        outcomes = outcomes_by_kind(counterexample_report)
        assert outcomes["Angle"] is Outcome.PASS
        assert outcomes["Grammian"] is Outcome.PASS
        assert outcomes["Parallelepiped"] is Outcome.PASS
        assert outcomes["StrongAngle"] is Outcome.FAIL
        assert counterexample_report.final is FinalVerdict.NOT_UECSM

    def test_spectrum(self, counterexample_data):
        expected = [(9 - 1j * np.sqrt(15)) / 2, (9 + 1j * np.sqrt(15)) / 2,
                    5 - 1j * np.sqrt(5), 5 + 1j * np.sqrt(5)]
        np.testing.assert_allclose(counterexample_data.lambdas, expected,
                                   atol=1e-9)

    def test_shared_gram_spectrum(self, counterexample_data):
        gu, gv = gram_pair(counterexample_data)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(gu)),
                                   COUNTEREXAMPLE_GRAM_SPECTRUM, atol=1e-4)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(gv)),
                                   COUNTEREXAMPLE_GRAM_SPECTRUM, atol=1e-4)

    def test_determinant_moduli(self, counterexample_data):
        assert abs(np.linalg.det(counterexample_data.u_basis)) == pytest.approx(
            COUNTEREXAMPLE_DET, abs=1e-8)
        assert abs(np.linalg.det(counterexample_data.v_basis)) == pytest.approx(
            COUNTEREXAMPLE_DET, abs=1e-8)

    def test_strong_angle_discrepancy(self, counterexample_report):
        w = {v.kind: v
             for v in counterexample_report.verdicts}["StrongAngle"].witness
        assert w.discrepancy == pytest.approx((4 / 75) * np.sqrt(5), abs=1e-8)
        # The two conjugate-related triples violate by exactly the same
        # amount; rounding decides which one the argmax reports.
        assert w.indices in {(1, 3, 4), (2, 3, 4)}

    def test_beta_diagnostic_full_rank(self, counterexample_data):
        beta = build_beta(counterexample_data)
        assert beta.is_complete()
        np.testing.assert_allclose(beta.entries, beta.entries.conj().T,
                                   atol=1e-12)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(beta.entries)),
                                   COUNTEREXAMPLE_BETA_SPECTRUM, atol=1e-4)
        assert np.linalg.matrix_rank(beta.entries) == 4


# An input the search once drew as candidate 2197 of seed 0, written out so
# that a change to the candidate stream cannot swap it.  Being real, it gets
# its eigenvectors from LAPACK's real routine, in conjugate pairs, so det U
# is purely imaginary and np.abs agrees with abs(complex) on it; on i times
# it, which takes the complex routine, np.abs rounds |det U| one ulp away.
CANDIDATE_2197 = np.array([[3, 8, 0], [-8, -3, 0], [-4, -3, 4]], dtype=np.complex128)


class TestTableOne:
    @pytest.mark.parametrize("fx", TABLE1, ids=lambda fx: fx.label)
    def test_published_verdicts(self, fx):
        assert classify(fx.matrix()).final.value == fx.expected_final

    @pytest.mark.parametrize("t", [*(fx.matrix() for fx in TABLE1), CANDIDATE_2197,
                                   1j * CANDIDATE_2197],
                             ids=[*(fx.label for fx in TABLE1), "candidate-2197",
                                  "candidate-2197-times-i"])
    def test_parallelepiped_volumes_round_like_complex_abs(self, t):
        # np.abs on complex128 can differ from abs(complex) in the last bit,
        # as it does for |det U| of i times the search candidate.
        sd = compute_spectral_data(t)
        w = parallelepiped_test(sd).witness
        assert w.left == abs(complex(np.linalg.det(sd.u_basis)))
        assert w.right == abs(complex(np.linalg.det(sd.v_basis)))

    def test_candidate_2197_rounds_apart_under_np_abs(self):
        det = np.linalg.det(compute_spectral_data(CANDIDATE_2197).u_basis)
        assert det.real == 0.0 and np.abs(det) == abs(complex(det))
        det = np.linalg.det(compute_spectral_data(1j * CANDIDATE_2197).u_basis)
        assert np.abs(det) != abs(complex(det))


class TestSmallDimensions:
    def test_one_by_one(self):
        report = classify(np.array([[2.0 + 1.0j]]))
        assert report.final is FinalVerdict.UECSM
        assert max(report.certificate.residuals()) < 1e-12
        # All four tests pass vacuously.
        assert all(v.outcome is Outcome.PASS for v in report.verdicts)

    def test_one_by_one_zero(self):
        report = classify(np.array([[0.0]]))
        assert report.final is FinalVerdict.UECSM

    def test_every_2x2_is_uecsm(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 50:
            t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            report = classify(t)
            if report.final is FinalVerdict.NOT_APPLICABLE:
                continue
            assert report.final is FinalVerdict.UECSM
            assert report.certificate.is_valid()
            done += 1


class TestStackReportArrays:
    def test_arrays_compare_with_members(self):
        # A member converts to its value, so an array of values compares
        # equal to the member and np.full of a member holds the value.
        rng = np.random.default_rng(27)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        reports = classify(np.array([g + g.T, g, np.diag([1.0, 1.0, 2.0])]))
        assert (reports.final == FinalVerdict.UECSM).tolist() == [True, False, False]
        assert (reports.final == FinalVerdict.NOT_APPLICABLE).tolist() == [False, False, True]
        assert (reports.outcomes[:, 2] == Outcome.NOT_APPLICABLE).all()
        assert np.full(3, Outcome.PASS).tolist() == ["Pass"] * 3
        assert str(FinalVerdict.NOT_UECSM) == f"{FinalVerdict.NOT_UECSM}" == "NotUECSM"

    def test_stack_with_no_applicable_member(self):
        # The four tests run on an empty SpectralData and leave the arrays
        # at NotApplicable; each NotApplicable is the member's own.
        stack = np.array([np.eye(3), np.diag([1.0, 1.0, 2.0]), np.zeros((3, 3))])
        reports = classify(stack)
        assert (reports.final == FinalVerdict.NOT_APPLICABLE).all()
        assert (reports.outcomes == Outcome.NOT_APPLICABLE).all()
        assert reports.not_applicable == tuple(classify(t).not_applicable for t in stack)
        assert [len(v.passed) for v in reports.verdicts] == [0] * len(TEST_KINDS)

    def test_stack_is_decided_without_a_certificate(self, monkeypatch):
        # One matrix gets its certificate built, and raises if that fails; a
        # stack builds none and counts the member under its verdict.
        def inconsistent(*args, **kwargs):
            raise BetaInconsistencyError("planted")

        monkeypatch.setattr(criteria, "build_beta", inconsistent)
        closed_form = find_fixture("closed-form-s").matrix()
        with pytest.raises(BetaInconsistencyError, match="planted"):
            classify(closed_form)
        reports = classify(np.array([find_fixture("necessary-tests-fail").matrix(),
                                     closed_form]))
        assert reports.final.tolist() == ["NotUECSM", "UECSM"]


class TestNotApplicableReports:
    def test_repeated_spectrum(self):
        report = classify(np.diag([1.0, 1.0, 2.0]))
        assert report.final is FinalVerdict.NOT_APPLICABLE
        assert all(v.outcome is Outcome.NOT_APPLICABLE for v in report.verdicts)
        assert report.not_applicable is not None
        assert report.certificate is None
        assert tuple(v.kind for v in report.verdicts) == TEST_KINDS


class TestInvariances:
    def test_phase_invariance(self):
        # Random unimodular phases on every eigenvector must not move the
        # outcomes or the witness discrepancies.
        rng = np.random.default_rng(11)
        tests = (angle_test, grammian_test, parallelepiped_test, strong_angle_test)
        for label in ("necessary-tests-fail", "closed-form-s",
                      "strong-angle-counterexample"):
            sd = compute_spectral_data(find_fixture(label).matrix())
            base = [test(sd) for test in tests]
            for _ in range(3):
                pu, pv = np.exp(2j * np.pi * rng.random((2, sd.n)))
                moved = SpectralData.from_bases(sd.lambdas, sd.u_basis * pu,
                                                sd.v_basis * pv)
                for test, v0 in zip(tests, base):
                    v1 = test(moved)
                    assert v0.outcome is v1.outcome
                    assert v1.witness.discrepancy == pytest.approx(
                        v0.witness.discrepancy, abs=1e-9)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(8)
        for s in (3, 5):
            t = family_member(s)
            expected = classify(t).final
            for _ in range(10):
                q = random_unitary(3, rng)
                rotated = q.conj().T @ t @ q
                assert classify(rotated).final is expected

    def test_transpose_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            report = classify(t)
            if report.final is FinalVerdict.NOT_APPLICABLE:
                continue
            assert classify(t.T).final is report.final

    def test_symmetric_input_is_sound(self):
        rng = np.random.default_rng(10)
        done = 0
        while done < 10:
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            sym = a + a.T
            report = classify(sym)
            if report.final is FinalVerdict.NOT_APPLICABLE:
                continue
            assert report.final is FinalVerdict.UECSM
            assert max(report.certificate.residuals()) < 1e-8
            done += 1


class TestScaleInvariance:
    @staticmethod
    def cases():
        rng = np.random.default_rng(12)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q = random_unitary(4, rng)
        return ((g, FinalVerdict.NOT_UECSM),
                (q @ (g + g.T) @ q.conj().T, FinalVerdict.UECSM))

    def test_verdict_spectrum_and_certificate_survive_extreme_scales(self):
        # ||T||_F overflows past 1e154 and underflows below 1e-154 unless
        # the pipeline first brings T to unit size.
        for t, expected in self.cases():
            base = classify(t)
            assert base.final is expected
            for c in (1e-300, 1e-200, 1e-150, 1e150, 1e160, 1e300):
                report = classify(c * t)
                assert report.final is expected
                np.testing.assert_allclose(report.spectrum, c * base.spectrum,
                                           rtol=1e-12, atol=0)
                if expected is FinalVerdict.UECSM:
                    assert report.certificate.is_valid()

    def test_certified_where_the_norm_of_t_overflows(self):
        report = classify([[1.5e308 + 1.5e308j, 1e307], [0, 1e307]])
        assert report.final is FinalVerdict.UECSM
        assert report.certificate.is_valid()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_spectrum_beyond_the_float_range_is_refused(self):
        # Every entry is finite, but the eigenvalues, about +-2.05e308, are
        # not: no report with an infinite spectrum, and no overflow warning.
        with pytest.raises(NumericalBreakdownError,
                           match=r"spectrum beyond the float range: .* \* 2\*\*1024"):
            classify([[1.5e308, 1.5e308], [1.5e308, -1.4e308]])

    def test_powers_of_four_scale_bit_for_bit(self):
        for t, _ in self.cases():
            base = classify(t)
            for k in (-200, -3, 1, 150):
                report = classify(complex_ldexp(t, 2 * k))
                assert np.array_equal(report.spectrum,
                                      complex_ldexp(base.spectrum, 2 * k))
                assert report.verdicts == base.verdicts
                if base.certificate is not None:
                    assert np.array_equal(report.certificate.s, base.certificate.s)
                    assert report.certificate.residuals() == base.certificate.residuals()


class TestIndividualTests:
    def test_vacuous_pass_on_single_vector(self):
        sd = compute_spectral_data(np.array([[4.0]]))
        for test in (angle_test, grammian_test, parallelepiped_test,
                     strong_angle_test):
            verdict = test(sd)
            assert verdict.outcome is Outcome.PASS

    def test_kind_labels(self):
        sd = compute_spectral_data(family_member(2))
        assert angle_test(sd).kind == "Angle"
        assert grammian_test(sd).kind == "Grammian"
        assert parallelepiped_test(sd).kind == "Parallelepiped"
        assert strong_angle_test(sd).kind == "StrongAngle"


def loop_angle(sd):
    gu, gv = gram_pair(sd)
    return [((i + 1, j + 1), abs(gu[i, j]), abs(gv[i, j]))
            for i in range(sd.n) for j in range(i + 1, sd.n)]


def loop_grammian(sd):
    gu, gv = gram_pair(sd)
    spec_u = sorted(np.linalg.eigvalsh(gu), reverse=True)
    spec_v = sorted(np.linalg.eigvalsh(gv), reverse=True)
    return [((k + 1,), spec_u[k], spec_v[k]) for k in range(sd.n)]


def loop_strong_angle(sd):
    uu, vv = (g.T for g in gram_pair(sd))
    out = []
    for i in range(sd.n):
        for j in range(i, sd.n):
            for k in range(j, sd.n):
                if i == j == k:
                    continue
                out.append(((i + 1, j + 1, k + 1),
                            uu[i, j] * uu[j, k] * uu[k, i],
                            np.conj(vv[i, j] * vv[j, k] * vv[k, i])))
    return out


def witness_input(kind, n, trial):
    rng = np.random.default_rng(1000 * n + trial)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "ginibre":
        return a
    q = random_unitary(n, rng)
    return q @ (a + a.T) @ q.conj().T


class TestWitnessRule:
    """Every test against a plain loop over its comparisons, written here."""

    @pytest.mark.parametrize("kind", ["ginibre", "uecsm"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_reference_loop(self, kind, n):
        cfg = DEFAULT_TOLERANCES
        for trial in range(3):
            t = witness_input(kind, n, trial)
            sd = compute_spectral_data(t, cfg)
            gu, _ = gram_pair(sd)
            for test, loop, limit in (
                    (angle_test, loop_angle, cfg.match_tol),
                    (grammian_test, loop_grammian,
                     cfg.match_tol * float(np.linalg.norm(gu))),
                    (strong_angle_test, loop_strong_angle, cfg.match_tol)):
                gaps = {idx: abs(left - right) for idx, left, right in loop(sd)}
                worst = max(gaps.values(), default=0.0)
                verdict = test(sd, cfg)
                assert verdict.outcome is (Outcome.PASS if worst <= limit
                                           else Outcome.FAIL)
                w = verdict.witness
                bound = 1e-15 * max(1.0, abs(w.left), abs(w.right))
                assert abs(w.discrepancy - worst) <= bound
                if gaps:
                    assert abs(gaps[w.indices] - worst) <= bound
            w = strong_angle_test(sd, cfg).witness
            if n > 1:
                i, j, k = w.indices
                assert i <= j <= k and not i == j == k

            lam = sd.lambdas
            gaps = {(i + 1, j + 1): abs(lam[i] - lam[j])
                    for i in range(n) for j in range(i + 1, n)}
            scale = float(np.linalg.norm(t))
            distinct = assert_distinct_spectrum(lam, cfg, scale=scale) is None
            assert distinct == all(g > cfg.eig_gap_tol * scale
                                   for g in gaps.values())
            # An infinite scale counts every gap as repeated, so the check
            # reports its smallest one.
            na = assert_distinct_spectrum(lam, cfg, scale=np.inf)
            if n == 1:
                assert na is None
                continue
            smallest = min(gaps.values())
            bound = 1e-15 * max(1.0, *(abs(lam[p - 1]) for p in na.pair))
            assert abs(na.gap - smallest) <= bound
            assert abs(gaps[na.pair] - smallest) <= bound
