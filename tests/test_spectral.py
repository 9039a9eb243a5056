"""Tests for paired eigensystem extraction.

The biorthogonality structure <u_i, v_j> = e_i delta_ij is what every
criterion downstream leans on, and the moduli |e_i| are checkable against
closed forms for the triangular reference matrix: (6/55, 1/10, 6/11) at
eigenvalues (0, 1, 6).
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

import uecsm.spectral as spectral
from uecsm.criteria import classify
from uecsm.fixtures import CLOSED_FORM_VECTORS, TABLE3, family_member, find_fixture
from uecsm.linalg import (
    DEFAULT_TOLERANCES,
    EigenSolverError,
    NumericalBreakdownError,
    ToleranceConfig,
    eigensystem,
    eigenvalues,
    power_of_two_rescale,
    unit_eigenvector,
)
from uecsm.search import candidate_matrix
from uecsm.spectral import (
    NotApplicable,
    SpectralData,
    _pair_adjoint,
    assert_distinct_spectrum,
    compute_spectral_data,
    gram_pair,
)

# Inputs the search once drew as candidates 7, 550 and 8315 of seed 0,
# written out so that a change to the candidate stream cannot swap them.
# 550 and 8315 have an exactly repeated eigenvalue: the exact gate decides
# them, and without it the adjoint spectrum of each would fail to pair.
# 7 is applicable.  Candidates 28 and 30 of the 4 x 4 [-1, 1] stream of
# seed 3 have exactly repeated spectra too, which no gate sees at n = 4:
# the adjoint pairing decides them.
# test_written_out_candidates_keep_their_roles asserts these roles.
CANDIDATE_7 = np.array([[6, 2, -9], [7, 8, -3], [8, 4, 5]], dtype=np.complex128)
CANDIDATE_550 = np.array([[0, -9, 9], [-6, 5, 4], [0, -6, 6]], dtype=np.complex128)
CANDIDATE_8315 = np.array([[5, 9, 7], [8, -8, -7], [-9, 3, 4]], dtype=np.complex128)
SIGN_28 = np.array([[0, -1, 0, 0], [0, 0, 1, -1], [-1, 0, 0, 0], [0, -1, 1, -1]],
                   dtype=np.complex128)
SIGN_30 = np.array([[0, 0, 1, -1], [0, -1, -1, 0], [-1, 0, 1, -1], [0, 0, -1, 1]],
                   dtype=np.complex128)
EXACTLY_REPEATED = "exactly repeated spectrum"


@pytest.fixture(scope="module")
def closed_form_data():
    return compute_spectral_data(family_member(-5))


def spy_unit_eigenvector(monkeypatch, v_side=lambda x: x):
    """Wrap spectral's unit_eigenvector: the returned list collects (m, lam)
    per call, and ``v_side`` maps the vectors of the second (v side) call.
    One matrix runs as a stack of one, so each m is (1, n, n) and each call
    returns the vectors with the stack's list of errors."""
    calls = []

    def spy(m, lam, cfg=DEFAULT_TOLERANCES, *, start, scale):
        calls.append((np.array(m), np.array(lam)))
        x, errors = unit_eigenvector(m, lam, cfg, start=start, scale=scale)
        return (v_side(x) if len(calls) == 2 else x), errors

    monkeypatch.setattr(spectral, "unit_eigenvector", spy)
    return calls


class TestComputeSpectralData:
    def test_sorted_spectrum(self, closed_form_data):
        np.testing.assert_allclose(closed_form_data.lambdas, [0, 1, 6],
                                   atol=1e-12)

    def test_unit_columns(self, closed_form_data):
        sd = closed_form_data
        np.testing.assert_allclose(np.linalg.norm(sd.u_basis, axis=0), 1.0,
                                   atol=1e-13)
        np.testing.assert_allclose(np.linalg.norm(sd.v_basis, axis=0), 1.0,
                                   atol=1e-13)

    def test_eigenvector_residuals(self, closed_form_data):
        sd = closed_form_data
        t = family_member(-5)
        for i in range(3):
            r_u = np.linalg.norm(t @ sd.u_basis[:, i]
                                 - sd.lambdas[i] * sd.u_basis[:, i])
            r_v = np.linalg.norm(t.conj().T @ sd.v_basis[:, i]
                                 - np.conj(sd.lambdas[i]) * sd.v_basis[:, i])
            assert r_u < 1e-12
            assert r_v < 1e-12

    def test_biorthogonality(self, closed_form_data):
        sd = closed_form_data
        e = sd.v_basis.conj().T @ sd.u_basis
        off = e - np.diag(np.diag(e))
        assert np.abs(off).max() < 1e-12
        np.testing.assert_allclose(np.diag(e), sd.e_diag)

    def test_e_diag_moduli_closed_form(self, closed_form_data):
        np.testing.assert_allclose(np.abs(closed_form_data.e_diag),
                                   [6 / 55, 1 / 10, 6 / 11], atol=1e-12)

    def test_two_calls_are_bit_identical(self):
        # No random start anywhere: the bases are a function of t alone.
        t = family_member(3)
        a = compute_spectral_data(t)
        b = compute_spectral_data(t)
        assert np.array_equal(a.u_basis, b.u_basis)
        assert np.array_equal(a.v_basis, b.v_basis)

    def test_gram_pair_is_computed_once_and_read_only(self, closed_form_data):
        grams = gram_pair(closed_form_data)
        assert gram_pair(closed_form_data) is grams
        assert grams.shape == (2, 3, 3) and not grams.flags.writeable
        gu, gv = grams
        u, v = closed_form_data.u_basis, closed_form_data.v_basis
        assert np.array_equal(gu, u.conj().T @ u)
        assert np.array_equal(gv, v.conj().T @ v)

    def test_each_basis_is_refined_once(self, monkeypatch):
        # u on the rescaled T, then v on its adjoint at the paired conj(lambda).
        calls = spy_unit_eigenvector(monkeypatch)
        rng = np.random.default_rng(9)
        t = 40 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        classify(t)
        a = power_of_two_rescale(t)[0]
        assert len(calls) == 2
        (m_u, lam_u), (m_v, lam_v) = calls
        assert np.array_equal(m_u, a[None])
        assert np.array_equal(m_v, a.conj().T[None])
        half_gap = 0.5 * DEFAULT_TOLERANCES.eig_gap_tol * np.linalg.norm(a)
        assert np.abs(lam_v - lam_u.conj()).max() <= half_gap

    def test_sheared_v_basis_is_a_breakdown(self, monkeypatch):
        # A v basis off biorthogonality is a solver failure, not a verdict.
        def shear(x):
            x = x.copy()
            x[..., 1] += 1e-3 * x[..., 0]
            return x / np.linalg.norm(x, axis=-2, keepdims=True)

        spy_unit_eigenvector(monkeypatch, v_side=shear)
        with pytest.raises(NumericalBreakdownError, match="biorthogonality violated"):
            compute_spectral_data(family_member(-5))

    def test_residual_and_biorthogonality_contract(self):
        # Unit columns, residuals near machine precision relative to ||T||
        # and <u_i, v_j> = e_i delta_ij, on the search stream and on
        # Ginibre matrices.
        rng = np.random.default_rng(8)
        inputs = [candidate_matrix(0, i, 3, -9, 9) for i in range(2000)]
        inputs += [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                   for n in range(2, 9) for _ in range(10)]
        checked = 0
        for t in inputs:
            sd = compute_spectral_data(t)
            if isinstance(sd, NotApplicable):
                continue
            checked += 1
            u, v, lam = sd.u_basis, sd.v_basis, sd.lambdas
            scale = np.linalg.norm(t)
            np.testing.assert_allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-13)
            np.testing.assert_allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-13)
            assert np.linalg.norm(t @ u - u * lam, axis=0).max() <= 1e-12 * scale
            assert (np.linalg.norm(t.conj().T @ v - v * lam.conj(), axis=0).max()
                    <= 1e-12 * scale)
            e = v.conj().T @ u
            assert np.abs(e - np.diag(sd.e_diag)).max() <= 1e-12
        assert checked > 1900


def reference_pairing(lam, mu, half_gap):
    """The adjoint pairing as a plain loop: matched indices, and the first
    (i, offset) whose nearest adjoint eigenvalue is too far."""
    matched, failure = [], None
    for i, z in enumerate(lam):
        dist = np.abs(mu - np.conj(z))
        k = int(np.argmin(dist))
        matched.append(k)
        if failure is None and dist[k] > half_gap:
            failure = (i, float(dist[k]))
    return matched, failure


def loop_pairing(t, cfg=DEFAULT_TOLERANCES):
    """The adjoint pairing of compute_spectral_data as a plain loop over the
    eigenvalues: where its first failure is reported, or None."""
    a, exponent = power_of_two_rescale(t)
    lam, _ = eigensystem(a)
    mu = eigenvalues(a.conj().T)
    half_gap = 0.5 * cfg.eig_gap_tol * float(np.linalg.norm(a))
    _, failure = reference_pairing(lam, mu, half_gap)
    if failure is None:
        return None
    i, offset = failure
    return f"(offset {np.ldexp(offset, exponent):.3e} at index {i + 1})"


class TestPairAdjoint:
    HALF_GAP = 1e-6

    def planted(self, rng):
        """A spectrum and its adjoint's, shuffled and perturbed well within
        HALF_GAP, with random plants: a near-duplicate eigenvalue (two
        conj(lambda_i) nearest to one mu_k, which pairs) and an adjoint
        eigenvalue moved past HALF_GAP."""
        n = int(rng.integers(2, 9))
        lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if rng.random() < 0.5:
            i, j = rng.choice(n, size=2, replace=False)
            lam[j] = lam[i] + 1e-9 * (1 + 1j)    # both pair with mu near conj(lam[i])
        mu = np.conj(lam) + 1e-12 * rng.standard_normal(n)
        if rng.random() < 0.5:
            mu[int(rng.integers(n))] += 10 * self.HALF_GAP * (1 + 1j)
        return lam, rng.permutation(mu)

    def pair(self, lam, mu):
        """``_pair_adjoint`` on a stack of one: (shifts, NotApplicable or None)."""
        shifts, found = _pair_adjoint(lam[None], mu[None], np.array([self.HALF_GAP]),
                                      np.array([0]))
        return shifts[0], found[0]

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(15)
        failures = 0
        for _ in range(400):
            lam, mu = self.planted(rng)
            shifts, found = self.pair(lam, mu)
            expected_matched, expected_failure = reference_pairing(lam, mu, self.HALF_GAP)
            assert shifts.tobytes() == mu[expected_matched].tobytes()
            if expected_failure is None:
                assert found is None
            else:
                i, offset = expected_failure
                assert f"(offset {offset:.3e} at index {i + 1})" in found.reason
                failures += 1
        assert 20 <= failures <= 380, failures

    def test_shared_match_in_the_threshold_band_stalls_downstream(self):
        # Rounding can let two eigenvalues one ulp past eig_gap_tol * ||T||
        # share their adjoint match with both offsets within half the gap,
        # so the pairing passes them.  The v side then refines both columns
        # toward one shift; half the gap is 5 times the stall bound
        # zero_tol * ||T||, so the result is a breakdown, never a verdict.
        cfg = DEFAULT_TOLERANCES
        d = np.nextafter(cfg.eig_gap_tol * 0.7, 1.0)
        t = np.diag([0.0, d, 0.7]).astype(np.complex128)
        scale = np.linalg.norm(t)
        assert assert_distinct_spectrum(np.diag(t), cfg, scale=scale) is None
        shifts = np.conj([d / 2, d / 2, 0.7])
        _, (error,) = unit_eigenvector(t.conj().T[None], shifts[None], cfg,
                                       start=np.eye(3)[None], scale=[scale])
        assert type(error) is EigenSolverError and "stalled" in str(error)


class TestStack:
    @pytest.mark.parametrize("members, cfg", [
        # exact gate, repeated spectrum, adjoint pairing failure, applicable
        ([CANDIDATE_550, np.diag([0.5, 0.5, 1j]), find_fixture("table2-row3").matrix(),
          family_member(-5), CANDIDATE_7],
         DEFAULT_TOLERANCES),
        # repeated spectrum, applicable, collapsed min |<u_i, v_i>|, applicable
        ([np.diag([1.0, 1.0, 2.0, 3.0, 4.0]), np.diag([1.0, 2.0, 3.0, 4.0, 5.0]) + 0.5j,
          np.diag([0.0, 0.01, 0.02, 0.03, 0.04]) + np.diag(np.ones(4), 1),
          np.triu(np.arange(25.0).reshape(5, 5))],
         ToleranceConfig(eig_gap_tol=1e-3, zero_tol=1e-7, match_tol=1e-7)),
    ], ids=["gap-pairing", "gap-floor"])
    def test_each_member_as_alone(self, members, cfg):
        # Members drop out at different steps; each result stays on its own.
        data, skipped = compute_spectral_data(np.array(members), cfg)
        alone = [compute_spectral_data(t, cfg) for t in members]
        assert [isinstance(s, NotApplicable) for s in skipped] == [
            isinstance(s, NotApplicable) for s in alone]
        applicable = [s for s in alone if isinstance(s, SpectralData)]
        assert len(data.lambdas) == len(applicable) >= 1
        for b, sd in enumerate(applicable):
            member = data.member(b)
            for field in ("lambdas", "u_basis", "v_basis", "e_diag"):
                assert getattr(member, field).tobytes() == getattr(sd, field).tobytes()
        assert [s for s in skipped if s is not None] == [
            s for s in alone if isinstance(s, NotApplicable)]


    def test_floor_member_does_not_hide_a_later_wide_spectrum(self):
        # The first member is NotApplicable by the e_i floor alone; the second
        # passes every rule but has eigenvalues of about +-2.05e308.  The
        # stack records each as it is alone, in either order.
        cfg = ToleranceConfig(eig_gap_tol=1e-8, zero_tol=1e-5, match_tol=1e-5)
        floor = np.array([[0, 1], [0, 1e-6]], dtype=np.complex128)
        wide = np.array([[1.5e308, 1.5e308], [1.5e308, -1.4e308]], dtype=np.complex128)
        not_applicable = compute_spectral_data(floor, cfg)
        assert not_applicable.reason.startswith("effectively degenerate spectrum")
        with pytest.raises(NumericalBreakdownError) as alone:
            compute_spectral_data(wide, cfg)
        assert str(alone.value).startswith("spectrum beyond the float range")
        for members, (first, second) in (((floor, wide), (0, 1)), ((wide, floor), (1, 0))):
            data, skipped = compute_spectral_data(np.array(members), cfg)
            assert len(data.lambdas) == 0
            assert skipped[first] == not_applicable
            assert type(skipped[second]) is NumericalBreakdownError
            assert str(skipped[second]) == str(alone.value)

    def test_empty_stack(self):
        data, skipped = compute_spectral_data(np.zeros((0, 3, 3)))
        assert skipped == () and data.u_basis.shape == (0, 3, 3)
        reports = classify(np.zeros((0, 3, 3)))
        assert reports.not_applicable == () and len(reports.verdicts) == 4
        assert reports.final.shape == (0,) and reports.outcomes.shape == (4, 0)


class TestNotApplicable:
    def test_tiny_gap(self):
        verdict = compute_spectral_data(np.diag([1.0, 1.0 + 1e-12, 2.0]))
        assert isinstance(verdict, NotApplicable)
        assert verdict.pair == (1, 2)
        assert verdict.gap == pytest.approx(1e-12, rel=1e-3)

    def test_exactly_repeated(self):
        verdict = compute_spectral_data(np.eye(2))
        assert isinstance(verdict, NotApplicable)

    def test_zero_matrix(self):
        verdict = compute_spectral_data(np.zeros((3, 3)))
        assert isinstance(verdict, NotApplicable)

    @pytest.mark.parametrize("fx", TABLE3, ids=lambda fx: fx.label)
    def test_defective_clusters_detected(self, fx):
        # Repeated eigenvalue 0 of multiplicity three: the computed
        # eigenvalues split by roughly eps**(1/3 ) * ||T||, far beyond any
        # gap tolerance, so detection has to come from the adjoint pairing
        # or the collapse of |<u_i, v_i>|.
        verdict = compute_spectral_data(fx.matrix())
        assert isinstance(verdict, NotApplicable)
        assert verdict.reason

    @pytest.mark.parametrize("t", [
        SIGN_28, SIGN_30,
        *(find_fixture(label).matrix() for label in ("table2-row3", "table3-row4")),
        family_member(-5),
    ], ids=["sign-28", "sign-30", "table2-row3", "table3-row4", "paired"])
    def test_adjoint_pairing_matches_reference_loop(self, t):
        expected = loop_pairing(t)
        sd = compute_spectral_data(t)
        if expected is None:
            assert isinstance(sd, SpectralData)
        else:
            assert sd.reason.startswith("adjoint spectrum does not pair")
            assert expected in sd.reason

    def test_written_out_candidates_keep_their_roles(self):
        for t in (CANDIDATE_550, CANDIDATE_8315):
            assert loop_pairing(t) is not None
            assert compute_spectral_data(t).reason.startswith(EXACTLY_REPEATED)
        for t in (SIGN_28, SIGN_30):
            assert loop_pairing(t) is not None
            assert compute_spectral_data(t).reason.startswith("adjoint spectrum does not pair")
        assert loop_pairing(CANDIDATE_7) is None
        assert isinstance(compute_spectral_data(CANDIDATE_7), SpectralData)

    def test_condition_collapse_detected(self):
        # Gaps of 0.01 clear eig_gap_tol, and the adjoint pairs, but a
        # superdiagonal of ones drives min |<u_i, v_i>| to 4.0e-8.
        t = np.diag([0.0, 0.01, 0.02, 0.03, 0.04]) + np.diag(np.ones(4), 1)
        cfg = ToleranceConfig(eig_gap_tol=1e-3, zero_tol=1e-7, match_tol=1e-7)
        verdict = compute_spectral_data(t, cfg)
        assert isinstance(verdict, NotApplicable)
        assert verdict.reason.startswith("effectively degenerate spectrum")
        assert verdict.pair is None and verdict.gap is None

    def test_gap_is_reported_in_the_units_of_t(self):
        for scale in (1e-300, 1.0, 1e300):
            verdict = compute_spectral_data(scale * np.diag([1.0, 1.0 + 1e-12, 2.0]))
            assert verdict.gap == pytest.approx(scale * 1e-12, rel=1e-3)
            assert f"{verdict.gap:.3e}" in verdict.reason

    def test_gap_decided_where_the_norm_of_t_overflows(self):
        # ||T||_F is beyond the float range although every entry is finite.
        t = np.array([[1.5e308 + 1.5e308j, 1e307], [0, 1e307]])
        sd = compute_spectral_data(t)
        assert isinstance(sd, SpectralData)
        np.testing.assert_array_equal(sd.lambdas, [1e307, 1.5e308 + 1.5e308j])

    def test_single_eigenvalue_is_applicable(self):
        sd = compute_spectral_data(np.array([[3.0 + 1j]]))
        assert isinstance(sd, SpectralData)
        assert abs(abs(sd.e_diag[0]) - 1.0) < 1e-12


def gated(t) -> bool:
    """Whether the exact gate decides ``t``, run as a stack of one so that a
    breakdown of the later steps is recorded rather than raised."""
    (found,) = compute_spectral_data(np.asarray(t, dtype=np.complex128)[None])[1]
    return isinstance(found, NotApplicable) and found.reason.startswith(EXACTLY_REPEATED)


class TestExactGate:
    def test_decided_before_any_lapack_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(spectral, "eigensystem", lambda *args: calls.append(args))
        members = [CANDIDATE_550, CANDIDATE_8315, np.zeros((3, 3)), np.diag([2.0, 2.0, -1.0])]
        for t in members:
            verdict = compute_spectral_data(t)
            assert verdict.reason.startswith(EXACTLY_REPEATED)
            assert verdict.pair is None and verdict.gap is None
        data, skipped = compute_spectral_data(np.array(members))
        assert len(data.lambdas) == 0 and all(s.reason.startswith(EXACTLY_REPEATED)
                                              for s in skipped)
        assert calls == []

    @pytest.mark.parametrize("t, decided", [
        (CANDIDATE_550, True),
        (CANDIDATE_550.conj(), True),          # imaginary parts -0.0
        (2**40 * CANDIDATE_550, True),         # decided at any scale
        (256 * CANDIDATE_8315, True),
        # The rounded entries fl(k / 3) are not exactly proportional to k, and
        # their discriminant is not 0.
        (CANDIDATE_550 / 3, False),
        (1j * CANDIDATE_550, False),           # not real
        (CANDIDATE_7, False),                  # distinct spectrum
        (2**40 * CANDIDATE_7, False),
        (np.eye(2), False),                    # not 3 x 3
        (np.eye(4), False),
    ], ids=["550", "550-conj", "550-2**40", "8315-256", "550/3", "550-imaginary", "7",
            "7-2**40", "eye-2", "eye-4"])
    def test_decides_real_integer_3x3_input_only(self, t, decided):
        # The gate decides every real 3 x 3 input; integer input is one case.
        assert gated(t) is decided

    @pytest.mark.parametrize("t, decided", [
        (CANDIDATE_550 / 2, True),             # not integral: Python integers
        (2**-1000 * CANDIDATE_8315, True),
        (0.1 * np.diag([1.0, 1.0, 3.0]), True),
        (CANDIDATE_7 / 3, False),
    ], ids=["550/2", "8315-2**-1000", "diag-tenths", "7/3"])
    def test_decides_real_3x3_input_at_any_scale(self, t, decided):
        assert gated(t) is decided

    def test_gate_is_the_exact_discriminant_of_real_input(self):
        # Real Gaussian members, every 7th sign matrix over 3 (each exactly
        # fl(1/3) times a sign matrix) and spectra one part in 2**40 from
        # repeated: each is gated exactly when the discriminant of its
        # entries, in Fractions, is 0.
        rng = np.random.default_rng(33)
        grid = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=9))).reshape(-1, 3, 3)
        near = [np.diag([1.0, 1.0 + 2.0**-40, 3.0]) * s for s in (1.0, 0.1, 2.0**-600)]
        members = [*rng.standard_normal((100, 3, 3)), *(grid[::7] / 3), *near]
        decided = [gated(m) for m in members]
        assert decided == [spectral._discriminant(*map(Fraction, m.ravel().tolist())) == 0
                           for m in members]
        assert 0 < sum(decided) < len(members) and not any(decided[-3:])

    def test_discriminant_is_the_product_of_squared_gaps(self):
        # M = S diag(d) S^-1 with S unimodular is an integer matrix with
        # spectrum d, so its discriminant is prod (d_i - d_j)**2 over i < j.
        rng = np.random.default_rng(31)
        for _ in range(200):
            lower = np.eye(3, dtype=np.int64) + np.tril(rng.integers(-2, 3, (3, 3)), -1)
            upper = np.eye(3, dtype=np.int64) + np.triu(rng.integers(-2, 3, (3, 3)), 1)
            s = upper @ lower
            s_inv = np.rint(np.linalg.inv(s)).astype(np.int64)
            assert (s @ s_inv == np.eye(3)).all()
            d = rng.integers(-4, 5, 3)
            m = s @ np.diag(d) @ s_inv
            a, b, c = d.tolist()
            assert spectral._discriminant(*m.ravel().tolist()) == ((a - b) * (a - c) * (b - c)) ** 2
            assert gated(m) is (len(set(d.tolist())) < 3)

    def test_gate_is_exact_on_integer_entries_up_to_255(self):
        # Integer members with entries up to 255 in magnitude: random ones,
        # every sign pattern of 255, lambda I + u (u x w)^t (a nilpotent
        # part on a triple eigenvalue, whose float64 discriminant rounds away
        # from 0 for large lambda), and unimodular similarities S X S^-1 of
        # spectra with discriminant 0 or 4 and of the companion matrices of
        # x**3 + x**2 + x and x**3 + x (discriminants -3 and -4).  No integer
        # cubic has discriminant 1 or -1, so these are the least nonzero
        # ones the gate must tell from 0.  Each member is gated exactly when
        # its discriminant, in Fractions, is 0.
        rng = np.random.default_rng(32)
        signs = np.array(list(itertools.product((-1, 1), repeat=9)))
        triple = []
        while len(triple) < 200:
            u, w = rng.integers(-2, 3, (2, 3))
            m = rng.integers(-255, 256) * np.eye(3, dtype=np.int64) + np.outer(u, np.cross(u, w))
            if np.abs(m).max() <= 255:
                triple.append(m.ravel())
        spectra = [np.diag(d) for d in ((2, 2, -1), (0, 0, 0), (-3, 4, 4), (0, 1, 2), (5, 6, 7))]
        companions = [np.array([[0, 0, 0], [1, 0, -c1], [0, 1, -c2]]) for c1, c2 in ((1, 1), (1, 0))]
        similar = []
        while len(similar) < 400:
            lower = np.eye(3, dtype=np.int64) + np.tril(rng.integers(-3, 4, (3, 3)), -1)
            upper = np.eye(3, dtype=np.int64) + np.triu(rng.integers(-3, 4, (3, 3)), 1)
            s = upper @ lower
            s_inv = np.rint(np.linalg.inv(s)).astype(np.int64)
            m = s @ [*spectra, *companions][len(similar) % 7] @ s_inv
            if np.abs(m).max() <= 255:
                similar.append(m.ravel())
        members = np.concatenate([rng.integers(-255, 256, (1000, 9)), 255 * signs,
                                  triple, similar])
        exact = [spectral._discriminant(*map(Fraction, m)) for m in members.tolist()]
        assert {abs(x) for x in exact[-400:]} == {0, 3, 4}
        stack = members.reshape(-1, 3, 3).astype(np.complex128)
        rounded = spectral._discriminant(*power_of_two_rescale(stack)[0].real.reshape(-1, 9).T)
        assert np.count_nonzero(rounded[1512:1712])    # float64 alone would miss these
        _, skipped = compute_spectral_data(stack)
        decided = [isinstance(f, NotApplicable) and f.reason.startswith(EXACTLY_REPEATED)
                   for f in skipped]
        assert decided == [x == 0 for x in exact]
        assert any(decided[1000:1512]) and not all(decided[1000:1512])


class TestAssertDistinctSpectrum:
    def test_accepts_separated(self):
        assert assert_distinct_spectrum([0.0, 1.0, 6.0], scale=6.0) is None

    def test_rejects_close_pair(self):
        verdict = assert_distinct_spectrum([0.0, 1e-10], scale=1.0)
        assert isinstance(verdict, NotApplicable)
        assert verdict.pair == (1, 2)

    def test_gap_is_relative_to_scale(self):
        # Gap 1e-3 with eigenvalues of size 1e6: relatively degenerate.
        verdict = assert_distinct_spectrum([1e6, 1e6 + 1e-3], scale=1e6)
        assert isinstance(verdict, NotApplicable)
        assert assert_distinct_spectrum([1.0, 1.0 + 1e-3], scale=1.0) is None

    def test_exponent_scales_the_report_not_the_decision(self):
        verdict = assert_distinct_spectrum([0.0, 1e-10], scale=1.0, exponent=1000)
        assert verdict.gap == np.ldexp(1e-10, 1000)
        threshold = np.ldexp(ToleranceConfig().eig_gap_tol, 1000)
        assert verdict.reason.endswith(f"within tolerance {threshold:.3e}")
        assert assert_distinct_spectrum([0.0, 1.0], scale=1.0, exponent=1000) is None

    def test_single_value_vacuous(self):
        assert assert_distinct_spectrum([5.0], scale=5.0) is None

    def test_tolerance_is_configurable(self):
        loose = ToleranceConfig(eig_gap_tol=1e-2)
        assert isinstance(assert_distinct_spectrum([0.0, 1e-3], loose,
                                                   scale=1.0), NotApplicable)
        assert assert_distinct_spectrum([0.0, 1e-3], scale=1.0) is None


class TestFromBases:
    def test_published_vectors(self):
        u = np.array(CLOSED_FORM_VECTORS["u"]).T
        v = np.array(CLOSED_FORM_VECTORS["v"]).T
        sd = SpectralData.from_bases(CLOSED_FORM_VECTORS["lambdas"], u, v)
        np.testing.assert_allclose(sd.e_diag, [-6 / 55, 1 / 10, 6 / 11],
                                   atol=1e-12)
        assert sd.n == 3

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SpectralData.from_bases([1.0, 2.0], np.eye(3), np.eye(3))

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 32])
    def test_e_diag_matches_compute_spectral_data_bit_for_bit(self, n):
        # Both take e_i from the diagonal of V* U, so rebuilding the data of
        # a computed eigensystem from its bases gives back its very bits.
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            sd = compute_spectral_data(t)
            rebuilt = SpectralData.from_bases(sd.lambdas, sd.u_basis, sd.v_basis)
            assert rebuilt.e_diag.tobytes() == sd.e_diag.tobytes()
