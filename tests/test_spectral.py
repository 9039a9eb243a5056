"""Tests for paired eigensystem extraction.

The biorthogonality structure <u_i, v_j> = e_i delta_ij is what every
criterion downstream leans on, and the moduli |e_i| are checkable against
closed forms for the triangular reference matrix: (6/55, 1/10, 6/11) at
eigenvalues (0, 1, 6).
"""

import numpy as np
import pytest

from uecsm.fixtures import CLOSED_FORM_VECTORS, TABLE3, family_member, find_fixture
from uecsm.linalg import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    eigensystem,
    eigenvalues,
    power_of_two_rescale,
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


@pytest.fixture(scope="module")
def closed_form_data():
    return compute_spectral_data(family_member(-5))


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
    (i, offset) whose nearest adjoint eigenvalue is too far or taken."""
    matched, failure, taken = [], None, set()
    for i, z in enumerate(lam):
        dist = np.abs(mu - np.conj(z))
        k = int(np.argmin(dist))
        matched.append(k)
        if failure is None and (dist[k] > half_gap or k in taken):
            failure = (i, float(dist[k]))
        taken.add(k)
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
        conj(lambda_i) nearest to one mu_k) and an adjoint eigenvalue moved
        past HALF_GAP."""
        n = int(rng.integers(2, 9))
        lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if rng.random() < 0.5:
            i, j = rng.choice(n, size=2, replace=False)
            lam[j] = lam[i] + 1e-9 * (1 + 1j)    # both pair with mu near conj(lam[i])
        mu = np.conj(lam) + 1e-12 * rng.standard_normal(n)
        if rng.random() < 0.5:
            mu[int(rng.integers(n))] += 10 * self.HALF_GAP * (1 + 1j)
        return lam, rng.permutation(mu)

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(15)
        reasons = {"taken": 0, "offset": 0}
        for _ in range(400):
            lam, mu = self.planted(rng)
            matched, failure = _pair_adjoint(lam, mu, self.HALF_GAP)
            expected_matched, expected_failure = reference_pairing(lam, mu, self.HALF_GAP)
            assert matched.tolist() == expected_matched
            assert failure == expected_failure
            if failure is not None:
                reasons["offset" if failure[1] > self.HALF_GAP else "taken"] += 1
        # Both failure kinds occur; no eigensystem that clears the gap rule
        # reaches the "taken" one.
        assert min(reasons.values()) >= 20, reasons

    def test_taken_reported_before_a_later_offset_failure(self):
        lam = np.array([0.0, 1.0, 1.0 + 1e-9, 5.0])
        mu = np.array([0.0, 1.0, 3.0, 5.0 + 1e-3])    # 5 is off by 1e-3 > HALF_GAP
        matched, failure = _pair_adjoint(lam, mu, self.HALF_GAP)
        assert failure == (2, float(np.abs(mu[1] - np.conj(lam[2]))))
        assert matched.tolist() == [0, 1, 1, 3]


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
        *(candidate_matrix(0, i, 3, -9, 9) for i in (550, 8315)),
        *(find_fixture(label).matrix() for label in ("table2-row3", "table3-row4")),
        family_member(-5),
    ], ids=["candidate-550", "candidate-8315", "table2-row3", "table3-row4", "paired"])
    def test_adjoint_pairing_matches_reference_loop(self, t):
        expected = loop_pairing(t)
        sd = compute_spectral_data(t)
        if expected is None:
            assert isinstance(sd, SpectralData)
        else:
            assert sd.reason.startswith("adjoint spectrum does not pair")
            assert expected in sd.reason

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
