"""Tests for the beta phase matrix and the construction of S.

The triangular reference matrix [[0,7,0],[0,1,-5],[0,0,6]] has published
eigenvectors; with those phases the beta matrix is exactly

    [[ 1,  1, -1],
     [ 1,  1, -1],
     [-1, -1,  1]],

alpha = (1, 1, -1), and build_s reproduces the published S up to the global
sign that the alpha_1 = 1 gauge introduces.  With pipeline-computed
eigenvectors the same S appears up to one global unimodular factor.
"""

import numpy as np
import pytest

from uecsm.conjugation import (
    BetaInconsistencyError,
    BetaMatrix,
    build_beta,
    build_s,
    complete_beta,
    extract_alpha,
    verify_certificate,
)
from uecsm.criteria import FinalVerdict, classify
from uecsm.fixtures import CLOSED_FORM_S, CLOSED_FORM_VECTORS, find_fixture
from uecsm.linalg import LinearAlgebraError, ToleranceConfig
from uecsm.oracle import brute_force_uecsm, tener_applicable
from uecsm.spectral import SpectralData, compute_spectral_data

T_CLOSED = find_fixture("closed-form-s").matrix()

PINNED_BETA = np.array([[1, 1, -1], [1, 1, -1], [-1, -1, 1]], dtype=complex)


def pinned_data():
    u = np.array(CLOSED_FORM_VECTORS["u"]).T
    v = np.array(CLOSED_FORM_VECTORS["v"]).T
    return SpectralData.from_bases(CLOSED_FORM_VECTORS["lambdas"], u, v)


def unimodular_factor(a, b):
    """Phase z with a ~ z * b, read off the largest entry of b."""
    k = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    return a[k] / b[k]


class TestBuildBeta:
    def test_published_phases_give_sign_matrix(self):
        beta = build_beta(pinned_data())
        assert beta.is_complete()
        np.testing.assert_allclose(beta.entries, PINNED_BETA, atol=1e-12)
        assert beta.min_divisor == pytest.approx(7 / 11, abs=1e-12)

    def test_hermitian_and_unimodular_where_defined(self):
        sd = compute_spectral_data(T_CLOSED)
        beta = build_beta(sd)
        np.testing.assert_allclose(beta.entries, beta.entries.conj().T,
                                   atol=1e-12)
        np.testing.assert_allclose(np.abs(beta.entries[beta.defined]), 1.0,
                                   atol=1e-9)

    def test_normal_matrix_leaves_offdiagonal_undefined(self):
        sd = compute_spectral_data(np.diag([1.0, 2.0, 3.0]))
        beta = build_beta(sd)
        assert not beta.is_complete()
        assert beta.defined.sum() == 3          # the diagonal only
        assert beta.min_divisor == np.inf

    def test_one_sided_zero_raises(self):
        # u orthonormal but v skewed: <u_1, u_2> = 0 while <v_2, v_1> != 0.
        v = np.array([[1, 0.6, 0], [0, 0.8, 0], [0, 0, 1]], dtype=complex)
        sd = SpectralData.from_bases([0.0, 1.0, 2.0], np.eye(3), v)
        with pytest.raises(BetaInconsistencyError):
            build_beta(sd)


class TestCompleteBeta:
    def test_anchored_entry_recovered(self):
        entries = PINNED_BETA.copy()
        defined = np.ones((3, 3), dtype=bool)
        entries[1, 2] = entries[2, 1] = 0.0
        defined[1, 2] = defined[2, 1] = False
        done = complete_beta(BetaMatrix(entries, defined, min_divisor=0.5))
        assert done.is_complete()
        # beta_23 = beta_21 * beta_13 through the anchor row.
        np.testing.assert_allclose(done.entries, PINNED_BETA, atol=1e-12)

    def test_free_choice_defaults_to_one(self):
        entries = np.eye(3, dtype=complex)
        defined = np.eye(3, dtype=bool)
        done = complete_beta(BetaMatrix(entries, defined, min_divisor=np.inf))
        np.testing.assert_allclose(done.entries, np.ones((3, 3)), atol=1e-15)

    def test_index_linked_only_through_a_later_one(self):
        # Only (1, 3) and (2, 3) are defined: index 2 meets index 1 through
        # index 3 alone, so its phase is fixed, not free.
        alpha = np.exp(1j * np.array([0.3, 1.1, 2.0]))
        beta = np.outer(alpha.conj(), alpha)
        defined = np.eye(3, dtype=bool)
        defined[[0, 1, 2, 2], [2, 2, 0, 1]] = True
        done = complete_beta(BetaMatrix(np.where(defined, beta, 0), defined,
                                        min_divisor=1.0))
        np.testing.assert_allclose(done.entries, beta, atol=1e-15)

    def test_input_not_mutated(self):
        entries = np.eye(2, dtype=complex)
        defined = np.eye(2, dtype=bool)
        b = BetaMatrix(entries, defined, min_divisor=np.inf)
        complete_beta(b)
        assert not b.defined[0, 1]


class TestExtractAlpha:
    def test_alpha_from_published_phases(self):
        alpha = extract_alpha(complete_beta(build_beta(pinned_data())))
        np.testing.assert_allclose(alpha, [1, 1, -1], atol=1e-12)

    def test_rank_one_consistency(self):
        # beta_ij = conj(alpha_i) alpha_j once complete.
        beta = complete_beta(build_beta(pinned_data()))
        alpha = extract_alpha(beta)
        np.testing.assert_allclose(beta.entries,
                                   np.outer(np.conj(alpha), alpha),
                                   atol=1e-12)

    def test_incomplete_raises(self):
        b = BetaMatrix(np.eye(2, dtype=complex), np.eye(2, dtype=bool),
                       min_divisor=np.inf)
        with pytest.raises(ValueError):
            extract_alpha(b)


class TestBuildS:
    def test_published_s_up_to_gauge_sign(self):
        sd = pinned_data()
        s = build_s(sd, [1, 1, -1])
        # alpha_1 = 1 in ascending order flips the published overall sign.
        np.testing.assert_allclose(s, -CLOSED_FORM_S, atol=1e-12)

    def test_published_s_is_a_symmetric_involution(self):
        np.testing.assert_allclose(CLOSED_FORM_S, CLOSED_FORM_S.T)
        np.testing.assert_allclose(CLOSED_FORM_S @ CLOSED_FORM_S, np.eye(3),
                                   atol=1e-12)
        np.testing.assert_allclose(T_CLOSED @ CLOSED_FORM_S,
                                   CLOSED_FORM_S @ T_CLOSED.T, atol=1e-12)

    def test_pipeline_s_matches_up_to_global_phase(self):
        cert = classify(T_CLOSED).certificate
        z = unimodular_factor(cert.s, CLOSED_FORM_S)
        assert abs(z) == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(cert.s, z * CLOSED_FORM_S, atol=1e-9)

    def test_wrong_alpha_length_raises(self):
        with pytest.raises(ValueError):
            build_s(pinned_data(), [1, 1])

    def test_vanishing_e_diag_refused(self):
        # u_1 and u_2 are orthogonal to v_1 and v_2, so e_1 = e_2 = 0.
        v = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
        sd = SpectralData.from_bases([0.0, 1.0, 2.0], np.eye(3), v)
        with pytest.raises(LinearAlgebraError, match="too small to divide by"):
            build_s(sd, np.ones(3))

    def test_honours_caller_zero_tol(self):
        # min |e_i| = 3e-10 clears zero_tol = 1e-13 but not the default 1e-9;
        # the eigensystem accepted it, so building S must too.
        cfg = ToleranceConfig(zero_tol=1e-13)
        report = classify([[0, 1, 0], [0, 0, 1], [1e-15, 0, 0]], cfg)
        assert report.final is FinalVerdict.UECSM
        assert report.certificate.beta_min_divisor == pytest.approx(3e-10, rel=1e-6)


class TestVerifyCertificate:
    def test_valid_certificate(self):
        sd = pinned_data()
        cert = verify_certificate(T_CLOSED, build_s(sd, [1, 1, -1]), sd,
                                  [1, 1, -1])
        assert max(cert.residuals()) < 1e-12
        assert cert.is_valid()
        assert cert.beta_min_divisor is None    # only classify fills this

    def test_wrong_s_is_reported_not_raised(self):
        sd = pinned_data()
        cert = verify_certificate(T_CLOSED, np.eye(3, dtype=complex), sd,
                                  [1, 1, -1])
        assert not cert.is_valid()
        assert cert.residual_intertwine > 0.1
        # Symmetry and unitarity of the identity are of course fine.
        assert cert.residual_symmetry == pytest.approx(0.0)
        assert cert.residual_unitarity == pytest.approx(0.0)

    def test_residual_order(self):
        sd = pinned_data()
        cert = verify_certificate(T_CLOSED, build_s(sd, [1, 1, -1]), sd,
                                  [1, 1, -1])
        assert cert.residuals() == (cert.residual_symmetry,
                                    cert.residual_unitarity,
                                    cert.residual_intertwine,
                                    cert.residual_eigvec)


ONE_MATRIX_CHECKS = pytest.mark.parametrize("check, t", [
    # A 4x4 Ginibre matrix, NotUECSM alone, must not pass as a stack of one.
    (lambda t: brute_force_uecsm(t, restarts=1),
     np.random.default_rng(4).standard_normal((4, 4))),
    (lambda t: verify_certificate(t, build_s(pinned_data(), [1, 1, -1]), pinned_data(),
                                  [1, 1, -1]), T_CLOSED),
    (tener_applicable, T_CLOSED),
], ids=["brute_force_uecsm", "verify_certificate", "tener_applicable"])


@ONE_MATRIX_CHECKS
def test_one_matrix_checks_refuse_a_stack(check, t):
    with pytest.raises(ValueError, match="expected a square matrix, got shape"):
        check(t[None])


@ONE_MATRIX_CHECKS
def test_one_matrix_checks_refuse_a_nan_entry(check, t):
    t = np.array(t, dtype=np.complex128)
    t[0, 1] = np.nan
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        check(t)
