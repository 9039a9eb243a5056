"""Unit tests for the dense linear algebra primitives and tolerance policy.

The eigenvalue ordering (ascending lexicographic by real then imaginary
part) is load-bearing for everything downstream, so it gets pinned here.
"""

import dataclasses

import numpy as np
import pytest

from uecsm.linalg import (
    DEFAULT_TOLERANCES,
    EigenSolverError,
    LinearAlgebraError,
    ToleranceConfig,
    adjoint,
    as_matrix,
    determinant,
    eigenvalues,
    unit_eigenvector,
)


class TestAsMatrix:
    def test_accepts_nested_lists(self):
        a = as_matrix([[1, 2], [3, 4]])
        assert a.dtype == np.complex128
        assert a.shape == (2, 2)

    def test_accepts_non_contiguous_views(self):
        # adjoint() hands back a conjugated transpose view; coercion must
        # not assume contiguity.
        m = np.arange(9, dtype=np.complex128).reshape(3, 3) + 1j
        a = as_matrix(adjoint(m))
        np.testing.assert_allclose(a, m.conj().T)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.nan])
    def test_rejects_non_finite(self, bad):
        m = np.eye(2, dtype=np.complex128)
        m[0, 1] = bad
        with pytest.raises(ValueError):
            as_matrix(m)


class TestEigenvalues:
    def test_triangular_spectrum_sorted(self):
        t = np.array([[0, 7, 0], [0, 1, -5], [0, 0, 6]], dtype=np.complex128)
        np.testing.assert_allclose(eigenvalues(t), [0, 1, 6], atol=1e-12)

    def test_lexicographic_ordering(self):
        lam = eigenvalues(np.diag([1 + 2j, 1 - 2j, 0]))
        np.testing.assert_allclose(lam, [0, 1 - 2j, 1 + 2j], atol=1e-12)

    def test_product_matches_determinant(self):
        # The determinant goes through LU, the eigenvalues through QR
        # iteration; agreement cross-checks both routes.
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert np.prod(eigenvalues(a)) == pytest.approx(
                determinant(a), rel=1e-8, abs=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigenvalues(np.zeros((2, 3)))


class TestUnitEigenvector:
    def test_residual_near_machine_precision(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            scale = np.linalg.norm(a)
            for lam in eigenvalues(a):
                x = unit_eigenvector(a, lam, rng=np.random.default_rng(trial))
                assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-13)
                assert np.linalg.norm(a @ x - lam * x) <= 1e-12 * scale

    def test_zero_matrix_at_zero_eigenvalue(self):
        x = unit_eigenvector(np.zeros((1, 1)), 0.0,
                             rng=np.random.default_rng(0))
        assert np.linalg.norm(x) == pytest.approx(1.0)

    def test_zero_matrix_at_nonzero_eigenvalue_raises(self):
        with pytest.raises(EigenSolverError):
            unit_eigenvector(np.zeros((2, 2)), 1.0,
                             rng=np.random.default_rng(0))

    def test_wildly_wrong_eigenvalue_raises(self):
        a = np.diag([1.0, 2.0])
        with pytest.raises(EigenSolverError):
            unit_eigenvector(a, 1000.0, rng=np.random.default_rng(0))


class TestHelpers:
    def test_adjoint(self):
        m = np.array([[1 + 1j, 2], [3, 4 - 1j]])
        np.testing.assert_allclose(adjoint(m), m.conj().T)

    def test_error_hierarchy(self):
        assert issubclass(EigenSolverError, LinearAlgebraError)


class TestToleranceConfig:
    def test_defaults(self):
        cfg = ToleranceConfig()
        assert cfg.eig_gap_tol == 1e-8
        assert cfg.zero_tol == 1e-9
        assert cfg.match_tol == 1e-7
        assert DEFAULT_TOLERANCES == cfg

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_TOLERANCES.match_tol = 1.0

    @pytest.mark.parametrize("kwargs", [
        {"eig_gap_tol": 0.0},
        {"zero_tol": -1e-9},
        {"match_tol": float("nan")},
        {"zero_tol": 1e-3, "match_tol": 1e-7},   # zero_tol above match_tol
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ToleranceConfig(**kwargs)
