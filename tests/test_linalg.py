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
    as_matrix,
    eigensystem,
    eigenvalues,
    unit_eigenvector,
)


class TestAsMatrix:
    def test_accepts_nested_lists(self):
        a = as_matrix([[1, 2], [3, 4]])
        assert a.dtype == np.complex128
        assert a.shape == (2, 2)

    def test_accepts_non_contiguous_views(self):
        # A conjugated transpose is a view; coercion must not assume
        # contiguity.
        m = np.arange(9, dtype=np.complex128).reshape(3, 3) + 1j
        a = as_matrix(m.conj().T)
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
                np.linalg.det(a), rel=1e-8, abs=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigenvalues(np.zeros((2, 3)))

    def test_eigensystem_pairs_sorted_values_with_columns(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 5, 8):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            lam, vec = eigensystem(a)
            np.testing.assert_allclose(lam, eigenvalues(a), atol=1e-12)
            assert np.array_equal(np.lexsort((lam.imag, lam.real)), np.arange(n))
            np.testing.assert_allclose(np.linalg.norm(vec, axis=0), 1.0, atol=1e-13)
            assert np.linalg.norm(a @ vec - vec * lam) <= 1e-12 * np.linalg.norm(a)


class TestUnitEigenvector:
    def test_residual_near_machine_precision(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            scale = np.linalg.norm(a)
            lam, start = eigensystem(a)
            x = unit_eigenvector(a, lam, start=start)
            np.testing.assert_allclose(np.linalg.norm(x, axis=0), 1.0, atol=1e-13)
            assert np.linalg.norm(a @ x - x * lam, axis=0).max() <= 1e-12 * scale

    def test_start_on_target_is_only_normalized(self):
        a = np.diag([1.0, 2.0, 4.0])
        start = np.diag([3.0, -2j, 0.5]) + 1e-17
        x = unit_eigenvector(a, [1.0, 2.0, 4.0], start=start)
        assert np.array_equal(x, start / np.linalg.norm(start, axis=0))

    def test_perturbed_start_is_refined(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        lam, exact = eigensystem(a)
        start = exact + 1e-3 * rng.standard_normal((5, 5))
        x = unit_eigenvector(a, lam, start=start)
        assert np.linalg.norm(a @ x - x * lam, axis=0).max() <= 1e-12 * np.linalg.norm(a)
        # Each column stays on its own eigenline.
        overlap = np.abs(np.einsum("ki,ki->i", exact.conj(), x))
        np.testing.assert_allclose(overlap, 1.0, atol=1e-10)

    def test_stalled_column_raises(self):
        # An eigenvalue off by 1e-6 caps the residual far above zero_tol.
        a = np.diag([1.0, 2.0])
        with pytest.raises(EigenSolverError, match="stalled"):
            unit_eigenvector(a, [1.0, 2.0 + 1e-6], start=np.eye(2))

    def test_zero_matrix_at_zero_eigenvalue(self):
        x = unit_eigenvector(np.zeros((1, 1)), [0.0], start=[[2.0]])
        assert np.linalg.norm(x) == pytest.approx(1.0)

    def test_zero_matrix_at_nonzero_eigenvalue_raises(self):
        with pytest.raises(EigenSolverError):
            unit_eigenvector(np.zeros((2, 2)), [0.0, 1.0], start=np.eye(2))

    def test_wildly_wrong_eigenvalue_raises(self):
        a = np.diag([1.0, 2.0])
        with pytest.raises(EigenSolverError):
            unit_eigenvector(a, [1.0, 1000.0], start=np.eye(2))


class TestHelpers:
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
