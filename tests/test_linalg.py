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
    power_of_two_rescale,
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

    def test_real_matrix_takes_the_real_routine(self):
        # A matrix with no imaginary part gets LAPACK's real results, as
        # complex128, with its complex eigenvalues in exact conjugate pairs;
        # a real matrix with real eigenvalues as well.
        rng = np.random.default_rng(5)
        for a in (rng.standard_normal((4, 4)), np.triu(rng.standard_normal((4, 4)))):
            lam, vec = eigensystem(a.astype(np.complex128))
            w, v = np.linalg.eig(a)
            order = np.lexsort((w.imag, w.real))
            assert lam.dtype == vec.dtype == np.complex128
            assert lam.tobytes() == w[order].astype(np.complex128).tobytes()
            assert vec.tobytes() == v[:, order].astype(np.complex128).tobytes()
            assert eigenvalues(a - 0j).tobytes() == np.sort(
                np.linalg.eigvals(a).astype(np.complex128)).tobytes()
            assert np.array_equal(lam, np.sort(np.conj(lam)))

    @pytest.mark.parametrize("kinds", ["rcr", "rrr", "ccc", "crc"])
    def test_mixed_stack_gives_each_member_its_own_bits(self, kinds):
        # "r" an integer matrix, "c" one with a Gaussian imaginary part.
        rng = np.random.default_rng(6)
        stack = np.array([rng.integers(-3, 4, (3, 3)) + (k == "c") * 1j * rng.standard_normal((3, 3))
                          for k in kinds])
        lam, vec = eigensystem(stack)
        values = eigenvalues(stack)
        for b, t in enumerate(stack):
            alone = eigensystem(t)
            assert lam[b].tobytes() == alone[0].tobytes()
            assert vec[b].tobytes() == alone[1].tobytes()
            assert values[b].tobytes() == eigenvalues(t).tobytes()


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

    def test_each_stalled_member_is_recorded(self):
        # Both members stall, each with its own message: a stack records
        # each member's error as it raises alone, in either order, and keeps
        # the vectors of a member that does not stall.
        a = np.array([np.diag([1.0, 2.0])] * 3)
        lam = np.array([[1.0, 2.0 + 1e-6], [1.0 + 1e-5, 2.0], [1.0, 2.0]])
        messages = []
        for b in (0, 1):
            with pytest.raises(EigenSolverError, match="stalled") as alone:
                unit_eigenvector(a[b], lam[b], start=np.eye(2))
            messages.append(str(alone.value))
        messages.append(None)
        assert messages[0] != messages[1]
        good = unit_eigenvector(a[2], lam[2], start=np.eye(2))
        for order in ([0, 1, 2], [2, 1, 0]):
            x, errors = unit_eigenvector(a[order], lam[order], start=np.array([np.eye(2)] * 3))
            assert [None if e is None else str(e) for e in errors] == [
                messages[b] for b in order]
            assert all(e is None or type(e) is EigenSolverError for e in errors)
            assert x[order.index(2)].tobytes() == good.tobytes()

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


class TestPowerOfTwoRescale:
    def test_each_member_as_alone(self):
        # Zero, subnormal, 1e307-scale and ordinary matrices in one stack.
        stack = np.array([
            np.zeros((2, 2)),
            [[5e-324, 0], [-1e-320j, 0]],
            [[1e-310 + 3e-309j, 1], [0, -2e-310]],
            [[1e307, -4e307j], [1.5e308, 1e307 + 1e307j]],
            [[1.7e308, 0], [0, 1.7e308j]],
            [[0.75, -3], [2j, 1]],
        ], dtype=np.complex128)
        a, e = power_of_two_rescale(stack)
        assert e.shape == (len(stack),)
        for b, t in enumerate(stack):
            a_b, e_b = power_of_two_rescale(t)
            assert isinstance(e_b, np.integer) and e_b % 2 == 0
            assert e[b] == e_b
            assert a[b].tobytes() == a_b.tobytes()
            assert np.abs(a_b.view(np.float64)).max() < 1.0


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
