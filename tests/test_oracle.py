"""Tests for the unitary-orbit descent oracle and the structural helpers.

The manifold gradient is checked against central finite differences: for a
skew-Hermitian direction K the derivative of h(exp(eps K) Q) at eps = 0
must equal Re tr(G* K).  The Newton model's gradient coordinates and
Hessian are checked the same way against first and second differences of
f(Q exp X) in the basis B_l = i (E_jk + E_kj).  Verdicts are checked
against the published nilpotent table rows and their unitary conjugates.
"""

import numpy as np
import pytest

import uecsm.oracle as oracle
from uecsm.fixtures import TABLE2, TABLE3, family_member
from uecsm.oracle import (
    ORACLE_TOL,
    OracleOutcome,
    _basis,
    _expm_skew,
    _gradient,
    _newton_model,
    _objective,
    brute_force_uecsm,
    cartesian_parts,
    nilpotent3_verdict,
    random_unitary,
    tener_applicable,
)


def direct_sum_zero(t, k):
    """T (+) 0_k; appending a zero block never changes UECSM membership."""
    out = np.zeros((len(t) + k, len(t) + k), dtype=np.complex128)
    out[:len(t), :len(t)] = t
    return out


def constructed_uecsm(n, rng):
    """Q S Q* with S = G + G^t complex Gaussian and Q random unitary."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = random_unitary(n, rng)
    return q @ (g + g.T) @ q.conj().T


def random_skew(n, rng):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = x - x.conj().T
    return k / np.linalg.norm(k)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        eps = 1e-5
        for trial in range(12):
            n = int(rng.integers(2, 6))
            t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q = random_unitary(n, rng)
            k = random_skew(n, rng)
            analytic = float(np.real(np.trace(_gradient(q, t).conj().T @ k)))
            fd = (_objective(_expm_skew(eps * k) @ q, t)
                  - _objective(_expm_skew(-eps * k) @ q, t)) / (2 * eps)
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-10)

    def test_vanishes_on_real_orthogonal_locus(self):
        # For real T the real orthogonal matrices are a critical set; the
        # random complex restarts are what actually explore the orbit.
        rng = np.random.default_rng(12)
        t = rng.standard_normal((4, 4))
        g_id = _gradient(np.eye(4, dtype=complex), t)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        g_q = _gradient(q.astype(complex), t)
        assert np.abs(g_id).max() < 1e-12
        assert np.abs(g_q).max() < 1e-12


def symmetric_direction(x, n):
    """sum_l x_l B_l with B_l = i (E_jk + E_kj) over triu_indices(n)."""
    out = np.zeros((n, n), dtype=np.complex128)
    for x_l, j, k in zip(x, *np.triu_indices(n)):
        out[j, k] += 1j * x_l
        out[k, j] += 1j * x_l
    return out


class TestNewtonModel:
    def test_basis_indices_build_the_direction(self):
        rng = np.random.default_rng(19)
        for n in (2, 4, 5):
            x = rng.standard_normal(n * (n + 1) // 2)
            pos, weight = _basis(n)[:2]
            np.testing.assert_array_equal(x[pos] * weight,
                                          symmetric_direction(x, n))

    @pytest.mark.parametrize("n", [4, 5])
    def test_matches_finite_differences(self, n):
        rng = np.random.default_rng(20 + n)
        dim = n * (n + 1) // 2
        eps = 1e-4
        for _ in range(3):
            t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q = random_unitary(n, rng)
            grad, hess = _newton_model(q, t, _gradient(q, t))

            def f(x):
                return _objective(q @ _expm_skew(symmetric_direction(x, n)), t)

            steps = eps * np.eye(dim)
            fd_grad = [(f(e) - f(-e)) / (2 * eps) for e in steps]
            fd_hess = [[(f(a + b) - f(a - b) - f(b - a) + f(-a - b))
                        / (4 * eps * eps) for b in steps] for a in steps]
            np.testing.assert_allclose(grad, fd_grad, rtol=0,
                                       atol=1e-6 * np.abs(fd_grad).max())
            np.testing.assert_allclose(hess, fd_hess, rtol=0,
                                       atol=1e-6 * np.abs(fd_hess).max())

    def test_objective_invariant_under_real_orthogonal_and_phase(self):
        # The descent runs on U(n)/O(n): f(Q O) = f(Q) for real orthogonal
        # O, and a global phase changes nothing either.
        rng = np.random.default_rng(21)
        for n in (3, 4, 5):
            t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q = random_unitary(n, rng)
            o, _ = np.linalg.qr(rng.standard_normal((n, n)))
            f = _objective(q, t)
            assert _objective(q @ o, t) == pytest.approx(f, rel=1e-12)
            assert _objective(np.exp(0.7j) * q, t) == pytest.approx(f, rel=1e-12)


class TestExpmSkew:
    def test_result_is_unitary(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 5):
            g = random_skew(n, rng)
            e = _expm_skew(g)
            np.testing.assert_allclose(e @ e.conj().T, np.eye(n), atol=1e-12)

    def test_small_argument_linearization(self):
        rng = np.random.default_rng(14)
        g = 1e-8 * random_skew(3, rng)
        np.testing.assert_allclose(_expm_skew(g), np.eye(3) + g, atol=1e-15)


class TestRandomUnitary:
    def test_unitary_and_deterministic(self):
        a = random_unitary(4, np.random.default_rng(15))
        b = random_unitary(4, np.random.default_rng(15))
        np.testing.assert_allclose(a @ a.conj().T, np.eye(4), atol=1e-12)
        assert np.array_equal(a, b)


class TestBruteForce:
    @pytest.mark.parametrize("fx", TABLE2, ids=lambda fx: fx.label)
    def test_nilpotent_table_rows(self, fx):
        verdict = brute_force_uecsm(fx.matrix(), restarts=16)
        expected = (OracleOutcome.UECSM if fx.oracle_expected
                    else OracleOutcome.NOT_UECSM)
        assert verdict.outcome is expected

    @pytest.mark.parametrize("fx", TABLE3, ids=lambda fx: fx.label)
    def test_repeated_spectrum_table_rows(self, fx):
        verdict = brute_force_uecsm(fx.matrix(), restarts=16)
        expected = (OracleOutcome.UECSM if fx.oracle_expected
                    else OracleOutcome.NOT_UECSM)
        assert verdict.outcome is expected

    def test_symmetric_input_certified_by_identity_start(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        verdict = brute_force_uecsm(a + a.T, restarts=8)
        assert verdict.outcome is OracleOutcome.UECSM
        assert verdict.restarts_used == 1
        assert verdict.best_residual < 1e-14

    def test_trivial_inputs(self):
        assert brute_force_uecsm(np.zeros((3, 3))).outcome is OracleOutcome.UECSM
        assert brute_force_uecsm([[5 + 2j]]).outcome is OracleOutcome.UECSM

    def test_deterministic_for_seed(self):
        t = family_member(3)
        a = brute_force_uecsm(t, restarts=4, seed=5)
        b = brute_force_uecsm(t, restarts=4, seed=5)
        assert a == b

    def test_restart_budget_validated(self):
        # The budget is checked before the shortcut for trivial input.
        for t in (np.eye(2) + 0j, np.zeros((3, 3)), [[5]]):
            with pytest.raises(ValueError):
                brute_force_uecsm(t, restarts=0)

    def test_residual_scale_invariance(self):
        # The reported residual is relative, so scaling T should not change
        # the verdict.
        t = TABLE2[1].matrix()
        small = brute_force_uecsm(t, restarts=8)
        big = brute_force_uecsm(1e6 * t, restarts=8)
        assert small.outcome is big.outcome is OracleOutcome.NOT_UECSM
        assert big.best_residual == pytest.approx(small.best_residual, rel=1e-3)


def count_gradient_calls(monkeypatch):
    """Wrap oracle._gradient; the returned list holds the running count."""
    calls = [0]
    gradient = oracle._gradient

    def counted(q, t):
        calls[0] += 1
        return gradient(q, t)

    monkeypatch.setattr(oracle, "_gradient", counted)
    return calls


class TestDescentBudget:
    # Damped Newton needs about 110 gradients to certify these and 830 to
    # refute them; conjugate gradient with a quadratic-fit line search
    # needed about 350 and 2900, so the bounds catch a fall back to it.
    def test_gradient_calls_to_certify(self, monkeypatch):
        calls = count_gradient_calls(monkeypatch)
        for s in range(4):
            for n in (4, 5):
                t = constructed_uecsm(n, np.random.default_rng(s))
                verdict = brute_force_uecsm(t, restarts=8, seed=0)
                assert verdict.outcome is OracleOutcome.UECSM
        assert calls[0] < 200

    def test_gradient_calls_to_refute(self, monkeypatch):
        calls = count_gradient_calls(monkeypatch)
        for s in range(4):
            for n in (4, 5):
                rng = np.random.default_rng(100 + s)
                t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                verdict = brute_force_uecsm(t, restarts=8, seed=0)
                assert verdict.outcome is OracleOutcome.NOT_UECSM
        assert calls[0] < 1600


class TestInvariance:
    def test_outcome_survives_conjugation_transpose_and_scaling(self):
        rng = np.random.default_rng(18)
        q = random_unitary(4, rng)
        cases = [(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),
                  OracleOutcome.NOT_UECSM) for _ in range(2)]
        cases += [(constructed_uecsm(4, rng), OracleOutcome.UECSM)
                  for _ in range(2)]
        for t, expected in cases:
            for variant in (t, q @ t @ q.conj().T, t.T, (2 - 3j) * t):
                verdict = brute_force_uecsm(variant, restarts=8)
                assert verdict.outcome is expected

    def test_outcome_survives_scaling_by_powers_of_ten(self):
        # The damped Newton step is invariant under scaling T; a descent
        # with step bounds fixed in absolute terms is not.
        rng = np.random.default_rng(22)
        cases = [(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                  OracleOutcome.NOT_UECSM) for n in (4, 5)]
        cases += [(constructed_uecsm(n, rng), OracleOutcome.UECSM) for n in (4, 5)]
        for t, expected in cases:
            for c in (1e-30, 1e-5, 1e10, 1e30):
                assert brute_force_uecsm(c * t, restarts=8).outcome is expected

    def test_outcome_survives_extreme_scales(self):
        # Squared and fourth-power norms of T leave the float range at these
        # scales unless the oracle first brings T to unit size.
        rng = np.random.default_rng(23)
        for n in (2, 3, 4, 5):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for t in (g, g + g.T):
                expected = brute_force_uecsm(t, restarts=4)
                for c in (1e-200, 1e-100, 1e80, 1e200):
                    verdict = brute_force_uecsm(c * t, restarts=4)
                    assert verdict.outcome is expected.outcome
                    assert verdict.restarts_used == expected.restarts_used


class TestNilpotent3:
    def test_published_pairs(self):
        assert nilpotent3_verdict(18, 18j) is True
        assert nilpotent3_verdict(18, 9j) is False

    def test_zero_product_always_yes(self):
        assert nilpotent3_verdict(0, 7) is True
        assert nilpotent3_verdict(7, 0) is True

    def test_equal_moduli_any_phase(self):
        assert nilpotent3_verdict(3, 3 * np.exp(1.3j)) is True
        assert nilpotent3_verdict(3, 3.1) is False

    def test_verdict_survives_scaling(self):
        # Scaling the matrix scales a and b together, which never changes
        # membership, so neither comparison may be absolute.
        pairs = [(18, 18j), (18, 9j), (0, 7), (3, 3 * np.exp(1.3j)), (3, 3.1)]
        for a, b in pairs:
            expected = nilpotent3_verdict(a, b)
            for c in (1e-9, 1e6):
                assert nilpotent3_verdict(c * a, c * b) is expected


class TestDirectSumZero:
    def test_zero_block_preserves_membership(self):
        # Padding forces a repeated eigenvalue, so only the oracle can still
        # decide -- and it must agree with the unpadded verdict.
        yes = brute_force_uecsm(direct_sum_zero(family_member(5), 1),
                                restarts=16)
        no = brute_force_uecsm(direct_sum_zero(family_member(3), 1),
                               restarts=16)
        assert yes.outcome is OracleOutcome.UECSM
        assert no.outcome is OracleOutcome.NOT_UECSM


class TestCartesianParts:
    def test_reassembly(self):
        rng = np.random.default_rng(17)
        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        herm, skew = cartesian_parts(t)
        np.testing.assert_allclose(herm, herm.conj().T, atol=1e-14)
        np.testing.assert_allclose(skew, skew.conj().T, atol=1e-14)
        np.testing.assert_allclose(herm + 1j * skew, t, atol=1e-14)

    def test_hermitian_part_spectrum_of_table_row(self):
        herm, _ = cartesian_parts(TABLE3[0].matrix())
        expected = sorted([0.0, 4.0, 4 * np.sqrt(2), -4 * np.sqrt(2)])
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(herm)),
                                   expected, atol=1e-12)


class TestTenerApplicable:
    @pytest.mark.parametrize("fx", TABLE2, ids=lambda fx: fx.label)
    def test_true_on_nilpotent_table(self, fx):
        applicable, reason = tener_applicable(fx.matrix())
        assert applicable is True
        assert reason

    @pytest.mark.parametrize("fx", TABLE3, ids=lambda fx: fx.label)
    def test_false_on_repeated_spectrum_table(self, fx):
        applicable, reason = tener_applicable(fx.matrix())
        assert applicable is False
        assert reason

    def test_real_diagonal_has_degenerate_skew_part(self):
        applicable, _ = tener_applicable(np.diag([1.0, 2.0, 3.0]))
        assert applicable is False

    def test_scalar_is_vacuously_applicable(self):
        applicable, _ = tener_applicable([[3.0 + 1j]])
        assert applicable is True
