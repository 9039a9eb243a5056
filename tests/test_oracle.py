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
from uecsm.fixtures import TABLE1, TABLE2, TABLE3, family_member
from uecsm.linalg import power_of_two_rescale
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

    def test_negative_seed_refused(self):
        # Also before the shortcut for trivial input, which draws no stream.
        for t in (np.zeros((3, 3)), family_member(3)):
            with pytest.raises(ValueError, match="^seed must be nonnegative$"):
                brute_force_uecsm(t, restarts=2, seed=-1)

    def test_inconclusive_band_spends_every_restart(self, monkeypatch):
        # Every descent ends at residual 3e-6, between ORACLE_TOL and
        # NOT_UECSM_MARGIN * ORACLE_TOL: neither a certificate nor a refutation.
        t = TABLE2[1].matrix()
        t_norm = np.linalg.norm(power_of_two_rescale(t)[0])
        f = 0.5 * (3e-6 * t_norm) ** 2
        monkeypatch.setattr(oracle, "_descend", lambda a, q, f_floor: [f] * len(q))
        verdict = brute_force_uecsm(t, restarts=5)
        assert verdict.outcome is OracleOutcome.INCONCLUSIVE
        assert verdict.restarts_used == 5
        assert verdict.best_residual == pytest.approx(3e-6, rel=1e-12)

    def test_restart_ends_after_max_tries_rejections(self, monkeypatch):
        # Every trial point is infinitely worse, so each damped step is
        # rejected; the restart ends after _MAX_TRIES of them at the start.
        rng = np.random.default_rng(17)
        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q = random_unitary(4, rng)[None]
        start = _objective(q[0], t)
        trials = []

        def expm(g):
            trials.append(g)
            return _expm_skew(g)

        monkeypatch.setattr(oracle, "_objective", lambda p, a, m=None:
                            [start if np.array_equal(p, q) else np.inf] * len(p))
        monkeypatch.setattr(oracle, "_expm_skew", expm)
        assert oracle._descend(t, q, 0.0) == [start]
        assert len(trials) == oracle._MAX_TRIES

    def test_starved_member_leaves_the_others_alone(self, monkeypatch):
        # Member 0 starts at 2 U: every trial point q exp(X) keeps its
        # Frobenius norm 4, where member 1's keep 2, so a stub can reject
        # exactly member 0's steps.  It stops after _MAX_TRIES of them, and
        # member 1 ends where it ends alone.
        rng = np.random.default_rng(24)
        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q = np.array([2.0 * random_unitary(4, rng), random_unitary(4, rng)])
        alone = oracle._descend(t, q[1:], 0.0)
        objective = oracle._objective
        start = objective(q[0], t)
        starved = []

        def rejecting(p, a, m=None):
            f = objective(p, a, m)
            if np.array_equal(p, q):
                return f
            big = np.linalg.norm(p, axis=(1, 2)) > 3.0
            starved.append(int(big.sum()))
            return [np.inf if b else f_b for b, f_b in zip(big, f)]

        monkeypatch.setattr(oracle, "_objective", rejecting)
        before = q.copy()
        assert oracle._descend(t, q, 0.0) == [start, alone[0]]
        assert sum(starved) == oracle._MAX_TRIES
        # Member 1's accepted steps are written into _descend's own copy.
        assert np.array_equal(q, before)

    def test_restart_schedule(self, monkeypatch):
        # Restart 0 runs alone, then stacks [1, 8), [8, 16), ...; restart 10
        # certifies first, so the stack [8, 16) is the last to run, and the
        # lower residual of restart 12 after it does not count.
        t = TABLE2[1].matrix()
        t_norm = np.linalg.norm(power_of_two_rescale(t)[0])
        residuals = [1e-3] * 32
        residuals[10], residuals[12] = 1e-8, 1e-9
        stacks = []

        def descend(a, q, f_floor):
            lo = sum(stacks)
            stacks.append(len(q))
            return [0.5 * (x * t_norm) ** 2 for x in residuals[lo:lo + len(q)]]

        monkeypatch.setattr(oracle, "_descend", descend)
        verdict = brute_force_uecsm(t, restarts=32)
        assert stacks == [1, 7, 8]
        assert verdict.outcome is OracleOutcome.UECSM
        assert verdict.restarts_used == 11
        assert verdict.best_residual == pytest.approx(1e-8, rel=1e-12)
        stacks.clear()
        assert brute_force_uecsm(t, restarts=9).restarts_used == 9
        assert stacks == [1, 7, 1]

    def test_residual_scale_invariance(self):
        # The reported residual is relative, so scaling T should not change
        # the verdict.
        t = TABLE2[1].matrix()
        small = brute_force_uecsm(t, restarts=8)
        big = brute_force_uecsm(1e6 * t, restarts=8)
        assert small.outcome is big.outcome is OracleOutcome.NOT_UECSM
        assert big.best_residual == pytest.approx(small.best_residual, rel=1e-3)


def count_gradient_calls(monkeypatch):
    """Wrap oracle._gradient; the returned list holds the running count of
    gradients, one per member of a stack."""
    calls = [0]
    gradient = oracle._gradient

    def counted(q, t, m=None):
        calls[0] += len(q) if q.ndim == 3 else 1
        return gradient(q, t, m)

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


def ginibre(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# (input, restarts, outcome, best_residual.hex(), restarts_used) as the
# restarts gave them run one at a time, before they ran as stacks (seed 7).
# Table 1 rows 1 and 3 are real, so the identity start cannot move and
# restart 1 certifies; the 32-restart refutations cross four stacks.  The
# hex values are the rounding of numpy 2.4.6 with its bundled OpenBLAS
# 0.3.31 on x86-64; another BLAS build may differ in the last bits.
PINNED = [
    ("ginibre-4", 8, "NotUECSM", "0x1.698daffb9cfc3p-2", 8),
    ("ginibre-4", 32, "NotUECSM", "0x1.698daffb9cfacp-2", 32),
    ("ginibre-5", 8, "NotUECSM", "0x1.2f8931f4ce719p-2", 8),
    ("ginibre-5", 32, "NotUECSM", "0x1.2f8931f4ce709p-2", 32),
    ("constructed-5", 8, "UECSM", "0x1.56d5e07534aecp-28", 1),
    ("constructed-5", 32, "UECSM", "0x1.56d5e07534aecp-28", 1),
    ("table1-row1", 8, "UECSM", "0x1.96e57a8bb17fdp-27", 2),
    ("table1-row1", 32, "UECSM", "0x1.96e57a8bb17fdp-27", 2),
    ("table2-row2", 8, "NotUECSM", "0x1.43d1362484901p-1", 8),
    ("table2-row2", 32, "NotUECSM", "0x1.43d13624848f2p-1", 32),
    ("table1-row3", 8, "UECSM", "0x1.79bb8515172dbp-25", 2),
    ("table1-row3", 32, "UECSM", "0x1.79bb8515172dbp-25", 2),
]

PINNED_INPUTS = {
    "ginibre-4": lambda: ginibre(4, 41),
    "ginibre-5": lambda: ginibre(5, 42),
    "constructed-5": lambda: constructed_uecsm(5, np.random.default_rng(43)),
    "table1-row1": TABLE1[0].matrix,
    "table2-row2": TABLE2[1].matrix,
    "table1-row3": TABLE1[2].matrix,
}


class TestStackedDescent:
    @pytest.mark.parametrize("name, restarts, outcome, residual, used", PINNED,
                             ids=[f"{p[0]}-{p[1]}" for p in PINNED])
    def test_verdict_bit_identical_to_one_restart_at_a_time(
            self, name, restarts, outcome, residual, used):
        verdict = brute_force_uecsm(PINNED_INPUTS[name](), restarts=restarts, seed=7)
        assert verdict.outcome.value == outcome
        assert verdict.best_residual.hex() == residual
        assert verdict.restarts_used == used

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_each_member_ends_where_it_ends_alone(self, n):
        # Every start, stacked with others, reaches bit for bit the value it
        # reaches as a stack of one, whenever its neighbours stop.
        rng = np.random.default_rng(60 + n)
        for t in (ginibre(n, 70 + n), constructed_uecsm(n, rng)):
            t = power_of_two_rescale(t)[0]
            q = np.array([np.eye(n, dtype=np.complex128)]
                         + [random_unitary(n, rng) for _ in range(6)])
            f_floor = 0.5 * (0.5 * ORACLE_TOL * np.linalg.norm(t)) ** 2
            stacked = oracle._descend(t, q, f_floor)
            assert stacked == [oracle._descend(t, q[b:b + 1], f_floor)[0]
                               for b in range(len(q))]


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

    def test_flag_survives_extreme_scales(self):
        for fx in TABLE2 + TABLE3:
            applicable, _ = tener_applicable(fx.matrix())
            for c in (1e-300, 1e-160, 1e160, 1e300):
                assert tener_applicable(c * fx.matrix())[0] is applicable

    def test_flag_survives_an_overflowing_norm(self):
        t = np.diag([1.5e308, -1.5e308, 0.5]) + 1j * np.diag([1.0, 2.0, 3.0])
        assert tener_applicable(t)[0] is True

    def test_reason_names_the_part(self):
        _, reason = tener_applicable(np.diag([1.0, 2.0, 3.0]))
        assert reason.startswith("skew part: repeated spectrum")

    def test_scalar_is_vacuously_applicable(self):
        applicable, _ = tener_applicable([[3.0 + 1j]])
        assert applicable is True
