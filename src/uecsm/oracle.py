"""Independent checks: unitary-orbit descent and small structural criteria.

The brute-force oracle decides UECSM without eigenvectors: it minimizes

    f(Q) = || M - M^t ||_F / ||T||_F,    M = Q* T Q,

over the unitary group.  T is UECSM exactly when the infimum is zero, so a
descent that drives f below a small tolerance certifies membership, while a
batch of restarts all stuck far above it is strong evidence against.

f(Q O) = f(Q) for every real orthogonal O (M -> O^t M O) and for a global
phase, so the search really runs over U(n)/O(n), the symmetric unitaries
S = Q Q^t, which are the conjugations C = S J of Garcia and Putinar (J
entrywise complex conjugation).  That space has only
n(n+1)/2 dimensions, so the optimizer is an exact damped Newton method on
it (Absil, Mahony and Sepulchre, Optimization Algorithms on Matrix
Manifolds, 2008, ch. 6-7; Absil, Baker and Gallivan, "Trust-region methods
on Riemannian manifolds", Found. Comput. Math. 2007).  The step is
Q <- Q exp(X) with X = sum_l x_l B_l, B_l = i (E_jk + E_kj) for j <= k,
a basis of i Sym(n), the complement of o(n) in u(n).

For the smooth objective h(Q) = (1/2) ||A||_F^2 with A = M - M^t, the
first-order expansion of h(exp(eps K) Q) in a skew-Hermitian direction K
gives  dh = Re tr(G* K)  with

    G = P - P*,   P = W T - T W,   W = Q conj(A) Q*,

which is the gradient used here (checked against central finite
differences in the test suite).  Since Q exp(eps X) = exp(eps Q X Q*) Q,
its coordinates are grad_l = Re tr((Q* G Q)* B_l).  With C_l = [M, B_l]
and L_l = C_l - C_l^t, the second-order expansion of h(Q exp X) gives the
Hessian

    H_lm = Re tr(L_l* L_m) + Re tr(A* [C_l, B_m]) + Re tr(A* [C_m, B_l]).

For X = i Y with Y real symmetric, L(X) = [M + M^t, X], and with the
antisymmetry of A this reduces to the closed form used here,

    x^t H x = 4 tr(Re(N + N^t) Y^2) - 8 Re tr(Y conj(M) Y M),  N = conj(M) M,

whose entries are gathered from the two nonzeros of each B_l (checked
against central second differences in the test suite).  The step is
x = -(H + mu I)^-1 grad from one eigh of H, with mu >= -2 lambda_min so
that the damped model is convex, started at 1e-3 max|lambda| and floored
at 1e-12 max|lambda|.  A step whose actual decrease has ratio rho > 0 to
the model's predicted decrease is accepted and mu scaled by max(1/3,
1 - (2 rho - 1)^3) (Nielsen's update); a rejected step multiplies mu by
4, and a restart ends after _MAX_TRIES rejections in a row, as it does at
the objective floor and the gradient floor.

One caveat worth keeping in mind: for real T the gradient vanishes
identically at every real orthogonal Q -- the real locus is the fixed-point
set of an isometric symmetry of h and hence critical -- so a descent
started at the identity never moves on real input, and there only the
random complex restarts explore the orbit.  On complex input the identity
start usually certifies alone: among the first 96 inputs of perfbench's
``oracle`` pool at seed 3101 (each a pool matrix in a random unitary
frame), restart 0 certified all 32 constructed UECSM matrices and all 16
UECSM fixtures.

Restarts run as stacked descents.  Restart 0 (the identity) runs alone;
then restarts [1, 8), [8, 16), ... run as one (B, n, n) stack each, in
lockstep, every member with its own Q, M = Q* T Q, f, mu and trial loop,
leaving the stack when its descent ends.  The matrix products and both
eighs of an iteration run once per stack, each slice with the arithmetic
of the one-matrix call, so every restart reaches bit for bit the residual
it reaches alone.  No further stack runs once a restart has certified, and
the verdict counts the restarts up to the first certified one: the same
outcome, best residual and restart count as running the restarts one at a
time.  A certificate from restart j >= 1 costs the rest of its stack.

Verdict bands are deliberately asymmetric: UECSM requires the best residual
at or below ORACLE_TOL; NotUECSM additionally requires a factor-10 margin
after the full restart budget; the strip in between is Inconclusive.

Smaller tools in the same spirit: the exact verdict for 3x3 nilpotent
matrices with superdiagonal (a, b) (UECSM iff ab = 0 or |a| = |b|), and
the Cartesian split T = A + iB into Hermitian parts, whose separate spectra
determine whether the cross-Gramian applicability condition holds (both A
and B must have distinct spectra).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .linalg import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    as_matrix,
    frobenius_norm,
    power_of_two_rescale,
)
from .spectral import assert_distinct_spectrum

ORACLE_TOL = 1e-6
NOT_UECSM_MARGIN = 10.0
MAX_ITERS = 2000      # descent iterations per restart

_GRAD_FLOOR = 1e-14   # squared-gradient cutoff relative to ||T||^4
_MAX_TRIES = 10       # damped steps per iteration; 4^10 shrinks the last ~1e6-fold


class OracleOutcome(str, Enum):
    UECSM = "UECSM"
    NOT_UECSM = "NotUECSM"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class OracleVerdict:
    outcome: OracleOutcome
    best_residual: float
    restarts_used: int


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary: QR of a complex Ginibre draw with phase-fixed R."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _adjoint(x: np.ndarray) -> np.ndarray:
    return x.conj().swapaxes(-1, -2)


def _orbit(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """M = Q* T Q for one Q or a (B, n, n) stack."""
    return _adjoint(q) @ t @ q


def _objective(q: np.ndarray, t: np.ndarray,
               m: np.ndarray | None = None) -> float | list[float]:
    """h(Q) = ||M - M^t||_F^2 / 2: a float for one Q, a list with one value
    per matrix for a stack.  m is M = Q* T Q when the caller has formed it."""
    if m is None:
        m = _orbit(q, t)
    norms = frobenius_norm(m - m.swapaxes(-1, -2)).tolist()
    if m.ndim == 2:
        return 0.5 * norms ** 2
    return [0.5 * x ** 2 for x in norms]


def _gradient(q: np.ndarray, t: np.ndarray, m: np.ndarray | None = None) -> np.ndarray:
    """G of the module docstring, for one Q or a stack; m as in _objective."""
    if m is None:
        m = _orbit(q, t)
    a = m - m.swapaxes(-1, -2)
    w = q @ a.conj() @ _adjoint(q)
    p = w @ t - t @ w
    return p - _adjoint(p)


def _expm_skew(g: np.ndarray) -> np.ndarray:
    """exp(g) for skew-Hermitian g, or a stack of them, via the Hermitian
    eigendecomposition of ig."""
    w, vec = np.linalg.eigh(1j * g)
    return (vec * np.exp(-1j * w)[..., None, :]) @ _adjoint(vec)


@lru_cache(maxsize=16)
def _basis(n: int) -> tuple[np.ndarray, ...]:
    """Read-only index arrays for the basis B_l = i (E_jk + E_kj), j <= k.

    Returns (pos, weight, j, k, eye, gather).  X = sum_l x_l B_l is
    x[pos] * weight, with weight i off the diagonal and 2i on it; (j, k) are
    triu_indices(n) and eye the flattened identity as a column.  gather
    indexes the flattened products u_a v_c of the halves of the stacks
    u = [I, conj(M)] and v = [R, M], each half with its own, for the four
    terms of tr(Y_l U Y_m V) = U_kj' V_k'j + U_kk' V_j'j + U_jj' V_k'k
    + U_jk' V_j'k, Y_l = E_jk + E_kj and Y_m = E_j'k' + E_k'j': for each
    term in turn, the I-R product and then the conj(M)-M product.
    """
    j, k = np.triu_indices(n)
    pos = np.zeros((n, n), dtype=np.intp)
    pos[j, k] = pos[k, j] = np.arange(j.size)
    weight = np.where(np.eye(n) > 0, 2j, 1j)
    first = [(k, j), (k, k), (j, j), (j, k)]
    second = [(j, k), (j, j), (k, k), (k, j)]
    half = np.array([0, n ** 4])[:, None, None]
    gather = np.concatenate([(a[:, None] * n + b) * n * n + d * n + c[:, None] + half
                             for (a, b), (c, d) in zip(first, second)])
    out = (pos, weight, j, k, np.eye(n).reshape(-1, 1), gather)
    for arr in out:
        arr.flags.writeable = False
    return out


def _newton_model(q: np.ndarray, t: np.ndarray, g: np.ndarray,
                  m: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of the gradient g and the Hessian of f(q exp X) at X = 0
    in the basis B_l (closed form in the module docstring), for one q or a
    stack; m as in _objective."""
    _, _, j, k, eye, gather = _basis(q.shape[-1])
    if m is None:
        m = _orbit(q, t)
    # q* g q is skew-Hermitian, so Re tr((q* g q)* B_l) = 2 Im (q* g q)_jk.
    # The gather of a stack comes out strided; BLAS sums a strided vector
    # in another order, so it is made contiguous for the model's products.
    grad = 2.0 * np.ascontiguousarray((_adjoint(q) @ g @ q).imag[..., j, k])
    mc = m.conj()
    nm = mc @ m
    row, col = m.shape[:-2] + (1, -1), m.shape[:-2] + (-1, 1)
    # Each product of an I entry with an R entry and of a conj(M) entry with
    # an M entry is formed once, then gathered into the terms, which sum in
    # order.  Only real parts are kept; an entry of I (0 or 1) times a real
    # R entry is exactly the real part of their complex product.
    r = (4.0 * (nm + nm.swapaxes(-1, -2)).real).reshape(row)
    products = np.concatenate(
        (eye * r, (mc.reshape(col) * (-8.0 * m.reshape(row))).real),
        axis=-2).reshape(m.shape[:-2] + (-1,))
    return grad, np.take(products, gather, axis=-1).sum(axis=-3)


def _descend(t: np.ndarray, q: np.ndarray, f_floor: float) -> list[float]:
    """Damped Newton descent on the quotient U(n)/O(n) from each start of
    the (B, n, n) stack q, run in lockstep; returns the best objective value
    each start reached.

    Each step is q <- q exp(X), X = sum_l x_l B_l over the basis B_l =
    i (E_jk + E_kj), j <= k, with x = -(H + mu I)^-1 grad in the
    coordinates and exact Hessian of _newton_model, taken through one eigh
    of H.  mu is kept at or above -2 lambda_min and 1e-12 max|lambda|,
    starting at 1e-3 max|lambda|.  A step whose actual decrease has ratio
    rho > 0 to the model's is accepted and mu scaled by max(1/3,
    1 - (2 rho - 1)^3); otherwise mu is multiplied by 4, and after
    _MAX_TRIES rejections the descent ends.  It also ends when f reaches
    f_floor or ||g||^2 falls to the gradient floor.

    Every start keeps its own q, M = q* T q, f, mu and trial loop, and
    leaves the stack when its descent ends.  The matrix work of an
    iteration runs once on the stack, each slice with the arithmetic of
    the one-matrix call, and the scalar steps run in Python floats; so each
    start reaches, bit for bit, the value it reaches alone.
    """
    pos, weight = _basis(t.shape[0])[:2]
    t_norm2 = float(frobenius_norm(t)) ** 2
    grad_floor = _GRAD_FLOOR * t_norm2 ** 2
    q = q.copy()    # accepted trial rows are written into q in place
    m = _orbit(q, t)
    f = _objective(q, t, m)
    best = list(f)
    live = list(range(len(f)))    # the start each row of the stack belongs to
    mu = [None] * len(f)
    starved = []
    for _ in range(MAX_ITERS):
        rows = [i for i, f_i in enumerate(f) if not (f_i <= f_floor or i in starved)]
        if len(rows) < len(live):
            if not rows:
                break
            q, m = q[rows], m[rows]
            f, mu, live = ([x[i] for i in rows] for x in (f, mu, live))
        g = _gradient(q, t, m)
        flat = g.reshape(len(g), -1)
        rows = [i for i, s in enumerate(np.vecdot(flat, flat).real.tolist())
                if not s <= grad_floor]
        if len(rows) < len(live):
            if not rows:
                break
            q, m, g = q[rows], m[rows], g[rows]
            f, mu, live = ([x[i] for i in rows] for x in (f, mu, live))
        grad, hess = _newton_model(q, t, g, m)
        lam, vec = np.linalg.eigh(hess)
        for i, (lo, hi) in enumerate(zip(lam[:, 0].tolist(), lam[:, -1].tolist())):
            scale = max(-lo, hi)
            mu[i] = max(1e-3 * scale if mu[i] is None else mu[i], -2.0 * lo, 1e-12 * scale)
        g_eig = np.vecmat(grad, vec)
        trying = list(range(len(live)))
        lam_t, g_t, vec_t, q_t = lam, g_eig, vec, q
        for _ in range(_MAX_TRIES):
            x_eig = -g_t / (lam_t + np.array([[mu[i]] for i in trying]))
            linear = np.vecdot(g_t, x_eig).tolist()
            quadratic = np.vecdot(lam_t * x_eig, x_eig).tolist()
            q_try = q_t @ _expm_skew(np.matvec(vec_t, x_eig)[..., pos] * weight)
            m_try = _orbit(q_try, t)
            f_try = _objective(q_try, t, m_try)
            took, rejected = [], []
            for j, i in enumerate(trying):
                predicted = -(linear[j] + 0.5 * quadratic[j])
                rho = (f[i] - f_try[j]) / predicted
                if rho > 0.0:
                    mu[i] *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                    f[i] = best[live[i]] = f_try[j]
                    took.append(j)
                else:
                    mu[i] *= 4.0
                    rejected.append(j)
            if len(took) == len(live):
                q, m = q_try, m_try
            elif took:
                rows = [trying[j] for j in took]
                q[rows], m[rows] = q_try[took], m_try[took]
            trying = [trying[j] for j in rejected]
            if not trying:
                break
            lam_t, g_t, vec_t, q_t = lam[trying], g_eig[trying], vec[trying], q[trying]
        starved = trying
    return best


def brute_force_uecsm(
    t,
    restarts: int = 32,
    seed: int = 0,
) -> OracleVerdict:
    """Multi-start orbit descent; deterministic for a given seed.

    Restart r starts at the identity for r = 0 and otherwise at a random
    unitary drawn from child r of ``SeedSequence(seed)``, built as
    ``SeedSequence(seed, spawn_key=(r,))`` only when its stack runs.
    Restart 0 runs alone; then restarts [1, 8), [8, 16), ... below
    ``restarts`` run as one stacked descent each, and no further stack runs
    once a restart has certified membership.  The verdict counts the
    restarts up to the first that certified (all of them if none did), and
    the best residual among them, so it is the one the restarts would give
    run one at a time and stopped at the first certificate.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    a = power_of_two_rescale(t)[0]    # rounds as t would; norms stay finite
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 1 or not a.any():
        return OracleVerdict(OracleOutcome.UECSM, 0.0, 0)
    t_norm = float(frobenius_norm(a))
    # Aim below the certification line with margin; sqrt(2 h) / ||T|| is the
    # reported residual.
    f_floor = 0.5 * (0.5 * ORACLE_TOL * t_norm) ** 2
    best, used = math.inf, 0
    cuts = sorted({0, 1, *range(8, restarts, 8), restarts})
    for lo, hi in zip(cuts, cuts[1:]):
        if best <= ORACLE_TOL:
            break
        q0 = np.array([np.eye(n, dtype=np.complex128) if r == 0
                       else random_unitary(n, np.random.default_rng(
                           np.random.SeedSequence(seed, spawn_key=(r,))))
                       for r in range(lo, hi)])
        for f in _descend(a, q0, f_floor):
            best, used = min(best, math.sqrt(2.0 * f) / t_norm), used + 1
            if best <= ORACLE_TOL:
                break
    if best <= ORACLE_TOL:
        outcome = OracleOutcome.UECSM
    elif best > NOT_UECSM_MARGIN * ORACLE_TOL:
        outcome = OracleOutcome.NOT_UECSM
    else:
        outcome = OracleOutcome.INCONCLUSIVE
    return OracleVerdict(outcome, float(best), used)


def nilpotent3_verdict(a: complex, b: complex,
                       cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """Exact UECSM verdict for [[0,a,0],[0,0,b],[0,0,0]]: ab = 0 or |a| = |b|.

    Both comparisons are relative to max(|a|, |b|), so scaling the matrix
    never changes the verdict.
    """
    small, big = sorted((abs(a), abs(b)))
    if small <= cfg.zero_tol * big:
        return True
    return bool(big - small <= cfg.match_tol * big)


def cartesian_parts(t) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian A, B with T = A + iB: A = (T + T*)/2, B = (T - T*)/(2i)."""
    a = as_matrix(t)
    herm = (a + a.conj().T) / 2.0
    skew = (a - a.conj().T) / 2j
    return herm, skew


def tener_applicable(t, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> tuple[bool, str]:
    """Whether both Cartesian parts have distinct spectra.

    That is the applicability condition for the cross-Gramian UECSM test
    this flag is named after; it fails on most of the fixture tables here
    (zero is typically a multiple eigenvalue of the skew part), which is
    what makes the eigenvector criteria and the orbit oracle interesting
    on them.  Each part meets the gap rule of ``assert_distinct_spectrum``.
    """
    a, e = power_of_two_rescale(t)
    for name, part in zip(("Hermitian part", "skew part"), cartesian_parts(a)):
        verdict = assert_distinct_spectrum(np.linalg.eigvalsh(part), cfg,
                                           scale=frobenius_norm(part), exponent=e)
        if verdict is not None:
            return False, f"{name}: {verdict.reason}"
    return True, "both Cartesian parts have distinct spectra"
