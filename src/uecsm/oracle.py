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
started at the identity never moves on real input.  The random complex restarts are what actually explore the orbit;
the identity start is kept only because it is free and occasionally lands
exactly on a symmetric representative.

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

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .linalg import DEFAULT_TOLERANCES, ToleranceConfig, as_matrix, power_of_two_rescale
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


def _objective(q: np.ndarray, t: np.ndarray) -> float:
    m = q.conj().T @ t @ q
    a = m - m.T
    return 0.5 * float(np.linalg.norm(a)) ** 2


def _gradient(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    m = q.conj().T @ t @ q
    a = m - m.T
    w = q @ a.conj() @ q.conj().T
    p = w @ t - t @ w
    return p - p.conj().T


def _expm_skew(g: np.ndarray) -> np.ndarray:
    """exp(g) for skew-Hermitian g via the Hermitian eigendecomposition of ig."""
    w, vec = np.linalg.eigh(1j * g)
    return (vec * np.exp(-1j * w)) @ vec.conj().T


@lru_cache(maxsize=16)
def _basis(n: int) -> tuple[np.ndarray, ...]:
    """Read-only index arrays for the basis B_l = i (E_jk + E_kj), j <= k.

    Returns (pos, weight, j, k, eye, left, right).  X = sum_l x_l B_l is
    x[pos] * weight, with weight i off the diagonal and 2i on it; (j, k) are
    triu_indices(n) and eye the flattened identity.  left and right are
    flat indices into the stacks [I, conj(M)] and [R, M] that gather the
    four terms of tr(Y_l U Y_m V) = U_kj' V_k'j + U_kk' V_j'j + U_jj' V_k'k
    + U_jk' V_j'k for Y_l = E_jk + E_kj and Y_m = E_j'k' + E_k'j'.
    """
    j, k = np.triu_indices(n)
    pos = np.zeros((n, n), dtype=np.intp)
    pos[j, k] = pos[k, j] = np.arange(j.size)
    weight = np.where(np.eye(n) > 0, 2j, 1j)
    first = [(k, j), (k, k), (j, j), (j, k)]
    second = [(j, k), (j, j), (k, k), (k, j)]
    shift = np.array([0, n * n])[:, None, None]
    left = np.concatenate([a[:, None] * n + b + shift for a, b in first])
    right = np.concatenate([b * n + a[:, None] + shift for a, b in second])
    out = (pos, weight, j, k, np.eye(n).ravel(), left, right)
    for arr in out:
        arr.flags.writeable = False
    return out


def _newton_model(q: np.ndarray, t: np.ndarray,
                  g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of the gradient g and the Hessian of f(q exp X) at X = 0
    in the basis B_l (closed form in the module docstring)."""
    _, _, j, k, eye, left, right = _basis(q.shape[0])
    qh = q.conj().T
    # q* g q is skew-Hermitian, so Re tr((q* g q)* B_l) = 2 Im (q* g q)_jk.
    grad = 2.0 * (qh @ g @ q).imag[j, k]
    m = qh @ t @ q
    mc = m.conj()
    nm = mc @ m
    u = np.concatenate((eye, mc.ravel()))
    v = np.concatenate(((4.0 * (nm + nm.T).real).ravel(), -8.0 * m.ravel()))
    return grad, (u[left] * v[right]).sum(axis=0).real


def _descend(t: np.ndarray, q: np.ndarray, f_floor: float) -> float:
    """Damped Newton descent on the quotient U(n)/O(n) from q; returns the
    best objective value reached.

    Each step is q <- q exp(X), X = sum_l x_l B_l over the basis B_l =
    i (E_jk + E_kj), j <= k, with x = -(H + mu I)^-1 grad in the
    coordinates and exact Hessian of _newton_model, taken through one eigh
    of H.  mu is kept at or above -2 lambda_min and 1e-12 max|lambda|,
    starting at 1e-3 max|lambda|.  A step whose actual decrease has ratio
    rho > 0 to the model's is accepted and mu scaled by max(1/3,
    1 - (2 rho - 1)^3); otherwise mu is multiplied by 4, and after
    _MAX_TRIES rejections the restart ends.  The descent also stops when f
    reaches f_floor or ||g||^2 falls to the gradient floor.
    """
    pos, weight = _basis(q.shape[0])[:2]
    f = _objective(q, t)
    t_norm2 = float(np.linalg.norm(t)) ** 2
    grad_floor = _GRAD_FLOOR * t_norm2 ** 2
    mu = None
    for _ in range(MAX_ITERS):
        if f <= f_floor:
            break
        g = _gradient(q, t)
        if float(np.vdot(g, g).real) <= grad_floor:
            break
        grad, hess = _newton_model(q, t, g)
        lam, vec = np.linalg.eigh(hess)
        lo, scale = float(lam[0]), float(max(-lam[0], lam[-1]))
        mu = max(1e-3 * scale if mu is None else mu, -2.0 * lo, 1e-12 * scale)
        g_eig = vec.T @ grad
        for _ in range(_MAX_TRIES):
            x_eig = -g_eig / (lam + mu)
            predicted = -float(g_eig @ x_eig + 0.5 * (lam * x_eig) @ x_eig)
            q_try = q @ _expm_skew((vec @ x_eig)[pos] * weight)
            f_try = _objective(q_try, t)
            rho = (f - f_try) / predicted
            if rho > 0.0:
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                break
            mu *= 4.0
        else:
            break
        q, f = q_try, f_try
    return f


def brute_force_uecsm(
    t,
    restarts: int = 32,
    seed: int = 0,
) -> OracleVerdict:
    """Multi-start orbit descent; deterministic for a given seed.

    Restart streams are spawned from one master SeedSequence, so the result
    does not depend on how the restarts would be scheduled.  Restarts stop
    early once one of them certifies membership.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    a = power_of_two_rescale(t)[0]    # rounds as t would; norms stay finite
    n = a.shape[0]
    if n == 1 or not a.any():
        return OracleVerdict(OracleOutcome.UECSM, 0.0, 0)
    t_norm = float(np.linalg.norm(a))
    streams = np.random.SeedSequence(seed).spawn(restarts)
    # Aim below the certification line with margin; sqrt(2 h) / ||T|| is the
    # reported residual.
    f_floor = 0.5 * (0.5 * ORACLE_TOL * t_norm) ** 2
    best = np.inf
    used = 0
    for r in range(restarts):
        rng = np.random.default_rng(streams[r])
        q0 = np.eye(n, dtype=np.complex128) if r == 0 else random_unitary(n, rng)
        f = _descend(a, q0, f_floor)
        used += 1
        best = min(best, np.sqrt(2.0 * f) / t_norm)
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
                                           scale=np.linalg.norm(part), exponent=e)
        if verdict is not None:
            return False, f"{name}: {verdict.reason}"
    return True, "both Cartesian parts have distinct spectra"
