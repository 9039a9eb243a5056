"""Independent checks: unitary-orbit descent and small structural criteria.

The brute-force oracle decides UECSM without eigenvectors: it minimizes

    f(Q) = || M - M^t ||_F / ||T||_F,    M = Q* T Q,

over the unitary group.  T is UECSM exactly when the infimum is zero, so a
descent that drives f below a small tolerance certifies membership, while a
batch of restarts all stuck far above it is strong evidence against.  The
optimizer is Polak-Ribiere+ conjugate gradient on U(n) (Abrudan, Eriksson
and Koivunen, "Conjugate gradient algorithm for optimization under unitary
matrix constraint", Signal Processing 2009; Absil, Mahony and Sepulchre,
Optimization Algorithms on Matrix Manifolds, 2008).  Directions D live in
the skew-Hermitian Lie algebra and the step Q <- exp(-eta D) Q multiplies
on the left, so carrying the previous direction to the new point is the
identity.  D = G + beta D_prev with beta = max(0, Re<G - G_prev, G> /
||G_prev||^2); D is reset to G every n^2 iterations, whenever Re<D, G> <= 0,
and once after a failed line search.  A failed search along G itself ends
the restart, as do the objective floor and the gradient floor.

Conjugate gradient needs a near-exact line search, so the step along the
geodesic comes from a quadratic fit, as in Abrudan et al.  A try at step s
gives f(0), f'(0) = -Re<D, G> and f(s); the quadratic through them has its
minimiser at s*.  The first try is at the last accepted step.  A try that
passes Armijo is kept, and s* is tried as well when it differs from s by
more than 5%, keeping the lower of the two.  A try that fails Armijo is
followed by one at s* clamped to [0.1 s, 0.5 s] (safeguarded interpolating
backtracking).

For the smooth objective h(Q) = (1/2) ||A||_F^2 with A = M - M^t, the
first-order expansion of h(exp(eps K) Q) in a skew-Hermitian direction K
gives  dh = Re tr(G* K)  with

    G = P - P*,   P = W T - T W,   W = Q conj(A) Q*,

which is the gradient used here (checked against central finite
differences in the test suite).  One caveat worth keeping in mind: for
real T the gradient vanishes identically at every real orthogonal Q -- the
real locus is the fixed-point set of an isometric symmetry of h and hence
critical -- so a descent started at the identity never moves on real
input.  The random complex restarts are what actually explore the orbit;
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

import numpy as np

from .linalg import DEFAULT_TOLERANCES, ToleranceConfig, as_matrix

ORACLE_TOL = 1e-6
NOT_UECSM_MARGIN = 10.0
MAX_ITERS = 2000      # descent iterations per restart

_GRAD_FLOOR = 1e-14   # squared-gradient cutoff relative to ||T||^4
_MIN_STEP = 1e-18
_MAX_STEP = 10.0
_ARMIJO = 1e-4


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


def _descend(t: np.ndarray, q: np.ndarray, max_iters: int,
             f_floor: float) -> float:
    """Polak-Ribiere+ conjugate gradient from q (direction rule and resets
    in the module docstring); returns the best objective value reached.

    Each step is q <- exp(-s d) q.  The first try is at the last accepted
    step s; with slope = Re<d, g>, the quadratic through f(0), f'(0) =
    -slope and f(s) has curvature c and minimiser s* = slope / c.  A try
    that passes Armijo is kept, and when s* differs from s by more than 5%
    s* is tried too and the lower of the two kept.  A try that fails moves
    to s* clamped to [0.1 s, 0.5 s] (0.5 s when c <= 0), down to _MIN_STEP.
    The descent stops when f reaches f_floor, when ||g||^2 falls to the
    gradient floor, or when a line search along g itself fails.
    """
    f = _objective(q, t)
    t_norm2 = float(np.linalg.norm(t)) ** 2
    grad_floor = _GRAD_FLOOR * t_norm2 ** 2
    period = q.shape[0] ** 2
    step = 0.1
    for k in range(max_iters):
        if f <= f_floor:
            break
        g = _gradient(q, t)
        gn2 = float(np.vdot(g, g).real)
        if gn2 <= grad_floor:
            break
        d = g
        if k % period:
            beta = max(0.0, float(np.vdot(g - g_prev, g).real) / gn2_prev)
            d = g + beta * d_prev
            if np.vdot(d, g).real <= 0.0:
                d = g
        start = min(step, _MAX_STEP)
        accepted = False
        while True:
            slope = float(np.vdot(d, g).real)
            s = start
            while s > _MIN_STEP:
                q_try = _expm_skew(-s * d) @ q
                f_try = _objective(q_try, t)
                c = 2.0 * (f_try - f + slope * s) / (s * s)
                if f_try <= f - _ARMIJO * s * slope:
                    accepted = True
                    break
                s = min(max(slope / c, 0.1 * s), 0.5 * s) if c > 0.0 else 0.5 * s
            if accepted or d is g:
                break
            d = g
        if not accepted:
            break
        fit = min(slope / c, _MAX_STEP) if c > 0.0 else s
        if abs(fit - s) > 0.05 * s:
            q_fit = _expm_skew(-fit * d) @ q
            f_fit = _objective(q_fit, t)
            if f_fit < f_try:
                q_try, f_try, s = q_fit, f_fit, fit
        q, f, step = q_try, f_try, s
        g_prev, gn2_prev, d_prev = g, gn2, d
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
    a = as_matrix(t)
    n = a.shape[0]
    t_norm = float(np.linalg.norm(a))
    if t_norm == 0.0 or n == 1:
        return OracleVerdict(OracleOutcome.UECSM, 0.0, 0)
    streams = np.random.SeedSequence(seed).spawn(restarts)
    # Aim below the certification line with margin; sqrt(2 h) / ||T|| is the
    # reported residual.
    f_floor = 0.5 * (0.5 * ORACLE_TOL * t_norm) ** 2
    best = np.inf
    used = 0
    for r in range(restarts):
        rng = np.random.default_rng(streams[r])
        q0 = np.eye(n, dtype=np.complex128) if r == 0 else random_unitary(n, rng)
        f = _descend(a, q0, MAX_ITERS, f_floor)
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
    """Exact UECSM verdict for [[0,a,0],[0,0,b],[0,0,0]]: ab = 0 or |a| = |b|."""
    if abs(a) <= cfg.zero_tol or abs(b) <= cfg.zero_tol:
        return True
    return bool(abs(abs(a) - abs(b)) <= cfg.match_tol)


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
    on them.
    """
    herm, skew = cartesian_parts(t)
    for name, part in (("Hermitian part", herm), ("skew part", skew)):
        eigs = np.sort(np.linalg.eigvalsh(part))
        if eigs.shape[0] < 2:
            continue
        gaps = np.diff(eigs)
        threshold = cfg.eig_gap_tol * max(float(np.linalg.norm(part)), 1e-300)
        k = int(np.argmin(gaps))
        if gaps[k] <= threshold:
            return False, (f"{name} has eigenvalue gap {gaps[k]:.3e} at "
                           f"position {k + 1} (threshold {threshold:.3e})")
    return True, "both Cartesian parts have distinct spectra"
