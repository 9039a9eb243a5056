"""Construction of the symmetric unitary witnessing T = S T^t S*.

When the strong angle condition holds, the phase data

    beta_ij = <u_i, u_j> / <v_j, v_i>     (defined when both factors != 0)

is Hermitian, unimodular where defined, and multiplicative
(beta_ij = beta_ik * beta_kj).  A fully defined completion therefore has
rank one, beta = conj(alpha)^t alpha for a unimodular row alpha, which can
be read off any row once the matrix is complete.  The first row is used,
fixing the gauge alpha_1 = 1; alpha as a whole is determined only up to one
global unimodular factor, and S inherits exactly that ambiguity.

Partially defined beta matrices are completed as that rank-one matrix by
one breadth-first walk over the defined entries (``complete_beta``); each
connected component of them has one genuinely free phase, set to 1 at its
lowest index.

With alpha in hand,

    S = U diag(alpha_i / e_i) U^t
      = sum_i (alpha_i / <u_i, v_i>) u_i u_i^t,

which is symmetric by construction, independent of the index order, and --
exactly when the strong angle condition holds -- unitary with
S conj(u_i) = alpha_i v_i and T S = S T^t.  The certificate records the
residuals of these four identities rather than trusting the derivation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOLERANCES,
    LinearAlgebraError,
    ToleranceConfig,
    _column_norms,
    frobenius_norm,
    power_of_two_rescale,
)
from .spectral import SpectralData, gram_pair, pair_indices


class BetaInconsistencyError(LinearAlgebraError):
    """One side of a beta quotient vanished while the other did not.

    |<u_i, u_j>| = |<v_j, v_i>| is forced whenever the angle condition
    holds, so a one-sided zero means the input is not consistent UECSM data
    (or sits exactly on the zero_tol fence); surfacing it beats guessing.
    """


@dataclass(frozen=True)
class BetaMatrix:
    """Possibly partial Hermitian matrix of phase quotients.

    entries     -- complex (n, n); meaningful only where ``defined``
    defined     -- boolean (n, n) mask, diagonal always True
    min_divisor -- smallest |<v_j, v_i>| divided by so far (inf if none)
    """

    entries: np.ndarray
    defined: np.ndarray
    min_divisor: float

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def is_complete(self) -> bool:
        return bool(self.defined.all())


@dataclass(frozen=True)
class ConjugationCertificate:
    """Constructed S with the four verification residuals.

    residual_symmetry   -- ||S - S^t||_F
    residual_unitarity  -- ||S* S - I||_F
    residual_intertwine -- ||T S - S T^t||_F / ||T||_F
    residual_eigvec     -- max_i ||S conj(u_i) - alpha_i v_i||

    A failed verification is encoded in the residuals, never raised.
    """

    s: np.ndarray
    alphas: np.ndarray
    residual_symmetry: float
    residual_unitarity: float
    residual_intertwine: float
    residual_eigvec: float
    beta_min_divisor: float | None = None

    def residuals(self) -> tuple[float, float, float, float]:
        return (self.residual_symmetry, self.residual_unitarity,
                self.residual_intertwine, self.residual_eigvec)

    def is_valid(self, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
        return max(self.residuals()) <= cfg.match_tol


def build_beta(sd: SpectralData, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> BetaMatrix:
    """Quotient matrix beta_ij = <u_i, u_j> / <v_j, v_i> where defined.

    An entry is defined when both inner products clear zero_tol in modulus;
    both below means undefined; exactly one below raises
    BetaInconsistencyError.  Callable on any SpectralData -- including
    inputs that fail the strong angle test -- for diagnostics, but the
    multiplicative structure is only guaranteed after a pass.
    """
    gu, gv = gram_pair(sd)
    uu, vv = gu.T, gv.T    # uu[i, j] = <u_i, u_j>
    i, j = pair_indices(sd.n)
    num, den = np.abs(uu[i, j]), np.abs(vv[j, i])
    keep = num > cfg.zero_tol
    one_sided = keep != (den > cfg.zero_tol)
    if one_sided.any():
        p = int(one_sided.argmax())
        raise BetaInconsistencyError(
            f"pair ({i[p] + 1}, {j[p] + 1}): |<u_i,u_j>| = {num[p]:.3e} but "
            f"|<v_j,v_i>| = {den[p]:.3e}; exactly one is below "
            f"zero_tol = {cfg.zero_tol:.3e}")
    i, j = i[keep], j[keep]    # both sides clear zero_tol here
    entries = np.eye(sd.n, dtype=np.complex128)
    defined = np.eye(sd.n, dtype=bool)
    entries[i, j] = uu[i, j] / vv[j, i]
    entries[j, i] = np.conj(entries[i, j])
    defined[i, j] = defined[j, i] = True
    return BetaMatrix(entries=entries, defined=defined,
                      min_divisor=float(den[keep].min(initial=np.inf)))


def complete_beta(b: BetaMatrix) -> BetaMatrix:
    """Fill the undefined entries of ``b`` with conj(alpha)^t alpha.

    alpha comes from one breadth-first walk over the defined entries: the
    lowest index of each connected component has phase 1, and every other
    alpha_j = alpha_i beta_ij for the index i that first reaches j.  Defined
    entries are kept, so row 1 of the result is alpha.  Assumes they are
    multiplicative (strong angle pass); nothing is re-checked here.
    """
    alpha = np.ones(b.n, dtype=np.complex128)
    unreached = np.ones(b.n, dtype=bool)
    queue = deque()
    while unreached.any():
        if not queue:    # the next component, from its lowest index
            lowest = int(unreached.argmax())
            unreached[lowest] = False
            queue.append(lowest)
        i = queue.popleft()
        reached = b.defined[i] & unreached
        alpha[reached] = alpha[i] * b.entries[i, reached]
        unreached &= ~reached
        queue.extend(np.flatnonzero(reached).tolist())
    entries = np.where(b.defined, b.entries, np.outer(alpha.conj(), alpha))
    return BetaMatrix(entries=entries, defined=np.ones_like(b.defined),
                      min_divisor=b.min_divisor)


def extract_alpha(b: BetaMatrix) -> np.ndarray:
    """Unimodular row alpha with beta = conj(alpha)^t alpha; alpha_1 = 1."""
    if not b.is_complete():
        raise ValueError("beta matrix has undefined entries; complete it first")
    return b.entries[0, :].copy()


def build_s(sd: SpectralData, alpha,
            cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """S = U diag(alpha_i / e_i) U^t = sum_i (alpha_i / e_i) u_i u_i^t."""
    al = np.asarray(alpha, dtype=np.complex128).ravel()
    if al.shape[0] != sd.n:
        raise ValueError(f"alpha length {al.shape[0]} != dimension {sd.n}")
    e_floor = float(np.abs(sd.e_diag).min())
    if e_floor <= cfg.zero_tol:
        # Cannot occur for SpectralData that passed extraction; defensive.
        raise LinearAlgebraError(
            f"e_diag entry of modulus {e_floor:.3e} is too small to divide by")
    weights = al / sd.e_diag
    return (sd.u_basis * weights) @ sd.u_basis.T


def verify_certificate(
    t,
    s: np.ndarray,
    sd: SpectralData,
    alpha,
) -> ConjugationCertificate:
    """Measure the four defining identities of S; residuals encode failure."""
    a = power_of_two_rescale(t)[0]
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    al = np.asarray(alpha, dtype=np.complex128).ravel()
    t_norm, r_sym, r_uni, r_int = frobenius_norm(np.array(
        [a, s - s.T, s.conj().T @ s - np.eye(sd.n), a @ s - s @ a.T])).tolist()
    r_int /= t_norm if t_norm > 0 else 1.0
    r_vec = float(_column_norms(s @ np.conj(sd.u_basis) - sd.v_basis * al).max())
    return ConjugationCertificate(
        s=s, alphas=al,
        residual_symmetry=r_sym,
        residual_unitarity=r_uni,
        residual_intertwine=r_int,
        residual_eigvec=r_vec,
    )
