"""Paired eigensystem extraction for matrices with distinct eigenvalues.

For an n-by-n matrix T with distinct eigenvalues lambda_1, ..., lambda_n the
pipeline works with the paired data

    T u_i  = lambda_i u_i,          ||u_i|| = 1,
    T* v_i = conj(lambda_i) v_i,    ||v_i|| = 1,

ordered ascending lexicographically by (Re, Im) of the eigenvalue.  Distinct
eigenvalues force biorthogonality: <u_i, v_j> = 0 for i != j while
e_i = <u_i, v_i> is never zero, so E = V* U is an invertible diagonal
matrix.  Those diagonal entries double as a condition meter: e_i is the
reciprocal eigenvalue condition number, and |e_i| collapsing to zero means
the spectrum is only "distinct" beyond working precision (a gap check alone
cannot see this -- a defective cluster splits its eigenvalue by roughly
eps**(1/3) * ||T||, far above any reasonable gap tolerance).

Both bases come from one LAPACK ``eig`` of T, v_i from the columns of
inv(U)* (the left eigenvectors); a column is refined only where its
residual misses a target near machine precision.  Each vector keeps the
arbitrary unimodular phase it comes with; everything consumed downstream
is phase-invariant or covariant in a controlled way, and tested for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOLERANCES,
    NumericalBreakdownError,
    ToleranceConfig,
    complex_ldexp,
    eigensystem,
    eigenvalues,
    power_of_two_rescale,
    unit_eigenvector,
)


@dataclass(frozen=True)
class NotApplicable:
    """Outcome for inputs outside the distinct-eigenvalue hypothesis.

    This is a value, not an error: a repeated (or effectively repeated)
    spectrum simply means the geometric tests do not apply.  ``pair`` uses
    1-based indices into the sorted spectrum when a specific offending pair
    exists.
    """

    reason: str
    pair: tuple[int, int] | None = None
    gap: float | None = None


@dataclass(frozen=True)
class SpectralData:
    """Sorted eigenvalues with paired unit eigenvector bases.

    lambdas -- shape (n,), ascending by (Re, Im)
    u_basis -- shape (n, n), column i is u_i (right eigenvector of T)
    v_basis -- shape (n, n), column i is v_i (right eigenvector of T*)
    e_diag  -- shape (n,), e_i = <u_i, v_i>, all nonzero
    """

    lambdas: np.ndarray
    u_basis: np.ndarray
    v_basis: np.ndarray
    e_diag: np.ndarray

    @property
    def n(self) -> int:
        return self.lambdas.shape[0]

    @classmethod
    def from_bases(cls, lambdas, u_basis, v_basis) -> "SpectralData":
        """Assemble from explicit bases, computing e_diag = diag(V* U).

        Intended for externally pinned eigenvectors (e.g. reproducing a
        worked example with published phases); no validation beyond shape.
        """
        lam = np.asarray(lambdas, dtype=np.complex128)
        u = np.asarray(u_basis, dtype=np.complex128)
        v = np.asarray(v_basis, dtype=np.complex128)
        n = lam.shape[0]
        if u.shape != (n, n) or v.shape != (n, n):
            raise ValueError("basis shapes do not match the eigenvalue count")
        e = np.einsum("ki,ki->i", v.conj(), u)
        return cls(lambdas=lam, u_basis=u, v_basis=v, e_diag=e)

    @functools.cached_property
    def _gram_pair(self) -> np.ndarray:
        bases = np.array((self.u_basis, self.v_basis))
        pair = bases.conj().transpose(0, 2, 1) @ bases
        pair.flags.writeable = False
        return pair


def gram_pair(sd: SpectralData) -> np.ndarray:
    """(U* U, V* V) stacked as one (2, n, n) array, computed once per ``sd``
    and read-only; entry (i, j) is <u_j, u_i> resp. <v_j, v_i>."""
    return sd._gram_pair


@functools.cache
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays (i, j) of the pairs i < j in lexicographic
    order: the canonical order of every pairwise scan."""
    i, j = np.triu_indices(n, k=1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def assert_distinct_spectrum(lambdas, cfg: ToleranceConfig = DEFAULT_TOLERANCES, *,
                             scale: float, exponent: int = 0) -> NotApplicable | None:
    """Check pairwise eigenvalue separation; None means acceptably distinct.

    The gap threshold is cfg.eig_gap_tol * scale, with ``scale`` the
    Frobenius norm of the matrix, which the tolerance is calibrated against.
    ``lambdas`` and ``scale`` may be in units of 2**exponent, as returned by
    ``power_of_two_rescale``: the gap is decided in those units, where
    nothing overflows, and reported multiplied back by 2**exponent.
    """
    lam = np.asarray(lambdas, dtype=np.complex128).ravel()
    n = lam.shape[0]
    if n < 2:
        return None
    threshold = cfg.eig_gap_tol * scale
    i, j = pair_indices(n)
    gaps = np.abs(lam[i] - lam[j])
    k = int(gaps.argmin())    # first smallest gap in canonical order
    if gaps[k] <= threshold:
        pair = (int(i[k]) + 1, int(j[k]) + 1)
        gap = float(np.ldexp(gaps[k], exponent))
        return NotApplicable(
            reason=f"repeated spectrum: gap {gap:.3e} at pair {pair} "
                   f"is within tolerance {np.ldexp(threshold, exponent):.3e}",
            pair=pair,
            gap=gap,
        )
    return None


def _pair_adjoint(lam, mu, half_gap: float) -> tuple[np.ndarray, tuple[int, float] | None]:
    """Pair each conj(lambda_i) with its nearest adjoint eigenvalue
    ``mu[matched[i]]``: ``(matched, None)``, or ``(matched, (i, offset))``
    for the first i whose match lies past ``half_gap`` or was taken by an
    earlier i.  With a certifiably separated spectrum the match sits at
    distance ~eps * kappa * ||t||; a failure means the two runs disagree
    about where the eigenvalues are."""
    dist = np.abs(mu - np.conj(lam)[:, None])
    matched = dist.argmin(axis=1)
    taken = set()
    for i, (k, row) in enumerate(zip(matched.tolist(), dist.tolist())):
        if row[k] > half_gap or k in taken:
            return matched, (i, row[k])
        taken.add(k)
    return matched, None


def compute_spectral_data(
    t,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> SpectralData | NotApplicable:
    """Compute the full paired eigensystem of ``t``, or NotApplicable.

    NotApplicable covers three situations: the sorted spectrum violates the
    gap tolerance; the adjoint's computed spectrum fails to pair with the
    conjugated eigenvalues within half the gap threshold; or some
    |<u_i, v_i>| falls below zero_tol (spectrum effectively degenerate at
    working precision).  A singular eigenvector matrix or an off-diagonal
    biorthogonality violation, by contrast, is raised as
    NumericalBreakdownError: with a genuinely separated spectrum neither
    can happen short of solver failure.  Nothing here is random.  The work
    is done on ``power_of_two_rescale(t)``, reported in the units of ``t``;
    a spectrum beyond the float range in those units is a
    NumericalBreakdownError too.
    """
    a, exponent = power_of_two_rescale(t)
    scale = float(np.linalg.norm(a))
    lam, u = eigensystem(a)
    verdict = assert_distinct_spectrum(lam, cfg, scale=scale, exponent=exponent)
    if verdict is not None:
        return verdict

    a_star = a.conj().T
    mu = eigenvalues(a_star)
    matched, unpaired = _pair_adjoint(lam, mu, 0.5 * cfg.eig_gap_tol * scale)
    if unpaired is not None:
        i, offset = unpaired
        return NotApplicable(
            reason="adjoint spectrum does not pair with conjugated eigenvalues "
                   f"(offset {np.ldexp(offset, exponent):.3e} at index {i + 1}); "
                   "spectrum effectively degenerate at working precision",
        )

    try:
        left = np.linalg.inv(u).conj().T
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdownError(f"eigenvector matrix is singular: {exc}") from exc
    u = unit_eigenvector(a, lam, cfg, start=u)
    v = unit_eigenvector(a_star, mu[matched], cfg, start=left)

    e = v.conj().T @ u
    modulus = np.abs(e)
    min_diag = float(modulus.diagonal().min())
    if min_diag <= cfg.zero_tol:
        return NotApplicable(
            reason=f"effectively degenerate spectrum: min |<u_i, v_i>| = "
                   f"{min_diag:.3e} (eigenvalue condition beyond working "
                   "precision)",
        )
    modulus.flat[::len(e) + 1] = 0.0    # keep |<u_i, v_j>| for i != j only
    max_off = float(modulus.max())
    if max_off > cfg.zero_tol:
        raise NumericalBreakdownError(
            f"biorthogonality violated: max |<u_i, v_j>| = {max_off:.3e} "
            f"for i != j exceeds zero_tol = {cfg.zero_tol:.3e}")
    top = float(np.abs(lam.view(np.float64)).max())    # largest |Re|, |Im|
    try:
        math.ldexp(top, exponent)    # raises where np.ldexp would give inf
    except OverflowError:
        raise NumericalBreakdownError(
            f"spectrum beyond the float range: largest eigenvalue part "
            f"{top:.3e} * 2**{exponent} overflows in the units of T") from None
    return SpectralData(lambdas=complex_ldexp(lam, exponent), u_basis=u, v_basis=v,
                        e_diag=e.diagonal().copy())
