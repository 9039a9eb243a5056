"""Dense complex linear algebra primitives and the shared tolerance policy.

Everything downstream works with square ``complex128`` arrays.  The inner
product convention is linear in the *first* argument,

    <x, y> = y* x = sum_k conj(y_k) x_k,

which is ``np.vdot(y, x)``.  Getting this backwards silently conjugates
every Gram matrix, which the criteria tests do notice.

Eigenpairs come from LAPACK's Hessenberg + shifted QR.  ``np.linalg.det``
(LU with partial pivoting) shares no code with that route, so the
determinant of an eigenvector matrix is an independent cross-check on it.
LAPACK's eigenvectors are refined here by inverse iteration only where
their residuals miss a target near machine precision, so no vector rests
at the loose contract bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(np.float64).eps)

# Residual target for inverse iteration; well below ToleranceConfig.zero_tol
# so certificates built from these vectors stay near machine precision.
_REFINE_FACTOR = 100.0 * _EPS
_MAX_INVERSE_STEPS = 6


class LinearAlgebraError(Exception):
    """Base class for numerical failures raised by this package."""


class EigenSolverError(LinearAlgebraError):
    """Eigenvalue iteration or eigenvector refinement failed to converge."""


class NumericalBreakdownError(LinearAlgebraError):
    """Computed quantities are internally inconsistent at working precision."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Dimensionless tolerance knobs shared across the pipeline.

    eig_gap_tol  -- minimum pairwise eigenvalue separation, relative to the
                    matrix scale, below which the spectrum counts as repeated.
    zero_tol     -- threshold under which a unit-normalized quantity (inner
                    product, residual per unit of matrix norm) counts as zero.
    match_tol    -- acceptance band for the dimensionless equality tests.
    """

    eig_gap_tol: float = 1e-8
    zero_tol: float = 1e-9
    match_tol: float = 1e-7

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (value > 0.0 and np.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.zero_tol > self.match_tol:
            raise ValueError("zero_tol must not exceed match_tol")


DEFAULT_TOLERANCES = ToleranceConfig()


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting empty or non-finite input."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("empty matrix")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def complex_ldexp(z: np.ndarray, e: int) -> np.ndarray:
    """z * 2**e, exact with signed zeros: ``np.ldexp`` on the interleaved parts."""
    return np.ldexp(np.ascontiguousarray(z).view(np.float64), e).view(np.complex128)


def power_of_two_rescale(m) -> tuple[np.ndarray, int]:
    """(2**-e m, e), e the least even exponent above every |Re m_ij| and
    |Im m_ij|, so no norm of the result overflows or underflows.  LAPACK's
    shifted QR takes square roots of entries: only a power of four scales
    eigenpairs exactly."""
    a = np.ascontiguousarray(as_matrix(m))
    e = math.frexp(np.abs(a.view(np.float64)).max())[1]
    e += e % 2
    return complex_ldexp(a, -e), e


def _lapack(solver, m):
    try:
        return solver(as_matrix(m))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise EigenSolverError(f"eigenvalue iteration did not converge: {exc}") from exc


def eigenvalues(m) -> np.ndarray:
    """All eigenvalues with multiplicity, sorted ascending by (Re, Im)."""
    lam = _lapack(np.linalg.eigvals, m)
    return lam[lam.argsort(kind="stable")]


def eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs from one LAPACK ``eig``, sorted as ``eigenvalues`` sorts them."""
    lam, vec = _lapack(np.linalg.eig, m)
    order = lam.argsort(kind="stable")
    return lam[order], vec[:, order]


def unit_eigenvector(m, lam, cfg: ToleranceConfig = DEFAULT_TOLERANCES, *,
                     start) -> np.ndarray:
    """Unit eigenvectors of ``m`` for the (accurate) eigenvalues ``lam``:
    the columns of ``start``, normalized, each refined by inverse iteration
    from itself if it misses the residual target.  The shift is perturbed by
    1e-12 * ||m|| so the shifted system is ill-conditioned but not singular.
    Raises EigenSolverError if a residual stays above zero_tol * ||m||.
    """
    a = as_matrix(m)
    x = np.asarray(start, dtype=np.complex128)
    x = x / _column_norms(x)
    scale = float(np.linalg.norm(a))
    residual = _column_norms(a @ x - x * lam)
    worst = residual.max()
    # Every target is at least _REFINE_FACTOR * scale, so a worst residual
    # within it spares building the targets; LAPACK's vectors nearly always are.
    if not worst <= _REFINE_FACTOR * scale:
        target = np.maximum(_REFINE_FACTOR * scale, 1e3 * np.abs(lam) * _EPS)
        if not (residual <= target).all():
            _refine(a, lam, x, residual, target, scale)
            worst = residual.max()
    bound = cfg.zero_tol * scale
    if not worst <= bound:
        i = int((residual <= bound).argmin())    # the first column that stalled
        raise EigenSolverError(
            f"inverse iteration stalled at residual {residual[i]:.3e} "
            f"(bound {bound:.3e}) for eigenvalue {i + 1} of {len(a)}")
    return x


def _column_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=0)``, same arithmetic, without its dispatch."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=0))


def _refine(a, lam, x, residual, target, scale) -> None:
    """Inverse iteration, in place on ``x`` and ``residual``, on each column
    whose residual misses its target."""
    for i in np.flatnonzero(~(residual <= target)):
        perturb = 1e-12
        for _ in range(_MAX_INVERSE_STEPS):
            shifted = a - (lam[i] + perturb * scale) * np.eye(len(a))
            try:
                y = np.linalg.solve(shifted, x[:, i])
            except np.linalg.LinAlgError:
                perturb *= 1e3    # exactly singular shift: back off
                continue
            x[:, i] = y / np.linalg.norm(y)
            residual[i] = np.linalg.norm(a @ x[:, i] - lam[i] * x[:, i])
            if residual[i] <= target[i]:
                break
