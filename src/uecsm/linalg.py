"""Dense complex linear algebra primitives and the shared tolerance policy.

Everything downstream works with square ``complex128`` arrays.  The inner
product convention is linear in the *first* argument,

    <x, y> = y* x = sum_k conj(y_k) x_k,

which is ``np.vdot(y, x)``.  Getting this backwards silently conjugates
every Gram matrix, which the criteria tests do notice.

Eigenvalues and determinants are delegated to LAPACK (Hessenberg + shifted
QR, and LU with partial pivoting respectively); the two routes share no
code, which keeps the determinant usable as an independent cross-check on
eigenvector matrices.  Eigenvectors are refined here by inverse iteration
so that their residuals sit near machine precision rather than at the
loose contract bound.
"""

from __future__ import annotations

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
        for name in ("eig_gap_tol", "zero_tol", "match_tol"):
            value = getattr(self, name)
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
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix has non-finite entries")
    return a


def adjoint(m) -> np.ndarray:
    return np.asarray(m, dtype=np.complex128).conj().T


def determinant(m) -> complex:
    return complex(np.linalg.det(as_matrix(m)))


def eigenvalues(m) -> np.ndarray:
    """All eigenvalues with multiplicity, sorted ascending by (Re, Im)."""
    a = as_matrix(m)
    try:
        lam = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise EigenSolverError(f"eigenvalue iteration did not converge: {exc}") from exc
    order = np.lexsort((lam.imag, lam.real))
    return lam[order]


def unit_eigenvector(m, lam: complex, cfg: ToleranceConfig = DEFAULT_TOLERANCES, *,
                     rng: np.random.Generator) -> np.ndarray:
    """Unit eigenvector of ``m`` for the (accurate) eigenvalue ``lam``.

    Inverse iteration with the shift perturbed by 1e-12 * ||m|| so the
    shifted system is merely ill-conditioned instead of exactly singular;
    the ill-conditioning is what amplifies the wanted eigendirection.
    """
    a = as_matrix(m)
    n = a.shape[0]
    scale = float(np.linalg.norm(a))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= np.linalg.norm(x)
    if scale == 0.0:
        # Every unit vector is an eigenvector of the zero matrix at 0.
        if lam == 0:
            return x
        raise EigenSolverError(f"zero matrix has no eigenvalue {lam}")

    perturb = 1e-12
    shifted = a - (lam + perturb * scale) * np.eye(n)
    target = max(_REFINE_FACTOR * scale, 1e3 * np.abs(lam) * _EPS)
    residual = np.inf
    for _ in range(_MAX_INVERSE_STEPS):
        try:
            x = np.linalg.solve(shifted, x)
        except np.linalg.LinAlgError:
            # Exactly singular shift: back off and rebuild the system.
            perturb *= 1e3
            shifted = a - (lam + perturb * scale) * np.eye(n)
            continue
        x /= np.linalg.norm(x)
        residual = float(np.linalg.norm(a @ x - lam * x))
        if residual <= target:
            break
    if residual > cfg.zero_tol * scale:
        raise EigenSolverError(
            f"inverse iteration stalled at residual {residual:.3e} "
            f"(bound {cfg.zero_tol * scale:.3e}) for eigenvalue {lam}")
    return x
