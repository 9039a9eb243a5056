"""Dense complex linear algebra primitives and the shared tolerance policy.

Everything downstream works with square ``complex128`` arrays.  The inner
product convention is linear in the *first* argument,

    <x, y> = y* x = sum_k conj(y_k) x_k,

which is ``np.vdot(y, x)``.  Getting this backwards silently conjugates
every Gram matrix, which the criteria tests do notice.

Eigenpairs come from LAPACK's Hessenberg + shifted QR.  A matrix whose
imaginary part is all zero goes to the real routine on its real part, at
about half the cost of the complex one, and gets its complex eigenvalues
and eigenvectors in exact conjugate pairs; the results are complex128
either way.  ``np.linalg.det`` (LU with partial pivoting) shares no code
with that route, so the determinant of an eigenvector matrix is an
independent cross-check on it.
LAPACK's eigenvectors are refined here by inverse iteration only where
their residuals miss a target near machine precision, so no vector rests
at the loose contract bound.
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
        for name, value in vars(self).items():
            if not (value > 0.0 and np.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.zero_tol > self.match_tol:
            raise ValueError("zero_tol must not exceed match_tol")


DEFAULT_TOLERANCES = ToleranceConfig()


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting empty or non-finite input."""
    a = as_matrices(m)
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def as_matrices(m) -> np.ndarray:
    """Coerce to a square complex matrix or a (B, n, n) stack of them,
    rejecting an empty matrix or non-finite input."""
    a = _square(m)
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def _square(m) -> np.ndarray:
    """``m`` as complex128, checked to be one (n, n) matrix or a (B, n, n)
    stack with n >= 1; finiteness is ``as_matrices``' check."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] == 0:
        raise ValueError("empty matrix")
    return a


def complex_ldexp(z: np.ndarray, e) -> np.ndarray:
    """z * 2**e, exact with signed zeros: ``np.ldexp`` on the interleaved parts.
    ``e`` broadcasts against the (..., 2 * z.shape[-1]) float view."""
    return np.ldexp(np.ascontiguousarray(z).view(np.float64), e).view(np.complex128)


def power_of_two_rescale(m) -> tuple[np.ndarray, np.integer | np.ndarray]:
    """(2**-e m, e), e the least even exponent above every |Re m_ij| and
    |Im m_ij|, so no norm of the result overflows or underflows.  LAPACK's
    shifted QR takes square roots of entries: only a power of four scales
    eigenpairs exactly.  e is one numpy integer for one matrix, and for a
    (B, n, n) stack an array of the B exponents each matrix gives alone.
    It keeps ``np.frexp``'s int32: ``np.ldexp`` runs several times slower
    on int64 exponents.  This is the eigen pipeline's one check of its
    input (``as_matrices``); the result is C-contiguous."""
    a = np.ascontiguousarray(as_matrices(m))
    e = np.frexp(np.abs(a.view(np.float64)).max(axis=(-2, -1)))[1]
    e += e % 2
    return complex_ldexp(a, -e[..., None, None]), e


def frobenius_norm(a: np.ndarray) -> np.ndarray:
    """||a||_F of each matrix of a C-contiguous complex128 (..., n, m) array
    (a vector as an (n, 1) column), with the arithmetic ``np.linalg.norm``
    applies to one matrix: a BLAS dot of the real parts plus one of the
    imaginary parts."""
    parts = a.reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],)).view(np.float64)
    re, im = parts[..., 0::2], parts[..., 1::2]
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _lapack(solver, m) -> tuple[np.ndarray, ...]:
    """The arrays of ``solver`` (``np.linalg.eig`` or ``eigvals``) on a matrix
    or a (B, n, n) stack, as complex128 in the layout LAPACK's complex
    routine gives.  A matrix whose imaginary part is all zero goes to the
    real routine on its real part, at about half the cost; a stack that
    mixes real and complex matrices runs each kind as its own stack, so
    every matrix gets, bit for bit, what it gets alone."""
    a = _square(m)
    imaginary = a.imag.any(axis=(-2, -1))    # one flag per matrix
    complex_count = np.count_nonzero(imaginary)
    try:
        if complex_count == imaginary.size:
            return _arrays(solver(a))
        if not complex_count:
            return tuple(x.astype(np.complex128, copy=False) for x in _arrays(solver(a.real)))
        parts = zip(_arrays(solver(a.real[~imaginary])), _arrays(solver(a[imaginary])))
    except np.linalg.LinAlgError as exc:
        if not np.isfinite(a).all():
            raise ValueError("matrix has non-finite entries") from None
        raise EigenSolverError(f"eigenvalue iteration did not converge: {exc}") from exc
    merged = []
    for real, other in parts:
        out = np.empty(a.shape[:1] + other.shape[1:], dtype=np.complex128)
        out[~imaginary], out[imaginary] = real, other
        merged.append(out)
    return tuple(merged)


def _arrays(result) -> tuple[np.ndarray, ...]:
    """The arrays of a numpy.linalg result: ``eig``'s pair, or ``eigvals``' one."""
    return tuple(result) if isinstance(result, tuple) else (result,)


def eigenvalues(m) -> np.ndarray:
    """All eigenvalues with multiplicity, sorted ascending by (Re, Im); for a
    stack, one sorted row per matrix.  A real matrix goes to LAPACK's real
    routine (see ``_lapack``)."""
    (lam,) = _lapack(np.linalg.eigvals, m)
    return np.sort(lam, kind="stable")


def eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs from one LAPACK ``eig``, sorted as ``eigenvalues`` sorts them;
    a real matrix goes to the real routine, which gives its complex
    eigenvalues as exact conjugate pairs.  Column i of each eigenvector
    matrix belongs to eigenvalue i, and each matrix is stored column by
    column (Fortran order): the products downstream (``inv``, the
    residuals, V* U) then sum in the order they always have, where a
    C-order gather changes witnesses at n >= 8."""
    lam, vec = _lapack(np.linalg.eig, m)
    order = lam.argsort(kind="stable")
    if lam.ndim == 1:
        return lam[order], vec[:, order]
    rows = np.arange(len(lam))[:, None]
    return lam[rows, order], vec.swapaxes(-1, -2)[rows, order].swapaxes(-1, -2)


def unit_eigenvector(m, lam, cfg: ToleranceConfig = DEFAULT_TOLERANCES, *,
                     start, scale) -> tuple[np.ndarray, list[EigenSolverError | None]]:
    """Unit eigenvectors of each matrix of the (B, n, n) stack ``m`` for its
    (accurate) eigenvalues ``lam[b]``: the columns of ``start[b]``,
    normalized, each refined by inverse iteration from itself if it misses
    the residual target.  The shift is perturbed by 1e-12 * ||m[b]|| so the
    shifted system is ill-conditioned but not singular.  ``scale[b]`` is
    ||m[b]||_F.  Each matrix is refined and then checked, and the result is
    ``(x, errors)``: errors[b] is the EigenSolverError of a residual that
    stays above zero_tol * ||m[b]||, or None, and x[b] the vectors of
    matrix b, refined as far as they go.  One matrix is a stack of one.
    """
    a = _square(m)
    if a.ndim != 3:
        raise ValueError(f"expected a (B, n, n) stack, got shape {a.shape}")
    lam = np.asarray(lam, dtype=np.complex128)
    x = np.asarray(start, dtype=np.complex128)
    x = x / _column_norms(x)[:, None, :]
    scale = np.asarray(scale, dtype=np.float64).tolist()
    residual = _column_norms(a @ x - x * lam[:, None, :])
    errors = [None] * len(a)
    for b, (w, s) in enumerate(zip(residual.max(axis=-1).tolist(), scale)):
        # Every target is at least _REFINE_FACTOR * s, so a worst residual
        # within it spares building the targets; LAPACK's vectors nearly always are.
        if not w <= _REFINE_FACTOR * s:
            target = np.maximum(_REFINE_FACTOR * s, 1e3 * np.abs(lam[b]) * _EPS)
            if not (residual[b] <= target).all():
                _refine(a[b], lam[b], x[b], residual[b], target, s)
                w = residual[b].max()
        bound = cfg.zero_tol * s
        if not w <= bound:
            if not np.isfinite(a[b]).all():
                raise ValueError("matrix has non-finite entries")
            i = int((residual[b] <= bound).argmin())    # the first column that stalled
            errors[b] = EigenSolverError(
                f"inverse iteration stalled at residual {residual[b, i]:.3e} "
                f"(bound {bound:.3e}) for eigenvalue {i + 1} of {a.shape[-1]}")
    return x, errors


def _column_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=-2)``, same arithmetic, without its dispatch."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-2))


def _refine(a, lam, x, residual, target, scale) -> None:
    """Inverse iteration, in place on ``x`` and ``residual``, on each column
    of one matrix whose residual misses its target."""
    for i in np.flatnonzero(~(residual <= target)):
        perturb = 1e-12
        for _ in range(_MAX_INVERSE_STEPS):
            shifted = a - (lam[i] + perturb * scale) * np.eye(len(a))
            try:
                y = np.linalg.solve(shifted, x[:, i])
            except np.linalg.LinAlgError:
                perturb *= 1e3    # exactly singular shift: back off
                continue
            x[:, i] = y / frobenius_norm(y[:, None])
            residual[i] = frobenius_norm((a @ x[:, i] - lam[i] * x[:, i])[:, None])
            if residual[i] <= target[i]:
                break
