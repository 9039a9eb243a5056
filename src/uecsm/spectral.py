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
residual misses a target near machine precision.  A real T takes LAPACK's
real routine, for T and for T*.  Each vector keeps the arbitrary
unimodular phase it comes with; everything consumed downstream is
phase-invariant or covariant in a controlled way, and tested for it.

The hypothesis is decided exactly where that is cheap: a real 3 x 3 T has
a repeated eigenvalue exactly when the discriminant of its characteristic
polynomial is zero, and such a T is NotApplicable before any LAPACK call,
at any scale and whatever rounding would make of it.  The float64
discriminant screens every such T, and one within its rounding bound of
zero is decided in Python integers: every float is an integer over a
power of two.  Every other input is judged at working precision, by the
rules below.

Each matrix's paired data depends on that matrix alone, so a (B, n, n)
stack runs as one: one LAPACK call per step for the whole stack (split by
member between the real and the complex routine), array reductions per
row, and per-row rules (the exact discriminant, the gap, the adjoint
pairing, the e_i floor) that drop a NotApplicable member before the next
step.  The adjoint pairing fails by the offset of a match alone.  A
member that breaks down (a stalled inverse iteration, lost
biorthogonality, a spectrum beyond the float range) is a fact about that
matrix too: the stack records the error the member raises alone and
decides the rest.  Only a stacked
LAPACK call that fails as a whole fails the stack.  One matrix is a stack
of one, and raises its breakdown.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOLERANCES,
    LinearAlgebraError,
    NumericalBreakdownError,
    ToleranceConfig,
    complex_ldexp,
    eigensystem,
    eigenvalues,
    frobenius_norm,
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

    The data of a stack of B matrices has a leading axis of length B on
    every field; ``member(b)`` is the data of matrix b.
    """

    lambdas: np.ndarray
    u_basis: np.ndarray
    v_basis: np.ndarray
    e_diag: np.ndarray

    @property
    def n(self) -> int:
        return self.lambdas.shape[-1]

    def member(self, b: int) -> "SpectralData":
        """The data of matrix ``b`` of a stack, as views."""
        return SpectralData(lambdas=self.lambdas[b], u_basis=self.u_basis[b],
                            v_basis=self.v_basis[b], e_diag=self.e_diag[b])

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
        pair = bases.conj().swapaxes(-1, -2) @ bases
        pair.flags.writeable = False
        return pair


def gram_pair(sd: SpectralData) -> np.ndarray:
    """(U* U, V* V) stacked as one (2, n, n) array, or (2, B, n, n) for the
    data of a stack, computed once per ``sd`` and read-only; entry (i, j)
    is <u_j, u_i> resp. <v_j, v_i>."""
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
    return _gap_rule(lam[None], np.array([cfg.eig_gap_tol * scale]), np.array([exponent]))[0]


def _gap_rule(lam, threshold, exponent) -> list[NotApplicable | None]:
    """``assert_distinct_spectrum`` on each row of ``lam`` (B, n), with one
    threshold and one exponent per row."""
    verdicts = [None] * len(lam)
    if lam.shape[-1] < 2:
        return verdicts
    i, j = pair_indices(lam.shape[-1])
    gaps = np.abs(lam.take(i, axis=-1) - lam.take(j, axis=-1))
    close = gaps.min(axis=-1) <= threshold
    if np.count_nonzero(close):
        for b in np.flatnonzero(close).tolist():
            k = int(gaps[b].argmin())    # first smallest gap in canonical order
            pair = (int(i[k]) + 1, int(j[k]) + 1)
            gap = float(np.ldexp(gaps[b, k], exponent[b]))
            verdicts[b] = NotApplicable(
                reason=f"repeated spectrum: gap {gap:.3e} at pair {pair} "
                       f"is within tolerance {np.ldexp(threshold[b], exponent[b]):.3e}",
                pair=pair,
                gap=gap,
            )
    return verdicts


# On entries below 1 in magnitude, as ``power_of_two_rescale`` leaves them,
# ``_discriminant`` evaluated on the entries' absolute values with every sign
# + is at most 4752, and no path through it rounds more than 12 times: its
# float64 value is within gamma_12 * 4752 < 1e-11 of the exact one,
# gamma_12 = 12u / (1 - 12u), u = 2**-53 (an underflow adds at most 2**-1074
# an operation).  A float64 discriminant past this screen is not zero.
_SCREEN = 1e-9

_EXACTLY_REPEATED = NotApplicable(
    reason="exactly repeated spectrum: the characteristic polynomial of the "
           "real 3 x 3 matrix has discriminant 0")


def _discriminant(a, b, c, d, e, f, g, h, i):
    """The discriminant of det(x I - M), M = [[a, b, c], [d, e, f], [g, h, i]],
    in the arithmetic of the entries (float64 arrays for the screen, Python
    integers for the exact value): zero exactly when M has a repeated
    eigenvalue.  With p = x**3 - t x**2 + q x - r it is
    t**2 q**2 - 4 t**3 r + 18 t q r - 4 q**3 - 27 r**2."""
    minors = e * i - f * h, d * i - f * g, d * h - e * g
    t = a + e + i
    q = a * e - b * d + a * i - c * g + minors[0]
    r = a * minors[0] - b * minors[1] + c * minors[2]
    return t * t * (q * q - 4 * t * r) + 18 * t * q * r - 4 * q * q * q - 27 * r * r


def _exact_rule(a) -> list[NotApplicable | None]:
    """The exact gate on each member of the rescaled (B, n, n) stack ``a``: a
    real 3 x 3 member is NotApplicable when its characteristic polynomial
    has discriminant 0.  Every real member is screened by its float64
    discriminant, and only one within ``_SCREEN`` of zero gets it in Python
    integers, from its entries over their common power-of-two denominator.
    The rule reads the entries of ``a``, as every later step does: those of
    T over a power of two, exact unless one underflows."""
    found = [None] * len(a)
    real = np.flatnonzero(~a.imag.any(axis=(-2, -1))) if a.shape[-1] == 3 else ()
    if len(real):
        parts = a.real.reshape(len(a), 9)
        for b in real[np.abs(_discriminant(*parts[real].T)) <= _SCREEN].tolist():
            ratios = [x.as_integer_ratio() for x in parts[b].tolist()]
            den = max(d for _, d in ratios)
            if _discriminant(*(p * (den // d) for p, d in ratios)) == 0:
                found[b] = _EXACTLY_REPEATED
    return found


def _pair_adjoint(lam, mu, half_gap, exponent) -> tuple[np.ndarray, list[NotApplicable | None]]:
    """Pair each conj(lambda_i) with its nearest adjoint eigenvalue
    ``shifts[:, i]``, row by row of (B, n) ``lam`` and ``mu`` with one
    ``half_gap`` and one exponent per row: ``(shifts, found)``, found[b]
    being None or the NotApplicable of the first i of row b whose match lies
    past half_gap[b], by that offset alone.  With a certifiably separated
    spectrum the match sits at distance ~eps * kappa * ||t||; a failure
    means the two runs disagree about where the eigenvalues are."""
    dist = np.abs(mu[:, None, :] - np.conj(lam)[:, :, None])
    shifts = mu[np.arange(len(mu))[:, None], dist.argmin(axis=-1)]
    offset = dist.min(axis=-1)
    failed = offset > half_gap[:, None]
    found = [None] * len(lam)
    for b in np.flatnonzero(failed.any(axis=-1)).tolist():
        i = int(failed[b].argmax())
        found[b] = NotApplicable(
            reason="adjoint spectrum does not pair with conjugated eigenvalues "
                   f"(offset {np.ldexp(offset[b, i], exponent[b]):.3e} at index {i + 1}); "
                   "spectrum effectively degenerate at working precision",
        )
    return shifts, found


def compute_spectral_data(
    t,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> SpectralData | NotApplicable | tuple[
        SpectralData, tuple[NotApplicable | LinearAlgebraError | None, ...]]:
    """Compute the full paired eigensystem of ``t``, or NotApplicable.

    NotApplicable covers four situations: a real 3 x 3 ``t`` has a
    characteristic polynomial of discriminant 0 (decided exactly, before
    any LAPACK call); the sorted spectrum violates the gap
    tolerance; the adjoint's computed spectrum fails to pair with the
    conjugated eigenvalues within half the gap threshold; or some
    |<u_i, v_i>| falls below zero_tol (spectrum effectively degenerate at
    working precision).  A breakdown, by contrast, is an error: inverse
    iteration that stalls (EigenSolverError), a singular eigenvector matrix
    or an off-diagonal biorthogonality violation (NumericalBreakdownError);
    with a genuinely separated spectrum none can happen short of solver
    failure.  Nothing here is random.  The work is done on
    ``power_of_two_rescale(t)``, and the spectrum is scaled back once to
    the units of ``t``; a part of it beyond the float range there is a
    NumericalBreakdownError too, decided on that reported spectrum.
    One matrix returns its data or NotApplicable, or raises its breakdown.

    For a (B, n, n) stack the result is a pair ``(data, skipped)``:
    skipped[b] is None, the NotApplicable of matrix b, or the
    LinearAlgebraError matrix b raises alone, and ``data`` stacks, in
    order, the SpectralData of the matrices with None.  Each is what
    ``t[b]`` alone gives, bit for bit.  The stack raises only when a
    stacked LAPACK call (``eig``, ``inv``) fails as a whole.  One matrix
    runs as a stack of one.
    """
    a, exponent = power_of_two_rescale(t)
    if a.ndim == 2:
        data, (skipped,) = _paired_eigensystems(a[None], exponent[None], cfg)
        if isinstance(skipped, LinearAlgebraError):
            raise skipped
        return skipped or data.member(0)
    return _paired_eigensystems(a, exponent, cfg)


def _paired_eigensystems(a, exponent, cfg: ToleranceConfig
                         ) -> tuple[SpectralData,
                                    tuple[NotApplicable | LinearAlgebraError | None, ...]]:
    """``compute_spectral_data`` on the rescaled (B, n, n) stack ``a``.

    Members found NotApplicable drop out as soon as they are, so every later
    step sees only what the matrix alone would reach: the stacked ``inv``
    in particular fails if any of its members is singular.  Each member
    gets its first rule that fails, in the order of the steps: the exact
    discriminant, the gap, the adjoint pairing, the u stall, the v stall,
    the e_i floor, biorthogonality, then the float range.
    """
    skipped = [None] * len(a)
    rows = range(len(a))    # the members still in play

    def drop(found, *arrays):
        """Record the members of ``found`` (one entry per row in play) that
        are not None, and return ``arrays`` without their rows."""
        nonlocal rows
        for b, f in zip(rows, found):
            skipped[b] = f
        rows = [b for b, f in zip(rows, found) if f is None]
        keep = np.array([f is None for f in found], dtype=bool)
        return [x[keep] for x in arrays]

    found = _exact_rule(a)
    if any(found):
        a, exponent = drop(found, a, exponent)
    if not len(rows):
        return _no_data(a.shape[-1]), tuple(skipped)

    scale = frobenius_norm(a)
    lam, u = eigensystem(a)
    found = _gap_rule(lam, cfg.eig_gap_tol * scale, exponent)
    if any(found):
        a, lam, u, scale, exponent = drop(found, a, lam, u, scale, exponent)
    if not len(rows):
        return _no_data(a.shape[-1]), tuple(skipped)

    a_star = a.conj().swapaxes(-1, -2)
    mu = eigenvalues(a_star)
    shifts, found = _pair_adjoint(lam, mu, 0.5 * cfg.eig_gap_tol * scale, exponent)
    if any(found):
        a, a_star, lam, u, scale, exponent, shifts = drop(
            found, a, a_star, lam, u, scale, exponent, shifts)
    if not len(rows):
        return _no_data(a.shape[-1]), tuple(skipped)

    try:
        left = np.linalg.inv(u).conj().swapaxes(-1, -2)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdownError(f"eigenvector matrix is singular: {exc}") from exc
    u, u_stalled = unit_eigenvector(a, lam, cfg, start=u, scale=scale)
    v, v_stalled = unit_eigenvector(a_star, shifts, cfg, start=left, scale=scale)

    e = v.conj().swapaxes(-1, -2) @ u
    n = e.shape[-1]
    modulus = np.abs(e).reshape(len(e), n * n)    # row b holds |<u_i, v_j>| of member b
    diagonal = slice(None, None, n + 1)
    low = modulus[:, diagonal] <= cfg.zero_tol
    modulus[:, diagonal] = 0.0    # keep |<u_i, v_j>| for i != j only
    high = modulus > cfg.zero_tol
    with np.errstate(over="ignore"):
        spectrum = complex_ldexp(lam, exponent[:, None])    # in the units of T
    found = [u_stall or v_stall for u_stall, v_stall in zip(u_stalled, v_stalled)]
    if np.count_nonzero(low) or np.count_nonzero(high) or not np.isfinite(spectrum).all():
        for b in range(len(e)):
            if found[b] is not None:
                continue
            if low[b].any():
                found[b] = NotApplicable(
                    reason=f"effectively degenerate spectrum: min |<u_i, v_i>| = "
                           f"{np.abs(e[b].diagonal()).min():.3e} (eigenvalue condition "
                           "beyond working precision)",
                )
            elif high[b].any():
                found[b] = NumericalBreakdownError(
                    f"biorthogonality violated: max |<u_i, v_j>| = {modulus[b].max():.3e} "
                    f"for i != j exceeds zero_tol = {cfg.zero_tol:.3e}")
            elif not np.isfinite(spectrum[b]).all():
                top = np.abs(lam[b].view(np.float64)).max()    # largest |Re|, |Im|
                found[b] = NumericalBreakdownError(
                    f"spectrum beyond the float range: largest eigenvalue part "
                    f"{top:.3e} * 2**{exponent[b]} overflows in the units of T")
    if any(found):
        spectrum, u, v, e = drop(found, spectrum, u, v, e)
    data = SpectralData(lambdas=spectrum, u_basis=u, v_basis=v,
                        e_diag=e.reshape(len(e), n * n)[:, diagonal].copy())
    return data, tuple(skipped)


def _no_data(n: int) -> SpectralData:
    """The SpectralData of an empty stack of n x n matrices."""
    empty = np.empty((0, n, n), dtype=np.complex128)
    return SpectralData(lambdas=empty[:, 0], u_basis=empty, v_basis=empty,
                        e_diag=empty[:, 0])
