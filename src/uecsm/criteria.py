"""Geometric tests deciding unitary equivalence to a complex symmetric matrix.

A square matrix T is UECSM when U* T U is complex symmetric for some
unitary U.  For T with distinct eigenvalues the question is decided by the
geometry of its paired eigensystem (u_i eigenvectors of T, v_i of T*, see
``spectral``).  Writing <.,.> for the inner product linear in the first
argument, the tests are:

Angle (necessary):
    |<u_i, u_j>| = |<v_i, v_j>|  for all i < j.

Grammian (necessary):
    U* U and V* V share their (real, positive) spectrum.

Parallelepiped (necessary):
    |det U| = |det V|  -- the eigenvector parallelepipeds have equal volume.

Strong angle (necessary AND sufficient, given distinct eigenvalues):
    <u_i,u_j><u_j,u_k><u_k,u_i> = conj( <v_i,v_j><v_j,v_k><v_k,v_i> )
    for all i <= j <= k not all equal.

Triple products with repeated indices reduce to the angle condition, so the
strong angle test subsumes it; all four are still evaluated and reported
because the weaker tests are far cheaper diagnostics and their disagreement
pattern is informative (there are 4x4 integer matrices passing all three
necessary tests yet failing the strong angle test).

Each quantity compared is dimensionless -- a product of inner products of
unit vectors or a determinant of a unit-column matrix -- so comparisons use
the dimensionless match_tol directly (the Grammian entries scale with n and
get a norm-relative band).  All reported indices are 1-based, following the
usual mathematical labelling of eigenvalues.

Every test reports the same kind of witness: the first worst comparison in
canonical order (pairs and triples lexicographic, Grammian entries by
descending eigenvalue), and passes iff that discrepancy is within its band.
Where two comparisons are mathematically tied, rounding decides which one
is reported.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .conjugation import (
    ConjugationCertificate,
    build_beta,
    build_s,
    complete_beta,
    extract_alpha,
    verify_certificate,
)
from .linalg import DEFAULT_TOLERANCES, ToleranceConfig
from .spectral import (
    NotApplicable,
    SpectralData,
    compute_spectral_data,
    gram_pair,
    pair_indices,
)

TEST_KINDS = ("Angle", "Grammian", "Parallelepiped", "StrongAngle")


class Outcome(str, Enum):
    PASS = "Pass"
    FAIL = "Fail"
    NOT_APPLICABLE = "NotApplicable"


class FinalVerdict(str, Enum):
    UECSM = "UECSM"
    NOT_UECSM = "NotUECSM"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class Witness:
    """Worst offending comparison of a test: indices, both values, gap."""

    indices: tuple[int, ...]
    left: complex
    right: complex
    discrepancy: float


@dataclass(frozen=True)
class TestVerdict:
    kind: str
    outcome: Outcome
    witness: Witness | None = None


@dataclass(frozen=True)
class ClassificationReport:
    final: FinalVerdict
    verdicts: tuple[TestVerdict, ...]
    spectrum: np.ndarray | None = None
    not_applicable: NotApplicable | None = None
    certificate: ConjugationCertificate | None = None


def _decide(kind: str, indices, left, right, limit: float) -> TestVerdict:
    """Verdict on ``left[m]`` against ``right[m]``, witnessed by the first worst
    comparison (``indices``: one 0-based array per witness coordinate); pass
    iff within ``limit``, vacuously when nothing is compared (n = 1)."""
    gaps = np.abs(left - right)
    if gaps.size == 0:
        return TestVerdict(kind, Outcome.PASS, Witness((), 0j, 0j, 0.0))
    m = int(gaps.argmax())
    gap = gaps.item(m)
    witness = Witness(tuple([a.item(m) + 1 for a in indices]),
                      complex(left.item(m)), complex(right.item(m)), gap)
    return TestVerdict(kind, Outcome.PASS if gap <= limit else Outcome.FAIL, witness)


@functools.cache
def _triple_indices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only index arrays (i, j, k) of the triples i <= j <= k, not all
    equal, in lexicographic order."""
    i, j, k = np.indices((n, n, n))
    i, j, k = np.nonzero((i <= j) & (j <= k) & (i < k))
    i.flags.writeable = j.flags.writeable = k.flags.writeable = False
    return i, j, k


def angle_test(sd: SpectralData, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> TestVerdict:
    """Compare |<u_i, u_j>| against |<v_i, v_j>| over all pairs i < j."""
    i, j = pair_indices(sd.n)
    moduli = np.abs(gram_pair(sd)[:, i, j])
    return _decide("Angle", (i, j), moduli[0], moduli[1], cfg.match_tol)


def grammian_test(sd: SpectralData, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> TestVerdict:
    """Compare the spectra of the two Gram matrices.

    Both are Hermitian positive definite, so one Hermitian eigensolver call
    gives both spectra, ascending; they are compared entrywise in descending
    order against a band relative to ||U* U||_F.
    """
    grams = gram_pair(sd)
    spec_u, spec_v = np.linalg.eigvalsh(grams)[:, ::-1]
    return _decide("Grammian", (np.arange(sd.n),), spec_u, spec_v,
                   cfg.match_tol * float(np.linalg.norm(grams[0])))


def parallelepiped_test(sd: SpectralData, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> TestVerdict:
    """Compare |det U| with |det V| (unit columns, so both lie in (0, 1])."""
    det = np.linalg.det(np.array((sd.u_basis, sd.v_basis)))
    volume = np.hypot(det.real, det.imag)    # as abs(complex); np.abs may differ
    return _decide("Parallelepiped", (), volume[:1], volume[1:], cfg.match_tol)


def strong_angle_test(sd: SpectralData, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> TestVerdict:
    """Cyclic triple products of inner products, u-side versus conjugated v-side.

    Runs over the canonically ordered triples i <= j <= k, not all equal
    (seven for n = 3).  The products are invariant under eigenvector phase
    changes; an odd permutation of a triple conjugates both sides at once,
    so the canonical orientation loses nothing.
    """
    grams = gram_pair(sd)    # grams[:, j, i] = <u_i, u_j>, <v_i, v_j>
    i, j, k = _triple_indices(sd.n)
    left, right = grams[:, j, i] * grams[:, k, j] * grams[:, i, k]
    return _decide("StrongAngle", (i, j, k), left, np.conj(right), cfg.match_tol)


def classify(
    t,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    seed: int = 0,
) -> ClassificationReport:
    """Run the full decision pipeline on ``t``.

    The final verdict is UECSM exactly when the strong angle test passes,
    in which case the symmetric unitary S is constructed and verified and
    its certificate attached.  Inputs without a (numerically) distinct
    spectrum yield NotApplicable with every test marked accordingly.
    Numerical breakdown inside the eigensystem propagates as an error.

    ``seed`` is accepted and ignored: the pipeline draws no random numbers.
    It stays because callers, among them ``run_search`` and stand-ins that
    replace ``classify`` with the signature ``(m, cfg, seed)``, pass it.
    """
    sd = compute_spectral_data(t, cfg)
    if isinstance(sd, NotApplicable):
        verdicts = tuple(TestVerdict(kind, Outcome.NOT_APPLICABLE) for kind in TEST_KINDS)
        return ClassificationReport(
            final=FinalVerdict.NOT_APPLICABLE,
            verdicts=verdicts,
            not_applicable=sd,
        )

    verdicts = (
        angle_test(sd, cfg),
        grammian_test(sd, cfg),
        parallelepiped_test(sd, cfg),
        strong_angle_test(sd, cfg),
    )
    strong = verdicts[-1]
    if strong.outcome is not Outcome.PASS:
        return ClassificationReport(
            final=FinalVerdict.NOT_UECSM,
            verdicts=verdicts,
            spectrum=sd.lambdas,
        )

    beta = complete_beta(build_beta(sd, cfg))
    alpha = extract_alpha(beta)
    s = build_s(sd, alpha, cfg)
    certificate = verify_certificate(t, s, sd, alpha)
    divisor = min(beta.min_divisor, float(np.abs(sd.e_diag).min()))
    certificate = dataclasses.replace(certificate, beta_min_divisor=divisor)
    return ClassificationReport(
        final=FinalVerdict.UECSM,
        verdicts=verdicts,
        spectrum=sd.lambdas,
        certificate=certificate,
    )
