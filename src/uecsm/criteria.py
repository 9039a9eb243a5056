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
"""

from __future__ import annotations

import dataclasses
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
from .linalg import DEFAULT_TOLERANCES, ToleranceConfig, determinant
from .spectral import NotApplicable, SpectralData, compute_spectral_data

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


def gram_pair(sd: SpectralData) -> tuple[np.ndarray, np.ndarray]:
    """(U* U, V* V); entry (i, j) is <u_j, u_i> resp. <v_j, v_i>."""
    u, v = sd.u_basis, sd.v_basis
    return u.conj().T @ u, v.conj().T @ v


def _verdict(kind: str, witness: Witness | None, cfg: ToleranceConfig,
             threshold: float | None = None) -> TestVerdict:
    limit = cfg.match_tol if threshold is None else threshold
    if witness is None:
        # No comparable pairs (n = 1): vacuously true.
        return TestVerdict(kind, Outcome.PASS,
                           Witness(indices=(), left=0j, right=0j, discrepancy=0.0))
    outcome = Outcome.PASS if witness.discrepancy <= limit else Outcome.FAIL
    return TestVerdict(kind, outcome, witness)


def angle_test(sd: SpectralData, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> TestVerdict:
    """Compare |<u_i, u_j>| against |<v_i, v_j>| over all pairs i < j."""
    gu, gv = gram_pair(sd)
    worst = None
    for i in range(sd.n):
        for j in range(i + 1, sd.n):
            left = abs(gu[i, j])
            right = abs(gv[i, j])
            gap = abs(left - right)
            if worst is None or gap > worst.discrepancy:
                worst = Witness((i + 1, j + 1), complex(left), complex(right), gap)
    return _verdict("Angle", worst, cfg)


def grammian_test(sd: SpectralData, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> TestVerdict:
    """Compare the sorted spectra of the two Gram matrices.

    Both are Hermitian positive definite, so the Hermitian eigensolver
    applies; spectra are compared entrywise in descending order against a
    band relative to ||U* U||_F.
    """
    gu, gv = gram_pair(sd)
    spec_u = np.sort(np.linalg.eigvalsh(gu))[::-1]
    spec_v = np.sort(np.linalg.eigvalsh(gv))[::-1]
    worst = None
    for k in range(sd.n):
        gap = abs(spec_u[k] - spec_v[k])
        if worst is None or gap > worst.discrepancy:
            worst = Witness((k + 1,), complex(spec_u[k]), complex(spec_v[k]), float(gap))
    threshold = cfg.match_tol * float(np.linalg.norm(gu))
    return _verdict("Grammian", worst, cfg, threshold=threshold)


def parallelepiped_test(sd: SpectralData, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> TestVerdict:
    """Compare |det U| with |det V| (unit columns, so both lie in (0, 1])."""
    det_u = abs(determinant(sd.u_basis))
    det_v = abs(determinant(sd.v_basis))
    gap = abs(det_u - det_v)
    witness = Witness((), complex(det_u), complex(det_v), gap)
    return _verdict("Parallelepiped", witness, cfg)


def strong_angle_test(sd: SpectralData, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> TestVerdict:
    """Cyclic triple products of inner products, u-side versus conjugated v-side.

    Runs over the canonically ordered triples i <= j <= k, not all equal
    (seven for n = 3).  The products are invariant under eigenvector phase
    changes; an odd permutation of a triple conjugates both sides at once,
    so the canonical orientation loses nothing.
    """
    gu, gv = gram_pair(sd)
    uu = gu.T    # uu[i, j] = <u_i, u_j>
    vv = gv.T
    worst = None
    n = sd.n
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                if i == j == k:
                    continue
                left = uu[i, j] * uu[j, k] * uu[k, i]
                right = np.conj(vv[i, j] * vv[j, k] * vv[k, i])
                gap = abs(left - right)
                if worst is None or gap > worst.discrepancy:
                    worst = Witness((i + 1, j + 1, k + 1), complex(left),
                                    complex(right), float(gap))
    return _verdict("StrongAngle", worst, cfg)


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
    """
    sd = compute_spectral_data(t, cfg, seed=seed)
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
    certificate = verify_certificate(t, s, sd, alpha, cfg)
    divisor = min(beta.min_divisor, float(np.abs(sd.e_diag).min()))
    certificate = dataclasses.replace(certificate, beta_min_divisor=divisor)
    return ClassificationReport(
        final=FinalVerdict.UECSM,
        verdicts=verdicts,
        spectrum=sd.lambdas,
        certificate=certificate,
    )
