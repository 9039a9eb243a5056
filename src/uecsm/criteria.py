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

Every test also takes the SpectralData of a stack of matrices and returns
one ``StackVerdicts`` record: arrays with one entry per matrix, item b the
verdict matrix b alone gets.  ``classify`` on a (B, n, n) stack decides the
whole stack that way and returns ``StackReports``: every member's final
verdict and test outcomes as arrays, with no report and no certificate,
and the error of each member that breaks down.  Only one matrix gets a
ClassificationReport, with S built and verified when it is UECSM.
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
from .linalg import DEFAULT_TOLERANCES, LinearAlgebraError, ToleranceConfig, frobenius_norm
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

    def __str__(self) -> str:
        # numpy converts a str member through str(): this makes an array
        # hold, and compare equal to, the value.
        return self.value


class FinalVerdict(str, Enum):
    UECSM = "UECSM"
    NOT_UECSM = "NotUECSM"
    NOT_APPLICABLE = "NotApplicable"

    def __str__(self) -> str:
        return self.value


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


@dataclass(frozen=True)
class StackVerdicts:
    """One test's verdicts on a stack of matrices, one entry per matrix:
    whether it passed, its first worst comparison (an index into
    ``labels``), the two values compared there and their gap.  Item b is
    the TestVerdict matrix b alone gets."""

    kind: str
    passed: np.ndarray
    worst: np.ndarray
    left: np.ndarray
    right: np.ndarray
    discrepancy: np.ndarray
    labels: tuple[tuple[int, ...], ...]

    def __getitem__(self, b: int) -> TestVerdict:
        return TestVerdict(self.kind, Outcome.PASS if self.passed[b] else Outcome.FAIL,
                           Witness(self.labels[self.worst[b]], complex(self.left[b]),
                                   complex(self.right[b]), float(self.discrepancy[b])))


# One test's verdict on one matrix, or the record of one per matrix of a stack.
Verdicts = TestVerdict | StackVerdicts


def _decide(kind: str, labels, left, right, limit) -> Verdicts:
    """Verdict on ``left[m]`` against ``right[m]``, witnessed by the first worst
    comparison m, whose 1-based indices are ``labels[m]``; pass iff within
    ``limit``, vacuously when nothing is compared (n = 1).  With a leading
    stack axis on ``left``, ``right`` and ``limit``: the record of one
    verdict per row."""
    rows, right_rows = np.atleast_2d(left, right)
    if labels:
        gaps = np.abs(rows - right_rows)
        m = gaps.argmax(axis=-1)
        at = m + np.arange(0, gaps.size, len(labels))    # the flat index of each row's worst
        worst = gaps.take(at)
        record = StackVerdicts(kind, worst <= limit, m, rows.take(at), right_rows.take(at),
                               worst, labels)
    else:
        zeros = np.zeros(len(rows), dtype=np.intp)
        record = StackVerdicts(kind, zeros == 0, zeros, zeros + 0j, zeros + 0j, zeros + 0.0,
                               ((),))
    return record if left.ndim == 2 else record[0]


@functools.cache
def _comparisons(n: int, arity: int) -> tuple[tuple[tuple[int, ...], ...], tuple[np.ndarray, ...]]:
    """The comparisons a test makes at size n, in canonical order:
    ``(labels, flat)``.  ``labels`` holds their 1-based witness indices:
    nothing (one comparison), single indices, pairs i < j, or triples
    i <= j <= k not all equal.  ``flat`` holds read-only flat positions in
    an n x n matrix: (i, j) of the pairs, or the three factors (j, i),
    (k, j), (i, k) of the triples."""
    if arity == 0:
        return ((),), ()
    if arity == 1:
        indices, flat = (np.arange(n),), ()
    elif arity == 2:
        i, j = indices = pair_indices(n)
        flat = (i * n + j,)
    else:
        i, j, k = np.indices((n, n, n))
        i, j, k = indices = np.nonzero((i <= j) & (j <= k) & (i < k))
        flat = (j * n + i, k * n + j, i * n + k)
    for f in flat:
        f.flags.writeable = False
    return tuple(zip(*[(a + 1).tolist() for a in indices])), flat


def _entries(grams: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The entries of each Gram matrix at the flat positions ``flat``."""
    n = grams.shape[-1]
    return grams.reshape(grams.shape[:-2] + (n * n,)).take(flat, axis=-1)


def angle_test(sd: SpectralData,
               cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> Verdicts:
    """Compare |<u_i, u_j>| against |<v_i, v_j>| over all pairs i < j."""
    labels, (ij,) = _comparisons(sd.n, 2)
    moduli = np.abs(_entries(gram_pair(sd), ij))
    return _decide("Angle", labels, moduli[0], moduli[1], cfg.match_tol)


def grammian_test(sd: SpectralData,
                  cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> Verdicts:
    """Compare the spectra of the two Gram matrices.

    Both are Hermitian positive definite, so one Hermitian eigensolver call
    gives both spectra, ascending; they are compared entrywise in descending
    order against a band relative to ||U* U||_F.
    """
    grams = gram_pair(sd)
    spec_u, spec_v = np.linalg.eigvalsh(grams)[..., ::-1]
    return _decide("Grammian", _comparisons(sd.n, 1)[0], spec_u, spec_v,
                   cfg.match_tol * frobenius_norm(grams[0]))


def parallelepiped_test(sd: SpectralData,
                        cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> Verdicts:
    """Compare |det U| with |det V| (unit columns, so both lie in (0, 1])."""
    det = np.linalg.det(np.array((sd.u_basis, sd.v_basis)))
    volume = np.hypot(det.real, det.imag)[..., None]    # as abs(complex); np.abs may differ
    return _decide("Parallelepiped", _comparisons(sd.n, 0)[0], volume[0], volume[1],
                   cfg.match_tol)


def strong_angle_test(sd: SpectralData,
                      cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> Verdicts:
    """Cyclic triple products of inner products, u-side versus conjugated v-side.

    Runs over the canonically ordered triples i <= j <= k, not all equal
    (seven for n = 3).  The products are invariant under eigenvector phase
    changes; an odd permutation of a triple conjugates both sides at once,
    so the canonical orientation loses nothing.
    """
    grams = gram_pair(sd)    # grams[:, j, i] = <u_i, u_j>, <v_i, v_j>
    labels, (ji, kj, ik) = _comparisons(sd.n, 3)
    left, right = _entries(grams, ji) * _entries(grams, kj) * _entries(grams, ik)
    return _decide("StrongAngle", labels, left, np.conj(right), cfg.match_tol)


_NOT_APPLICABLE_VERDICTS = tuple(TestVerdict(kind, Outcome.NOT_APPLICABLE)
                                 for kind in TEST_KINDS)


def classify(
    t,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    seed: int = 0,
) -> ClassificationReport | StackReports:
    """Run the full decision pipeline on ``t``.

    The final verdict is UECSM exactly when the strong angle test passes,
    in which case the symmetric unitary S is constructed and verified and
    its certificate attached.  Inputs without a (numerically) distinct
    spectrum yield NotApplicable with every test marked accordingly.
    On one matrix, numerical breakdown inside the eigensystem propagates
    as an error.

    ``t`` may be a (B, n, n) stack: the result is then a ``StackReports``
    holding member b's final verdict, test outcomes, NotApplicable and test
    verdicts as ``classify(t[b])`` gives them, decided in one stacked pass
    through the eigensystem and the four tests.  A member whose
    eigensystem raises alone is recorded with its error in ``breakdowns``,
    and the rest are decided.  A stack is decided, not certified: no S is
    built for its UECSM members, so it raises only when a stacked LAPACK
    call fails as a whole.  One matrix runs as a stack of one.

    ``seed`` is accepted and ignored: the pipeline draws no random numbers.
    It stays because callers, among them ``run_search`` and stand-ins that
    replace ``classify`` with the signature ``(m, cfg, seed)``, pass it.
    """
    found = compute_spectral_data(t, cfg)
    if isinstance(found, NotApplicable):
        return _not_applicable(found)
    if not isinstance(found, tuple):
        verdicts = _verdicts(found, cfg)
        uecsm = verdicts[-1].outcome is Outcome.PASS
        return ClassificationReport(
            final=FinalVerdict.UECSM if uecsm else FinalVerdict.NOT_UECSM,
            verdicts=verdicts, spectrum=found.lambdas,
            certificate=_certificate(t, found, cfg) if uecsm else None)
    sd, skipped = found
    return StackReports(skipped, _verdicts(sd, cfg))


class StackReports:
    """What ``classify`` decides on a (B, n, n) stack, read-only.

    ``final`` (B,) and ``outcomes`` (4, B), tests in TEST_KINDS order, hold
    each member's FinalVerdict and test Outcomes as the strings of their
    values, which compare equal to the members; a member that breaks down
    has "" throughout its column.  ``not_applicable`` holds each member's
    NotApplicable or None, ``breakdowns`` each member's LinearAlgebraError
    or None, and ``verdicts`` the StackVerdicts of the four tests on the
    applicable members, in stack order.  Member b gets the final verdict,
    the outcomes, the NotApplicable and the test verdicts of
    ``classify(t[b])``, or the error it raises, of the same type and with
    the same message; no certificate is built.
    """

    def __init__(self, skipped: tuple[NotApplicable | LinearAlgebraError | None, ...],
                 verdicts: tuple[StackVerdicts, ...]):
        self.not_applicable = tuple(s if isinstance(s, NotApplicable) else None
                                    for s in skipped)
        self.breakdowns = tuple(s if isinstance(s, LinearAlgebraError) else None
                                for s in skipped)
        self.verdicts = verdicts
        applicable = np.array([s is None for s in skipped], dtype=bool)
        broken = np.array([e is not None for e in self.breakdowns], dtype=bool)
        self.final = np.full(len(skipped), FinalVerdict.NOT_APPLICABLE.value)
        self.outcomes = np.full((len(TEST_KINDS), len(skipped)), Outcome.NOT_APPLICABLE.value)
        self.final[broken] = ""
        self.outcomes[:, broken] = ""
        passed = np.array([v.passed for v in verdicts])
        self.outcomes[:, applicable] = np.where(passed, Outcome.PASS.value, Outcome.FAIL.value)
        self.final[applicable] = np.where(passed[-1], FinalVerdict.UECSM.value,
                                          FinalVerdict.NOT_UECSM.value)
        self.final.flags.writeable = self.outcomes.flags.writeable = False


def _verdicts(sd: SpectralData, cfg: ToleranceConfig) -> tuple[Verdicts, ...]:
    return (angle_test(sd, cfg), grammian_test(sd, cfg),
            parallelepiped_test(sd, cfg), strong_angle_test(sd, cfg))


def _not_applicable(na: NotApplicable) -> ClassificationReport:
    return ClassificationReport(final=FinalVerdict.NOT_APPLICABLE,
                                verdicts=_NOT_APPLICABLE_VERDICTS, not_applicable=na)


def _certificate(t, sd: SpectralData, cfg: ToleranceConfig) -> ConjugationCertificate:
    """The verified certificate of one matrix that passes StrongAngle."""
    beta = complete_beta(build_beta(sd, cfg))
    alpha = extract_alpha(beta)
    s = build_s(sd, alpha, cfg)
    certificate = verify_certificate(t, s, sd, alpha)
    divisor = min(beta.min_divisor, float(np.abs(sd.e_diag).min()))
    return dataclasses.replace(certificate, beta_min_divisor=divisor)
