"""Property tests for ``classify``: verdicts that must not depend on the frame.

UECSM membership is a property of the unitary orbit, so the final verdict
must survive unitary conjugation; T = U S U* with S symmetric gives
T^t = conj(U) S conj(U)* and cT = U (cS) U*, so it must survive
transposition and scaling too, and T (+) 0_1 = (U (+) 1)(S (+) 0_1)(U (+) 1)*
keeps it as well.  Every complex symmetric matrix is
trivially UECSM, so ``classify`` must certify it.  The memory layout of T
is no part of the input: C order, Fortran order and a strided view give
the same report, bit for bit.  A (B, n, n) stack gives each of its
matrices, in any order of the stack, the final verdict, test outcomes,
NotApplicable and test verdicts it gets alone, bit for bit, or records the
error its eigensystem raises alone, of the same type and message.
Matrices are drawn from seed integers, and hypothesis runs derandomized, so
every run checks the same examples.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uecsm.criteria import FinalVerdict, classify
from uecsm.linalg import EigenSolverError, LinearAlgebraError, NumericalBreakdownError
from uecsm.oracle import random_unitary
from uecsm.spectral import compute_spectral_data

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SIZES = st.integers(min_value=2, max_value=6)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=30)


def ginibre(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def drawn_matrix(seed, n, symmetric_core):
    """Ginibre, or Q S Q* with S = G + G^t and Q random unitary."""
    rng = np.random.default_rng(seed)
    g = ginibre(n, rng)
    if not symmetric_core:
        return g
    q = random_unitary(n, rng)
    return q @ (g + g.T) @ q.conj().T


@PROPERTY
@given(seed=SEEDS, n=SIZES, symmetric_core=st.booleans())
def test_verdict_survives_conjugation_transpose_and_scaling(seed, n, symmetric_core):
    t = drawn_matrix(seed, n, symmetric_core)
    q = random_unitary(n, np.random.default_rng([seed, 1]))
    final = classify(t).final
    for variant in (q @ t @ q.conj().T, t.T, (2 - 3j) * t):
        assert classify(variant).final is final


@PROPERTY
@given(seed=SEEDS, n=SIZES, symmetric_core=st.booleans())
def test_verdict_survives_zero_block(seed, n, symmetric_core):
    t = drawn_matrix(seed, n, symmetric_core)
    padded = np.zeros((n + 1, n + 1), dtype=np.complex128)
    padded[:n, :n] = t
    assert classify(padded).final is classify(t).final


@PROPERTY
@given(seed=SEEDS, n=SIZES)
def test_complex_symmetric_input_is_certified(seed, n):
    g = ginibre(n, np.random.default_rng(seed))
    report = classify(g + g.T)
    assert report.final is FinalVerdict.UECSM
    assert report.certificate is not None and report.certificate.is_valid()


def report_bits(report):
    """Everything a report says: arrays as their bytes, the rest by repr,
    which tells every float apart, signed zeros included."""
    cert = report.certificate
    return (repr((report.final, report.verdicts, report.not_applicable)),
            None if report.spectrum is None else report.spectrum.tobytes(),
            None if cert is None else (cert.s.tobytes(), cert.alphas.tobytes(),
                                       repr((cert.residuals(), cert.beta_min_divisor))))


@PROPERTY
@given(seed=SEEDS, n=SIZES, symmetric_core=st.booleans())
def test_report_ignores_memory_layout(seed, n, symmetric_core):
    t = drawn_matrix(seed, n, symmetric_core)
    big = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    big[::2, ::2] = t
    expected = report_bits(classify(t))
    for variant in (np.asfortranarray(t), big[::2, ::2], np.asfortranarray(big)[::2, ::2]):
        assert report_bits(classify(variant)) == expected


# Sign matrices whose eigensystems break down alone: inverse iteration
# stalls, except for the second at n = 4, which loses biorthogonality.  At
# n = 3 it is i times a sign matrix: the exact gate decides every real 3 x 3
# matrix with a repeated spectrum before it can break down, and no complex
# one.  test_breakdown_members_raise_alone asserts it.
BREAKDOWNS = {
    3: [[[-1j, -1j, -1j], [-1j, 0, -1j], [-1j, 1j, -1j]]],
    4: [[[0, -1, -1, 0], [-1, 0, -1, -1], [-1, 1, 1, 0], [1, 0, 0, 0]],
        [[-1, -1, 1, 1], [0, -1, 0, 1], [0, -1, 1, 1], [1, 0, -1, 0]]],
    5: [[[0, 0, -1, -1, 0], [-1, -1, 0, -1, -1], [1, -1, 0, -1, -1], [-1, 1, 0, -1, 0],
         [1, -1, -1, 1, 0]]],
    6: [[[1, 0, -1, 1, 0, 1], [1, 0, 0, 1, -1, 0], [1, -1, -1, 0, 0, 1],
         [0, -1, -1, 0, 0, 1], [-1, 0, -1, -1, -1, 1], [0, 0, 0, -1, -1, 0]]],
}


def test_breakdown_members_raise_alone():
    kinds = [type(eigensystem_error(np.array(m, dtype=np.complex128)))
             for ms in BREAKDOWNS.values() for m in ms]
    assert kinds == [EigenSolverError] * 2 + [NumericalBreakdownError] + [EigenSolverError] * 2


def stack_member(seed, n, kind):
    """Ginibre, constructed UECSM, a normal matrix with a doubled
    eigenvalue (NotApplicable; Ginibre at n = 1), one of BREAKDOWNS
    (Ginibre at n <= 2), a real Gaussian matrix, or a real integer matrix
    with entries in [-1, 1] (whose exactly repeated spectra the exact gate
    decides at n = 3)."""
    if kind == "breakdown" and n in BREAKDOWNS:
        return np.array(BREAKDOWNS[n][seed % len(BREAKDOWNS[n])], dtype=np.complex128)
    if kind in ("real", "integer"):
        rng = np.random.default_rng(seed)
        draw = rng.standard_normal((n, n)) if kind == "real" else rng.integers(-1, 2, (n, n))
        return draw.astype(np.complex128)
    if kind != "doubled" or n == 1:
        return drawn_matrix(seed, n, symmetric_core=kind == "uecsm")
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    d[1] = d[0]
    q = random_unitary(n, rng)
    return (q * d) @ q.conj().T


def eigensystem_error(t):
    """The error the eigensystem of ``t`` raises alone, or None."""
    try:
        compute_spectral_data(t)
    except LinearAlgebraError as exc:
        return exc
    return None


@PROPERTY
@given(n=st.integers(min_value=1, max_value=6),
       members=st.lists(st.tuples(SEEDS, st.sampled_from(("ginibre", "uecsm", "doubled",
                                                           "breakdown", "real", "integer"))),
                        min_size=1, max_size=8),
       order_seed=SEEDS)
# Integer members 2 and 5 at n = 3 go to the exact gate, integer 0 and the
# real members to LAPACK's real routine, the rest to its complex one.
@example(n=3, members=[(2, "integer"), (0, "ginibre"), (0, "integer"), (1, "breakdown"),
                       (4, "real"), (5, "integer"), (3, "doubled"), (6, "uecsm")],
         order_seed=1)
def test_stack_matches_single_calls(n, members, order_seed):
    stack = np.array([stack_member(seed, n, kind) for seed, kind in members])
    errors = [eigensystem_error(t) for t in stack]
    singles = [classify(t) if e is None else None for t, e in zip(stack, errors)]
    order = np.random.default_rng(order_seed).permutation(len(stack))
    for perm in (np.arange(len(stack)), order):
        reports = classify(stack[perm])
        assert [(type(e), str(e)) for e in reports.breakdowns] == [
            (type(errors[k]), str(errors[k])) for k in perm]
        alone = [singles[k] for k in perm]
        assert reports.final.tolist() == ["" if r is None else r.final.value for r in alone]
        assert reports.outcomes.T.tolist() == [
            [""] * 4 if r is None else [v.outcome.value for v in r.verdicts] for r in alone]
        assert repr(reports.not_applicable) == repr(tuple(
            None if r is None else r.not_applicable for r in alone))
        applicable = [r for r in alone if r is not None and r.not_applicable is None]
        assert [repr(tuple(v[k] for v in reports.verdicts)) for k in range(len(applicable))
                ] == [repr(r.verdicts) for r in applicable]
