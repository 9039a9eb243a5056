"""Property tests for ``classify``: verdicts that must not depend on the frame.

UECSM membership is a property of the unitary orbit, so the final verdict
must survive unitary conjugation; T = U S U* with S symmetric gives
T^t = conj(U) S conj(U)* and cT = U (cS) U*, so it must survive
transposition and scaling too, and T (+) 0_1 = (U (+) 1)(S (+) 0_1)(U (+) 1)*
keeps it as well.  Every complex symmetric matrix is
trivially UECSM, so ``classify`` must certify it.  The memory layout of T
is no part of the input: C order, Fortran order and a strided view give
the same report, bit for bit.  Matrices are
drawn from seed integers, and hypothesis runs derandomized, so every run
checks the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from uecsm.criteria import FinalVerdict, classify
from uecsm.oracle import random_unitary

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
