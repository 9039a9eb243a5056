"""Randomized hunt for matrices that defeat the three necessary tests.

A *hit* is a matrix with distinct eigenvalues that passes Angle, Grammian
and Parallelepiped while failing StrongAngle -- the situation where the
cheap necessary tests are collectively blind.  Integer matrices are drawn
entrywise, each value of the range with a probability within 2**-64 of
uniform, from the raw words of one counter-based generator,
``Philox(key=seed)``: candidate ``i`` reads its own range of counter steps,
so the stream of candidates is reproducible and identical no matter how the
index range is split across workers, and a block of candidates is one
``advance`` and one draw.  Hit lists are canonicalized by candidate index.

Candidates are decided in blocks, one stacked ``classify`` call per block.
The counts and the hits come from the arrays of final verdicts and test
outcomes that ``classify`` returns on a stack; no report and no certificate
are built for a candidate, so a UECSM count is a count of StrongAngle
passes.  Candidates whose spectrum is repeated are skipped (counted as not
applicable): exactly so at n = 3, where the discriminant decides, and at
working precision otherwise.  The rare candidate that triggers a numerical
breakdown inside the eigensystem is counted and skipped rather than
aborting a long search: the stack records it, as it records a
NotApplicable.  Only a block whose stacked call fails as a whole is decided
again, one candidate at a time.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .criteria import TEST_KINDS, FinalVerdict, Outcome, classify
from .linalg import DEFAULT_TOLERANCES, LinearAlgebraError, ToleranceConfig

# A block holds at most this many matrix entries (227 candidates at n = 3,
# 128 at n = 4).  Larger blocks spread the fixed cost of a stacked call over
# more candidates, and a block that holds a breakdown costs one call like any
# other; 2048 decides the 3 x 3 and 4 x 4 search streams faster than 1024.
_BLOCK_ENTRIES = 2048


@dataclass(frozen=True)
class SearchHit:
    index: int
    matrix: np.ndarray


@dataclass
class SearchResult:
    candidates: int
    not_applicable: int = 0
    breakdown: int = 0
    uecsm: int = 0
    not_uecsm: int = 0
    hits: list[SearchHit] = field(default_factory=list)


def candidate_matrix(seed: int, index: int | range, dim: int,
                     entry_low: int, entry_high: int) -> np.ndarray:
    """The ``index``-th integer candidate of the stream keyed by ``seed``; for
    a ``range`` of consecutive indices, the (len(index), dim, dim) stack of
    them.

    The stream is the raw 64-bit words of ``Philox(key=seed)``, four per
    counter step.  Candidate i reads the first dim**2 words of counter steps
    [i*s, (i+1)*s), s = ceil(dim**2 / 4), row by row, and maps each word w
    to ``entry_low + w * R // 2**64``, R = entry_high - entry_low + 1
    (Lemire's multiply-high with no rejection step, so each value has a
    probability within 2**-64 of 1 / R).  A block costs one generator, one
    ``advance`` and one draw, and gives the same candidates however the
    index range is cut.  The entries are complex128, which holds every
    integer only up to 2**53 in magnitude: a range within [-2**53, 2**53]
    gives the drawn integers exactly, a wider one rounds them.
    """
    indices = index if isinstance(index, range) else range(index, index + 1)
    if indices.step != 1:
        raise ValueError("candidate indices must be consecutive")
    size = dim * dim
    steps = -(-size // 4)
    bits = np.random.Philox(key=seed)
    bits.advance(indices.start * steps)
    w = bits.random_raw(len(indices) * steps * 4).reshape(len(indices), steps * 4)[:, :size]
    # w * R = w * span + w.  The high word of w * span comes from 32-bit
    # limbs, and the low word wraps past 2**64 exactly when w * R carries.
    span = np.uint64(entry_high - entry_low)
    a0, a1, b0, b1 = w & 0xFFFFFFFF, w >> 32, span & 0xFFFFFFFF, span >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & 0xFFFFFFFF) + (p10 & 0xFFFFFFFF)
    high = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    draws = high + (w * span + w < w) + np.uint64(entry_low % 2**64)
    out = draws.view(np.int64).astype(np.complex128).reshape(len(indices), dim, dim)
    return out if isinstance(index, range) else out[0]


def _hits(outcomes: np.ndarray) -> np.ndarray:
    """Which columns of (4, B) test outcomes, tests in TEST_KINDS order, are
    hits: Angle, Grammian and Parallelepiped pass and StrongAngle fails."""
    return (outcomes[:3] == Outcome.PASS.value).all(axis=0) & (outcomes[3] == Outcome.FAIL.value)


def _reports(stack: np.ndarray, start: int, cfg: ToleranceConfig
             ) -> tuple[np.ndarray, np.ndarray]:
    """The final verdicts (B,) and test outcomes (4, B) of a stack of
    candidates numbered from ``start``, as the ``final`` and ``outcomes``
    arrays of ``classify``, with "" for each candidate that breaks down.
    A stack whose ``classify`` raises as a whole (a stacked LAPACK call
    failed) is decided one candidate at a time, each under its own index
    as ``seed``."""
    try:
        reports = classify(stack, cfg, seed=start)
    except LinearAlgebraError:
        if len(stack) == 1:
            return np.array([""]), np.array([[""]] * len(TEST_KINDS))
        members = [_reports(stack[k:k + 1], start + k, cfg) for k in range(len(stack))]
        return tuple(np.concatenate(part, axis=-1) for part in zip(*members))
    return reports.final, reports.outcomes


def _scan_range(indices: range, *, seed, dim, entry_low, entry_high, cfg) -> SearchResult:
    # Bounds, not len(): a range longer than 2**63 - 1 has no len().
    result = SearchResult(candidates=indices.stop - indices.start)
    size = max(1, _BLOCK_ENTRIES // (dim * dim))
    for start in range(indices.start, indices.stop, size):
        block = range(start, min(start + size, indices.stop))
        stack = candidate_matrix(seed, block, dim, entry_low, entry_high)
        final, outcomes = _reports(stack, start, cfg)
        tally = Counter(final.tolist())
        result.breakdown += tally[""]
        result.not_applicable += tally[FinalVerdict.NOT_APPLICABLE.value]
        result.uecsm += tally[FinalVerdict.UECSM.value]
        result.not_uecsm += tally[FinalVerdict.NOT_UECSM.value]
        result.hits.extend(SearchHit(index=start + k, matrix=stack[k].copy())
                           for k in np.flatnonzero(_hits(outcomes)).tolist())
    return result


def run_search(
    count: int,
    dim: int = 3,
    entry_low: int = -9,
    entry_high: int = 9,
    seed: int = 0,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    workers: int = 1,
) -> SearchResult:
    """Classify ``count`` random candidates and collect the hits.

    Entries are drawn from [entry_low, entry_high], which must lie within
    [-2**53, 2**53], where complex128 holds every integer, so each
    candidate is exactly the integers drawn.  Results are deterministic for
    fixed (seed, count, dim, range) and independent of ``workers``, which
    must be positive.  The range is split into at most ``workers`` nonempty
    parts; a single part runs in this process, several on at most one
    process per part and per CPU.  Each part is decided in blocks of at
    most ``_BLOCK_ENTRIES`` matrix entries, one stacked ``classify`` per
    block; a block whose call fails as a whole is decided one candidate at
    a time.  So a candidate's final verdict is the one ``classify`` reaches
    on it alone before it builds a certificate: UECSM means StrongAngle
    passes, and no S is built.  A breakdown is a candidate whose
    eigensystem raises alone, recorded by the stack.  ``seed`` is the
    Philox key, below 2**64, and the candidate index picks a counter range
    (see ``candidate_matrix``); ``count`` is at most 2**64, so every index
    fits one 64-bit word.
    """
    if not 0 <= count <= 2**64:
        raise ValueError("count must be nonnegative and at most 2**64")
    if dim < 1:
        raise ValueError("dim must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    if entry_low > entry_high:
        raise ValueError("entry range is empty")
    if not (-2**53 <= entry_low and entry_high <= 2**53):
        raise ValueError("entry range must lie within [-2**53, 2**53]")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be nonnegative and below 2**64")

    scan = functools.partial(_scan_range, seed=seed, dim=dim, entry_low=entry_low,
                             entry_high=entry_high, cfg=cfg)
    n_parts = max(1, min(workers, count))
    bounds = [count * k // n_parts for k in range(n_parts + 1)]
    parts = [range(start, stop) for start, stop in zip(bounds, bounds[1:])]
    if len(parts) == 1:
        return scan(parts[0])
    from concurrent.futures import ProcessPoolExecutor    # loaded only when it is used

    merged = SearchResult(candidates=count)
    with ProcessPoolExecutor(max_workers=min(len(parts), os.cpu_count() or 1)) as pool:
        for part in pool.map(scan, parts):
            merged.not_applicable += part.not_applicable
            merged.breakdown += part.breakdown
            merged.uecsm += part.uecsm
            merged.not_uecsm += part.not_uecsm
            merged.hits.extend(part.hits)
    return merged
