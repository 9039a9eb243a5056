"""Randomized hunt for matrices that defeat the three necessary tests.

A *hit* is a matrix with distinct eigenvalues that passes Angle, Grammian
and Parallelepiped while failing StrongAngle -- the situation where the
cheap necessary tests are collectively blind.  Integer matrices are drawn
entrywise uniformly; candidate ``i`` comes from its own Philox stream keyed
by ``(seed, i)``, so the stream of candidates is reproducible and identical
no matter how the index range is split across workers.  Hit lists are
canonicalized by candidate index.

Candidates are decided in blocks, one stacked ``classify`` call per block.
Candidates whose spectrum is repeated at working precision are skipped
(counted as not applicable); the rare candidate that triggers a numerical
breakdown inside the eigensystem is counted and skipped rather than
aborting a long search: a block that raises is decided again one candidate
at a time.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np

from .criteria import FinalVerdict, Outcome, classify
from .linalg import DEFAULT_TOLERANCES, LinearAlgebraError, ToleranceConfig

# A block holds at most this many matrix entries (113 candidates at n = 3).
# Larger blocks spread the fixed cost of a stacked call over more candidates,
# but a block that raises is decided again one candidate at a time.
_BLOCK_ENTRIES = 1024


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
    a ``range`` of indices, the (len(index), dim, dim) stack of them.

    Candidate i is drawn by a Philox generator with key (seed, i), from its
    first counter value.  One generator serves the whole call: its state is
    reset to that key for each index, which draws the same numbers as a
    fresh ``Philox(key=(seed, i))`` without seeding one per candidate.
    """
    indices = index if isinstance(index, range) else (index,)
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    key = np.array([seed, 0], dtype=np.uint64)
    state = {**bits.state, "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key}}
    out = np.empty((len(indices), dim, dim), dtype=np.complex128)
    for k, i in enumerate(indices):
        key[1] = i
        bits.state = state    # counter 0 and an empty buffer, as Philox(0) starts
        out[k] = rng.integers(entry_low, entry_high + 1, size=(dim, dim))
    return out if isinstance(index, range) else out[0]


def _is_hit(report) -> bool:
    by_kind = {v.kind: v.outcome for v in report.verdicts}
    return (by_kind["Angle"] is Outcome.PASS
            and by_kind["Grammian"] is Outcome.PASS
            and by_kind["Parallelepiped"] is Outcome.PASS
            and by_kind["StrongAngle"] is Outcome.FAIL)


def _blocks(indices: range, size: int, inject: tuple[np.ndarray, ...]):
    """Consecutive parts of ``indices`` of at most ``size`` candidates.  The
    injected candidates come in parts of their own, each of one shape."""
    start = indices.start
    while start < indices.stop:
        stop = min(indices.stop, start + size)
        if start < len(inject):
            shape = inject[start].shape
            stop = next((k for k in range(start + 1, min(stop, len(inject)))
                         if inject[k].shape != shape), min(stop, len(inject)))
        yield range(start, stop)
        start = stop


def _scan_range(indices: range, *, seed, dim, entry_low, entry_high,
                cfg, inject) -> SearchResult:
    result = SearchResult(candidates=len(indices))
    for block in _blocks(indices, max(1, _BLOCK_ENTRIES // (dim * dim)), inject):
        if block.start < len(inject):
            stack = np.array([inject[index] for index in block])
        else:
            stack = candidate_matrix(seed, block, dim, entry_low, entry_high)
        try:
            reports = classify(stack, cfg, seed=block.start)
        except LinearAlgebraError:
            reports = []
            for index, m in zip(block, stack):    # find the candidates that raise
                try:
                    reports.append(classify(m, cfg, seed=index))
                except LinearAlgebraError:
                    reports.append(None)
        for index, m, report in zip(block, stack, reports):
            if report is None:
                result.breakdown += 1
            elif report.final is FinalVerdict.NOT_APPLICABLE:
                result.not_applicable += 1
            else:
                if report.final is FinalVerdict.UECSM:
                    result.uecsm += 1
                else:
                    result.not_uecsm += 1
                if _is_hit(report):
                    result.hits.append(SearchHit(index=index, matrix=m.copy()))
    return result


def run_search(
    count: int,
    dim: int = 3,
    entry_low: int = -9,
    entry_high: int = 9,
    seed: int = 0,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    inject: tuple[np.ndarray, ...] = (),
    workers: int = 1,
) -> SearchResult:
    """Classify ``count`` random candidates and collect the hits.

    ``inject`` replaces the first ``len(inject)`` candidates with fixed
    matrices (a test hook: a planted hit must be found regardless of seed).
    Results are deterministic for fixed (seed, count, dim, range, inject)
    and independent of ``workers``.  The range is split into at most
    ``workers`` nonempty parts; a single part runs in this process, several
    on at most one process per part and per CPU.  Each part is decided in
    blocks of at most ``_BLOCK_ENTRIES`` matrix entries, one stacked
    ``classify`` per block, and a block that raises is decided again one
    candidate at a time, so the counts equal those of one call per
    candidate.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if dim < 1:
        raise ValueError("dim must be positive")
    if entry_low > entry_high:
        raise ValueError("entry range is empty")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    inject = tuple(np.asarray(m, dtype=np.complex128) for m in inject)

    scan = functools.partial(_scan_range, seed=seed, dim=dim, entry_low=entry_low,
                             entry_high=entry_high, cfg=cfg, inject=inject)
    bounds = np.linspace(0, count, max(1, min(workers, count)) + 1, dtype=int).tolist()
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
