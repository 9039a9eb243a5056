"""Randomized hunt for matrices that defeat the three necessary tests.

A *hit* is a matrix with distinct eigenvalues that passes Angle, Grammian
and Parallelepiped while failing StrongAngle -- the situation where the
cheap necessary tests are collectively blind.  Integer matrices are drawn
entrywise uniformly; candidate ``i`` comes from its own Philox stream keyed
by ``(seed, i)``, so the stream of candidates is reproducible and identical
no matter how the index range is split across workers.  Hit lists are
canonicalized by candidate index.

Candidates are decided in blocks, one stacked ``classify`` call per block;
a planted candidate is a block of one.  Candidates whose spectrum is
repeated at working precision are skipped (counted as not applicable); the
rare candidate that triggers a numerical breakdown inside the eigensystem
is counted and skipped rather than aborting a long search: a block that
raises is decided again in halves, down to the candidates that raise.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .criteria import FinalVerdict, Outcome, classify
from .linalg import DEFAULT_TOLERANCES, LinearAlgebraError, ToleranceConfig

# A block holds at most this many matrix entries (113 candidates at n = 3).
# Larger blocks spread the fixed cost of a stacked call over more candidates,
# but a block that raises is decided again in halves, at about twice its work.
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


def _reports(stack: np.ndarray, start: int, cfg: ToleranceConfig) -> list:
    """The reports on a stack of candidates numbered from ``start``, None
    for each candidate that raises.  A stack that raises is decided again
    in halves, down to stacks of one."""
    try:
        return list(classify(stack, cfg, seed=start))
    except LinearAlgebraError:
        if len(stack) == 1:
            return [None]
        half = len(stack) // 2
        return _reports(stack[:half], start, cfg) + _reports(stack[half:], start + half, cfg)


def _scan_range(indices: range, *, seed, dim, entry_low, entry_high,
                cfg, inject) -> SearchResult:
    # Bounds, not len(): a range longer than 2**63 - 1 has no len().
    result = SearchResult(candidates=indices.stop - indices.start)
    planted = range(indices.start, min(indices.stop, len(inject)))
    stream = range(max(indices.start, len(inject)), indices.stop)
    size = max(1, _BLOCK_ENTRIES // (dim * dim))
    blocks = chain((range(index, index + 1) for index in planted),
                   (range(k, min(k + size, stream.stop))
                    for k in range(stream.start, stream.stop, size)))
    for block in blocks:
        if block.start < len(inject):
            stack = inject[block.start][None]
        else:
            stack = candidate_matrix(seed, block, dim, entry_low, entry_high)
        for index, m, report in zip(block, stack, _reports(stack, block.start, cfg)):
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
    ``classify`` per block, and a block that raises is decided again in
    halves down to stacks of one, so the counts equal those of one call per
    candidate.  Planted candidates are blocks of one.  ``seed`` and the
    candidate index key the Philox stream, whose key words are 64 bits wide,
    so ``count`` is at most 2**64.
    """
    if not 0 <= count <= 2**64:
        raise ValueError("count must be nonnegative and at most 2**64")
    if dim < 1:
        raise ValueError("dim must be positive")
    if entry_low > entry_high:
        raise ValueError("entry range is empty")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be nonnegative and below 2**64")
    inject = tuple(np.asarray(m, dtype=np.complex128) for m in inject)

    scan = functools.partial(_scan_range, seed=seed, dim=dim, entry_low=entry_low,
                             entry_high=entry_high, cfg=cfg, inject=inject)
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
