"""Randomized hunt for matrices that defeat the three necessary tests.

A *hit* is a matrix with distinct eigenvalues that passes Angle, Grammian
and Parallelepiped while failing StrongAngle -- the situation where the
cheap necessary tests are collectively blind.  Integer matrices are drawn
entrywise uniformly; candidate ``i`` comes from its own Philox stream keyed
by ``(seed, i)``, so the stream of candidates is reproducible and identical
no matter how the index range is split across workers.  Hit lists are
canonicalized by candidate index.

Candidates whose spectrum is repeated at working precision are skipped
(counted as not applicable); the rare candidate that triggers a numerical
breakdown inside the eigensystem is counted and skipped rather than
aborting a long search.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .criteria import FinalVerdict, Outcome, classify
from .linalg import DEFAULT_TOLERANCES, LinearAlgebraError, ToleranceConfig


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


def candidate_matrix(seed: int, index: int, dim: int,
                     entry_low: int, entry_high: int) -> np.ndarray:
    """The ``index``-th integer candidate of the stream keyed by ``seed``."""
    key = np.array([seed, index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.integers(entry_low, entry_high + 1, size=(dim, dim)).astype(np.complex128)


def _is_hit(report) -> bool:
    by_kind = {v.kind: v.outcome for v in report.verdicts}
    return (by_kind["Angle"] is Outcome.PASS
            and by_kind["Grammian"] is Outcome.PASS
            and by_kind["Parallelepiped"] is Outcome.PASS
            and by_kind["StrongAngle"] is Outcome.FAIL)


def _scan_range(indices: range, *, seed, dim, entry_low, entry_high,
                cfg, inject) -> SearchResult:
    result = SearchResult(candidates=len(indices))
    for index in indices:
        if index < len(inject):
            m = inject[index]
        else:
            m = candidate_matrix(seed, index, dim, entry_low, entry_high)
        try:
            report = classify(m, cfg, seed=index)
        except LinearAlgebraError:
            result.breakdown += 1
            continue
        if report.final is FinalVerdict.NOT_APPLICABLE:
            result.not_applicable += 1
            continue
        if report.final is FinalVerdict.UECSM:
            result.uecsm += 1
        else:
            result.not_uecsm += 1
        if _is_hit(report):
            result.hits.append(SearchHit(index=index, matrix=m))
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
    on at most one process per part and per CPU.
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
    merged = SearchResult(candidates=count)
    with ProcessPoolExecutor(max_workers=min(len(parts), os.cpu_count() or 1)) as pool:
        for part in pool.map(scan, parts):
            merged.not_applicable += part.not_applicable
            merged.breakdown += part.breakdown
            merged.uecsm += part.uecsm
            merged.not_uecsm += part.not_uecsm
            merged.hits.extend(part.hits)
    return merged
