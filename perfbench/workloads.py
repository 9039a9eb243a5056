"""The three closed-loop workloads: one caller, next request after the last.

Every input is made from the benchmark seed before it is timed; the program
only ever sees the generated matrices and documents.  Each operation's
answer is checked outside the timed region, and the check's verdict feeds
``failed``: an exception, a verdict that differs from its label, a
certificate residual above ``match_tol``, search counts that do not sum to
the candidate count, or a search hit that a scalar ``classify`` does not
confirm (``confirm_hits``, after the pass, so that a traced pass records
none of these re-checks).  NotApplicable, Inconclusive and a search
breakdown (a candidate ``run_search`` counts and skips because the
eigensystem raised) are answers, not failures; breakdowns are counted and
reported as measured.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

import uecsm.criteria as criteria
import uecsm.documents as documents
import uecsm.oracle as oracle
import uecsm.search as search
from uecsm.criteria import Outcome, classify as scalar_classify
from uecsm.documents import MatrixDocument, serialize_matrix_document
from uecsm.fixtures import FIXTURE_GROUPS
from uecsm.linalg import DEFAULT_TOLERANCES

CFG = DEFAULT_TOLERANCES
HASHED_INPUTS = 64          # inputs hashed per run, independent of run length

SEARCH_CHUNK = 100          # candidates per run_search call
CLASSIFY_SIZES = (3, 8, 32)
ORACLE_RESTARTS = 8
ORACLE_POOL_SEED = 93       # fixes the pool for every seed; frames come from --seed


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def constructed_uecsm(n: int, rng: np.random.Generator) -> np.ndarray:
    """Q S Q* with S = S^t complex Gaussian and Q Haar unitary."""
    g = ginibre(n, rng)
    q = haar_unitary(n, rng)
    return q @ (g + g.T) @ q.conj().T


def repeated_spectrum(n: int, rng: np.random.Generator) -> np.ndarray:
    """Normal matrix with one doubled eigenvalue: the criteria do not apply."""
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    d[1] = d[0]
    q = haar_unitary(n, rng)
    return (q * d) @ q.conj().T


@dataclass
class Pass:
    """What one pass over a workload's inputs did."""

    latencies_s: list[float] = field(default_factory=list)
    classes: list = field(default_factory=list)     # input class of each latency
    steps_s: dict[str, float] = field(default_factory=dict)
    timed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    notes: list[str] = field(default_factory=list)
    answers: list = field(default_factory=list)
    hits: list = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    ops: int = 0

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def fail(self, why: str, ops: int = 1, wrong: bool = True) -> None:
        """Count failed operations; ``wrong`` marks an incorrect answer, as
        opposed to an operation that raised or broke down without one."""
        self.failed += ops
        self.incorrect += ops if wrong else 0
        if len(self.notes) < 20:
            self.notes.append(why)


class Search3:
    """run_search over 3x3 integer candidates in chunks of SEARCH_CHUNK.

    Chunk k scans the stream keyed by seed * 1_000_000 + k; an operation is
    one candidate, and its latency is its chunk's wall time per candidate.
    """

    name = "search3"
    cycle = 1

    def __init__(self, seed: int):
        self.seed = seed

    def input(self, k: int) -> int:
        return self.seed * 1_000_000 + k

    def input_bytes(self, k: int) -> bytes:
        return f"{self.input(k)}:{SEARCH_CHUNK}".encode()

    def run(self, k: int, p: Pass) -> None:
        chunk_seed = self.input(k)
        start = time.perf_counter()
        try:
            result = search.run_search(SEARCH_CHUNK, dim=3, entry_low=-9,
                                       entry_high=9, seed=chunk_seed, workers=1)
        except Exception as exc:    # any exception is a failed chunk
            p.timed_s += time.perf_counter() - start
            p.attempted += SEARCH_CHUNK
            p.fail(f"chunk {k}: {type(exc).__name__}: {exc}", SEARCH_CHUNK, wrong=False)
            p.answers.append(("error", k))
            return
        elapsed = time.perf_counter() - start
        p.timed_s += elapsed
        p.latencies_s.append(elapsed / SEARCH_CHUNK)
        p.classes.append("chunk")
        p.attempted += SEARCH_CHUNK
        p.ops += SEARCH_CHUNK
        outcome = (result.candidates, result.not_applicable, result.breakdown,
                   result.uecsm, result.not_uecsm,
                   tuple(hit.index for hit in result.hits))
        p.answers.append(outcome)
        for key in ("not_applicable", "breakdown", "uecsm", "not_uecsm"):
            p.count(key, getattr(result, key))
        p.count("hits", len(result.hits))
        p.count("candidates", result.candidates)
        total = (result.not_applicable + result.breakdown + result.uecsm
                 + result.not_uecsm)
        if result.candidates != SEARCH_CHUNK or total != SEARCH_CHUNK:
            p.fail(f"chunk {k}: counts sum to {total} of {result.candidates}")
        p.hits.extend((k, hit) for hit in result.hits)


def confirm_hits(p: Pass) -> None:
    """Confirm every search hit of a finished pass with a scalar classify:
    StrongAngle fails while the other three tests pass."""
    for k, hit in p.hits:
        by_kind = {v.kind: v.outcome for v in scalar_classify(hit.matrix).verdicts}
        confirmed = (by_kind["StrongAngle"] is Outcome.FAIL and all(
            by_kind[kind] is Outcome.PASS
            for kind in ("Angle", "Grammian", "Parallelepiped")))
        if not confirmed:
            p.fail(f"chunk {k}: hit {hit.index} not confirmed by classify")


class ClassifyMixed:
    """The ``uecsm classify --json`` request path on mixed sizes and kinds.

    Request k has n = CLASSIFY_SIZES[k % 3].  Per size, half the requests
    are constructed UECSM (certificate path), four in ten complex Ginibre
    (NotUECSM, exit after the tests) and one in ten a doubled eigenvalue
    (NotApplicable, early exit).
    """

    name = "classify-mixed"
    cycle = 10 * len(CLASSIFY_SIZES)

    def __init__(self, seed: int):
        self.seed = seed

    def input(self, k: int) -> tuple[str, np.ndarray, str]:
        n = CLASSIFY_SIZES[k % len(CLASSIFY_SIZES)]
        j = k // len(CLASSIFY_SIZES)
        rng = np.random.default_rng([self.seed, k])
        if j % 10 == 9:
            label, t = "NotApplicable", repeated_spectrum(n, rng)
        elif j % 2 == 0:
            label, t = "UECSM", constructed_uecsm(n, rng)
        else:
            label, t = "NotUECSM", ginibre(n, rng)
        text = serialize_matrix_document(
            MatrixDocument.from_matrix(t, label=f"{label}-{k}"))
        return label, t, text

    def input_bytes(self, k: int) -> bytes:
        return self.input(k)[2].encode()

    def run(self, k: int, p: Pass) -> None:
        label, t, text = self.input(k)
        clock = time.perf_counter
        p.attempted += 1
        start = clock()
        try:
            doc = documents.parse_matrix_document(text)
            parsed = clock()
            report = criteria.classify(doc.matrix(), CFG)
            decided = clock()
            rdoc = documents.build_report_document(
                report, n=doc.n, label=doc.label, cfg=CFG, seed=0)
            out = documents.serialize_report_document(rdoc)
            done = clock()
        except Exception as exc:    # any exception is a failed request
            p.timed_s += clock() - start
            p.fail(f"request {k}: {type(exc).__name__}: {exc}", wrong=False)
            p.answers.append(("error", k))
            return
        p.timed_s += done - start
        p.latencies_s.append(done - start)
        p.classes.append(t.shape[0])
        p.ops += 1
        for step, seconds in (("parse", parsed - start), ("classify", decided - parsed),
                              ("report", done - decided)):
            p.steps_s[step] = p.steps_s.get(step, 0.0) + seconds
        final = report.final.value
        p.answers.append(final)
        p.count(final)
        if not np.array_equal(doc.matrix(), t):
            p.fail(f"request {k}: parsed matrix differs from the one sent")
        if final != label or json.loads(out)["final"] != final:
            p.fail(f"request {k}: verdict {final}, label {label}")
        elif report.certificate is not None:
            worst = max(report.certificate.residuals())
            if not worst <= CFG.match_tol:
                p.fail(f"request {k}: certificate residual {worst:.3e}")


def _oracle_pool() -> list[tuple[str, np.ndarray, str]]:
    """(kind, matrix, label) triples: a Ginibre matrix (long descents), a
    constructed UECSM matrix (early stop) and a Table 2/3 repeated-spectrum
    fixture, alternating n = 4 and 5 for the random ones."""
    rng = np.random.default_rng(ORACLE_POOL_SEED)
    fixtures = [fx for group in ("table2", "table3") for fx in FIXTURE_GROUPS[group]]
    pool = []
    for trial, fx in enumerate(fixtures):
        n = 4 + trial % 2
        while True:
            g = ginibre(n, rng)
            report = scalar_classify(g)
            if report.not_applicable is None:
                break
        pool.append(("ginibre", g, report.final.value))
        pool.append(("uecsm", constructed_uecsm(n, rng), "UECSM"))
        pool.append(("fixture", fx.matrix(),
                     "UECSM" if fx.oracle_expected else "NotUECSM"))
    return pool


class Oracle:
    """brute_force_uecsm(restarts=8) over a fixed pool of unitary orbits.

    The pool's matrices are fixed; input k is pool item k mod len(pool)
    conjugated by a Haar unitary frame drawn from (seed, k).  Conjugation
    keeps the verdict and the descent landscape, so every seed poses
    equally hard problems while no two seeds pose the same matrices.
    """

    name = "oracle"

    def __init__(self, seed: int):
        self.seed = seed
        self.pool = _oracle_pool()
        self.cycle = len(self.pool)

    def input(self, k: int) -> tuple[str, np.ndarray, str]:
        kind, base, label = self.pool[k % len(self.pool)]
        q = haar_unitary(base.shape[0], np.random.default_rng([self.seed, k]))
        return kind, q @ base @ q.conj().T, label

    def input_bytes(self, k: int) -> bytes:
        return self.input(k)[1].tobytes()

    def run(self, k: int, p: Pass) -> None:
        kind, t, label = self.input(k)
        p.attempted += 1
        start = time.perf_counter()
        try:
            verdict = oracle.brute_force_uecsm(t, restarts=ORACLE_RESTARTS, seed=k)
        except Exception as exc:    # any exception is a failed verdict
            p.timed_s += time.perf_counter() - start
            p.fail(f"input {k} ({kind}): {type(exc).__name__}: {exc}", wrong=False)
            p.answers.append(("error", k))
            return
        elapsed = time.perf_counter() - start
        p.timed_s += elapsed
        p.latencies_s.append(elapsed)
        p.classes.append(kind)
        p.ops += 1
        outcome = verdict.outcome.value
        p.answers.append((outcome, verdict.restarts_used))
        p.count(outcome)
        if outcome != "Inconclusive" and outcome != label:
            p.fail(f"input {k} ({kind}): oracle says {outcome}, label {label}")


WORKLOADS = {w.name: w for w in (Search3, ClassifyMixed, Oracle)}


def input_hash(workload) -> str:
    """sha256 of the first HASHED_INPUTS inputs of the workload's stream."""
    h = hashlib.sha256(workload.name.encode())
    for k in range(HASHED_INPUTS):
        h.update(workload.input_bytes(k))
    return h.hexdigest()


def run_pass(workload, seconds: float | None = None, ops: int | None = None,
             between=None) -> Pass:
    """Closed loop from input 0: stop after ``ops`` inputs, or at the first
    whole cycle of inputs once ``seconds`` have passed, so that every run
    sees the workload's kinds and sizes in the same proportions.

    ``between(s)``, if given, is called at every cycle boundary with the
    seconds the workload has run so far; its own time is not counted."""
    p = Pass()
    start = time.perf_counter()
    paused = 0.0
    k = 0
    while ops is None or k < ops:
        if k % workload.cycle == 0:
            if between is not None:
                pause = time.perf_counter()
                between(pause - start - paused)
                paused += time.perf_counter() - pause
            if seconds is not None and time.perf_counter() - start - paused >= seconds:
                break
        workload.run(k, p)
        k += 1
    p.counts["inputs"] = k
    return p
