"""
Hunting for necessary-test-blind matrices
=========================================

A "hit" is a matrix that passes Angle, Grammian and Parallelepiped but
fails the triple-product test -- the phenomenon the 4x4 counterexample
exhibits.  Hits are exceedingly rare: scans of random 3x3 integer
matrices find none, while 4x4 sign matrices (entries in {-1, 0, 1}) hold
a few.  The harness is deterministic per seed, so any hit it ever
reports can be replayed exactly.
"""

import tempfile
from pathlib import Path

from uecsm import classify, run_search
from uecsm.documents import MatrixDocument, parse_matrix_document, serialize_matrix_document

# A modest desk-scale scan (the acceptance suite runs 100000).
result = run_search(2000, dim=3, entry_low=-9, entry_high=9, seed=0)
print("candidates:     ", result.candidates)
print("not applicable: ", result.not_applicable, "(repeated eigenvalues)")
print("breakdown:      ", result.breakdown, "(pathological pairings)")
print("uecsm:          ", result.uecsm)
print("not uecsm:      ", result.not_uecsm)
print("hits:           ", len(result.hits))

# The 4x4 sign-matrix stream of seed 3 holds three hits among its first
# 4000 candidates.
result = run_search(4000, dim=4, entry_low=-1, entry_high=1, seed=3)
print("\n4x4 sign matrices:", len(result.hits), "hit(s) at",
      [h.index for h in result.hits])

hit = result.hits[0]
print("first hit:")
print(hit.matrix.real.astype(int))

# Every hit re-verifies: write it out as a matrix document, read it back,
# and classify it again.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / f"hit-{hit.index:06d}.json"
    doc = MatrixDocument.from_matrix(hit.matrix, label="replayed-hit")
    path.write_text(serialize_matrix_document(doc))
    replayed = parse_matrix_document(path.read_text())
    report = classify(replayed.matrix())

outcomes = {v.kind: v.outcome.value for v in report.verdicts}
print("\nreplayed verdicts:", outcomes)
print("final:", report.final.value)
