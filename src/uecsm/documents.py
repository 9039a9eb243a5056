"""File formats: matrix documents and classification report documents.

Both formats are JSON with every complex number spelled as an explicit
``[re, im]`` pair, so integer and decimal literals parse exactly.  Every
real is finite: NaN and Infinity are neither read nor written.  Matrix
documents are read and written, and a serialized one parses back to an
equal value; ``format_version`` is checked on input.  Report documents are
only written: ``build_report_document`` returns the JSON tree and
``json.loads(serialize_report_document(doc)) == doc``.  Both are version 1.

A matrix document's entries are validated by one rule, ``_entry_parts``:
a sweep over the types of the numbers, one float conversion and one
finiteness check, in one array pass.  Only a document that fails it is
walked, row by row and then entry by entry under the same rule, to name
the first bad row or entry.  The writer is the standard library's encoder
with allow_nan=False: a document is written on one line, and what the
encoder refuses raises its error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from itertools import chain

import numpy as np

from .criteria import ClassificationReport, TestVerdict, Witness
from .linalg import DEFAULT_TOLERANCES, ToleranceConfig, as_matrix
from .oracle import OracleVerdict

FORMAT_VERSION = 1


class DocumentError(ValueError):
    """Malformed document; carries line/column when the JSON layer knows them."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


def _load_json(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc.msg}",
                            line=exc.lineno, column=exc.colno) from exc
    except (ValueError, RecursionError) as exc:    # an overlong integer, deep nesting
        raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DocumentError("document root must be a JSON object")
    return data


def _check_version(data: dict) -> None:
    version = data.get("format_version")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise DocumentError(
            f"unsupported format_version {version!r} (expected {FORMAT_VERSION})")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_PLAIN = frozenset((str, int, float, bool, type(None)))


def _encode(value):
    """JSON tree of ``value``: complex scalars and arrays become [re, im]
    pairs, tuples become lists, dataclasses become objects keyed by field in
    declaration order, and enums become their value.  A scalar of an exact
    JSON type returns at once; str enums and numpy scalars do not."""
    if type(value) in _PLAIN:
        return value
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        a = value.astype(np.complex128, copy=False)
        return np.stack((a.real, a.imag), -1).tolist()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    return value


# ---------------------------------------------------------------- matrices

@dataclass(frozen=True)
class MatrixDocument:
    """A labelled square complex matrix as stored on disk."""

    entries: tuple[tuple[complex, ...], ...]
    label: str | None = None

    @property
    def n(self) -> int:
        return len(self.entries)

    def matrix(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.complex128)

    @classmethod
    def from_matrix(cls, m, label: str | None = None) -> "MatrixDocument":
        try:
            a = as_matrix(m)
        except ValueError as exc:
            raise DocumentError(str(exc)) from exc
        return cls(entries=tuple(map(tuple, a.tolist())), label=label)


def parse_matrix_document(text: str) -> MatrixDocument:
    data = _load_json(text)
    _check_version(data)
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise DocumentError(f"label must be a string, got {label!r}")
    raw = data.get("entries")
    if not isinstance(raw, list) or not raw:
        raise DocumentError("entries must be a nonempty list of rows")
    n = len(raw)
    parts = _entry_parts(raw)
    if parts is None:    # name the first row or entry that _entry_parts refused
        for i, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != n:
                raise DocumentError(f"row {i + 1} must have {n} entries (square matrix)")
            for j, v in enumerate(row):
                if _entry_parts([[v]]) is None:
                    raise DocumentError(f"entry ({i + 1}, {j + 1}): expected an "
                                        f"[re, im] number pair, got {v!r}")
    declared = data.get("n")
    if declared is not None and (not _is_int(declared) or declared != n):
        raise DocumentError(f"declared n = {declared} but entries are {n}x{n}")
    return MatrixDocument.from_matrix(parts.view(np.complex128)[..., 0], label=label)


def _entry_parts(raw: list) -> np.ndarray | None:
    """The (n, n, 2) float array of ``raw``, exact with signed zeros kept,
    if every entry is an [re, im] pair of non-bool numbers with finite float
    values; else None."""
    try:
        leaves = set(map(type, chain.from_iterable(chain.from_iterable(raw))))
        if not leaves <= {int, float}:
            return None
        parts = np.array(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):    # a bare number, ragged rows, 10**400
        return None
    n = len(raw)
    if parts.shape != (n, n, 2) or not np.isfinite(parts).all():
        return None
    return parts


_ENCODER = json.JSONEncoder(allow_nan=False)


def _write(tree) -> str:
    """The JSON text of ``tree`` on one line, and a newline."""
    try:
        return _ENCODER.encode(tree) + "\n"
    except ValueError:
        # The C encoder does not name a non-finite float; the pure-Python
        # encoder, which runs with an indent, raises the same error naming it.
        json.dumps(tree, allow_nan=False, indent=0)
        raise


def serialize_matrix_document(doc: MatrixDocument) -> str:
    return _write({
        "format_version": FORMAT_VERSION,
        "label": doc.label,
        "n": doc.n,
        "entries": _encode(doc.matrix()),
    })


# ----------------------------------------------------------------- reports
#
# A report document is the JSON tree below, kept as plain dicts and lists.
# Its sections take their keys, in declaration order, from the core
# dataclasses: ToleranceConfig, TestVerdict with its Witness flattened in,
# ConjugationCertificate and OracleVerdict.

_WITNESS_KEYS = tuple(f.name for f in fields(Witness))


def _verdict_entry(tv: TestVerdict) -> dict:
    entry = _encode(tv)
    witness = entry.pop("witness") or dict.fromkeys(_WITNESS_KEYS)
    return {**entry, **witness}


def build_report_document(
    report: ClassificationReport,
    *,
    n: int,
    label: str | None = None,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    seed: int = 0,
    oracle: OracleVerdict | None = None,
) -> dict:
    """The version-1 JSON tree of everything a classification run produced."""
    reason = report.not_applicable.reason if report.not_applicable else None
    return {
        "format_version": FORMAT_VERSION,
        "label": label,
        "n": n,
        "seed": seed,
        "tolerances": _encode(cfg),
        "final": report.final.value,
        "reason": reason,
        "spectrum": _encode(report.spectrum),
        "verdicts": [_verdict_entry(tv) for tv in report.verdicts],
        "certificate": _encode(report.certificate),
        "oracle": _encode(oracle),
    }


def serialize_report_document(doc: dict) -> str:
    return _write(doc)
