"""File formats: matrix documents and classification report documents.

Both formats are JSON with every complex number spelled as an explicit
``[re, im]`` pair, so integer and decimal literals parse exactly and a
serialized document parses back to an equal value.  Every real is finite:
NaN and Infinity are neither read nor written.  ``format_version`` is
checked on input; this module reads and writes version 1.

A matrix document's entries are validated in one array pass: a sweep over
the types of the numbers, one float conversion and one finiteness check.
Only a document that fails it is walked entry by entry, to name the first
bad row or entry.  The writer is byte-identical to
``json.dumps(tree, indent=2, allow_nan=False)`` and formats each list of
``[re, im]`` float pairs in one step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .criteria import (
    TEST_KINDS,
    ClassificationReport,
    FinalVerdict,
    Outcome,
    TestVerdict,
    Witness,
)
from .linalg import DEFAULT_TOLERANCES, ToleranceConfig, as_matrix
from .oracle import OracleOutcome, OracleVerdict

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


_FLOAT_LIMIT = 2 ** 1024 - 2 ** 970    # the least integer that rounds past the float range


def _is_real(value) -> bool:
    """A finite JSON number: no bool, NaN, Infinity or integer past the float range."""
    if isinstance(value, float):
        return math.isfinite(value)
    return _is_int(value) and abs(value) < _FLOAT_LIMIT


def _is_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_is_real, value))


def _encode(value):
    """JSON tree of ``value``: complex scalars and arrays become [re, im]
    pairs, tuples become lists, dataclasses become objects keyed by field in
    declaration order, and enums become their value."""
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
    if parts is None:
        for i, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != n:
                raise DocumentError(f"row {i + 1} must have {n} entries (square matrix)")
            for j, v in enumerate(row):
                if not _is_pair(v):
                    raise DocumentError(f"entry ({i + 1}, {j + 1}): expected an "
                                        f"[re, im] number pair, got {v!r}")
        parts = np.array(raw, dtype=np.float64)
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


class _Defer(Exception):
    """A value the fast writer leaves to ``json.dumps``."""


def _write(tree) -> str:
    """``json.dumps(tree, indent=2, allow_nan=False) + "\\n"``, byte for byte.

    ``json.dumps`` with an indent runs CPython's pure-Python encoder.  This
    writer keeps its rules (str, None, bool, int, float, list or tuple, dict,
    each tested in that order, with int.__repr__ and float.__repr__) and
    leaves to it the trees it would refuse or write otherwise: non-finite
    floats, non-str keys, unsupported objects, and cycles.
    """
    try:
        return _dump(tree, "\n") + "\n"
    except (_Defer, RecursionError):
        return json.dumps(tree, indent=2, allow_nan=False) + "\n"


def _dump(value, nl: str) -> str:
    """``value`` as JSON, with ``nl`` the newline and indent of its own line."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise _Defer
        return float.__repr__(value)
    inner = nl + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = _pair_list_body(value, inner)
        if body is None:
            body = ("," + inner).join([_dump(v, inner) for v in value])
        return "[" + inner + body + nl + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, v in value.items():
            if not isinstance(key, str):
                raise _Defer
            items.append(encode_basestring_ascii(key) + ": " + _dump(v, inner))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise _Defer


def _pair_list_body(items, inner: str) -> str | None:
    """The items of a list of [float, float] pairs, written in one
    %-formatting step, or None if ``items`` is not such a list."""
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return None
    flat = list(chain.from_iterable(items))
    if set(map(type, flat)) != {float}:
        return None
    if not all(map(math.isfinite, flat)):
        raise _Defer
    deeper = inner + "  "
    pair = "[" + deeper + "%s," + deeper + "%s" + inner + "]"
    return ("," + inner).join([pair] * len(items)) % tuple(map(float.__repr__, flat))


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


# The parser checks a report against the schema below: each section is an
# object whose keys map to checks that return False or raise DocumentError.

def _list_of(check):
    return lambda value: isinstance(value, list) and all(map(check, value))


def _optional(check):
    return lambda value: value is None or check(value)


def _one_of(values):
    values = tuple(values)    # str enums compare equal to their values
    return lambda value: isinstance(value, str) and value in values


def _section(where: str, checks: dict):
    def check(value) -> bool:
        if not isinstance(value, dict):
            raise DocumentError(f"{where} must be an object, got {value!r}")
        for key, ok in checks.items():
            if key not in value:
                raise DocumentError(f"{where}: missing field {key!r}")
            if not ok(value[key]):
                raise DocumentError(f"{where} {key}: unexpected value {value[key]!r}")
        return True
    return check


_WITNESS_CHECKS = {"indices": _list_of(_is_int), "left": _is_pair,
                   "right": _is_pair, "discrepancy": _is_real}


def _verdict(value) -> bool:
    # The writer leaves the witness fields of a NotApplicable verdict null.
    na = isinstance(value, dict) and value.get("outcome") == Outcome.NOT_APPLICABLE
    return _section("verdict", {
        "kind": _one_of(TEST_KINDS),
        "outcome": _one_of(Outcome),
        **{key: _optional(ok) if na else ok for key, ok in _WITNESS_CHECKS.items()},
    })(value)


_report = _section("report", {
    "label": _optional(lambda value: isinstance(value, str)),
    "n": lambda value: _is_int(value) and value > 0,
    "seed": _is_int,
    "tolerances": _section("tolerances", {
        f.name: _is_real for f in fields(ToleranceConfig)}),
    "final": _one_of(FinalVerdict),
    "reason": _optional(lambda value: isinstance(value, str)),
    "spectrum": _optional(_list_of(_is_pair)),
    "verdicts": _list_of(_verdict),
    "certificate": _optional(_section("certificate", {
        "s": _list_of(_list_of(_is_pair)),
        "alphas": _list_of(_is_pair),
        **dict.fromkeys(("residual_symmetry", "residual_unitarity",
                         "residual_intertwine", "residual_eigvec"), _is_real),
        "beta_min_divisor": _optional(_is_real),
    })),
    "oracle": _optional(_section("oracle", {
        "outcome": _one_of(OracleOutcome),
        "best_residual": _is_real,
        "restarts_used": _is_int,
    })),
})


def parse_report_document(text: str) -> dict:
    """Validate a report document against the schema above, tolerances
    against ToleranceConfig, and return its JSON tree.  Null is accepted
    only where the writer emits it.  ``parse(serialize(doc)) == doc``.
    """
    data = _load_json(text)
    _check_version(data)
    _report(data)
    try:
        ToleranceConfig(**data["tolerances"])
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"tolerances: {exc}") from exc
    return data
