"""Round-trip and validation tests for the on-disk document formats.

Every complex number is stored as an explicit [re, im] pair of JSON
numbers, which round-trip exactly, so parse(serialize(x)) == x holds with
plain equality for matrices, and a report's JSON text loads back to the
tree that was written.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uecsm.criteria import classify
from uecsm.documents import (
    FORMAT_VERSION,
    DocumentError,
    MatrixDocument,
    build_report_document,
    parse_matrix_document,
    serialize_matrix_document,
    serialize_report_document,
)
from uecsm.fixtures import TABLE3, find_fixture
from uecsm.linalg import ToleranceConfig
from uecsm.oracle import brute_force_uecsm

PINNED_TEXT = ('{"format_version": 1, "label": "pinned", "n": 2, "entries": '
               '[[[1.0, 0.0], [2.5, -1.0]], [[-0.0, 0.0], [0.0, 1e-300]]]}\n')


class TestMatrixDocuments:
    def test_round_trip_exact(self):
        m = np.array([[1, 2 + 3j], [-4j, 5.25]])
        doc = MatrixDocument.from_matrix(m, label="demo")
        again = parse_matrix_document(serialize_matrix_document(doc))
        assert again == doc
        np.testing.assert_array_equal(again.matrix(), m.astype(complex))

    def test_unlabelled_round_trip(self):
        doc = MatrixDocument.from_matrix(np.eye(2))
        again = parse_matrix_document(serialize_matrix_document(doc))
        assert again.label is None
        assert again.n == 2

    def test_serialized_text_pinned(self):
        doc = MatrixDocument.from_matrix(np.array([[1, 2.5 - 1j], [-0.0, 1e-300j]]),
                                         label="pinned")
        assert serialize_matrix_document(doc) == PINNED_TEXT
        assert parse_matrix_document(PINNED_TEXT) == doc

    def test_signed_zeros_round_trip(self):
        m = np.array([[complex(-0.0, -0.0), complex(0.0, -0.0)],
                      [complex(-0.0, 0.0), 1.0]])
        again = parse_matrix_document(
            serialize_matrix_document(MatrixDocument.from_matrix(m))).matrix()
        for part in ("real", "imag"):
            np.testing.assert_array_equal(np.signbit(getattr(again, part)),
                                          np.signbit(getattr(m, part)))

    def test_from_matrix_rejects_non_square(self):
        with pytest.raises(DocumentError):
            MatrixDocument.from_matrix(np.zeros((2, 3)))

    def test_from_matrix_rejects_non_finite(self):
        # The writer would emit Infinity, which no JSON reader accepts.
        with pytest.raises(DocumentError, match="non-finite"):
            MatrixDocument.from_matrix([[np.inf, 1], [np.inf, 1]])

    def test_declared_n_checked(self):
        text = json.dumps({"format_version": 1, "n": 3,
                           "entries": [[[1, 0]]]})
        with pytest.raises(DocumentError):
            parse_matrix_document(text)

    def test_declared_n_must_be_an_int(self):
        # True == 1, so only a type check rejects a boolean n on a 1x1 matrix.
        text = json.dumps({"format_version": 1, "n": True,
                           "entries": [[[1, 0]]]})
        with pytest.raises(DocumentError):
            parse_matrix_document(text)


class TestMatrixParseErrors:
    def test_invalid_json_carries_position(self):
        with pytest.raises(DocumentError) as info:
            parse_matrix_document('{"format_version": 1,\n  "entries": [}')
        assert info.value.line == 2

    def test_non_object_root(self):
        with pytest.raises(DocumentError):
            parse_matrix_document("[1, 2, 3]")

    def test_wrong_version(self):
        text = json.dumps({"format_version": 99, "entries": [[[0, 0]]]})
        with pytest.raises(DocumentError):
            parse_matrix_document(text)

    @pytest.mark.parametrize("version", [True, 1.0], ids=["bool", "float"])
    def test_version_must_be_an_int(self, version):
        text = json.dumps({"format_version": version, "entries": [[[0, 0]]]})
        with pytest.raises(DocumentError):
            parse_matrix_document(text)

    def test_missing_entries(self):
        with pytest.raises(DocumentError):
            parse_matrix_document(json.dumps({"format_version": 1}))

    def test_ragged_rows(self):
        text = json.dumps({"format_version": 1,
                           "entries": [[[1, 0], [0, 0]], [[0, 0]]]})
        with pytest.raises(DocumentError):
            parse_matrix_document(text)

    def test_entry_must_be_number_pair(self):
        for bad in ([1], [1, 2, 3], "1+2i", [True, 0], [1, None],
                    [10 ** 400, 0]):
            text = json.dumps({"format_version": 1, "entries": [[bad]]})
            with pytest.raises(DocumentError):
                parse_matrix_document(text)

    def test_non_finite_rejected(self):
        text = json.dumps({"format_version": 1,
                           "entries": [[[1, 0], [0, 0]],
                                       [[0, 0], [float("inf"), 0]]]})
        with pytest.raises(DocumentError):
            parse_matrix_document(text)

    def test_overlong_integer_literal(self):
        # Past Python's digit limit for int(str), json raises a ValueError.
        text = '{"format_version": 1, "entries": [[[' + "1" * 5001 + ', 0]]]}'
        with pytest.raises(DocumentError):
            parse_matrix_document(text)

    def test_bad_label_type(self):
        text = json.dumps({"format_version": 1, "label": 7,
                           "entries": [[[1, 0]]]})
        with pytest.raises(DocumentError):
            parse_matrix_document(text)


ENTRY_MESSAGE = "entry ({}, {}): expected an [re, im] number pair, got {}"

# (entries as JSON text, the exact DocumentError message): the first bad row
# or entry in row-major order is named, whichever check finds it.
REJECTIONS = {
    "bool-in-pair": ("[[[true, 0]]]", ENTRY_MESSAGE.format(1, 1, "[True, 0]")),
    "numeric-string-in-pair": ('[[["1", 0]]]', ENTRY_MESSAGE.format(1, 1, "['1', 0]")),
    "null-in-pair": ("[[[1, null]]]", ENTRY_MESSAGE.format(1, 1, "[1, None]")),
    "nested-list-entry": ("[[[[1, 0], [0, 0]]]]",
                          ENTRY_MESSAGE.format(1, 1, "[[1, 0], [0, 0]]")),
    "one-element-pair": ("[[[1]]]", ENTRY_MESSAGE.format(1, 1, "[1]")),
    "three-element-pair": ("[[[1, 2, 3]]]", ENTRY_MESSAGE.format(1, 1, "[1, 2, 3]")),
    "bare-number-entry": ("[[[1, 0], 5], [[0, 0], [1, 0]]]",
                          ENTRY_MESSAGE.format(1, 2, "5")),
    "dict-row": ('[{"a": [1, 0]}]', "row 1 must have 1 entries (square matrix)"),
    "string-row": ('["ab", [[1, 0], [0, 0]]]', "row 1 must have 2 entries (square matrix)"),
    "ragged-row": ("[[[1, 0], [0, 0]], [[0, 0]]]",
                   "row 2 must have 2 entries (square matrix)"),
    "empty-row": ("[[]]", "row 1 must have 1 entries (square matrix)"),
    "integer-beyond-float": ("[[[" + str(10 ** 400) + ", 0]]]",
                             ENTRY_MESSAGE.format(1, 1, f"[{10 ** 400}, 0]")),
    "literal-1e400": ("[[[1e400, 0]]]", ENTRY_MESSAGE.format(1, 1, "[inf, 0]")),
    "literal-nan": ("[[[NaN, 0]]]", ENTRY_MESSAGE.format(1, 1, "[nan, 0]")),
    "literal-infinity": ("[[[0, Infinity]]]", ENTRY_MESSAGE.format(1, 1, "[0, inf]")),
    "literal-minus-infinity": ("[[[-Infinity, 0]]]",
                               ENTRY_MESSAGE.format(1, 1, "[-inf, 0]")),
    "first-of-two-bad-entries": ("[[[1, 0], [0, 0]], [[true, 0], [1, null]]]",
                                 ENTRY_MESSAGE.format(2, 1, "[True, 0]")),
    "bad-entry-before-short-row": (
        "[[[1, 0], [0, 0], [1]], [[0, 0], [1, 0], [0, 0]], [[0, 0]]]",
        ENTRY_MESSAGE.format(1, 3, "[1]")),
}


@pytest.mark.parametrize("entries, message", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_entry_rejection_message(entries, message):
    with pytest.raises(DocumentError) as info:
        parse_matrix_document('{"format_version": 1, "entries": ' + entries + "}")
    assert str(info.value) == message


def report_for(label, oracle=False, seed=0):
    m = find_fixture(label).matrix()
    report = classify(m, seed=seed)
    verdict = brute_force_uecsm(m, restarts=4, seed=seed) if oracle else None
    return build_report_document(report, n=m.shape[0], label=label,
                                 cfg=ToleranceConfig(), seed=seed,
                                 oracle=verdict)


@pytest.fixture(scope="module")
def full_payload():
    """A UECSM report with spectrum, certificate and oracle, as parsed JSON."""
    return json.loads(serialize_report_document(report_for("closed-form-s", oracle=True)))


# (path into a report, replacement value, the refusal's message): a report
# the writer cannot write, or whose tolerances configure no run when read
# back, is refused.
MALFORMED = {
    "negative-zero-tol": (("tolerances", "zero_tol"), -1.0,
                          "^zero_tol must be positive and finite, got -1.0$"),
    "residual-nan": (("certificate", "residual_symmetry"), float("nan"),
                     "^Out of range float values are not JSON compliant: nan$"),
    "discrepancy-infinity": (("verdicts", 0, "discrepancy"), float("inf"),
                             "^Out of range float values are not JSON compliant: inf$"),
}


class TestReportDocuments:
    def test_round_trip_with_certificate_and_oracle(self):
        doc = report_for("closed-form-s", oracle=True)
        again = json.loads(serialize_report_document(doc))
        assert again == doc
        assert again["certificate"] is not None
        assert again["oracle"] is not None

    def test_round_trip_negative_verdict(self):
        doc = report_for("necessary-tests-fail")
        again = json.loads(serialize_report_document(doc))
        assert again == doc
        assert again["certificate"] is None
        assert again["final"] == "NotUECSM"

    def test_round_trip_not_applicable(self):
        doc = report_for(TABLE3[0].label)
        again = json.loads(serialize_report_document(doc))
        assert again == doc
        assert again["spectrum"] is None
        assert again["reason"]

    def test_round_trip_property_over_fixtures(self):
        for label in ("family-s2", "family-s5", "strong-angle-counterexample",
                      "table2-row1", "table1-row3"):
            doc = report_for(label, seed=3)
            assert json.loads(serialize_report_document(doc)) == doc

    def test_serialized_form_is_json_with_version(self):
        payload = json.loads(serialize_report_document(report_for("family-s5")))
        assert payload["format_version"] == FORMAT_VERSION
        assert payload["final"] == "UECSM"
        assert isinstance(payload["certificate"]["s"], list)

    def test_tolerances_preserved(self):
        m = find_fixture("closed-form-s").matrix()
        cfg = ToleranceConfig(eig_gap_tol=1e-6, zero_tol=1e-8, match_tol=1e-5)
        doc = build_report_document(classify(m, cfg), n=3, cfg=cfg)
        again = json.loads(serialize_report_document(doc))
        assert ToleranceConfig(**again["tolerances"]) == cfg

    @pytest.mark.parametrize("path, value, message", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_report_rejected(self, full_payload, path, value, message):
        payload = copy.deepcopy(full_payload)
        *parents, key = path
        section = payload
        for step in parents:
            section = section[step]
        section[key] = value
        with pytest.raises(ValueError, match=message):
            ToleranceConfig(**json.loads(serialize_report_document(payload))["tolerances"])

    def test_layout_pinned(self, full_payload):
        payload = full_payload
        assert list(payload) == [
            "format_version", "label", "n", "seed", "tolerances", "final",
            "reason", "spectrum", "verdicts", "certificate", "oracle"]
        assert list(payload["tolerances"]) == ["eig_gap_tol", "zero_tol", "match_tol"]
        verdict_keys = ["kind", "outcome", "indices", "left", "right", "discrepancy"]
        assert [list(v) for v in payload["verdicts"]] == [verdict_keys] * 4
        assert list(payload["certificate"]) == [
            "s", "alphas", "residual_symmetry", "residual_unitarity",
            "residual_intertwine", "residual_eigvec", "beta_min_divisor"]
        assert list(payload["oracle"]) == ["outcome", "best_residual", "restarts_used"]
        pairs = [*payload["spectrum"], *payload["certificate"]["alphas"],
                 *(z for row in payload["certificate"]["s"] for z in row),
                 *(v[side] for v in payload["verdicts"] for side in ("left", "right"))]
        assert all(len(z) == 2 and all(type(x) is float for x in z) for z in pairs)
        not_applicable = json.loads(serialize_report_document(report_for(TABLE3[0].label)))
        assert [list(v) for v in not_applicable["verdicts"]] == [verdict_keys] * 4
        assert all(v[key] is None for v in not_applicable["verdicts"]
                   for key in verdict_keys[2:])

    def test_writer_refuses_non_finite_numbers(self):
        doc = report_for("family-s5")
        doc["certificate"]["residual_symmetry"] = float("inf")
        with pytest.raises(ValueError):
            serialize_report_document(doc)

    def test_writer_refuses_non_finite_pair(self):
        doc = report_for("family-s5")
        doc["certificate"]["s"][0][1] = [0.5, float("nan")]
        with pytest.raises(ValueError, match="^Out of range float values are not "
                                             "JSON compliant: nan$"):
            serialize_report_document(doc)

    def test_writer_refuses_unsupported_objects(self):
        doc = report_for("family-s5")
        doc["oracle"] = object()
        with pytest.raises(TypeError, match="not JSON serializable"):
            serialize_report_document(doc)

    def test_writer_names_a_non_finite_field(self):
        doc = report_for("family-s5")
        doc["seed"] = float("inf")
        with pytest.raises(ValueError, match="^Out of range float values are not "
                                             "JSON compliant: inf$"):
            serialize_report_document(doc)

    def test_writer_refuses_a_cycle(self):
        doc = report_for("family-s5")
        doc["oracle"] = {"loop": doc}
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            serialize_report_document(doc)


class TestDocumentError:
    def test_position_attributes(self):
        err = DocumentError("broken", line=3, column=9)
        assert err.line == 3
        assert err.column == 9
        assert "line 3" in str(err)

    def test_is_a_value_error(self):
        assert issubclass(DocumentError, ValueError)


# JSON trees for the writer: str keys; ints past 2**64; finite floats with
# the edge values; non-ASCII and control characters; tuples, empty lists and
# dicts; and lists of [re, im] pairs, as the documents hold them.
FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308]))
INTS = st.integers() | st.integers(min_value=2 ** 64, max_value=2 ** 200).map(
    lambda i: i if i % 2 else -i)
TEXT = st.text(max_size=6) | st.sampled_from(
    ["", "\x00\x1f\x7f", "caf\u00e9 \u65e5\u672c", "\"quoted\" \\ \n\t", "\U0001f600"])
PAIRS = st.lists(st.lists(FLOATS, min_size=2, max_size=2), max_size=5)
LEAVES = st.none() | st.booleans() | INTS | FLOATS | TEXT | PAIRS
TREES = st.recursive(
    LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=25)
WRITER = settings(derandomize=True, deadline=None, max_examples=150)


@WRITER
@given(tree=TREES)
def test_writer_matches_json_dumps(tree):
    assert serialize_report_document(tree) == json.dumps(tree, allow_nan=False) + "\n"


MATRICES = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(FLOATS, min_size=2 * n * n, max_size=2 * n * n).map(
        lambda parts: np.array(parts).view(np.complex128).reshape(n, n)))


@WRITER
@given(m=MATRICES, label=st.none() | TEXT)
def test_matrix_writer_matches_json_dumps(m, label):
    doc = MatrixDocument.from_matrix(m, label=label)
    text = serialize_matrix_document(doc)
    assert text == json.dumps({"format_version": 1, "label": label, "n": len(m),
                               "entries": np.stack((m.real, m.imag), -1).tolist()},
                              allow_nan=False) + "\n"
    assert parse_matrix_document(text) == doc
