"""Round-trip and validation tests for the on-disk document formats.

Every complex number is stored as an explicit [re, im] pair of JSON
numbers, which round-trip exactly, so parse(serialize(x)) == x holds with
plain equality for matrices and full reports alike.
"""

import copy
import json

import numpy as np
import pytest

from uecsm.criteria import classify
from uecsm.documents import (
    FORMAT_VERSION,
    DocumentError,
    MatrixDocument,
    build_report_document,
    parse_matrix_document,
    parse_report_document,
    serialize_matrix_document,
    serialize_report_document,
)
from uecsm.fixtures import TABLE3, find_fixture
from uecsm.linalg import ToleranceConfig
from uecsm.oracle import brute_force_uecsm

PINNED_TEXT = """{
  "format_version": 1,
  "label": "pinned",
  "n": 2,
  "entries": [
    [
      [
        1.0,
        0.0
      ],
      [
        2.5,
        -1.0
      ]
    ],
    [
      [
        -0.0,
        0.0
      ],
      [
        0.0,
        1e-300
      ]
    ]
  ]
}
"""


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

    def test_bad_label_type(self):
        text = json.dumps({"format_version": 1, "label": 7,
                           "entries": [[[1, 0]]]})
        with pytest.raises(DocumentError):
            parse_matrix_document(text)


DELETE = object()

# (path into the report payload, replacement value or DELETE); every one is
# a document the parser must refuse.
MUTATIONS = {
    "format-version-bool": (("format_version",), True),
    **{f"missing-{key}": ((key,), DELETE)
       for key in ("label", "n", "seed", "tolerances", "final", "reason",
                   "spectrum", "verdicts", "certificate", "oracle")},
    "unknown-tolerance": (("tolerances", "zero_tolerance"), 1e-9),
    "missing-verdict-key": (("verdicts", 0, "discrepancy"), DELETE),
    "missing-certificate-key": (("certificate", "beta_min_divisor"), DELETE),
    "missing-oracle-key": (("oracle", "restarts_used"), DELETE),
    "bad-spectrum-pair": (("spectrum", 0), [1, 2, 3]),
    "bad-left-pair": (("verdicts", 0, "left"), "1+2i"),
    "bad-right-pair": (("verdicts", 3, "right"), [True, 0]),
    "bad-s-pair": (("certificate", "s", 1, 2), [1]),
    "bad-alphas-pair": (("certificate", "alphas", 0), [1, None]),
    "indices-not-iterable": (("verdicts", 0, "indices"), 5),
    "negative-zero-tol": (("tolerances", "zero_tol"), -1.0),
    "final-not-a-string": (("final",), 5),
    "final-unknown": (("final",), "Maybe"),
    "n-string": (("n",), "x"),
    "n-zero": (("n",), 0),
    "n-bool": (("n",), True),
    "seed-string": (("seed",), "s"),
    "seed-bool": (("seed",), False),
    "label-number": (("label",), 3),
    "reason-number": (("reason",), 7),
    "outcome-null": (("verdicts", 0, "outcome"), None),
    "kind-unknown": (("verdicts", 1, "kind"), "Volume"),
    "indices-strings": (("verdicts", 0, "indices"), ["1", "2"]),
    "left-null-in-pass": (("verdicts", 0, "left"), None),
    "discrepancy-bool": (("verdicts", 2, "discrepancy"), True),
    "discrepancy-null-in-pass": (("verdicts", 3, "discrepancy"), None),
    "match-tol-bool": (("tolerances", "match_tol"), True),
    "residual-string": (("certificate", "residual_unitarity"), "1e-9"),
    "residual-null": (("certificate", "residual_symmetry"), None),
    "beta-min-divisor-string": (("certificate", "beta_min_divisor"), "0.1"),
    "oracle-outcome-unknown": (("oracle", "outcome"), "Perhaps"),
    "best-residual-bool": (("oracle", "best_residual"), False),
    "restarts-used-float": (("oracle", "restarts_used"), 1.5),
    "verdicts-not-a-list": (("verdicts",), ""),
    "s-not-a-list": (("certificate", "s"), {}),
    "residual-beyond-float": (("certificate", "residual_symmetry"), 10 ** 400),
    "spectrum-pair-beyond-float": (("spectrum", 0), [10 ** 400, 0]),
    "tolerance-beyond-float": (("tolerances", "match_tol"), 10 ** 400),
}


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


class TestReportDocuments:
    def test_round_trip_with_certificate_and_oracle(self):
        doc = report_for("closed-form-s", oracle=True)
        again = parse_report_document(serialize_report_document(doc))
        assert again == doc
        assert again["certificate"] is not None
        assert again["oracle"] is not None

    def test_round_trip_negative_verdict(self):
        doc = report_for("necessary-tests-fail")
        again = parse_report_document(serialize_report_document(doc))
        assert again == doc
        assert again["certificate"] is None
        assert again["final"] == "NotUECSM"

    def test_round_trip_not_applicable(self):
        doc = report_for(TABLE3[0].label)
        again = parse_report_document(serialize_report_document(doc))
        assert again == doc
        assert again["spectrum"] is None
        assert again["reason"]

    def test_round_trip_property_over_fixtures(self):
        for label in ("family-s2", "family-s5", "strong-angle-counterexample",
                      "table2-row1", "table1-row3"):
            doc = report_for(label, seed=3)
            assert parse_report_document(serialize_report_document(doc)) == doc

    def test_serialized_form_is_json_with_version(self):
        payload = json.loads(serialize_report_document(report_for("family-s5")))
        assert payload["format_version"] == FORMAT_VERSION
        assert payload["final"] == "UECSM"
        assert isinstance(payload["certificate"]["s"], list)

    def test_tolerances_preserved(self):
        m = find_fixture("closed-form-s").matrix()
        cfg = ToleranceConfig(eig_gap_tol=1e-6, zero_tol=1e-8, match_tol=1e-5)
        doc = build_report_document(classify(m, cfg), n=3, cfg=cfg)
        again = parse_report_document(serialize_report_document(doc))
        assert ToleranceConfig(**again["tolerances"]) == cfg

    @pytest.mark.parametrize("path, value", MUTATIONS.values(), ids=MUTATIONS.keys())
    def test_malformed_report_rejected(self, full_payload, path, value):
        payload = copy.deepcopy(full_payload)
        *parents, key = path
        section = payload
        for step in parents:
            section = section[step]
        if value is DELETE:
            del section[key]
        else:
            section[key] = value
        with pytest.raises(DocumentError):
            parse_report_document(json.dumps(payload))

    def test_integer_beyond_float_is_refused_by_the_schema(self, full_payload):
        payload = copy.deepcopy(full_payload)
        payload["tolerances"]["match_tol"] = 10 ** 400
        with pytest.raises(DocumentError, match="tolerances match_tol: unexpected value"):
            parse_report_document(json.dumps(payload))

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

    def test_wrong_version_rejected(self):
        payload = json.loads(serialize_report_document(report_for("family-s5")))
        payload["format_version"] = 2
        with pytest.raises(DocumentError):
            parse_report_document(json.dumps(payload))


class TestDocumentError:
    def test_position_attributes(self):
        err = DocumentError("broken", line=3, column=9)
        assert err.line == 3
        assert err.column == 9
        assert "line 3" in str(err)

    def test_is_a_value_error(self):
        assert issubclass(DocumentError, ValueError)
