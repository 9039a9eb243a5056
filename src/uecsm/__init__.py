"""Decide whether a matrix is unitarily equivalent to a complex symmetric one.

For matrices with distinct eigenvalues the question reduces to geometric
conditions on the eigenvectors of T and T*; when the answer is yes, the
package also constructs the symmetric unitary S with T = S T^t S* and
verifies it.  An independent unitary-orbit descent oracle cross-checks the
criteria without ever computing an eigenvector.

>>> import numpy as np, uecsm
>>> report = uecsm.classify(np.array([[0, 7, 0], [0, 1, -5], [0, 0, 6]]))
>>> report.final.value
'UECSM'
"""

from .conjugation import (
    BetaInconsistencyError,
    BetaMatrix,
    ConjugationCertificate,
    build_beta,
    build_s,
    complete_beta,
    extract_alpha,
    verify_certificate,
)
from .criteria import (
    ClassificationReport,
    FinalVerdict,
    Outcome,
    TestVerdict,
    Witness,
    angle_test,
    classify,
    grammian_test,
    parallelepiped_test,
    strong_angle_test,
)
from .documents import (
    DocumentError,
    MatrixDocument,
    build_report_document,
    parse_matrix_document,
    parse_report_document,
    serialize_matrix_document,
    serialize_report_document,
)
from .fixtures import FIXTURE_GROUPS, Fixture, family_member, find_fixture
from .linalg import (
    DEFAULT_TOLERANCES,
    EigenSolverError,
    LinearAlgebraError,
    NumericalBreakdownError,
    ToleranceConfig,
    as_matrix,
    eigensystem,
    eigenvalues,
    unit_eigenvector,
)
from .oracle import (
    ORACLE_TOL,
    OracleOutcome,
    OracleVerdict,
    brute_force_uecsm,
    cartesian_parts,
    nilpotent3_verdict,
    random_unitary,
    tener_applicable,
)
from .search import SearchHit, SearchResult, candidate_matrix, run_search
from .spectral import (
    NotApplicable,
    SpectralData,
    assert_distinct_spectrum,
    compute_spectral_data,
    gram_pair,
)

__version__ = "0.1.0"

__all__ = [
    "BetaInconsistencyError", "BetaMatrix", "ConjugationCertificate",
    "build_beta", "build_s", "complete_beta", "extract_alpha",
    "verify_certificate",
    "ClassificationReport", "FinalVerdict", "Outcome", "TestVerdict",
    "Witness", "angle_test", "classify", "gram_pair", "grammian_test",
    "parallelepiped_test", "strong_angle_test",
    "DocumentError", "MatrixDocument",
    "build_report_document", "parse_matrix_document", "parse_report_document",
    "serialize_matrix_document", "serialize_report_document",
    "FIXTURE_GROUPS", "Fixture", "family_member", "find_fixture",
    "DEFAULT_TOLERANCES", "EigenSolverError", "LinearAlgebraError",
    "NumericalBreakdownError", "ToleranceConfig",
    "as_matrix", "eigensystem", "eigenvalues", "unit_eigenvector",
    "ORACLE_TOL", "OracleOutcome", "OracleVerdict", "brute_force_uecsm",
    "cartesian_parts", "nilpotent3_verdict",
    "random_unitary", "tener_applicable",
    "SearchHit", "SearchResult", "candidate_matrix", "run_search",
    "NotApplicable", "SpectralData", "assert_distinct_spectrum",
    "compute_spectral_data",
]
