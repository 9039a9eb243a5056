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

import importlib

__version__ = "0.1.0"

# Each public name once, under the module that defines it.  ``import uecsm``
# loads none of them (nor numpy): a name's module is imported on first use.
_EXPORTS = {
    "conjugation": ("BetaInconsistencyError", "BetaMatrix", "ConjugationCertificate",
                    "build_beta", "build_s", "complete_beta", "extract_alpha",
                    "verify_certificate"),
    "criteria": ("ClassificationReport", "FinalVerdict", "Outcome", "TestVerdict",
                 "Witness", "angle_test", "classify", "grammian_test",
                 "parallelepiped_test", "strong_angle_test"),
    "documents": ("DocumentError", "MatrixDocument", "build_report_document",
                  "parse_matrix_document", "serialize_matrix_document",
                  "serialize_report_document"),
    "fixtures": ("FIXTURE_GROUPS", "Fixture", "family_member", "find_fixture"),
    "linalg": ("DEFAULT_TOLERANCES", "EigenSolverError", "LinearAlgebraError",
               "NumericalBreakdownError", "ToleranceConfig", "as_matrix",
               "eigensystem", "eigenvalues", "unit_eigenvector"),
    "oracle": ("ORACLE_TOL", "OracleOutcome", "OracleVerdict", "brute_force_uecsm",
               "cartesian_parts", "nilpotent3_verdict", "random_unitary",
               "tener_applicable"),
    "search": ("SearchHit", "SearchResult", "candidate_matrix", "run_search"),
    "spectral": ("NotApplicable", "SpectralData", "assert_distinct_spectrum",
                 "compute_spectral_data", "gram_pair"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
