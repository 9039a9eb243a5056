"""
Constructing the symmetric unitary witness
==========================================

When the tests pass, membership comes with an explicit certificate: a
symmetric unitary S with T = S T^t S*.  The construction reads off phase
ratios beta_ij = <u_i,u_j>/<v_j,v_i> from the two eigenvector bases,
factors the rank-one beta as an outer product of a unimodular vector
alpha, and assembles S = sum_i (alpha_i / <u_i,v_i>) u_i u_i^t.

Eigenvector phases are a gauge choice; S only feels it as one global
unimodular factor.  To make the structure visible we pin the phases to
reference vectors, where everything collapses to rational numbers.
"""

import numpy as np

from uecsm import (
    SpectralData,
    build_beta,
    build_s,
    classify,
    extract_alpha,
    family_member,
    verify_certificate,
)
from uecsm.fixtures import CLOSED_FORM_VECTORS

t = family_member(-5)
print("T =")
print(np.real(t).astype(int))

# Unit eigenvectors of T (columns of U) and of T* (columns of V), with
# fixed reference phases instead of the ones the eigensolver returns.
sd = SpectralData.from_bases(
    np.asarray(CLOSED_FORM_VECTORS["lambdas"], dtype=complex),
    np.array(CLOSED_FORM_VECTORS["u"], dtype=complex).T,
    np.array(CLOSED_FORM_VECTORS["v"], dtype=complex).T,
)
print("\neigenvalues:", np.round(sd.lambdas.real, 12))
print("pairings <u_i, v_i>:", np.round(sd.e_diag.real, 12),
      " (exact -6/55, 1/10, 6/11)")

# beta is Hermitian with unimodular entries, and rank one exactly when T
# is in the class.  In this gauge every entry is a sign.
beta = build_beta(sd)
print("\nbeta:")
print(np.round(beta.entries.real).astype(int))
print("smallest divisor used:", f"{beta.min_divisor:.6f}", " (exact 7/11)")

alpha = extract_alpha(beta)
print("alpha:", np.round(alpha.real).astype(int))

s = build_s(sd, alpha)
print("\nS * 55 (entries are multiples of 1/55):")
print(np.round(55 * s.real, 6))

# The certificate re-verifies everything directly against T: symmetry and
# unitarity of S, the intertwining T S = S T^t, and the conjugation action
# on each eigenvector.
cert = verify_certificate(t, s, sd, alpha)
print("\nresiduals:")
print(f"  symmetry    {cert.residual_symmetry:.3e}")
print(f"  unitarity   {cert.residual_unitarity:.3e}")
print(f"  intertwine  {cert.residual_intertwine:.3e}")
print(f"  eigvec      {cert.residual_eigvec:.3e}")
print("valid:", cert.is_valid())

# classify() does all of the above with the phases LAPACK's eig returns;
# its S matches this one up to a single global phase (the one gauge
# freedom left).
report = classify(t)
anchor = np.unravel_index(np.argmax(np.abs(s)), s.shape)
z = np.asarray(report.certificate.s)[anchor] / s[anchor]
print("\nclassify() S = (hand-built S) *", np.round(z, 9))
print("|z| =", f"{abs(z):.12f}")
print("entrywise match:",
      bool(np.allclose(np.asarray(report.certificate.s), z * s, atol=1e-9)))
