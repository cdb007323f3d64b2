"""Second-order correction profiles psi, chi and v2base.

psi solves the linearized radial problem L0(psi z1 z2) = (U'/r) z1 z2 on
the orthogonal complement of the translation kernel, and feeds the
constants c3 and c4; chi solves the radial problem L0 chi = r U'; v2base
solves L0 v = -U.  chi and v2base build the curvature correction V
attached to each peak.  Everything below is checked against independent
oracles: a finite-difference Laplacian in the full z-space and weak-form
integration by parts.
"""

import numpy as np

from multipeak import correction_profiles, solve_ground_state, verify_L0_identities
from multipeak.correction import (
    equation_residual,
    operator_identity_check,
    v2base_identity_residual,
)

gs = solve_ground_state(3, 3.0)
cp = correction_profiles(gs)

print("correction profiles for n=3, p=3")
print(f"  psi(0)            = {cp.psi.values[0]:.10f}")
print(f"  chi(0)            = {cp.chi.values[0]:.10f}")
print(f"  v2base(0)         = {cp.v2base.values[0]:.10f}")
print(f"  discrete residual = {cp.discrete_residual:.3e}   "
      f"(chi, relative: {cp.chi_discrete_residual:.3e})")
print(f"  tail exponent     = {cp.tail_exponent:.4f}   (psi ~ e^-r / r)")

print("\nprofile samples")
for r in (0.0, 1.0, 2.0, 4.0, 8.0):
    print(f"  r={r:4.1f}  psi={cp.psi(r):+.6e}  chi={cp.chi(r):+.6e}  "
          f"v2base={cp.v2base(r):+.6e}")

# the operator identities the profiles must satisfy, as relative residuals
ids = verify_L0_identities(gs)
print("\noperator identities")
print(f"  weak  L0(U' r) = -2 Lap U      -> {ids['e1']:.3e}")
print(f"  strong L0(U) = (2-p) U^(p-1)   -> {ids['e2']:.3e}")
print(f"  weak  L0(v2base) = -U          -> {v2base_identity_residual(gs):.3e}")
print(f"  midpoint psi equation          -> {equation_residual(gs, cp.psi, 'psi'):.3e}")
print(f"  midpoint chi equation          -> {equation_residual(gs, cp.chi, 'chi'):.3e}")

# full-dimension cross-check: FD Laplacian applied to psi(|z|) z1 z2 at
# scattered points, no radial reduction anywhere on that code path
fd = operator_identity_check(gs, cp.psi)
print(f"\nfull-dimension FD defect (tol 1e-3) = {fd:.3e}")
