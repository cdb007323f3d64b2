"""Solve the radial ground state -U'' - (n-1)/r U' + U = U^(p-1) and check
its exact identities.

The solver brackets the critical shooting amplitude coarsely, then matches
a forward integration from a series start against a backward integration
seeded by the exponential tail expansion, so the stored profile satisfies
the equation to near machine precision between grid nodes.  Two shots just
below and above the matched amplitude certify it: the bracket width printed
below is the distance between them.
"""

import numpy as np

from multipeak import identity_report, solve_ground_state
from multipeak.groundstate import GroundState

n, p = 3, 3.0
gs = solve_ground_state(n, p)

print(f"ground state for n={n}, p={p}")
print(f"  central value      u0      = {gs.u0:.12f}")
print(f"  tail amplitude     c       = {gs.decay_c:.12f}")
print(f"  bracket width              = {gs.bracket_width:.3e}")
print(f"  certified                  = {gs.certified}")

# the three classical integral identities, all relative defects
rep = identity_report(gs)
print("\nintegral identities (relative defects)")
print(f"  I1 + I2 = Ip              -> {rep['e_energy']:.3e}")
print(f"  Pohozaev                  -> {rep['e_pohozaev']:.3e}")
print(f"  alpha = (1/2 - 1/p) Ip    -> {rep['e_alpha']:.3e}")
print(f"  alpha = {rep['alpha']:.12f}")

# pointwise equation defect measured between the grid nodes
print(f"\nODE defect at panel midpoints = {rep['ode_residual']:.3e}")

# U ~ c r^(-(n-1)/2) e^(-r): the fitted tail, which the profile uses past
# its grid, should match the profile inside it
print("\ntail behavior")
for r in (8.0, 12.0, 16.0):
    model = gs.profile.tail.value(r)
    print(f"  r={r:5.1f}  U={gs.profile(r):.6e}  tail model {model:.6e}")

# serialization round trip preserves evaluations bit for bit
clone = GroundState.from_dict(gs.to_dict())
rs = np.linspace(0.0, 20.0, 7)
print(f"\nround trip max |U - U'| on samples = "
      f"{np.abs(clone.profile(rs) - gs.profile(rs)).max():.1e}")
