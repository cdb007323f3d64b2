"""Dimensional constants for every product pair (n, m) with n, m >= 3 and
n + m <= 9.

beta < 0 on all rows is the quantitative headline: it says the second
order energy coefficient rewards concentration where the scalar
curvature is large, for every product dimension in the table.  The
interaction constant gamma is printed for one direction: U is radial, so
gamma's reduction to a radial integral reads the direction only to check
its length.
"""

import numpy as np

from multipeak import beta_table, gamma, solve_ground_state, table_csv

rows = beta_table(max_N=9)
print(table_csv(rows))

print("beta signs:", ["-" if r.beta < 0 else "+" for r in rows])

# second route to beta through the z1^4 moment; agreement is the
# cross-check that the moment reduction machinery is consistent
worst = 0.0
for r in rows:
    indep = r.c_bold * r.raw["I2"] - 2.0 * r.c1
    worst = max(worst, abs(indep - r.beta) / abs(r.beta))
print(f"max relative spread between beta routes = {worst:.3e}")

gs = solve_ground_state(3, 3.0)
print(f"\ngamma = {gamma(gs, np.array([0.0, 0.0, 1.0])).value:.10f}")
