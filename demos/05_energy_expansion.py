"""Concentration energy expansion on the unit 3-sphere.

One peak: J(Y_eps) = alpha + eps^2 (beta/2) s + eps^4 (fourth order) + ...
The eps^2 coefficient matches the closed form to a fraction of a percent.
For the eps^4 coefficient two references are shown: the value assembled
from the constants c1..c9 through phi, and a direct quadrature of the
expansion integrals of the corrected profile, J4(U) + (1/2) <S, V>.  The
measured fit follows the direct quadrature once the cutoff ramp is out of
reach of the ladder (cutoff 2.5; at 1.2 the ramp exp(-0.6/eps) enters
the fit at eps = 0.1 and 0.085); the assembled phi disagrees with both.

The correction V = -(2/3) chi + c s v2base solves L0 V = -S for the whole
second-order residual S of the plain bump, so the corrected residual
decays faster than eps^2: its local log-log slopes fall towards 4 as the
cutoff term dies out.

Two peaks: the cross energy tracks -gamma U(d/eps) once the peaks are
separated enough to be admissible.
"""

import numpy as np

from multipeak import (
    PeakConfig,
    RoundSphere,
    admissible,
    build_W,
    build_Y,
    compute_constants,
    correction_profiles,
    energy_J,
    energy_coefficient_fit,
    gamma,
    one_peak_ladder,
    phi,
    residual_norm,
    residual_slopes,
    solve_ground_state,
)
from multipeak.energy import SLOPE_LADDER
from multipeak.radial import Quadrature, surface_area

gs = solve_ground_state(3, 3.0)
cp = correction_profiles(gs)
dc = compute_constants(gs, cp, 3)
model = RoundSphere(3, 1.0)
center = model.point(0.6)
s = model.curvature_at().s

# ---- one peak: coefficient ladder fit -------------------------------
fit = energy_coefficient_fit(one_peak_ladder(model, gs, cp, dc, center), dc.alpha)
print("single peak on the unit 3-sphere")
print(f"  fitted eps^2 coefficient = {fit['eps2_coeff']:.6f}")
print(f"  closed form (beta/2) s   = {0.5 * dc.beta * s:.6f}")
print(f"  fitted eps^4 coefficient = {fit['eps4_coeff']:.6f}")
print(f"  assembled phi            = {phi(model.curvature_at(), dc):.6f}")

far = energy_coefficient_fit(one_peak_ladder(model, gs, cp, dc, center, cutoff_r=2.5),
                             dc.alpha)
print(f"  fitted at cutoff 2.5     = {far['eps4_coeff']:.6f}")

# direct quadrature of the same order: plain-bump part plus the
# correction coupling <S, V> + (1/2) <L0 V, V> = (1/2) <S, V>
quad = Quadrature(gs.grid)
r = quad.points
omega = surface_area(3)
I = lambda f: omega * quad.integrate(f * r ** 2)
U, dU, _ = gs.profile.evaluate(gs.grid.locate(r))
chi_v, dchi = cp.chi(r), cp.chi.deriv1(r)
v2b, dv2b = cp.v2base(r), cp.v2base.deriv1(r)
cbs = dc.c_bold * s
F0 = 0.5 * dU ** 2 + 0.5 * U ** 2 - U ** 3 / 3.0
phi_W = I((2.0 / 45.0) * r ** 4 * F0 - (cbs / 6.0) * r ** 2 * U ** 2)
V = -(2.0 / 3.0) * chi_v + cbs * v2b
dV = -(2.0 / 3.0) * dchi + cbs * dv2b
S = (2.0 / 3.0) * r * dU + cbs * U
F4 = I(S * V) + 0.5 * I(dV ** 2 + V ** 2 - 2.0 * U * V ** 2)
print(f"  direct quadrature        = {phi_W + F4:.6f}"
      f"   (plain bump {phi_W:.4f} + correction {F4:.4f})")

# ---- residual scaling ------------------------------------------------
sl = residual_slopes(one_peak_ladder(model, gs, cp, dc, center, eps_ladder=SLOPE_LADDER))
print("\nresidual scaling (dual norm of the equation defect)")
print(f"  plain bump  W: slope {sl['W_slope']:.4f}  r2 {sl['W_r2']:.6f}")
print(f"  corrected   Y: slope {sl['Y_slope']:.4f}  r2 {sl['Y_r2']:.6f}")

# the pointwise equation L0 V + S = 0, and the local slopes of Y
d2V = -(2.0 / 3.0) * cp.chi.deriv2(r) + cbs * cp.v2base.deriv2(r)
L0V = -d2V - 2.0 / r * dV + V - 2.0 * U * V
print(f"  max |L0 V + S| on r < 20 = {np.abs(L0V + S)[r < 20.0].max():.2e}")
eps_l, ys = sl["eps_ladder"], sl["Y_values"]
local = [np.log(ys[i] / ys[i + 1]) / np.log(eps_l[i] / eps_l[i + 1])
         for i in range(len(ys) - 1)]
print(f"  local Y slopes           = {[f'{v:.2f}' for v in local]}")

# ---- two peaks -------------------------------------------------------
print("\ntwo peaks, eps = 0.05")
eps = 0.05
gam = gamma(gs, np.eye(3)[0]).value
a = model.point(0.8)
for mult in (10.0, 12.0, 14.0):
    b = model.point(0.8 + mult * eps)
    cfg = PeakConfig(epsilon=eps, centers=np.stack([a, b]), cutoff_r=1.2)
    ok, margin = admissible(model, cfg, gs)
    J2 = energy_J(model, build_W(model, cfg, gs))
    J1a = energy_J(model, build_W(model, PeakConfig(eps, a[None], 1.2), gs))
    J1b = energy_J(model, build_W(model, PeakConfig(eps, b[None], 1.2), gs))
    cross = J2 - J1a - J1b
    inter = -gam * float(gs.profile(model.distance(a, b) / eps))
    print(f"  separation {mult:4.1f} eps: admissible={str(ok):5s} "
          f"margin={margin:+.2e}  cross={cross:+.3e} "
          f"-gamma U(d/eps)={inter:+.3e}  ratio={cross / inter:.3f}")

# flat space control: no curvature, so J collapses to alpha exactly
from multipeak import FlatSpace

flat = FlatSpace(3)
cfg = PeakConfig(epsilon=0.05, centers=[np.zeros(3)], cutoff_r=np.inf)
W = build_W(flat, cfg, gs)
print(f"\nflat control: |J - alpha| = "
      f"{abs(energy_J(flat, W) - dc.alpha):.2e}, "
      f"residual norm = {residual_norm(flat, W):.2e}")
