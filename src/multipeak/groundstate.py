"""Radial ground state of  -Lap(U) + U = U^(p-1)  on R^n.

The unique positive decreasing solution is found by a two-stage process:

1. shooting from the origin with bisection on the central value u0, using
   the series start U(r) = a + (a - a^(p-1)) r^2 / (2n) + O(r^4) and the
   classification "crosses zero" (a too large) versus "turns back upward"
   (a too small);
2. matched two-sided integration: a forward pass from the series start and
   a backward pass seeded by the asymptotic far-field series at r_max meet
   at a matching radius inside the stable window of both, and a Newton
   iteration on (amplitude, tail constant) drives the value and slope
   mismatch to the integrator noise floor.  Backward integration is stable
   for the decaying solution, so this extends the profile to where
   U < 1e-13 * u0 without the exponential error blowup of pure shooting,
   and the interpolant satisfies the ODE to ~1e-11 pointwise between nodes.

The far field obeys U(r) ~ c r^(-(n-1)/2) e^(-r); the constant c is fitted
twice (from U and from U') with 1/r intercept extrapolation and the two fits
must agree to 1%, otherwise the tail is deemed too short to certify.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .radial import (
    Quadrature,
    RadialFunction,
    RadialGrid,
    TailModel,
    surface_area,
    tail_power_integral,
)


class SubcriticalViolation(ValueError):
    """p outside the subcritical range (2, 2n/(n-2))."""


class NoBracket(RuntimeError):
    """Shooting could not bracket the ground-state amplitude."""


class TailTooShort(RuntimeError):
    """Grid ends before the asymptotic regime; decay constant not certified."""


def critical_exponent(n: int) -> float:
    return np.inf if n <= 2 else 2.0 * n / (n - 2.0)


def _check_exponent(n: int, p: float) -> None:
    if n < 2 or int(n) != n:
        raise SubcriticalViolation(f"dimension n={n} must be an integer >= 2")
    if not (2.0 < p < critical_exponent(n)):
        raise SubcriticalViolation(
            f"exponent p={p} outside the subcritical range (2, {critical_exponent(n)}) for n={n}"
        )


def _g(u, p):
    """Nonlinearity u - |u|^(p-2) u, sign-safe for fractional p."""
    return u - np.sign(u) * np.abs(u) ** (p - 1.0)


def _dg(u, p):
    return 1.0 - (p - 1.0) * np.abs(u) ** (p - 2.0)


def _series_start(a: float, n: int, p: float, r0: float):
    b = (a - a ** (p - 1.0)) / (2.0 * n)
    c = (1.0 - (p - 1.0) * a ** (p - 2.0)) * b / (4.0 * (n + 2.0))
    u = a + b * r0 ** 2 + c * r0 ** 4
    du = 2.0 * b * r0 + 4.0 * c * r0 ** 3
    return u, du


_R0 = 1e-6


def _radial_ode(n: int, p: float, r, y):
    """Right-hand side of the radial ODE as a first-order system in (U, U').

    n and p come first so that functools.partial(_radial_ode, n, p) is the
    callable solve_ivp takes.
    """
    return [y[1], _g(y[0], p) - (n - 1.0) * y[1] / r]


def _shoot(a: float, n: int, p: float, r_end: float = 80.0, rtol: float = 1e-12):
    """Integrate one shot; returns (kind, sol) with kind in {'cross','turn'}."""

    def ev_cross(r, y):
        return y[0]

    ev_cross.terminal = True
    ev_cross.direction = -1.0

    def ev_turn(r, y):
        return y[1]

    ev_turn.terminal = True
    ev_turn.direction = 1.0

    y0 = _series_start(a, n, p, _R0)
    sol = solve_ivp(
        partial(_radial_ode, n, p),
        (_R0, r_end),
        y0,
        method="DOP853",
        rtol=rtol,
        atol=1e-16,
        events=[ev_cross, ev_turn],
        dense_output=True,
    )
    if sol.t_events[0].size:
        return "cross", sol
    if sol.t_events[1].size:
        return "turn", sol
    # shot survived the whole window: numerically on the separatrix
    return "turn", sol


def bracket_amplitude(n: int, p: float, tol: float = 1e-13, max_iter: int = 200):
    """Bisect the central amplitude between overshoot and undershoot shots."""
    lo = (p / 2.0) ** (1.0 / (p - 2.0))  # zero-energy start always turns back
    hi = None
    a = lo * 1.2
    for _ in range(80):
        kind, _ = _shoot(a, n, p, rtol=1e-10)
        if kind == "cross":
            hi = a
            break
        lo = a
        a *= 1.5
    if hi is None:
        raise NoBracket(f"no overshoot found up to amplitude {a:.3e} for n={n}, p={p}")
    it = 0
    while hi - lo > tol:
        it += 1
        if it > max_iter:
            raise NoBracket(f"bisection stalled at width {hi - lo:.3e}")
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        kind, _ = _shoot(mid, n, p, rtol=1e-12)
        if kind == "cross":
            hi = mid
        else:
            lo = mid
    return lo, hi


@dataclass
class GroundState:
    n: int
    p: float
    u0: float
    decay_c: float
    profile: RadialFunction
    I1: float
    I2: float
    Ip: float
    bracket_width: float = np.nan
    certified: bool = True

    @property
    def grid(self) -> RadialGrid:
        return self.profile.grid

    @property
    def r_max(self) -> float:
        return self.grid.r_max

    def __call__(self, r):
        return self.profile(r)

    def deriv1(self, r):
        return self.profile.deriv1(r)

    def deriv2(self, r):
        return self.profile.deriv2(r)

    def eval(self, r):
        """(U, U', U'') at r from one interval lookup; tail form beyond r_max."""
        return self.profile.evaluate(self.grid.locate(r))

    def inverse(self, value: float) -> float:
        """r with U(r) = value, for 0 < value < u0 (tail-extended)."""
        if not (0.0 < value < self.u0):
            raise ValueError("inverse needs a value strictly between 0 and u0")
        r_hi = self.r_max
        while self(r_hi) > value:
            r_hi *= 1.5
        return brentq(lambda r: self(r) - value, 0.0, r_hi, xtol=1e-13)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "u0": self.u0,
            "decay_c": self.decay_c,
            "grid": self.grid.nodes.tolist(),
            "values": self.profile.values.tolist(),
            "values_d1": self.profile.d1.tolist(),
            "I1": self.I1,
            "I2": self.I2,
            "Ip": self.Ip,
        }

    @staticmethod
    def from_dict(d: dict) -> "GroundState":
        n, p = int(d["n"]), float(d["p"])
        grid = RadialGrid(np.asarray(d["grid"], dtype=float))
        values = np.asarray(d["values"], dtype=float)
        if "values_d1" in d:
            d1 = np.asarray(d["values_d1"], dtype=float)
        else:
            from .radial import _fd_derivative

            d1 = _fd_derivative(grid.nodes, values)
            d1[0] = 0.0
        d2 = _ode_second_derivative(grid.nodes, values, d1, n, p)
        d3 = _ode_third_derivative(grid.nodes, values, d1, d2, n, p)
        d4 = _ode_fourth_derivative(grid.nodes, values, d1, d2, d3, n, p)
        nu = (n - 1.0) / 2.0
        tail = TailModel(float(d["decay_c"]), -nu, 1.0)
        profile = RadialFunction(grid, values, d1, d2, tail=tail, d3=d3, d4=d4)
        return GroundState(
            n=n,
            p=p,
            u0=float(d["u0"]),
            decay_c=float(d["decay_c"]),
            profile=profile,
            I1=float(d["I1"]),
            I2=float(d["I2"]),
            Ip=float(d["Ip"]),
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @staticmethod
    def load(path) -> "GroundState":
        with open(path) as fh:
            return GroundState.from_dict(json.load(fh))


def _ode_second_derivative(r, u, du, n, p):
    d2 = np.empty_like(u)
    d2[1:] = _g(u[1:], p) - (n - 1.0) * du[1:] / r[1:]
    d2[0] = _g(u[0], p) / n
    return d2


def _ode_third_derivative(r, u, du, d2, n, p):
    """Differentiated ODE at the nodes; zero at r = 0 by radial symmetry."""
    d3 = np.empty_like(u)
    d3[1:] = _dg(u[1:], p) * du[1:] - (n - 1.0) * (d2[1:] / r[1:] - du[1:] / r[1:] ** 2)
    d3[0] = 0.0
    return d3


def _ode_fourth_derivative(r, u, du, d2, d3, n, p):
    """Twice-differentiated ODE at the nodes.

    At r = 0 the radial Taylor expansion gives U'''' = 3 g'(u0) U''/(n+2).
    """
    ddg = -(p - 1.0) * (p - 2.0) * np.abs(u[1:]) ** (p - 3.0) * np.sign(u[1:])
    d4 = np.empty_like(u)
    ri = r[1:]
    d4[1:] = (
        ddg * du[1:] ** 2
        + _dg(u[1:], p) * d2[1:]
        - (n - 1.0) * (d3[1:] / ri - 2.0 * d2[1:] / ri ** 2 + 2.0 * du[1:] / ri ** 3)
    )
    d4[0] = 3.0 * _dg(u[0], p) * d2[0] / (n + 2.0)
    return d4


def _tail_series_coeffs(n: int, K: int = 10) -> np.ndarray:
    """Far-field series U ~ e^(-r) r^(-nu) sum_k a_k r^(-k), a_0 = 1.

    Recursion from the linearized equation; the U^(p-1) source is smaller
    than every retained term at the radii where the series is used.
    """
    nu = (n - 1.0) / 2.0
    a = np.empty(K + 1)
    a[0] = 1.0
    for k in range(1, K + 1):
        a[k] = -a[k - 1] * (nu + k - 1.0) * (nu + k + 1.0 - n) / (2.0 * k)
    return a


def _tail_series_state(c: float, n: int, r: float, coeffs: np.ndarray):
    """(U, U') of the far-field series at radius r."""
    nu = (n - 1.0) / 2.0
    k = np.arange(coeffs.size)
    powers = r ** (-nu - k)
    S = float(np.sum(coeffs * powers))
    dS = float(np.sum(coeffs * -(nu + k) * powers / r))
    e = np.exp(-r)
    return c * e * S, c * e * (dS - S)


def _match_two_sided(n: int, p: float, a0: float, r_match: float, r_max: float):
    """Newton-matched forward/backward profile.

    Unknowns: central amplitude a and tail constant c.  Conditions: value and
    slope continuity at r_match.  Returns (a, c, fwd_sol, bwd_sol) with dense
    interpolants covering [_R0, r_match] and [r_match, r_max].
    """
    coeffs = _tail_series_coeffs(n)
    rtol = 3e-14
    rhs = partial(_radial_ode, n, p)

    def fwd(a):
        return solve_ivp(
            rhs, (_R0, r_match), _series_start(a, n, p, _R0),
            method="DOP853", rtol=rtol, atol=1e-18, dense_output=True,
        )

    def bwd(c):
        return solve_ivp(
            rhs, (r_max, r_match), _tail_series_state(c, n, r_max, coeffs),
            method="DOP853", rtol=rtol, atol=1e-30, dense_output=True,
        )

    sf = fwd(a0)
    uf, duf = sf.y[0, -1], sf.y[1, -1]
    if uf <= 0 or duf >= 0:
        raise NoBracket("forward shot left the decreasing regime before matching")
    c0 = uf / _tail_series_state(1.0, n, r_match, coeffs)[0]
    # mismatch normalized by the local solution scale
    u_scale, du_scale = abs(uf), abs(duf)

    x = np.array([a0, c0])
    sb = bwd(c0)
    best = None
    for _ in range(10):
        F = np.array([
            (sf.y[0, -1] - sb.y[0, -1]) / u_scale,
            (sf.y[1, -1] - sb.y[1, -1]) / du_scale,
        ])
        fnorm = float(np.max(np.abs(F)))
        if best is None or fnorm < best[0]:
            best = (fnorm, x.copy(), sf, sb)
        if fnorm < 1e-12:
            break
        da, dc = 1e-9 * abs(x[0]), 1e-9 * abs(x[1])
        sfa, sbc = fwd(x[0] + da), bwd(x[1] + dc)
        J = np.array([
            [(sfa.y[0, -1] - sf.y[0, -1]) / da / u_scale,
             -(sbc.y[0, -1] - sb.y[0, -1]) / dc / u_scale],
            [(sfa.y[1, -1] - sf.y[1, -1]) / da / du_scale,
             -(sbc.y[1, -1] - sb.y[1, -1]) / dc / du_scale],
        ])
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            raise NoBracket("singular Jacobian in the two-sided matching")
        x = x + step
        if not (x[0] > 0 and x[1] > 0):
            raise NoBracket("two-sided matching left the positive cone")
        sf, sb = fwd(x[0]), bwd(x[1])
    fnorm, x, sf, sb = best
    if fnorm > 1e-9:
        raise NoBracket(
            f"two-sided matching stalled at relative mismatch {fnorm:.3e}"
        )
    return float(x[0]), float(x[1]), sf, sb


def _fit_decay(r, u, du, n, u0):
    """Intercept-extrapolated decay constants from U and from U'.

    The window sits at the outer grid edge: closer in, the nonlinear term
    (relative size U^(p-2), slowly decaying for p near 2) biases the two
    fits apart by more than the 1% certification budget.
    """
    nu = (n - 1.0) / 2.0
    r_max = r[-1]
    mask = (r >= r_max - 7.0) & (r <= r_max - 2.0) & (u > 0) & (du < 0)
    if mask.sum() < 20 or u[mask][-1] > 1e-9 * u0:
        raise TailTooShort(
            "grid ends before the asymptotic window (need U below 1e-9 * u0 "
            "across the outer fit band)"
        )
    rw = r[mask]
    scale = rw ** nu * np.exp(rw)
    cu = u[mask] * scale
    # derivative-side estimator taken in w = U r^nu coordinates: -w' e^r has
    # the same 1/r series coefficient as w e^r, so the nu/r mismatch between
    # the raw U and U' estimators cancels analytically and the quadratic
    # extrapolation below is accurate for both
    cdu = -du[mask] * scale - nu * cu / rw
    x = 1.0 / rw
    A = np.stack([np.ones_like(x), x, x ** 2], axis=1)
    c_from_u = float(np.linalg.lstsq(A, cu, rcond=None)[0][0])
    c_from_du = float(np.linalg.lstsq(A, cdu, rcond=None)[0][0])
    if c_from_u <= 0 or c_from_du <= 0:
        raise TailTooShort("decay fit produced a nonpositive constant")
    if abs(c_from_u / c_from_du - 1.0) > 0.01:
        raise TailTooShort(
            f"decay constants from U and U' disagree by "
            f"{abs(c_from_u / c_from_du - 1.0):.2%} (limit 1%)"
        )
    return c_from_u, c_from_du


def _energy_ledger(gs_profile: RadialFunction, n: int, p: float, decay_c: float):
    quad = Quadrature(gs_profile.grid)
    omega = surface_area(n)
    rq = quad.points
    u = gs_profile(rq)
    du = gs_profile.deriv1(rq)
    nu = (n - 1.0) / 2.0
    R = gs_profile.grid.r_max
    w = rq ** (n - 1.0)
    I1 = omega * quad.integrate(du ** 2 * w)
    I2 = omega * quad.integrate(u ** 2 * w)
    Ip = omega * quad.integrate(np.abs(u) ** p * w)
    # exponential tail completions (negligible but exact in the model)
    I1 += omega * tail_power_integral(decay_c ** 2, n - 1.0 - 2 * nu, 2.0, R) if decay_c > 0 else 0.0
    I2 += omega * tail_power_integral(decay_c ** 2, n - 1.0 - 2 * nu, 2.0, R) if decay_c > 0 else 0.0
    Ip += omega * tail_power_integral(decay_c ** p, n - 1.0 - p * nu, p, R) if decay_c > 0 else 0.0
    return I1, I2, Ip


def solve_ground_state(
    n: int,
    p: float,
    tol: float = 1e-13,
    n_nodes: int = 4000,
    r_cap: float = 60.0,
) -> GroundState:
    """Certified ground-state profile on an adaptive graded grid.

    r_max is chosen so U(r_max) < 1e-13 * u0 (capped at r_cap), the bisection
    bracket has width <= tol, and the decay constant passes the two-sided fit.
    """
    _check_exponent(n, p)
    lo, hi = bracket_amplitude(n, p, tol=tol)
    a_star = 0.5 * (lo + hi)
    nu = (n - 1.0) / 2.0

    kind, shot = _shoot(a_star, n, p, rtol=1e-12)
    t = shot.t
    yy = shot.y
    clean = (yy[0] > 1e-8 * a_star) & (yy[1] < 0)
    if not clean.any():
        raise NoBracket("shot produced no usable decreasing segment")
    i_hi = int(np.where(clean)[0][-1])
    r_hi = float(t[i_hi])
    c_loc = float(yy[0, i_hi] * r_hi ** nu * np.exp(r_hi))

    # smallest r with c_loc r^-nu e^-r = 1e-13 u0, by fixed point iteration
    target = 1e-13 * a_star
    r_max = max(r_hi + 4.0, 25.0)
    for _ in range(60):
        r_new = np.log(c_loc / target) - nu * np.log(r_max)
        if abs(r_new - r_max) < 1e-9:
            break
        r_max = r_new
    r_max = float(min(max(r_max, r_hi + 3.0), r_cap))

    # matching radius: past the turning region, inside the window where the
    # bracketed amplitude still pins the forward shot to ~1e-11 absolute
    r_match = min(6.0, 0.45 * r_max)
    a_fit, c_star, sf, sb = _match_two_sided(n, p, a_star, r_match, r_max)
    if abs(a_fit - a_star) > max(100.0 * (hi - lo), 1e-11 * a_star):
        raise NoBracket(
            f"matched amplitude {a_fit!r} drifted outside the certified bracket"
        )

    grid = RadialGrid.graded(r_max, n_nodes=n_nodes)
    values = np.empty(grid.size)
    d1 = np.empty(grid.size)
    inner = grid.nodes <= r_match
    yf = sf.sol(np.clip(grid.nodes[inner], _R0, r_match))
    yb = sb.sol(grid.nodes[~inner])
    values[inner], d1[inner] = yf[0], yf[1]
    values[~inner], d1[~inner] = yb[0], yb[1]
    values[0], d1[0] = a_fit, 0.0
    if np.any(values <= 0):
        raise NoBracket("polished profile lost positivity")
    if np.any(d1[1:] > 1e-12 * values[0]):
        raise NoBracket("polished profile lost monotonicity")
    d1 = np.minimum(d1, 0.0)
    d2 = _ode_second_derivative(grid.nodes, values, d1, n, p)
    d3 = _ode_third_derivative(grid.nodes, values, d1, d2, n, p)
    d4 = _ode_fourth_derivative(grid.nodes, values, d1, d2, d3, n, p)

    c_u, c_du = _fit_decay(grid.nodes, values, d1, n, float(values[0]))
    tail = TailModel(c_u, -nu, 1.0)
    profile = RadialFunction(grid, values, d1, d2, tail=tail, d3=d3, d4=d4)
    I1, I2, Ip = _energy_ledger(profile, n, p, c_u)
    return GroundState(
        n=n,
        p=p,
        u0=float(values[0]),
        decay_c=c_u,
        profile=profile,
        I1=I1,
        I2=I2,
        Ip=Ip,
        bracket_width=hi - lo,
    )


def shoot_profile(n: int, p: float, u0: float, r_max: float = 20.0) -> GroundState:
    """Uncertified profile from a single shot at a given amplitude.

    Intended for negative controls: identity defects grow visibly when u0 is
    off the ground-state value.  No decay certification is attempted.
    """
    _check_exponent(n, p)

    def ev_cross(r, y):
        return y[0] - 1e-6 * u0

    ev_cross.terminal = True
    ev_cross.direction = -1.0
    sol = solve_ivp(
        partial(_radial_ode, n, p), (_R0, r_max), _series_start(u0, n, p, _R0),
        method="DOP853", rtol=1e-12, atol=1e-16, events=[ev_cross], dense_output=True,
    )
    r_end = float(sol.t[-1])
    grid = RadialGrid.graded(r_end, n_nodes=2000)
    yv = sol.sol(np.clip(grid.nodes, _R0, r_end))
    values, d1 = yv[0], yv[1]
    d1[0] = 0.0
    d2 = _ode_second_derivative(grid.nodes, values, d1, n, p)
    d3 = _ode_third_derivative(grid.nodes, values, d1, d2, n, p)
    d4 = _ode_fourth_derivative(grid.nodes, values, d1, d2, d3, n, p)
    profile = RadialFunction(grid, values, d1, d2, tail=None, d3=d3, d4=d4)
    I1, I2, Ip = _energy_ledger(profile, n, p, decay_c=0.0)
    return GroundState(
        n=n, p=p, u0=float(values[0]), decay_c=np.nan, profile=profile,
        I1=I1, I2=I2, Ip=Ip, certified=False,
    )


def decay_constant(gs: GroundState) -> float:
    """Refit the decay constant from stored profile data.

    Returns the U-side fit; raises TailTooShort when the asymptotic window
    is missing or the U and U' fits disagree beyond 1%.
    """
    c_u, _ = _fit_decay(
        gs.grid.nodes, gs.profile.values, gs.profile.d1, gs.n, gs.u0
    )
    return c_u


def truncate(gs: GroundState, r_max: float) -> GroundState:
    """Cut a ground state at a smaller r_max, recertifying the decay fit.

    Raises TailTooShort when the remaining tail cannot support the fit.
    """
    nodes = gs.grid.nodes
    keep = nodes <= r_max
    if keep.sum() < 8:
        raise TailTooShort("truncation leaves too few nodes")
    grid = RadialGrid(nodes[keep])
    values = gs.profile.values[keep]
    d1 = gs.profile.d1[keep]
    d2 = gs.profile.d2[keep]
    d3 = None if gs.profile.d3 is None else gs.profile.d3[keep]
    d4 = None if gs.profile.d4 is None else gs.profile.d4[keep]
    c_u, _ = _fit_decay(grid.nodes, values, d1, gs.n, float(values[0]))
    nu = (gs.n - 1.0) / 2.0
    profile = RadialFunction(
        grid, values, d1, d2, tail=TailModel(c_u, -nu, 1.0), d3=d3, d4=d4
    )
    I1, I2, Ip = _energy_ledger(profile, gs.n, gs.p, c_u)
    return GroundState(
        n=gs.n, p=gs.p, u0=float(values[0]), decay_c=c_u, profile=profile,
        I1=I1, I2=I2, Ip=Ip, bracket_width=gs.bracket_width,
    )


def identity_report(gs: GroundState) -> dict:
    """Exact-identity defects of the energy ledger.

    energy:    I1 + I2 = Ip
    pohozaev:  (n-2)/2 I1 + n/2 I2 = n/p Ip
    alpha:     I1/2 + I2/2 - Ip/p = (1/2 - 1/p) Ip
    """
    n, p = gs.n, gs.p
    I1, I2, Ip = gs.I1, gs.I2, gs.Ip
    alpha = 0.5 * I1 + 0.5 * I2 - Ip / p
    e_energy = abs(I1 + I2 - Ip) / Ip
    e_pohozaev = abs(0.5 * (n - 2) * I1 + 0.5 * n * I2 - n / p * Ip) / Ip
    e_alpha = abs(alpha - (0.5 - 1.0 / p) * Ip) / abs(alpha)
    return {
        "I1": I1,
        "I2": I2,
        "Ip": Ip,
        "alpha": alpha,
        "e_energy": e_energy,
        "e_pohozaev": e_pohozaev,
        "e_alpha": e_alpha,
    }


def ode_residual(gs: GroundState, where: str = "midpoints") -> float:
    """Max absolute ODE residual of the stored interpolant.

    At nodes the second derivative is defined through the ODE, so the honest
    consistency measure is taken at cell midpoints by default.
    """
    nodes = gs.grid.nodes
    if where == "nodes":
        r = nodes[1:]
    else:
        r = 0.5 * (nodes[1:] + nodes[:-1])
    u = gs.profile(r)
    du = gs.profile.deriv1(r)
    d2 = gs.profile.deriv2(r)
    res = d2 + (gs.n - 1.0) * du / r - _g(u, gs.p)
    return float(np.max(np.abs(res)))
