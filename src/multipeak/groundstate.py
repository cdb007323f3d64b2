"""Radial ground state of  -Lap(U) + U = U^(p-1)  on R^n.

The unique positive decreasing solution is found in three stages:

1. a coarse bracket: shooting from the origin with bisection on the central
   value u0, using the series start U(r) = a + (a - a^(p-1)) r^2 / (2n) +
   O(r^4) and the classification "crosses zero" (a too large) versus "turns
   back upward" (a too small), down to a relative width of
   SOLVER["bracket_rtol"];
2. matched two-sided integration from the bracket's midpoint: a forward pass
   from the series start and a backward pass seeded by the asymptotic
   far-field series meet at a matching radius inside the stable window of
   both, and a Newton iteration on (amplitude, tail constant) drives the
   value and slope mismatch to the integrator noise floor.  Backward
   integration is stable for the decaying solution, so this extends the
   profile to where U < 1e-13 * u0 without the exponential error blowup of
   pure shooting.  The backward pass starts past a provisional r_max taken
   from the forward pass; the grid ends at the r_max of the matched tail
   constant, and its node data are read from the septic Hermite profile
   through the matched passes' own step points;
3. certification: the matched amplitude a must lie inside the coarse
   bracket, and two independent shots of stage 1 at a (1 -/+
   SOLVER["certify_delta"]) must turn back and cross zero.  Those two shots
   are the certified bracket, of width 2 * certify_delta * a.

Every shot and pass is scipy's DOP853 run as a step loop on Python floats
(solve_ivp here), which steps as scipy's solve_ivp does at a fraction of its
per-step cost; scipy is read only for the method's tableau.

The far field obeys U(r) ~ c r^(-(n-1)/2) e^(-r); the constant c is fitted
twice (from U and from U') with 1/r intercept extrapolation and the two fits
must agree to 1%, otherwise the tail is deemed too short to certify.  The
fitted far field is the profile's tail, gs.profile.tail, the one place that
holds it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cache, partial
from operator import mul
from typing import NamedTuple

import numpy as np

from .radial import Quadrature, RadialFunction, RadialGrid, TailModel, moment_reduce


class SubcriticalViolation(ValueError):
    """p outside the subcritical range (2, 2n/(n-2))."""


class NoBracket(RuntimeError):
    """Shooting could not bracket the ground-state amplitude."""


class TailTooShort(RuntimeError):
    """Grid ends before the asymptotic regime; decay constant not certified."""


# solver settings (relative width of the bisection bracket, relative offset of
# the two certification shots, grid nodes, largest r_max) and the version of
# the cached records (GroundState.to_dict and CorrectionProfiles.save), bumped
# when the records or the solve that writes them change
SOLVER = {"bracket_rtol": 1e-6, "certify_delta": 1e-12, "n_nodes": 4000, "r_cap": 60.0}
SCHEMA = 6


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
# end of a shot's window
_R_END = 80.0
# matching radius of the two-sided integration: past the turning region, and
# before the forward pass's growing mode has amplified its errors much
_R_MATCH = 6.0
# how far past the provisional tail radius the backward pass starts: room for
# the matched tail constant to exceed the provisional one by a factor e^2
_R_START_MARGIN = 2.0


def _radial_ode(n: int, p: float, r, y):
    """Right-hand side of the radial ODE as a first-order system in (U, U').

    n and p come first so that functools.partial(_radial_ode, n, p) is the
    callable solve_ivp takes.  It works on Python floats: per call, numpy's
    scalar overhead would cost more than the arithmetic, and the results are
    the same bits as _g's.
    """
    u, du = float(y[0]), float(y[1])
    return [du, u - math.copysign(abs(u) ** (p - 1.0), u) - (n - 1.0) * du / r]


def _shoot(a: float, n: int, p: float, rtol: float = 1e-12) -> str:
    """Integrate one shot from amplitude a and classify it: 'cross' when U
    crosses zero (a too large), 'turn' when U' turns positive (a too small).
    A shot that survives the whole window is numerically on the separatrix
    and counts as 'turn'."""
    start = _series_start(a, n, p, _R0)
    status = solve_ivp(partial(_radial_ode, n, p), _R0, start, _R_END, rtol, 1e-16).status
    return "cross" if status == "cross" else "turn"


# step-size control of scipy's Runge-Kutta solvers; DOP853's error estimator
# has order 7, so the step scales with error_norm ** (-1/8)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0


@cache
def _dop853_tableau():
    """scipy's DOP853 tableau as float tuples (C, A, B, E5, E3), C and A
    without the first stage's row.

    Read at the first pass, not at import: the warm CLI path imports no scipy.
    """
    from scipy.integrate._ivp import dop853_coefficients as dc

    s = dc.N_STAGES
    return (
        tuple(map(float, dc.C[1:s])),
        tuple(tuple(map(float, dc.A[i, :i])) for i in range(1, s)),
        tuple(map(float, dc.B)),
        tuple(map(float, dc.E5)),
        tuple(map(float, dc.E3)),
    )


def _rms(x: float, y: float) -> float:
    return math.sqrt(x * x + y * y) / math.sqrt(2.0)


class _Pass(NamedTuple):
    """How a solve_ivp pass ended ('cross', 'turn' or 'end'), its accepted
    steps' (r, U, U') from the start on, and its right-hand-side calls."""

    status: str
    steps: list
    nfev: int


def solve_ivp(fun, r0: float, y, r_end: float, rtol: float, atol: float) -> _Pass:
    """DOP853 from y at r0 toward r_end, either way, stopped at the first
    sign change.

    The status is 'cross' when y[0] goes from >= 0 to <= 0 over a step,
    'turn' when y[1] goes from <= 0 to >= 0, and 'end' at r_end.  This is
    what scipy's solve_ivp(fun, (r0, r_end), y, method="DOP853", rtol=rtol,
    atol=atol) with those two terminal events does, step for step (Hairer,
    Norsett and Wanner, Solving ODEs I, II.10): the same tableau, first step,
    error norm and step control, on Python floats instead of numpy arrays of
    length 2, whose per-step overhead is most of a scipy pass.  Stage and
    error sums round differently from numpy's dot, so step sizes can differ
    where the error estimate is at rounding level.  Where scipy would
    root-find both events inside one step, the step is halved until they
    part.  fun(r, y) returns the derivative pair, as for scipy.

    It is the module's only integrator and takes scipy's name so that a
    caller can rebind it to count integrations (the benchmark's tracer
    does); every pass looks it up at call time.

    Raises ValueError for a non-finite start, and NoBracket when the step
    falls below 10 spacings of r (scipy's status -1).
    """
    C, A, B, E5, E3 = _dop853_tableau()
    sign, r = math.copysign(1.0, r_end - r0), r0
    u, du = y
    if not (math.isfinite(u) and math.isfinite(du)):
        raise ValueError(f"pass start (U, U') = ({u!r}, {du!r}) is not finite")
    steps = [(r, u, du)]
    fu, fd = fun(r, (u, du))

    # first step, as scipy's select_initial_step for error order 7
    su, sd = atol + abs(u) * rtol, atol + abs(du) * rtol
    d0, d1 = _rms(u / su, du / sd), _rms(fu / su, fd / sd)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(r_end - r))
    gu, gd = fun(r + sign * h0, (u + sign * h0 * fu, du + sign * h0 * fd))
    d2 = _rms((gu - fu) / su, (gd - fd) / sd) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-_ERROR_EXPONENT)
    h_abs = min(100.0 * h0, h1, abs(r_end - r))
    trials = 0

    while True:
        min_step = 10.0 * abs(math.nextafter(r, sign * math.inf) - r)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            # "not >=" also stops a NaN step size
            if not h_abs >= min_step:
                raise NoBracket(f"pass step fell below {min_step:.1e} at r = {r!r}")
            r_new = r + sign * h_abs
            if sign * (r_new - r_end) > 0.0:
                r_new = r_end
            h = r_new - r
            trials += 1
            ku, kd = [fu], [fd]
            for c, row in zip(C, A):
                fs = fun(r + c * h, (u + sum(map(mul, row, ku)) * h,
                                     du + sum(map(mul, row, kd)) * h))
                ku.append(fs[0])
                kd.append(fs[1])
            u_new = u + h * sum(map(mul, B, ku))
            du_new = du + h * sum(map(mul, B, kd))
            fu_new, fd_new = fun(r_new, (u_new, du_new))
            ku.append(fu_new)
            kd.append(fd_new)

            su = atol + max(abs(u), abs(u_new)) * rtol
            sd = atol + max(abs(du), abs(du_new)) * rtol
            e5u, e5d = sum(map(mul, E5, ku)) / su, sum(map(mul, E5, kd)) / sd
            e3u, e3d = sum(map(mul, E3, ku)) / su, sum(map(mul, E3, kd)) / sd
            e5, e3 = e5u * e5u + e5d * e5d, e3u * e3u + e3d * e3d
            if e5 == 0.0 and e3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * 2.0)

            if error_norm < 1.0:
                cross = u >= 0.0 and u_new <= 0.0
                turn = du <= 0.0 and du_new >= 0.0
                if cross and turn:
                    h_abs = 0.5 * abs(h)
                    rejected = True
                    continue
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs = abs(h) * factor
                break
            h_abs = abs(h) * max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True

        steps.append((r_new, u_new, du_new))
        if cross or turn or r_new == r_end:
            status = "cross" if cross else "turn" if turn else "end"
            # scipy's count: f at the start, one Euler probe, 12 per trial
            return _Pass(status, steps, 2 + 12 * trials)
        r, u, du, fu, fd = r_new, u_new, du_new, fu_new, fd_new


def bracket_amplitude(n: int, p: float):
    """Bisect the central amplitude between undershoot and overshoot shots.

    Returns (lo, hi, shots): the shot from lo turns back, the one from hi
    crosses zero, hi - lo <= SOLVER["bracket_rtol"] * hi, and shots counts
    the integrations made.  The bracket only has to seed the Newton
    matching, so its shots use rtol 1e-10.
    """
    lo = (p / 2.0) ** (1.0 / (p - 2.0))  # zero-energy start always turns back
    hi = None
    a = lo * 1.2
    shots = 0
    for _ in range(80):
        shots += 1
        if _shoot(a, n, p, rtol=1e-10) == "cross":
            hi = a
            break
        lo = a
        a *= 1.5
    if hi is None:
        raise NoBracket(f"no overshoot found up to amplitude {a:.3e} for n={n}, p={p}")
    while hi - lo > SOLVER["bracket_rtol"] * hi:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        shots += 1
        if _shoot(mid, n, p, rtol=1e-10) == "cross":
            hi = mid
        else:
            lo = mid
    return lo, hi, shots


@dataclass
class GroundState:
    """U's profile and its solve's record.  I1, I2 and Ip, the integrals of
    |U'|^2, U^2 and |U|^p, are computed from the profile at construction."""

    n: int
    p: float
    profile: RadialFunction
    I1: float = field(init=False)
    I2: float = field(init=False)
    Ip: float = field(init=False)
    bracket_width: float = np.nan
    certified: bool = True
    # solver diagnostics: bisection and certification shots, Newton steps of
    # the matching and its final relative mismatch
    bracket_shots: int = 0
    certify_shots: int = 0
    newton_steps: int = 0
    match_mismatch: float = np.nan

    def __post_init__(self):
        self.I1, self.I2, self.Ip = _energy_ledger(self.profile, self.n, self.p)

    @property
    def grid(self) -> RadialGrid:
        return self.profile.grid

    @property
    def r_max(self) -> float:
        return self.grid.r_max

    @property
    def u0(self) -> float:
        """The central value U(0)."""
        return float(self.profile.values[0])

    @property
    def decay_c(self) -> float:
        """The tail constant c of U ~ c r^(-(n-1)/2) e^(-r) past the grid."""
        return self.profile.tail.c

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
            "certified": self.certified,
            "bracket_width": self.bracket_width,
            "bracket_shots": self.bracket_shots,
            "certify_shots": self.certify_shots,
            "newton_steps": self.newton_steps,
            "match_mismatch": self.match_mismatch,
        }

    @staticmethod
    def from_dict(d: dict) -> "GroundState":
        n, p = int(d["n"]), float(d["p"])
        grid = RadialGrid(np.asarray(d["grid"], dtype=float))
        values = np.asarray(d["values"], dtype=float)
        d1 = np.asarray(d["values_d1"], dtype=float)
        profile = _node_profile(grid, values, d1, n, p, float(d["decay_c"]))
        return GroundState(
            n=n,
            p=p,
            profile=profile,
            bracket_width=float(d["bracket_width"]),
            certified=bool(d["certified"]),
            bracket_shots=int(d["bracket_shots"]),
            certify_shots=int(d["certify_shots"]),
            newton_steps=int(d["newton_steps"]),
            match_mismatch=float(d["match_mismatch"]),
        )

    def save(self, path) -> None:
        # one json.dumps string: json.dump streams through the pure-Python
        # encoder, about twice as slow for the same bytes
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_dict()))

    @staticmethod
    def load(path) -> "GroundState":
        with open(path) as fh:
            return GroundState.from_dict(json.load(fh))


def _node_profile(grid: RadialGrid, values, d1, n: int, p: float,
                  decay_c: float) -> RadialFunction:
    """The profile through node values and first derivatives: d2, d3 and d4
    from the ODE, and the tail decay_c r^(-(n-1)/2) e^(-r) past the grid.
    """
    d2, d3, d4 = _ode_derivatives(grid.nodes, values, d1, n, p)
    tail = TailModel(decay_c, -(n - 1.0) / 2.0, 1.0)
    return RadialFunction(grid, values, d1, d2, tail=tail, d3=d3, d4=d4)


def _ode_derivatives(r, u, du, n, p):
    """(U'', U''', U'''') at the nodes: the ODE, differentiated once and
    twice.

    At r = 0, U'' = g(u0)/n, U''' = 0 by radial symmetry, and the radial
    Taylor expansion gives U'''' = 3 g'(u0) U''/(n+2).
    """
    ri = r[1:]
    d2 = np.empty_like(u)
    d2[1:] = _g(u[1:], p) - (n - 1.0) * du[1:] / ri
    d2[0] = _g(u[0], p) / n
    d3 = np.empty_like(u)
    d3[1:] = _dg(u[1:], p) * du[1:] - (n - 1.0) * (d2[1:] / ri - du[1:] / ri ** 2)
    d3[0] = 0.0
    ddg = -(p - 1.0) * (p - 2.0) * np.abs(u[1:]) ** (p - 3.0) * np.sign(u[1:])
    d4 = np.empty_like(u)
    d4[1:] = (
        ddg * du[1:] ** 2
        + _dg(u[1:], p) * d2[1:]
        - (n - 1.0) * (d3[1:] / ri - 2.0 * d2[1:] / ri ** 2 + 2.0 * du[1:] / ri ** 3)
    )
    d4[0] = 3.0 * _dg(u[0], p) * d2[0] / (n + 2.0)
    return d2, d3, d4


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


def _tail_radius(c: float, n: int, level: float, coeffs: np.ndarray) -> float:
    """Radius where the far-field series of tail constant c falls to level.

    Fixed-point iteration r <- r + log(U(r) / level) contracts by about nu / r
    and alternates around the root, so the larger of the last two iterates
    is a radius where the series is at most level.
    """
    r = 25.0
    for _ in range(60):
        r_new = r + math.log(_tail_series_state(c, n, r, coeffs)[0] / level)
        if abs(r_new - r) < 1e-9:
            break
        r = r_new
    return max(r, r_new)


def _match_two_sided(n: int, p: float, a0: float):
    """Newton-matched forward/backward profile.

    Unknowns: central amplitude a and tail constant c.  Conditions: value and
    slope continuity at _R_MATCH.  The backward pass starts at r_start, past
    the tail radius of the constant that the first forward pass gives at
    _R_MATCH, so that the tail radius of the matched constant lies inside it.
    Every pass must reach _R_MATCH with no sign change of U or U'.  Returns
    (a, c, matched, newton_steps, mismatch): matched is the profile on [0,
    r_start] through the matched passes' step points, the forward pass's up
    to _R_MATCH, and mismatch is the accepted relative value/slope mismatch.
    """
    coeffs = _tail_series_coeffs(n)
    rhs = partial(_radial_ode, n, p)

    def run(r0, y, atol):
        sol = solve_ivp(rhs, r0, y, _R_MATCH, 3e-14, atol)
        if sol.status != "end":
            raise NoBracket(f"the pass from r = {r0:.3g} left the decreasing "
                            f"regime at r = {sol.steps[-1][0]:.3f}, before matching")
        return sol

    def fwd(a):
        return run(_R0, _series_start(a, n, p, _R0), 1e-18)

    def bwd(c):
        return run(r_start, _tail_series_state(c, n, r_start, coeffs), 1e-30)

    sf = fwd(a0)
    _, uf, duf = sf.steps[-1]
    c0 = uf / _tail_series_state(1.0, n, _R_MATCH, coeffs)[0]
    r_start = min(_tail_radius(c0, n, 1e-13 * a0, coeffs) + _R_START_MARGIN, SOLVER["r_cap"])
    # mismatch normalized by the local solution scale
    u_scale, du_scale = abs(uf), abs(duf)

    x = np.array([a0, c0])
    sb = bwd(c0)
    best = None
    newton_steps = 0
    prev = np.inf
    for _ in range(10):
        (_, uf, duf), (_, ub, dub) = sf.steps[-1], sb.steps[-1]
        F = np.array([(uf - ub) / u_scale, (duf - dub) / du_scale])
        fnorm = float(np.max(np.abs(F)))
        if best is None or fnorm < best[0]:
            best = (fnorm, x.copy(), sf, sb)
        # converged, or a step no longer halves the mismatch: the noise floor
        if fnorm < 1e-12 or fnorm > 0.5 * prev:
            break
        prev = fnorm
        da, dc = 1e-9 * abs(x[0]), 1e-9 * abs(x[1])
        (_, ua, dua), (_, uc, duc) = fwd(x[0] + da).steps[-1], bwd(x[1] + dc).steps[-1]
        J = np.array([
            [(ua - uf) / da / u_scale, -(uc - ub) / dc / u_scale],
            [(dua - duf) / da / du_scale, -(duc - dub) / dc / du_scale],
        ])
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            raise NoBracket("singular Jacobian in the two-sided matching")
        x = x + step
        newton_steps += 1
        if not (x[0] > 0 and x[1] > 0):
            raise NoBracket("two-sided matching left the positive cone")
        sf, sb = fwd(x[0]), bwd(x[1])
    fnorm, x, sf, sb = best
    if fnorm > 1e-9:
        raise NoBracket(
            f"two-sided matching stalled at relative mismatch {fnorm:.3e}"
        )
    a, c = float(x[0]), float(x[1])
    # (0, a, 0) in place of the series start at _R0
    r, u, du = np.array([(0.0, a, 0.0)] + sf.steps[1:] + sb.steps[-2::-1]).T
    return a, c, _node_profile(RadialGrid(r), u, du, n, p, c), newton_steps, fnorm


def _fit_decay(r, u, du, n, u0) -> float:
    """The intercept-extrapolated decay constant from U, certified by the
    same fit from U'.

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
    return c_from_u


def _energy_ledger(profile: RadialFunction, n: int, p: float):
    """(I1, I2, Ip) = the integrals of |U'|^2, U^2 and |U|^p over R^n.

    Each is moment_reduce on the profile's grid, completed past r_max by
    the profile's tail raised to the integrand's power: U's q = 2 tail
    also stands for |U'|^2, whose far field has the same leading term.
    """
    quad = Quadrature(profile.grid)
    du, tail2 = profile.deriv1, profile.tail.powered(2.0)
    I1 = moment_reduce(lambda r: du(r) ** 2, "1", n, quad, tail=tail2)
    I2 = moment_reduce(lambda r: profile(r) ** 2, "1", n, quad, tail=tail2)
    Ip = moment_reduce(lambda r: np.abs(profile(r)) ** p, "1", n, quad,
                       tail=profile.tail.powered(p))
    return I1, I2, Ip


@cache
def solve_ground_state(n: int, p: float) -> GroundState:
    """Certified ground-state profile on an adaptive graded grid.

    A bisection brackets u0 to a relative width of SOLVER["bracket_rtol"],
    the two-sided Newton matching polishes the bracket's midpoint, and two
    shots at u0 (1 -/+ SOLVER["certify_delta"]) certify the matched u0: the
    lower one turns back, the upper one crosses zero, and u0 lies inside the
    bisection bracket.  bracket_width is the width of that certified pair.
    r_max is chosen so that the tail of the matched constant falls below
    1e-13 * u0 there (capped at SOLVER["r_cap"]), and the decay constant
    passes the two-sided fit.  The result is memoised on (n, p): every caller
    in the process shares one solve and one GroundState, which must not be
    mutated.  Failures raise and are not memoised.
    """
    _check_exponent(n, p)
    lo, hi, bracket_shots = bracket_amplitude(n, p)
    a_fit, c_star, matched, newton_steps, mismatch = _match_two_sided(n, p, 0.5 * (lo + hi))
    half = SOLVER["certify_delta"] * a_fit
    if not lo <= a_fit <= hi:
        raise NoBracket(
            f"matched amplitude {a_fit!r} outside the bisection bracket [{lo!r}, {hi!r}]"
        )
    below, above = _shoot(a_fit - half, n, p), _shoot(a_fit + half, n, p)
    if (below, above) != ("turn", "cross"):
        raise NoBracket(
            f"matched amplitude {a_fit!r} not certified: the shots {half:.2e} "
            f"below and above it {below} and {above}"
        )

    r_max = min(_tail_radius(c_star, n, 1e-13 * a_fit, _tail_series_coeffs(n)), SOLVER["r_cap"])
    if r_max > matched.grid.r_max:
        raise TailTooShort(
            f"tail radius {r_max:.3f} lies past the backward pass's start {matched.grid.r_max:.3f}"
        )
    grid = RadialGrid.graded(r_max, n_nodes=SOLVER["n_nodes"])
    values, d1 = matched(grid.nodes), matched.deriv1(grid.nodes)
    if np.any(values <= 0):
        raise NoBracket("polished profile lost positivity")
    if np.any(d1[1:] > 1e-12 * values[0]):
        raise NoBracket("polished profile lost monotonicity")
    d1 = np.minimum(d1, 0.0)
    c_u = _fit_decay(grid.nodes, values, d1, n, float(values[0]))
    return GroundState(
        n=n,
        p=p,
        profile=_node_profile(grid, values, d1, n, p, c_u),
        bracket_width=2.0 * half,
        bracket_shots=bracket_shots,
        certify_shots=2,
        newton_steps=newton_steps,
        match_mismatch=mismatch,
    )


def decay_constant(gs: GroundState) -> float:
    """Refit the decay constant from stored profile data.

    Returns the U-side fit; raises TailTooShort when the asymptotic window
    is missing or the U and U' fits disagree beyond 1%.
    """
    return _fit_decay(gs.grid.nodes, gs.profile.values, gs.profile.d1, gs.n, gs.u0)


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


def ode_residual(gs: GroundState) -> float:
    """Max absolute ODE residual of the stored interpolant at cell midpoints.

    At nodes the second derivative is defined through the ODE, so the honest
    consistency measure is taken between them.
    """
    nodes = gs.grid.nodes
    r = 0.5 * (nodes[1:] + nodes[:-1])
    u = gs.profile(r)
    du = gs.profile.deriv1(r)
    d2 = gs.profile.deriv2(r)
    res = d2 + (gs.n - 1.0) * du / r - _g(u, gs.p)
    return float(np.max(np.abs(res)))
