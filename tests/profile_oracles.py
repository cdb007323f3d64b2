"""Ground-state helpers that only the tests use.

scipy_classify and scipy_shoot are the solve_ivp shots that the solver's
float-only DOP853 loop reproduces; shoot_profile builds the uncertified
single-shot profile that negative controls feed to the identity checks;
truncate cuts a certified profile short to exercise the decay-fit gate;
inverse solves U(r) = value for tail-window radii; fd_derivative is the
finite-difference oracle of profile derivatives; scipy_e2 is the strong-form
identity residual e2 of correction.verify_L0_identities, built on scipy's
make_interp_spline.  scipy_dop853_tableau, scipy_band_solve and scipy_d1 are
scipy's DOP853 tableau, tridiagonal solve and quintic-spline derivative,
which groundstate's module tableau, correction's band elimination and its
d1 spline reproduce.  They reuse the solver's
private pieces, so a change to those pieces shows up here too.
"""

from functools import partial

import numpy as np
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.interpolate import make_interp_spline
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from multipeak.groundstate import (
    _R0,
    _R_END,
    GroundState,
    TailTooShort,
    _check_exponent,
    _fit_decay,
    _node_profile,
    _radial_ode,
    _series_start,
)
from multipeak.radial import RadialGrid


def scipy_classify(fun, y, rtol: float) -> str:
    """solve_ivp's DOP853 from y at _R0 toward _R_END with two terminal events:
    'cross' when y[0] falls through zero first, 'turn' otherwise (y[1] rose
    through zero, the window ended, or the step size failed)."""

    def ev_cross(t, y):
        return y[0]

    ev_cross.terminal = True
    ev_cross.direction = -1.0

    def ev_turn(t, y):
        return y[1]

    ev_turn.terminal = True
    ev_turn.direction = 1.0

    sol = solve_ivp(fun, (_R0, _R_END), y, method="DOP853", rtol=rtol, atol=1e-16,
                    events=[ev_cross, ev_turn])
    return "cross" if sol.t_events[0].size else "turn"


def scipy_shoot(a: float, n: int, p: float, rtol: float = 1e-12) -> str:
    """The classification shot of groundstate._shoot, integrated by scipy's solve_ivp."""
    return scipy_classify(partial(_radial_ode, n, p), _series_start(a, n, p, _R0), rtol)


def shoot_profile(n: int, p: float, u0: float, r_max: float = 20.0) -> GroundState:
    """Uncertified profile from a single shot at a given amplitude.

    Intended for negative controls: identity defects grow visibly when u0 is
    off the ground-state value.  No decay certification is attempted: the
    tail constant is 0, so the profile is 0 past the grid.
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
    return GroundState(n=n, p=p, profile=_node_profile(grid, values, d1, n, p, 0.0),
                       certified=False)


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
    c_u = _fit_decay(grid.nodes, values, d1, gs.n, float(values[0]))
    profile = _node_profile(grid, values, d1, gs.n, gs.p, c_u)
    return GroundState(n=gs.n, p=gs.p, profile=profile, bracket_width=gs.bracket_width)


def inverse(gs: GroundState, value: float) -> float:
    """r with U(r) = value, for 0 < value < u0 (tail-extended)."""
    if not (0.0 < value < gs.u0):
        raise ValueError("inverse needs a value strictly between 0 and u0")
    r_hi = gs.r_max
    while gs.profile(r_hi) > value:
        r_hi *= 1.5
    return brentq(lambda r: gs.profile(r) - value, 0.0, r_hi, xtol=1e-13)


def fd_derivative(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Second-order derivative estimates on a nonuniform grid."""
    d = np.empty_like(f)
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    d[1:-1] = (hm ** 2 * f[2:] + (hp ** 2 - hm ** 2) * f[1:-1] - hp ** 2 * f[:-2]) / (
        hm * hp * (hm + hp)
    )
    h0, h1 = x[1] - x[0], x[2] - x[1]
    d[0] = (-(2 * h0 + h1) * f[0] + (h0 + h1) ** 2 / h1 * f[1] - h0 ** 2 / h1 * f[2]) / (
        h0 * (h0 + h1)
    )
    hN, hN1 = x[-1] - x[-2], x[-2] - x[-3]
    d[-1] = ((2 * hN + hN1) * f[-1] - (hN + hN1) ** 2 / hN1 * f[-2] + hN ** 2 / hN1 * f[-3]) / (
        hN * (hN + hN1)
    )
    return d


def scipy_e2(gs: GroundState) -> float:
    """The e2 of verify_L0_identities, from scipy's not-a-knot quintic
    through every third node of U."""
    n, p = gs.n, gs.p
    r_all = gs.grid.nodes[::3]
    spline = make_interp_spline(r_all, gs.profile.values[::3], k=5)
    rs = r_all[(r_all > 0) & (r_all < 0.75 * r_all[-1])]
    Us = spline(rs)
    dUs = spline.derivative(1)(rs)
    d2Us = spline.derivative(2)(rs)
    Upm2 = np.abs(Us) ** (p - 2.0)
    wgt = rs ** ((n - 1.0) / 2.0)
    strong = -(d2Us + (n - 1.0) * dUs / rs) + Us - (p - 1.0) * Upm2 * Us
    scale = (2.0 - p) * Upm2 * Us
    return float(np.linalg.norm((strong - scale) * wgt) / np.linalg.norm(scale * wgt))


def scipy_dop853_tableau() -> tuple:
    """scipy's DOP853 tableau as float tuples (C, A, B, E5, E3), C and A
    without the first stage's row."""
    dc, s = dop853_coefficients, dop853_coefficients.N_STAGES
    return (
        tuple(map(float, dc.C[1:s])),
        tuple(tuple(map(float, dc.A[i, :i])) for i in range(1, s)),
        tuple(map(float, dc.B)),
        tuple(map(float, dc.E5)),
        tuple(map(float, dc.E3)),
    )


def scipy_band_solve(rows, offsets, rhs) -> list:
    """radial._band_solve's system, which must be tridiagonal, solved by
    scipy's solve_banded (LAPACK, with partial pivoting)."""
    m = len(rows)
    ab = np.zeros((3, m))
    for i, (row, off) in enumerate(zip(rows, offsets)):
        for col, a in enumerate(row, start=off):
            if abs(col - i) > 1:
                assert a == 0.0, (i, col)
            else:
                ab[1 + i - col, col] = a
    return solve_banded((1, 1), ab, rhs).tolist()


def scipy_d1(r, vals):
    """The first derivative at r of scipy's not-a-knot quintic through
    (r, vals)."""
    return make_interp_spline(r, vals, k=5).derivative(1)(r)
