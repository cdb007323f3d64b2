"""Second-order correction profiles attached to a ground state.

With L0 v = -Lap v + v - (p-1) U^(p-2) v, the radial reduction of L0 on
f(|z|) times a degree-ell harmonic polynomial is

      -f'' - (n-1+2 ell)/r f' + f - (p-1) U^(p-2) f,

and one finite-difference solver handles every degree.  Three profiles
feed the curvature corrections of a concentrating bump:

* psi: the degree-2 profile with L0(psi(|z|) z_k z_l) = (U'/|z|) z_k z_l
  for k != l, i.e. right-hand side U'/r, psi'(0) = 0, psi -> 0 at infinity;
  the constants c3 and c4 are moments of it;

* chi: the degree-0 trace corrector, L0 chi = r U', chi'(0) = 0, chi -> 0;
  on a round sphere the metric part of the second-order residual is
  radial and proportional to r U', so chi cancels it exactly (psi r^2
  would leave the trace defect L0(psi r^2) - r U' = -2n psi);

* v2base(r) = U'(r) r / 2 - U(r) / (2 - p), the explicit radial profile with
  L0 v2base = -U.

The module also provides independent verification helpers: operator
identities recomputed from node data through separate code paths,
midpoint residuals of the psi and chi equations, and a full-dimension
finite-difference check of the psi equation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .groundstate import GroundState, _dg
from .radial import InterpolatingSpline, Quadrature, RadialFunction, TailModel, _band_solve


class SingularSystem(RuntimeError):
    """The discretized correction operator could not be solved."""


@dataclass
class CorrectionProfiles:
    """psi and chi of gs with their discrete residuals; v2base and psi's
    tail exponent are built from gs and psi at construction."""

    gs: GroundState
    psi: RadialFunction
    chi: RadialFunction
    discrete_residual: float  # psi's, absolute
    chi_discrete_residual: float  # relative to max |chi|
    v2base: RadialFunction = field(init=False)
    tail_exponent: float = field(init=False)  # psi's fitted log-slope

    def __post_init__(self):
        self.v2base = build_v2base(self.gs)
        self.tail_exponent = _tail_slope(self.gs, self.psi.values)

    def to_dict(self) -> dict:
        return {
            "n": self.gs.n,
            "p": self.gs.p,
            "grid": self.psi.grid.nodes.tolist(),
            "psi_values": self.psi.values.tolist(),
            "chi_values": self.chi.values.tolist(),
            "v2base_values": self.v2base.values.tolist(),
            "discrete_residual": self.discrete_residual,
            "chi_discrete_residual": self.chi_discrete_residual,
            "tail_exponent": self.tail_exponent,
        }

    def save(self, path) -> None:
        """Store what only the solve can produce: node values, their spline
        first derivatives and the solve's residuals, with the midpoint
        equation residuals of psi and chi that `load` must reproduce.
        `load` rebuilds the rest from the ground state."""
        record = {
            "n": self.gs.n,
            "p": self.gs.p,
            "psi_values": self.psi.values.tolist(),
            "psi_d1": self.psi.d1.tolist(),
            "chi_values": self.chi.values.tolist(),
            "chi_d1": self.chi.d1.tolist(),
            "discrete_residual": self.discrete_residual,
            "chi_discrete_residual": self.chi_discrete_residual,
        }
        for name in ("psi", "chi"):
            record[f"{name}_equation_residual"] = equation_residual(
                self.gs, getattr(self, name), name)
        with open(path, "w") as fh:
            fh.write(json.dumps(record))

    @staticmethod
    def load(gs: GroundState, path) -> "CorrectionProfiles":
        """Profiles saved for gs, bit-equal to correction_profiles(gs).

        Raises ValueError, KeyError or TypeError for a malformed record, one
        saved for another (n, p), arrays that do not fit gs's grid or are
        not finite, a stored discrete residual outside [0, _RESIDUAL_TOL],
        or profiles whose midpoint equation residuals are not the stored ones.
        """
        with open(path) as fh:
            d = json.load(fh)
        if (int(d["n"]), float(d["p"])) != (gs.n, gs.p):
            raise ValueError("profiles were saved for another ground state")
        arrays = {}
        for key in ("psi_values", "psi_d1", "chi_values", "chi_d1"):
            arrays[key] = np.asarray(d[key], dtype=float)
            if arrays[key].shape != gs.grid.nodes.shape:
                raise ValueError(f"{key} does not fit the ground-state grid")
            if not np.all(np.isfinite(arrays[key])):
                raise ValueError(f"{key} holds non-finite values")
        for key in ("discrete_residual", "chi_discrete_residual"):
            if not 0.0 <= float(d[key]) <= _RESIDUAL_TOL:
                raise ValueError(f"{key} {d[key]!r} is not a certified residual")
        cp = CorrectionProfiles(
            gs=gs,
            psi=_profile(gs, "psi", arrays["psi_values"], arrays["psi_d1"]),
            chi=_profile(gs, "chi", arrays["chi_values"], arrays["chi_d1"]),
            discrete_residual=float(d["discrete_residual"]),
            chi_discrete_residual=float(d["chi_discrete_residual"]),
        )
        for name in ("psi", "chi"):
            key = f"{name}_equation_residual"
            if equation_residual(gs, getattr(cp, name), name) != float(d[key]):
                raise ValueError(f"the loaded {name} does not reproduce its {key}")
        return cp


def _assemble_and_solve(r, pot, rhs, n, ell):
    """Tridiagonal FD solve of the degree-ell radial equation on nodes r,

        -f'' - (n-1+2 ell)/r f' + pot f = rhs,  f'(0) = 0,  f(r[-1]) = 0,

    where rhs[0] is the r -> 0 limit of the source; returns (f values, max
    discrete residual)."""
    m = r.size
    lower = np.zeros(m - 1)
    diag = np.zeros(m)
    upper = np.zeros(m - 1)
    rhs = np.array(rhs, dtype=float)

    # r = 0 row: f even, operator limit -2(n+2 ell) f_2 + pot f_0 = rhs_0
    h1 = r[1] - r[0]
    diag[0] = 2.0 * (n + 2.0 * ell) / h1 ** 2 + pot[0]
    upper[0] = -2.0 * (n + 2.0 * ell) / h1 ** 2

    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    den = hm * hp * (hm + hp)
    # second derivative weights
    w2_prev = 2.0 * hp / den
    w2_mid = -2.0 * (hm + hp) / den
    w2_next = 2.0 * hm / den
    # first derivative weights
    w1_prev = -(hp ** 2) / den
    w1_mid = (hp ** 2 - hm ** 2) / den
    w1_next = hm ** 2 / den
    coef1 = (n - 1.0 + 2.0 * ell) / r[1:-1]
    lower[:-1] = -w2_prev - coef1 * w1_prev
    diag[1:-1] = -w2_mid - coef1 * w1_mid + pot[1:-1]
    upper[1:] = -w2_next - coef1 * w1_next

    diag[-1] = 1.0
    lower[-1] = 0.0
    rhs[-1] = 0.0

    # row i holds columns i-1, i, i+1; the first and last rows are shifted
    # to stay inside the matrix, as _band_solve's windows must
    rows = np.column_stack((np.r_[0.0, lower], diag, np.r_[upper, 0.0])).tolist()
    rows[0] = rows[0][1:] + [0.0]
    rows[-1] = [0.0] + rows[-1][:2]
    try:
        vals = np.array(_band_solve(rows, [0, *range(m - 2), m - 3], rhs.tolist()))
    except ZeroDivisionError as exc:
        raise SingularSystem("tridiagonal elimination met a zero pivot") from exc
    if not np.all(np.isfinite(vals)):
        raise SingularSystem("tridiagonal solve produced non-finite values")

    res = diag * vals
    res[:-1] += upper * vals[1:]
    res[1:] += lower * vals[:-1]
    res -= rhs
    return vals, float(np.max(np.abs(res)))


def _psi_source(r, U, dU, p, n):
    """U'/r, with its r -> 0 limit U''(0) taken from the ground-state ODE."""
    src = np.empty_like(r)
    at0 = r == 0.0
    src[~at0] = dU[~at0] / r[~at0]
    src[at0] = (U[at0] - np.abs(U[at0]) ** (p - 1.0)) / n
    return src


def _chi_source(r, U, dU, p, n):
    """r U', which vanishes at r = 0."""
    return r * dU


# name -> (harmonic degree ell, source(r, U, U', p, n), k in the far field
# c r^(k - (n-1)/2) e^(-r)); chi's k = 2 because its source r U' is resonant
# with the decaying solution of -Lap + 1
_EQUATIONS = {"psi": (2, _psi_source, 0.0), "chi": (0, _chi_source, 2.0)}


def _solve_radial(gs: GroundState, name: str):
    """(node values, first derivative, discrete residual) of the named
    degree-ell radial equation.

    Second-order centered differences (three-point nonuniform stencils), a
    regularized even-symmetry row at r = 0 and a Dirichlet zero at r_max,
    solved on the grid and on its midpoint refinement, then Richardson-
    extrapolated at the nodes.  The first derivative is that of the
    not-a-knot quintic radial.InterpolatingSpline through the node values
    (FD jitter in d1 would put C2 kinks in the interpolant).
    """
    ell, source, _ = _EQUATIONS[name]
    n, p = gs.n, gs.p
    r = gs.grid.nodes
    U = gs.profile.values
    dU = gs.profile.d1
    vals_c, res_c = _assemble_and_solve(r, _dg(U, p), source(r, U, dU, p, n), n, ell)

    r_fine = np.sort(np.concatenate([r, 0.5 * (r[1:] + r[:-1])]))
    U_f, dU_f, _ = gs.profile.evaluate(gs.grid.locate(r_fine))
    vals_f, res_f = _assemble_and_solve(
        r_fine, _dg(U_f, p), source(r_fine, U_f, dU_f, p, n), n, ell,
    )
    # cell-split refinement quarters the h^2 error pointwise
    vals = (4.0 * vals_f[::2] - vals_c) / 3.0
    # the r = 0 row's h^2 truncation is not the r -> 0 limit of the interior
    # rows', which leaves an O(h^4) kink at the origin node that Richardson
    # does not cancel, so re-derive f(0) from the next three nodes as a
    # quadratic in r^2
    x = r[1:4] ** 2
    vals[0] = sum(
        vals[1 + i] * np.prod([x[j] / (x[j] - x[i]) for j in range(3) if j != i])
        for i in range(3)
    )
    d1 = InterpolatingSpline(r, vals, 5)(r, 1)
    d1[0] = 0.0
    return vals, d1, max(res_c, res_f)


def _profile(gs: GroundState, name: str, vals, d1) -> RadialFunction:
    """The named profile from its node values and first derivative.

    The second derivative comes from the ODE, with the even-symmetry limit
    (n+2 ell) f''(0) = pot f - src, and the far field is fitted for tail
    completion.  Solved and loaded profiles both pass through here, so they
    agree bit for bit.
    """
    ell, source, power = _EQUATIONS[name]
    n, p = gs.n, gs.p
    r = gs.grid.nodes
    U = gs.profile.values
    pot = _dg(U, p)
    src = source(r, U, gs.profile.d1, p, n)
    d2 = np.empty(r.size)
    d2[1:] = -(n - 1.0 + 2.0 * ell) * d1[1:] / r[1:] + pot[1:] * vals[1:] - src[1:]
    d2[0] = (pot[0] * vals[0] - src[0]) / (n + 2.0 * ell)

    tail_power = power - (n - 1.0) / 2.0
    r_max = gs.r_max
    fitwin = (r > 0.5 * r_max) & (r < 0.7 * r_max)
    shape = r[fitwin] ** tail_power * np.exp(-r[fitwin])
    c_tail = float(np.sum(shape * vals[fitwin]) / np.sum(shape * shape))
    return RadialFunction(gs.grid, vals, d1, d2, tail=TailModel(c_tail, tail_power, 1.0))


# bound on the discrete residuals of psi (absolute) and chi (relative)
_RESIDUAL_TOL = 1e-8


def _certify(name: str, residual: float) -> None:
    if not residual <= _RESIDUAL_TOL:
        raise SingularSystem(
            f"{name} discrete residual {residual:.2e} exceeds {_RESIDUAL_TOL:.2e}"
        )


def _tail_slope(gs: GroundState, vals) -> float:
    """Fitted log-slope of psi over a mid-tail window, clear of the
    Dirichlet cap; nan when the window holds fewer than 10 nodes."""
    r, r_max = gs.grid.nodes, gs.r_max
    win = (r > 0.45 * r_max) & (r < 0.65 * r_max) & (np.abs(vals) > 0)
    if win.sum() < 10:
        return np.nan
    A = np.stack([np.ones(win.sum()), r[win]], axis=1)
    return float(np.linalg.lstsq(A, np.log(np.abs(vals[win])), rcond=None)[0][1])


def correction_profiles(gs: GroundState) -> CorrectionProfiles:
    """Solve psi and chi and bundle them with their discrete residuals.

    psi's discrete residual is certified in absolute terms.  chi reaches ~300
    at (n, m) = (6, 3), where rounding alone leaves an absolute discrete
    residual of 4e-8, so its residual is certified relative to max |chi|.
    Raises SingularSystem when either exceeds _RESIDUAL_TOL.
    """
    psi_vals, psi_d1, resid = _solve_radial(gs, "psi")
    _certify("psi", resid)
    chi_vals, chi_d1, chi_res = _solve_radial(gs, "chi")
    chi_resid = float(chi_res / np.max(np.abs(chi_vals)))
    _certify("chi", chi_resid)
    return CorrectionProfiles(
        gs=gs,
        psi=_profile(gs, "psi", psi_vals, psi_d1),
        chi=_profile(gs, "chi", chi_vals, chi_d1),
        discrete_residual=resid,
        chi_discrete_residual=chi_resid,
    )


def build_v2base(gs: GroundState) -> RadialFunction:
    """v2base = U' r / 2 - U / (2 - p); satisfies L0 v2base = -U."""
    p = gs.p
    r = gs.grid.nodes
    # ODE-exact node derivatives of U, with U'''(0) = 0 by even symmetry
    U, dU, d2U, d3U = gs.profile.values, gs.profile.d1, gs.profile.d2, gs.profile.d3
    q = 1.0 / (2.0 - p)
    vals = 0.5 * dU * r - q * U
    d1 = 0.5 * (d2U * r + dU) - q * dU
    d2 = 0.5 * (d3U * r + 2.0 * d2U) - q * d2U
    # far field: v2base ~ -U * (r/2 + 1/(2-p) + ...), keep the leading power
    u = gs.profile.tail
    return RadialFunction(gs.grid, vals, d1, d2, tail=TailModel(-0.5 * u.c, u.a + 1.0, u.b))


_TEST_WIDTHS = (0.8, 1.5, 3.0)


def _weak_residuals(gs: GroundState):
    """Weak-form relative residuals of the two first-order identities.

    Third-order differentiation of tabulated values amplifies the solver's
    ~1e-10 value noise past 1e-4, so identities involving U''' are paired
    against analytic Gaussian test profiles instead: L0 and Lap are
    self-adjoint in the radial volume measure and boundary terms decay, so
    every derivative lands on the test function and only (U, U') node data
    enter.  Returns (e1, e3) maximized over test widths, where

      e1: L0(U' r) = -2 Lap U
      e3: L0(v2base) = -U
    """
    n, p = gs.n, gs.p
    quad = Quadrature(gs.grid)
    r = quad.points
    U, dU, _ = gs.profile.evaluate(gs.grid.locate(r))
    Upm2 = np.abs(U) ** (p - 2.0)
    q = 1.0 / (2.0 - p)
    e1 = 0.0
    e3 = 0.0
    for sig in _TEST_WIDTHS:
        phi = np.exp(-(r ** 2) / (2.0 * sig ** 2))
        dphi = -r / sig ** 2 * phi
        d2phi = (r ** 2 / sig ** 2 - 1.0) / sig ** 2 * phi
        lap_phi = d2phi + (n - 1.0) * dphi / r
        L0phi = -lap_phi + phi - (p - 1.0) * Upm2 * phi
        vol = r ** (n - 1.0)
        rhs1 = quad.integrate(-2.0 * U * lap_phi * vol)
        lhs1 = quad.integrate(dU * r * L0phi * vol)
        e1 = max(e1, abs(lhs1 - rhs1) / abs(rhs1))
        rhs3 = quad.integrate(-U * phi * vol)
        lhs3 = quad.integrate((0.5 * dU * r - q * U) * L0phi * vol)
        e3 = max(e3, abs(lhs3 - rhs3) / abs(rhs3))
    return e1, e3


def verify_L0_identities(gs: GroundState) -> dict:
    """Relative residuals of two exact operator identities.

    e1 checks L0(U' r) = -2 Lap U in weak form (see _weak_residuals).
    e2 checks L0(U) = (2-p) U^(p-1) in strong form, with U' and U'' taken
    from a fresh quintic radial.InterpolatingSpline through the stored node
    values only, and is reported as a weighted-L2 relative residual over the
    grid interior.
    """
    n, p = gs.n, gs.p
    # every 3rd node: differentiation amplifies value noise by 1/h^2, and the
    # wider spacing buys a 9x noise cut at negligible truncation cost
    r_all = gs.grid.nodes[::3]
    spline = InterpolatingSpline(r_all, gs.profile.values[::3], 5)
    rb = r_all[-1] * 0.75  # keep clear of spline boundary artifacts
    rs = r_all[(r_all > 0) & (r_all < rb)]
    Us, dUs, d2Us = (spline(rs, nu) for nu in range(3))
    Upm2 = np.abs(Us) ** (p - 2.0)
    wgt = rs ** ((n - 1.0) / 2.0)
    strong = -(d2Us + (n - 1.0) * dUs / rs) + Us - (p - 1.0) * Upm2 * Us
    scale = (2.0 - p) * Upm2 * Us
    e2 = float(np.linalg.norm((strong - scale) * wgt) / np.linalg.norm(scale * wgt))
    e1, _ = _weak_residuals(gs)
    return {"e1": e1, "e2": e2}


def v2base_identity_residual(gs: GroundState) -> float:
    """Relative residual of L0(v2base) = -U, in the same weak form as e1."""
    return _weak_residuals(gs)[1]


def equation_residual(gs: GroundState, f: RadialFunction, name: str) -> float:
    """Max residual of the named equation ("psi" or "chi") for f at the
    midpoints of gs's grid cells, between the nodes the solve used."""
    ell, source, _ = _EQUATIONS[name]
    n, p = gs.n, gs.p
    nodes = gs.grid.nodes
    r = 0.5 * (nodes[1:] + nodes[:-1])
    at = gs.grid.locate(r)
    vals, dvals, d2vals = f.evaluate(at)
    U, dU, _ = gs.profile.evaluate(at)
    res = (-d2vals - (n - 1.0 + 2.0 * ell) * dvals / r + _dg(U, p) * vals
           - source(r, U, dU, p, n))
    return float(np.max(np.abs(res)))


def operator_identity_check(gs: GroundState, psi: RadialFunction) -> float:
    """Full-dimension check of L0(psi(|z|) z1 z2) = (U'/|z|) z1 z2.

    Applies a (2n+1)-point second-order finite-difference Laplacian of step
    0.005 in all n coordinates at 4000 seeded sample points with 0.4 <= |z|
    <= 4 (no radial reduction anywhere), and returns the maximum relative
    deviation over samples where the target is not vanishingly small.
    """
    n, p = gs.n, gs.p
    n_samples, h = 4000, 0.005
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(n_samples, n))
    radii = rng.uniform(0.4, 4.0, size=n_samples)
    pts *= (radii / np.linalg.norm(pts, axis=1))[:, None]

    def field(z):
        rr = np.linalg.norm(z, axis=-1)
        return psi(rr) * z[..., 0] * z[..., 1]

    lap = -2.0 * n * field(pts) / h ** 2
    for k in range(n):
        shift = np.zeros(n)
        shift[k] = h
        lap += (field(pts + shift) + field(pts - shift)) / h ** 2

    r = np.linalg.norm(pts, axis=1)
    U, dU, _ = gs.profile.evaluate(gs.grid.locate(r))
    F = field(pts)
    lhs = -lap + F - (p - 1.0) * np.abs(U) ** (p - 2.0) * F
    target = dU / r * pts[:, 0] * pts[:, 1]
    floor = 1e-2 * np.max(np.abs(target))
    mask = np.abs(target) > floor
    return float(np.max(np.abs(lhs[mask] - target[mask]) / np.abs(target[mask])))
