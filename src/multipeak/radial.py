"""Radial grids, piecewise-quintic profiles, and quadrature on [0, r_max].

Profiles of radial functions f(|z|) on R^n are stored as node values plus
first and second derivatives on a graded grid and interpolated by local
quintic Hermite polynomials, so f, f' and f'' are all continuous.  Cell-wise
Gauss-Legendre rules integrate such profiles (against polynomial weights
r^k) essentially to machine accuracy, and an optional exponential tail model
c * r^a * exp(-b r) completes integrals past the end of the grid in closed
form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gamma as gamma_fn


def surface_area(n: int) -> float:
    """Measure of the unit sphere S^{n-1} in R^n."""
    return 2.0 * np.pi ** (n / 2.0) / gamma_fn(n / 2.0)


# Hermite quintic: p(tau), tau in [0,1], matching f, h f', h^2 f'' at both ends.
# Columns of _H5 give monomial coefficients for each of the six scaled data.
_cond = np.zeros((6, 6))
for _k in range(6):
    _cond[0, _k] = 1.0 if _k == 0 else 0.0          # p(0)
    _cond[1, _k] = 1.0 if _k == 1 else 0.0          # p'(0)
    _cond[2, _k] = 2.0 if _k == 2 else 0.0          # p''(0)
    _cond[3, _k] = 1.0                               # p(1)
    _cond[4, _k] = _k                                # p'(1)
    _cond[5, _k] = _k * (_k - 1)                     # p''(1)
_H5 = np.linalg.inv(_cond)
del _cond, _k

# Hermite septic: also matches h^3 f''' at both ends.  Used when the data
# carry ODE-exact third derivatives; the h^6 truncation keeps the pointwise
# equation defect of the interpolant near the integrator noise floor.
_cond = np.zeros((8, 8))
for _k in range(8):
    _cond[0, _k] = 1.0 if _k == 0 else 0.0          # p(0)
    _cond[1, _k] = 1.0 if _k == 1 else 0.0          # p'(0)
    _cond[2, _k] = 2.0 if _k == 2 else 0.0          # p''(0)
    _cond[3, _k] = 6.0 if _k == 3 else 0.0          # p'''(0)
    _cond[4, _k] = 1.0                               # p(1)
    _cond[5, _k] = _k                                # p'(1)
    _cond[6, _k] = _k * (_k - 1)                     # p''(1)
    _cond[7, _k] = _k * (_k - 1) * (_k - 2)          # p'''(1)
_H7 = np.linalg.inv(_cond)
del _cond, _k


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing nodes starting at 0."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 8:
            raise GridError("grid needs at least 8 nodes")
        if nodes[0] != 0.0:
            raise GridError("grid must start at r = 0")
        if np.any(np.diff(nodes) <= 0):
            raise GridError("grid nodes must be strictly increasing")

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    @staticmethod
    def graded(r_max: float, n_nodes: int = 4000, knee: float = 10.0) -> "RadialGrid":
        """Two-zone grid: dense on [0, knee], coarser on [knee, r_max].

        Roughly 60% of the nodes resolve the core and turning region.
        """
        if r_max <= 0:
            raise GridError("r_max must be positive")
        knee = min(knee, 0.5 * r_max)
        n_in = max(int(0.6 * n_nodes), 8)
        n_out = max(n_nodes - n_in, 8)
        inner = np.linspace(0.0, knee, n_in + 1)
        outer = np.linspace(knee, r_max, n_out + 1)[1:]
        return RadialGrid(np.concatenate([inner, outer]))


@dataclass(frozen=True)
class TailModel:
    """f(r) ~ c * r**a * exp(-b*r) for r beyond the grid."""

    c: float
    a: float
    b: float

    def value(self, r):
        r = np.asarray(r, dtype=float)
        return self.c * r ** self.a * np.exp(-self.b * r)

    def d1(self, r):
        r = np.asarray(r, dtype=float)
        return self.value(r) * (self.a / r - self.b)

    def d2(self, r):
        r = np.asarray(r, dtype=float)
        return self.value(r) * ((self.a / r - self.b) ** 2 - self.a / r ** 2)

    def integral(self, R: float, k: float = 0.0) -> float:
        """Closed form of int_R^inf c r^(a+k) e^(-b r) dr via upper incomplete gamma."""
        return tail_power_integral(self.c, self.a + k, self.b, R)

    def powered(self, q: float) -> "TailModel":
        return TailModel(self.c ** q, self.a * q, self.b * q)


_lag_x, _lag_w = np.polynomial.laguerre.laggauss(60)


def tail_power_integral(c: float, a: float, b: float, R: float) -> float:
    """int_R^inf c r^a e^(-b r) dr by Gauss-Laguerre after shifting to [0, inf).

    Valid for any real power a (the integrand is analytic on the shifted
    half-line); intended for b*R >> 1 where the rule is machine accurate.
    """
    if b <= 0 or R <= 0:
        raise ValueError("tail integral needs decay rate b > 0 and R > 0")
    vals = (R + _lag_x / b) ** a
    return float(c * np.exp(-b * R) / b * np.dot(_lag_w, vals))


def _hermite_coeffs(h, *rows):
    """Monomial coefficients per cell from scaled two-point Hermite data.

    rows are node arrays of f and its derivatives; scaling by powers of h
    happens here.  Returns coeffs[k, i] for tau^k on cell i.
    """
    scaled = []
    for j, row in enumerate(rows):
        scaled.append(row[:-1] * h ** j)
    for j, row in enumerate(rows):
        scaled.append(row[1:] * h ** j)
    basis = _H5 if len(rows) == 3 else _H7
    return basis @ np.stack(scaled, axis=0)


class RadialFunction:
    """Piecewise Hermite interpolant of (f, f', f'') node data.

    Quintic cells by default; septic when third derivatives are supplied.
    When fourth derivatives are also supplied, the first and second
    derivative evaluations switch to dedicated Hermite channels built from
    their own node data: differentiating the value polynomial amplifies
    node-data rounding by 1/h^2, which dominates the equation defect on
    fine grids, while the channel form keeps the noise at the data scale.
    Evaluation outside [0, r_max] uses the attached TailModel when present,
    otherwise returns 0.
    """

    def __init__(self, grid: RadialGrid, values, d1, d2, tail: Optional[TailModel] = None,
                 d3=None, d4=None):
        self.grid = grid
        self.values = np.asarray(values, dtype=float)
        self.d1 = np.asarray(d1, dtype=float)
        self.d2 = np.asarray(d2, dtype=float)
        self.d3 = None if d3 is None else np.asarray(d3, dtype=float)
        self.d4 = None if d4 is None else np.asarray(d4, dtype=float)
        if self.d4 is not None and self.d3 is None:
            raise ValueError("d4 data requires d3 data")
        self.tail = tail
        m = grid.size
        arrays = [self.values, self.d1, self.d2]
        for extra in (self.d3, self.d4):
            if extra is not None:
                arrays.append(extra)
        for arr in arrays:
            if arr.shape != (m,):
                raise ValueError("data arrays must match the grid size")
            if not np.all(np.isfinite(arr)):
                raise ValueError("profile data must be finite")
        x = grid.nodes
        h = np.diff(x)
        if self.d3 is None:
            self._coeffs = _hermite_coeffs(h, self.values, self.d1, self.d2)
        else:
            self._coeffs = _hermite_coeffs(h, self.values, self.d1, self.d2, self.d3)
        if self.d4 is not None:
            self._coeffs1 = _hermite_coeffs(h, self.d1, self.d2, self.d3, self.d4)
            self._coeffs2 = _hermite_coeffs(h, self.d2, self.d3, self.d4)
        else:
            self._coeffs1 = None
            self._coeffs2 = None
        self._h = h

    def _split(self, r):
        r = np.asarray(r, dtype=float)
        inside = r <= self.grid.r_max
        return r, inside

    def _eval_inside(self, r, deriv: int):
        x = self.grid.nodes
        idx = np.clip(np.searchsorted(x, r, side="right") - 1, 0, x.size - 2)
        h = self._h[idx]
        tau = (r - x[idx]) / h
        if deriv == 1 and self._coeffs1 is not None:
            return self._horner(self._coeffs1, idx, tau)
        if deriv == 2 and self._coeffs2 is not None:
            return self._horner(self._coeffs2, idx, tau)
        c = self._coeffs[:, idx]
        m = self._coeffs.shape[0] - 1
        if deriv == 0:
            out = c[m]
            for k in range(m - 1, -1, -1):
                out = out * tau + c[k]
            return out
        if deriv == 1:
            out = m * c[m]
            for k in range(m - 1, 0, -1):
                out = out * tau + k * c[k]
            return out / h
        if deriv == 2:
            out = m * (m - 1) * c[m]
            for k in range(m - 1, 1, -1):
                out = out * tau + k * (k - 1) * c[k]
            return out / h ** 2
        raise ValueError("deriv must be 0, 1 or 2")

    @staticmethod
    def _horner(coeffs, idx, tau):
        c = coeffs[:, idx]
        out = c[-1]
        for k in range(coeffs.shape[0] - 2, -1, -1):
            out = out * tau + c[k]
        return out

    def _eval(self, r, deriv: int):
        r, inside = self._split(r)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        inside = np.atleast_1d(inside)
        out = np.empty_like(r)
        if np.any(inside):
            out[inside] = self._eval_inside(r[inside], deriv)
        if np.any(~inside):
            ro = r[~inside]
            if self.tail is None:
                out[~inside] = 0.0
            else:
                out[~inside] = (self.tail.value, self.tail.d1, self.tail.d2)[deriv](ro)
        return out[0] if scalar else out

    def __call__(self, r):
        return self._eval(r, 0)

    def deriv1(self, r):
        return self._eval(r, 1)

    def deriv2(self, r):
        return self._eval(r, 2)


def _fd_derivative(x: np.ndarray, f: np.ndarray) -> np.ndarray:
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


class Quadrature:
    """Composite Gauss-Legendre rule over the cells of a RadialGrid."""

    def __init__(self, grid: RadialGrid, order: int = 8):
        gl_x, gl_w = leggauss(order)
        x = grid.nodes
        h = np.diff(x)
        # nodes[i, q] = cell i mapped GL point q
        self.points = (x[:-1, None] + h[:, None] * (gl_x[None, :] + 1.0) / 2.0).ravel()
        self.weights = (h[:, None] * gl_w[None, :] / 2.0).ravel()
        self.grid = grid

    def integrate(self, values) -> float:
        return float(np.dot(self.weights, values))

    def integrate_fn(self, fn: Callable, power: float = 0.0) -> float:
        vals = fn(self.points)
        if power:
            vals = vals * self.points ** power
        return self.integrate(vals)


# Moment reduction over R^n: int f(|z|) w(z) dz = kappa * omega_{n-1} * int f r^(n-1+k) dr
_WEIGHTS = {
    "1": (lambda n: 1.0, 0),
    "z1^2": (lambda n: 1.0 / n, 2),
    "z1^4": (lambda n: 3.0 / (n * (n + 2)), 4),
    "|z|^2": (lambda n: 1.0, 2),
    "|z|^4": (lambda n: 1.0, 4),
}

_ODD_WEIGHTS = {"z1", "z1*z2", "z1^2*z2", "z1^3", "z1*z2*z3"}


def moment_weight(weight: str, n: int) -> tuple[float, int]:
    """(kappa, k) such that int f(|z|) w dz = kappa * omega * int f r^(n-1+k) dr."""
    if weight in _ODD_WEIGHTS:
        return 0.0, 0
    try:
        kappa, k = _WEIGHTS[weight]
    except KeyError:
        raise KeyError(f"unknown moment weight {weight!r}") from None
    return kappa(n), k


def moment_reduce(profile, weight: str, n: int, quad: Optional[Quadrature] = None,
                  tail: Optional[TailModel] = None) -> float:
    """Integral of profile(|z|) * weight(z) over R^n by radial reduction.

    profile may be a RadialFunction (its grid and tail are used) or a plain
    callable combined with an explicit Quadrature.  Odd monomial weights
    vanish by parity and return exactly 0.0.
    """
    kappa, k = moment_weight(weight, n)
    if kappa == 0.0:
        return 0.0
    if isinstance(profile, RadialFunction):
        quad = quad or Quadrature(profile.grid)
        tail = tail if tail is not None else profile.tail
    elif quad is None:
        raise ValueError("callable profiles need an explicit Quadrature")
    omega = surface_area(n)
    core = quad.integrate_fn(profile, power=n - 1 + k)
    extra = 0.0
    if tail is not None:
        extra = tail.integral(quad.grid.r_max, k=n - 1 + k)
    return kappa * omega * (core + extra)
