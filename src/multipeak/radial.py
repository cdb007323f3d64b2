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
from typing import Callable, NamedTuple, Optional

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
    """Strictly increasing nodes starting at 0; widths are the cell widths."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 8:
            raise GridError("grid needs at least 8 nodes")
        if nodes[0] != 0.0:
            raise GridError("grid must start at r = 0")
        widths = np.diff(nodes)
        if np.any(widths <= 0):
            raise GridError("grid nodes must be strictly increasing")
        object.__setattr__(self, "widths", widths)

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

    def locate(self, r) -> "Located":
        """The interval lookup of the points r, shared by every profile here."""
        r = np.asarray(r, dtype=float)
        inside = r <= self.r_max
        ri = r[inside]
        x = self.nodes
        idx = np.clip(np.searchsorted(x, ri, side="right") - 1, 0, x.size - 2)
        h = self.widths[idx]
        return Located(self, r, inside, idx, h, (ri - x[idx]) / h)


class Located(NamedTuple):
    """Points r placed in the cells of one RadialGrid.

    idx, h and tau (cell index, cell width, position in the cell) cover the
    points with r <= r_max, in the order of r[inside]; the rest lie in the
    tail.  One lookup serves every channel of every RadialFunction on the
    grid, so a caller that needs several of them searches once.
    """

    grid: RadialGrid
    r: np.ndarray
    inside: np.ndarray
    idx: np.ndarray
    h: np.ndarray
    tau: np.ndarray


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
        h = grid.widths
        data = [self.values, self.d1, self.d2] + ([] if self.d3 is None else [self.d3])
        coeffs = _hermite_coeffs(h, *data)
        # per derivative order: the cells' polynomial coefficients in tau and
        # how often to differentiate them, which is also the power of h that
        # turns d/dtau into d/dr
        self._channel_coeffs = [(coeffs, 0), (coeffs, 1), (coeffs, 2)]
        if self.d4 is not None:
            self._channel_coeffs[1] = (_hermite_coeffs(h, self.d1, self.d2, self.d3, self.d4), 0)
            self._channel_coeffs[2] = (_hermite_coeffs(h, self.d2, self.d3, self.d4), 0)

    def _channels(self, at: Located, orders):
        """f^(k) at the located points for each k in orders, tail beyond r_max."""
        if at.grid is not self.grid:
            at = self.grid.locate(at.r)
        outside = ~at.inside
        tail_r = at.r[outside] if outside.any() else None
        out = []
        for k in orders:
            if k not in (0, 1, 2):
                raise ValueError("deriv must be 0, 1 or 2")
            coeffs, deriv = self._channel_coeffs[k]
            vals = _horner(coeffs, at.idx, at.tau, deriv)
            if deriv:
                vals /= at.h ** deriv
            f = np.empty_like(at.r)
            f[at.inside] = vals
            if tail_r is not None:
                if self.tail is None:
                    f[outside] = 0.0
                else:
                    f[outside] = (self.tail.value, self.tail.d1, self.tail.d2)[k](tail_r)
            out.append(f[()])
        return out

    def evaluate(self, at: Located, order: int = 2) -> tuple:
        """(f, f', ..., f^(order)) at points located on this grid, order <= 2."""
        return tuple(self._channels(at, range(order + 1)))

    def __call__(self, r):
        return self._channels(self.grid.locate(r), (0,))[0]

    def deriv1(self, r):
        return self._channels(self.grid.locate(r), (1,))[0]

    def deriv2(self, r):
        return self._channels(self.grid.locate(r), (2,))[0]


def _horner(coeffs, idx, tau, deriv: int = 0):
    """d^deriv/dtau^deriv of sum over k of coeffs[k, idx] tau^k, deriv <= 2,
    gathering one row at a time."""
    def term(k):
        c = coeffs[k].take(idx)
        if deriv:
            c *= k if deriv == 1 else k * (k - 1)
        return c

    m = coeffs.shape[0] - 1
    out = term(m)
    for k in range(m - 1, deriv - 1, -1):
        out *= tau
        out += term(k)
    return out


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
