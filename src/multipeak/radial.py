"""Radial grids, piecewise-quintic profiles, and quadrature on [0, r_max].

Profiles of radial functions f(|z|) on R^n are stored as node values plus
derivatives on a graded grid and interpolated by local Hermite polynomials,
so f, f' and f'' are all continuous.  A RadialFunction has two forms: the
quintic form from (f, f', f''), and the channel form, which also takes f'''
and f'''' and interpolates each of f, f', f'' from its own node data
(septic, septic, quintic; built from one _hermite_basis).  Cell-wise
Gauss-Legendre rules integrate such profiles (against polynomial weights
r^k) essentially to machine accuracy.  gauss_panels is the one map of a
rule onto panels: Quadrature lays GL8 on a grid's cells, and energy's
polar panels take GL8 from here too.  Every integral is one fixed-order
np.sum of weights times values, never a BLAS dot, so its bits do not
depend on the BLAS thread count.

Two names here are the only ones that know a far field and its integral.
TailModel c * r^a * exp(-b r) is a profile's form past the end of its grid,
and TailModel.integral integrates it from there to infinity.  moment_reduce
is the one integral over R^n of a radial profile times an even moment
weight, completed past the grid by a TailModel; an integrand that is a
power q of a profile takes the profile's tail raised to q
(TailModel.powered).  It takes the integrand's values at the rule's
points, where one locate serves the evaluate of every profile read.

InterpolatingSpline is the library's one interpolating spline: not-a-knot,
odd degree, solved on Python floats without a BLAS call, read as Taylor
pieces.  The e2 identity check and the warped sphere's warp are built on it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss


def surface_area(n: int) -> float:
    """Measure of the unit sphere S^{n-1} in R^n."""
    return 2.0 * np.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _hermite_basis(k: int) -> np.ndarray:
    """Monomial coefficients of the two-point Hermite polynomial p(tau), tau
    in [0, 1], of degree 2k - 1 that matches h^j f^(j) for j < k at both ends.

    Column i gives p's coefficients for the i-th scaled datum, the k data at
    tau = 0 first, then the k at tau = 1.
    """
    cond = np.zeros((2 * k, 2 * k))
    for j in range(k):
        cond[j, j] = math.factorial(j)                            # p^(j)(0)
        cond[k + j] = [math.perm(i, j) for i in range(2 * k)]     # p^(j)(1)
    return np.linalg.inv(cond)


# quintic from (f, f', f''); septic from four consecutive derivatives, whose
# h^6 truncation keeps the pointwise equation defect of an ODE profile near
# the integrator noise floor
_H5, _H7 = _hermite_basis(3), _hermite_basis(4)


class GridError(ValueError):
    pass


# end of the dense inner zone of RadialGrid.graded
_KNEE = 10.0


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
    def graded(r_max: float, n_nodes: int = 4000) -> "RadialGrid":
        """Two-zone grid: dense on [0, knee], coarser on [knee, r_max], with
        knee = min(_KNEE, r_max / 2).

        Roughly 60% of the nodes resolve the core and turning region.
        """
        if r_max <= 0:
            raise GridError("r_max must be positive")
        knee = min(_KNEE, 0.5 * r_max)
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


# Gauss-Laguerre rule of TailModel.integral
_lag_x, _lag_w = np.polynomial.laguerre.laggauss(60)


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
        """int_R^inf c r^(a+k) e^(-b r) dr by Gauss-Laguerre after shifting
        to [0, inf).

        Valid for any real power a + k (the integrand is analytic on the
        shifted half-line); intended for b*R >> 1 where the rule is machine
        accurate.
        """
        if self.b <= 0 or R <= 0:
            raise ValueError("tail integral needs decay rate b > 0 and R > 0")
        vals = (R + _lag_x / self.b) ** (self.a + k)
        return float(self.c * np.exp(-self.b * R) / self.b * np.sum(_lag_w * vals))

    def powered(self, q: float) -> "TailModel":
        return TailModel(self.c ** q, self.a * q, self.b * q)


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
    """Piecewise Hermite interpolant of radial node data, in one of two forms.

    The quintic form takes (f, f', f'') and differentiates its cells for f'
    and f''.  The channel form also takes d3 and d4, which come together,
    and gives each derivative its own Hermite channel from its own node
    data: f septic from (f, f', f'', f'''), f' septic from (f', f'', f''',
    f''''), f'' quintic from (f'', f''', f'''').  Differentiating the value
    polynomial amplifies node-data rounding by 1/h^2, which dominates the
    equation defect on fine grids; the channel form keeps the noise at the
    data scale.  Evaluation outside [0, r_max] uses the attached TailModel
    when present, otherwise returns 0.
    """

    def __init__(self, grid: RadialGrid, values, d1, d2, tail: Optional[TailModel] = None,
                 d3=None, d4=None):
        if (d3 is None) != (d4 is None):
            raise ValueError("the channel form needs d3 and d4 together")
        self.grid = grid
        self.values = np.asarray(values, dtype=float)
        self.d1 = np.asarray(d1, dtype=float)
        self.d2 = np.asarray(d2, dtype=float)
        self.d3 = None if d3 is None else np.asarray(d3, dtype=float)
        self.d4 = None if d4 is None else np.asarray(d4, dtype=float)
        self.tail = tail
        rows = [self.values, self.d1, self.d2]
        if self.d3 is not None:
            rows += [self.d3, self.d4]
        for arr in rows:
            if arr.shape != (grid.size,):
                raise ValueError("data arrays must match the grid size")
            if not np.all(np.isfinite(arr)):
                raise ValueError("profile data must be finite")
        h = grid.widths
        # per derivative order: the cells' polynomial coefficients in tau and
        # how often to differentiate them, which is also the power of h that
        # turns d/dtau into d/dr
        if self.d3 is None:
            coeffs = _hermite_coeffs(h, *rows)
            self._channel_coeffs = [(coeffs, 0), (coeffs, 1), (coeffs, 2)]
        else:
            # f, f' and f'' from rows 0-3, 1-4 and 2-4
            self._channel_coeffs = [(_hermite_coeffs(h, *rows[k:k + 4]), 0) for k in range(3)]

    def _channels(self, at: Located, orders):
        """f^(k) at the located points for each k in orders, tail beyond r_max."""
        if at.grid is not self.grid:
            at = self.grid.locate(at.r)
        outside = ~at.inside
        tail_r = at.r[outside] if outside.any() else None
        out = []
        for k in orders:
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

    def evaluate(self, at: Located) -> tuple:
        """(f, f', f'') at points located on this grid."""
        return tuple(self._channels(at, (0, 1, 2)))

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


def _bspline_rows(t, k: int, x, j):
    """The degree-k B-splines B_(j-k), ..., B_j at the points x, each in
    [t[j], t[j+1]]: de Boor's BSPLVB recurrence, elementwise on arrays."""
    rows = [np.ones_like(x)]
    for d in range(1, k + 1):
        saved = np.zeros_like(x)
        new = []
        for r in range(d):
            right = t[j + r + 1] - x
            left = x - t[j + r + 1 - d]
            temp = rows[r] / (t[j + r + 1] - t[j + r + 1 - d])
            new.append(saved + right * temp)
            saved = left * temp
        new.append(saved)
        rows = new
    return rows


def _band_solve(rows, offsets, rhs):
    """x with A x = rhs, where row i of A holds rows[i] in the columns
    offsets[i], ..., offsets[i] + len(rows[i]) - 1 and is zero elsewhere.

    Gaussian elimination without pivoting, on Python floats in a fixed
    order.  The offsets must not decrease and row i must reach column i, so
    that elimination stays inside each row's window.  A B-spline collocation
    matrix is such a band, and total positivity makes it safe to skip the
    pivoting (de Boor, A Practical Guide to Splines, ch. XIII).  The
    tridiagonal finite-difference systems of correction are bands too but
    not totally positive, and chi's degree-0 one is indefinite; there the
    safety rests on measurement, agreement with LAPACK's pivoted solve to
    rounding, and on the discrete-residual certificate of every solve.  A
    zero pivot raises ZeroDivisionError.
    """
    n, w = len(rows), len(rows[0])
    rows = [list(row) for row in rows]
    rhs = list(rhs)
    for c in range(n):
        piv_row = rows[c]
        p = c - offsets[c]
        pivot = piv_row[p]
        r = c + 1
        while r < n and offsets[r] <= c:
            row = rows[r]
            q = c - offsets[r]
            m = row[q] / pivot
            for s in range(p + 1, w):
                row[q + s - p] -= m * piv_row[s]
            rhs[r] -= m * rhs[c]
            r += 1
    x = [0.0] * n
    for c in range(n - 1, -1, -1):
        row, off = rows[c], offsets[c]
        acc = rhs[c]
        for s in range(c - off + 1, w):
            acc -= row[s] * x[off + s]
        x[c] = acc / row[c - off]
    return x


class InterpolatingSpline:
    """The spline of odd degree k through (x, y) with not-a-knot ends.

    The knots are x[(k+1)/2 : -(k+1)/2] between the ends, each end repeated
    k + 1 times, as scipy's make_interp_spline places them.  The B-spline
    coefficients solve the banded collocation system by _band_solve; each
    polynomial piece is then kept as its Taylor coefficients at the left end
    of its interval, f^(m)(b_i) / m!.  Calling the spline reads f^(nu) at an
    array of points; derivatives(x, nu) reads f, f', ..., f^(nu) at one
    float from one interval lookup.  Both extend the end pieces past
    [x[0], x[-1]].  ValueError unless x is finite and strictly increasing
    and y finite, with at least k + 1 points.
    """

    def __init__(self, x, y, k: int):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if k < 1 or k % 2 == 0:
            raise ValueError(f"interpolating spline needs an odd degree, got k={k!r}")
        if x.ndim != 1 or x.shape != y.shape or x.size < k + 1:
            raise ValueError(f"spline of degree {k} needs at least {k + 1} matched (x, y) points")
        ok = np.isfinite(x)
        ok[1:] &= np.diff(x) > 0.0
        bad = np.flatnonzero(~ok)
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"spline abscissas must be finite and strictly increasing, "
                             f"got x[{i}] = {float(x[i])!r}")
        if not np.all(np.isfinite(y)):
            raise ValueError("spline data must be finite")
        n, half = x.size, (k + 1) // 2
        t = np.concatenate([np.full(k + 1, x[0]), x[half:n - half], np.full(k + 1, x[-1])])
        # collocation: x[i] lies in the knot interval [t[j], t[j+1]], which
        # carries the columns j - k, ..., j
        j = np.clip(np.searchsorted(t, x, side="right") - 1, k, n - 1)
        basis = np.stack(_bspline_rows(t, k, x, j), axis=1)
        c = np.array(_band_solve(basis.tolist(), (j - k).tolist(), y.tolist()))

        # Taylor coefficients at each interval's left end b: the degree-(k-d)
        # spline of the d-th derivative's B-spline coefficients, read at b
        jb = np.arange(k, n)
        b = t[jb]
        taylor = []
        for d in range(k + 1):
            deg = k - d
            rows = _bspline_rows(t, deg, b, jb)
            val = rows[0] * c[jb - deg]
            for r in range(1, deg + 1):
                val = val + rows[r] * c[jb - deg + r]
            taylor.append(val / math.factorial(d))
            if deg:
                i = np.arange(d + 1, n)
                nxt = np.full(n, np.nan)
                nxt[i] = deg * (c[i] - c[i - 1]) / (t[i + deg] - t[i])
                c = nxt
        self.k = k
        self.breaks = b
        self.taylor = np.array(taylor)  # [m, i]: f^(m)(b_i) / m!
        self._left = b.tolist()
        self._pieces = self.taylor.T.tolist()

    def __call__(self, x, nu: int = 0):
        """f^(nu) at the points x."""
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(self.breaks, x, side="right") - 1, 0, self.breaks.size - 1)
        dx = x - self.breaks[i]
        out = self.taylor[self.k, i] * math.perm(self.k, nu)
        for m in range(self.k - 1, nu - 1, -1):
            out = out * dx + self.taylor[m, i] * math.perm(m, nu)
        return out

    def derivatives(self, x: float, nu: int) -> tuple:
        """(f, f', ..., f^(nu)) at the float x, as floats."""
        i = min(max(bisect_right(self._left, x) - 1, 0), len(self._left) - 1)
        a = self._pieces[i]
        dx = x - self._left[i]
        out = []
        for d in range(nu + 1):
            acc = a[self.k] * math.perm(self.k, d)
            for m in range(self.k - 1, d - 1, -1):
                acc = acc * dx + a[m] * math.perm(m, d)
            out.append(acc)
        return tuple(out)


def gauss_panels(edges, rule):
    """(nodes, weights) of the Gauss rule (x, w) on [-1, 1] mapped onto each
    panel between consecutive edges, panel by panel.
    """
    x, w = rule
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


# the 8-point Gauss-Legendre rule of every radial and polar panel
GL8 = leggauss(8)


class Quadrature:
    """Composite 8-point Gauss-Legendre rule over the cells of a RadialGrid."""

    def __init__(self, grid: RadialGrid):
        self.points, self.weights = gauss_panels(grid.nodes, GL8)
        self.grid = grid

    def integrate(self, values) -> float:
        return float(np.sum(self.weights * values))


# Moment reduction over R^n: int f(|z|) w(z) dz = kappa * omega_{n-1} * int f r^(n-1+k) dr
_WEIGHTS = {
    "1": (lambda n: 1.0, 0),
    "z1^2": (lambda n: 1.0 / n, 2),
    "z1^4": (lambda n: 3.0 / (n * (n + 2)), 4),
    "|z|^2": (lambda n: 1.0, 2),
}


def moment_weight(weight: str, n: int) -> tuple[float, int]:
    """(kappa, k) such that int f(|z|) w dz = kappa * omega * int f r^(n-1+k) dr."""
    try:
        kappa, k = _WEIGHTS[weight]
    except KeyError:
        raise KeyError(f"unknown moment weight {weight!r}") from None
    return kappa(n), k


def moment_reduce(values, weight: str, n: int, quad: Quadrature,
                  tail: Optional[TailModel] = None) -> float:
    """Integral of f(|z|) * weight(z) over R^n by radial reduction, from
    values = f(quad.points); tail, when given, completes the integral past
    the grid's r_max in closed form.
    """
    kappa, k = moment_weight(weight, n)
    omega = surface_area(n)
    power = n - 1 + k
    core = quad.integrate(values * quad.points ** power)
    extra = 0.0
    if tail is not None:
        extra = tail.integral(quad.grid.r_max, k=power)
    return kappa * omega * (core + extra)
