"""Model manifolds with computable curvature, and the concentration functional.

Provides constant-curvature spheres (RoundSphere.curvature_at holds their
closed forms), warped metrics dt^2 + f(t)^2 g_(S^(n-1)) with closed-form
curvature from the warp profile, and flat space.  On these the functional

  phi = (1/(120(n+2))) (-c8 lap_s + c6 ric2 - 3 c1 riem2) + c7 s^2 + c9 s

is evaluated and scanned for isolated interior critical points.

RoundSphere and FlatSpace also give what energy.py's peak ansatz reads, in
manifold units: as_point(xi) checks a point (the sphere returns the unit
vector along it), polar_density(d) is (area element / flat area
element)^(1/(n-1)) at distance d, and polar_drift(d) is the first-order
coefficient of the Laplacian on radial functions, lap f = f'' +
polar_drift(d) f'.  For several peaks RoundSphere.support_grid gives the
nodes of its great-circle grid within cutoff_r of some center, and
cos_angle the angle there between the geodesics to two centers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .constants import DimensionalConstants
from .radial import InterpolatingSpline, gauss_panels, surface_area


class UnsupportedModel(TypeError):
    """A model lacks a method that a computation reads of it."""


class PoleSingularity(ValueError):
    """Curvature requested too close to a warp pole, where 1/f is unstable."""


class NoInteriorCritical(RuntimeError):
    """Scan found no isolated critical point away from the boundary.

    The computed scan is attached as the `scan` attribute so callers can
    still inspect or write the profile.
    """

    def __init__(self, message, scan=None):
        super().__init__(message)
        self.scan = scan


@dataclass
class CurvaturePoint:
    s: float
    lap_s: float
    ric2: float
    riem2: float


@dataclass
class RoundSphere:
    """Round n-sphere of given radius; points are unit vectors in R^(n+1)."""

    n: int
    radius: float = 1.0

    def __post_init__(self):
        if self.n < 2 or not 0.0 < self.radius < np.inf:
            raise ValueError(f"round sphere needs n >= 2 and 0 < radius < inf, "
                             f"got n={self.n!r}, radius={self.radius!r}")

    @property
    def injectivity_radius(self) -> float:
        return np.pi * self.radius

    @property
    def parameter_range(self):
        # polar angle along a meridian, scaled to arclength
        return (0.0, np.pi * self.radius)

    def point(self, angle: float = 0.0) -> np.ndarray:
        """Point at polar angle from the reference pole, in the 12-plane."""
        x = np.zeros(self.n + 1)
        x[0], x[1] = np.cos(angle), np.sin(angle)
        return x

    def curvature_at(self, xi=None) -> CurvaturePoint:
        """The constant-curvature closed forms, the same at every point."""
        n, r2 = self.n, self.radius * self.radius
        return CurvaturePoint(
            s=n * (n - 1) / r2,
            lap_s=0.0,
            ric2=n * (n - 1) ** 2 / (r2 * r2),
            riem2=2.0 * n * (n - 1) / (r2 * r2),
        )

    def as_point(self, xi) -> np.ndarray:
        """The unit vector along xi, a finite, nonzero vector in R^(n+1)."""
        x = np.asarray(xi, dtype=float)
        norm = np.linalg.norm(x) if x.shape == (self.n + 1,) else np.nan
        if not (np.all(np.isfinite(x)) and 0.0 < norm < np.inf):
            raise ValueError(f"a point of S^{self.n} is a finite, nonzero vector "
                             f"in R^{self.n + 1}, got {xi!r}")
        return x / norm

    def polar_density(self, d):
        return np.sinc(np.asarray(d, dtype=float) / (np.pi * self.radius))

    def polar_drift(self, d):
        R = self.radius
        return (self.n - 1) * ((1.0 / R) / np.tan(d / R))

    def distance(self, xi1, xi2) -> float:
        a, b = self.as_point(xi1), self.as_point(xi2)
        ang = float(np.arccos(np.clip(np.dot(a, b), -1.0, 1.0)))
        return self.radius * ang

    def support_grid(self, centers, eps: float, cutoff_r: float, step: float) -> SupportGrid:
        """The SupportGrid of the centers at an angular step of at most
        step eps / radius and pi/24."""
        if self.n < 3:
            raise UnsupportedModel("cross-term quadrature needs sphere dimension >= 3")
        ang_step = min(step * eps / self.radius, np.pi / 24.0)
        centers = tuple(tuple(float(x) for x in c) for c in centers)
        return _support_grid(self.n, float(self.radius), centers, float(eps),
                             float(cutoff_r), float(ang_step))

    def cos_angle(self, d_i, d_j, d_ij):
        """cos of the angle between the geodesics from a point to two
        points, from its distances d_i, d_j to them and theirs, d_ij."""
        R = self.radius
        si, sj = np.sin(d_i / R), np.sin(d_j / R)
        denom = np.maximum(si * sj, 1e-300)
        val = (np.cos(d_ij / R) - np.cos(d_i / R) * np.cos(d_j / R)) / denom
        return np.clip(val, -1.0, 1.0)


_GL6 = np.polynomial.legendre.leggauss(6)


def _great_circle_basis(centers):
    """Orthonormal (e_a, e_b) spanning the centers, which must be coplanar."""
    e_a = centers[0] / np.linalg.norm(centers[0])
    e_b = None
    for c in centers[1:]:
        t = c - (c @ e_a) * e_a
        if np.linalg.norm(t) > 1e-12:
            e_b = t / np.linalg.norm(t)
            break
    if e_b is None:
        # all centers collinear with e_a; any orthogonal direction works
        k = int(np.argmin(np.abs(e_a)))
        t = np.zeros_like(e_a)
        t[k] = 1.0
        t -= (t @ e_a) * e_a
        e_b = t / np.linalg.norm(t)
    for c in centers:
        resid = c - (c @ e_a) * e_a - (c @ e_b) * e_b
        if np.linalg.norm(resid) > 1e-10 * np.linalg.norm(c):
            raise ValueError("cross-term quadrature needs centers on one great circle")
    return e_a, e_b


def _gl_panels(lo: float, hi: float, step: float):
    edges = np.linspace(lo, hi, max(2, int(np.ceil((hi - lo) / step)) + 1))
    return gauss_panels(edges, _GL6)


class SupportGrid(NamedTuple):
    """The (theta, phi) grid of the sphere, kept where a support reaches.

    Row i keeps the phi nodes phi[:prefix[i]] and phi[suffix[i]:], which
    hold every node within cutoff_r of a center; every other node carries
    exact zeros in each integrand.  dists and measure are on the kept nodes
    in row-major order, each value bit-identical to the full grid's.
    """

    theta: np.ndarray
    phi: np.ndarray
    prefix: np.ndarray
    suffix: np.ndarray
    dists: tuple
    measure: np.ndarray

    def integral(self, dens) -> float:
        """The eps-normalized sphere integral of dens given on the kept nodes."""
        return float(np.sum(dens * self.measure))


def _kept_indices(prefix, suffix, n_phi: int):
    cols = np.arange(n_phi)
    return np.nonzero((cols < prefix[:, None]) | (cols >= suffix[:, None]))


@lru_cache(maxsize=1)
def _support_grid(n: int, R: float, centers: tuple, eps: float, cutoff_r: float,
                  ang_step: float) -> SupportGrid:
    """Build the SupportGrid once per (sphere, centers, eps, cutoff, step).

    With c = ca e_a + cb e_b, cos(d/R) = cos(theta) ca + sin(theta) cos(phi) cb
    falls along a row as phi ascends when cb > 0, so the cap d < cutoff_r is
    a prefix of the row; when cb < 0 it is a suffix, and when cb = 0 the
    whole row or none of it.  The caps are found on cos(d/R) with a margin
    of 1e-12 for rounding.  Each row keeps the longest prefix and suffix.
    """
    th, wth = _gl_panels(0.0, np.pi, ang_step)
    ph, wph = th, wth
    units = [np.array(c) for c in centers]
    e_a, e_b = _great_circle_basis(units)
    coords = [(float(c @ e_a), float(c @ e_b)) for c in units]
    ct, st, cp = np.cos(th), np.sin(th), np.cos(ph)
    n_phi = ph.size
    prefix = np.zeros(th.size, dtype=np.intp)
    suffix = np.full(th.size, n_phi, dtype=np.intp)
    cos_cut = np.cos(cutoff_r / R) - 1e-12
    for ca, cb in coords:
        base = cos_cut - ct * ca  # the cap is where st cp cb > base
        if cb == 0.0:
            prefix = np.where(base < 0.0, n_phi, prefix)
            continue
        tau = base / (st * cb)
        if cb > 0.0:  # cp > tau, a prefix of the descending cp
            prefix = np.maximum(prefix, np.searchsorted(-cp, -tau, side="left"))
        else:  # cp < tau, a suffix
            suffix = np.minimum(suffix, np.searchsorted(-cp, -tau, side="right"))
    suffix = np.maximum(suffix, prefix)
    rows, cols = _kept_indices(prefix, suffix, n_phi)
    # the full grid's elementwise expressions, on the kept nodes only
    dists = []
    for ca, cb in coords:
        cosang = np.clip(ct[rows] * ca + st[rows] * cp[cols] * cb, -1.0, 1.0)
        dists.append(R * np.arccos(cosang))
    area = (np.sin(th) ** (n - 1))[rows] * (np.sin(ph) ** (n - 2))[cols]
    wt = wth[rows] * wph[cols]
    measure = (R ** n / eps ** n) * surface_area(n - 1) * area * wt
    grid = SupportGrid(th, ph, prefix, suffix, tuple(dists), measure)
    for arr in (th, ph, prefix, suffix, measure, *dists):
        arr.flags.writeable = False  # shared by every caller of the cache
    return grid


@dataclass
class FlatSpace:
    """R^n with the Euclidean metric; the zero-curvature control model."""

    n: int

    @property
    def injectivity_radius(self) -> float:
        return np.inf

    def curvature_at(self, xi=None) -> CurvaturePoint:
        return CurvaturePoint(0.0, 0.0, 0.0, 0.0)

    def as_point(self, xi) -> np.ndarray:
        """xi as an array; ValueError unless it is a finite vector in R^n."""
        x = np.asarray(xi, dtype=float)
        if x.shape != (self.n,) or not np.all(np.isfinite(x)):
            raise ValueError(f"a point of R^{self.n} is a finite vector of length {self.n}, "
                             f"got {xi!r}")
        return x

    def polar_density(self, d):
        return np.ones_like(np.asarray(d, dtype=float))

    def polar_drift(self, d):
        return (self.n - 1) * (1.0 / np.asarray(d, dtype=float))

    def distance(self, xi1, xi2) -> float:
        return float(np.linalg.norm(np.asarray(xi1, float) - np.asarray(xi2, float)))


# samples of a callable warp on [0, pi]
_SAMPLES = 161


class WarpedSphere:
    """Rotationally symmetric metric dt^2 + f(t)^2 g_(S^(n-1)) on [0, L].

    The warp comes as samples, WarpedSphere(n, t=t, f_vals=f_vals) with t
    running from 0 to L, or as a vectorized callable, WarpedSphere(n, f),
    sampled at _SAMPLES points of [0, pi] (L = pi).
    It must be positive inside (0, L) and close smoothly at both poles:
    f(0)=f(L)=0, f'(0)=1, f'(L)=-1.
    Curvature reduces to the radial sectional curvature
    a = -f''/f and the spherical one b = (1 - f'^2)/f^2:

      s     = 2(n-1) a + (n-1)(n-2) b
      ric2  = ((n-1) a)^2 + (n-1)(a + (n-2) b)^2
      riem2 = 4(n-1) a^2 + 2(n-1)(n-2) b^2
      lap_s = s'' + (n-1)(f'/f) s'

    with s', s'' expanded analytically in f and its first four derivatives,
    all read at once off the profile's septic radial.InterpolatingSpline,
    so t must be finite and strictly increasing.  The spacing of
    _SAMPLES balances interpolation error against roundoff in the fourth
    derivative; much finer grids make lap_s noisier, not better.
    Evaluation is refused within pole_tol = 1e-3 L of either pole, where the
    1 - f'^2 cancellation loses accuracy.
    """

    def __init__(self, n: int, f=None, t=None, f_vals=None):
        if n < 2:
            raise ValueError("warped sphere needs n >= 2")
        self.n = int(n)
        if t is not None:
            t = np.asarray(t, dtype=float)
            vals = np.asarray(f_vals, dtype=float)
            if t.size < 9 or t.size != vals.size:
                raise ValueError("need at least 9 matched (t, f) samples")
            if abs(t[0]) > 1e-12:
                raise ValueError("samples must start at t = 0")
            self.L = float(t[-1])
        else:
            self.L = float(np.pi)
            t = np.linspace(0.0, self.L, _SAMPLES)
            vals = np.asarray(f(t), dtype=float)
            if vals.shape != t.shape:
                raise ValueError("warp f must map an array of t to an array of its shape")
        # "not > 0" also refuses a NaN sample
        bad = np.flatnonzero(~(vals[1:-1] > 0.0))
        if bad.size:
            i = bad[0] + 1
            raise ValueError(f"warp must be positive inside (0, L), "
                             f"got f({float(t[i])!r}) = {float(vals[i])!r}")
        self.pole_tol = 1e-3 * self.L
        self._f = InterpolatingSpline(t, vals, 7)
        scale = float(np.max(np.abs(vals)))
        if (abs(vals[0]) > 1e-9 * scale or abs(vals[-1]) > 1e-9 * scale
                or abs(self._f.derivatives(0.0, 1)[1] - 1.0) > 1e-6
                or abs(self._f.derivatives(self.L, 1)[1] + 1.0) > 1e-6):
            raise ValueError("warp must close: f(0)=f(L)=0, f'(0)=1, f'(L)=-1")

    @property
    def injectivity_radius(self) -> float:
        # peaks are placed on one meridian; the t-lines are geodesics
        return self.L

    @property
    def parameter_range(self):
        return (0.0, self.L)

    def curvature_at(self, t: float) -> CurvaturePoint:
        t = float(t)
        if not (self.pole_tol <= t <= self.L - self.pole_tol):
            raise PoleSingularity(f"t={t!r} within {self.pole_tol!r} of a pole of the warp")
        n = self.n
        F, P, Q, C, D = self._f.derivatives(t, 4)
        a = -Q / F
        b = (1.0 - P * P) / (F * F)
        da = -C / F + Q * P / F ** 2
        db = -2.0 * P * Q / F ** 2 - 2.0 * P * (1.0 - P * P) / F ** 3
        d2a = -D / F + (2.0 * C * P + Q * Q) / F ** 2 - 2.0 * Q * P * P / F ** 3
        d2b = (-2.0 * (Q * Q + P * C) / F ** 2 + 4.0 * P * P * Q / F ** 3
               - 2.0 * Q * (1.0 - 3.0 * P * P) / F ** 3
               + 6.0 * P * P * (1.0 - P * P) / F ** 4)
        k1 = 2.0 * (n - 1)
        k2 = float((n - 1) * (n - 2))
        s = k1 * a + k2 * b
        ds = k1 * da + k2 * db
        d2s = k1 * d2a + k2 * d2b
        return CurvaturePoint(
            s=s,
            lap_s=d2s + (n - 1) * (P / F) * ds,
            ric2=((n - 1) * a) ** 2 + (n - 1) * (a + (n - 2) * b) ** 2,
            riem2=4.0 * (n - 1) * a ** 2 + 2.0 * (n - 1) * (n - 2) * b ** 2,
        )

    def distance(self, t1: float, t2: float) -> float:
        # meridian placement: geodesic distance along the t-line is |dt|
        return abs(float(t1) - float(t2))


def phi(cp: CurvaturePoint, dc: DimensionalConstants) -> float:
    """The concentration functional at one point from its curvature data."""
    n = dc.n
    lead = (-dc.c8 * cp.lap_s + dc.c6 * cp.ric2 - 3.0 * dc.c1 * cp.riem2) / (120.0 * (n + 2.0))
    return lead + dc.c7 * cp.s ** 2 + dc.c9 * cp.s


@dataclass
class CriticalPoint:
    t: float
    phi: float
    kind: str  # "min" | "max" | "degenerate"


@dataclass
class PhiScan:
    t: np.ndarray
    phi: np.ndarray
    curvature: list  # the CurvaturePoint of each node
    points: list = field(default_factory=list)


# the golden ratio's conjugate, 2 / (1 + sqrt 5), to the eight digits of
# Numerical Recipes' golden search
_GOLD = 0.61803399


def _golden_section(f, a: float, b: float, c: float, xtol: float = 1e-11) -> float:
    """The minimizer of f within the bracket a < b < c, f(b) < f(a), f(c).

    Numerical Recipes' golden-section search: it shrinks the bracket until
    its width is at most xtol times the summed magnitudes of the two inner
    points.  The bracket is not checked, and f(a), f(c) are never evaluated.
    """
    x0, x3 = a, c
    if abs(c - b) > abs(b - a):
        x1, x2 = b, b + (1.0 - _GOLD) * (c - b)
    else:
        x1, x2 = b - (1.0 - _GOLD) * (b - a), b
    f1, f2 = f(x1), f(x2)
    for _ in range(5000):
        if abs(x3 - x0) <= xtol * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, f1 = x1, x2, f2
            x2 = _GOLD * x1 + (1.0 - _GOLD) * x3
            f2 = f(x2)
        else:
            x3, x2, f2 = x2, x1, f1
            x1 = _GOLD * x2 + (1.0 - _GOLD) * x0
            f1 = f(x1)
    return x1 if f1 < f2 else x2


def scan_phi(model, dc: DimensionalConstants, resolution: int = 2001) -> PhiScan:
    """Profile of phi along the model's parameter with classified extrema.

    The scan keeps 2% of the range away from each end.  Interior extrema
    are located by sign changes of the first differences, then refined by
    _golden_section on the three nodes around each, to xtol 1e-11, well
    below 1e-8 in the parameter.
    Raises NoInteriorCritical (scan attached) when the profile is constant
    or no interior extremum exists.
    """
    n_model = getattr(model, "n", dc.n)
    if n_model != dc.n:
        raise ValueError(f"model dimension {n_model} != constants dimension {dc.n}")
    if not hasattr(model, "parameter_range"):
        raise ValueError(f"{type(model).__name__} has no parameter range to scan")
    lo_full, hi_full = model.parameter_range
    span = hi_full - lo_full
    margin = 0.02 * span
    lo, hi = lo_full + margin, hi_full - margin
    ts = np.linspace(lo, hi, resolution)
    curvature = [model.curvature_at(t) for t in ts]
    pv = np.array([phi(cp, dc) for cp in curvature])
    scan = PhiScan(t=ts, phi=pv, curvature=curvature)

    spread = float(pv.max() - pv.min())
    if spread < 1e-12 * max(1.0, float(np.abs(pv).max())):
        raise NoInteriorCritical("phi is constant along the scan", scan)

    func = lambda t: phi(model.curvature_at(t), dc)
    d = np.diff(pv)
    h = (hi - lo) / (resolution - 1)
    for i in range(1, resolution - 1):
        if d[i - 1] > 0.0 and d[i] < 0.0:
            kind, objective = "max", lambda t: -func(t)
        elif d[i - 1] < 0.0 and d[i] > 0.0:
            kind, objective = "min", func
        else:
            continue
        t_star = _golden_section(objective, float(ts[i - 1]), float(ts[i]), float(ts[i + 1]))
        phi_star = func(t_star)
        curv = (func(t_star + h) - 2.0 * phi_star + func(t_star - h)) / h ** 2
        if abs(curv) * span ** 2 < 1e-6 * spread:
            kind = "degenerate"
        scan.points.append(CriticalPoint(t=t_star, phi=float(phi_star), kind=kind))

    if not scan.points:
        raise NoInteriorCritical("no interior extremum on the scan range", scan)
    return scan
