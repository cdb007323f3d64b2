"""Peak ansatz construction and the concentration energy expansion.

Builds cutoff bump functions centered at points of a model manifold, with
optional second-order profile corrections, and measures

  J(u) = (1/eps^n) Int [ (eps^2/2)|grad u|^2 + (1/2)(1 + eps^2 c s) u^2
                         - (1/p) (u+)^p ] dV

against the expansion K alpha + eps^2 (beta/2) sum s + eps^4 sum phi
- (1/2) sum gamma U(d/eps).  Quadrature is one-dimensional geodesic polar
for a single peak and a two-dimensional great-circle grid for the cross
terms of several peaks; both are exact decompositions, so the breakdown
remainder is honest measurement error plus higher expansion orders.

energy_J, norm_eps and residual_norm read one measurement of the ansatz,
_measure, which gives J, the squared norm and the residual norm together
and keeps them on the ansatz, so each pass runs once per ansatz.  A bump
has one evaluation, PeakAnsatz.bump(d): (G, G', G'') at the distances d.
The passes below take the ansatz alone and read its model from it.  The
single-peak terms come from _polar_pass: one evaluation of the bump on
the polar nodes, which all lie inside its support, integrated against
their weights and measure.  The single-peak term does not depend on the
center on these models, so it is computed once and counted K times.  For
several peaks, _great_circle gives the SupportGrid: the (theta, phi)
nodes of the sphere's great-circle grid that lie within cutoff_r of some
center, with the distance to every center and the measure on those nodes
only.  Every integrand is exactly 0 on the nodes it drops.  The grid is
built once per (sphere, centers, eps, cutoff) and kept in a one-entry
cache.  _field_pass cuts its nodes into blocks of _BUMP_BLOCK, whose
temporaries stay in cache, evaluates each bump there once as (G, G',
Lap G), and fills the densities of J's cross terms, the norm's cross
terms and the residual of the whole sum, which does not split into
single-peak terms.  The blocks are shared in a fixed stride between the
calling thread and one helper thread per further usable core; each block
writes only its own slice of the density arrays, which are then reduced
whole, so the integrals are the same to the last bit on any number of
cores.  An ansatz answers only for the model it was built on.

Past cutoff_r the cutoff makes G, G' and G'' exactly 0, so _field_pass
evaluates a bump on its support d < cutoff_r only and leaves the exact
zeros elsewhere; a pair term only where both supports meet.  U, chi and
v2base share the ground state's radial grid, so one interval lookup per
point serves every profile and derivative of a bump.

The corrected ansatz Y adds eps^2 V to each bump, V = ric_factor chi +
c s v2base with the profiles of correction.py and ric_factor the Ricci
eigenvalue over -3, -s/(3n) on an Einstein model.  On a round sphere the
second-order residual of the plain bump is S = -ric_factor r U' + c s U,
radial, and L0 V = -S exactly, so Y's residual drops past eps^2 while the
plain bump W's stays at eps^2.

Supported models: RoundSphere and FlatSpace, both Einstein.  The
quadratures choose no formula by model: a model must give n,
injectivity_radius, distance, curvature_at and the methods as_point,
polar_density and polar_drift listed in geometry.py.  Several peaks also
need the sphere's great-circle grid.  Warped metrics would need a
geodesic solver off the meridian, which is out of scope here.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .constants import DimensionalConstants, gamma
from .correction import CorrectionProfiles
from .geometry import FlatSpace, RoundSphere, phi
from .groundstate import GroundState
from .radial import gauss_panels, surface_area


class InjectivityViolation(ValueError):
    """Cutoff or placement exceeds the model's injectivity radius."""


class UnsupportedModel(TypeError):
    """Energy quadrature is implemented for round spheres and flat space."""


class LadderTooShort(ValueError):
    """Too few distinct eps: a log-log slope needs 2, a coefficient fit 4."""


_GL8 = np.polynomial.legendre.leggauss(8)
_GL6 = np.polynomial.legendre.leggauss(6)

# Support-grid nodes per block of _field_pass.  On a million points the
# profile lookups (take, Horner) are bound by memory bandwidth; a block of
# 2^15 keeps their temporaries in cache.  Each thread holds one block's
# temporaries at a time (about 5 MB for a corrected pair), so two threads
# hold less than one block of 2^16 would.  Smaller blocks lose more to
# per-call Python overhead, under the GIL, than they save.
_BUMP_BLOCK = 1 << 15

# Helper threads of _field_pass besides the calling one: one per further
# core this process may run on.  numpy's take, searchsorted, boolean
# indexing and ufuncs release the GIL, so the blocks run side by side.
_HELPERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1) - 1

# The polar panels' step in rho = d/eps: 8 Gauss nodes per 0.25 eps.
_RHO_STEP = 0.25

# The support grid's angular step is at most _STEP_FACTOR eps / R (and
# pi/24); with six Gauss nodes per step that is 6 / 0.34 = 17.6 per eps.
_STEP_FACTOR = 0.34


def smoothstep_cutoff(r, cutoff_r: float):
    """(eta, eta', eta'') of the C^2 cutoff: 1 on [0, rc/2], quintic
    smoothstep down to 0 at rc.  eta' and eta'' need no mask past the ramp:
    their clipped polynomials are exactly 0 at both of its ends.
    """
    r = np.asarray(r, dtype=float)
    if np.isinf(cutoff_r):
        return np.ones_like(r), np.zeros_like(r), np.zeros_like(r)
    half = 0.5 * cutoff_r
    x = np.clip((r - half) / half, 0.0, 1.0)
    s = x * x * x * (x * (6.0 * x - 15.0) + 10.0)
    ds = 30.0 * x * x * (x - 1.0) * (x - 1.0)
    d2s = 60.0 * x * (x - 1.0) * (2.0 * x - 1.0)
    return 1.0 - s, -ds / half, -d2s / (half * half)


@dataclass
class PeakConfig:
    """Concentration parameter, peak centers, and the cutoff length."""

    epsilon: float
    centers: list
    cutoff_r: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        if not self.cutoff_r > 0.0:
            raise ValueError("cutoff_r must be positive")
        self.centers = [np.asarray(c, dtype=float) for c in self.centers]
        if not self.centers:
            raise ValueError("a peak configuration needs at least one center")

    @property
    def K(self) -> int:
        return len(self.centers)


def admissible(model, config: PeakConfig, gs: GroundState, rho: float = None):
    """(ok, margin): interaction below eps^4 and centers inside radius rho > 0.

    margin is eps^4 minus the summed pairwise interactions; the boundary
    itself is not admissible.
    """
    eps = config.epsilon
    if rho is None:
        rho = 0.5 * model.injectivity_radius
    if not rho > 0.0:
        raise ValueError(f"placement radius rho must be positive, got {rho!r}")
    total = 0.0
    for i in range(config.K):
        for j in range(config.K):
            if i != j:
                d = model.distance(config.centers[i], config.centers[j])
                total += float(gs.profile(d / eps))
    margin = eps ** 4 - total
    ok = margin > 0.0
    for c in config.centers[1:]:
        if not model.distance(config.centers[0], c) < rho:
            ok = False
    return ok, margin


class PeakAnsatz:
    """Sum of radial bumps u(x) = sum_i h_i(d_i/eps) eta(d_i), eta the cutoff.

    h_i is the ground state plus, when corrections are attached, eps^2 times
    the curvature correction V = ric_factor chi + c s v2base frozen at the
    i-th center.  On a round sphere L0 V = -S, where S = -ric_factor r U'
    + c s U is the second-order residual of the plain bump.  All evaluation
    is through the blown-up radial profile and the model's distance function.

    The first measurement keeps J, the norm and the residual norm in
    _measured, so an ansatz is not changed after it is measured.
    """

    def __init__(self, model, config: PeakConfig, gs: GroundState,
                 c_bold: float = 0.0, profiles: CorrectionProfiles = None):
        if not isinstance(model, (RoundSphere, FlatSpace)):
            raise UnsupportedModel(
                "peak ansatz needs distances in closed form; use RoundSphere or FlatSpace"
            )
        if model.n != gs.n:
            raise ValueError(
                f"ground state of dimension {gs.n} on a model of dimension {model.n}"
            )
        if profiles is not None and (profiles.gs.n, profiles.gs.p) != (gs.n, gs.p):
            raise ValueError(
                f"correction profiles of (n, p) = ({profiles.gs.n}, {profiles.gs.p!r}) "
                f"with a ground state of ({gs.n}, {gs.p!r})"
            )
        inj = model.injectivity_radius
        if np.isfinite(inj) and config.cutoff_r >= inj:
            raise InjectivityViolation(
                f"cutoff_r={config.cutoff_r!r} reaches the injectivity radius"
            )
        self.model = model
        # the ansatz's own config: the caller's keeps the centers it was given
        self.config = replace(config, centers=[model.as_point(c) for c in config.centers])
        self.gs = gs
        self.c_bold = float(c_bold)
        self.profiles = profiles
        cp = model.curvature_at(self.config.centers[0])
        self.s_center = cp.s
        # Ricci eigenvalue over -3, Ric = (s/n) g: the sign that cancels
        # the metric part of the equation residual at second order
        self._ric_factor = -self.s_center / (3.0 * model.n)
        self._measured = None  # the ansatz's _Integrals, filled by _measure

    @property
    def K(self) -> int:
        return self.config.K

    @property
    def epsilon(self) -> float:
        return self.config.epsilon

    @property
    def mass(self) -> float:
        """Coefficient 1 + eps^2 c s of u in the equation and the energy."""
        return 1.0 + self.epsilon ** 2 * self.c_bold * self.s_center

    def _correction_derivs(self, at):
        """(V, V', V'') at points located on the ground state's grid, which
        U, chi and v2base share.  A subclass may replace V by any function
        of at.r.
        """
        rf, cs = self._ric_factor, self.c_bold * self.s_center
        chi = self.profiles.chi.evaluate(at)
        v2b = self.profiles.v2base.evaluate(at)
        return tuple(rf * a + cs * b for a, b in zip(chi, v2b))

    def blownup_profile(self, rho):
        """(h, h', h'') of the per-peak profile in rho = d/eps, no cutoff.

        V is evaluated before U, so chi's and v2base's channels are freed
        before U's exist.
        """
        at = self.gs.grid.locate(rho)
        if self.profiles is None:
            return self.gs.profile.evaluate(at)
        v = self._correction_derivs(at)
        e2 = self.epsilon ** 2
        return tuple(a + e2 * b for a, b in zip(self.gs.profile.evaluate(at), v))

    def bump(self, d):
        """(G, G', G'') of one bump at manifold distances d.

        Past cutoff_r the cutoff makes all three exactly 0, so a caller may
        leave out the distances beyond it.
        """
        eps, rc = self.epsilon, self.config.cutoff_r
        h = self.blownup_profile(d / eps)
        c0, c1, c2 = smoothstep_cutoff(d, rc)
        return (h[0] * c0,
                h[1] / eps * c0 + h[0] * c1,
                h[2] / eps ** 2 * c0 + 2.0 * h[1] / eps * c1 + h[0] * c2)


def build_W(model, config: PeakConfig, gs: GroundState, c_bold: float = 0.0) -> PeakAnsatz:
    """Plain cutoff ground-state bumps at the configured centers."""
    return PeakAnsatz(model, config, gs, c_bold=c_bold)


def build_Y(model, config: PeakConfig, gs: GroundState,
            profiles: CorrectionProfiles, dc: DimensionalConstants) -> PeakAnsatz:
    """Bumps with the second-order curvature correction per peak.

    dc supplies the conformal constant of the product pair.
    """
    if (dc.n, dc.p) != (gs.n, gs.p):
        raise ValueError(
            f"constants of (n, p) = ({dc.n}, {dc.p!r}) "
            f"with a ground state of ({gs.n}, {gs.p!r})"
        )
    return PeakAnsatz(model, config, gs, c_bold=dc.c_bold, profiles=profiles)


def _panel_nodes(rho_max: float, kinks=()):
    edges = set(np.arange(0.0, rho_max, _RHO_STEP))
    edges.add(rho_max)
    edges.update(k for k in kinks if 0.0 < k < rho_max)
    return gauss_panels(np.array(sorted(edges)), _GL8)


def _rho_max(ansatz: PeakAnsatz) -> float:
    rc = ansatz.config.cutoff_r
    eps = ansatz.epsilon
    cap = ansatz.gs.r_max + 12.0  # profile tail is below 1e-12 there
    if np.isinf(rc):
        return cap
    return min(rc / eps, cap)


class _Integrals(NamedTuple):
    """J, the squared norm and the integral of |r|^p' of an ansatz's field.

    From _polar_pass they are one peak's; from _field_pass J and norm
    are the cross parts J(sum u_i) - sum J(u_i) and the like, and residual
    is taken for the whole sum.
    """

    J: float
    norm: float
    residual: float


def _polar_pass(ansatz: PeakAnsatz) -> _Integrals:
    """The integrals of one bump on geodesic polar nodes rho = d/eps over
    the ball in blown-up units, from one evaluation of (G, G', G'').  Every
    node lies inside the support.
    """
    model = ansatz.model
    eps, rc, n, p = ansatz.epsilon, ansatz.config.cutoff_r, model.n, ansatz.gs.p
    kinks = () if np.isinf(rc) else (0.5 * rc / eps, rc / eps)
    rho, w = _panel_nodes(_rho_max(ansatz), kinks)
    meas = rho ** (n - 1) * model.polar_density(eps * rho) ** (n - 1)

    def integral(dens) -> float:
        return surface_area(n) * float(np.sum(w * dens * meas))

    g0, g1, g2 = ansatz.bump(eps * rho)
    mass, pos = ansatz.mass, np.maximum(g0, 0.0)
    # eps^2 |grad u|^2 = (dG/drho)^2 in blown-up units
    gr = eps * g1
    lap = eps ** 2 * g2 + model.polar_drift(rho, eps) * eps * g1
    r = -lap + mass * g0 - pos ** (p - 1.0)
    return _Integrals(integral(0.5 * gr ** 2 + 0.5 * mass * g0 ** 2 - pos ** p / p),
                      integral(gr ** 2 + mass * g0 ** 2),
                      integral(np.abs(r) ** (p / (p - 1.0))))


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
    counts = prefix + (n_phi - suffix)
    rows = np.repeat(np.arange(prefix.size), counts)
    # position within the row; past the prefix it jumps to the suffix
    k = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    cols = k + np.where(k >= prefix[rows], (suffix - prefix)[rows], 0)
    return rows, cols


def _great_circle(ansatz: PeakAnsatz) -> SupportGrid:
    """The support grid of the ansatz's centers on its sphere."""
    n, R, eps = ansatz.model.n, ansatz.model.radius, ansatz.epsilon
    if n < 3:
        raise UnsupportedModel("cross-term quadrature needs sphere dimension >= 3")
    ang_step = min(_STEP_FACTOR * eps / R, np.pi / 24.0)
    centers = tuple(tuple(float(x) for x in c) for c in ansatz.config.centers)
    return _support_grid(n, float(R), centers, float(eps),
                         float(ansatz.config.cutoff_r), float(ang_step))


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


def _cos_angle(model, d_i, d_j, d_ij):
    R = model.radius
    si, sj = np.sin(d_i / R), np.sin(d_j / R)
    denom = np.maximum(si * sj, 1e-300)
    val = (np.cos(d_ij / R) - np.cos(d_i / R) * np.cos(d_j / R)) / denom
    return np.clip(val, -1.0, 1.0)


def _bump_fields(ansatz: PeakAnsatz, d):
    """(support, G, G', Lap G) of one bump at sphere distances d from its
    center, each evaluated on the support only.
    """
    support = d < ansatz.config.cutoff_r
    ds = d[support]
    g0, g1, g2 = ansatz.bump(ds)
    # allocated after the evaluation, whose temporaries are the block's peak
    G, dG, lap = (np.zeros_like(d) for _ in range(3))
    G[support], dG[support] = g0, g1
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = np.where(ds > 0, ansatz.model.polar_drift(ds, 1.0), 0.0)
    lap_s = g2 + drift * g1
    lap[support] = np.where(np.isfinite(lap_s), lap_s, 0.0)
    return support, G, dG, lap


def _strided(work, items) -> None:
    """work(item) for every item, shared in a fixed stride: with T threads,
    thread k takes items[k::T].

    T counts the calling thread, which is thread 0, and up to _HELPERS
    helper threads, no more than there are items; with T = 1 no thread is
    started.  Every helper is joined before this returns, and the first
    exception of any thread is raised here.
    """
    T = max(1, min(1 + _HELPERS, len(items)))
    errors = []

    def run(k):
        try:
            for item in items[k::T]:
                if errors:
                    return
                work(item)
        except Exception as e:  # noqa: BLE001 - raised again on the caller
            errors.append(e)

    helpers = [threading.Thread(target=run, args=(k,)) for k in range(1, T)]
    for t in helpers:
        t.start()
    try:
        run(0)
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[0]


def _field_pass(ansatz: PeakAnsatz, grid: SupportGrid) -> _Integrals:
    """The three support-grid integrals from one evaluation of each bump.

    The kept nodes are cut into blocks of _BUMP_BLOCK, which _strided shares
    among the usable cores.  Per block each bump gives (G, G', Lap G) once,
    and the densities of J, the norm and the residual are written into the
    block's own slice of full-length arrays, which grid.integral reduces
    whole, so the integrals do not depend on the number of threads.  A
    block's temporaries are freed before the thread takes its next block.
    The cross part of the quadratic form, summed over pairs i < j, is
    eps^2 G_i' G_j' cos A + mass G_i G_j with A the angle between the
    geodesics to centers i and j; J weighs it by 1 and the norm by 2.  A
    pair is evaluated only where both supports meet and adds exact zeros
    elsewhere.
    """
    model, eps, p, mass = ansatz.model, ansatz.epsilon, ansatz.gs.p, ansatz.mass
    pp = p / (p - 1.0)
    centers = ansatz.config.centers
    pairs = [(i, j, model.distance(centers[i], centers[j]))
             for i, j in combinations(range(len(centers)), 2)]
    dens_J, dens_norm, dens_res = (np.empty_like(grid.measure) for _ in range(3))

    def fill(start):
        block = slice(start, start + _BUMP_BLOCK)
        dists = [d[block] for d in grid.dists]
        supports, g0s, g1s, laps = zip(*(_bump_fields(ansatz, d) for d in dists))
        pair = np.zeros_like(dists[0])
        for i, j, d_ij in pairs:
            meet = supports[i] & supports[j]
            cosA = _cos_angle(model, dists[i][meet], dists[j][meet], d_ij)
            g0i, g1i, g0j, g1j = (g[meet] for g in (g0s[i], g1s[i], g0s[j], g1s[j]))
            pair[meet] += eps ** 2 * g1i * g1j * cosA + mass * g0i * g0j
        u = sum(g0s)
        pot = np.maximum(u, 0.0) ** p
        for g0 in g0s:
            pot = pot - np.maximum(g0, 0.0) ** p
        dens_J[block] = pair - pot / p
        dens_norm[block] = 2.0 * pair
        r = -eps ** 2 * sum(laps) + mass * u - np.maximum(u, 0.0) ** (p - 1.0)
        dens_res[block] = np.abs(r) ** pp

    _strided(fill, range(0, grid.measure.size, _BUMP_BLOCK))
    return _Integrals(grid.integral(dens_J), grid.integral(dens_norm),
                      grid.integral(dens_res))


def _measure(model, ansatz: PeakAnsatz) -> _Integrals:
    """J, the squared norm and the residual norm of the ansatz.

    The single-peak terms come from one polar pass and are counted K
    times; for K >= 2 the cross terms of J and the norm, and the residual
    of the whole sum, which does not separate, come from the support grid.
    The first call runs those passes and keeps the result in
    ansatz._measured; every later call returns it.  Several peaks are only
    quadrated on the sphere.
    """
    if model != ansatz.model:
        raise ValueError(f"ansatz is built on {ansatz.model!r}, not on {model!r}")
    if ansatz._measured is not None:
        return ansatz._measured
    K = ansatz.K
    if K >= 2 and not isinstance(model, RoundSphere):
        raise UnsupportedModel("several peaks are only quadrated on the sphere")
    J, norm, residual = _polar_pass(ansatz)
    if K >= 2:
        cross = _field_pass(ansatz, _great_circle(ansatz))
        J, norm, residual = K * J + cross.J, K * norm + cross.norm, cross.residual
    pp = ansatz.gs.p / (ansatz.gs.p - 1.0)
    ansatz._measured = _Integrals(J, norm, residual ** (1.0 / pp))
    return ansatz._measured


def energy_J(model, ansatz: PeakAnsatz) -> float:
    """The eps-normalized energy of the ansatz, exact peak decomposition."""
    return _measure(model, ansatz).J


def norm_eps(model, ansatz: PeakAnsatz) -> float:
    """Squared weighted norm (1/eps^n)(eps^2 |grad u|_2^2 + |u|_(2,s)^2)."""
    return _measure(model, ansatz).norm


def residual_norm(model, ansatz: PeakAnsatz) -> float:
    """L^(p') size of -eps^2 lap u + (1 + eps^2 c s) u - (u+)^(p-1)."""
    return _measure(model, ansatz).residual


@dataclass
class EnergyBreakdown:
    epsilon: float
    K: int
    J_measured: float
    term_alpha: float
    term_beta: float
    term_phi: float
    term_interaction: float
    remainder: float


def expansion_compare(ansatz: PeakAnsatz, dc: DimensionalConstants,
                      gamma_value: float = None) -> EnergyBreakdown:
    """Measured energy of the ansatz against the explicit expansion terms,
    with curvature and distances read from the ansatz's model.

    remainder = J_measured - alpha - beta - phi - interaction, exactly.
    """
    model, config, gs = ansatz.model, ansatz.config, ansatz.gs
    J = energy_J(model, ansatz)
    eps = config.epsilon
    term_alpha = config.K * dc.alpha
    term_beta = 0.0
    term_phi = 0.0
    for c in config.centers:
        cp = model.curvature_at(c)
        term_beta += eps ** 2 * 0.5 * dc.beta * cp.s
        term_phi += eps ** 4 * phi(cp, dc)
    term_inter = 0.0
    if config.K >= 2:
        if gamma_value is None:
            b = np.zeros(gs.n)
            b[0] = 1.0
            gamma_value = gamma(gs, b).value
        for i in range(config.K):
            for j in range(config.K):
                if i != j:
                    d = model.distance(config.centers[i], config.centers[j])
                    term_inter -= 0.5 * gamma_value * float(gs.profile(d / eps))
    rem = J - term_alpha - term_beta - term_phi - term_inter
    return EnergyBreakdown(
        epsilon=eps, K=config.K, J_measured=J, term_alpha=term_alpha,
        term_beta=term_beta, term_phi=term_phi, term_interaction=term_inter,
        remainder=rem,
    )


COEFF_LADDER = (0.1, 0.085, 0.07, 0.055, 0.045, 0.035)
SLOPE_LADDER = (0.1, 0.07, 0.05, 0.035)


def one_peak_ladder(model, gs: GroundState, profiles: CorrectionProfiles,
                    dc: DimensionalConstants, center, cutoff_r: float = 1.2,
                    eps_ladder=COEFF_LADDER) -> list:
    """One (W, Y) pair per eps, the plain and the corrected peak at center,
    built but not measured."""
    ladder = []
    for eps in eps_ladder:
        config = PeakConfig(epsilon=float(eps), centers=[center], cutoff_r=cutoff_r)
        ladder.append((build_W(model, config, gs, c_bold=dc.c_bold),
                       build_Y(model, config, gs, profiles=profiles, dc=dc)))
    return ladder


def energy_coefficient_fit(ladder, alpha: float) -> dict:
    """Fit (J(Y) - alpha)/eps^2 to a quadratic in eps^2 over a one-peak ladder.

    Returns the extracted eps^2 and eps^4 energy coefficients together with
    the raw ladder, so callers can judge the fit themselves.  Three basis
    terms need 4 distinct eps; with fewer it raises LadderTooShort.
    """
    eps_ladder = tuple(Y.epsilon for _, Y in ladder)
    if np.unique(eps_ladder).size < 4:
        raise LadderTooShort("a coefficient fit needs at least 4 distinct epsilon values")
    ys = [(energy_J(Y.model, Y) - alpha) / Y.epsilon ** 2 for _, Y in ladder]
    e0 = max(eps_ladder)
    x = np.array([(e / e0) ** 2 for e in eps_ladder])
    A = np.stack([np.ones_like(x), x, x * x], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.array(ys), rcond=None)
    resid = A @ coef - np.array(ys)
    return {
        "eps2_coeff": float(coef[0]),
        "eps4_coeff": float(coef[1] / e0 ** 2),
        "eps6_coeff": float(coef[2] / e0 ** 4),
        "eps_ladder": eps_ladder,
        "values": [float(v) for v in ys],
        "fit_residual": float(np.max(np.abs(resid))),
    }


def loglog_slope(eps_ladder, values) -> tuple:
    """(slope, r2) of log|value| against log eps.

    A ladder with fewer than two distinct eps has no slope and raises
    LadderTooShort.
    """
    x = np.log(np.asarray(eps_ladder, dtype=float))
    if np.unique(x).size < 2:
        raise LadderTooShort("a log-log slope needs at least 2 distinct epsilon values")
    y = np.log(np.abs(np.asarray(values, dtype=float)))
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    fit = A @ coef
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


def residual_slopes(ladder) -> dict:
    """Log-log residual decay rates of a one-peak ladder's W and Y.

    On a ladder with fewer than two distinct eps the slopes and their r2
    are None.
    """
    eps_ladder = tuple(W.epsilon for W, _ in ladder)
    out = {"eps_ladder": eps_ladder,
           "W_values": [residual_norm(W.model, W) for W, _ in ladder],
           "Y_values": [residual_norm(Y.model, Y) for _, Y in ladder]}
    for key in ("W", "Y"):
        try:
            out[f"{key}_slope"], out[f"{key}_r2"] = loglog_slope(eps_ladder, out[f"{key}_values"])
        except LadderTooShort:
            out[f"{key}_slope"] = out[f"{key}_r2"] = None
    return out
