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

Each quadrature has one field pass that energy_J, norm_eps and
residual_norm reduce: _polar_fields gives one bump's (G, G', G'') on the
polar nodes, and _great_circle the distances to every center on the
(theta, phi) grid; each also returns the integral against its weights and
measure.  The single-peak term does not depend on the center on these
models, so it is computed once and counted K times.  The cross terms of J
and the norm share _pair_quadratic.  The residual of several peaks does
not split into single-peak terms and is taken on the great-circle grid
whole.

A bump is evaluated on its support d < cutoff_r only, and beyond it holds
the exact zeros the cutoff gives; a pair term of _pair_quadratic only where
both supports meet.  J and the norm ask for (G, G'), the residual also for
G''.  U, chi and v2base share the ground state's radial grid, so one
interval lookup per point serves every profile and derivative of a bump.

The corrected ansatz Y adds eps^2 V to each bump, V = ric_factor chi +
c s v2base with the profiles of correction.py and ric_factor the Ricci
eigenvalue over -3, -(n-1)/(3 R^2).  On a round sphere the
second-order residual of the plain bump is S = -ric_factor r U' + c s U,
radial, and L0 V = -S exactly, so Y's residual drops past eps^2 while the
plain bump W's stays at eps^2.

Supported models: RoundSphere and FlatSpace.  Warped metrics would need a
geodesic solver off the meridian, which is out of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations

import numpy as np

from .constants import DimensionalConstants, gamma
from .correction import CorrectionProfiles
from .geometry import FlatSpace, RoundSphere, phi
from .groundstate import GroundState
from .radial import surface_area


class InjectivityViolation(ValueError):
    """Cutoff or placement exceeds the model's injectivity radius."""


class ResolutionTooCoarse(ValueError):
    """Quadrature step leaves fewer than 8 nodes per concentration length."""


class UnsupportedModel(TypeError):
    """Energy quadrature is implemented for round spheres and flat space."""


_GL8 = np.polynomial.legendre.leggauss(8)
_GL6 = np.polynomial.legendre.leggauss(6)


def smoothstep_cutoff(r, cutoff_r: float):
    """C^2 cutoff: 1 on [0, rc/2], quintic smoothstep down to 0 at rc."""
    r = np.asarray(r, dtype=float)
    if np.isinf(cutoff_r):
        return np.ones_like(r)
    x = np.clip((r - 0.5 * cutoff_r) / (0.5 * cutoff_r), 0.0, 1.0)
    s = x * x * x * (x * (6.0 * x - 15.0) + 10.0)
    return 1.0 - s


def smoothstep_cutoff_d1(r, cutoff_r: float):
    r = np.asarray(r, dtype=float)
    if np.isinf(cutoff_r):
        return np.zeros_like(r)
    half = 0.5 * cutoff_r
    x = (r - half) / half
    inside = (x > 0.0) & (x < 1.0)
    x = np.clip(x, 0.0, 1.0)
    ds = 30.0 * x * x * (x - 1.0) * (x - 1.0)
    return np.where(inside, -ds / half, 0.0)


def smoothstep_cutoff_d2(r, cutoff_r: float):
    r = np.asarray(r, dtype=float)
    if np.isinf(cutoff_r):
        return np.zeros_like(r)
    half = 0.5 * cutoff_r
    x = (r - half) / half
    inside = (x > 0.0) & (x < 1.0)
    x = np.clip(x, 0.0, 1.0)
    d2s = 60.0 * x * (x - 1.0) * (2.0 * x - 1.0)
    return np.where(inside, -d2s / (half * half), 0.0)


@dataclass
class PeakConfig:
    """Concentration parameter, peak centers, and the cutoff length."""

    epsilon: float
    centers: list
    cutoff_r: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.cutoff_r <= 0:
            raise ValueError("cutoff_r must be positive")
        self.centers = [np.asarray(c, dtype=float) for c in self.centers]

    @property
    def K(self) -> int:
        return len(self.centers)


def admissible(model, config: PeakConfig, gs: GroundState, rho: float = None):
    """(ok, margin): interaction below eps^4 and centers inside radius rho.

    margin is eps^4 minus the summed pairwise interactions; the boundary
    itself is not admissible.
    """
    eps = config.epsilon
    if rho is None:
        rho = 0.5 * model.injectivity_radius
    total = 0.0
    for i in range(config.K):
        for j in range(config.K):
            if i != j:
                d = model.distance(config.centers[i], config.centers[j])
                total += float(gs(d / eps))
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
    """

    def __init__(self, model, config: PeakConfig, gs: GroundState,
                 c_bold: float = 0.0, profiles: CorrectionProfiles = None):
        if not isinstance(model, (RoundSphere, FlatSpace)):
            raise UnsupportedModel(
                "peak ansatz needs distances in closed form; use RoundSphere or FlatSpace"
            )
        inj = model.injectivity_radius
        if np.isfinite(inj) and config.cutoff_r >= inj:
            raise InjectivityViolation(
                f"cutoff_r={config.cutoff_r!r} reaches the injectivity radius"
            )
        centers = config.centers
        if isinstance(model, RoundSphere):
            centers = [c / np.linalg.norm(c) for c in centers]
        self.model = model
        # the ansatz's own config: the caller's keeps the centers it was given
        self.config = replace(config, centers=centers)
        self.gs = gs
        self.c_bold = float(c_bold)
        self.profiles = profiles
        self._lookup = None  # (located rho, order) of the running blownup_profile
        cp = model.curvature_at(self.config.centers[0] if self.K else None)
        self.s_center = cp.s
        # Ricci eigenvalue over -3: the sign that cancels the metric part
        # of the equation residual at second order
        if isinstance(model, RoundSphere):
            self._ric_factor = -(model.n - 1) / (3.0 * model.radius ** 2)
        else:
            self._ric_factor = 0.0

    @property
    def include_v(self) -> bool:
        return self.profiles is not None

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

    def correction(self, rho):
        """The frozen-curvature profile correction in blown-up coordinates."""
        rho = np.asarray(rho, dtype=float)
        chi = self.profiles.chi
        v2b = self.profiles.v2base
        return self._ric_factor * chi(rho) + self.c_bold * self.s_center * v2b(rho)

    def _correction_derivs(self, rho):
        """(V, V', V'') at rho.

        Called from blownup_profile it reuses that call's interval lookup
        and stops at its order, since U, chi and v2base share one grid.  It
        takes rho alone so that a subclass can replace V by any rho ->
        (V, V', V'').
        """
        at, order = self._lookup or (self.gs.grid.locate(rho), 2)
        rf, cs = self._ric_factor, self.c_bold * self.s_center
        chi = self.profiles.chi.evaluate(at, order)
        v2b = self.profiles.v2base.evaluate(at, order)
        return tuple(rf * a + cs * b for a, b in zip(chi, v2b))

    def blownup_profile(self, rho, order: int = 2):
        """(h, h', h'') of the per-peak profile in rho = d/eps, no cutoff,
        up to the derivative of the given order.
        """
        rho = np.asarray(rho, dtype=float)
        at = self.gs.grid.locate(rho)
        u = self.gs.profile.evaluate(at, order)
        if not self.include_v:
            return u
        self._lookup = at, order
        try:
            v = self._correction_derivs(rho)
        finally:
            self._lookup = None
        e2 = self.epsilon ** 2
        return tuple(a + e2 * b for a, b in zip(u, v))

    def support(self, d):
        """Where distance d lies inside the cutoff radius."""
        return np.asarray(d, dtype=float) < self.config.cutoff_r

    def bump(self, d, order: int = 2):
        """(G, G', G'') of one bump versus manifold distance d, up to the
        derivative of the given order.

        Only the support is evaluated; beyond it G and its derivatives are
        the exact zeros that the cutoff gives them.
        """
        d = np.asarray(d, dtype=float)
        eps, rc = self.epsilon, self.config.cutoff_r
        support = self.support(d)
        ds = d[support]
        h = self.blownup_profile(ds / eps, order)
        c0 = smoothstep_cutoff(ds, rc)
        g = [h[0] * c0]
        if order >= 1:
            c1 = smoothstep_cutoff_d1(ds, rc)
            g.append(h[1] / eps * c0 + h[0] * c1)
        if order >= 2:
            c2 = smoothstep_cutoff_d2(ds, rc)
            g.append(h[2] / eps ** 2 * c0 + 2.0 * h[1] / eps * c1 + h[0] * c2)
        out = []
        for gk in g:
            full = np.zeros_like(d)
            full[support] = gk
            out.append(full[()])
        return tuple(out)

    def __call__(self, x):
        ds = [self.model.distance(x, c) for c in self.config.centers]
        if not ds:
            return 0.0
        return float(sum(self.bump(d)[0] for d in ds))


def build_W(model, config: PeakConfig, gs: GroundState, c_bold: float = 0.0) -> PeakAnsatz:
    """Plain cutoff ground-state bumps at the configured centers."""
    return PeakAnsatz(model, config, gs, c_bold=c_bold)


def build_Y(model, config: PeakConfig, gs: GroundState,
            profiles: CorrectionProfiles = None, dc: DimensionalConstants = None) -> PeakAnsatz:
    """Bumps with the second-order curvature correction per peak.

    Passing profiles=None suppresses the correction, which reduces to
    build_W.  dc supplies the conformal constant of the product pair.
    """
    c_bold = dc.c_bold if dc is not None else 0.0
    return PeakAnsatz(model, config, gs, c_bold=c_bold, profiles=profiles)


def _polar_sinc(model, d):
    """(area element / flat area element)^(1/(n-1)) at distance d."""
    if isinstance(model, FlatSpace):
        return np.ones_like(np.asarray(d, dtype=float))
    return np.sinc(np.asarray(d, dtype=float) / (np.pi * model.radius))


def _panel_nodes(rho_max: float, rho_step: float, kinks=()):
    if rho_step > 1.0:
        raise ResolutionTooCoarse(
            f"rho_step={rho_step!r} gives fewer than 8 quadrature nodes per eps"
        )
    edges = set(np.arange(0.0, rho_max, rho_step))
    edges.add(rho_max)
    edges.update(k for k in kinks if 0.0 < k < rho_max)
    edges = np.array(sorted(edges))
    x, w = _GL8
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _rho_max(model, ansatz: PeakAnsatz) -> float:
    rc = ansatz.config.cutoff_r
    eps = ansatz.epsilon
    cap = ansatz.gs.r_max + 12.0  # profile tail is below 1e-12 there
    if np.isinf(rc):
        return cap
    return min(rc / eps, cap)


def _polar_fields(model, ansatz: PeakAnsatz, rho_step: float, order: int):
    """(rho, (G, G', ...), integral) for one bump on geodesic polar nodes
    rho = d/eps, up to the derivative of the given order; integral(dens)
    integrates over the ball in blown-up units.
    """
    eps, rc, n = ansatz.epsilon, ansatz.config.cutoff_r, model.n
    kinks = () if np.isinf(rc) else (0.5 * rc / eps, rc / eps)
    rho, w = _panel_nodes(_rho_max(model, ansatz), rho_step, kinks)
    meas = rho ** (n - 1) * _polar_sinc(model, eps * rho) ** (n - 1)

    def integral(dens) -> float:
        return surface_area(n) * float(np.sum(w * dens * meas))

    return rho, ansatz.bump(eps * rho, order), integral


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


@lru_cache(maxsize=32)
def _gl_panels(lo: float, hi: float, step: float):
    edges = np.linspace(lo, hi, max(2, int(np.ceil((hi - lo) / step)) + 1))
    x, w = _GL6
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _great_circle(model, ansatz: PeakAnsatz, step_factor: float):
    """(dists, integral) on the (theta, phi) grid of the sphere: the distance
    to every center, and integral(dens), the eps-normalized sphere integral.
    """
    n = model.n
    if n < 3:
        raise UnsupportedModel("cross-term quadrature needs sphere dimension >= 3")
    eps, R = ansatz.epsilon, model.radius
    ang_step = min(step_factor * eps / R, np.pi / 24.0)
    if 6.0 / (ang_step * R / eps) < 8.0:
        raise ResolutionTooCoarse("angular step leaves fewer than 8 nodes per eps")
    th, wth = _gl_panels(0.0, np.pi, ang_step)
    ph, wph = _gl_panels(0.0, np.pi, ang_step)
    e_a, e_b = _great_circle_basis(ansatz.config.centers)
    ct, st = np.cos(th)[:, None], np.sin(th)[:, None]
    cp = np.cos(ph)[None, :]
    dists = []
    for c in ansatz.config.centers:
        ca, cb = float(c @ e_a), float(c @ e_b)
        cosang = np.clip(ct * ca + st * cp * cb, -1.0, 1.0)
        dists.append(R * np.arccos(cosang))

    def integral(dens) -> float:
        # the measure is built only now, after the bumps: a grid-sized
        # array live during bump evaluation raises the peak memory
        area = (np.sin(th) ** (n - 1))[:, None] * (np.sin(ph) ** (n - 2))[None, :]
        wt = wth[:, None] * wph[None, :]
        return float(np.sum(dens * ((R ** n / eps ** n) * surface_area(n - 1) * area * wt)))

    return dists, integral


def _cos_angle(model, d_i, d_j, d_ij):
    R = model.radius
    si, sj = np.sin(d_i / R), np.sin(d_j / R)
    denom = np.maximum(si * sj, 1e-300)
    val = (np.cos(d_ij / R) - np.cos(d_i / R) * np.cos(d_j / R)) / denom
    return np.clip(val, -1.0, 1.0)


def _pair_quadratic(model, ansatz: PeakAnsatz, dists, bumps):
    """Sum over pairs i < j of eps^2 G_i' G_j' cos A + mass G_i G_j.

    A is the angle between the geodesics to centers i and j; bumps holds
    (G, G') per center.  This is the cross part of the quadratic form,
    which J weighs by 1 and the norm by 2.  A pair is evaluated only where
    both supports meet and adds exact zeros elsewhere.
    """
    eps, centers = ansatz.epsilon, ansatz.config.centers
    supports = [ansatz.support(d) for d in dists]
    out = np.zeros_like(dists[0])
    for i, j in combinations(range(len(centers)), 2):
        meet = supports[i] & supports[j]
        d_ij = model.distance(centers[i], centers[j])
        cosA = _cos_angle(model, dists[i][meet], dists[j][meet], d_ij)
        (g0i, g1i), (g0j, g1j) = ([g[meet] for g in bumps[k]] for k in (i, j))
        out[meet] += eps ** 2 * g1i * g1j * cosA + ansatz.mass * g0i * g0j
    return out


def _bump_and_laplacian(model, ansatz: PeakAnsatz, d):
    """(G, Lap G) of one bump at sphere distances d from its center.

    A function of its own so that G', G'' and cot are freed before the next
    bump is evaluated on the grid.  Lap G is taken on the support only.
    """
    R = model.radius
    g0, g1, g2 = ansatz.bump(d)
    support = ansatz.support(d)
    ds = d[support]
    with np.errstate(divide="ignore", invalid="ignore"):
        cot = np.where(ds > 0, 1.0 / np.tan(ds / R), 0.0) / R
    lap_s = g2[support] + (model.n - 1) * cot * g1[support]
    lap = np.zeros_like(d)
    lap[support] = np.where(np.isfinite(lap_s), lap_s, 0.0)
    return g0, lap


def _peak_count(model, ansatz: PeakAnsatz) -> int:
    """K, 0 for no ansatz; several peaks are only quadrated on the sphere."""
    K = 0 if ansatz is None else ansatz.K
    if K >= 2 and isinstance(model, FlatSpace):
        raise UnsupportedModel("several peaks are only quadrated on the sphere")
    return K


def energy_J(model, ansatz: PeakAnsatz, rho_step: float = 0.25,
             step_factor: float = 0.34) -> float:
    """The eps-normalized energy of the ansatz, exact peak decomposition."""
    K = _peak_count(model, ansatz)
    if K == 0:
        return 0.0
    eps, p = ansatz.epsilon, ansatz.gs.p
    _, (g0, g1), integral = _polar_fields(model, ansatz, rho_step, 1)
    # eps^2 |grad u|^2 = (dG/drho)^2 in blown-up units
    gr = eps * g1
    val = K * integral(0.5 * gr ** 2 + 0.5 * ansatz.mass * g0 ** 2
                       - np.maximum(g0, 0.0) ** p / p)
    if K >= 2:
        # J(sum u_i) - sum J(u_i)
        dists, integral = _great_circle(model, ansatz, step_factor)
        bumps = [ansatz.bump(d, 1) for d in dists]
        pot = np.maximum(sum(g0 for g0, _ in bumps), 0.0) ** p
        for g0, _ in bumps:
            pot = pot - np.maximum(g0, 0.0) ** p
        val += integral(_pair_quadratic(model, ansatz, dists, bumps) - pot / p)
    return val


def norm_eps(model, ansatz: PeakAnsatz, rho_step: float = 0.25,
             step_factor: float = 0.34) -> float:
    """Squared weighted norm (1/eps^n)(eps^2 |grad u|_2^2 + |u|_(2,s)^2)."""
    K = _peak_count(model, ansatz)
    if K == 0:
        return 0.0
    _, (g0, g1), integral = _polar_fields(model, ansatz, rho_step, 1)
    gr = ansatz.epsilon * g1
    val = K * integral(gr ** 2 + ansatz.mass * g0 ** 2)
    if K >= 2:
        dists, integral = _great_circle(model, ansatz, step_factor)
        bumps = [ansatz.bump(d, 1) for d in dists]
        val += integral(2.0 * _pair_quadratic(model, ansatz, dists, bumps))
    return val


def residual_norm(model, ansatz: PeakAnsatz, rho_step: float = 0.25,
                  step_factor: float = 0.34) -> float:
    """L^(p') size of -eps^2 lap u + (1 + eps^2 c s) u - (u+)^(p-1)."""
    K = _peak_count(model, ansatz)
    if K == 0:
        return 0.0
    eps, n, p = ansatz.epsilon, model.n, ansatz.gs.p
    pp = p / (p - 1.0)
    if K == 1:
        rho, (g0, g1, g2), integral = _polar_fields(model, ansatz, rho_step, 2)
        if isinstance(model, FlatSpace):
            cot_term = 1.0 / rho
        else:
            R = model.radius
            cot_term = (eps / R) / np.tan(eps * rho / R)
        lap = eps ** 2 * g2 + (n - 1) * cot_term * eps * g1
        r = -lap + ansatz.mass * g0 - np.maximum(g0, 0.0) ** (p - 1.0)
    else:
        # the single-peak terms do not separate: |r|^p' is taken on the
        # great-circle grid for the whole sum
        dists, integral = _great_circle(model, ansatz, step_factor)
        u = lap = 0
        for d in dists:
            g0, lap_i = _bump_and_laplacian(model, ansatz, d)
            u, lap = u + g0, lap + lap_i
        r = -eps ** 2 * lap + ansatz.mass * u - np.maximum(u, 0.0) ** (p - 1.0)
    total = integral(np.abs(r) ** pp)
    return total ** (1.0 / pp)


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

    def as_dict(self):
        return {
            "epsilon": self.epsilon,
            "K": self.K,
            "J_measured": self.J_measured,
            "term_alpha": self.term_alpha,
            "term_beta": self.term_beta,
            "term_phi": self.term_phi,
            "term_interaction": self.term_interaction,
            "remainder": self.remainder,
        }


def expansion_compare(model, config: PeakConfig, gs: GroundState,
                      profiles: CorrectionProfiles, dc: DimensionalConstants,
                      rho_step: float = 0.25, step_factor: float = 0.34,
                      gamma_value: float = None) -> EnergyBreakdown:
    """Measured energy against the explicit expansion terms.

    remainder = J_measured - alpha - beta - phi - interaction, exactly.
    """
    ansatz = build_Y(model, config, gs, profiles=profiles, dc=dc)
    J = energy_J(model, ansatz, rho_step=rho_step, step_factor=step_factor)
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
                    term_inter -= 0.5 * gamma_value * float(gs(d / eps))
    rem = J - term_alpha - term_beta - term_phi - term_inter
    return EnergyBreakdown(
        epsilon=eps, K=config.K, J_measured=J, term_alpha=term_alpha,
        term_beta=term_beta, term_phi=term_phi, term_interaction=term_inter,
        remainder=rem,
    )


COEFF_LADDER = (0.1, 0.085, 0.07, 0.055, 0.045, 0.035)
SLOPE_LADDER = (0.1, 0.07, 0.05, 0.035)


def energy_coefficient_fit(model, gs: GroundState, profiles: CorrectionProfiles,
                           dc: DimensionalConstants, center, cutoff_r: float = 1.2,
                           eps_ladder=COEFF_LADDER, rho_step: float = 0.25,
                           include_v: bool = True) -> dict:
    """Fit (J(eps) - alpha)/eps^2 to a quadratic in eps^2 for one peak.

    Returns the extracted eps^2 and eps^4 energy coefficients together with
    the raw ladder, so callers can judge the fit themselves.
    """
    eps_ladder = tuple(float(e) for e in eps_ladder)
    ys = []
    for eps in eps_ladder:
        config = PeakConfig(epsilon=eps, centers=[center], cutoff_r=cutoff_r)
        ansatz = build_Y(model, config, gs, profiles=profiles if include_v else None, dc=dc)
        J = energy_J(model, ansatz, rho_step=rho_step)
        ys.append((J - dc.alpha) / eps ** 2)
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
    """(slope, r2) of log|value| against log eps."""
    x = np.log(np.asarray(eps_ladder, dtype=float))
    y = np.log(np.abs(np.asarray(values, dtype=float)))
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    fit = A @ coef
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


def residual_slopes(model, gs: GroundState, profiles: CorrectionProfiles,
                    dc: DimensionalConstants, center, cutoff_r: float = 1.2,
                    eps_ladder=SLOPE_LADDER, rho_step: float = 0.25) -> dict:
    """Log-log residual decay rates of the plain and corrected ansatz."""
    eps_ladder = tuple(float(e) for e in eps_ladder)
    vals = {"W": [], "Y": []}
    for eps in eps_ladder:
        config = PeakConfig(epsilon=eps, centers=[center], cutoff_r=cutoff_r)
        W = build_W(model, config, gs, c_bold=dc.c_bold)
        Y = build_Y(model, config, gs, profiles=profiles, dc=dc)
        vals["W"].append(residual_norm(model, W, rho_step=rho_step))
        vals["Y"].append(residual_norm(model, Y, rho_step=rho_step))
    out = {"eps_ladder": eps_ladder, "W_values": vals["W"], "Y_values": vals["Y"]}
    out["W_slope"], out["W_r2"] = loglog_slope(eps_ladder, vals["W"])
    out["Y_slope"], out["Y_r2"] = loglog_slope(eps_ladder, vals["Y"])
    return out
