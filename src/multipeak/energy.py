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
has one evaluation, PeakAnsatz.bump(d): (G, G', Lap G) at the manifold
distances d, Lap G = G'' + polar_drift(d) G' the one Laplacian both
passes read.  The single-peak terms come from _polar_pass: one evaluation
of the bump on the polar nodes, which all lie inside its support.  They
do not depend on the center on these models, so they are computed once
and counted K times.  For several peaks the model's support_grid gives
the nodes within cutoff_r of some center, with the distance to every
center and the measure on those nodes; every integrand is exactly 0 on
the nodes it drops.  _field_pass cuts them into blocks of _BUMP_BLOCK,
whose temporaries stay in cache, evaluates each bump there once, and
fills the densities of J's and the norm's cross terms and the residual of
the whole sum, which does not split into single-peak terms.  A pool of
_WORKERS threads takes the blocks; each block writes only its own slice
of the density arrays, which are then reduced whole, so the integrals are
the same to the last bit on any number of cores.  An ansatz answers only
for the model it was built on.

Past cutoff_r the cutoff makes G, G' and Lap G exactly 0, so _field_pass
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

Geometry reaches the ansatz only through the model methods in _READS
(n, injectivity_radius, as_point, distance, curvature_at, polar_density,
polar_drift), and several peaks through _READS_SEVERAL (support_grid,
cos_angle); geometry.py describes them.  A model that lacks one is
refused with UnsupportedModel, which names what it lacks.  s and the
Ricci factor are read at the first center, exact on a homogeneous model.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .constants import DimensionalConstants, gamma
from .correction import CorrectionProfiles
from .geometry import UnsupportedModel, phi
from .groundstate import GroundState
from .radial import GL8, gauss_panels, surface_area


class InjectivityViolation(ValueError):
    """Cutoff or placement exceeds the model's injectivity radius."""


class LadderTooShort(ValueError):
    """Too few distinct eps: a log-log slope needs 2, a coefficient fit 4."""


# Support-grid nodes per block of _field_pass.  On a million points the
# profile lookups (take, Horner) are bound by memory bandwidth; a block of
# 2^15 keeps their temporaries in cache.  Each worker thread holds one
# block's temporaries at a time (about 5 MB for a corrected pair), so two
# workers hold less than one block of 2^16 would.  Smaller blocks lose more
# to per-call Python overhead, under the GIL, than they save.
_BUMP_BLOCK = 1 << 15

# Worker threads of _field_pass: one per core this process may run on.
# numpy's take, searchsorted, boolean indexing and ufuncs release the GIL,
# so the blocks run side by side.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

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


_READS = ("n", "injectivity_radius", "as_point", "distance", "curvature_at",
          "polar_density", "polar_drift")
_READS_SEVERAL = ("support_grid", "cos_angle")


def _require(model, names, what: str):
    missing = [a for a in names if not hasattr(model, a)]
    if missing:
        raise UnsupportedModel(f"{what} reads {', '.join(missing)} of the model, "
                               f"which {type(model).__name__} lacks")


def _interaction_sum(model, centers, gs: GroundState, eps: float) -> float:
    """Sum of U(d(c_i, c_j) / eps) over the ordered pairs i != j, one scalar
    evaluation per pair, row by row."""
    total = 0.0
    for i, a in enumerate(centers):
        for j, b in enumerate(centers):
            if i != j:
                total += float(gs.profile(model.distance(a, b) / eps))
    return total


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
    margin = eps ** 4 - _interaction_sum(model, config.centers, gs, eps)
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
        _require(model, _READS, "the peak ansatz")
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
        self.s_center = model.curvature_at(self.config.centers[0]).s
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
        """(G, G', Lap G) of one bump at manifold distances d, with Lap G =
        G'' + polar_drift(d) G'; at d = 0 it is the limit n G''.

        Past cutoff_r the cutoff makes all three exactly 0, so a caller may
        leave out the distances beyond it.
        """
        eps, rc = self.epsilon, self.config.cutoff_r
        h = self.blownup_profile(d / eps)
        c0, c1, c2 = smoothstep_cutoff(d, rc)
        g1 = h[1] / eps * c0 + h[0] * c1
        g2 = h[2] / eps ** 2 * c0 + 2.0 * h[1] / eps * c1 + h[0] * c2
        with np.errstate(divide="ignore", invalid="ignore"):
            lap = np.where(d > 0, g2 + self.model.polar_drift(d) * g1, self.model.n * g2)
        return h[0] * c0, g1, lap[()]  # [()]: a scalar d gives a scalar


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
    return gauss_panels(np.array(sorted(edges)), GL8)


def _rho_max(ansatz: PeakAnsatz) -> float:
    cap = ansatz.gs.r_max + 12.0  # profile tail is below 1e-12 there
    return min(ansatz.config.cutoff_r / ansatz.epsilon, cap)


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
    the ball in blown-up units, from one evaluation of (G, G', Lap G).
    Every node lies inside the support.
    """
    model = ansatz.model
    eps, rc, n, p = ansatz.epsilon, ansatz.config.cutoff_r, model.n, ansatz.gs.p
    kinks = () if np.isinf(rc) else (0.5 * rc / eps, rc / eps)
    rho, w = _panel_nodes(_rho_max(ansatz), kinks)
    meas = rho ** (n - 1) * model.polar_density(eps * rho) ** (n - 1)

    def integral(dens) -> float:
        return surface_area(n) * float(np.sum(w * dens * meas))

    g0, g1, lap = ansatz.bump(eps * rho)
    mass, pos = ansatz.mass, np.maximum(g0, 0.0)
    # eps^2 |grad u|^2 = (dG/drho)^2 in blown-up units
    gr = eps * g1
    r = -eps ** 2 * lap + mass * g0 - pos ** (p - 1.0)
    return _Integrals(integral(0.5 * gr ** 2 + 0.5 * mass * g0 ** 2 - pos ** p / p),
                      integral(gr ** 2 + mass * g0 ** 2),
                      integral(np.abs(r) ** (p / (p - 1.0))))


def _bump_fields(ansatz: PeakAnsatz, d):
    """(support, G, G', Lap G) of one bump at distances d from its center,
    each evaluated on the support only.
    """
    support = d < ansatz.config.cutoff_r
    fields = ansatz.bump(d[support])
    # allocated after the evaluation, whose temporaries are the block's peak
    G, dG, lap = (np.zeros_like(d) for _ in range(3))
    G[support], dG[support], lap[support] = fields
    return support, G, dG, lap


def _field_pass(ansatz: PeakAnsatz, grid) -> _Integrals:
    """The three support-grid integrals from one evaluation of each bump.

    Blocks of _BUMP_BLOCK kept nodes run on a pool of _WORKERS threads, each
    writing its own slice of full-length density arrays that grid.integral
    reduces whole; concurrent.futures is imported at the first pass, so a
    CLI command that runs none does not load it.  The pool joins its threads
    before the pass returns and raises a block's exception here.  The cross
    part of the quadratic form, summed over pairs i < j, is eps^2 G_i' G_j'
    cos A + mass G_i G_j with A the angle between the geodesics to centers
    i and j (model.cos_angle); J weighs it by 1 and the norm by 2.  A pair
    is evaluated only where both supports meet and adds exact zeros
    elsewhere.
    """
    from concurrent.futures import ThreadPoolExecutor

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
            cosA = model.cos_angle(dists[i][meet], dists[j][meet], d_ij)
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

    with ThreadPoolExecutor(_WORKERS) as pool:
        list(pool.map(fill, range(0, grid.measure.size, _BUMP_BLOCK)))
    return _Integrals(grid.integral(dens_J), grid.integral(dens_norm),
                      grid.integral(dens_res))


def _measure(model, ansatz: PeakAnsatz) -> _Integrals:
    """J, the squared norm and the residual norm of the ansatz.

    The single-peak terms come from one polar pass and are counted K
    times; for K >= 2 the cross terms of J and the norm, and the residual
    of the whole sum, which does not separate, come from the support grid.
    The first call runs those passes and keeps the result in
    ansatz._measured; every later call returns it.
    """
    if model != ansatz.model:
        raise ValueError(f"ansatz is built on {ansatz.model!r}, not on {model!r}")
    if ansatz._measured is not None:
        return ansatz._measured
    K, config = ansatz.K, ansatz.config
    J, norm, residual = _polar_pass(ansatz)
    if K >= 2:
        _require(model, _READS_SEVERAL, "the quadrature of several peaks")
        cross = _field_pass(ansatz, model.support_grid(
            config.centers, config.epsilon, config.cutoff_r, _STEP_FACTOR))
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
        term_inter = -0.5 * gamma_value * _interaction_sum(model, config.centers, gs, eps)
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
