import sys
import threading
from dataclasses import asdict
from itertools import combinations

import numpy as np
import pytest

from multipeak import energy, geometry
from multipeak.constants import gamma, product_exponent
from multipeak.energy import (
    COEFF_LADDER,
    SLOPE_LADDER,
    InjectivityViolation,
    LadderTooShort,
    PeakAnsatz,
    PeakConfig,
    UnsupportedModel,
    admissible,
    build_W,
    build_Y,
    energy_J,
    energy_coefficient_fit,
    expansion_compare,
    loglog_slope,
    norm_eps,
    one_peak_ladder,
    residual_norm,
    residual_slopes,
    smoothstep_cutoff,
)
from multipeak.geometry import FlatSpace, RoundSphere, WarpedSphere
from multipeak.groundstate import solve_ground_state
from multipeak.radial import Quadrature, surface_area

S3 = RoundSphere(3, 1.0)
FLAT3 = FlatSpace(3)
CBOLD = 0.2  # (N-2)/(4(N-1)) for N = 6
SCAL = 6.0  # unit S^3


@pytest.fixture(scope="module")
def state(corrections, dimensional_constants):
    """(gs, cp, dc) of (n, m) = (3, 3), built once for the module."""
    return solve_ground_state(3, 3.0), corrections(3, 3.0), dimensional_constants(3, 3)


def _one_peak(eps, center=None, cutoff=1.2):
    c = S3.point(0.6) if center is None else center
    return PeakConfig(epsilon=eps, centers=np.asarray(c)[None], cutoff_r=cutoff)


# ---------------------------------------------------------------- cutoff


def test_cutoff_plateau_ramp_support():
    rc = 1.2
    r = np.linspace(0.0, 2.0, 401)
    chi = smoothstep_cutoff(r, rc)[0]
    assert np.all(chi[r <= rc / 2] == 1.0)
    assert np.all(chi[r >= rc] == 0.0)
    ramp = chi[(r > rc / 2) & (r < rc)]
    assert np.all(np.diff(ramp) < 0)
    assert np.all((ramp > 0) & (ramp < 1))


def test_cutoff_derivatives_match_finite_differences():
    rc = 1.2
    r = np.linspace(0.05, 1.9, 173)
    h = 1e-6
    (c0p, c1p, _), (c0m, c1m, _) = smoothstep_cutoff(r + h, rc), smoothstep_cutoff(r - h, rc)
    _, c1, c2 = smoothstep_cutoff(r, rc)
    assert np.abs(c1 - (c0p - c0m) / (2 * h)).max() < 1e-5
    assert np.abs(c2 - (c1p - c1m) / (2 * h)).max() < 1e-4


def test_cutoff_infinite_radius_is_identity():
    r = np.linspace(0.0, 50.0, 11)
    c0, c1, c2 = smoothstep_cutoff(r, np.inf)
    assert np.all(c0 == 1.0)
    assert np.all(c1 == 0.0)
    assert np.all(c2 == 0.0)


# ---------------------------------------------------------------- config


def test_peak_config_rejects_bad_parameters():
    c = S3.point(0.5)
    with pytest.raises(ValueError):
        PeakConfig(epsilon=0.0, centers=c[None], cutoff_r=1.2)
    with pytest.raises(ValueError):
        PeakConfig(epsilon=0.1, centers=c[None], cutoff_r=-1.0)
    for eps in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="epsilon"):
            PeakConfig(epsilon=eps, centers=c[None], cutoff_r=1.2)
    with pytest.raises(ValueError, match="cutoff_r"):
        PeakConfig(epsilon=0.1, centers=c[None], cutoff_r=np.nan)
    # no center, as a list or as a 2-D array without rows
    for centers in ([], np.empty((0, 4))):
        with pytest.raises(ValueError, match="at least one center"):
            PeakConfig(epsilon=0.1, centers=centers, cutoff_r=1.2)
    cfg = PeakConfig(epsilon=0.1, centers=np.stack([c, S3.point(1.0)]), cutoff_r=1.2)
    assert cfg.K == 2
    assert PeakConfig(epsilon=0.1, centers=c[None], cutoff_r=np.inf).K == 1


def test_ansatz_normalizes_sphere_centers(state):
    gs, _, _ = state
    cfg = PeakConfig(epsilon=0.1, centers=[3.0 * S3.point(0.4)], cutoff_r=1.2)
    W = build_W(S3, cfg, gs)
    assert np.linalg.norm(W.config.centers[0]) == pytest.approx(1.0, abs=1e-14)


def test_ansatz_leaves_caller_config_untouched(state):
    gs, _, _ = state
    cfg = PeakConfig(epsilon=0.1, centers=[3.0 * S3.point(0.4)], cutoff_r=1.2)
    W = build_W(S3, cfg, gs)
    assert W.config is not cfg
    assert np.linalg.norm(cfg.centers[0]) == pytest.approx(3.0, rel=1e-15)
    # a second ansatz from the same config measures the same
    again = build_W(S3, cfg, gs)
    for fn in (energy_J, norm_eps, residual_norm):
        assert fn(S3, again) == fn(S3, W)
    unit = build_W(S3, PeakConfig(0.1, [S3.point(0.4)], 1.2), gs)
    assert energy_J(S3, W) == pytest.approx(energy_J(S3, unit), rel=1e-13)


# ----------------------------------------------------------- bump support


def _unrestricted_bump(ansatz, d):
    """(G, G', G'') on every d, the cutoff supplying the zeros."""
    eps, rc = ansatz.epsilon, ansatz.config.cutoff_r
    h0, h1, h2 = ansatz.blownup_profile(d / eps)
    c0, c1, c2 = smoothstep_cutoff(d, rc)
    return (h0 * c0, h1 / eps * c0 + h0 * c1,
            h2 / eps**2 * c0 + 2.0 * h1 / eps * c1 + h0 * c2)


def _sphere_lap(d, g1, g2):
    """Lap G on S3 from G' and G'' at distances d inside the support; at the
    center the limit n G''(0)."""
    R = S3.radius
    with np.errstate(divide="ignore", invalid="ignore"):
        cot = np.where(d > 0, 1.0 / np.tan(d / R), 0.0) / R
    return np.where(d > 0, g2 + (S3.n - 1) * cot * g1, S3.n * g2)


def _support_grid(ansatz):
    """The support grid that _measure reads for the ansatz's K >= 2 pass."""
    cfg = ansatz.config
    return ansatz.model.support_grid(cfg.centers, cfg.epsilon, cfg.cutoff_r,
                                     energy._STEP_FACTOR)


def _ansatz(state, corrected, cfg):
    gs, cp, dc = state
    if corrected:
        return build_Y(S3, cfg, gs, profiles=cp, dc=dc)
    return build_W(S3, cfg, gs, c_bold=dc.c_bold)


@pytest.mark.parametrize("corrected", [False, True])
def test_bump_is_evaluated_on_its_support_only(corrected, state):
    # the field pass evaluates a bump on d < cutoff_r only; across the
    # cutoff's edge each value is the unrestricted formula's, bit for bit,
    # and past it the cutoff itself gives exact zeros
    A = _ansatz(state, corrected, _one_peak(0.05))
    edge = np.concatenate([np.linspace(0.0, 2.0, 801), [1.2, np.nextafter(1.2, 0.0), 3.0]])
    inside = edge < 1.2
    G, dG, G2 = _unrestricted_bump(A, edge)
    lap_want = np.zeros_like(edge)
    lap_want[inside] = _sphere_lap(edge[inside], dG[inside], G2[inside])
    for g, w in zip(A.bump(edge), (G, dG, lap_want)):
        assert g.shape == edge.shape
        assert np.array_equal(g, w)
        assert np.all(w[~inside] == 0.0)
    support, *fields = energy._bump_fields(A, edge)
    assert np.array_equal(support, inside)
    for got, w in zip(fields, (G, dG, lap_want)):
        assert got.shape == edge.shape
        assert np.array_equal(got[inside], w[inside])
        assert np.all(got[~inside] == 0.0)
    # scalar distances on both sides of the cutoff
    assert A.bump(0.3) == tuple(g[0] for g in A.bump(np.array([0.3])))
    assert A.bump(1.5) == (0.0, 0.0, 0.0)
    assert all(np.ndim(g) == 0 for g in A.bump(0.3))


@pytest.mark.parametrize("corrected", [False, True])
def test_bump_blocks_equal_one_pass(corrected, state):
    # a 2-D array with a support of more than two _BUMP_BLOCKs: the field
    # pass's blocks of its nodes give each value of one pass over the whole
    # array, bit for bit
    A = _ansatz(state, corrected, _one_peak(0.05))
    d = np.linspace(0.0, 2.0, 6 * energy._BUMP_BLOCK).reshape(3, -1)
    inside = d < 1.2
    assert inside.sum() > 2 * energy._BUMP_BLOCK
    flat, block = d.ravel(), energy._BUMP_BLOCK
    blocks = [energy._bump_fields(A, flat[k:k + block]) for k in range(0, flat.size, block)]
    G, dG, G2 = _unrestricted_bump(A, d)
    lap = np.zeros_like(d)
    lap[inside] = _sphere_lap(d[inside], dG[inside], G2[inside])
    for k, w in enumerate((G, dG, lap)):
        got = np.concatenate([b[1 + k] for b in blocks]).reshape(d.shape)
        assert np.array_equal(got[inside], w[inside])
        assert np.all(got[~inside] == 0.0)
    for g, w in zip(A.bump(d), (G, dG, lap)):
        assert g.shape == d.shape
        assert np.array_equal(g, w)


@pytest.mark.parametrize("corrected", [False, True])
def test_bump_laplacian_at_the_center_is_its_limit(corrected, state):
    # G' ~ G''(0) d near the center, so G'' + (n-1) cot(d) G' tends to
    # n G''(0) as d -> 0+; at d = 0 the bump gives that limit
    A = _ansatz(state, corrected, _one_peak(0.05))
    G2_0 = _unrestricted_bump(A, np.array([0.0]))[2][0]
    lap = A.bump(np.array([0.0, 1e-7]))[2]
    assert lap[0] == S3.n * G2_0
    assert A.bump(0.0)[2] == lap[0]
    assert lap[1] == pytest.approx(lap[0], rel=1e-6)


def test_ansatz_vanishes_outside_every_support(state):
    gs, _, _ = state
    W = build_W(S3, _one_peak(0.05), gs)
    center = W.config.centers[0]
    assert W.bump(S3.distance(S3.point(0.6 + 1.5), center)) == (0.0, 0.0, 0.0)
    assert W.bump(S3.distance(S3.point(0.6), center))[0] == float(gs.profile(0.0))


def test_two_peak_values_pinned(state):
    # two overlapping peaks: skipping the exact zeros outside the supports
    # must leave J, the norm and both residuals where the full grid puts them;
    # abs=0 keeps approx's default absolute 1e-12 from widening the residual
    # pins to ~8e-13 relative
    gs, cp, dc = state
    cfg = PeakConfig(0.1, [S3.point(0.8), S3.point(1.4)], 1.2)
    Y = build_Y(S3, cfg, gs, profiles=cp, dc=dc)
    W = build_W(S3, cfg, gs, c_bold=dc.c_bold)
    assert energy_J(S3, Y) == pytest.approx(85.7783583882525, rel=1e-14, abs=0)
    assert norm_eps(S3, Y) == pytest.approx(525.9539025193556, rel=1e-14, abs=0)
    assert residual_norm(S3, W) == pytest.approx(1.204611746743736, rel=1e-14, abs=0)
    assert residual_norm(S3, Y) == pytest.approx(1.163632900868022, rel=1e-14, abs=0)


@pytest.mark.parametrize("model,cutoff,values", [
    (S3, 1.2, (43.64432710542147, 261.7348054212869, 0.044335344040680354,
               43.64419770696145, 261.86533689868986, 0.00025970629900487155)),
    (FLAT3, np.inf, (43.660236716246274, 261.96142029747836, 1.1704136534028935e-13,
                     43.660236716246274, 261.96142029747836, 1.1704136534028935e-13)),
], ids=["S3", "R3"])
def test_one_peak_values_pinned(model, cutoff, values, state):
    # J, the norm and the residual of W and Y for one peak at eps = 0.05;
    # abs=0 drops approx's default absolute 1e-12, which would pass any
    # residual below it (on R^3 the residual is at the interpolation floor)
    gs, cp, dc = state
    center = S3.point(0.6) if model is S3 else np.zeros(3)
    cfg = PeakConfig(0.05, [center], cutoff)
    W = build_W(model, cfg, gs, c_bold=dc.c_bold)
    Y = build_Y(model, cfg, gs, profiles=cp, dc=dc)
    got = [fn(model, A) for A in (W, Y) for fn in (energy_J, norm_eps, residual_norm)]
    assert got == pytest.approx(list(values), rel=1e-14, abs=0)


@pytest.mark.parametrize("angles", [(0.6,), (0.8, 1.4)], ids=["K1", "K2"])
def test_sphere_radius_scaling(angles, state):
    # eps^2 s and every distance over eps are the same on S^3(2) at
    # (eps, cutoff) = (0.2, 2.4) as on S^3(1) at (0.1, 1.2), so every
    # measured value is too
    gs, cp, dc = state

    def values(model, eps, cutoff):
        cfg = PeakConfig(eps, [model.point(a) for a in angles], cutoff)
        W = build_W(model, cfg, gs, c_bold=dc.c_bold)
        Y = build_Y(model, cfg, gs, profiles=cp, dc=dc)
        return [fn(model, A) for A in (W, Y) for fn in (energy_J, norm_eps, residual_norm)]

    assert values(RoundSphere(3, 2.0), 0.2, 2.4) == pytest.approx(
        values(S3, 0.1, 1.2), rel=1e-14, abs=0)


@pytest.mark.parametrize("model", [S3, RoundSphere(4, 2.0), FLAT3, FlatSpace(5)],
                         ids=["S3", "S4-R2", "R3", "R5"])
def test_polar_drift_is_the_log_derivative_of_the_polar_measure(model):
    # lap f = f'' + polar_drift(d) f' for f radial in the distance d, with
    # the polar measure d^(n-1) polar_density(d)^(n-1); its log derivative
    # is taken by central differences
    h, n = 1e-6, model.n
    d = np.linspace(0.05, 1.2, 24)

    def log_measure(r):
        return (n - 1) * np.log(r * model.polar_density(r))

    fd = (log_measure(d + h) - log_measure(d - h)) / (2 * h)
    assert model.polar_drift(d) == pytest.approx(fd, rel=1e-8, abs=0)


def _rotation(seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
    return q * np.sign(np.diag(r))


def _full_grid(ansatz):
    """(theta, phi, measure, dists) on the whole (theta, phi) grid, 2-D."""
    n, R, eps = S3.n, S3.radius, ansatz.epsilon
    ang_step = min(energy._STEP_FACTOR * eps / R, np.pi / 24.0)
    th, wth = geometry._gl_panels(0.0, np.pi, ang_step)
    ph, wph = geometry._gl_panels(0.0, np.pi, ang_step)
    e_a, e_b = geometry._great_circle_basis(ansatz.config.centers)
    ct, st = np.cos(th)[:, None], np.sin(th)[:, None]
    cp = np.cos(ph)[None, :]
    dists = []
    for c in ansatz.config.centers:
        ca, cb = float(c @ e_a), float(c @ e_b)
        dists.append(R * np.arccos(np.clip(ct * ca + st * cp * cb, -1.0, 1.0)))
    area = (np.sin(th) ** (n - 1))[:, None] * (np.sin(ph) ** (n - 2))[None, :]
    wt = wth[:, None] * wph[None, :]
    measure = (R ** n / eps ** n) * surface_area(n - 1) * area * wt
    return th, ph, measure, dists


# (label, eps, centers): the bench pair turned by two rotations, whose first
# center has c_b = -2.4e-16 (suffix) and +3.5e-17 (prefix); K = 3 listed so
# that 1.7 falls on the far side of e_b (a proper suffix); a disjoint pair
_GRID_CASES = [
    (f"bench{seed}-eps{eps}", eps, [_rotation(seed) @ S3.point(a) for a in (0.8, 1.4)])
    for seed in (41, 42) for eps in (0.1, 0.05)
] + [
    ("K3-eps0.05", 0.05, [S3.point(1.1), S3.point(0.5), S3.point(1.7)]),
    ("disjoint-eps0.1", 0.1, [S3.point(0.3), S3.point(2.9)]),
]


@pytest.mark.parametrize("eps,centers", [c[1:] for c in _GRID_CASES],
                         ids=[c[0] for c in _GRID_CASES])
def test_support_grid_restricts_the_full_grid(eps, centers, state):
    gs, _, _ = state
    W = build_W(S3, PeakConfig(eps, centers, 1.2), gs)
    grid = _support_grid(W)
    th, ph, measure, dists = _full_grid(W)
    rows, cols = geometry._kept_indices(grid.prefix, grid.suffix, grid.phi.size)
    # kept nodes: nodes, weights and distances are the full grid's, bit for bit
    assert np.array_equal(grid.theta, th) and np.array_equal(grid.phi, ph)
    assert np.array_equal(grid.measure, measure[rows, cols])
    for got, full in zip(grid.dists, dists):
        assert np.array_equal(got, full[rows, cols])
    # dropped nodes lie outside every support
    dropped = np.ones(measure.shape, dtype=bool)
    dropped[rows, cols] = False
    assert dropped.any()
    for full in dists:
        assert np.all(full[dropped] >= 1.2)


def test_support_grid_covers_prefix_and_suffix_caps():
    # the cases above reach both branches of the cap: c_b > 0 and c_b < 0
    signs = set()
    for _, _, centers in _GRID_CASES:
        units = [c / np.linalg.norm(c) for c in centers]
        _, e_b = geometry._great_circle_basis(units)
        signs |= {np.sign(c @ e_b) for c in units}
    assert {-1.0, 1.0} <= signs


def test_one_rung_builds_the_support_grid_once(state):
    gs, cp, dc = state
    cfg = PeakConfig(0.1, [S3.point(0.8), S3.point(1.4)], 1.2)
    Y = build_Y(S3, cfg, gs, profiles=cp, dc=dc)
    W = build_W(S3, cfg, gs, c_bold=dc.c_bold)
    geometry._support_grid.cache_clear()
    energy_J(S3, Y)
    norm_eps(S3, Y)
    residual_norm(S3, W)
    residual_norm(S3, Y)
    info = geometry._support_grid.cache_info()
    # Y keeps its pass from energy_J on, so only W looks the grid up again
    assert (info.misses, info.hits) == (1, 1)


def _whole_array_integrals(ansatz, grid):
    """(J, norm, residual) cross integrals by the whole-array formulas.

    Each bump is evaluated on every kept node at once, the cutoff giving
    the zeros outside its support; the pair and Laplacian temporaries span
    the whole grid.
    """
    eps, p, mass = ansatz.epsilon, ansatz.gs.p, ansatz.mass
    pp = p / (p - 1.0)
    centers, dists = ansatz.config.centers, grid.dists
    bumps = [_unrestricted_bump(ansatz, d) for d in dists]
    supports = [d < ansatz.config.cutoff_r for d in dists]
    pair = np.zeros_like(dists[0])
    for i, j in combinations(range(len(centers)), 2):
        meet = supports[i] & supports[j]
        d_ij = S3.distance(centers[i], centers[j])
        cosA = S3.cos_angle(dists[i][meet], dists[j][meet], d_ij)
        (g0i, g1i), (g0j, g1j) = ([g[meet] for g in bumps[k][:2]] for k in (i, j))
        pair[meet] += eps ** 2 * g1i * g1j * cosA + mass * g0i * g0j
    pot = np.maximum(sum(g0 for g0, _, _ in bumps), 0.0) ** p
    for g0, _, _ in bumps:
        pot = pot - np.maximum(g0, 0.0) ** p
    u = lap = 0
    for d, support, (g0, g1, g2) in zip(dists, supports, bumps):
        lap_i = np.zeros_like(d)
        lap_i[support] = _sphere_lap(d[support], g1[support], g2[support])
        u, lap = u + g0, lap + lap_i
    r = -eps ** 2 * lap + mass * u - np.maximum(u, 0.0) ** (p - 1.0)
    return (grid.integral(pair - pot / p), grid.integral(2.0 * pair),
            grid.integral(np.abs(r) ** pp))


@pytest.mark.parametrize("eps,centers", [c[1:] for c in _GRID_CASES],
                         ids=[c[0] for c in _GRID_CASES])
def test_field_pass_equals_whole_array_formulas(eps, centers, state, monkeypatch):
    # blocks of 1001 put block edges inside every support; on any number of
    # threads each block writes only its own slice of the densities
    gs, cp, dc = state
    Y = build_Y(S3, PeakConfig(eps, centers, 1.2), gs, profiles=cp, dc=dc)
    grid = _support_grid(Y)
    want = _whole_array_integrals(Y, grid)
    threads, default = threading.active_count(), energy._BUMP_BLOCK
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)  # threads interleave within a block
        for workers in (1, 4):
            monkeypatch.setattr(energy, "_WORKERS", workers)
            for block in (default, 1001):
                monkeypatch.setattr(energy, "_BUMP_BLOCK", block)
                assert tuple(energy._field_pass(Y, grid)) == want, (workers, block)
    finally:
        sys.setswitchinterval(switch)
    assert threading.active_count() == threads


def _threads_of_field_pass(state, monkeypatch, workers, fail_off_main=False):
    """The threads that evaluate bumps in one _field_pass in blocks of 1001
    on a pool of workers threads; with fail_off_main, a bump evaluated off
    the calling thread raises."""
    gs, cp, dc = state
    Y = build_Y(S3, PeakConfig(0.1, [S3.point(0.8), S3.point(1.4)], 1.2), gs,
                profiles=cp, dc=dc)
    grid = _support_grid(Y)
    seen = set()
    run = energy._bump_fields

    def recorded(ansatz, d):
        seen.add(threading.current_thread())
        if fail_off_main and threading.current_thread() is not threading.main_thread():
            raise RuntimeError("helper block failed")
        return run(ansatz, d)

    monkeypatch.setattr(energy, "_bump_fields", recorded)
    monkeypatch.setattr(energy, "_BUMP_BLOCK", 1001)
    monkeypatch.setattr(energy, "_WORKERS", workers)
    energy._field_pass(Y, grid)
    return seen


def test_field_pass_threads(state, monkeypatch):
    # the pool's threads evaluate every bump, the calling thread none
    for workers in (1, 4):
        seen = _threads_of_field_pass(state, monkeypatch, workers)
        assert threading.main_thread() not in seen
        assert 1 <= len(seen) <= workers


def test_field_pass_raises_a_helper_exception(state, monkeypatch):
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="helper block failed"):
        _threads_of_field_pass(state, monkeypatch, 1, fail_off_main=True)
    assert threading.active_count() == threads


@pytest.fixture
def field_passes(monkeypatch):
    """The ansatze of every _field_pass run, from an empty grid cache on."""
    geometry._support_grid.cache_clear()
    calls = []
    run = energy._field_pass

    def counted(ansatz, grid):
        calls.append(ansatz)
        return run(ansatz, grid)

    monkeypatch.setattr(energy, "_field_pass", counted)
    return calls


def _rung(state, eps=0.1):
    gs, cp, dc = state
    cfg = PeakConfig(eps, [S3.point(0.8), S3.point(1.4)], 1.2)
    return (build_Y(S3, cfg, gs, profiles=cp, dc=dc),
            build_W(S3, cfg, gs, c_bold=dc.c_bold))


def test_one_rung_runs_one_field_pass_per_ansatz(state, field_passes):
    Y, W = _rung(state)
    energy_J(S3, Y)
    norm_eps(S3, Y)
    residual_norm(S3, W)
    residual_norm(S3, Y)
    assert field_passes == [Y, W]


def test_energy_check_rung_measures_one_Y(field_passes, tmp_path):
    # the rung builds Y once for the breakdown and its residual, then W
    from multipeak import cli

    out = tmp_path / "energy.json"
    rc = cli.main(["energy-check", "--n", "3", "--m", "3", "--K", "2", "--eps", "0.1",
                   "--cache-dir", str(tmp_path / "cache"), "--out", str(out)])
    assert rc == 0 and out.exists()
    assert [A.profiles is not None for A in field_passes] == [True, False]


def test_field_pass_memo_keys(state, field_passes):
    gs, cp, dc = state
    Y, W = _rung(state)
    residual_norm(S3, W)
    residual_norm(S3, Y)
    assert field_passes == [W, Y]  # W and Y never share a pass
    # a subclass may change the fields, so it does not reuse its base's pass
    Z = _PsiCorrectedAnsatz(S3, Y.config, gs, c_bold=dc.c_bold, profiles=cp)
    residual_norm(S3, Z)
    assert field_passes[-1] is Z
    # a new eps builds a new grid and measures again
    Y2, _ = _rung(state, eps=0.09)
    residual_norm(S3, Y2)
    assert field_passes[-1] is Y2 and len(field_passes) == 4


@pytest.fixture
def polar_passes(monkeypatch):
    """The ansatze of every _polar_pass run."""
    calls = []
    run = energy._polar_pass

    def counted(ansatz):
        calls.append(ansatz)
        return run(ansatz)

    monkeypatch.setattr(energy, "_polar_pass", counted)
    return calls


def _energy_check(tmp_path, *flags):
    from multipeak import cli

    out = tmp_path / "energy.json"
    rc = cli.main(["energy-check", "--n", "3", "--m", "3", *flags,
                   "--cache-dir", str(tmp_path / "cache"), "--out", str(out)])
    assert rc == 0 and out.exists()


def test_energy_check_measures_each_ansatz_once(polar_passes, field_passes, tmp_path):
    # K = 1: the one-peak ladder's W and Y serve the rungs, the slopes and the fit
    _energy_check(tmp_path, "--K", "1", "--eps", ",".join(map(str, COEFF_LADDER)))
    assert len(polar_passes) == 12 == len(set(map(id, polar_passes)))
    assert field_passes == []
    # K = 2: the one-peak ladder for the slopes, and the pair's W and Y
    polar_passes.clear()
    _energy_check(tmp_path, "--K", "2", "--eps", "0.1,0.05")
    assert len(polar_passes) == 8 == len(set(map(id, polar_passes)))
    assert len(field_passes) == 4


def test_fit_and_slopes_reduce_a_measured_ladder(state, polar_passes):
    gs, cp, dc = state
    ladder = one_peak_ladder(S3, gs, cp, dc, S3.point(0.6))
    J = [energy_J(S3, Y) for _, Y in ladder]
    res_W = [residual_norm(S3, W) for W, _ in ladder]
    res_Y = [residual_norm(S3, Y) for _, Y in ladder]
    measured = len(polar_passes)
    fit = energy_coefficient_fit(ladder, dc.alpha)
    sl = residual_slopes(ladder)
    assert measured == 2 * len(COEFF_LADDER) == len(polar_passes)
    assert fit["eps_ladder"] == sl["eps_ladder"] == COEFF_LADDER
    assert fit["values"] == [(j - dc.alpha) / e ** 2 for j, e in zip(J, COEFF_LADDER)]
    assert (sl["W_values"], sl["Y_values"]) == (res_W, res_Y)


# ---------------------------------------------------------- admissibility


def test_single_peak_margin_is_eps_fourth(state):
    gs, _, _ = state
    cfg = _one_peak(0.05)
    ok, margin = admissible(S3, cfg, gs)
    assert ok
    assert margin == pytest.approx(0.05 ** 4, rel=1e-14)


def test_pair_separation_threshold(state):
    # at eps = 0.05 the tail crosses eps^4 between 12 and 14 widths
    gs, _, _ = state
    eps = 0.05
    a = S3.point(0.8)
    close = PeakConfig(eps, np.stack([a, S3.point(0.8 + 12 * eps)]), 1.2)
    okc, mc = admissible(S3, close, gs)
    far = PeakConfig(eps, np.stack([a, S3.point(0.8 + 14 * eps)]), 1.2)
    okf, mf = admissible(S3, far, gs)
    assert not okc and mc < 0
    assert okf and mf > 0


def test_placement_radius_constraint(state):
    gs, _, _ = state
    cfg = PeakConfig(0.05, np.stack([S3.point(0.2), S3.point(1.4)]), 1.2)
    ok, _ = admissible(S3, cfg, gs, rho=0.8)
    assert not ok


# ------------------------------------------------------------ flat model


def test_flat_energy_equals_alpha(state):
    gs, _, dc = state
    for eps in (0.1, 0.05):
        cfg = PeakConfig(eps, [np.zeros(3)], cutoff_r=np.inf)
        J = energy_J(FLAT3, build_W(FLAT3, cfg, gs))
        assert J == pytest.approx(dc.alpha, abs=1e-9)


def test_flat_residual_below_interpolation_floor(state):
    # the profile solves the equation, so only interpolation error remains
    gs, _, _ = state
    for eps in (0.1, 0.05):
        cfg = PeakConfig(eps, [np.zeros(3)], cutoff_r=np.inf)
        assert residual_norm(FLAT3, build_W(FLAT3, cfg, gs)) < 1e-8


def test_flat_several_peaks_refused(state):
    gs, _, _ = state
    cfg = PeakConfig(0.1, [np.zeros(3), 3.0 * np.eye(3)[0]], cutoff_r=np.inf)
    W = build_W(FLAT3, cfg, gs)
    with pytest.raises(UnsupportedModel):
        energy_J(FLAT3, W)
    with pytest.raises(UnsupportedModel):
        norm_eps(FLAT3, W)
    with pytest.raises(UnsupportedModel):
        residual_norm(FLAT3, W)


# ------------------------------------------------------------- sphere K=1


def test_norm_concentrates_to_flat_norm(state):
    gs, _, _ = state
    target = gs.I1 + gs.I2
    rel_05 = abs(norm_eps(S3, build_W(S3, _one_peak(0.05), gs)) / target - 1.0)
    rel_02 = abs(norm_eps(S3, build_W(S3, _one_peak(0.02), gs)) / target - 1.0)
    assert rel_05 < 0.02
    assert rel_02 < rel_05


def test_energy_quadrature_step_insensitive(state, monkeypatch):
    gs, _, _ = state
    # a fresh W after the patch: W keeps its first measurement
    J1 = energy_J(S3, build_W(S3, _one_peak(0.05), gs))
    monkeypatch.setattr(energy, "_RHO_STEP", 0.125)
    J2 = energy_J(S3, build_W(S3, _one_peak(0.05), gs))
    assert abs(J1 - J2) < 1e-10


def _correction(ansatz, rho):
    """V = ric_factor chi + c s v2base at rho, from the profiles' own calls."""
    cp = ansatz.profiles
    return ansatz._ric_factor * cp.chi(rho) + ansatz.c_bold * ansatz.s_center * cp.v2base(rho)


def test_correction_derivatives_consistent(state):
    gs, cp, dc = state
    Y = build_Y(S3, _one_peak(0.05), gs, profiles=cp, dc=dc)
    rho = np.linspace(0.3, 9.0, 37)
    v0, v1, v2 = Y._correction_derivs(gs.grid.locate(rho))
    assert np.allclose(v0, _correction(Y, rho), rtol=0, atol=1e-12)
    h = 1e-5
    fd1 = (_correction(Y, rho + h) - _correction(Y, rho - h)) / (2 * h)
    fd2 = (_correction(Y, rho + h) - 2 * _correction(Y, rho) + _correction(Y, rho - h)) / h**2
    assert np.abs(v1 - fd1).max() < 1e-7
    assert np.abs(v2 - fd2).max() < 5e-4


def test_correction_cancels_curvature_residual_pointwise(state):
    # L0 V = -S + (2/3) s psi with S the second-order residual of the
    # plain bump; the psi term is the trace defect of the z_k z_l ansatz
    gs, cp, _ = state
    rq = Quadrature(gs.grid).points
    mask = rq < 20.0
    r = rq[mask]
    U, dU, _ = gs.profile.evaluate(gs.grid.locate(r))
    psi, dpsi, d2psi = cp.psi(r), cp.psi.deriv1(r), cp.psi.deriv2(r)
    v2b, dv2b, d2v2b = cp.v2base(r), cp.v2base.deriv1(r), cp.v2base.deriv2(r)
    rf = -2.0 / 3.0
    cs = CBOLD * SCAL
    V = rf * psi * r**2 + cs * v2b
    dV = rf * (dpsi * r**2 + 2 * psi * r) + cs * dv2b
    d2V = rf * (d2psi * r**2 + 4 * dpsi * r + 2 * psi) + cs * d2v2b
    L0V = -d2V - 2.0 / r * dV + V - 2.0 * U * V
    S = (2.0 / 3.0) * r * dU + cs * U
    assert np.abs(L0V + S - (2.0 / 3.0) * SCAL * psi).max() < 1e-6


def test_library_correction_cancels_curvature_residual_pointwise(state):
    # the attached V = ric_factor chi + c s v2base has L0 V = -S exactly:
    # chi is the degree-0 solve, so no trace defect is left
    gs, cp, dc = state
    rq = Quadrature(gs.grid).points
    r = rq[rq < 20.0]
    U, dU, _ = gs.profile.evaluate(gs.grid.locate(r))
    Y = build_Y(S3, _one_peak(0.05), gs, profiles=cp, dc=dc)
    V, dV, d2V = Y._correction_derivs(gs.grid.locate(r))
    L0V = -d2V - 2.0 / r * dV + V - 2.0 * U * V
    S = (2.0 / 3.0) * r * dU + CBOLD * SCAL * U
    assert np.abs(L0V + S).max() < 1e-6


def _fourth_order_prediction(gs, cp):
    """Sphere-exact eps^4 coefficient for one peak on unit S^3."""
    quad = Quadrature(gs.grid)
    r = quad.points
    omega = surface_area(3)
    w = r**2

    def I(f):
        return omega * quad.integrate(f * w)

    U, dU, _ = gs.profile.evaluate(gs.grid.locate(r))
    chi, dchi = cp.chi(r), cp.chi.deriv1(r)
    v2b, dv2b = cp.v2base(r), cp.v2base.deriv1(r)
    F0 = 0.5 * dU**2 + 0.5 * U**2 - U**3 / 3.0
    phi_W = I((2.0 / 45.0) * r**4 * F0 - (CBOLD * SCAL / 6.0) * r**2 * U**2)
    rf, cs = -2.0 / 3.0, CBOLD * SCAL
    V = rf * chi + cs * v2b
    dV = rf * dchi + cs * dv2b
    S = (2.0 / 3.0) * r * dU + cs * U
    F4 = I(S * V) + 0.5 * I(dV**2 + V**2 - 2.0 * U * V**2)
    return phi_W, F4


def test_expansion_second_order_coefficient(state):
    gs, cp, dc = state
    fit = energy_coefficient_fit(one_peak_ladder(S3, gs, cp, dc, S3.point(0.6)), dc.alpha)
    assert fit["eps2_coeff"] == pytest.approx(0.5 * dc.beta * SCAL, rel=1e-2)
    assert fit["fit_residual"] < 1e-2


def test_expansion_fourth_order_coefficient_matches_quadrature(state):
    gs, cp, dc = state
    phi_W, F4 = _fourth_order_prediction(gs, cp)
    # at cutoff 1.2 the ramp exp(-0.6/eps) still reaches the profile at
    # eps = 0.1 and 0.085, and the fit absorbs it (eps^6 coefficient +66);
    # at cutoff 2.5 it is below the fit's resolution (eps^6 coefficient -4)
    far = energy_coefficient_fit(one_peak_ladder(S3, gs, cp, dc, S3.point(0.6), cutoff_r=2.5),
                                 dc.alpha)
    assert far["eps4_coeff"] == pytest.approx(phi_W + F4, rel=2e-2)
    fit = energy_coefficient_fit(one_peak_ladder(S3, gs, cp, dc, S3.point(0.6)), dc.alpha)
    assert fit["eps4_coeff"] == pytest.approx(-7.3526, rel=1e-3)


def test_corrected_minus_plain_energy_is_quartic(state):
    gs, cp, dc = state
    _, F4 = _fourth_order_prediction(gs, cp)
    eps = 0.05
    cfg = _one_peak(eps)
    JW = energy_J(S3, build_W(S3, cfg, gs, c_bold=dc.c_bold))
    JY = energy_J(S3, build_Y(S3, cfg, gs, profiles=cp, dc=dc))
    assert (JY - JW) / eps**4 == pytest.approx(F4, rel=1e-3)


class _PsiCorrectedAnsatz(PeakAnsatz):
    """Bumps corrected by ric_factor psi r^2 + c s v2base.

    psi solves the degree-2 equation, so L0(psi r^2) = r U' - 2n psi and this
    corrector leaves the trace defect L0 V + S = (2/3) s psi.
    """

    def _correction_derivs(self, at):
        rho = at.r
        psi, v2b = self.profiles.psi, self.profiles.v2base
        p0, p1, p2 = psi(rho), psi.deriv1(rho), psi.deriv2(rho)
        rf, cs = self._ric_factor, self.c_bold * self.s_center
        v0 = rf * p0 * rho**2 + cs * v2b(rho)
        v1 = rf * (p1 * rho**2 + 2.0 * p0 * rho) + cs * v2b.deriv1(rho)
        v2 = rf * (p2 * rho**2 + 4.0 * p1 * rho + 2.0 * p0) + cs * v2b.deriv2(rho)
        return v0, v1, v2


def test_residual_scaling_states_the_defect(state):
    # the psi r^2 corrector cancels the traceless curvature part but leaves
    # the (2/3) s psi defect, whose dual norm exceeds the plain one: both
    # residuals scale like eps^2 and their ratio sits near nD/nS
    gs, cp, dc = state
    sl = residual_slopes(one_peak_ladder(S3, gs, cp, dc, S3.point(0.6), eps_ladder=SLOPE_LADDER))
    psi_vals = [
        residual_norm(S3, _PsiCorrectedAnsatz(S3, _one_peak(eps), gs,
                                              c_bold=dc.c_bold, profiles=cp))
        for eps in sl["eps_ladder"]
    ]
    psi_slope, psi_r2 = loglog_slope(sl["eps_ladder"], psi_vals)
    assert 1.9 < sl["W_slope"] < 2.1
    assert 1.9 < psi_slope < 2.1
    assert sl["W_r2"] > 0.999 and psi_r2 > 0.999
    quad = Quadrature(gs.grid)
    r = quad.points
    omega = surface_area(3)
    U, dU, _ = gs.profile.evaluate(gs.grid.locate(r))
    psi = cp.psi(r)
    S = (2.0 / 3.0) * r * dU + CBOLD * SCAL * U
    D = (2.0 / 3.0) * SCAL * psi
    pp = 1.5
    nS = (omega * quad.integrate(np.abs(S) ** pp * r**2)) ** (1 / pp)
    nD = (omega * quad.integrate(np.abs(D) ** pp * r**2)) ** (1 / pp)
    for yv, wv in zip(psi_vals, sl["W_values"]):
        assert yv / wv == pytest.approx(nD / nS, rel=0.05)


def test_loglog_slope_recovers_power():
    eps = (0.1, 0.07, 0.05, 0.035)
    vals = [3.7 * e**2.4 for e in eps]
    slope, r2 = loglog_slope(eps, vals)
    assert slope == pytest.approx(2.4, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("eps", [(0.1,), (0.1, 0.1), ()])
def test_loglog_slope_needs_two_distinct_eps(eps):
    with pytest.raises(LadderTooShort):
        loglog_slope(eps, [1.0] * len(eps))


# ------------------------------------------------------------- sphere K=2


def test_two_peak_energy_label_invariant(state):
    gs, _, _ = state
    eps = 0.05
    a, b = S3.point(0.8), S3.point(0.8 + 12 * eps)
    J_ab = energy_J(S3, build_W(S3, PeakConfig(eps, np.stack([a, b]), 1.2), gs))
    J_ba = energy_J(S3, build_W(S3, PeakConfig(eps, np.stack([b, a]), 1.2), gs))
    assert J_ab == J_ba


def test_two_peak_cross_energy_tracks_interaction(state):
    gs, _, _ = state
    eps = 0.05
    a, b = S3.point(0.8), S3.point(0.8 + 12 * eps)
    J2 = energy_J(S3, build_W(S3, PeakConfig(eps, np.stack([a, b]), 1.2), gs))
    J1a = energy_J(S3, build_W(S3, PeakConfig(eps, a[None], 1.2), gs))
    J1b = energy_J(S3, build_W(S3, PeakConfig(eps, b[None], 1.2), gs))
    cross = J2 - J1a - J1b
    gam = gamma(gs, np.eye(3)[0]).value
    inter = -gam * float(gs.profile(S3.distance(a, b) / eps))
    assert cross < 0
    assert 0.9 < cross / inter < 1.2


def test_two_peak_norm_doubles(state):
    gs, _, _ = state
    eps = 0.05
    a, b = S3.point(0.8), S3.point(0.8 + 12 * eps)
    nrm = norm_eps(S3, build_W(S3, PeakConfig(eps, np.stack([a, b]), 1.2), gs))
    assert nrm == pytest.approx(2.0 * (gs.I1 + gs.I2), rel=0.02)


@pytest.mark.parametrize("corrected", [False, True])
def test_two_disjoint_peaks_double_one_peak(corrected, state):
    # supports of radius 1.2 around centers 2.6 apart do not meet, so the
    # cross terms vanish and J and the norm double exactly; the residual
    # goes through the great-circle grid instead of the polar one
    gs, cp, dc = state
    pp = gs.p / (gs.p - 1.0)

    def ansatz(*centers):
        cfg = PeakConfig(0.1, np.stack(centers), 1.2)
        if corrected:
            return build_Y(S3, cfg, gs, profiles=cp, dc=dc)
        return build_W(S3, cfg, gs, c_bold=dc.c_bold)

    a, b = S3.point(0.3), S3.point(2.9)
    one, two = ansatz(a), ansatz(a, b)
    assert energy_J(S3, two) == 2.0 * energy_J(S3, one)
    assert norm_eps(S3, two) == 2.0 * norm_eps(S3, one)
    r1, r2 = residual_norm(S3, one) ** pp, residual_norm(S3, two) ** pp
    assert r2 == pytest.approx(2.0 * r1, rel=1e-3)


def test_expansion_breakdown_accounts_for_energy(state):
    gs, cp, dc = state
    eps = 0.05
    a, b = S3.point(0.8), S3.point(0.8 + 12 * eps)
    cfg = PeakConfig(eps, np.stack([a, b]), 1.2)
    bd = expansion_compare(build_Y(S3, cfg, gs, profiles=cp, dc=dc), dc)
    total = (
        bd.term_alpha + bd.term_beta + bd.term_phi + bd.term_interaction + bd.remainder
    )
    assert bd.J_measured == pytest.approx(total, abs=1e-12)
    assert bd.term_alpha == pytest.approx(2.0 * dc.alpha, rel=1e-14)
    assert bd.term_beta == pytest.approx(eps**2 * dc.beta * SCAL, rel=1e-12)
    assert bd.term_interaction < 0
    assert abs(bd.remainder) < 2e-3
    keys = set(asdict(bd))
    assert {"epsilon", "K", "J_measured", "remainder"} <= keys


# ---------------------------------------------------------------- guards


@pytest.mark.parametrize("model,centers", [
    (S3, [np.zeros(4)]),
    (S3, [np.zeros(3)]),
    (S3, [[np.nan, 0.0, 0.0, 1.0]]),
    (S3, [S3.point(0.8), [np.inf, 0.0, 0.0, 1.0]]),
    (FLAT3, [np.zeros(4)]),
    (FLAT3, [[0.0, np.nan, 0.0]]),
], ids=["S3-zero", "S3-short", "S3-nan", "S3-second-inf", "R3-long", "R3-nan"])
def test_bad_centers_refused(model, centers, state):
    # the polar pass does not read the center, so a single peak at a NaN
    # center would be measured as if the center were valid
    gs, _, _ = state
    cfg = PeakConfig(0.1, centers, 1.2 if model is S3 else np.inf)
    with pytest.raises(ValueError, match="finite"):
        build_W(model, cfg, gs)


@pytest.mark.parametrize("model,center,cutoff", [
    (RoundSphere(4), RoundSphere(4).point(0.6), 1.2),
    (FlatSpace(4), np.zeros(4), np.inf),
], ids=["S4", "R4"])
def test_model_dimension_must_match_ground_state(model, center, cutoff, state):
    gs, _, _ = state
    cfg = PeakConfig(0.1, [center], cutoff)
    with pytest.raises(ValueError, match="dimension"):
        build_W(model, cfg, gs)


def test_profiles_must_match_ground_state(state, corrections):
    gs, _, dc = state
    cp43 = corrections(4, product_exponent(4, 3))
    with pytest.raises(ValueError, match="correction profiles"):
        build_Y(S3, _one_peak(0.1), gs, profiles=cp43, dc=dc)


def test_constants_must_match_ground_state(state, dimensional_constants):
    # (3, 4) shares n with (3, 3) but not p
    gs, cp, _ = state
    with pytest.raises(ValueError, match="constants"):
        build_Y(S3, _one_peak(0.1), gs, profiles=cp, dc=dimensional_constants(3, 4))


def test_cutoff_past_injectivity_radius(state):
    gs, _, _ = state
    cfg = _one_peak(0.05, cutoff=np.pi + 0.1)
    with pytest.raises(InjectivityViolation):
        build_W(S3, cfg, gs)


def test_warped_model_refused(state):
    gs, _, _ = state
    M = WarpedSphere(3, np.sin)
    cfg = PeakConfig(0.05, [1.5], cutoff_r=1.2)
    with pytest.raises(UnsupportedModel):
        PeakAnsatz(M, cfg, gs)


# every name the ansatz and both passes may read of a model
_INTERFACE = ("n", "injectivity_radius", "as_point", "distance", "curvature_at",
              "polar_density", "polar_drift", "support_grid", "cos_angle")


class _Forwarding:
    """A model defined outside geometry.py and not a RoundSphere: it forwards
    the names in reads to S3 and has no other attribute."""

    def __init__(self, reads):
        self._reads = frozenset(reads)

    def __getattr__(self, name):
        if name in self._reads:
            return getattr(S3, name)
        raise AttributeError(name)


@pytest.mark.parametrize("angles", [(0.6,), (0.8, 1.4)], ids=["K1", "K2"])
def test_a_model_outside_geometry_measures_as_its_sphere(angles, state):
    # the ansatz reads its model through the interface alone, so a model
    # that forwards it to S3 gives S3's values, bit for bit
    gs, cp, dc = state
    model = _Forwarding(_INTERFACE)
    assert not isinstance(model, RoundSphere)

    def values(m):
        cfg = PeakConfig(0.1, [S3.point(a) for a in angles], 1.2)
        W = build_W(m, cfg, gs, c_bold=dc.c_bold)
        Y = build_Y(m, cfg, gs, profiles=cp, dc=dc)
        return [fn(m, A) for A in (W, Y) for fn in (energy_J, norm_eps, residual_norm)]

    assert values(model) == values(S3)


def test_a_model_lacking_the_interface_is_refused(state):
    gs, _, _ = state
    model = _Forwarding(set(_INTERFACE) - {"polar_drift"})
    with pytest.raises(UnsupportedModel, match="polar_drift"):
        build_W(model, _one_peak(0.1), gs)
    # one peak reads no support grid; two do
    model = _Forwarding(set(_INTERFACE) - {"support_grid"})
    assert energy_J(model, build_W(model, _one_peak(0.1), gs)) == energy_J(
        S3, build_W(S3, _one_peak(0.1), gs))
    W = build_W(model, PeakConfig(0.1, [S3.point(0.8), S3.point(1.4)], 1.2), gs)
    with pytest.raises(UnsupportedModel, match="support_grid"):
        energy_J(model, W)


@pytest.mark.parametrize("centers", [[S3.point(0.6)], [S3.point(0.8), S3.point(1.4)]],
                         ids=["K1", "K2"])
def test_ansatz_answers_only_for_its_model(centers, state):
    # a measurement kept on the ansatz can never answer for another sphere
    gs, _, _ = state
    W = build_W(S3, PeakConfig(0.1, centers, 1.2), gs)
    J = energy_J(S3, W)  # with K = 2 this keeps the support-grid pass on W
    for fn in (energy_J, norm_eps, residual_norm):
        with pytest.raises(ValueError, match="built on"):
            fn(RoundSphere(3, 2.0), W)
    assert energy_J(RoundSphere(3, 1.0), W) == J  # an equal model is accepted
