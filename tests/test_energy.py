import numpy as np
import pytest

from conftest import corrections, dimensional_constants, ground_state
from multipeak.constants import gamma
from multipeak.energy import (
    COEFF_LADDER,
    InjectivityViolation,
    PeakAnsatz,
    PeakConfig,
    ResolutionTooCoarse,
    UnsupportedModel,
    admissible,
    build_W,
    build_Y,
    energy_J,
    energy_coefficient_fit,
    expansion_compare,
    loglog_slope,
    norm_eps,
    residual_norm,
    residual_slopes,
    smoothstep_cutoff,
    smoothstep_cutoff_d1,
    smoothstep_cutoff_d2,
)
from multipeak.geometry import FlatSpace, RoundSphere, WarpedSphere
from multipeak.radial import Quadrature, surface_area

S3 = RoundSphere(3, 1.0)
FLAT3 = FlatSpace(3)
CBOLD = 0.2  # (N-2)/(4(N-1)) for N = 6
SCAL = 6.0  # unit S^3


def _setup():
    gs = ground_state(3, 3.0)
    cp = corrections(3, 3.0)
    dc = dimensional_constants(3, 3)
    return gs, cp, dc


def _one_peak(eps, center=None, cutoff=1.2):
    c = S3.point(0.6) if center is None else center
    return PeakConfig(epsilon=eps, centers=np.asarray(c)[None], cutoff_r=cutoff)


# ---------------------------------------------------------------- cutoff


def test_cutoff_plateau_ramp_support():
    rc = 1.2
    r = np.linspace(0.0, 2.0, 401)
    chi = smoothstep_cutoff(r, rc)
    assert np.all(chi[r <= rc / 2] == 1.0)
    assert np.all(chi[r >= rc] == 0.0)
    ramp = chi[(r > rc / 2) & (r < rc)]
    assert np.all(np.diff(ramp) < 0)
    assert np.all((ramp > 0) & (ramp < 1))


def test_cutoff_derivatives_match_finite_differences():
    rc = 1.2
    r = np.linspace(0.05, 1.9, 173)
    h = 1e-6
    fd1 = (smoothstep_cutoff(r + h, rc) - smoothstep_cutoff(r - h, rc)) / (2 * h)
    fd2 = (
        smoothstep_cutoff_d1(r + h, rc) - smoothstep_cutoff_d1(r - h, rc)
    ) / (2 * h)
    assert np.abs(smoothstep_cutoff_d1(r, rc) - fd1).max() < 1e-5
    assert np.abs(smoothstep_cutoff_d2(r, rc) - fd2).max() < 1e-4


def test_cutoff_infinite_radius_is_identity():
    r = np.linspace(0.0, 50.0, 11)
    assert np.all(smoothstep_cutoff(r, np.inf) == 1.0)
    assert np.all(smoothstep_cutoff_d1(r, np.inf) == 0.0)
    assert np.all(smoothstep_cutoff_d2(r, np.inf) == 0.0)


# ---------------------------------------------------------------- config


def test_peak_config_rejects_bad_parameters():
    c = S3.point(0.5)
    with pytest.raises(ValueError):
        PeakConfig(epsilon=0.0, centers=c[None], cutoff_r=1.2)
    with pytest.raises(ValueError):
        PeakConfig(epsilon=0.1, centers=c[None], cutoff_r=-1.0)
    cfg = PeakConfig(epsilon=0.1, centers=np.stack([c, S3.point(1.0)]), cutoff_r=1.2)
    assert cfg.K == 2


def test_ansatz_normalizes_sphere_centers():
    gs, _, _ = _setup()
    cfg = PeakConfig(epsilon=0.1, centers=[3.0 * S3.point(0.4)], cutoff_r=1.2)
    W = build_W(S3, cfg, gs)
    assert np.linalg.norm(W.config.centers[0]) == pytest.approx(1.0, abs=1e-14)


def test_ansatz_leaves_caller_config_untouched():
    gs, _, _ = _setup()
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
    c0, c1, c2 = (f(d, rc) for f in (smoothstep_cutoff, smoothstep_cutoff_d1,
                                       smoothstep_cutoff_d2))
    return (h0 * c0, h1 / eps * c0 + h0 * c1,
            h2 / eps**2 * c0 + 2.0 * h1 / eps * c1 + h0 * c2)


@pytest.mark.parametrize("corrected", [False, True])
def test_bump_is_evaluated_on_its_support_only(corrected):
    gs, cp, dc = _setup()
    cfg = _one_peak(0.05)
    A = build_Y(S3, cfg, gs, profiles=cp if corrected else None, dc=dc)
    d = np.concatenate([np.linspace(0.0, 2.0, 801), [1.2, np.nextafter(1.2, 0.0), 3.0]])
    inside = d < 1.2
    got = A.bump(d)
    want = _unrestricted_bump(A, d)
    for g, w in zip(got, want):
        assert np.array_equal(g[inside], w[inside])
        assert np.all(g[~inside] == 0.0)
        assert np.all(w[~inside] == 0.0)
    assert all(np.array_equal(a, b) for a, b in zip(A.bump(d, 1), got))
    assert len(A.bump(d, 1)) == 2 and len(A.bump(d, 0)) == 1
    # scalar distances on both sides of the cutoff
    assert A.bump(0.3) == tuple(g[0] for g in A.bump(np.array([0.3])))
    assert A.bump(1.5) == (0.0, 0.0, 0.0)
    assert all(np.ndim(g) == 0 for g in A.bump(0.3))


def test_ansatz_vanishes_outside_every_support():
    gs, _, _ = _setup()
    W = build_W(S3, _one_peak(0.05), gs)
    assert W(S3.point(0.6 + 1.5)) == 0.0
    assert W(S3.point(0.6)) == float(gs(0.0))


def test_two_peak_values_pinned():
    # two overlapping peaks: skipping the exact zeros outside the supports
    # must leave J, the norm and both residuals where the full grid puts them
    gs, cp, dc = _setup()
    cfg = PeakConfig(0.1, [S3.point(0.8), S3.point(1.4)], 1.2)
    Y = build_Y(S3, cfg, gs, profiles=cp, dc=dc)
    W = build_W(S3, cfg, gs, c_bold=dc.c_bold)
    assert energy_J(S3, Y) == pytest.approx(85.77835838825403, rel=1e-14)
    assert norm_eps(S3, Y) == pytest.approx(525.9539025193656, rel=1e-14)
    assert residual_norm(S3, W) == pytest.approx(1.204611746743803, rel=1e-14)
    assert residual_norm(S3, Y) == pytest.approx(1.1636329009115627, rel=1e-14)


# ---------------------------------------------------------- admissibility


def test_single_peak_margin_is_eps_fourth():
    gs, _, _ = _setup()
    cfg = _one_peak(0.05)
    ok, margin = admissible(S3, cfg, gs)
    assert ok
    assert margin == pytest.approx(0.05 ** 4, rel=1e-14)


def test_pair_separation_threshold():
    # at eps = 0.05 the tail crosses eps^4 between 12 and 14 widths
    gs, _, _ = _setup()
    eps = 0.05
    a = S3.point(0.8)
    close = PeakConfig(eps, np.stack([a, S3.point(0.8 + 12 * eps)]), 1.2)
    okc, mc = admissible(S3, close, gs)
    far = PeakConfig(eps, np.stack([a, S3.point(0.8 + 14 * eps)]), 1.2)
    okf, mf = admissible(S3, far, gs)
    assert not okc and mc < 0
    assert okf and mf > 0


def test_placement_radius_constraint():
    gs, _, _ = _setup()
    cfg = PeakConfig(0.05, np.stack([S3.point(0.2), S3.point(1.4)]), 1.2)
    ok, _ = admissible(S3, cfg, gs, rho=0.8)
    assert not ok


# ------------------------------------------------------------ flat model


def test_flat_energy_equals_alpha():
    gs, _, dc = _setup()
    for eps in (0.1, 0.05):
        cfg = PeakConfig(eps, [np.zeros(3)], cutoff_r=np.inf)
        J = energy_J(FLAT3, build_W(FLAT3, cfg, gs))
        assert J == pytest.approx(dc.alpha, abs=1e-9)


def test_flat_residual_below_interpolation_floor():
    # the profile solves the equation, so only interpolation error remains
    gs, _, _ = _setup()
    for eps in (0.1, 0.05):
        cfg = PeakConfig(eps, [np.zeros(3)], cutoff_r=np.inf)
        assert residual_norm(FLAT3, build_W(FLAT3, cfg, gs)) < 1e-8


def test_flat_several_peaks_refused():
    gs, _, _ = _setup()
    cfg = PeakConfig(0.1, [np.zeros(3), 3.0 * np.eye(3)[0]], cutoff_r=np.inf)
    W = build_W(FLAT3, cfg, gs)
    with pytest.raises(UnsupportedModel):
        energy_J(FLAT3, W)
    with pytest.raises(UnsupportedModel):
        norm_eps(FLAT3, W)
    with pytest.raises(UnsupportedModel):
        residual_norm(FLAT3, W)


# ------------------------------------------------------------- sphere K=1


def test_norm_concentrates_to_flat_norm():
    gs, _, _ = _setup()
    target = gs.I1 + gs.I2
    rel_05 = abs(norm_eps(S3, build_W(S3, _one_peak(0.05), gs)) / target - 1.0)
    rel_02 = abs(norm_eps(S3, build_W(S3, _one_peak(0.02), gs)) / target - 1.0)
    assert rel_05 < 0.02
    assert rel_02 < rel_05


def test_energy_quadrature_step_insensitive():
    gs, _, _ = _setup()
    W = build_W(S3, _one_peak(0.05), gs)
    J1 = energy_J(S3, W, rho_step=0.25)
    J2 = energy_J(S3, W, rho_step=0.125)
    assert abs(J1 - J2) < 1e-10


def test_correction_derivatives_consistent():
    gs, cp, dc = _setup()
    Y = build_Y(S3, _one_peak(0.05), gs, profiles=cp, dc=dc)
    rho = np.linspace(0.3, 9.0, 37)
    v0, v1, v2 = Y._correction_derivs(rho)
    assert np.allclose(v0, Y.correction(rho), rtol=0, atol=1e-12)
    h = 1e-5
    fd1 = (Y.correction(rho + h) - Y.correction(rho - h)) / (2 * h)
    fd2 = (Y.correction(rho + h) - 2 * Y.correction(rho) + Y.correction(rho - h)) / h**2
    assert np.abs(v1 - fd1).max() < 1e-7
    assert np.abs(v2 - fd2).max() < 5e-4


def test_correction_cancels_curvature_residual_pointwise():
    # L0 V = -S + (2/3) s psi with S the second-order residual of the
    # plain bump; the psi term is the trace defect of the z_k z_l ansatz
    gs, cp, _ = _setup()
    rq = Quadrature(gs.grid).points
    mask = rq < 20.0
    r = rq[mask]
    U, dU, _ = gs.eval(r)
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


def test_library_correction_cancels_curvature_residual_pointwise():
    # the attached V = ric_factor chi + c s v2base has L0 V = -S exactly:
    # chi is the degree-0 solve, so no trace defect is left
    gs, cp, dc = _setup()
    rq = Quadrature(gs.grid).points
    r = rq[rq < 20.0]
    U, dU, _ = gs.eval(r)
    Y = build_Y(S3, _one_peak(0.05), gs, profiles=cp, dc=dc)
    V, dV, d2V = Y._correction_derivs(r)
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

    U, dU, _ = gs.eval(r)
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


def test_expansion_second_order_coefficient():
    gs, cp, dc = _setup()
    fit = energy_coefficient_fit(S3, gs, cp, dc, center=S3.point(0.6))
    assert fit["eps2_coeff"] == pytest.approx(0.5 * dc.beta * SCAL, rel=1e-2)
    assert fit["fit_residual"] < 1e-2


def test_expansion_fourth_order_coefficient_matches_quadrature():
    gs, cp, dc = _setup()
    phi_W, F4 = _fourth_order_prediction(gs, cp)
    # at cutoff 1.2 the ramp exp(-0.6/eps) still reaches the profile at
    # eps = 0.1 and 0.085, and the fit absorbs it (eps^6 coefficient +66);
    # at cutoff 2.5 it is below the fit's resolution (eps^6 coefficient -4)
    far = energy_coefficient_fit(S3, gs, cp, dc, center=S3.point(0.6), cutoff_r=2.5)
    assert far["eps4_coeff"] == pytest.approx(phi_W + F4, rel=2e-2)
    fit = energy_coefficient_fit(S3, gs, cp, dc, center=S3.point(0.6))
    assert fit["eps4_coeff"] == pytest.approx(-7.3526, rel=1e-3)


def test_corrected_minus_plain_energy_is_quartic():
    gs, cp, dc = _setup()
    _, F4 = _fourth_order_prediction(gs, cp)
    eps = 0.05
    cfg = _one_peak(eps)
    JW = energy_J(S3, build_W(S3, cfg, gs, c_bold=dc.c_bold))
    JY = energy_J(S3, build_Y(S3, cfg, gs, profiles=cp, dc=dc))
    assert (JY - JW) / eps**4 == pytest.approx(F4, rel=1e-3)


class _PsiCorrectedAnsatz(PeakAnsatz):
    """Bumps corrected by ric_factor psi r^2 + c s v2base.

    psi solves the degree-2 equation, so L0(psi r^2) = r U' - 2n psi and this
    corrector leaves the trace defect L0 V + S = (2/3) s psi.  Only the
    derivatives the quadratures read are replaced.
    """

    def _correction_derivs(self, rho):
        psi, v2b = self.profiles.psi, self.profiles.v2base
        p0, p1, p2 = psi(rho), psi.deriv1(rho), psi.deriv2(rho)
        rf, cs = self._ric_factor, self.c_bold * self.s_center
        v0 = rf * p0 * rho**2 + cs * v2b(rho)
        v1 = rf * (p1 * rho**2 + 2.0 * p0 * rho) + cs * v2b.deriv1(rho)
        v2 = rf * (p2 * rho**2 + 4.0 * p1 * rho + 2.0 * p0) + cs * v2b.deriv2(rho)
        return v0, v1, v2


def test_residual_scaling_states_the_defect():
    # the psi r^2 corrector cancels the traceless curvature part but leaves
    # the (2/3) s psi defect, whose dual norm exceeds the plain one: both
    # residuals scale like eps^2 and their ratio sits near nD/nS
    gs, cp, dc = _setup()
    sl = residual_slopes(S3, gs, cp, dc, center=S3.point(0.6))
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
    U, dU, _ = gs.eval(r)
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


# ------------------------------------------------------------- sphere K=2


def test_two_peak_energy_label_invariant():
    gs, _, _ = _setup()
    eps = 0.05
    a, b = S3.point(0.8), S3.point(0.8 + 12 * eps)
    J_ab = energy_J(S3, build_W(S3, PeakConfig(eps, np.stack([a, b]), 1.2), gs))
    J_ba = energy_J(S3, build_W(S3, PeakConfig(eps, np.stack([b, a]), 1.2), gs))
    assert J_ab == J_ba


def test_two_peak_cross_energy_tracks_interaction():
    gs, _, _ = _setup()
    eps = 0.05
    a, b = S3.point(0.8), S3.point(0.8 + 12 * eps)
    J2 = energy_J(S3, build_W(S3, PeakConfig(eps, np.stack([a, b]), 1.2), gs))
    J1a = energy_J(S3, build_W(S3, PeakConfig(eps, a[None], 1.2), gs))
    J1b = energy_J(S3, build_W(S3, PeakConfig(eps, b[None], 1.2), gs))
    cross = J2 - J1a - J1b
    gam = gamma(gs, np.eye(3)[0]).value
    inter = -gam * float(gs(S3.distance(a, b) / eps))
    assert cross < 0
    assert 0.9 < cross / inter < 1.2


def test_two_peak_norm_doubles():
    gs, _, _ = _setup()
    eps = 0.05
    a, b = S3.point(0.8), S3.point(0.8 + 12 * eps)
    nrm = norm_eps(S3, build_W(S3, PeakConfig(eps, np.stack([a, b]), 1.2), gs))
    assert nrm == pytest.approx(2.0 * (gs.I1 + gs.I2), rel=0.02)


@pytest.mark.parametrize("corrected", [False, True])
def test_two_disjoint_peaks_double_one_peak(corrected):
    # supports of radius 1.2 around centers 2.6 apart do not meet, so the
    # cross terms vanish and J and the norm double exactly; the residual
    # goes through the great-circle grid instead of the polar one
    gs, cp, dc = _setup()
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


def test_expansion_breakdown_accounts_for_energy():
    gs, cp, dc = _setup()
    eps = 0.05
    a, b = S3.point(0.8), S3.point(0.8 + 12 * eps)
    bd = expansion_compare(S3, PeakConfig(eps, np.stack([a, b]), 1.2), gs, cp, dc)
    total = (
        bd.term_alpha + bd.term_beta + bd.term_phi + bd.term_interaction + bd.remainder
    )
    assert bd.J_measured == pytest.approx(total, abs=1e-12)
    assert bd.term_alpha == pytest.approx(2.0 * dc.alpha, rel=1e-14)
    assert bd.term_beta == pytest.approx(eps**2 * dc.beta * SCAL, rel=1e-12)
    assert bd.term_interaction < 0
    assert abs(bd.remainder) < 2e-3
    keys = set(bd.as_dict())
    assert {"epsilon", "K", "J_measured", "remainder"} <= keys


# ---------------------------------------------------------------- guards


def test_rho_step_guard():
    gs, _, _ = _setup()
    W = build_W(S3, _one_peak(0.05), gs)
    with pytest.raises(ResolutionTooCoarse):
        energy_J(S3, W, rho_step=1.5)


def test_cutoff_past_injectivity_radius():
    gs, _, _ = _setup()
    cfg = _one_peak(0.05, cutoff=np.pi + 0.1)
    with pytest.raises(InjectivityViolation):
        build_W(S3, cfg, gs)


def test_warped_model_refused():
    gs, _, _ = _setup()
    M = WarpedSphere(3, np.sin)
    cfg = PeakConfig(0.05, [1.5], cutoff_r=1.2)
    with pytest.raises(UnsupportedModel):
        PeakAnsatz(M, cfg, gs)


def test_build_y_without_profiles_is_plain():
    gs, _, dc = _setup()
    cfg = _one_peak(0.05)
    Y = build_Y(S3, cfg, gs, profiles=None, dc=dc)
    assert not Y.include_v
    r = np.array([0.0, 1.0, 3.0])
    assert np.allclose(Y.blownup_profile(r)[0], gs.eval(r)[0], rtol=0, atol=0)
