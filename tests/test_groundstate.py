from functools import partial

import numpy as np
import pytest

from multipeak import groundstate
from multipeak.constants import product_exponent
from multipeak.groundstate import (
    _R0,
    _R_END,
    SOLVER,
    GroundState,
    NoBracket,
    SubcriticalViolation,
    TailTooShort,
    critical_exponent,
    decay_constant,
    identity_report,
    ode_residual,
    solve_ground_state,
)

from conftest import GS_COLD
from profile_oracles import (
    inverse,
    scipy_classify,
    scipy_dop853_tableau,
    scipy_shoot,
    shoot_profile,
    truncate,
)

# pinned by an independent uniform-grid damped-Newton solve (h = 5e-4,
# agreement 3.3e-7, consistent with that solver's own h^2 error)
U0_33 = 4.191682954439119
U0_44 = 7.881469905845131

MATRIX = [(n, m) for n in range(3, 8) for m in range(3, 7) if n + m <= 9]
SPOT = [(7, 3), (7, 6)]  # N = 10 and N = 13


def test_solve_is_memoised():
    assert solve_ground_state(3, 3.0) is solve_ground_state(3, 3.0)


def test_exponent_validation():
    with pytest.raises(SubcriticalViolation):
        solve_ground_state(3, 6.0)  # critical exponent exactly
    with pytest.raises(SubcriticalViolation):
        solve_ground_state(3, 2.0)
    with pytest.raises(SubcriticalViolation):
        solve_ground_state(4, 4.1)
    assert critical_exponent(3) == 6.0
    assert critical_exponent(2) == np.inf


def test_amplitude_pinned_n3_p3():
    gs = solve_ground_state(3, 3.0)
    assert gs.u0 == pytest.approx(U0_33, abs=1e-6)
    assert gs.certified


@pytest.mark.parametrize("n,m", GS_COLD)
def test_bracket_width_is_certified(n, m):
    # the record's bracket is one the classification shots resolve: from its
    # lower end the shot turns back, from its upper end it crosses zero
    p = product_exponent(n, m)
    gs = solve_ground_state(n, p)
    assert gs.bracket_width <= 2.5e-12 * gs.u0
    half = gs.bracket_width / 2.0
    assert groundstate._shoot(gs.u0 - half, n, p) == "turn"
    assert groundstate._shoot(gs.u0 + half, n, p) == "cross"


def test_solver_diagnostics_are_deterministic(monkeypatch):
    # two fresh solves, past the memo, make the same integrations and Newton
    # steps; every shot and matching pass goes through solve_ivp
    integrations = []
    solve_ivp = groundstate.solve_ivp

    def counted_ivp(*args, **kwargs):
        integrations.append(1)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(groundstate, "solve_ivp", counted_ivp)
    first = solve_ground_state.__wrapped__(3, 3.0)
    made = len(integrations)
    second = solve_ground_state.__wrapped__(3, 3.0)
    keys = ("bracket_shots", "certify_shots", "newton_steps", "match_mismatch")
    assert [getattr(first, k) for k in keys] == [getattr(second, k) for k in keys]
    assert len(integrations) == 2 * made
    assert made == first.bracket_shots + first.certify_shots + 2 + 4 * first.newton_steps
    assert made <= 45
    assert first.certify_shots == 2
    assert first.match_mismatch < 1e-9


@pytest.mark.parametrize("n,m", GS_COLD + SPOT)
def test_shots_match_scipy_dop853(n, m, monkeypatch):
    # the float loop classifies every shot of a solve as solve_ivp's DOP853
    # does: the bisection shoots the same amplitudes at the same rtol to the
    # same classifications, and both certification shots agree
    p = product_exponent(n, m)
    shoot = groundstate._shoot

    def logged(fn, log):
        def shot(a, n, p, rtol=1e-12):
            log.append((a, rtol, fn(a, n, p, rtol)))
            return log[-1][-1]

        return shot

    runs = []
    for fn in (shoot, scipy_shoot):
        log = []
        monkeypatch.setattr(groundstate, "_shoot", logged(fn, log))
        runs.append((groundstate.bracket_amplitude(n, p), log))
    monkeypatch.undo()
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    gs = solve_ground_state(n, p)
    half = SOLVER["certify_delta"] * gs.u0
    for a in (gs.u0 - half, gs.u0 + half):
        assert shoot(a, n, p) == scipy_shoot(a, n, p)


def test_tableau_is_scipys_dop853():
    # the module's floats against scipy's dop853_coefficients, entry by entry
    assert groundstate._DOP853_TABLEAU == scipy_dop853_tableau()


@pytest.mark.parametrize("a", [np.nan, np.inf])
def test_shot_rejects_non_finite_start(a):
    with pytest.raises(ValueError):
        groundstate._shoot(a, 3, 3.0)


def test_shot_step_failure_is_no_bracket():
    # U'' = U'^2 from U' = 1 blows up one unit into the window with neither
    # event: the step falls below 10 spacings of r, where scipy's solve_ivp
    # stops with status -1
    with pytest.raises(NoBracket):
        groundstate.solve_ivp(lambda r, y: [y[1], y[1] * y[1]], _R0, (1.0, 1.0), _R_END,
                              1e-10, 1e-16).status


@pytest.mark.parametrize("start,first", [((1.001, -1.0), "turn"), ((1.0, -1.001), "cross")])
def test_shot_halves_a_step_holding_both_events(start, first):
    # two lines with zeros 1e-3 apart: the steps grow tenfold until one
    # holds both sign changes, and halving it finds the first, as scipy's
    # root finding does
    def lines(r, y):
        return [-1.0, 1.0]

    assert groundstate.solve_ivp(lines, _R0, start, _R_END, 1e-10, 1e-16).status == first
    assert scipy_classify(lines, start, 1e-10) == first


def test_backward_pass_follows_the_decaying_mode():
    # u'' = u integrated inward from u = -u' = e^-10 at r = 10 stays on e^-r
    sol = groundstate.solve_ivp(lambda r, y: [y[1], y[0]], 10.0, (np.exp(-10.0), -np.exp(-10.0)),
                                6.0, 3e-14, 1e-30)
    r, u, du = sol.steps[-1]
    assert (sol.status, r) == ("end", 6.0)
    assert u == pytest.approx(np.exp(-6.0), rel=1e-12, abs=0)
    assert du == pytest.approx(-np.exp(-6.0), rel=1e-12, abs=0)


def test_profile_between_step_points_matches_a_fresh_pass():
    # the matched passes' step points carry the profile; between them its
    # septic Hermite agrees with a tight pass from the step point before,
    # in the pass's own direction
    n, p = 3, 3.0
    a, _, matched, _, _ = groundstate._match_two_sided(n, p, solve_ground_state(n, p).u0)
    nodes = matched.grid.nodes
    rhs = partial(groundstate._radial_ode, n, p)
    rng = np.random.default_rng(7)
    forward = np.flatnonzero(nodes[1:] <= groundstate._R_MATCH)[1:]  # past the series start
    backward = np.flatnonzero(nodes[:-1] >= groundstate._R_MATCH)
    for cells, d in ((forward, 0), (backward, 1)):
        for i in rng.choice(cells, 80):
            r = rng.uniform(nodes[i], nodes[i + 1])
            start = (matched.values[i + d], matched.d1[i + d])
            fresh = groundstate.solve_ivp(rhs, nodes[i + d], start, r, 1e-15, 1e-30)
            _, u, du = fresh.steps[-1]
            assert abs(matched(r) - u) <= 1e-13 * a
            assert abs(matched.deriv1(r) - du) <= 1e-13 * a


def test_amplitude_pinned_n4_n8thirds():
    gs = solve_ground_state(4, product_exponent(4, 4))
    assert gs.u0 == pytest.approx(U0_44, abs=2e-6)


def test_energy_identity_n3_p3():
    rep = identity_report(solve_ground_state(3, 3.0))
    assert rep["e_energy"] < 1e-8
    assert rep["e_pohozaev"] < 1e-8
    assert rep["e_alpha"] < 1e-8


def test_exact_equality_of_I1_I2_for_n3_p3():
    # at n=3, p=3 the Pohozaev pair forces I1 = I2 = Ip/2 analytically
    gs = solve_ground_state(3, 3.0)
    assert gs.I1 == pytest.approx(gs.I2, rel=1e-9)
    assert gs.Ip == pytest.approx(2.0 * gs.I2, rel=1e-9)


@pytest.mark.parametrize("n,p", [(5, 2.5), (6, 2.4)])
def test_identities_other_dimensions(n, p):
    rep = identity_report(solve_ground_state(n, p))
    assert rep["e_energy"] < 1e-6
    assert rep["e_pohozaev"] < 1e-6
    assert rep["e_alpha"] < 1e-6


@pytest.mark.parametrize("n,m", MATRIX + SPOT)
def test_identity_matrix_product_exponents(n, m):
    gs = solve_ground_state(n, product_exponent(n, m))
    rep = identity_report(gs)
    assert rep["e_energy"] < 1e-6
    assert rep["e_pohozaev"] < 1e-6
    assert rep["e_alpha"] < 1e-6
    vals = gs.profile.values
    assert np.all(vals > 0)
    assert np.all(gs.profile.d1[1:] <= 0)
    assert gs.decay_c > 0


@pytest.mark.parametrize("n,m", MATRIX + SPOT)
def test_r_max_keeps_tail_contract(n, m):
    # the stored tail model has fallen below 1e-13 u0 where the grid ends
    gs = solve_ground_state(n, product_exponent(n, m))
    if gs.r_max < SOLVER["r_cap"]:
        nu = (n - 1.0) / 2.0
        assert gs.decay_c * gs.r_max ** -nu * np.exp(-gs.r_max) <= 1e-13 * gs.u0


def test_profile_shape_and_residual():
    gs = solve_ground_state(3, 3.0)
    # at the nodes U'' comes from the ODE itself, so the defect is rounding
    r = gs.grid.nodes[1:]
    U = gs.profile
    at_nodes = U.deriv2(r) + (gs.n - 1.0) * U.deriv1(r) / r - groundstate._g(U(r), gs.p)
    assert np.max(np.abs(at_nodes)) < 1e-12
    assert ode_residual(gs) < 1e-6
    assert gs.profile(0.0) == pytest.approx(gs.u0, rel=1e-14)


def test_eval_origin_regularity():
    gs = solve_ground_state(3, 3.0)
    u, du, d2u = gs.profile.evaluate(gs.grid.locate(0.0))
    assert u == pytest.approx(gs.u0, rel=1e-14)
    assert du == 0.0
    # ODE limit at the origin: n * U''(0) = U(0) - U(0)^(p-1)
    assert d2u == pytest.approx((gs.u0 - gs.u0 ** 2) / 3.0, rel=1e-12)


def test_eval_tail_continuity_and_form():
    gs = solve_ground_state(3, 3.0)
    R = gs.r_max
    jump = abs(gs.profile(R * (1 - 1e-12)) - gs.profile(R * (1 + 1e-12)))
    assert jump < 1e-10
    r2 = 2.0 * R
    expect = gs.decay_c * r2 ** (-1.0) * np.exp(-r2)
    assert gs.profile(r2) == pytest.approx(expect, rel=1e-13)


def test_decay_constant_two_sided_agreement():
    gs = solve_ground_state(3, 3.0)
    c = decay_constant(gs)
    assert c > 0
    assert c == pytest.approx(gs.decay_c, rel=1e-12)
    gs5 = solve_ground_state(5, 2.5)
    assert decay_constant(gs5) > 0


def test_decay_constant_requires_long_tail():
    gs = solve_ground_state(3, 3.0)
    short = shoot_profile(3, 3.0, gs.u0, r_max=5.0)
    with pytest.raises(TailTooShort):
        decay_constant(short)
    with pytest.raises(TailTooShort):
        truncate(gs, 5.0)


def test_off_amplitude_negative_control():
    gs = solve_ground_state(3, 3.0)
    bad = shoot_profile(3, 3.0, gs.u0 * 1.05)
    assert not bad.certified
    rep = identity_report(bad)
    # the scaling identity is the sharp detector; the energy identity only
    # picks up the truncation boundary term
    assert rep["e_pohozaev"] > 1e-3
    assert rep["e_energy"] > 1e-8


def test_inverse_round_trip():
    gs = solve_ground_state(3, 3.0)
    for v in (0.9 * gs.u0, 0.1 * gs.u0, 1e-5 * gs.u0):
        r = inverse(gs, v)
        assert gs.profile(r) == pytest.approx(v, rel=1e-9)
    with pytest.raises(ValueError):
        inverse(gs, 2.0 * gs.u0)


def test_serialization_round_trip(tmp_path):
    gs = solve_ground_state(3, 3.0)
    path = tmp_path / "gs.json"
    gs.save(path)
    back = GroundState.load(path)
    assert back.u0 == gs.u0
    assert back.I2 == gs.I2
    assert back.certified
    assert back.bracket_width == gs.bracket_width
    for k in ("bracket_shots", "certify_shots", "newton_steps", "match_mismatch"):
        assert getattr(back, k) == getattr(gs, k)
    r = np.linspace(0.0, 1.5 * gs.r_max, 57)
    assert np.max(np.abs(back.profile(r) - gs.profile(r))) < 1e-12
    assert np.max(np.abs(back.profile.deriv1(r) - gs.profile.deriv1(r))) < 1e-10


def test_uncertified_profile_stays_uncertified(tmp_path):
    bad = shoot_profile(3, 3.0, solve_ground_state(3, 3.0).u0 * 1.05)
    path = tmp_path / "bad.json"
    bad.save(path)
    back = GroundState.load(path)
    assert not back.certified
    assert np.isnan(back.bracket_width)
