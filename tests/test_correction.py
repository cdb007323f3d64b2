import numpy as np
import pytest

from multipeak import correction
from multipeak.constants import product_exponent, table_pairs
from multipeak.correction import (
    _EQUATIONS,
    CorrectionProfiles,
    SingularSystem,
    _assemble_and_solve,
    _certify,
    build_v2base,
    correction_profiles,
    equation_residual,
    operator_identity_check,
    v2base_identity_residual,
    verify_L0_identities,
)
from multipeak.groundstate import GroundState, _dg, solve_ground_state

from conftest import GS_COLD
from profile_oracles import fd_derivative, inverse, scipy_band_solve, scipy_d1, scipy_e2

# pinned against an independent uniform-grid solve (agreement 7e-8)
PSI0_33 = -2.248598116732135
PSI0_44 = -4.313771733781784


def test_discrete_residual_small(corrections):
    cp = corrections(3, 3.0)
    assert cp.discrete_residual < 1e-8


def test_certify_refuses_a_residual_it_cannot_bound():
    _certify("psi", 0.0)
    for bad in (1.0, float("nan")):
        with pytest.raises(SingularSystem):
            _certify("psi", bad)


def test_zero_pivot_is_a_singular_system():
    # the elimination does not pivot, so a zero pivot ends the solve; here
    # the r = 0 row's diagonal cancels exactly
    r = np.linspace(0.0, 1.0, 6)
    pot = np.zeros(6)
    pot[0] = -(2.0 * 3 / r[1] ** 2)
    with pytest.raises(SingularSystem, match="zero pivot"):
        _assemble_and_solve(r, pot, np.ones(6), 3, 0)


@pytest.mark.parametrize("name", ["psi", "chi"])
@pytest.mark.parametrize("n,m", GS_COLD)
def test_band_elimination_agrees_with_solve_banded(n, m, name, monkeypatch):
    # chi's degree-0 system is indefinite, where LAPACK pivots and the
    # elimination does not, so the two agree to rounding, not bit for bit
    gs = solve_ground_state(n, product_exponent(n, m))
    ell, source, _ = _EQUATIONS[name]
    r, U, dU, p = gs.grid.nodes, gs.profile.values, gs.profile.d1, gs.p
    args = (r, _dg(U, p), source(r, U, dU, p, n), n, ell)
    vals, _ = _assemble_and_solve(*args)
    monkeypatch.setattr(correction, "_band_solve", scipy_band_solve)
    ref, _ = _assemble_and_solve(*args)
    assert np.max(np.abs(vals - ref)) <= 1e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize("n,m", GS_COLD)
def test_d1_agrees_with_scipys_quintic(n, m, corrections):
    cp = corrections(n, product_exponent(n, m))
    for name in ("psi", "chi"):
        f = getattr(cp, name)
        ref = scipy_d1(cp.gs.grid.nodes, f.values)
        ref[0] = 0.0
        assert np.max(np.abs(f.d1 - ref)) <= 1e-11 * np.max(np.abs(ref)), name


def test_psi_center_values_pinned(corrections):
    assert corrections(3, 3.0).psi.values[0] == pytest.approx(PSI0_33, abs=5e-6)
    assert corrections(4, product_exponent(4, 4)).psi.values[0] == pytest.approx(
        PSI0_44, abs=1e-5
    )


@pytest.mark.parametrize("n,p", [(3, 3.0), (4, product_exponent(4, 4))])
def test_full_dimension_operator_oracle(n, p, corrections):
    # (2n+1)-point FD Laplacian applied to psi(|z|) z1 z2 at scattered points,
    # no radial reduction anywhere on this path
    gs = solve_ground_state(n, p)
    psi = corrections(n, p).psi
    assert operator_identity_check(gs, psi) < 1e-3


@pytest.mark.parametrize("n,p", [(3, 3.0), (4, product_exponent(4, 4))])
def test_psi_flat_at_origin(n, p, corrections):
    psi = corrections(n, p).psi
    assert psi.d1[0] == 0.0
    r = np.asarray(psi.grid.nodes)
    h = r[1] - r[0]
    v = psi.values
    one_sided = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * h)
    assert abs(one_sided) < 1e-6


def test_psi_negative_and_decaying(corrections):
    cp = corrections(3, 3.0)
    assert cp.psi.values[0] < 0
    assert -1.2 < cp.tail_exponent < -0.8
    cp4 = corrections(4, product_exponent(4, 4))
    assert -1.2 < cp4.tail_exponent < -0.8


def test_psi_midpoint_equation_residual(corrections):
    gs = solve_ground_state(3, 3.0)
    cp = corrections(3, 3.0)
    # 7.7e-5 in the first cell without the origin re-derivation
    assert equation_residual(gs, cp.psi, "psi") < 3e-5


def test_chi_midpoint_equation_residual(corrections):
    # the origin value comes from the smooth interior; with the r = 0 row's
    # own value the first cell's residual is 1.5e-4
    gs = solve_ground_state(3, 3.0)
    cp = corrections(3, 3.0)
    assert equation_residual(gs, cp.chi, "chi") < 1e-5
    assert cp.chi_discrete_residual < 1e-8
    assert cp.chi.d1[0] == 0.0
    assert len(cp.to_dict()["chi_values"]) == len(cp.chi.grid.nodes)


def test_v2base_center_values():
    gs = solve_ground_state(3, 3.0)
    v2 = build_v2base(gs)
    # U'(0) = 0 makes the center value u0/(p-2); at p = 3 that is u0 itself
    assert v2.values[0] == pytest.approx(gs.u0, rel=1e-14)
    gs4 = solve_ground_state(4, product_exponent(4, 4))
    p4 = gs4.p
    assert build_v2base(gs4).values[0] == pytest.approx(gs4.u0 / (p4 - 2.0), rel=1e-14)


def test_v2base_reproduces_definition_pointwise():
    gs = solve_ground_state(3, 3.0)
    v2 = build_v2base(gs)
    r = gs.grid.nodes
    expect = 0.5 * gs.profile.d1 * r - gs.profile.values / (2.0 - gs.p)
    assert np.max(np.abs(v2.values - expect)) < 1e-12


def test_v2base_tail_ratio():
    # v2base/U approaches -(r/2) - 1/(2-p); checked over the last decade of U
    gs = solve_ground_state(3, 3.0)
    v2 = build_v2base(gs)
    r = np.linspace(inverse(gs, 1e-11 * gs.u0), inverse(gs, 1e-12 * gs.u0), 40)
    ratio = v2(r) / gs.profile(r)
    target = -(r / 2.0) - 1.0 / (2.0 - gs.p)
    assert np.max(np.abs(ratio / target - 1.0)) < 0.05


def test_v2base_tail_slope_fit():
    # the r-coefficient of v2base/U fitted over the tail window is -1/2
    gs = solve_ground_state(4, product_exponent(4, 4))
    v2 = build_v2base(gs)
    r = np.linspace(inverse(gs, 1e-11 * gs.u0), inverse(gs, 1e-12 * gs.u0), 40)
    ratio = v2(r) / gs.profile(r)
    slope = np.polyfit(r, ratio, 1)[0]
    assert slope == pytest.approx(-0.5, rel=0.05)


@pytest.mark.parametrize("n,p", [(3, 3.0), (5, 2.5)])
def test_operator_identities(n, p):
    ids = verify_L0_identities(solve_ground_state(n, p))
    assert ids["e1"] < 1e-6
    assert ids["e2"] < 1e-6


@pytest.mark.parametrize("n,m", table_pairs(7))
def test_e2_agrees_with_the_scipy_spline_oracle(n, m):
    gs = solve_ground_state(n, product_exponent(n, m))
    e2, ref = verify_L0_identities(gs)["e2"], scipy_e2(gs)
    assert abs(e2 - ref) <= 0.01 * ref, (e2, ref)


@pytest.mark.parametrize("n,p", [(3, 3.0), (4, product_exponent(4, 4))])
def test_v2base_operator_identity(n, p):
    assert v2base_identity_residual(solve_ground_state(n, p)) < 1e-6


def test_corrupted_profile_negative_control():
    gs = solve_ground_state(3, 3.0)
    d = gs.to_dict()
    r = np.asarray(d["grid"])
    values = np.asarray(d["values"]) * (1.0 + 0.01 * np.cos(3.0 * r))
    d1 = fd_derivative(r, values)
    d1[0] = 0.0
    d["values"], d["values_d1"] = values.tolist(), d1.tolist()
    bad = GroundState.from_dict(d)
    ids = verify_L0_identities(bad)
    assert ids["e2"] > 1e-3


def test_profiles_serialize(corrections):
    cp = corrections(3, 3.0)
    d = cp.to_dict()
    assert d["n"] == 3
    assert len(d["psi_values"]) == len(d["grid"])
    assert d["discrete_residual"] < 1e-8


def test_solve_psi_returns_profile():
    gs = solve_ground_state(3, 3.0)
    psi = correction_profiles(gs).psi
    r = np.array([0.0, 0.5, 2.0, 10.0])
    assert np.all(np.isfinite(psi(r)))
    assert psi(0.0) == pytest.approx(PSI0_33, abs=5e-6)


def test_loaded_profiles_are_bit_equal(corrections, tmp_path):
    cp = corrections(3, 3.0)
    path = tmp_path / "cp.json"
    cp.save(path)
    back = CorrectionProfiles.load(cp.gs, path)
    for name in ("psi", "chi", "v2base"):
        a, b = getattr(cp, name), getattr(back, name)
        for field in ("values", "d1", "d2"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), (name, field)
        assert a.tail == b.tail, name
    for field in ("discrete_residual", "chi_discrete_residual", "tail_exponent"):
        assert repr(getattr(back, field)) == repr(getattr(cp, field)), field
    # an entry is only ever read for the ground state it was saved with
    with pytest.raises(ValueError):
        CorrectionProfiles.load(solve_ground_state(4, product_exponent(4, 4)), path)
