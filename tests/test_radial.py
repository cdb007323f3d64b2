import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import make_interp_spline
from scipy.special import gammaincc, gammaln

from multipeak.constants import compute_constants
from multipeak.correction import correction_profiles, equation_residual, verify_L0_identities
from multipeak.groundstate import _energy_ledger, ode_residual, solve_ground_state
from multipeak.radial import (
    GridError,
    InterpolatingSpline,
    Quadrature,
    RadialFunction,
    RadialGrid,
    TailModel,
    _hermite_coeffs,
    moment_reduce,
    moment_weight,
    surface_area,
)

from profile_oracles import fd_derivative


def upper_gamma_tail(c: float, a: float, b: float, R: float) -> float:
    """Closed form c * b^-(a+1) * Gamma(a+1) * Q(a+1, bR), needing a > -1.

    An independent cross-check of TailModel.integral.
    """
    s = a + 1.0
    if s <= 0:
        raise ValueError("closed form needs power a > -1")
    log_scale = -s * np.log(b) + gammaln(s)
    return float(c * np.exp(log_scale) * gammaincc(s, b * R))


def from_values(grid: RadialGrid, values, tail=None) -> RadialFunction:
    """RadialFunction from node values only: second-order difference
    derivatives, with f'(0) = 0 as for smooth radial profiles."""
    x = grid.nodes
    f = np.asarray(values, dtype=float)
    d1 = fd_derivative(x, f)
    d1[0] = 0.0
    d2 = fd_derivative(x, d1)
    return RadialFunction(grid, f, d1, d2, tail=tail)


def test_surface_area_closed_forms():
    assert surface_area(1) == pytest.approx(2.0, rel=1e-14)
    assert surface_area(2) == pytest.approx(2.0 * np.pi, rel=1e-14)
    assert surface_area(3) == pytest.approx(4.0 * np.pi, rel=1e-14)
    assert surface_area(4) == pytest.approx(2.0 * np.pi ** 2, rel=1e-14)


def test_grid_invariants():
    g = RadialGrid.graded(20.0, n_nodes=100)
    assert g.nodes[0] == 0.0
    assert g.r_max == 20.0
    assert np.all(np.diff(g.nodes) > 0)
    with pytest.raises(GridError):
        RadialGrid(np.array([0.5, 1.0, 2.0] + list(np.linspace(3, 9, 7))))
    with pytest.raises(GridError):
        RadialGrid.graded(-1.0)


def test_interpolant_reproduces_quintics_exactly():
    # the per-cell basis is quintic, so degree-5 data round-trips to roundoff
    coef = np.array([0.3, -1.2, 0.7, 0.05, -0.02, 0.004])
    poly = np.polynomial.Polynomial(coef)
    g = RadialGrid(np.linspace(0.0, 4.0, 17))
    f = RadialFunction(g, poly(g.nodes), poly.deriv(1)(g.nodes), poly.deriv(2)(g.nodes))
    r = np.linspace(0.0, 4.0, 211)
    assert np.max(np.abs(f(r) - poly(r))) < 1e-12
    assert np.max(np.abs(f.deriv1(r) - poly.deriv(1)(r))) < 1e-11
    assert np.max(np.abs(f.deriv2(r) - poly.deriv(2)(r))) < 1e-10


def test_channel_form_reproduces_septics_exactly():
    # f is septic from (f, .., f'''), f' septic from (f', .., f''''), f''
    # quintic from (f'', f''', f''''): each is exact on a degree-7 polynomial
    poly = np.polynomial.Polynomial([0.3, -1.2, 0.7, 0.05, -0.02, 0.004, -3e-4, 2e-5])
    g = RadialGrid(np.linspace(0.0, 4.0, 17))
    d0, d1, d2, d3, d4 = (poly.deriv(k)(g.nodes) for k in range(5))
    f = RadialFunction(g, d0, d1, d2, d3=d3, d4=d4)
    r = np.linspace(0.0, 4.0, 211)
    for k, got in enumerate(f.evaluate(g.locate(r))):
        assert np.max(np.abs(got - poly.deriv(k)(r))) < 1e-12
    # the quintic form of the same data is not exact, so the check can fail
    quintic = RadialFunction(g, d0, d1, d2)
    assert np.max(np.abs(quintic.deriv2(r) - poly.deriv(2)(r))) > 1e-8


@pytest.mark.parametrize("lone", ["d3", "d4"])
def test_channel_form_needs_d3_and_d4_together(lone):
    g = RadialGrid(np.linspace(0.0, 4.0, 17))
    z = np.zeros(g.size)
    with pytest.raises(ValueError, match="d3 and d4 together"):
        RadialFunction(g, z, z, z, **{lone: z})


def test_interpolant_matches_node_values():
    g = RadialGrid.graded(10.0, n_nodes=200)
    vals = np.cos(g.nodes)
    f = RadialFunction(g, vals, -np.sin(g.nodes), -np.cos(g.nodes))
    assert np.max(np.abs(f(g.nodes) - vals)) < 1e-14


def test_from_values_derivatives():
    g = RadialGrid(np.linspace(0.0, 6.0, 1200))
    f = from_values(g, np.exp(-g.nodes ** 2 / 2))
    r = np.linspace(0.2, 5.0, 101)
    exact1 = -r * np.exp(-r ** 2 / 2)
    assert np.max(np.abs(f.deriv1(r) - exact1)) < 1e-4


def test_outside_grid_uses_tail_or_zero():
    g = RadialGrid(np.linspace(0.0, 5.0, 21))
    vals = np.exp(-g.nodes)
    f0 = from_values(g, vals)
    assert f0(7.5) == 0.0
    tail = TailModel(c=1.0, a=0.0, b=1.0)
    f1 = from_values(g, vals, tail=tail)
    assert f1(7.5) == pytest.approx(np.exp(-7.5), rel=1e-12)
    assert f1.deriv1(7.5) == pytest.approx(-np.exp(-7.5), rel=1e-12)


def _cellwise_reference(f: RadialFunction, r, deriv: int):
    """f^(deriv) at r <= r_max the long way: one searchsorted, the whole
    coefficient column of each point's cell, and Horner on the derivative
    of the value polynomial, or on the d1/d2 channel when d4 data exist."""
    x = f.grid.nodes
    h = np.diff(x)
    idx = np.clip(np.searchsorted(x, r, side="right") - 1, 0, x.size - 2)
    tau = (r - x[idx]) / h[idx]
    rows = [f.values, f.d1, f.d2] + ([] if f.d3 is None else [f.d3])
    if f.d4 is not None and deriv:
        rows = [f.d1, f.d2, f.d3, f.d4][deriv - 1:]
        deriv = 0
    c = _hermite_coeffs(h, *rows)[:, idx]
    m = c.shape[0] - 1
    out = np.zeros_like(r)
    for k in range(m, deriv - 1, -1):
        weight = 1 if deriv == 0 else k if deriv == 1 else k * (k - 1)
        out = out * tau + weight * c[k]
    return out / h[idx] ** deriv


def _profiles(corrections):
    gs = solve_ground_state(3, 3.0)
    # U carries d3/d4 channels, chi only (f, f', f'')
    return {"U": gs.profile, "chi": corrections(3, 3.0).chi}


@pytest.mark.parametrize("name", ["U", "chi"])
def test_shared_lookup_equals_single_channel_calls(name, corrections):
    f = _profiles(corrections)[name]
    x = f.grid.nodes
    mid = 0.5 * (x[1:] + x[:-1])
    r = np.concatenate([x, mid, x[:-1] + 0.1 * np.diff(x), [f.grid.r_max + 0.5, 40.0]])
    at = f.grid.locate(r)
    vals = f.evaluate(at)
    singles = (f(r), f.deriv1(r), f.deriv2(r))
    assert len(vals) == 3
    for got, want in zip(vals, singles):
        assert np.array_equal(got, want)
    inside = r <= f.grid.r_max
    for k in range(3):
        assert np.array_equal(vals[k][inside], _cellwise_reference(f, r[inside], k))


def test_shared_lookup_scalar_and_tailless(corrections):
    f = _profiles(corrections)["U"]
    for r in (0.0, 1.234, f.grid.r_max, 35.0):
        vals = f.evaluate(f.grid.locate(r))
        assert vals == (f(r), f.deriv1(r), f.deriv2(r))
        assert all(np.ndim(v) == 0 for v in vals)
    g = RadialGrid(np.linspace(0.0, 5.0, 21))
    bare = from_values(g, np.exp(-g.nodes))
    r = np.array([0.0, 2.6, 5.0, 5.5, 9.0])
    vals = bare.evaluate(g.locate(r))
    for got, want in zip(vals, (bare(r), bare.deriv1(r), bare.deriv2(r))):
        assert np.array_equal(got, want)
        assert np.all(got[r > 5.0] == 0.0)


def test_each_node_set_is_located_once(monkeypatch, corrections):
    # one lookup per node set serves every channel of every profile there;
    # correction_profiles reads U on one midpoint grid per equation
    gs = solve_ground_state(3, 3.0)
    cp = corrections(3, 3.0)
    calls = []
    locate = RadialGrid.locate
    monkeypatch.setattr(RadialGrid, "locate", lambda grid, r: calls.append(r) or locate(grid, r))

    def lookups(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    assert lookups(compute_constants, gs, cp, 3) == 1
    assert lookups(_energy_ledger, gs.profile, gs.n, gs.p) == 1
    assert lookups(ode_residual, gs) == 1
    assert lookups(verify_L0_identities, gs) == 1
    for name in ("psi", "chi"):
        assert lookups(equation_residual, gs, getattr(cp, name), name) == 1
    assert lookups(correction_profiles, gs) == 2


def test_quadrature_polynomial_exactness():
    g = RadialGrid(np.linspace(0.0, 3.0, 13))
    q = Quadrature(g)
    # composite 8-point Gauss is exact through degree 15
    vals = q.points ** 15
    assert q.integrate(vals) == pytest.approx(3.0 ** 16 / 16.0, rel=1e-13)
    assert q.integrate(np.cos(q.points)) == pytest.approx(np.sin(3.0), rel=1e-12)


def test_tail_power_integral_matches_incomplete_gamma():
    # two independent closed forms for int_R^inf c r^a e^(-b r) dr
    for (c, a, b, R) in [(2.0, 3.0, 1.0, 8.0), (0.7, 0.5, 2.0, 5.0), (1.0, 4.0, 3.0, 12.0)]:
        got = TailModel(c, a, b).integral(R)
        ref = upper_gamma_tail(c, a, b, R)
        assert got == pytest.approx(ref, rel=1e-12)


def test_tail_power_integral_negative_power():
    # a <= -1 is outside the incomplete-gamma form; check against quad
    ref, err = quad(lambda r: r ** (-1.0) * np.exp(-2.0 * r), 6.0, np.inf)
    got = TailModel(1.0, -1.0, 2.0).integral(6.0)
    assert abs(got - ref) < 1e-12 + 10 * err


def test_tail_model_value_and_derivatives():
    t = TailModel(c=2.0, a=-1.0, b=1.0)
    r = 9.0
    assert t.value(r) == pytest.approx(2.0 / r * np.exp(-r), rel=1e-14)
    h = 1e-5
    fd1 = (t.value(r + h) - t.value(r - h)) / (2 * h)
    assert t.d1(r) == pytest.approx(fd1, rel=1e-8)
    fd2 = (t.value(r + h) - 2 * t.value(r) + t.value(r - h)) / h ** 2
    assert t.d2(r) == pytest.approx(fd2, rel=1e-5)


def test_moment_weights():
    assert moment_weight("z1^2", 5) == (pytest.approx(0.2), 2)
    assert moment_weight("z1^4", 3) == (pytest.approx(0.2), 4)
    assert moment_weight("|z|^2", 7) == (1.0, 2)
    # odd weights are not reduced; they are unknown like any other
    for weight in ("z1^6", "z1", "z1^2*z2"):
        with pytest.raises(KeyError):
            moment_weight(weight, 3)


def test_moment_reduce_gaussian_closed_form():
    # int e^(-|z|^2) z1^2 dz over R^3 = pi^(3/2)/2
    g = RadialGrid.graded(9.0, n_nodes=600)
    q = Quadrature(g)
    got = moment_reduce(np.exp(-q.points ** 2), "z1^2", 3, quad=q)
    assert got == pytest.approx(np.pi ** 1.5 / 2.0, rel=1e-10)


def test_moment_reduce_pure_tail_matches_closed_form():
    # profile vanishing on the grid with an analytic tail past it: the
    # reduction must equal the closed-form upper incomplete gamma integral
    g = RadialGrid(np.linspace(0.0, 4.0, 33))
    tail = TailModel(c=2.0, a=3.0, b=1.5)
    q = Quadrature(g)
    got = moment_reduce(np.zeros_like(q.points), "z1^2", 3, q, tail=tail)
    kappa = 1.0 / 3.0
    ref = kappa * surface_area(3) * upper_gamma_tail(2.0, 3.0 + 4.0, 1.5, 4.0)
    assert got == pytest.approx(ref, rel=1e-8)


def warp_derivative(a: float, b: float, t, nu: int):
    """The nu-th derivative of criterion 09's warp sin t (1 + a sin t +
    b sin^2 t), written as the trigonometric polynomial (1 + 3b/4) sin t +
    a/2 - (a/2) cos 2t - (b/4) sin 3t."""
    out = np.full_like(t, 0.5 * a if nu == 0 else 0.0)
    for amp, w, phase in ((1.0 + 0.75 * b, 1.0, 0.0), (-0.5 * a, 2.0, 0.5 * np.pi),
                          (-0.25 * b, 3.0, 0.0)):
        out += amp * w ** nu * np.sin(w * t + phase + 0.5 * nu * np.pi)
    return out


def scipy_derivative(spline, nu: int):
    return spline.derivative(nu) if nu else spline


def test_spline_matches_scipy_on_the_e2_grid():
    # the quintic of the e2 check, through every third node of (3, 3)'s U
    gs = solve_ground_state(3, 3.0)
    x, y = gs.grid.nodes[::3], gs.profile.values[::3]
    ours, ref = InterpolatingSpline(x, y, 5), make_interp_spline(x, y, k=5)
    assert np.max(np.abs(ours(x) - y)) <= 4 * np.finfo(float).eps * np.max(np.abs(y))
    r = np.linspace(0.0, x[-1], 4001)
    for nu in range(3):
        want = scipy_derivative(ref, nu)(r)
        gap = np.max(np.abs(ours(r, nu) - want))
        # rounding in the data, amplified 1/h per derivative
        assert gap <= 10.0 ** (3 * nu - 14) * np.max(np.abs(want)), (nu, gap)


def test_septic_spline_error_is_at_most_twice_scipy():
    # criterion 09's warps and sin (a = b = 0), sampled as WarpedSphere samples a callable
    rng = np.random.default_rng(2026)
    warps = [tuple(rng.uniform(-0.15, 0.15, 2)) for _ in range(50)] + [(0.0, 0.0)]
    t = np.linspace(0.0, np.pi, 161)
    r = np.linspace(1e-3 * np.pi, np.pi - 1e-3 * np.pi, 2001)
    for a, b in warps:
        f = warp_derivative(a, b, t, 0)
        ours, ref = InterpolatingSpline(t, f, 7), make_interp_spline(t, f, k=7)
        assert np.max(np.abs(ours(t) - f)) <= 4 * np.finfo(float).eps
        for nu in range(5):
            exact = warp_derivative(a, b, r, nu)
            err = np.max(np.abs(ours(r, nu) - exact))
            ref_err = np.max(np.abs(scipy_derivative(ref, nu)(r) - exact))
            # f itself is exact to rounding in both, where 2x is noise
            assert err <= 2.0 * ref_err + 1e-15, (a, b, nu, err, ref_err)


def test_spline_scalar_reader_equals_array_reader():
    t = np.linspace(0.0, np.pi, 161)
    s = InterpolatingSpline(t, warp_derivative(0.1, -0.05, t, 0), 7)
    for x in (0.0, 0.3, float(t[40]), 2.9, np.pi, np.pi + 0.01):
        got = s.derivatives(x, 4)
        assert all(type(v) is float for v in got)
        assert np.allclose(got, [float(s(x, nu)) for nu in range(5)], rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("case", ["even-degree", "too-few", "unsorted", "repeated", "x-nan",
                                  "y-inf"])
def test_spline_refuses_what_it_cannot_interpolate(case):
    x, y, k = np.linspace(0.0, 1.0, 12), np.linspace(0.0, 1.0, 12) ** 2, 5
    match = "finite and strictly increasing"
    if case == "even-degree":
        k, match = 4, "odd degree"
    elif case == "too-few":
        x, y, match = x[:5], y[:5], "at least 6"
    elif case == "unsorted":
        x[[5, 6]] = x[[6, 5]]
    elif case == "repeated":
        x[6] = x[5]
    elif case == "x-nan":
        x[5] = np.nan
    else:
        y[5], match = np.inf, "data must be finite"
    with pytest.raises(ValueError, match=match):
        InterpolatingSpline(x, y, k)
