import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc, gammaln

from conftest import corrections, ground_state
from multipeak.radial import (
    GridError,
    Quadrature,
    RadialFunction,
    RadialGrid,
    TailModel,
    _fd_derivative,
    _hermite_coeffs,
    moment_reduce,
    moment_weight,
    surface_area,
    tail_power_integral,
)


def upper_gamma_tail(c: float, a: float, b: float, R: float) -> float:
    """Closed form c * b^-(a+1) * Gamma(a+1) * Q(a+1, bR), needing a > -1.

    An independent cross-check of tail_power_integral.
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
    d1 = _fd_derivative(x, f)
    d1[0] = 0.0
    d2 = _fd_derivative(x, d1)
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


def _profiles():
    gs = ground_state(3, 3.0)
    # U carries d3/d4 channels, chi only (f, f', f'')
    return {"U": gs.profile, "chi": corrections(3, 3.0).chi}


@pytest.mark.parametrize("name", ["U", "chi"])
def test_shared_lookup_equals_single_channel_calls(name):
    f = _profiles()[name]
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
    # a lower order gives the leading values of the same lookup
    for order in (0, 1):
        assert all(np.array_equal(a, b) for a, b in zip(f.evaluate(at, order), vals))
        assert len(f.evaluate(at, order)) == order + 1


def test_shared_lookup_scalar_and_tailless():
    f = _profiles()["U"]
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


def test_quadrature_polynomial_exactness():
    g = RadialGrid(np.linspace(0.0, 3.0, 13))
    q = Quadrature(g, order=8)
    # composite 8-point Gauss is exact through degree 15
    vals = q.points ** 15
    assert q.integrate(vals) == pytest.approx(3.0 ** 16 / 16.0, rel=1e-13)
    assert q.integrate_fn(np.cos, power=0.0) == pytest.approx(np.sin(3.0), rel=1e-12)


def test_tail_power_integral_matches_incomplete_gamma():
    # two independent closed forms for int_R^inf c r^a e^(-b r) dr
    for (c, a, b, R) in [(2.0, 3.0, 1.0, 8.0), (0.7, 0.5, 2.0, 5.0), (1.0, 4.0, 3.0, 12.0)]:
        got = tail_power_integral(c, a, b, R)
        ref = upper_gamma_tail(c, a, b, R)
        assert got == pytest.approx(ref, rel=1e-12)


def test_tail_power_integral_negative_power():
    # a <= -1 is outside the incomplete-gamma form; check against quad
    ref, err = quad(lambda r: r ** (-1.0) * np.exp(-2.0 * r), 6.0, np.inf)
    got = tail_power_integral(1.0, -1.0, 2.0, 6.0)
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
    assert moment_weight("z1", 3) == (0.0, 0)
    with pytest.raises(KeyError):
        moment_weight("z1^6", 3)


def test_moment_reduce_gaussian_closed_form():
    # int e^(-|z|^2) z1^2 dz over R^3 = pi^(3/2)/2
    g = RadialGrid.graded(9.0, n_nodes=600)
    q = Quadrature(g)
    got = moment_reduce(lambda r: np.exp(-r ** 2), "z1^2", 3, quad=q)
    assert got == pytest.approx(np.pi ** 1.5 / 2.0, rel=1e-10)


def test_moment_reduce_odd_weight_is_exactly_zero():
    g = RadialGrid.graded(9.0, n_nodes=100)
    q = Quadrature(g)
    assert moment_reduce(lambda r: np.exp(-r), "z1", 3, quad=q) == 0.0
    assert moment_reduce(lambda r: np.exp(-r), "z1^2*z2", 6, quad=q) == 0.0


def test_moment_reduce_pure_tail_matches_closed_form():
    # profile vanishing on the grid with an attached analytic tail: the
    # reduction must equal the closed-form upper incomplete gamma integral
    g = RadialGrid(np.linspace(0.0, 4.0, 33))
    tail = TailModel(c=2.0, a=3.0, b=1.5)
    zero = RadialFunction(g, np.zeros(33), np.zeros(33), np.zeros(33), tail=tail)
    got = moment_reduce(zero, "z1^2", 3)
    kappa = 1.0 / 3.0
    ref = kappa * surface_area(3) * upper_gamma_tail(2.0, 3.0 + 4.0, 1.5, 4.0)
    assert got == pytest.approx(ref, rel=1e-8)
