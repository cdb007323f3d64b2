"""Curvature models and the concentration functional.

The warped-sphere curvature is checked against curvature_fd, a deliberately
elementary finite-difference Christoffel pipeline that shares no code with
the closed forms under test.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from scipy.interpolate import make_interp_spline
from scipy.optimize import minimize_scalar

from multipeak.geometry import (
    CurvaturePoint,
    FlatSpace,
    NoInteriorCritical,
    PoleSingularity,
    RoundSphere,
    WarpedSphere,
    _golden_section,
    phi,
    scan_phi,
)

from curvature_fd import curvature_reference, laplacian_s_reference


class AntipodalPair(ValueError):
    """The log map is undefined for antipodal points."""


@dataclass
class Geodesic:
    distance: float
    log: np.ndarray


def sphere_geodesics(model: RoundSphere, xi1, xi2) -> Geodesic:
    """Great-circle distance and the inverse exponential map at xi1."""
    a = np.asarray(xi1, dtype=float) / np.linalg.norm(xi1)
    b = np.asarray(xi2, dtype=float) / np.linalg.norm(xi2)
    theta = float(np.arccos(np.clip(np.dot(a, b), -1.0, 1.0)))
    if np.pi - theta < 1e-9:
        raise AntipodalPair("log map undefined within 1e-9 of the antipode")
    d = model.radius * theta
    tangent = b - np.cos(theta) * a
    norm = np.linalg.norm(tangent)
    log = np.zeros_like(a) if norm < 1e-15 else (d / norm) * tangent
    return Geodesic(distance=d, log=log)


@dataclass
class TabulatedCurvature:
    """Chart given by sampled curvature fields along one parameter; a second
    model for scan_phi, independent of the warped closed forms."""

    t: np.ndarray
    s: np.ndarray
    lap_s: np.ndarray
    ric2: np.ndarray
    riem2: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        k = 3 if self.t.size >= 4 else 1
        self._sp = {
            name: make_interp_spline(self.t, np.asarray(getattr(self, name), float), k=k)
            for name in ("s", "lap_s", "ric2", "riem2")
        }

    @property
    def parameter_range(self):
        return (float(self.t[0]), float(self.t[-1]))

    def curvature_at(self, t: float) -> CurvaturePoint:
        if not (self.t[0] <= t <= self.t[-1]):
            raise ValueError(f"t={t!r} outside the tabulated range")
        return CurvaturePoint(*(float(self._sp[k](t)) for k in ("s", "lap_s", "ric2", "riem2")))


def warp_family(a, b):
    # closes at both poles for any (a, b): f ~ t near 0, ~ (L-t) near L
    return lambda t: np.sin(t) * (1.0 + a * np.sin(t) + b * np.sin(t) ** 2)


def test_round_closed_forms():
    cp = RoundSphere(3, 1.0).curvature_at()
    assert (cp.s, cp.lap_s, cp.ric2, cp.riem2) == (6.0, 0.0, 12.0, 12.0)
    half = RoundSphere(3, 2.0).curvature_at()
    assert half.s == cp.s / 4 and half.ric2 == cp.ric2 / 16 and half.riem2 == cp.riem2 / 16
    for n in range(2, 8):
        c = RoundSphere(n, 1.7).curvature_at()
        assert c.ric2 == pytest.approx(c.s ** 2 / n, rel=1e-14)  # Einstein equality


def test_round_closed_forms_match_fd_oracle():
    for n, radius in ((3, 1.0), (4, 1.0), (3, 2.0)):
        f = lambda t: radius * np.sin(t / radius)
        s, ric2, riem2 = curvature_reference(n, f, 1.1)
        ref = RoundSphere(n, radius).curvature_at()
        assert s == pytest.approx(ref.s, rel=1e-6)
        assert ric2 == pytest.approx(ref.ric2, rel=1e-6)
        assert riem2 == pytest.approx(ref.riem2, rel=1e-6)


def test_sin_warp_reproduces_round_sphere():
    for n in (3, 4, 5):
        M = WarpedSphere(n, np.sin)
        ref = RoundSphere(n, 1.0).curvature_at()
        for t in np.linspace(0.3, np.pi - 0.3, 9):
            cp = M.curvature_at(t)
            assert cp.s == pytest.approx(ref.s, rel=1e-9)
            assert cp.ric2 == pytest.approx(ref.ric2, rel=1e-9)
            assert cp.riem2 == pytest.approx(ref.riem2, rel=1e-9)
            assert abs(cp.lap_s) < 1e-5


def test_warped_curvature_matches_fd_oracle():
    # acceptance runs the full 50-sample sweep; this is the fast spot check
    rng = np.random.default_rng(7)
    for trial in range(12):
        n = [3, 4, 5][trial % 3]
        a, b = rng.uniform(-0.15, 0.15, 2)
        f = warp_family(a, b)
        M = WarpedSphere(n, f)
        t0 = float(rng.uniform(0.5, np.pi - 0.5))
        cp = M.curvature_at(t0)
        s_o, ric2_o, riem2_o = curvature_reference(n, f, t0)
        assert cp.s == pytest.approx(s_o, rel=1e-5)
        assert cp.ric2 == pytest.approx(ric2_o, rel=1e-5)
        assert cp.riem2 == pytest.approx(riem2_o, rel=1e-5)
        lap_o = laplacian_s_reference(n, f, t0)
        # atol covers the oracle's own stencil noise near lap_s zeros
        assert np.isclose(cp.lap_s, lap_o, rtol=1e-5, atol=1e-5)


def test_ricci_norm_dominates_scalar_mean():
    # Cauchy-Schwarz: |Ric|^2 >= s^2 / n on any n-manifold
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = [3, 4, 5][trial % 3]
        a, b = rng.uniform(-0.15, 0.15, 2)
        M = WarpedSphere(n, warp_family(a, b))
        cp = M.curvature_at(float(rng.uniform(0.3, np.pi - 0.3)))
        assert cp.ric2 >= cp.s ** 2 / n - 1e-10 * abs(cp.ric2)


def test_warp_closure_validation():
    with pytest.raises(ValueError):
        WarpedSphere(3, lambda t: np.sin(t) + 0.2)  # f(0) != 0
    with pytest.raises(ValueError):
        WarpedSphere(3, lambda t: 0.5 * np.sin(t))  # f'(0) != 1


@pytest.mark.parametrize("bad", [-0.5, 0.0, np.nan, "t-unsorted", "t-repeated", "t-nan"],
                         ids=["negative", "zero", "nan", "t-unsorted", "t-repeated", "t-nan"])
def test_warp_must_be_positive_inside(bad):
    # f <= 0 at one interior sample is not a metric, in either constructor
    # form; nor are samples whose t is not finite and strictly increasing
    t = np.linspace(0.0, np.pi, 161)
    f_vals = np.sin(t)
    if isinstance(bad, str):
        if bad == "t-unsorted":
            t[[80, 81]] = t[[81, 80]]
        else:
            t[81] = t[80] if bad == "t-repeated" else np.nan
        with pytest.raises(ValueError, match=r"finite and strictly increasing, got x\[81\]"):
            WarpedSphere(3, t=t, f_vals=f_vals)
        return
    f_vals[80] = bad
    with pytest.raises(ValueError, match=r"positive inside \(0, L\), got f\(1\.5707"):
        WarpedSphere(3, t=t, f_vals=f_vals)
    with pytest.raises(ValueError, match="positive inside"):
        WarpedSphere(3, lambda s: np.where(np.abs(s - np.pi / 2) < 1e-9, bad, np.sin(s)))


@pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -1.0])
def test_round_sphere_radius_must_be_finite_positive(radius):
    with pytest.raises(ValueError, match="0 < radius < inf"):
        RoundSphere(3, radius)


def test_warp_must_be_vectorized():
    # f is called once on the whole sample array, never point by point
    with pytest.raises(ValueError, match="array of its shape"):
        WarpedSphere(3, lambda t: 1.0)
    with pytest.raises(ValueError, match="array of its shape"):
        WarpedSphere(3, lambda t: np.sin(t)[:-1])


def test_pole_singularity_guard():
    M = WarpedSphere(3, np.sin)
    with pytest.raises(PoleSingularity):
        M.curvature_at(1e-4)
    with pytest.raises(PoleSingularity):
        M.curvature_at(np.pi - 1e-4)
    assert M.curvature_at(1.0).s == pytest.approx(6.0, rel=1e-9)


def test_from_samples_round_trip():
    t = np.linspace(0.0, np.pi, 201)
    M = WarpedSphere(4, t=t, f_vals=np.sin(t))
    ref = RoundSphere(4, 1.0).curvature_at()
    cp = M.curvature_at(1.3)
    assert cp.s == pytest.approx(ref.s, rel=1e-8)
    assert cp.riem2 == pytest.approx(ref.riem2, rel=1e-8)


def test_sphere_distances_and_geodesics():
    M = RoundSphere(3, radius=2.0)
    e1 = np.array([1.0, 0, 0, 0])
    e2 = np.array([0, 1.0, 0, 0])
    assert M.distance(e1, e2) == pytest.approx(np.pi, rel=1e-12)
    g = sphere_geodesics(M, e1, e2)
    assert g.distance == pytest.approx(np.pi, rel=1e-12)
    assert np.linalg.norm(g.log) == pytest.approx(g.distance, rel=1e-12)
    assert g.log @ e1 == pytest.approx(0.0, abs=1e-12)  # log lives in the tangent space
    with pytest.raises(AntipodalPair):
        sphere_geodesics(M, e1, -e1)
    same = sphere_geodesics(M, e1, e1)
    assert same.distance == 0.0 and np.all(same.log == 0.0)


def test_flat_space_is_curvature_free():
    F = FlatSpace(3)
    cp = F.curvature_at()
    assert (cp.s, cp.lap_s, cp.ric2, cp.riem2) == (0.0, 0.0, 0.0, 0.0)
    assert F.distance([0.0, 0, 0], [3.0, 4.0, 0]) == 5.0
    assert F.injectivity_radius == np.inf


def test_phi_vanishes_on_zero_curvature(dimensional_constants):
    dc = dimensional_constants(3, 3)
    assert phi(CurvaturePoint(0.0, 0.0, 0.0, 0.0), dc) == 0.0


def test_phi_round_unit_sphere_pinned(dimensional_constants):
    # frozen regression value for the (3, 3) pair on the unit 3-sphere
    dc = dimensional_constants(3, 3)
    val = phi(RoundSphere(3, 1.0).curvature_at(), dc)
    assert val == pytest.approx(-146.32282518075203, rel=1e-9)


def test_scan_round_sphere_is_constant_and_raises(dimensional_constants):
    dc = dimensional_constants(3, 3)
    with pytest.raises(NoInteriorCritical) as exc:
        scan_phi(RoundSphere(3, 1.0), dc)
    scan = exc.value.scan
    assert scan is not None
    assert float(scan.phi.max() - scan.phi.min()) < 1e-12
    assert scan.points == []


def test_scan_dimension_mismatch_rejected(dimensional_constants):
    dc = dimensional_constants(3, 3)
    with pytest.raises(ValueError):
        scan_phi(RoundSphere(4, 1.0), dc)


def test_scan_rejects_model_without_parameter_range(dimensional_constants):
    dc = dimensional_constants(3, 3)
    with pytest.raises(ValueError, match="FlatSpace"):
        scan_phi(FlatSpace(3), dc)


def test_scan_finds_symmetric_extrema(dimensional_constants):
    dc = dimensional_constants(3, 3)
    M = WarpedSphere(3, lambda t: np.sin(t) + 0.05 * np.sin(t) ** 2)
    scan = scan_phi(M, dc)
    kinds = [p.kind for p in scan.points]
    assert kinds == ["max", "min", "max"]
    t1, t2, t3 = (p.t for p in scan.points)
    # the warp is symmetric about pi/2, so the scan must be too
    assert abs(t2 - np.pi / 2) < 1e-6
    assert abs(t1 + t3 - np.pi) < 1e-6
    assert scan.points[1].phi < scan.points[0].phi


def test_golden_section_takes_scipys_steps(dimensional_constants):
    # the scan's own objective around each extremum, and two plain minima
    dc = dimensional_constants(3, 3)
    M = WarpedSphere(3, lambda t: np.sin(t) * (1.0 + 0.15 * np.sin(t) ** 2))
    func = lambda t: phi(M.curvature_at(t), dc)
    cases = [(lambda t: -func(t), 1.085), (func, np.pi / 2), (lambda t: -func(t), 2.0565),
             (lambda t: (t - 1.3) ** 2 + 0.1 * np.cos(5 * t), 1.22),
             (lambda t: np.exp(t) - 3.0 * t, 1.1)]
    for objective, b in cases:
        ts = np.linspace(0.02 * np.pi, 0.98 * np.pi, 2001)
        i = int(np.argmin(np.abs(ts - b)))
        # the node triple of the scan's bracket: its least value in the middle
        while objective(ts[i + 1]) < objective(ts[i]):
            i += 1
        while objective(ts[i - 1]) < objective(ts[i]):
            i -= 1
        bracket = (float(ts[i - 1]), float(ts[i]), float(ts[i + 1]))
        want = minimize_scalar(objective, method="golden", bracket=bracket,
                               options={"xtol": 1e-11}).x
        assert abs(_golden_section(objective, *bracket) - want) < 1e-10


def test_scan_stable_under_refinement(dimensional_constants):
    dc = dimensional_constants(3, 3)
    M = WarpedSphere(3, lambda t: np.sin(t) + 0.05 * np.sin(t) ** 2)
    coarse = scan_phi(M, dc, resolution=2001)
    fine = scan_phi(M, dc, resolution=4001)
    assert len(coarse.points) == len(fine.points)
    for p, q in zip(coarse.points, fine.points):
        assert abs(p.t - q.t) < 1e-6


def test_tabulated_interpolates_warped_fields(dimensional_constants):
    dc = dimensional_constants(3, 3)
    M = WarpedSphere(3, lambda t: np.sin(t) + 0.05 * np.sin(t) ** 2)
    grid = np.linspace(0.1, np.pi - 0.1, 501)
    cps = [M.curvature_at(t) for t in grid]
    tab = TabulatedCurvature(
        t=grid,
        s=[c.s for c in cps],
        lap_s=[c.lap_s for c in cps],
        ric2=[c.ric2 for c in cps],
        riem2=[c.riem2 for c in cps],
    )
    for t in (0.7, 1.3, 2.2):
        a, b = tab.curvature_at(t), M.curvature_at(t)
        assert a.s == pytest.approx(b.s, rel=1e-8)
        assert a.ric2 == pytest.approx(b.ric2, rel=1e-8)
        assert phi(a, dc) == pytest.approx(phi(b, dc), rel=1e-6)
    with pytest.raises(ValueError):
        tab.curvature_at(0.01)
    scan = scan_phi(tab, dc)
    mid = [p for p in scan.points if p.kind == "min"]
    assert mid and abs(mid[0].t - np.pi / 2) < 1e-4
