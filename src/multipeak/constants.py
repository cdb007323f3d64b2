"""Dimensional constants of the two-scale concentration expansion.

For a product dimension N = n + m the exponent is p = 2N/(N-2) and the
conformal factor constant is c_bold = (N-2)/(4(N-1)).  All constants reduce
to weighted radial integrals of the ground state U, its derivative, and the
correction profiles psi and v2base:

  alpha = I1/2 + I2/2 - Ip/p
  beta  = c_bold I2 - (1/(n(n+2))) int |grad U|^2 |z|^2
  c1    = (1/6)  int (U'/|z|)^2 z1^4
  c2    =        int U^2 z1^2
  c3    = (1/54) int psi (U'/|z|) z1^4
  c4    = -(c_bold/6) int U psi z1^2
  c5    = (c_bold/6)  int (U'^2/2 - U U' / ((2-p)|z|)) z1^2
  c6    = 8 c1 - 120 (n+2) c3
  c7    = -c3 - c4 - c5 - c2 c_bold / 12 + c1 / (24 (n+2))
  c8    = 18 c1 + 30 c_bold c2 (n+2)
  c9    = (c_bold/2) int U v2base
  gamma = int U^(p-1) e^<b, z>  for a unit vector b

plus the interaction constant gamma.  Moment weights are reduced to radial
integrals through the even-moment identities handled by moment_reduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .correction import CorrectionProfiles, correction_profiles
from .groundstate import GroundState, solve_ground_state
from .radial import (
    Quadrature,
    RadialGrid,
    TailModel,
    gauss_panels,
    moment_reduce,
    surface_area,
)


class ExponentMismatch(ValueError):
    """gs.p is not the product exponent 2N/(N-2) for the requested m."""


class NotUnit(ValueError):
    """The direction vector must have unit length."""


def product_exponent(n: int, m: int) -> float:
    """p = 2N/(N-2) for N = n + m."""
    N = n + m
    return 2.0 * N / (N - 2.0)


def conformal_constant(N: int) -> float:
    """c_bold = (N-2)/(4(N-1))."""
    return (N - 2.0) / (4.0 * (N - 1.0))


CSV_COLUMNS = [
    "n", "m", "N", "p", "alpha", "beta",
    "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9",
]


@dataclass
class DimensionalConstants:
    n: int
    m: int
    N: int
    p: float
    c_bold: float
    alpha: float
    beta: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float
    c7: float
    c8: float
    c9: float
    raw: dict = field(default_factory=dict)

    def row(self) -> dict:
        return {k: getattr(self, k) for k in CSV_COLUMNS}


@dataclass
class GammaValue:
    b: np.ndarray
    value: float


def compute_constants(gs: GroundState, cp: CorrectionProfiles, m: int) -> DimensionalConstants:
    """All expansion constants for the product dimension pair (gs.n, m)."""
    n, p = gs.n, gs.p
    N = n + m
    p_N = product_exponent(n, m)
    if abs(p - p_N) > 1e-12:
        raise ExponentMismatch(
            f"ground state has p={p!r} but (n={n}, m={m}) needs p={p_N!r}"
        )
    cc = conformal_constant(N)

    quad = Quadrature(gs.grid)
    r = quad.points
    at = gs.grid.locate(r)
    U, du, _ = gs.profile.evaluate(at)
    psi = cp.psi.evaluate(at)[0]
    tail_u2 = gs.profile.tail.powered(2.0)
    # (U'/r)^2 tail: same amplitude and rate as U^2, power shifted by -2
    tail_sl2 = TailModel(tail_u2.c, tail_u2.a - 2.0, tail_u2.b)

    grad_z2 = moment_reduce(du ** 2, "|z|^2", n, quad=quad, tail=tail_u2)
    M4 = moment_reduce((du / r) ** 2, "z1^4", n, quad=quad, tail=tail_sl2)
    M2 = moment_reduce(U ** 2, "z1^2", n, quad=quad, tail=tail_u2)

    alpha = 0.5 * gs.I1 + 0.5 * gs.I2 - gs.Ip / p
    beta = cc * gs.I2 - grad_z2 / (n * (n + 2.0))
    c1 = M4 / 6.0
    c2 = M2
    psi_slope_z14 = moment_reduce(psi * du / r, "z1^4", n, quad=quad)
    c3 = psi_slope_z14 / 54.0
    U_psi_z12 = moment_reduce(U * psi, "z1^2", n, quad=quad)
    c4 = -(cc / 6.0) * U_psi_z12
    c5_core = moment_reduce(0.5 * du ** 2 - U * du / ((2.0 - p) * r), "z1^2", n, quad=quad)
    c5 = (cc / 6.0) * c5_core
    c6 = 8.0 * c1 - 120.0 * (n + 2.0) * c3
    c7 = -c3 - c4 - c5 - c2 * cc / 12.0 + c1 / (24.0 * (n + 2.0))
    c8 = 18.0 * c1 + 30.0 * cc * c2 * (n + 2.0)
    U_v2base = moment_reduce(U * cp.v2base.evaluate(at)[0], "1", n, quad=quad)
    c9 = 0.5 * cc * U_v2base

    raw = {
        "I1": gs.I1,
        "I2": gs.I2,
        "Ip": gs.Ip,
        "M2": M2,
        "M4": M4,
        "grad_z2": grad_z2,
        "psi_slope_z14": psi_slope_z14,
        "U_psi_z12": U_psi_z12,
        "c5_core": c5_core,
        "U_v2base": U_v2base,
    }
    return DimensionalConstants(
        n=n, m=m, N=N, p=p, c_bold=cc, alpha=alpha, beta=beta,
        c1=c1, c2=c2, c3=c3, c4=c4, c5=c5, c6=c6, c7=c7, c8=c8, c9=c9,
        raw=raw,
    )


def _angular_factor(r: np.ndarray, n: int) -> np.ndarray:
    """A(r) = int_0^pi exp(r cos t) sin^(n-2) t dt, panel-doubled Gauss.

    Vectorized over r; panels double until the pointwise relative change is
    below 1e-10 (the integrand sharpens near t=0 as r grows).
    """
    rule = leggauss(10)
    prev = None
    for panels in (16, 32, 64, 128, 256):
        t, w = gauss_panels(np.linspace(0.0, np.pi, panels + 1), rule)
        ws = w * np.sin(t) ** (n - 2)
        cur = np.exp(np.outer(r, np.cos(t))) @ ws
        if prev is not None and np.max(np.abs(cur - prev) / np.abs(cur)) < 1e-10:
            return cur
        prev = cur
    return prev


def _interaction_quad(gs: GroundState) -> Quadrature:
    """The 448-cell radial rule on [0, r_max] of gamma, which the tests'
    b = 0 oracle base_interaction shares."""
    return Quadrature(RadialGrid(np.linspace(0.0, gs.r_max, 448 + 1)))


def gamma(gs: GroundState, b) -> GammaValue:
    """Interaction constant int U^(p-1) exp(<b, z>) dz for a unit vector b.

    Reduced to a radial-angular product, omega_{n-2} int U^(p-1) A(r)
    r^(n-1) dr, whose angular factor A is adaptive.  Past the grid the
    radial integral is closed by the tail model of U^(p-1), U's tail raised
    to p - 1, times A's asymptote c_ang r^(-nu) e^r with nu = (n-1)/2.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.size != gs.n:
        raise NotUnit(f"direction must be a vector in R^{gs.n}")
    if not abs(float(np.linalg.norm(b)) - 1.0) <= 1e-12:
        raise NotUnit("direction must have unit length within 1e-12")
    n, p = gs.n, gs.p
    quad = _interaction_quad(gs)
    r = quad.points
    core = quad.integrate(
        np.abs(gs.profile(r)) ** (p - 1.0) * r ** (n - 1.0) * _angular_factor(r, n)
    )
    # A(r) ~ c_ang r^(-nu) e^r with c_ang = Gamma(nu) 2^((n-3)/2)
    nu = (n - 1.0) / 2.0
    c_ang = math.gamma(nu) * 2.0 ** ((n - 3.0) / 2.0)
    t = gs.profile.tail.powered(p - 1.0)
    tail = TailModel(c_ang * t.c, t.a - nu, t.b - 1.0).integral(gs.r_max, k=n - 1)
    value = surface_area(n - 1) * (core + tail)
    return GammaValue(b=b, value=value)


def table_pairs(max_N: int = 9) -> list:
    """Every (n, m) with n, m >= 3 and n + m <= max_N, ordered by (n, m)."""
    return [
        (n, m)
        for n in range(3, max_N - 2)
        for m in range(3, max_N - 2)
        if n + m <= max_N
    ]


def beta_table(pairs=None, max_N: int = 9):
    """DimensionalConstants rows for each (n, m) pair, table_pairs(max_N) by
    default.  Each row reads the memoised solve_ground_state, so a repeated
    table solves no ground state again, but it solves psi and chi again
    through correction_profiles; the rows are bit-identical.
    """
    if pairs is None:
        pairs = table_pairs(max_N)
    rows = []
    for (n, m) in pairs:
        if n < 3 or m < 3 or int(n) != n or int(m) != m:
            raise ValueError(f"pairs need integer n, m >= 3, got ({n}, {m})")
        n, m = int(n), int(m)
        gs = solve_ground_state(n, product_exponent(n, m))
        rows.append(compute_constants(gs, correction_profiles(gs), m))
    return rows


def _csv_text(header, rows, provenance: dict | None = None) -> str:
    """Deterministic CSV: '#' provenance comments, the exact header, then
    each row's cells, ints as str and every other cell as a repr float."""
    lines = [f"# {key}: {provenance[key]}" for key in sorted(provenance or {})]
    lines.append(",".join(header))
    for cells in rows:
        lines.append(",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in cells))
    return "\n".join(lines) + "\n"


def table_csv(rows, provenance: dict | None = None) -> str:
    """The rows' CSV_COLUMNS as deterministic CSV (_csv_text)."""
    return _csv_text(CSV_COLUMNS, (map(row.row().get, CSV_COLUMNS) for row in rows), provenance)
