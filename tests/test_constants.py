import json

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn, iv


from multipeak.constants import (
    CSV_COLUMNS,
    ExponentMismatch,
    NotUnit,
    _angular_factor,
    base_interaction,
    beta_table,
    compute_constants,
    conformal_constant,
    gamma,
    product_exponent,
    table_csv,
)
from multipeak.correction import correction_profiles
from multipeak.groundstate import solve_ground_state

PAIRS = [(3, 3), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4), (4, 5), (5, 3), (5, 4), (6, 3)]


def test_exponent_gate(corrections):
    gs = solve_ground_state(3, 3.0)
    cp = corrections(3, 3.0)
    with pytest.raises(ExponentMismatch):
        compute_constants(gs, cp, 4)


def test_trivial_values_33(dimensional_constants):
    dc = dimensional_constants(3, 3)
    assert dc.N == 6
    assert dc.p == 3.0
    assert dc.c_bold == 0.2
    assert conformal_constant(6) == 0.2
    assert product_exponent(3, 3) == 3.0


def test_compositional_identities_exact(dimensional_constants):
    for (n, m) in [(3, 3), (4, 4), (5, 4)]:
        dc = dimensional_constants(n, m)
        cc = dc.c_bold
        assert dc.c6 == 8.0 * dc.c1 - 120.0 * (n + 2.0) * dc.c3
        assert dc.c8 == 18.0 * dc.c1 + 30.0 * cc * dc.c2 * (n + 2.0)
        assert dc.c7 == (-dc.c3 - dc.c4 - dc.c5 - dc.c2 * cc / 12.0
                         + dc.c1 / (24.0 * (n + 2.0)))
        assert dc.raw["M4"] == 6.0 * dc.c1


def test_beta_two_path_crosscheck(dimensional_constants):
    # beta from its definition vs c_bold*I2 - 2*c1; the two sides integrate
    # U'^2 through different moment weights, so agreement is not circular
    for (n, m) in PAIRS:
        dc = dimensional_constants(n, m)
        alt = dc.c_bold * dc.raw["I2"] - 2.0 * dc.c1
        assert abs(dc.beta - alt) <= 1e-6 * abs(dc.beta)


def test_alpha_nehari_form(dimensional_constants):
    for (n, m) in [(3, 3), (4, 4), (5, 3), (3, 6)]:
        dc = dimensional_constants(n, m)
        alt = (0.5 - 1.0 / dc.p) * dc.raw["Ip"]
        assert abs(dc.alpha - alt) <= 1e-6 * abs(dc.alpha)


def test_c5_integration_by_parts(dimensional_constants):
    # int U U' |z| dz = -(n/2) * omega * int U^2 r^(n-1) dr collapses the
    # second piece of c5 onto I2
    for (n, m) in [(3, 3), (4, 4), (6, 3)]:
        dc = dimensional_constants(n, m)
        cc, I2 = dc.c_bold, dc.raw["I2"]
        alt = (cc / 6.0) * (dc.raw["grad_z2"] / (2.0 * n) + I2 / (2.0 * (2.0 - dc.p)))
        assert abs(dc.c5 - alt) <= 1e-10 * abs(dc.c5)


def test_c9_closed_form(dimensional_constants):
    # v2base solves its defining identity, so int U v2base dz has the closed
    # form I2 (1/(p-2) - n/4), i.e. I2 (m-2)/4 at the product exponent
    for (n, m) in [(3, 3), (3, 5), (4, 4), (5, 4)]:
        dc = dimensional_constants(n, m)
        closed = dc.c_bold * dc.raw["I2"] * (m - 2.0) / 8.0
        assert abs(dc.c9 - closed) <= 1e-9 * abs(closed)
        assert dc.c9 > 0.0
        assert dc.c9 == 0.5 * dc.c_bold * dc.raw["U_v2base"]


def test_positivity(dimensional_constants):
    for (n, m) in PAIRS:
        dc = dimensional_constants(n, m)
        assert dc.alpha > 0.0
        assert dc.c1 > 0.0
        assert dc.c2 > 0.0
        assert dc.c3 > 0.0


def test_quadrature_independent_recompute(corrections, dimensional_constants):
    # same profiles, disjoint integrator: adaptive quad against panel Gauss
    dc = dimensional_constants(3, 3)
    gs = solve_ground_state(3, 3.0)
    cp = corrections(3, 3.0)
    R = gs.r_max
    c2_alt = (4.0 * np.pi / 3.0) * quad(
        lambda r: gs.profile(r) ** 2 * r ** 4, 0.0, R, limit=400
    )[0]
    assert abs(dc.c2 - c2_alt) <= 1e-8 * dc.c2
    kappa = 3.0 / (3.0 * 5.0)
    c3_alt = (kappa * 4.0 * np.pi / 54.0) * quad(
        lambda r: cp.psi(r) * gs.profile.deriv1(r) * r ** 5, 0.0, R, limit=400
    )[0]
    assert abs(dc.c3 - c3_alt) <= 1e-8 * abs(dc.c3)


def test_angular_factor_bessel_closed_form():
    r = np.array([0.3, 1.0, 4.7, 12.0, 25.0])
    for n in range(3, 8):
        got = _angular_factor(r, n)
        order = (n - 2.0) / 2.0
        ref = (np.sqrt(np.pi) * gamma_fn((n - 1.0) / 2.0)
               * (2.0 / r) ** order * iv(order, r))
        assert np.max(np.abs(got - ref) / ref) < 1e-12


def test_gamma_pinned_33():
    # pinned by adaptive quadrature of U^(p-1) r^2 * 2 sinh(r)/r (the n=3
    # angular factor in closed form); agreement there was 2.7e-11
    gs = solve_ground_state(3, 3.0)
    gv = gamma(gs, np.array([0.0, 0.0, 1.0]))
    assert gv.value == pytest.approx(201.934383766, rel=1e-8)
    assert gv.value > 0.0


def test_gamma_rotational_invariance():
    gs = solve_ground_state(4, product_exponent(4, 4))
    rng = np.random.default_rng(11)
    vals = []
    for _ in range(10):
        b = rng.normal(size=4)
        b /= np.linalg.norm(b)
        vals.append(gamma(gs, b).value)
    vals = np.array(vals)
    assert (vals.max() - vals.min()) / vals.min() < 1e-8


def test_gamma_jensen_lower_bound():
    for (n, m) in [(3, 3), (5, 3)]:
        gs = solve_ground_state(n, product_exponent(n, m))
        e1 = np.zeros(n)
        e1[0] = 1.0
        base = base_interaction(gs)
        assert base > 0.0
        assert gamma(gs, e1).value >= base


def test_base_interaction_is_i2_at_cubic_exponent():
    # p - 1 = 2 at (3,3), so the b=0 interaction integral is exactly I2
    gs = solve_ground_state(3, 3.0)
    assert base_interaction(gs) == pytest.approx(gs.I2, rel=1e-9)


# the benchmark's cold-solve pairs: I1, I2, Ip, base_interaction, gamma(e1)
RADIAL_PINS = {
    (3, 3): (130.98071014873955, 130.98071014873867, 261.9614202974785,
             130.9807101487386, 201.93438377170446),
    (4, 3): (1243.2726994223576, 932.4545245667675, 2175.727223989133,
             805.3378258460631, 1353.8863397420423),
    (6, 3): (126665.71048757924, 63332.85524379005, 189998.56573136934,
             36028.507977326364, 71192.89415079985),
    (3, 6): (219.2871698395774, 438.57433967915136, 657.8615095187286,
             357.9676830293022, 1168.650552425398),
}


@pytest.mark.parametrize("n,m", list(RADIAL_PINS))
def test_radial_integrals_pinned(n, m):
    # every integral over R^n of U, each completed past the grid by U's
    # tail model, where the separate tail formulas put them
    gs = solve_ground_state(n, product_exponent(n, m))
    e1 = np.zeros(n)
    e1[0] = 1.0
    got = [gs.I1, gs.I2, gs.Ip, base_interaction(gs), gamma(gs, e1).value]
    assert got == pytest.approx(list(RADIAL_PINS[n, m]), rel=1e-14, abs=0)


def test_gamma_rejects_bad_directions():
    gs = solve_ground_state(3, 3.0)
    with pytest.raises(NotUnit):
        gamma(gs, np.array([0.0, 0.0, 2.0]))
    with pytest.raises(NotUnit):
        gamma(gs, np.array([1.0, 0.0]))
    with pytest.raises(NotUnit):
        gamma(gs, np.array([np.nan, 0.0, 0.0]))


def test_beta_table_all_pairs_negative():
    rows = beta_table()
    assert [(row.n, row.m) for row in rows] == PAIRS
    for row in rows:
        assert row.beta < 0.0
        assert row.N == row.n + row.m
        assert row.p == product_exponent(row.n, row.m)
        for key in ("I1", "I2", "Ip", "M2", "M4"):
            assert key in row.raw


def test_beta_table_rows_use_the_memoised_ground_state():
    gs = solve_ground_state(3, 3.0)
    expect = compute_constants(gs, correction_profiles(gs), 3).row()
    assert beta_table([(3, 3)])[0].row() == expect


def test_beta_table_rejects_small_pairs():
    with pytest.raises(ValueError):
        beta_table([(2, 4)])


def test_csv_deterministic_and_exact_header():
    rows = beta_table([(3, 3), (4, 4)])
    prov = {"grid": "default", "seed": 0}
    first = table_csv(rows, provenance=prov)
    second = table_csv(beta_table([(3, 3), (4, 4)]), provenance=prov)
    assert first == second
    lines = first.splitlines()
    assert lines[0].startswith("# ")
    header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_at] == "n,m,N,p,alpha,beta,c1,c2,c3,c4,c5,c6,c7,c8,c9"
    body = lines[header_at + 1:]
    assert len(body) == 2
    cells = body[0].split(",")
    assert cells[0] == "3" and cells[1] == "3"
    # repr round trip: parsing the cell recovers the float bit for bit
    assert float(cells[5]) == rows[0].beta


def table_json(rows) -> str:
    """JSON array of row objects, key order fixed by the CSV column order."""
    return json.dumps([row.row() for row in rows], indent=2) + "\n"


def test_json_is_array_of_rows():
    rows = beta_table([(3, 3)])
    doc = json.loads(table_json(rows))
    assert isinstance(doc, list) and len(doc) == 1
    assert list(doc[0].keys()) == CSV_COLUMNS
    assert doc[0]["beta"] == rows[0].beta
