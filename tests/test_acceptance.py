"""End-to-end gates, one test per numbered criterion.

Each test asserts the full criterion, so the verbose run shows one
pass/fail line per gate.  Tolerances are pinned; a failing gate means the
implementation and the claimed behavior genuinely disagree, and the
assertion message carries the measured numbers.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import checkout_env
from curvature_fd import curvature_reference, laplacian_s_reference
from multipeak.constants import base_interaction, beta_table, gamma, product_exponent
from multipeak.correction import operator_identity_check, verify_L0_identities
from multipeak.energy import (
    SLOPE_LADDER,
    PeakConfig,
    build_Y,
    energy_coefficient_fit,
    expansion_compare,
    one_peak_ladder,
    residual_slopes,
)
from multipeak.geometry import RoundSphere, WarpedSphere, phi, scan_phi
from multipeak.groundstate import identity_report, solve_ground_state

PAIRS = [(n, m) for n in range(3, 7) for m in range(3, 7) if n + m <= 9]


def test_criterion_01_beta_negative_for_all_pairs():
    t0 = time.monotonic()
    rows = beta_table(max_N=9)
    elapsed = time.monotonic() - t0
    assert len(rows) == 10
    bad = [(r.n, r.m, r.beta) for r in rows if not r.beta < 0]
    assert not bad, f"nonnegative beta rows: {bad}"
    assert elapsed < 120.0, f"table took {elapsed:.1f}s"


def test_criterion_02_ground_state_identity_suite():
    worst = {}
    for n, m in PAIRS:
        rep = identity_report(solve_ground_state(n, product_exponent(n, m)))
        for key in ("e_energy", "e_pohozaev", "e_alpha"):
            worst[key] = max(worst.get(key, 0.0), rep[key])
    assert all(v < 1e-6 for v in worst.values()), f"identity defects {worst}"


def test_criterion_03_operator_identity_suite():
    cases = [(3, 3.0), (4, 8.0 / 3.0), (5, 8.0 / 3.0)]
    report = {}
    for n, p in cases:
        res = verify_L0_identities(solve_ground_state(n, p))
        report[(n, round(p, 6))] = res
        assert res["e1"] < 1e-6 and res["e2"] < 1e-6, f"{n=} {p=}: {res}"


def test_criterion_04_correction_cross_validation(corrections):
    gs = solve_ground_state(3, 3.0)
    defect = operator_identity_check(gs, corrections(3, 3.0).psi)
    assert defect < 1e-3, f"full-dimension FD defect {defect:.2e}"


def test_criterion_05_second_order_coefficient_cross_check():
    rows = beta_table(max_N=9)
    for row in rows:
        indep = row.c_bold * row.raw["I2"] - 2.0 * row.c1
        rel = abs(indep - row.beta) / abs(row.beta)
        assert rel < 1e-6, f"(n={row.n}, m={row.m}): routes differ by {rel:.2e}"


def test_criterion_06_interaction_constant_direction_invariant():
    rng = np.random.default_rng(2026)
    for n, p in [(3, 3.0), (4, 8.0 / 3.0), (5, 8.0 / 3.0)]:
        gs = solve_ground_state(n, p)
        vals = []
        for _ in range(10):
            b = rng.standard_normal(n)
            vals.append(gamma(gs, b / np.linalg.norm(b)).value)
        vals = np.asarray(vals)
        spread = float(np.ptp(vals) / abs(vals.mean()))
        assert spread < 1e-8, f"{n=}: spread {spread:.2e}"
        assert vals.mean() > base_interaction(gs), f"{n=}: convexity bound violated"


def test_criterion_07_energy_expansion_single_peak(corrections, dimensional_constants):
    t0 = time.monotonic()
    gs = solve_ground_state(3, 3.0)
    cp = corrections(3, 3.0)
    dc = dimensional_constants(3, 3)
    model = RoundSphere(3, 1.0)
    center = model.point(0.6)
    s_val = model.curvature_at().s

    fit = energy_coefficient_fit(one_peak_ladder(model, gs, cp, dc, center), dc.alpha)
    pred2 = 0.5 * dc.beta * s_val
    rel2 = abs(fit["eps2_coeff"] / pred2 - 1.0)
    ok_a = rel2 <= 0.01

    phi_val = phi(model.curvature_at(), dc)
    rel4 = abs(fit["eps4_coeff"] / phi_val - 1.0)
    ok_b = rel4 <= 0.05

    ratios = []
    for eps in (0.1, 0.07, 0.05, 0.035):
        config = PeakConfig(epsilon=eps, centers=center[None], cutoff_r=1.2)
        bd = expansion_compare(model, build_Y(model, config, gs, profiles=cp, dc=dc), dc)
        ratios.append(abs(bd.remainder) / eps ** 4)
    ok_c = all(b < a for a, b in zip(ratios, ratios[1:]))

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"expansion check took {elapsed:.1f}s"
    assert ok_a and ok_b and ok_c, (
        f"(a) eps^2 coefficient {fit['eps2_coeff']:.4f} vs {pred2:.4f}, "
        f"rel {rel2:.2e}, {'ok' if ok_a else 'FAIL'}; "
        f"(b) eps^4 coefficient {fit['eps4_coeff']:.4f} vs {phi_val:.4f}, "
        f"rel {rel4:.2e}, {'ok' if ok_b else 'FAIL'}; "
        f"(c) remainder/eps^4 ladder {[f'{r:.2f}' for r in ratios]}, "
        f"{'ok' if ok_c else 'FAIL (not decreasing)'}"
    )


def test_criterion_08_residual_order_improvement(corrections, dimensional_constants):
    gs = solve_ground_state(3, 3.0)
    cp = corrections(3, 3.0)
    dc = dimensional_constants(3, 3)
    model = RoundSphere(3, 1.0)
    sl = residual_slopes(one_peak_ladder(model, gs, cp, dc, model.point(0.6),
                                         eps_ladder=SLOPE_LADDER))
    gain = sl["Y_slope"] - sl["W_slope"]
    assert sl["Y_slope"] >= 2.7 and gain >= 0.7, (
        f"corrected slope {sl['Y_slope']:.4f} (need >= 2.7), "
        f"plain slope {sl['W_slope']:.4f}, gain {gain:.4f} (need >= 0.7); "
        f"residuals Y {[f'{v:.3e}' for v in sl['Y_values']]} "
        f"W {[f'{v:.3e}' for v in sl['W_values']]}"
    )


def test_criterion_09_warped_curvature_oracle_and_scan_stability(dimensional_constants):
    rng = np.random.default_rng(2026)
    for trial in range(50):
        n = [3, 4, 5][trial % 3]
        a, b = rng.uniform(-0.15, 0.15, 2)
        f = lambda t: np.sin(t) * (1.0 + a * np.sin(t) + b * np.sin(t) ** 2)
        M = WarpedSphere(n, f)
        t0 = float(rng.uniform(0.5, np.pi - 0.5))
        cpt = M.curvature_at(t0)
        s_o, ric2_o, riem2_o = curvature_reference(n, f, t0)
        assert cpt.s == pytest.approx(s_o, rel=1e-5)
        assert cpt.ric2 == pytest.approx(ric2_o, rel=1e-5)
        assert cpt.riem2 == pytest.approx(riem2_o, rel=1e-5)
        lap_o = laplacian_s_reference(n, f, t0)
        assert np.isclose(cpt.lap_s, lap_o, rtol=1e-5, atol=1e-5)

    dc = dimensional_constants(3, 3)
    M = WarpedSphere(3, lambda t: np.sin(t) * (1.0 + 0.15 * np.sin(t) ** 2))
    coarse = scan_phi(M, dc, resolution=2001)
    fine = scan_phi(M, dc, resolution=4001)
    assert len(coarse.points) == len(fine.points)
    for cpnt, fpnt in zip(coarse.points, fine.points):
        assert abs(cpnt.t - fpnt.t) < 1e-6


def test_criterion_10_cli_determinism(tmp_path):
    cache = str(tmp_path / "cache")
    commands = [
        ("ground-state", "--n", "3", "--m", "3"),
        ("psi", "--n", "3", "--m", "3"),
        ("constants", "--n", "3", "--m", "3", "--seed", "5"),
        ("beta-table", "--max-N", "6"),
        ("phi-scan", "--n", "3", "--m", "3"),
        ("energy-check", "--n", "3", "--m", "3", "--eps", "0.1,0.07"),
    ]
    for i, argv in enumerate(commands):
        outs = []
        for rerun in range(2):
            out = tmp_path / f"cmd{i}_run{rerun}.out"
            proc = subprocess.run(
                [sys.executable, "-m", "multipeak.cli", *argv,
                 "--cache-dir", cache, "--out", str(out)],
                capture_output=True,
                text=True,
                env=checkout_env(),
            )
            assert proc.returncode == 0, f"{argv}: {proc.stdout}{proc.stderr}"
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], f"{argv[0]} rerun differs"
        side = tmp_path / f"cmd{i}_run0.points.json"
        if side.exists():
            assert json.loads(side.read_text()) is not None
