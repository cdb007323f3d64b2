import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import checkout_env
from multipeak import cli
from multipeak.cli import parse_args
from multipeak.constants import CSV_COLUMNS, product_exponent
from multipeak.geometry import WarpedSphere, phi
from multipeak.groundstate import GroundState

@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("gs-cache"))


@pytest.fixture(scope="session")
def warp_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("warp") / "bumpy.csv"
    t = np.linspace(0.0, np.pi, 201)
    f = np.sin(t) * (1.0 + 0.15 * np.sin(t) ** 2)
    lines = ["# t,f"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(t, f)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# stands in parametrised argv for the path of the warp_csv fixture
WARP_CSV = "<warp_csv>"


def with_warp(argv, warp_csv) -> tuple:
    return tuple(warp_csv if a == WARP_CSV else a for a in argv)


def run_cli(*argv, expect=0, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "multipeak.cli", *argv],
        capture_output=True,
        text=True,
        env={**checkout_env(), **(env or {})},
    )
    assert proc.returncode == expect, proc.stdout + proc.stderr
    return proc


def test_ground_state_record(cache_dir, tmp_path):
    out = tmp_path / "gs.json"
    run_cli("ground-state", "--n", "3", "--m", "3",
            "--cache-dir", cache_dir, "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["p"] == 3.0
    assert doc["provenance"]["version"]
    assert doc["provenance"]["grid"]["n_nodes"] == 4000
    rep = doc["identity_report"]
    assert rep["e_energy"] < 1e-8
    assert rep["e_pohozaev"] < 1e-8
    assert rep["e_alpha"] < 1e-12
    gs = GroundState.from_dict(doc["record"])
    assert gs.profile(0.0) == pytest.approx(doc["record"]["u0"], rel=1e-14)


def test_ground_state_rejects_supercritical(cache_dir):
    proc = run_cli("ground-state", "--n", "3", "--p", "6",
                   "--cache-dir", cache_dir, expect=1)
    doc = json.loads(proc.stdout)
    assert doc["error"] == "SubcriticalViolation"
    assert "detail" in doc


def test_exponent_flags_are_exclusive(cache_dir):
    proc = run_cli("ground-state", "--n", "3", "--m", "3", "--p", "3.0",
                   "--cache-dir", cache_dir, expect=1)
    assert json.loads(proc.stdout)["error"] == "ValueError"


def test_psi_record(cache_dir, tmp_path):
    out = tmp_path / "psi.json"
    run_cli("psi", "--n", "3", "--m", "3",
            "--cache-dir", cache_dir, "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["correction"]["discrete_residual"] < 1e-8
    assert -1.2 < doc["tail_exponent"] < -0.8
    assert max(abs(v) for v in doc["identity_report"].values()) < 1e-6


def test_psi_prints_the_cached_record(tmp_path):
    # the correction block is the cp entry the command stored, key for key
    # and value for value
    cache = tmp_path / "cache"
    doc = json.loads(run_cli("psi", "--n", "3", "--m", "3", "--cache-dir", str(cache)).stdout)
    (entry,) = cache.glob("cp-*.json")
    assert doc["correction"] == json.loads(entry.read_text())


def test_constants_record(cache_dir, tmp_path):
    out = tmp_path / "const.json"
    run_cli("constants", "--n", "3", "--m", "3", "--seed", "11",
            "--cache-dir", cache_dir, "--out", str(out))
    doc = json.loads(out.read_text())
    row = doc["constants"]
    assert row["N"] == 6 and row["beta"] < 0
    assert doc["gamma"]["spread"] < 1e-8
    assert doc["provenance"]["seed"] == 11


def test_beta_table_enumeration(cache_dir, tmp_path):
    out = tmp_path / "beta.csv"
    run_cli("beta-table", "--max-N", "7",
            "--cache-dir", cache_dir, "--out", str(out))
    lines = out.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    assert any("version" in c for c in comments)
    assert body[0] == ",".join(CSV_COLUMNS)
    rows = [l.split(",") for l in body[1:]]
    assert [(r[0], r[1]) for r in rows] == [("3", "3"), ("3", "4"), ("4", "3")]
    beta_col = CSV_COLUMNS.index("beta")
    assert all(float(r[beta_col]) < 0 for r in rows)


def test_beta_table_rejects_small_range(cache_dir):
    proc = run_cli("beta-table", "--max-N", "5", "--cache-dir", cache_dir, expect=1)
    assert json.loads(proc.stdout)["error"] == "ValueError"


def test_phi_scan_sphere_warns_but_succeeds(cache_dir, tmp_path):
    out = tmp_path / "scan.csv"
    run_cli("phi-scan", "--n", "3", "--m", "3",
            "--cache-dir", cache_dir, "--out", str(out))
    lines = out.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "t,s,lap_s,ric2,riem2,phi"
    doc = json.loads((tmp_path / "scan.points.json").read_text())
    assert "NoInteriorCritical" in doc["warning"]
    assert doc["points"] == []


def test_phi_scan_warped_finds_symmetric_point(cache_dir, tmp_path, warp_csv):
    out = tmp_path / "warp_scan.csv"
    run_cli("phi-scan", "--n", "3", "--m", "3", "--model", "warped",
            "--profile", warp_csv, "--cache-dir", cache_dir, "--out", str(out))
    doc = json.loads((tmp_path / "warp_scan.points.json").read_text())
    assert doc["warning"] is None
    assert doc["points"]
    mid = min(doc["points"], key=lambda c: abs(c["t"] - np.pi / 2))
    assert mid["t"] == pytest.approx(np.pi / 2, abs=1e-5)
    assert all(c["kind"] in ("min", "max", "degenerate") for c in doc["points"])


def test_phi_scan_warped_rows_hold_curvature_and_phi(cache_dir, tmp_path, warp_csv):
    out = tmp_path / "warp_rows.csv"
    run_cli("phi-scan", "--n", "3", "--m", "3", "--model", "warped",
            "--profile", warp_csv, "--cache-dir", cache_dir, "--out", str(out))
    data = np.loadtxt(warp_csv, delimiter=",", comments="#")
    model = WarpedSphere(3, t=data[:, 0], f_vals=data[:, 1])
    dc = cli._constants(3, 3, Path(cache_dir))[2]
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 2001
    for row in rows:
        t, *cells = (float(c) for c in row.split(","))
        cp = model.curvature_at(t)
        assert cells == [cp.s, cp.lap_s, cp.ric2, cp.riem2, phi(cp, dc)], row


def test_phi_scan_refuses_warp_with_nonpositive_sample(cache_dir, tmp_path):
    path = tmp_path / "fold.csv"
    t = np.linspace(0.0, np.pi, 161)
    f = np.sin(t)
    f[80] = -0.5
    path.write_text("".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, f)))
    proc = run_cli("phi-scan", "--n", "3", "--m", "3", "--model", "warped",
                   "--profile", str(path), "--cache-dir", cache_dir, expect=1)
    doc = json.loads(proc.stdout)
    assert doc["error"] == "ValueError"
    assert "positive inside" in doc["detail"]


def test_phi_scan_refuses_warp_with_unsorted_t(cache_dir, tmp_path):
    path = tmp_path / "unsorted.csv"
    t = np.linspace(0.0, np.pi, 161)
    f = np.sin(t)
    t[[80, 81]] = t[[81, 80]]
    path.write_text("".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, f)))
    proc = run_cli("phi-scan", "--n", "3", "--m", "3", "--model", "warped",
                   "--profile", str(path), "--cache-dir", cache_dir, expect=1)
    doc = json.loads(proc.stdout)
    assert doc["error"] == "ValueError"
    assert "strictly increasing" in doc["detail"]


def test_phi_scan_needs_profile_for_warped(cache_dir):
    proc = run_cli("phi-scan", "--n", "3", "--m", "3", "--model", "warped",
                   "--cache-dir", cache_dir, expect=1)
    assert json.loads(proc.stdout)["error"] == "ValueError"


def test_energy_check_single_peak_report(cache_dir, tmp_path):
    out = tmp_path / "energy.json"
    run_cli("energy-check", "--n", "3", "--m", "3", "--K", "1",
            "--eps", "0.1,0.07,0.05,0.035",
            "--cache-dir", cache_dir, "--out", str(out))
    doc = json.loads(out.read_text())
    assert [pe["epsilon"] for pe in doc["per_eps"]] == [0.1, 0.07, 0.05, 0.035]
    for pe in doc["per_eps"]:
        assert pe["admissible"] is True
        bd = pe["breakdown"]
        total = (bd["term_alpha"] + bd["term_beta"] + bd["term_phi"]
                 + bd["term_interaction"] + bd["remainder"])
        assert bd["J_measured"] == pytest.approx(total, abs=1e-12)
    fit = doc["coefficient_fit"]
    assert fit["eps2_coeff"] == pytest.approx(doc["predicted"]["eps2_coeff"], rel=1e-2)
    assert doc["residual_slopes"]["W_slope"] == pytest.approx(2.0, abs=0.2)


def test_energy_check_fit_and_slopes_read_the_rungs(cache_dir, tmp_path):
    # for K = 1 the fit and the slopes reduce the very ansatze of the rungs
    out = tmp_path / "energy_rungs.json"
    run_cli("energy-check", "--n", "3", "--m", "3", "--K", "1",
            "--eps", "0.1,0.085,0.07,0.055,0.045,0.035",
            "--cache-dir", cache_dir, "--out", str(out))
    doc = json.loads(out.read_text())
    rungs, fit, slopes = doc["per_eps"], doc["coefficient_fit"], doc["residual_slopes"]
    assert fit["values"] == [
        (pe["breakdown"]["J_measured"] - pe["breakdown"]["term_alpha"]) / pe["epsilon"] ** 2
        for pe in rungs
    ]
    assert slopes["W_values"] == [pe["residual_W"] for pe in rungs]
    assert slopes["Y_values"] == [pe["residual_Y"] for pe in rungs]


def test_energy_check_short_ladder_skips_fit(cache_dir, tmp_path):
    # 3 basis terms: fewer than 4 rungs cannot support a fit
    out = tmp_path / "energy_short.json"
    run_cli("energy-check", "--n", "3", "--m", "3", "--K", "1",
            "--eps", "0.1,0.07", "--cache-dir", cache_dir, "--out", str(out))
    doc = json.loads(out.read_text())
    assert "coefficient_fit" not in doc
    assert "predicted" not in doc
    assert "4 distinct epsilon" in doc["note"]
    assert len(doc["per_eps"]) == 2


def test_energy_check_repeated_eps_skips_fit(cache_dir, tmp_path):
    # four rungs of one eps fit a quadratic exactly and mean nothing
    out = tmp_path / "energy_repeated.json"
    run_cli("energy-check", "--n", "3", "--m", "3", "--K", "1",
            "--eps", "0.1,0.1,0.1,0.1", "--cache-dir", cache_dir, "--out", str(out))
    doc = json.loads(out.read_text())
    assert "coefficient_fit" not in doc
    assert "predicted" not in doc
    assert "4 distinct epsilon" in doc["note"]
    assert len(doc["per_eps"]) == 4


def test_energy_check_one_distinct_eps_has_no_slopes(cache_dir, tmp_path):
    out = tmp_path / "energy_flat_ladder.json"
    run_cli("energy-check", "--n", "3", "--m", "3", "--K", "1",
            "--eps", "0.1,0.1", "--cache-dir", cache_dir, "--out", str(out))
    doc = json.loads(out.read_text())
    slopes = doc["residual_slopes"]
    for key in ("W_slope", "W_r2", "Y_slope", "Y_r2"):
        assert slopes[key] is None, key
    assert len(slopes["W_values"]) == len(slopes["Y_values"]) == 2
    assert doc["remainder_slope"] is None and doc["remainder_r2"] is None
    assert "2 distinct epsilon" in doc["note"]
    assert "4 distinct epsilon" in doc["note"]


def test_energy_check_flags_inadmissible_pair(cache_dir, tmp_path):
    out = tmp_path / "energy2.json"
    run_cli("energy-check", "--n", "3", "--m", "3", "--K", "2",
            "--eps", "0.05", "--cache-dir", cache_dir, "--out", str(out))
    doc = json.loads(out.read_text())
    pe = doc["per_eps"][0]
    assert pe["admissible"] is False
    assert pe["margin"] < 0
    assert pe["breakdown"]["term_interaction"] < 0


def test_energy_check_flat_control(cache_dir):
    proc = run_cli("energy-check", "--n", "3", "--m", "3", "--model", "flat",
                   "--K", "1", "--eps", "0.1,0.07", "--cache-dir", cache_dir)
    assert json.loads(proc.stdout)["model"] == "FlatSpace"
    proc = run_cli("energy-check", "--n", "3", "--m", "3", "--model", "flat",
                   "--K", "2", "--cache-dir", cache_dir, expect=1)
    assert json.loads(proc.stdout) == {"error": "ValueError",
                                       "detail": "flat runs support K=1 only"}


def test_energy_check_validates_K(cache_dir):
    proc = run_cli("energy-check", "--n", "3", "--m", "3", "--K", "3",
                   "--cache-dir", cache_dir, expect=1)
    assert json.loads(proc.stdout)["error"] == "ValueError"


@pytest.mark.parametrize("flags", [("--eps", "inf"), ("--eps", "nan"), ("--eps", "nan,0.1"),
                                   ("--rho", "nan")],
                         ids=["eps-inf", "eps-nan", "eps-nan-ladder", "rho-nan"])
def test_energy_check_rejects_non_finite_inputs(cache_dir, flags):
    proc = run_cli("energy-check", "--n", "3", "--m", "3", *flags,
                   "--cache-dir", cache_dir, expect=1)
    doc = json.loads(proc.stdout)
    assert doc["error"] == "ValueError"
    assert flags[0].lstrip("-") in doc["detail"]


def test_config_file_supplies_flags(cache_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\nm = 3\neps = 0.1,0.07  # short ladder\n")
    out = tmp_path / "cfg_energy.json"
    run_cli("energy-check", "--config", str(cfg),
            "--cache-dir", cache_dir, "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["provenance"]["grid"]["eps_ladder"] == [0.1, 0.07]


def test_command_line_beats_config_file(cache_dir, tmp_path):
    cfg = tmp_path / "ladder.cfg"
    cfg.write_text("n = 3\nm = 3\neps = 0.1,0.07\n")
    proc = run_cli("energy-check", "--config", str(cfg), "--eps", "0.1",
                   "--cache-dir", cache_dir)
    assert json.loads(proc.stdout)["provenance"]["grid"]["eps_ladder"] == [0.1]


@pytest.mark.parametrize("line", ["epsilon = 0.05", "k = 2", "max_N = 7", "K = two"])
def test_config_key_must_be_a_flag_of_its_command(cache_dir, tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"n = 3\nm = 3\n{line}\n")
    proc = run_cli("energy-check", "--config", str(cfg), "--cache-dir", cache_dir,
                   expect=2)
    assert proc.stdout == ""
    assert "usage:" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("beta-table", "--n", "3"),
        ("constants", "--n", "3", "--m", "3", "--p", "4.0"),
        ("phi-scan", "--n", "3", "--m", "3", "--p", "4.0"),  # not --profile
    ],
    ids=["beta-table", "constants", "phi-scan"],
)
def test_commands_reject_flags_they_do_not_read(cache_dir, argv):
    proc = run_cli(*argv, "--cache-dir", cache_dir, expect=2)
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [("ground-state", "--n", "3", "--m", "2"), ("constants", "--n", "2", "--m", "3")],
    ids=["m=2", "n=2"],
)
def test_dimensions_below_three_are_usage_errors(cache_dir, argv):
    # the paper's product needs n, m >= 3, as table_pairs does
    proc = run_cli(*argv, "--cache-dir", cache_dir, expect=2)
    assert proc.stdout == ""
    assert "must be at least 3" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [("phi-scan", "--model", "roundsphere"), ("energy-check", "--model", "bogus"),
     ("energy-check", "--model", "Sphere")],
    ids=["alias", "unknown", "case"],
)
def test_unknown_model_is_a_usage_error(cache_dir, argv):
    # --model takes exactly the names README documents
    proc = run_cli(*argv, "--n", "3", "--m", "3", "--cache-dir", cache_dir, expect=2)
    assert proc.stdout == ""
    assert "invalid choice" in proc.stderr


def test_unreadable_config_is_a_json_error(tmp_path):
    cfg = tmp_path / "noeq.cfg"
    cfg.write_text("n = 3\nm 3\n")
    for path, error in ((cfg, "ValueError"), (tmp_path / "missing.cfg", "FileNotFoundError")):
        proc = run_cli("constants", "--config", str(path), expect=1)
        assert json.loads(proc.stdout)["error"] == error


def test_config_values_take_their_flag_type(tmp_path):
    cfg = tmp_path / "typed.cfg"
    cfg.write_text("n = 3\nm = 3\nK = 2\nrho = 0.9\nseed = 4\neps = 0.1\n")
    args = parse_args(["energy-check", "--config", str(cfg)])
    assert (args.n, args.m, args.K, args.seed) == (3, 3, 2, 4)
    assert args.rho == 0.9
    assert args.eps == "0.1"


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = tmp_path / "cache"
    argv = ("ground-state", "--n", "3", "--m", "3", "--cache-dir", str(cache))
    first = run_cli(*argv).stdout
    (entry,) = cache.glob("gs-*.json")
    good = entry.read_text()
    record = json.loads(good)
    # readable, but the loaded profile fails the energy identities
    record["values"] = [1.01 * v for v in record["values"]]
    for bad in (good[: len(good) // 2], json.dumps(record)):
        entry.write_text(bad)
        same = run_cli(*argv).stdout == first  # no diff of two long texts
        assert same
        assert entry.read_text() == good

    # the correction profiles stored beside it: truncated, an array short,
    # a residual that certifies nothing (psi prints it as a certificate), or
    # finite arrays that fit the grid but put psi 1% off, so that the loaded
    # psi misses its stored equation residual
    argv = ("psi", "--n", "3", "--m", "3", "--cache-dir", str(cache))
    first = run_cli(*argv).stdout
    (entry,) = cache.glob("cp-*.json")
    good = entry.read_text()
    record = json.loads(good)
    bad_records = [good[: len(good) // 2]]
    for change in ({"chi_d1": record["chi_d1"][:-1]},
                   {"discrete_residual": 1.0}, {"discrete_residual": float("nan")},
                   {"chi_discrete_residual": -5.0},
                   {key: [1.01 * v for v in record[key]] for key in ("psi_values", "psi_d1")}):
        bad_records.append(json.dumps({**record, **change}))
    for bad in bad_records:
        entry.write_text(bad)
        same = run_cli(*argv).stdout == first
        assert same
        assert entry.read_text() == good


def test_entry_of_another_ground_state_is_a_miss(tmp_path):
    # a sound, certified (4, 3) entry under the (3, 3) name is replaced
    cache = tmp_path / "cache"
    argv = ("ground-state", "--n", "3", "--m", "3", "--cache-dir", str(cache))
    first = run_cli(*argv).stdout
    entry = cli._entry(cache, "gs", 3, 3.0)
    good = entry.read_text()
    run_cli("ground-state", "--n", "4", "--m", "3", "--cache-dir", str(cache))
    entry.write_text(cli._entry(cache, "gs", 4, product_exponent(4, 3)).read_text())
    same = run_cli(*argv).stdout == first
    assert same
    assert entry.read_text() == good


def test_writers_sharing_a_cache_keep_their_own_files(tmp_path, monkeypatch):
    # a second writer runs a whole cold store while the first is between its
    # write and its rename, as two processes on one cache dir can
    save = GroundState.save
    raced = []

    def save_then_race(self, path):
        save(self, path)
        if not raced:
            raced.append(path)
            cli.cached_ground_state(3, 3.0, tmp_path)

    monkeypatch.setattr(GroundState, "save", save_then_race)
    gs = cli.cached_ground_state(3, 3.0, tmp_path)
    (entry,) = tmp_path.iterdir()
    assert entry.match("gs-*.json")
    assert GroundState.load(entry).u0 == gs.u0
    # the entry has the mode of a plain open, readable where the cache is shared
    umask = os.umask(0)
    os.umask(umask)
    assert entry.stat().st_mode & 0o777 == 0o666 & ~umask


def test_failed_cache_write_leaves_no_file(tmp_path, monkeypatch):
    def broken_save(self, path):
        with open(path, "w") as fh:
            fh.write("{")
        raise OSError("disk full")

    monkeypatch.setattr(GroundState, "save", broken_save)
    with pytest.raises(OSError, match="disk full"):
        cli.cached_ground_state(3, 3.0, tmp_path)
    assert list(tmp_path.iterdir()) == []


def scipy_after(code: str, *argv) -> list:
    """scipy modules in sys.modules of a child that runs code, which sets its
    exit status rc, with sys.argv[1:] = argv."""
    code = (
        "import sys\n"
        f"{code}"
        "sys.stderr.write(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.exit(rc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stderr.split()


def loaded_scipy(*argv) -> list:
    """scipy modules in sys.modules of a child that imports multipeak.cli
    and, given argv, runs that command."""
    return scipy_after("import multipeak.cli as cli\n"
                       "rc = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n", *argv)


@pytest.mark.parametrize("command", [
    ("constants",), ("ground-state",), ("beta-table", "--max-N", "6"),
    ("phi-scan", "--model", "sphere"), ("energy-check",), ("psi",),
    ("phi-scan", "--model", "warped", "--profile", WARP_CSV),
], ids=["constants", "ground-state", "beta-table", "phi-scan", "energy-check", "psi",
        "phi-scan-warped"])
def test_warm_path_imports_no_scipy(tmp_path, warp_csv, command):
    assert loaded_scipy() == []
    dims = () if command[0] == "beta-table" else ("--n", "3", "--m", "3")
    argv = (*with_warp(command, warp_csv), *dims, "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "out"))
    assert loaded_scipy(*argv) == []  # cold: solves into the empty cache
    assert loaded_scipy(*argv) == []  # warm: reads the entries just stored


def test_library_solves_import_no_scipy():
    assert scipy_after(
        "import numpy as np\n"
        "from multipeak.constants import compute_constants, gamma\n"
        "from multipeak.correction import correction_profiles\n"
        "from multipeak.groundstate import solve_ground_state\n"
        "gs = solve_ground_state(3, 3.0)\n"
        "cp = correction_profiles(gs)\n"
        "compute_constants(gs, cp, 3)\n"
        "gamma(gs, np.eye(3)[0])\n"
        "rc = 0\n"
    ) == []


def test_cache_is_content_addressed(cache_dir, tmp_path):
    run_cli("ground-state", "--n", "3", "--m", "3",
            "--cache-dir", cache_dir, "--out", str(tmp_path / "a.json"))
    import pathlib

    entry = cli._entry(pathlib.Path(cache_dir), "gs", 3, 3.0)
    doc = json.loads(entry.read_text())
    assert doc["n"] == 3


def test_record_keys_are_pinned_with_the_schema(corrections, tmp_path):
    # the cache key hashes SCHEMA: a change to either record's keys bumps it,
    # so no entry of the old layout is read under the new one
    cp = corrections(3, 3.0)
    cp.save(tmp_path / "cp.json")
    assert cli.SCHEMA == 8
    assert set(cp.gs.to_dict()) == {
        "n", "p", "u0", "decay_c", "grid", "values", "values_d1", "I1", "I2", "Ip",
        "certified", "bracket_width", "bracket_shots", "certify_shots", "newton_steps",
        "match_mismatch",
    }
    assert set(json.loads((tmp_path / "cp.json").read_text())) == {
        "n", "p", "psi_values", "psi_d1", "chi_values", "chi_d1", "discrete_residual",
        "chi_discrete_residual", "psi_equation_residual", "chi_equation_residual",
    }


# the six invocations of criterion 10, by test id
CRITERION_10_ARGV = {
    "ground-state": ("ground-state", "--n", "3", "--m", "3"),
    "psi": ("psi", "--n", "3", "--m", "3"),
    "constants": ("constants", "--n", "3", "--m", "3", "--seed", "5"),
    "beta-table": ("beta-table", "--max-N", "6"),
    "phi-scan": ("phi-scan", "--n", "3", "--m", "3"),
    "energy": ("energy-check", "--n", "3", "--m", "3", "--eps", "0.1,0.07"),
}
CRITERION_10 = pytest.mark.parametrize("argv", list(CRITERION_10_ARGV.values()),
                                       ids=list(CRITERION_10_ARGV))
# criterion 10's invocations and the warped phi-scan, whose spline and
# golden section are the library's own as well
DETERMINISM = pytest.mark.parametrize(
    "argv",
    [*CRITERION_10_ARGV.values(),
     ("phi-scan", "--n", "3", "--m", "3", "--model", "warped", "--profile", WARP_CSV)],
    ids=[*CRITERION_10_ARGV, "phi-scan-warped"],
)


def written(out: Path) -> bytes:
    """The bytes of out and, for phi-scan, of the points file beside it."""
    side = out.with_suffix(".points.json")
    return out.read_bytes() + (side.read_bytes() if side.exists() else b"")


@DETERMINISM
def test_reruns_are_byte_identical(cache_dir, tmp_path, warp_csv, argv):
    argv = with_warp(argv, warp_csv)
    a, b = tmp_path / "a.out", tmp_path / "b.out"
    run_cli(*argv, "--cache-dir", cache_dir, "--out", str(a))
    run_cli(*argv, "--cache-dir", cache_dir, "--out", str(b))
    same = written(a) == written(b)
    assert same


@DETERMINISM
def test_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, warp_csv, argv):
    # every radial integral and the spline solve are fixed-order sums, so a
    # cold run, solve included, prints the same bytes at one BLAS thread and
    # at two
    argv = with_warp(argv, warp_csv)
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"{threads}.out"
        run_cli(*argv, "--cache-dir", str(tmp_path / f"cache-{threads}"), "--out", str(out),
                env={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads})
        outs.append(written(out))
    same = outs[0] == outs[1]
    assert same


@CRITERION_10
def test_config_file_equals_command_line(cache_dir, tmp_path, argv):
    command, flags = argv[0], argv[1:]
    cfg = tmp_path / "same.cfg"
    cfg.write_text("".join(f"{k[2:].replace('-', '_')} = {v}\n"
                           for k, v in zip(flags[::2], flags[1::2])))
    direct = run_cli(*argv, "--cache-dir", cache_dir).stdout
    same = run_cli(command, "--config", str(cfg), "--cache-dir", cache_dir).stdout == direct
    assert same
