"""Command line front end emitting reproducible JSON/CSV artifacts.

Six subcommands: ground-state, psi, constants, beta-table, phi-scan,
energy-check.  Every artifact starts with a provenance block (package
version, grid parameters, seed) and is byte-identical across reruns with
the same flags.  Ground states and their correction profiles are cached
under a content-addressed directory keyed by the solver inputs, so
repeated commands skip the expensive solves; cached and fresh runs
serialize to the same bytes.

Each subcommand takes only the flags it reads.  `--config FILE` holds
`key = value` lines, and each line is read as the flag `--key=value`
(`_` becomes `-`), placed before the command line's flags, which
therefore win.

Failures take one of two channels.  A flag or config key that the
subcommand does not have, or a value of the wrong type or outside the
flag's choices, is argparse's usage error: exit 2, message on stderr.
Every other failure, an unreadable config file or a config line without
'=' included, exits 1 with a single JSON object {"error": <class>,
"detail": <message>} on stdout.  A scan without interior critical points is reported as a
warning, not an error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .constants import (
    compute_constants,
    gamma,
    product_exponent,
    table_csv,
    table_pairs,
)
from .correction import CorrectionProfiles, correction_profiles, verify_L0_identities
from .energy import (
    LadderTooShort,
    PeakConfig,
    admissible,
    build_W,
    build_Y,
    energy_coefficient_fit,
    expansion_compare,
    loglog_slope,
    one_peak_ladder,
    residual_norm,
    residual_slopes,
)
from .geometry import (
    FlatSpace,
    NoInteriorCritical,
    RoundSphere,
    WarpedSphere,
    phi,
    scan_phi,
)
from .groundstate import SCHEMA, SOLVER, GroundState, identity_report, solve_ground_state

_DEF_EPS = "0.1,0.07,0.05,0.035"
_DEF_CACHE = "~/.cache/multipeak"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _dump(payload: dict) -> str:
    return json.dumps(_jsonable(payload), indent=2) + "\n"


def _provenance(args, **grid) -> dict:
    return {
        "version": __version__,
        "grid": {**SOLVER, **grid},
        "seed": args.seed,
    }


def _flat_provenance(args, **grid) -> dict:
    prov = _provenance(args, **grid)
    flat = {"version": prov["version"], "seed": prov["seed"]}
    for k, v in sorted(prov["grid"].items()):
        flat[f"grid_{k}"] = v
    return flat


def _emit(text: str, out):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _resolve_exponent(args) -> tuple:
    """(n, p, m) from --n with either --m or --p."""
    n, m, p = args.n, args.m, args.p
    if n is None:
        raise ValueError("--n is required")
    if m is not None and p is not None:
        raise ValueError("give either --m or --p, not both")
    if m is not None:
        return n, product_exponent(n, m), m
    if p is not None:
        return n, p, None
    raise ValueError("give --m or --p")


def _cache_dir(args) -> Path:
    raw = args.cache_dir or os.environ.get("MULTIPEAK_CACHE_DIR", _DEF_CACHE)
    return Path(raw).expanduser()


def _entry(cache: Path, kind: str, n: int, p: float) -> Path:
    """Cache file of one kind ("gs" or "cp") for (n, p).

    The key hashes the solver settings and the record schema, so entries
    written under other settings are never read.
    """
    key_src = json.dumps(
        {"n": n, "p": repr(p), "schema": SCHEMA, "solver": SOLVER, "version": __version__},
        sort_keys=True,
    )
    key = hashlib.sha256(key_src.encode()).hexdigest()[:24]
    return cache / f"{kind}-{key}.json"


def _cached(path: Path, load, solve):
    """load(path), or the object solve() gives, written to path.

    An entry that load rejects with ValueError, KeyError or TypeError
    (truncated, malformed or failing its checks) is replaced.  The write goes
    through obj.save into a temporary file of a random name unique to this
    call, then an atomic rename, so runs that share a cache never move each
    other's files.  save creates that file, so the entry keeps the mode a
    plain open gives.
    """
    if path.exists():
        try:
            return load(path)
        except (ValueError, KeyError, TypeError):
            pass
    obj = solve()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.stem}-{os.urandom(8).hex()}.tmp")
    try:
        obj.save(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return obj


def _load_certified(path: Path, n: int, p: float) -> GroundState:
    """The ground state stored at path; ValueError unless it is of (n, p),
    certified, and its profile meets the energy identities to 1e-6."""
    gs = GroundState.load(path)
    if (gs.n, gs.p) != (n, p):
        raise ValueError(f"cached ground state {path} was saved for another (n, p)")
    if not gs.certified:
        raise ValueError(f"cached ground state {path} is not certified")
    rep = identity_report(gs)
    if not all(rep[k] <= 1e-6 for k in ("e_energy", "e_pohozaev", "e_alpha")):
        raise ValueError(f"cached ground state {path} fails the energy identities")
    return gs


def cached_ground_state(n: int, p: float, cache: Path) -> GroundState:
    """The certified ground state from the disk cache, or solved and stored."""
    return _cached(_entry(cache, "gs", n, p), lambda path: _load_certified(path, n, p),
                   lambda: solve_ground_state(n, p))


def cached_profiles(gs: GroundState, cache: Path) -> CorrectionProfiles:
    """gs's correction profiles from the disk cache, or solved and stored
    beside gs's entry.  A hit imports no scipy: only the solve needs its
    banded solver and spline.
    """
    return _cached(_entry(cache, "cp", gs.n, gs.p), lambda path: CorrectionProfiles.load(gs, path),
                   lambda: correction_profiles(gs))


def _constants(n: int, m: int, cache: Path) -> tuple:
    """(gs, cp, dc) of the pair (n, m): the cached ground state and
    correction profiles, and the dimensional constants they give.
    """
    gs = cached_ground_state(n, product_exponent(n, m), cache)
    cp = cached_profiles(gs, cache)
    return gs, cp, compute_constants(gs, cp, m)


# ------------------------------------------------------------- subcommands


def cmd_ground_state(args) -> int:
    n, p, m = _resolve_exponent(args)
    gs = cached_ground_state(n, p, _cache_dir(args))
    payload = {
        "provenance": _provenance(args),
        "n": n,
        "p": p,
        "m": m,
        "record": gs.to_dict(),
        "identity_report": identity_report(gs),
    }
    _emit(_dump(payload), args.out)
    return 0


def cmd_psi(args) -> int:
    n, p, m = _resolve_exponent(args)
    cache = _cache_dir(args)
    gs = cached_ground_state(n, p, cache)
    cp = cached_profiles(gs, cache)
    payload = {
        "provenance": _provenance(args),
        "n": n,
        "p": p,
        "m": m,
        "correction": cp.to_dict(),
        "identity_report": verify_L0_identities(gs),
    }
    _emit(_dump(payload), args.out)
    return 0


def cmd_constants(args) -> int:
    if args.n is None or args.m is None:
        raise ValueError("constants needs --n and --m")
    n, m = args.n, args.m
    gs, _, dc = _constants(n, m, _cache_dir(args))
    # gamma's radial-angular quadrature reads the direction only to check
    # that it is a unit vector, so one seeded direction gives the value
    # (criterion 06 checks the invariance over many directions)
    b = np.random.default_rng(args.seed).standard_normal(n)
    value = gamma(gs, b / np.linalg.norm(b)).value
    payload = {
        "provenance": _provenance(args),
        "constants": dc.row(),
        "gamma": {"directions": 1, "mean": value, "spread": 0.0},
    }
    _emit(_dump(payload), args.out)
    return 0


def cmd_beta_table(args) -> int:
    max_N = args.max_N
    if max_N < 6:
        raise ValueError("--max-N must be at least 6")
    cache = _cache_dir(args)
    rows = [_constants(n, m, cache)[2] for n, m in table_pairs(max_N)]
    _emit(table_csv(rows, provenance=_flat_provenance(args, max_N=max_N)), args.out)
    return 0


def _warped_model(args, n: int):
    """The WarpedSphere of the samples (t, f) in the csv file --profile."""
    if not args.profile:
        raise ValueError("warped model needs --profile <csv>")
    data = np.loadtxt(args.profile, delimiter=",", comments="#")
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError("warp profile csv needs two columns: t, f")
    return WarpedSphere(n, t=data[:, 0], f_vals=data[:, 1])


def cmd_phi_scan(args) -> int:
    if args.n is None or args.m is None:
        raise ValueError("phi-scan needs --n and --m")
    n, m = args.n, args.m
    model = RoundSphere(n, 1.0) if args.model == "sphere" else _warped_model(args, n)
    dc = _constants(n, m, _cache_dir(args))[2]
    warning = None
    try:
        scan = scan_phi(model, dc)
    except NoInteriorCritical as e:
        warning = f"NoInteriorCritical: {e}"
        scan = e.scan

    lines = []
    prov = _flat_provenance(args, resolution=len(scan.t), model=type(model).__name__)
    for key in sorted(prov):
        lines.append(f"# {key}: {prov[key]}")
    lines.append("t,s,lap_s,ric2,riem2,phi")
    for t, pv in zip(scan.t, scan.phi):
        cp = model.curvature_at(t)
        cells = (t, cp.s, cp.lap_s, cp.ric2, cp.riem2, pv)
        lines.append(",".join(repr(float(c)) for c in cells))
    csv_text = "\n".join(lines) + "\n"

    points = {
        "provenance": _provenance(args, resolution=len(scan.t)),
        "model": type(model).__name__,
        "warning": warning,
        "points": [
            {"t": c.t, "phi": c.phi, "kind": c.kind} for c in scan.points
        ],
    }
    if args.out:
        _emit(csv_text, args.out)
        stem = Path(args.out)
        _emit(_dump(points), stem.with_suffix(".points.json"))
    else:
        sys.stdout.write(csv_text)
        sys.stdout.write(_dump(points))
    return 0


def _default_centers(model, K: int):
    if isinstance(model, FlatSpace):
        if K != 1:
            raise ValueError("flat runs support K=1 only")
        return [np.zeros(model.n)]
    base = 0.8
    if K == 1:
        return [model.point(base)]
    return [model.point(base), model.point(base + 0.6)]


def cmd_energy_check(args) -> int:
    """K-peak energy report; one single-peak ladder at the first centre gives
    its residual_slopes, for K = 2 too, and for K = 1 its rungs and fit."""
    if args.n is None or args.m is None:
        raise ValueError("energy-check needs --n and --m")
    n, m, K = args.n, args.m, args.K
    if K not in (1, 2):
        raise ValueError("--K must be 1 or 2")
    eps_ladder = tuple(float(e) for e in args.eps.split(","))
    if not eps_ladder or not all(0.0 < e < np.inf for e in eps_ladder):
        raise ValueError("--eps needs positive finite comma-separated values")
    model = RoundSphere(n, 1.0) if args.model == "sphere" else FlatSpace(n)
    gs, cp, dc = _constants(n, m, _cache_dir(args))
    centers = _default_centers(model, K)
    gamma_value = None
    if K >= 2:
        e1 = np.zeros(n)
        e1[0] = 1.0
        gamma_value = gamma(gs, e1).value

    ladder = one_peak_ladder(model, gs, cp, dc, centers[0], eps_ladder=eps_ladder)
    per_eps = []
    rem_abs = []
    for eps, (W, Y) in zip(eps_ladder, ladder):
        config = PeakConfig(epsilon=eps, centers=list(centers), cutoff_r=1.2)
        ok, margin = admissible(model, config, gs, rho=args.rho)
        if K >= 2:
            W = build_W(model, config, gs, c_bold=dc.c_bold)
            Y = build_Y(model, config, gs, profiles=cp, dc=dc)
        bd = expansion_compare(Y, dc, gamma_value=gamma_value)
        rem_abs.append(abs(bd.remainder))
        per_eps.append(
            {
                "epsilon": eps,
                "admissible": bool(ok),
                "margin": margin,
                "breakdown": asdict(bd),
                "residual_W": residual_norm(model, W),
                "residual_Y": residual_norm(model, Y),
                "remainder_over_eps4": bd.remainder / eps ** 4,
            }
        )

    slopes = residual_slopes(ladder)
    notes = []
    try:
        rem_slope, rem_r2 = loglog_slope(eps_ladder, rem_abs)
    except LadderTooShort:
        rem_slope = rem_r2 = None
        notes.append("slopes skipped: needs >= 2 distinct epsilon values")
    payload = {
        "provenance": _provenance(args, eps_ladder=list(eps_ladder)),
        "model": type(model).__name__,
        "n": n,
        "m": m,
        "K": K,
        "per_eps": per_eps,
        "residual_slopes": slopes,
        "remainder_slope": rem_slope,
        "remainder_r2": rem_r2,
    }
    if K == 1:
        try:
            fit = energy_coefficient_fit(ladder, dc.alpha)
        except LadderTooShort:
            notes.append("coefficient fit skipped: needs >= 4 distinct epsilon values")
        else:
            s_val = model.curvature_at(centers[0]).s
            payload["coefficient_fit"] = fit
            payload["predicted"] = {
                "eps2_coeff": 0.5 * dc.beta * s_val,
                "eps4_phi": phi(model.curvature_at(centers[0]), dc),
            }
    if notes:
        payload["note"] = "; ".join(notes)
    _emit(_dump(payload), args.out)
    return 0


# ------------------------------------------------------------- dispatcher


def _dimension(text: str) -> int:
    """--n or --m: the paper's product needs both factors of dimension >= 3."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 3:
        raise argparse.ArgumentTypeError(f"must be at least 3, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="multipeak",
        description="ground states, curvature corrections, and peak energetics",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, dims=True):
        # no abbreviations: a flag or config key is a whole flag name
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        sp.set_defaults(func=func)
        if dims:
            sp.add_argument("--n", type=_dimension)
            sp.add_argument("--m", type=_dimension)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out")
        sp.add_argument("--cache-dir")
        sp.add_argument("--config")
        return sp

    sp = command("ground-state", cmd_ground_state, "solve and serialize one ground state")
    sp.add_argument("--p", type=float)

    sp = command("psi", cmd_psi, "second-order correction profiles")
    sp.add_argument("--p", type=float)

    command("constants", cmd_constants, "dimensional constants for one (n, m)")

    sp = command("beta-table", cmd_beta_table, "constants table over n+m <= max-N", dims=False)
    sp.add_argument("--max-N", type=int, default=9)

    sp = command("phi-scan", cmd_phi_scan, "concentration functional along a model")
    sp.add_argument("--model", default="sphere", choices=("sphere", "warped"))
    sp.add_argument("--profile", help="warp profile csv (t, f)")

    sp = command("energy-check", cmd_energy_check, "energy expansion and residual report")
    sp.add_argument("--model", default="sphere", choices=("sphere", "flat"))
    sp.add_argument("--eps", default=_DEF_EPS)
    sp.add_argument("--K", type=int, default=1)
    sp.add_argument("--rho", type=float, help="placement radius for the admissibility check")
    return ap


def _config_flags(path: str) -> list:
    """The lines `key = value` of a config file as flags `--key=value`."""
    flags = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        k, v = line.split("=", 1)
        flags.append(f"--{k.strip().replace('_', '-')}={v.strip()}")
    return flags


def parse_args(argv=None) -> argparse.Namespace:
    """The namespace of argv.  Given --config, argv is parsed again with the
    file's flags between the subcommand (argv[0]) and the command line's own.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.config:
        args = ap.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except Exception as e:  # noqa: BLE001 - every failure becomes one json object
        sys.stdout.write(_dump({"error": type(e).__name__, "detail": str(e)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
