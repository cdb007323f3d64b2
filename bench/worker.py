"""One measured pass of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py probe <result.json>
    python3 bench/worker.py gs-cold <config.json> <result.json>
    python3 bench/worker.py two-peak <config.json> <result.json>
    python3 bench/worker.py cli <result.json> <multipeak cli arguments...>

`bench/run.py` starts this file; it is not meant to be run by hand.  A pass
imports multipeak (from the PYTHONPATH the parent sets), prepares its inputs
(set-up), runs its operations and writes raw values and step times as JSON.
The parent checks the values.  With "trace": true in the config, or always
in `cli` mode, the public functions are wrapped by `tracer.install` after the
import and the span summary goes into the result.  `cli` mode runs one
multipeak CLI command through `multipeak.cli.main` and leaves the command's
stdout untouched.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

GS_COLD_PAIRS = ((3, 3), (4, 3), (6, 3), (3, 6))
GAMMA_DIRECTIONS = 3
TWO_PEAK_LADDER = (0.035,)
TWO_PEAK_ANGLES = (0.8, 1.4)


def _write(path, payload) -> None:
    Path(path).write_text(json.dumps(payload))


def _start(trace: bool):
    """Import multipeak; returns (import seconds, tracer or None)."""
    t0 = time.perf_counter()
    import multipeak.cli  # noqa: F401 - the import is what is timed

    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    return import_s, tracer


def _unit(rng, n):
    b = rng.standard_normal(n)
    return b / float((b @ b) ** 0.5)


def _op(ops, name, steps) -> None:
    """Run one operation: named steps in order, each timed on its own.

    Each step returns a dict of values; the first step that raises ends the
    operation and its error is recorded.
    """
    rec = {"name": name, "steps": {}, "values": {}, "error": None}
    ops.append(rec)
    for step, fn in steps:
        t = time.monotonic()
        try:
            rec["values"].update(fn())
        except Exception as e:  # noqa: BLE001 - a failed operation is counted, not fatal
            rec["error"] = f"{step}: {type(e).__name__}: {e}"
        rec["steps"][step] = time.monotonic() - t
        if rec["error"]:
            break


def gs_cold(cfg, tracer):
    import numpy as np
    from multipeak import cli, constants, correction, groundstate

    rng = np.random.default_rng(cfg["seed"])
    dirs = {pair: [_unit(rng, pair[0]) for _ in range(GAMMA_DIRECTIONS)] for pair in GS_COLD_PAIRS}
    cache = Path(cfg["cache_dir"])
    cache.mkdir(parents=True)
    setup_end = time.monotonic()
    if tracer:
        tracer.phase = "run"

    def pair_steps(n, m):
        st = {}

        def solve():
            st["gs"] = cli.cached_ground_state(n, constants.product_exponent(n, m), cache)
            return {"u0": st["gs"].u0}

        def identity():
            rep = groundstate.identity_report(st["gs"])
            return {k: rep[k] for k in ("e_energy", "e_pohozaev", "e_alpha")}

        def profiles():
            st["cp"] = correction.correction_profiles(st["gs"])
            return {}

        def compute():
            return constants.compute_constants(st["gs"], st["cp"], m).row()

        def gamma():
            return {"gamma": [constants.gamma(st["gs"], b).value for b in dirs[(n, m)]]}

        return [("solve_store", solve), ("identity", identity), ("profiles", profiles),
                ("constants", compute), ("gamma", gamma)]

    ops = []
    for n, m in GS_COLD_PAIRS:
        _op(ops, f"{n},{m}", pair_steps(n, m))
    return setup_end, ops


def two_peak(cfg, tracer):
    import numpy as np
    from multipeak import constants, correction, energy, geometry, groundstate

    n, m = 3, 3
    gs = groundstate.solve_ground_state(n, constants.product_exponent(n, m))
    cp = correction.correction_profiles(gs)
    dc = constants.compute_constants(gs, cp, m)
    gamma_e1 = constants.gamma(gs, np.eye(n)[0]).value
    model = geometry.RoundSphere(n, 1.0)
    # seeded orthogonal matrix: QR of a Gaussian matrix with the sign fixed
    q, r = np.linalg.qr(np.random.default_rng(cfg["seed"]).standard_normal((n + 1, n + 1)))
    rot = q * np.sign(np.diag(r))
    centers = [rot @ model.point(a) for a in TWO_PEAK_ANGLES]
    setup_values = {"u0": gs.u0, "alpha": dc.alpha, "beta": dc.beta, "gamma": gamma_e1}
    setup_end = time.monotonic()
    if tracer:
        tracer.phase = "run"

    def rung_steps(eps):
        st = {}

        def build():
            def config():
                return energy.PeakConfig(epsilon=eps, centers=[c.copy() for c in centers],
                                         cutoff_r=1.2)

            st["Y"] = energy.build_Y(model, config(), gs, profiles=cp, dc=dc)
            st["W"] = energy.build_W(model, config(), gs, c_bold=dc.c_bold)
            return {}

        return [
            ("build", build),
            ("J_Y", lambda: {"J_Y": energy.energy_J(model, st["Y"])}),
            ("norm_Y", lambda: {"norm_Y": energy.norm_eps(model, st["Y"])}),
            ("residual_W", lambda: {"residual_W": energy.residual_norm(model, st["W"])}),
            ("residual_Y", lambda: {"residual_Y": energy.residual_norm(model, st["Y"])}),
        ]

    ops = []
    for eps in TWO_PEAK_LADDER:
        _op(ops, f"eps={eps}", rung_steps(eps))
    return setup_end, ops, setup_values


def run_pass(mode, cfg_path, result_path) -> int:
    cfg = json.loads(Path(cfg_path).read_text())
    import_s, tracer = _start(cfg["trace"])
    result = {"import_s": import_s}
    if mode == "gs-cold":
        setup_end, ops = gs_cold(cfg, tracer)
    else:
        setup_end, ops, result["setup_values"] = two_peak(cfg, tracer)
    result.update(setup_end=setup_end, ops=ops)
    if tracer:
        result["trace"] = tracer.summary("run")
        result["spans"] = tracer.spans
    _write(result_path, result)
    return 0


def run_cli(result_path, argv) -> int:
    import_s, tracer = _start(True)
    from multipeak import cli

    tracer.phase = "run"
    rc = tracer.call(f"cli.cmd.{argv[0]}", cli.main, argv)
    sys.stdout.flush()
    _write(result_path, {"import_s": import_s, "trace": tracer.summary("run"),
                         "spans": tracer.spans})
    return rc


def probe(result_path) -> int:
    import multipeak
    import numpy
    import scipy

    def blas_version(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    _write(result_path, {
        "multipeak_file": multipeak.__file__,
        "multipeak_version": multipeak.__version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
    })
    return 0


def main(argv) -> int:
    mode = argv[0]
    if mode == "probe":
        return probe(argv[1])
    if mode == "cli":
        return run_cli(argv[1], argv[2:])
    return run_pass(mode, argv[1], argv[2])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
