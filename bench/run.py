"""The multipeak benchmark: three workloads, output checks, layer tracing.

    python3 bench/run.py --workload {gs-cold,two-peak,cli-warm} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the checkout is the directory above this file, and
multipeak is imported from its `src/`.  Every measured pass starts a fresh
interpreter, so the library's in-process memos start empty, and BLAS threads
are capped at the number of usable cores.  Passes repeat while one more
fits in `--seconds` (at least one pass).  Each timed step counts at its
median over the passes (see `end_to_end`).  Scratch files (ground-state
caches, CLI outputs) live under `.bench_out/` in the checkout and are
removed at the end; the full record of a run, and for traced runs the
spans, are kept there.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones (wall_s, setup_s, slowest_op_s, peak_rss_mb); with `--trace 1` they are
the per-layer ones, from passes whose public multipeak functions are wrapped
by `tracer.py`.  An operation fails when it raises, exits nonzero or fails a
check against `reference.json`; failures are counted in `failed`.

Workloads (see README.md):
  gs-cold   cold ground-state solves, identities, profiles, constants, gamma
  two-peak  K = 2 energy, norm and residuals on the round 3-sphere
  cli-warm  a seven-command CLI session against a cache warmed in set-up
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import GS_COLD_PAIRS, TWO_PEAK_LADDER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"

WORKLOADS = ("gs-cold", "two-peak", "cli-warm")
# a run must end within 180 s: no pass starts after START_DEADLINE_S, and a
# child still running at CHILD_DEADLINE_S is killed
START_DEADLINE_S = 100.0
CHILD_DEADLINE_S = 170.0

# output gates; values that depend on the correction V are reported as drift only
REL_TOL_CONSTANTS = 1e-10  # u0, alpha, beta per pair
REL_TOL_GAMMA = 1e-8  # gamma mean against reference, and spread over directions
MAX_IDENTITY_DEFECT = 1e-6  # criterion 01/02 identity defects
REL_TOL_RESIDUAL_W = 1e-8  # K = 2 residual of the plain ansatz per eps

CLI_EPS_LADDER = "0.1,0.085,0.07,0.055,0.045,0.035"  # energy.COEFF_LADDER

END_TO_END = {"wall_s": "s", "setup_s": "s", "slowest_op_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, source, key); source is a span summary field
# ("incl" outermost inclusive seconds, "self" self seconds, "calls" span
# count), a tracer count ("count"), or measured by this script ("bench")
CLI_COMMANDS = ("ground-state", "psi", "constants", "beta-table", "phi-scan", "energy-check")
PER_LAYER = {
    "groundstate.solve_s": ("s", "self", "groundstate.solve"),
    "groundstate.bracket_s": ("s", "incl", "groundstate.bracket"),
    "groundstate.bracket_ivp_calls": ("count", "count", "groundstate.bracket_ivp_calls"),
    "groundstate.ivp_calls": ("count", "count", "groundstate.ivp_calls"),
    "groundstate.rhs_evals": ("count", "count", "groundstate.rhs_evals"),
    "groundstate.identity_s": ("s", "incl", "groundstate.identity"),
    "energy.J_k2_s": ("s", "incl", "energy.J_k2"),
    "energy.norm_k2_s": ("s", "incl", "energy.norm_k2"),
    "energy.residual_k2_s": ("s", "incl", "energy.residual_k2"),
    "energy.J_k1_s": ("s", "incl", "energy.J_k1"),
    "energy.residual_k1_s": ("s", "incl", "energy.residual_k1"),
    "energy.fit_s": ("s", "incl", "energy.fit"),
    "energy.slopes_s": ("s", "incl", "energy.slopes"),
    "radial.eval_calls": ("count", "count", "radial.eval_calls"),
    "radial.eval_points": ("count", "count", "radial.eval_points"),
    "radial.eval_s": ("s", "incl", "radial.eval"),
    "correction.profiles_s": ("s", "incl", "correction.profiles"),
    "correction.identities_s": ("s", "incl", "correction.identities"),
    "constants.compute_s": ("s", "incl", "constants.compute"),
    "constants.gamma_s": ("s", "incl", "constants.gamma"),
    "constants.gamma_calls": ("count", "calls", "constants.gamma"),
    "constants.beta_table_s": ("s", "incl", "constants.beta_table"),
    "geometry.scan_phi_s": ("s", "incl", "geometry.scan_phi"),
    "cli.interp_s": ("s", "bench", None),
    "cli.import_s": ("s", "bench", None),
    "cli.cache_load_s": ("s", "incl", "cli.cache_load"),
    "cli.cache_hits": ("count", "calls", "cli.cache_load"),
    "cli.cache_store_s": ("s", "incl", "cli.cache_store"),
    "cli.cache_misses": ("count", "calls", "cli.cache_store"),
    **{f"cli.cmd_s.{c}": ("s", "incl", f"cli.cmd.{c}") for c in CLI_COMMANDS},
    "cli.out_bytes": ("bytes", "bench", None),
    "bench.traced_wall_s": ("s", "bench", None),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ------------------------------------------------------------------ helpers


def rel_err(value, ref) -> float:
    return abs(value - ref) / abs(ref)


def measure(run, one_pass) -> list:
    """Repeat passes while another one of average length still ends within
    --seconds; at least one."""
    records = []
    started = time.monotonic()
    while not records or (
        (time.monotonic() - started) * (len(records) + 1) / len(records)
        <= run.seconds
        and time.monotonic() - run.t0 < START_DEADLINE_S
    ):
        rec = one_pass(len(records))
        if rec is None:
            break
        records.append(rec)
    return records


def end_to_end(records) -> dict:
    """End-to-end metrics from the passes, each step at its median.

    A step is one library call or one CLI process.  The host's speed swings
    by up to 2x from one step to the next; over a run's passes the median of
    a step moves far less than its fastest pass does.  wall_s sums the step
    medians, slowest_op_s is the largest operation so summed, setup_s and
    peak_rss_mb are medians over the passes.
    """
    times = {}
    for rec in records:
        for op, steps in rec["steps"].items():
            for step, secs in steps.items():
                times.setdefault((op, step), []).append(secs)
    per_op = {}
    for (op, _), secs in times.items():
        per_op[op] = per_op.get(op, 0.0) + statistics.median(secs)
    return {
        "wall_s": sum(per_op.values()),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "slowest_op_s": max(per_op.values()),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }


class Run:
    """State of one benchmark invocation: scratch dir, child environment, ops."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.t0 = time.monotonic()
        self.reference = json.loads((BENCH / "reference.json").read_text())
        OUT.mkdir(exist_ok=True)
        self.tmp = OUT / f"tmp-{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir()
        self.cache = self.tmp / "cache"
        self.nproc = len(os.sched_getaffinity(0))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(self.nproc)
        env["MULTIPEAK_CACHE_DIR"] = str(self.cache)
        self.env = env
        self.attempted = 0
        self.failures = []
        self.drift = {}

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def op(self, name: str, errors) -> None:
        """Count one operation; errors is a list of failed-check messages."""
        self.attempted += 1
        if errors:
            self.failures.append({"op": name, "errors": errors})

    def note_drift(self, key: str, value: float, ref: float) -> None:
        self.drift.setdefault(key, []).append(rel_err(value, ref))

    def child(self, argv, tag: str) -> dict:
        """Run a child python; returns rc, wall seconds, peak RSS and output."""
        out_path, err_path = self.tmp / f"{tag}.out", self.tmp / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=self.env, cwd=self.tmp)
            # kill a child that would keep the run past its deadline
            watchdog = threading.Timer(self.t0 + CHILD_DEADLINE_S - start, proc.kill)
            watchdog.start()
            try:
                # wait4, not Popen.wait: it also returns the child's peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "rc": proc.returncode,
            "start": start,
            "wall": wall,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out_path.read_bytes(),
            "stderr": err_path.read_text(errors="replace")[-2000:],
        }

    def interp_s(self) -> float:
        """Bare interpreter start, median of three."""
        return statistics.median(self.child(["-c", "pass"], "interp")["wall"] for _ in range(3))


SUMMARY_FIELD = {"incl": "incl_s", "self": "self_s", "calls": "calls"}


def layer_metrics(summaries) -> dict:
    """Sum the span summaries of one pass into the span-derived layer metrics."""
    out = {}
    for name, (_, source, key) in PER_LAYER.items():
        if source == "count":
            out[name] = sum(s["counts"].get(key, 0) for s in summaries)
        elif source != "bench":
            field = SUMMARY_FIELD[source]
            out[name] = sum(s["spans"].get(key, {}).get(field, 0) for s in summaries)
    return out


# ---------------------------------------------------------------- workloads


def check_pair(run: Run, key: str, vals: dict) -> list:
    ref = run.reference["pairs"][key]
    errors = []
    for k in ("u0", "alpha", "beta"):
        if k in vals and rel_err(vals[k], ref[k]) > REL_TOL_CONSTANTS:
            errors.append(f"{k}={vals[k]!r} vs reference {ref[k]!r}")
    for k in ("e_energy", "e_pohozaev", "e_alpha"):
        if k in vals and not vals[k] < MAX_IDENTITY_DEFECT:
            errors.append(f"identity defect {k}={vals[k]:.3e}")
    gammas = vals.get("gamma")
    if gammas is not None:
        gammas = gammas if isinstance(gammas, list) else [gammas]
        mean = statistics.fmean(gammas)
        if (max(gammas) - min(gammas)) / abs(mean) > REL_TOL_GAMMA:
            errors.append(f"gamma not direction-invariant: {gammas}")
        if rel_err(mean, ref["gamma"]) > REL_TOL_GAMMA:
            errors.append(f"gamma={mean!r} vs reference {ref['gamma']!r}")
    for k in [f"c{i}" for i in range(1, 10)]:
        if k in vals:
            run.note_drift(f"{key}.{k}", vals[k], ref[k])
    return errors


def worker_pass(run: Run, mode: str, index: int, n_ops: int):
    """Run one gs-cold/two-peak pass; returns (child info, result) or None.
    A pass that dies counts all its n_ops operations as failed."""
    cfg_path = run.tmp / f"pass{index}.cfg.json"
    res_path = run.tmp / f"pass{index}.result.json"
    cfg_path.write_text(json.dumps({
        "seed": run.seed, "trace": run.trace, "cache_dir": str(run.tmp / f"pass{index}-cache"),
    }))
    info = run.child([str(WORKER), mode, str(cfg_path), str(res_path)], f"pass{index}")
    if info["rc"] != 0 or not res_path.exists():
        for i in range(n_ops):
            run.op(f"pass{index}.op{i}", [f"worker exit {info['rc']}: {info['stderr']}"])
        return None
    return info, json.loads(res_path.read_text())


def pass_record(run: Run, info, result) -> dict:
    rec = {
        "setup_s": result["setup_end"] - info["start"],
        "steps": {op["name"]: op["steps"] for op in result["ops"]},
        "peak_rss_mb": info["rss_mb"],
    }
    if run.trace:
        rec["layers"] = {**layer_metrics([result["trace"]]),
                         "cli.import_s": result["import_s"], "cli.out_bytes": 0}
        rec["spans"] = result["spans"]
    return rec


def gs_cold_pass(run: Run, index: int):
    got = worker_pass(run, "gs-cold", index, n_ops=len(GS_COLD_PAIRS))
    if got is None:
        return None
    info, result = got
    for op in result["ops"]:
        errors = [op["error"]] if op["error"] else check_pair(run, op["name"], op["values"])
        run.op(f"pass{index}.{op['name']}", errors)
    return pass_record(run, info, result)


def two_peak_pass(run: Run, index: int):
    got = worker_pass(run, "two-peak", index, n_ops=1 + len(TWO_PEAK_LADDER))
    if got is None:
        return None
    info, result = got
    ref = run.reference["two_peak"]
    run.op(f"pass{index}.setup", check_pair(run, "3,3", result["setup_values"]))
    for op in result["ops"]:
        errors = [op["error"]] if op["error"] else []
        if not errors:
            eps = op["name"].split("=")[1]
            vals = op["values"]
            if rel_err(vals["residual_W"], ref[eps]["residual_W"]) > REL_TOL_RESIDUAL_W:
                errors.append(f"residual_W={vals['residual_W']!r} vs {ref[eps]['residual_W']!r}")
            for k in ("J_Y", "norm_Y", "residual_Y"):
                run.note_drift(f"eps={eps}.{k}", vals[k], ref[eps][k])
        run.op(f"pass{index}.{op['name']}", errors)
    return pass_record(run, info, result)


def cli_commands(seed: int, profile: Path) -> list:
    nm = ["--n", "3", "--m", "3"]
    return [
        ["ground-state", *nm],
        ["psi", *nm],
        ["constants", *nm, "--seed", str(seed)],
        ["beta-table", "--max-N", "7"],
        ["phi-scan", *nm, "--model", "sphere"],
        ["phi-scan", *nm, "--model", "warped", "--profile", str(profile)],
        ["energy-check", *nm, "--K", "1", "--eps", CLI_EPS_LADDER],
    ]


def write_warp_profile(path: Path) -> None:
    """f(t) = sin t (1 + 0.05 sin^2 t) on [0, pi], 161 samples, as t,f csv."""
    lines = []
    for i in range(161):
        t = math.pi * i / 160
        s = math.sin(t)
        lines.append(f"{t!r},{s * (1.0 + 0.05 * s * s)!r}")
    path.write_text("\n".join(lines) + "\n")


def check_cold_outputs(run: Run, name: str, stdout: bytes) -> list:
    """Content checks on the cold set-up output of one command."""
    ref = run.reference
    if name == "ground-state":
        doc = json.loads(stdout)
        rep = doc["identity_report"]
        return check_pair(run, "3,3", {"u0": doc["record"]["u0"], **{
            k: rep[k] for k in ("e_energy", "e_pohozaev", "e_alpha")}})
    if name == "constants":
        doc = json.loads(stdout)
        errors = check_pair(run, "3,3", {**doc["constants"], "gamma": doc["gamma"]["mean"]})
        if doc["gamma"]["spread"] > REL_TOL_GAMMA:
            errors.append(f"gamma spread {doc['gamma']['spread']:.3e} over directions")
        return errors
    if name == "beta-table":
        lines = [ln for ln in stdout.decode().splitlines() if not ln.startswith("#")]
        header = lines[0].split(",")
        errors = []
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            vals = {k: float(row[k]) for k in ("alpha", "beta")}
            errors += check_pair(run, f"{row['n']},{row['m']}", vals)
        return errors
    if name == "energy-check":
        fit = json.loads(stdout)["coefficient_fit"]
        for k in ("eps2_coeff", "eps4_coeff"):
            run.note_drift(f"energy-check.{k}", fit[k], ref["energy_check_k1"][k])
    return []


def cli_warm(run: Run) -> list:
    profile = run.tmp / "warp.csv"
    write_warp_profile(profile)
    commands = cli_commands(run.seed, profile)
    cache_flag = ["--cache-dir", str(run.cache)]

    # set-up: a cold session warms the cache with the code under test and
    # gives the bytes every warm run must reproduce
    cold, setup_s = [], 0.0
    for i, argv in enumerate(commands):
        info = run.child(["-m", "multipeak.cli", *argv, *cache_flag], f"cold{i}")
        setup_s += info["wall"]
        errors = [f"exit {info['rc']}: {info['stdout'][-500:]!r} {info['stderr']}"] if info["rc"] else []
        if not errors:
            try:
                errors = check_cold_outputs(run, argv[0], info["stdout"])
            except (ValueError, KeyError) as e:
                errors = [f"unreadable output: {e!r}"]
        run.op(f"cold.{' '.join(argv[:1] + argv[-2:])}", errors)
        cold.append(info["stdout"])

    def one_pass(index: int) -> dict:
        infos, summaries, imports = [], [], []
        for i, argv in enumerate(commands):
            tag = f"pass{index}.cmd{i}"
            if run.trace:
                res_path = run.tmp / f"{tag}.trace.json"
                info = run.child([str(WORKER), "cli", str(res_path), *argv, *cache_flag], tag)
                if res_path.exists():
                    traced = json.loads(res_path.read_text())
                    summaries.append(traced["trace"])
                    imports.append(traced["import_s"])
                    info["spans"] = traced["spans"]
            else:
                info = run.child(["-m", "multipeak.cli", *argv, *cache_flag], tag)
            errors = []
            if info["rc"]:
                errors.append(f"exit {info['rc']}: {info['stderr']}")
            elif info["stdout"] != cold[i]:
                errors.append("stdout differs from the cold set-up run")
            run.op(f"{tag}.{argv[0]}", errors)
            infos.append(info)
        rec = {
            "setup_s": setup_s,
            "steps": {f"cmd{i}.{argv[0]}": {"run": info["wall"]}
                      for i, (argv, info) in enumerate(zip(commands, infos))},
            "peak_rss_mb": max(i["rss_mb"] for i in infos),
        }
        if run.trace:
            rec["layers"] = {**layer_metrics(summaries),
                             "cli.import_s": statistics.median(imports) if imports else 0.0,
                             "cli.out_bytes": sum(len(i["stdout"]) for i in infos)}
            rec["spans"] = [i.get("spans", []) for i in infos]
        return rec

    return measure(run, one_pass)


# -------------------------------------------------------------------- main


def machine_record(run: Run) -> dict:
    res = run.tmp / "probe.json"
    info = run.child([str(WORKER), "probe", str(res)], "probe")
    if info["rc"] != 0 or not res.exists():
        raise BenchError(f"cannot import multipeak from {SRC}: {info['stderr']}")
    probe = json.loads(res.read_text())
    if not Path(probe["multipeak_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"multipeak imported from {probe['multipeak_file']}, not {SRC}")
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {**probe, "nproc": run.nproc, "cpu": cpu, "blas_threads": run.nproc}


def run_workload(run: Run) -> dict:
    machine = machine_record(run)
    if run.trace:
        interp = run.interp_s()
    if run.workload == "cli-warm":
        records = cli_warm(run)
    else:
        one_pass = gs_cold_pass if run.workload == "gs-cold" else two_peak_pass
        records = measure(run, lambda index: one_pass(run, index))
    if not records:
        raise BenchError("no pass completed")
    spans = [r.pop("spans", None) for r in records]
    if run.trace:
        # per-layer figures are medians over the passes, as for end_to_end
        layers = {k: statistics.median(r["layers"][k] for r in records)
                  for k in records[0]["layers"]}
        layers["cli.interp_s"] = interp
        layers["bench.traced_wall_s"] = end_to_end(records)["wall_s"]
        metrics = {k: {"value": layers[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    else:
        e2e = end_to_end(records)
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in END_TO_END.items()}
    failed = len(run.failures)
    record = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "trace": run.trace, "machine": machine, "passes": records,
        "attempted": run.attempted, "failed": failed,
        "error_rate": failed / run.attempted, "failures": run.failures,
        "drift": {k: max(v) for k, v in sorted(run.drift.items())},
        "metrics": metrics,
    }
    stem = f"{run.workload}-seed{run.seed}-trace{int(run.trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if run.trace:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans))
        last = OUT / f"{run.workload}-last-untraced.json"
        if last.exists():
            untraced = json.loads(last.read_text())["metrics"]["wall_s"]["value"]
            traced = metrics["bench.traced_wall_s"]["value"]
            print(f"tracing overhead: {traced / untraced - 1.0:+.1%} of wall_s "
                  f"({traced:.3f} s traced vs {untraced:.3f} s untraced)", file=sys.stderr)
    else:
        shutil.copyfile(OUT / f"{stem}.json", OUT / f"{run.workload}-last-untraced.json")
    moved = {k: v for k, v in record["drift"].items() if v > 1e-12}
    print(json.dumps({"machine": machine, "error_rate": record["error_rate"],
                      "failures": run.failures[:5], "drift_above_1e-12": moved}), file=sys.stderr)
    return {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "multipeak" / "__init__.py").is_file():
        print(f"bench: no multipeak sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = run_workload(run)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    finally:
        run.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
