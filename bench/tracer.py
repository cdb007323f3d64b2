"""In-memory span tracer that wraps multipeak's public functions from outside.

`install(tracer)` rebinds the public names of the library in every
`multipeak` module that holds them, so calls made by the library itself, by
the CLI and by the benchmark all pass through a span.  Nothing under `src/`
is edited.  Spans stay in memory; the caller writes them out at the end.

A span records its id, the id of the span that caused it, its name, start,
end, self time (duration minus the time its child spans cover) and the phase
("setup" or "run") it ran in.  Counts are kept per phase at the same
boundaries.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.spans = []  # [id, parent_id, name, start, end, self_s, outermost, phase]
        self.counts = {"setup": {}, "run": {}}
        self._stack = []  # [id, name, start, child_s]
        self._next_id = 0

    def count(self, name: str, k=1) -> None:
        bucket = self.counts[self.phase]
        bucket[name] = bucket.get(name, 0) + k

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def call(self, name: str, fn, *args, **kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        # an inner span of the same name is already covered by the outer one
        outermost = not self.inside(name)
        frame = [span_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[2]
            if self._stack:
                self._stack[-1][3] += duration
            self.spans.append(
                [span_id, parent, name, frame[2], end, duration - frame[3], outermost, self.phase]
            )

    def summary(self, phase: str = "run") -> dict:
        """Per span name: outermost inclusive seconds, self seconds, span count."""
        out = {}
        for _, _, name, start, end, self_s, outermost, ph in self.spans:
            if ph != phase:
                continue
            rec = out.setdefault(name, {"incl_s": 0.0, "self_s": 0.0, "calls": 0})
            if outermost:
                rec["incl_s"] += end - start
            rec["self_s"] += self_s
            rec["calls"] += 1
        return {"spans": out, "counts": dict(self.counts[phase])}


def _rebind(orig, new) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "multipeak" or mod_name.startswith("multipeak.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


def _spanned_by_peaks(tracer: Tracer, base: str, fn):
    """Span named <base>_k1 or <base>_k2 after the ansatz's peak count."""

    @functools.wraps(fn)
    def wrapper(model, ansatz, *args, **kwargs):
        k = 2 if ansatz is not None and ansatz.K >= 2 else 1
        return tracer.call(f"{base}_k{k}", fn, model, ansatz, *args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported multipeak."""
    from multipeak import cli, constants, correction, energy, geometry, groundstate, radial

    plain = [
        (groundstate, "solve_ground_state", "groundstate.solve"),
        (groundstate, "bracket_amplitude", "groundstate.bracket"),
        (groundstate, "identity_report", "groundstate.identity"),
        (correction, "correction_profiles", "correction.profiles"),
        (correction, "verify_L0_identities", "correction.identities"),
        (constants, "compute_constants", "constants.compute"),
        (constants, "gamma", "constants.gamma"),
        (constants, "beta_table", "constants.beta_table"),
        # the CLI enumerates the table's pairs itself instead of calling beta_table
        (cli, "cmd_beta_table", "constants.beta_table"),
        (geometry, "scan_phi", "geometry.scan_phi"),
        (energy, "energy_coefficient_fit", "energy.fit"),
        (energy, "residual_slopes", "energy.slopes"),
    ]
    for mod, attr, span in plain:
        orig = getattr(mod, attr)
        _rebind(orig, _spanned(tracer, span, orig))
    for attr, base in (("energy_J", "energy.J"), ("norm_eps", "energy.norm"),
                       ("residual_norm", "energy.residual")):
        orig = getattr(energy, attr)
        _rebind(orig, _spanned_by_peaks(tracer, base, orig))

    # counts only: every ODE integration the ground-state solver makes
    solve_ivp = groundstate.solve_ivp

    @functools.wraps(solve_ivp)
    def counted_solve_ivp(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        tracer.count("groundstate.ivp_calls")
        tracer.count("groundstate.rhs_evals", int(sol.nfev))
        if tracer.inside("groundstate.bracket"):
            tracer.count("groundstate.bracket_ivp_calls")
        return sol

    groundstate.solve_ivp = counted_solve_ivp

    rf = radial.RadialFunction
    for meth in ("__call__", "deriv1", "deriv2"):
        orig = getattr(rf, meth)

        def evaluated(self, r, _orig=orig):
            tracer.count("radial.eval_calls")
            tracer.count("radial.eval_points", int(np.size(r)))
            return tracer.call("radial.eval", _orig, self, r)

        setattr(rf, meth, functools.wraps(orig)(evaluated))

    gs_cls = groundstate.GroundState
    load, save = gs_cls.load, gs_cls.save
    gs_cls.load = staticmethod(_spanned(tracer, "cli.cache_load", load))
    gs_cls.save = _spanned(tracer, "cli.cache_store", save)
