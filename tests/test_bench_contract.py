"""The benchmark's tracer wraps library functions and methods by name.

A traced benchmark pass installs `bench/tracer.py` on this checkout's
`src`, so a name it wraps that the library no longer has would crash every
traced pass.  This installs the tracer the way the benchmark's worker does,
in a child process so the wrappers stay out of the test session, and checks
that its ground-state counters count what the solve's record says it did.
"""

import json
import subprocess
import sys
from pathlib import Path

from conftest import checkout_env

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_on_this_checkout():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import multipeak.cli\n"
        "import tracer\n"
        "tracer.install(tracer.Tracer())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=checkout_env())
    assert proc.returncode == 0, proc.stderr


def test_tracer_counts_every_integration():
    # every shot and matching pass goes through groundstate.solve_ivp, so a
    # traced fresh solve counts the record's shots and passes, the bracket's
    # inside its span
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import multipeak.cli\n"
        "import tracer\n"
        "from multipeak import groundstate\n"
        "t = tracer.Tracer()\n"
        "tracer.install(t)\n"
        "gs = groundstate.solve_ground_state(3, 3.0)\n"
        "print(json.dumps([t.counts['setup'], gs.bracket_shots, gs.certify_shots,\n"
        "                  gs.newton_steps]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    counts, bracket, certify, newton = json.loads(proc.stdout)
    assert counts.get("groundstate.bracket_ivp_calls", 0) == bracket
    assert counts["groundstate.ivp_calls"] == bracket + certify + 2 + 4 * newton
