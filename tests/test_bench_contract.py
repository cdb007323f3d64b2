"""The benchmark's tracer wraps library functions and methods by name.

A traced benchmark pass installs `bench/tracer.py` on this checkout's
`src`, so a name it wraps that the library no longer has would crash every
traced pass.  This installs the tracer the way the benchmark's worker does,
in a child process so the wrappers stay out of the test session.
"""

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
