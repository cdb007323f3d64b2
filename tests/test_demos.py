"""Every script under demos/ runs to the end against this checkout."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import checkout_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          cwd=tmp_path, env=checkout_env())
    assert proc.returncode == 0, proc.stdout + proc.stderr
