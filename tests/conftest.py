import os
import threading
from functools import cache
from pathlib import Path

import pytest

from multipeak.constants import compute_constants, product_exponent
from multipeak.correction import correction_profiles
from multipeak.groundstate import solve_ground_state

SRC = str(Path(__file__).resolve().parent.parent / "src")

GS_COLD = [(3, 3), (4, 3), (6, 3), (3, 6)]  # the benchmark's cold-solve pairs


def checkout_env() -> dict:
    """Environment for a `python -m multipeak.cli` child process that imports
    this checkout's `src`, whatever the parent's PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves more threads alive than it started with."""
    before = threading.active_count()
    yield
    left = threading.active_count() - before
    if left > 0:
        pytest.fail(f"{left} thread(s) left running: {threading.enumerate()}")


@pytest.fixture(scope="module")
def corrections():
    """correction_profiles of the (n, p) ground state, once per test module."""

    @cache
    def build(n: int, p: float):
        return correction_profiles(solve_ground_state(n, p))

    return build


@pytest.fixture(scope="module")
def dimensional_constants(corrections):
    """compute_constants for the pair (n, m), once per test module."""

    @cache
    def build(n: int, m: int):
        p = product_exponent(n, m)
        return compute_constants(solve_ground_state(n, p), corrections(n, p), m)

    return build


def pytest_terminal_summary(terminalreporter):
    # misses: one per distinct (n, p), rejected exponents included (not kept)
    terminalreporter.write_line(
        f"solve_ground_state memo: {solve_ground_state.cache_info()}"
    )
