from multipeak.constants import compute_constants, product_exponent
from multipeak.correction import correction_profiles
from multipeak.groundstate import solve_ground_state


def corrections(n: int, p: float):
    return correction_profiles(solve_ground_state(n, p))


def dimensional_constants(n: int, m: int):
    gs = solve_ground_state(n, product_exponent(n, m))
    return compute_constants(gs, correction_profiles(gs), m)


def pytest_terminal_summary(terminalreporter):
    # misses: one per distinct (n, p), rejected exponents included (not kept)
    terminalreporter.write_line(
        f"solve_ground_state memo: {solve_ground_state.cache_info()}"
    )
