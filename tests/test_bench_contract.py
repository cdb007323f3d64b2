"""The benchmark's tracer wraps library functions and methods by name.

A traced benchmark pass installs `bench/tracer.py` on this checkout's
`src`, so a name it wraps that the library no longer has would crash every
traced pass.  This installs the tracer the way the benchmark's worker does,
in a child process so the wrappers stay out of the test session, and checks
that its ground-state counters count what the solve's record says it did.
The library's own source contracts are checked on its syntax tree too.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

from conftest import checkout_env

import multipeak
from multipeak import energy

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


def test_worker_and_cli_commands_use_names_this_checkout_has():
    # the worker reads library names and run.cli_commands passes CLI flags; a
    # rename of either fails every benchmark pass, so both are checked here
    code = (
        "import ast, json, sys\n"
        "from pathlib import Path\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import run\n"
        "from multipeak import cli, constants, correction, energy, geometry, groundstate\n"
        "mods = dict(cli=cli, constants=constants, correction=correction, energy=energy,\n"
        "            geometry=geometry, groundstate=groundstate)\n"
        f"tree = ast.parse(Path({str(BENCH / 'worker.py')!r}).read_text())\n"
        "names = sorted({(node.value.id, node.attr) for node in ast.walk(tree)\n"
        "                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)\n"
        "                and node.value.id in mods})\n"
        "missing = [f'{m}.{a}' for m, a in names if not hasattr(mods[m], a)]\n"
        "for argv in run.cli_commands(5, Path('warp.csv')):\n"
        "    cli.parse_args([*argv, '--cache-dir', 'cache'])\n"
        "ladder = run.CLI_EPS_LADDER == ','.join(map(repr, energy.COEFF_LADDER))\n"
        "print(json.dumps([len(names), missing, ladder]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    found, missing, ladder = json.loads(proc.stdout)
    assert found > 0
    assert missing == []
    # the cli-warm energy-check runs the library's coefficient ladder
    assert ladder


def test_energy_names_no_model_class():
    # geometry reaches energy.py only through the model interface: it names
    # no model class, picks nothing by isinstance and holds no sphere formula
    tree = ast.parse(Path(energy.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    banned = {"RoundSphere", "FlatSpace", "WarpedSphere", "isinstance",
              "radius", "arccos", "tan"}
    assert names & banned == set()


def test_every_public_function_has_a_library_caller():
    # a public module-level function in src/multipeak is named somewhere in
    # src/ besides its own definition, or it is exported; code only the
    # tests call lives with the tests
    defined, named = {}, set()
    for path in sorted(Path(multipeak.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    orphans = {name: module for name, module in defined.items()
               if name not in named and name not in multipeak.__all__}
    assert orphans == {}
