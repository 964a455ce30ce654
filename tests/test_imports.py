"""The package's exports, and which scipy modules a command loads.

scipy is imported inside the functions that use it, so importing the
package loads none of it and each command loads only what its path
calls.  Each such case runs in its own interpreter, since a module once
imported stays in ``sys.modules``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellchain

SRC = str(Path(bellchain.__file__).resolve().parent.parent)

# Prints the sorted scipy modules loaded after running the code before it.
REPORT = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"


def test_all_names_exactly_what_the_package_imports():
    # a name deleted from a module must not linger in __all__, nor an import stay unexported
    tree = ast.parse(Path(bellchain.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(set(bellchain.__all__)) == len(bellchain.__all__)
    assert len(set(imported)) == len(imported)
    assert set(bellchain.__all__) == set(imported)
    for name in bellchain.__all__:
        assert hasattr(bellchain, name)


def scipy_modules(code: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("BELLCHAIN_OUT_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{REPORT}"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def after_cli_run(argv: list[str], out: Path) -> set[str]:
    code = f"from bellchain import cli\nassert cli.run({[*argv, '--out', str(out)]!r}) == 0"
    return scipy_modules(code)


@pytest.mark.parametrize("module", ["bellchain", "bellchain.cli"])
def test_importing_the_package_loads_no_scipy(module):
    assert scipy_modules(f"import {module}") == set()


@pytest.mark.parametrize(
    "argv", [["couplings", "--n", "9"], ["feasibility", "--mu", "1", "--gmax", "1.125"]]
)
def test_commands_without_numerics_load_no_scipy(tmp_path, argv):
    assert after_cli_run(argv, tmp_path / "out.json") == set()


def test_teleport_loads_no_scipy(tmp_path):
    # every engineered readout at t0 takes the recurrence, even the 3-site one with K = 7N;
    # CHEBYSHEV_READOUTS below runs longer chains
    assert after_cli_run(["teleport", "--n", "3"], tmp_path / "out.json") == set()


def test_dense_path_loads_no_special_functions(tmp_path):
    # the series length that sends a short chain to the eigensolve needs no Bessel function
    loaded = after_cli_run(["evolve", "--n", "9", "--t-grid", "1000:1000:1"], tmp_path / "out")  # K = 2612 >= 8N
    assert "scipy.linalg" in loaded
    assert "scipy.special" not in loaded


CHEBYSHEV_READOUTS = [
    ["teleport", "--n", "1001"],
    ["evolve", "--n", "401", "--t-grid", "0:1:0.5"],
    ["teleport", "--n", "9"],
    ["evolve", "--n", "9", "--t-grid", "3.0:3.3:0.005"],
    # every sweep row at t0 takes the block recurrence, summed without BLAS
    ["perturb", "--n", "9", "--swap", "3", "4"],
    ["perturb", "--n", "9", "--sigma", "0.01", "--trials", "20"],
    ["perturb", "--n", "9", "--adjacent"],
    ["perturb", "--n", "4001", "--swap", "5", "6"],
    ["perturb", "--n", "4001", "--sigma", "0.01", "--trials", "2"],
]


@pytest.mark.parametrize("argv", CHEBYSHEV_READOUTS)
def test_chebyshev_readouts_load_no_scipy(tmp_path, argv):
    assert after_cli_run(argv, tmp_path / "out") == set()


@pytest.mark.parametrize("argv", CHEBYSHEV_READOUTS)
def test_chebyshev_readouts_run_without_scipy(tmp_path, argv):
    # a None entry in sys.modules makes every import of scipy fail
    out = tmp_path / "out"
    code = f"import sys\nsys.modules['scipy'] = None\nfrom bellchain import cli\nassert cli.run({[*argv, '--out', str(out)]!r}) == 0"
    assert scipy_modules(code) == {"scipy"}  # the None entry itself
    assert out.stat().st_size > 0


def test_search_loads_linalg_but_not_optimize(tmp_path):
    # Nelder-Mead and the bounded Brent refinement are ports; only the eigensolves need scipy
    loaded = after_cli_run(["search", "--n", "5", "--restarts", "1"], tmp_path / "out.json")
    assert "scipy.linalg" in loaded
    assert not {m for m in loaded if m.startswith(("scipy.optimize", "scipy.sparse", "scipy.special"))}


SEARCH_SCRIPT = str(Path(SRC).parent / "scripts" / "coupling_search.py")

SEARCH_RUNS = {
    "cli": "from bellchain import cli\nassert cli.run(['search', '--n', '5', '--restarts', '1', '--out', {out!r}]) == 0",
    "script": (
        "import runpy, sys\nsys.argv = [{script!r}, '--restarts', '1', '--out', {out!r}]\n"
        "runpy.run_path({script!r}, run_name='__main__')"
    ),
}


@pytest.mark.parametrize("run", sorted(SEARCH_RUNS))
def test_search_writes_the_same_bytes_when_optimize_cannot_load(tmp_path, run):
    # a None entry in sys.modules makes every import of scipy.optimize fail
    payloads = []
    for block in ("", "import sys\nsys.modules['scipy.optimize'] = None\n"):
        out = tmp_path / f"{len(payloads)}.json"
        scipy_modules(block + SEARCH_RUNS[run].format(out=str(out), script=SEARCH_SCRIPT))
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
    assert json.loads(payloads[0])["problem"]["n_sites"] == 5
