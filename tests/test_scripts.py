"""Smoke runs of the experiment scripts at tiny sizes, from Python and from
the command line, and of the README's library example."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bellchain import cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_bell_formation(tmp_path, capsys):
    script = load_script("bell_formation")
    out = tmp_path / "formation.csv"
    script.main(n_min=3, n_max=7, out=out)
    header, rows = read_csv(out)
    assert header == ["n_sites", "prob_first", "prob_last", "concurrence", "residual_norm"]
    assert [r[0] for r in rows] == ["3", "5", "7"]
    assert all(float(r[3]) == pytest.approx(1.0, abs=1e-10) for r in rows)
    assert "3 lengths" in capsys.readouterr().out


def test_noise_robustness(tmp_path, capsys):
    script = load_script("noise_robustness")
    out = tmp_path / "noise.csv"
    script.main(n_sites=5, sigmas=(1e-3, 1e-2), trials=3, out=out)
    header, rows = read_csv(out)
    assert header == ["sigma", "mean_concurrence", "min_concurrence", "mean_expected_fidelity"]
    assert [float(r[0]) for r in rows] == [1e-3, 1e-2]
    assert all(0.0 < float(r[2]) <= float(r[1]) <= 1.0 for r in rows)
    capsys.readouterr()


def test_coupling_search(tmp_path, capsys):
    script = load_script("coupling_search")
    out = tmp_path / "search.json"
    script.main(n_sites=5, restarts=1, out=out)
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert list(payload) == [
        "problem", "seed", "profile", "best_time", "objective", "iterations", "converged",
    ]
    assert payload["problem"]["n_sites"] == 5
    assert len(payload["profile"]["couplings"]) == 4
    assert "wrote" in capsys.readouterr().out


def run_script(script, flags, out):
    src = str(SCRIPTS.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, str(SCRIPTS / f"{script}.py"), *flags, "--out", str(out)]
    return subprocess.run(argv, env=env, capture_output=True, text=True)


VALID_FLAGS = {
    "bell_formation": ["--n-max", "5"],
    "noise_robustness": ["--n-sites", "5", "--trials", "2"],
    "coupling_search": ["--restarts", "1"],
}


@pytest.mark.parametrize(
    "script, valid, bad, message",
    [
        ("bell_formation", VALID_FLAGS["bell_formation"], ["--n-min", "2"], "n_sites must be odd"),
        ("noise_robustness", VALID_FLAGS["noise_robustness"], ["--trials", "0"], "trials must be in"),
        ("coupling_search", VALID_FLAGS["coupling_search"], ["--n-sites", "4"], "n_sites must be odd"),
        ("bell_formation", VALID_FLAGS["bell_formation"], ["--n-min", "9", "--n-max", "5"], "n_min 9 > n_max 5"),
    ],
)
def test_command_line_exits_2_on_one_line_for_bad_input(tmp_path, script, valid, bad, message):
    assert run_script(script, valid, tmp_path / "valid").returncode == 0
    proc = run_script(script, bad, tmp_path / "out")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("script", sorted(VALID_FLAGS))
def test_command_line_exits_3_on_one_line_for_an_unwritable_out(tmp_path, script):
    proc = run_script(script, VALID_FLAGS[script], tmp_path / "missing" / "out")
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ") and "missing" in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_script_and_cli_write_the_same_search_bytes(tmp_path, capsys):
    script_out, cli_out = tmp_path / "script.json", tmp_path / "cli.json"
    load_script("coupling_search").main(n_sites=5, restarts=1, seed=3, out=script_out)
    window = ["--t-min", "0.5", "--t-max", "6.0", "--d-lo", "0.05", "--d-hi", "3.0"]
    argv = ["search", "--n", "5", "--restarts", "1", "--seed", "3", *window, "--out", str(cli_out)]
    assert cli.run(argv) == 0
    assert script_out.read_bytes() == cli_out.read_bytes()
    capsys.readouterr()


def test_readme_library_example(capsys):
    text = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    printed = [float(word) for word in capsys.readouterr().out.split()]
    assert printed == pytest.approx([1.0, 0.0, 1.0], abs=1e-9)
