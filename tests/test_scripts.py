"""Smoke runs of the experiment scripts at tiny sizes."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_bell_formation(tmp_path, capsys):
    script = load_script("bell_formation")
    out = tmp_path / "formation.csv"
    script.main(script.Config(n_min=3, n_max=7, out=out))
    header, rows = read_csv(out)
    assert header == ["n_sites", "prob_first", "prob_last", "concurrence", "residual_norm"]
    assert [r[0] for r in rows] == ["3", "5", "7"]
    assert all(float(r[3]) == pytest.approx(1.0, abs=1e-10) for r in rows)
    assert "3 lengths" in capsys.readouterr().out


def test_noise_robustness(tmp_path, capsys):
    script = load_script("noise_robustness")
    out = tmp_path / "noise.csv"
    script.main(script.Config(n_sites=5, sigmas=(1e-3, 1e-2), trials=3, out=out))
    header, rows = read_csv(out)
    assert header == ["sigma", "mean_concurrence", "min_concurrence", "mean_expected_fidelity"]
    assert [float(r[0]) for r in rows] == [1e-3, 1e-2]
    assert all(0.0 < float(r[2]) <= float(r[1]) <= 1.0 for r in rows)
    capsys.readouterr()


def test_coupling_search(tmp_path, capsys):
    script = load_script("coupling_search")
    out = tmp_path / "search.json"
    script.main(script.Config(n_sites=5, restarts=1, out=out))
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert list(payload) == [
        "problem", "seed", "profile", "best_time", "objective", "iterations", "converged",
    ]
    assert payload["problem"]["n_sites"] == 5
    assert len(payload["profile"]["couplings"]) == 4
    assert "wrote" in capsys.readouterr().out
