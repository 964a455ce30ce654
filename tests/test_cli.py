"""Command-line interface: payloads, manifests, exit codes, config handling."""

import argparse
import hashlib
import json
import math
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg.lapack

from bellchain import cli, dynamics
from bellchain.chain import CouplingProfile, engineered_couplings, validate_profile
from bellchain.cli import run
from bellchain.dynamics import NumericFailure, eigendecompose
from bellchain.robustness import SweepRow
from bellchain.serialize import json_digest, profile_to_dict, write_json

SQRT_HALF = 1.0 / math.sqrt(2.0)

MANIFEST_KEYS = {
    "command_line",
    "config_digest",
    "master_seed",
    "tool_version",
    "wall_time_s",
}


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def manifest_of(out_path):
    return read_json(out_path.parent / (out_path.name + ".manifest.json"))


class TestCouplings:
    def test_json_payload_and_manifest(self, tmp_path):
        out = tmp_path / "profile.json"
        argv = ["couplings", "--n", "9", "--mu", "2.0", "--out", str(out)]
        assert run(argv) == 0
        payload = read_json(out)
        assert payload["n_sites"] == 9
        assert payload["mu"] == 2.0
        expected = engineered_couplings(9, 2.0).couplings
        assert payload["couplings"] == pytest.approx(list(expected), abs=1e-15)

        manifest = manifest_of(out)
        assert set(manifest) == MANIFEST_KEYS
        assert manifest["command_line"] == argv
        assert manifest["master_seed"] is None
        assert len(manifest["config_digest"]) == 64
        assert set(manifest["config_digest"]) <= set("0123456789abcdef")

    def test_csv_payload(self, tmp_path):
        out = tmp_path / "profile.csv"
        assert run(
            ["couplings", "--n", "9", "--format", "csv", "--out", str(out)]
        ) == 0
        header, rows = read_csv(out)
        assert header == ["index", "coupling"]
        assert [r[0] for r in rows] == [str(i) for i in range(1, 9)]
        expected = engineered_couplings(9, 1.0).couplings
        assert [float(r[1]) for r in rows] == pytest.approx(list(expected))

    def test_even_n_is_an_argument_error(self, tmp_path, capsys):
        code = run(["couplings", "--n", "8", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert capsys.readouterr().err == "error: n_sites must be odd and >= 3, got 8\n"

    def test_missing_directory_is_an_io_error(self, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "x.json"
        assert run(["couplings", "--n", "5", "--out", str(out)]) == 3

    def test_payload_bytes_are_idempotent(self, tmp_path):
        out = tmp_path / "p.json"
        argv = ["couplings", "--n", "21", "--mu", "0.5", "--out", str(out)]
        assert run(argv) == 0
        first_payload = out.read_bytes()
        first_manifest = manifest_of(out)
        assert run(argv) == 0
        assert out.read_bytes() == first_payload
        second_manifest = manifest_of(out)
        for key in MANIFEST_KEYS - {"wall_time_s"}:
            assert second_manifest[key] == first_manifest[key]


class TestEvolve:
    def test_engineered_grid_tracks_closed_form(self, tmp_path):
        out = tmp_path / "amps.csv"
        grid = f"0:{math.pi}:{math.pi / 50}"
        assert run(["evolve", "--n", "9", "--t-grid", grid, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == [
            "t",
            "re_amp",
            "im_amp",
            "prob",
            "analytic_prob",
            "abs_err",
            "analytic_valid",
        ]
        assert len(rows) == 51
        assert all(r[6] == "1" for r in rows)
        assert all(float(r[5]) < 1e-9 for r in rows)
        final = rows[-1]
        assert float(final[0]) == pytest.approx(math.pi, abs=1e-12)
        assert float(final[3]) == pytest.approx(0.5, abs=1e-10)

    def test_non_engineered_profile_blanks_analytic_columns(self, tmp_path):
        profile_path = tmp_path / "uniform.json"
        write_json(
            profile_path,
            {"n_sites": 5, "mu": 1.0, "couplings": [1.0, 1.0, 1.0, 1.0]},
        )
        out = tmp_path / "amps.csv"
        assert run(
            [
                "evolve",
                "--profile",
                str(profile_path),
                "--t-grid",
                "0:1:0.5",
                "--out",
                str(out),
            ]
        ) == 0
        _, rows = read_csv(out)
        assert len(rows) == 3
        for row in rows:
            assert row[4] == "" and row[5] == ""
            assert row[6] == "0"

    @pytest.mark.parametrize(
        "n, mu, couplings",
        [
            # an exact Bell chain with every engineered symmetry but other couplings
            (7, 2.0, [math.sqrt(7), 6.0, math.sqrt(3.5), math.sqrt(3.5), 6.0, math.sqrt(7)]),
            # the engineered couplings of mu = 1, saved with mu = 2
            (9, 2.0, list(engineered_couplings(9, 1.0).couplings)),
            # a mu whose engineered couplings overflow
            (9, 1.7e308, list(engineered_couplings(9, 1.0).couplings)),
        ],
    )
    def test_symmetric_profile_off_the_engineered_couplings_blanks_analytic_columns(
        self, tmp_path, n, mu, couplings
    ):
        assert validate_profile(CouplingProfile(mu, tuple(couplings))) == []
        profile_path = tmp_path / "symmetric.json"
        write_json(profile_path, {"n_sites": n, "mu": mu, "couplings": couplings})
        out = tmp_path / "amps.csv"
        argv = ["evolve", "--profile", str(profile_path), "--t-grid", "0:3.2:0.4", "--out", str(out)]
        assert run(argv) == 0
        _, rows = read_csv(out)
        assert len(rows) == 9
        assert all(row[4:] == ["", "", "0"] for row in rows)

    def test_n_chain_builds_its_engineered_profile_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return engineered_couplings(*args)

        monkeypatch.setattr(cli, "engineered_couplings", counted)
        out = tmp_path / "amps.csv"
        assert run(["evolve", "--n", "9", "--t-grid", "0:3.2:0.4", "--out", str(out)]) == 0
        assert len(calls) == 1
        _, rows = read_csv(out)
        assert all(row[6] == "1" for row in rows)

    def test_engineered_profile_file_is_analytic(self, tmp_path):
        profile_path = tmp_path / "engineered.json"
        write_json(profile_path, profile_to_dict(engineered_couplings(9, 2.0)))
        out = tmp_path / "amps.csv"
        argv = ["evolve", "--profile", str(profile_path), "--t-grid", "0:3.2:0.4", "--out", str(out)]
        assert run(argv) == 0
        _, rows = read_csv(out)
        assert all(row[6] == "1" and float(row[5]) < 1e-12 for row in rows)

    def test_bad_grid_step(self, tmp_path, capsys):
        code = run(
            ["evolve", "--n", "5", "--t-grid", "0:1:0", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "step" in capsys.readouterr().err

    def test_needs_profile_or_n(self, tmp_path):
        assert run(["evolve", "--t-grid", "0:1:1", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("0:inf:1", "finite"),
            ("nan:1:0.1", "finite"),
            ("0:1:nan", "finite"),
            ("0:1e12:1e-3", "points"),
            ("-1e308:1e308:1", "points"),
            (f"0:{cli.MAX_GRID_POINTS}:1", "points"),
        ],
    )
    def test_unusable_grid_is_a_one_line_argument_error(self, tmp_path, capsys, grid, message):
        out = tmp_path / "x.csv"
        assert run(["evolve", "--n", "5", f"--t-grid={grid}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "n, grid, dense",
        [("9", "0:3.2:0.1", True), ("401", "0:6:0.1", True), ("401", "0:1:0.1", False)],
    )
    def test_dense_path_only_when_the_series_needs_n_terms(self, tmp_path, monkeypatch, n, grid, dense):
        calls = []

        def counting(h):
            calls.append(h.dimension)
            return eigendecompose(h)

        monkeypatch.setattr(dynamics, "eigendecompose", counting)
        out = tmp_path / "amps.csv"
        assert run(["evolve", "--n", n, "--t-grid", grid, "--out", str(out)]) == 0
        assert calls == ([int(n)] if dense else [])
        _, rows = read_csv(out)
        assert all(float(r[5]) < 1e-12 for r in rows)

    def test_grid_matches_the_scalar_formula(self):
        assert cli._parse_grid("0.1:0.7:0.05").tolist() == [0.1 + k * 0.05 for k in range(13)]

    def test_grid_at_the_point_cap_is_accepted(self):
        grid = cli._parse_grid(f"0:{cli.MAX_GRID_POINTS - 1}:1")
        assert len(grid) == cli.MAX_GRID_POINTS
        assert grid[-1] == cli.MAX_GRID_POINTS - 1


class TestTeleport:
    def test_chain_resource_is_faithful(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(
            [
                "teleport",
                "--n",
                "5",
                "--a-re",
                str(SQRT_HALF),
                "--b-re",
                str(SQRT_HALF),
                "--out",
                str(out),
            ]
        ) == 0
        payload = read_json(out)
        assert payload["expected_fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert len(payload["records"]) == 4
        for record in payload["records"]:
            assert record["probability"] == pytest.approx(0.25, abs=1e-9)
            assert record["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_resource_file_degrades_fidelity(self, tmp_path):
        resource_path = tmp_path / "resource.json"
        write_json(
            resource_path,
            {
                "alpha01": [math.sqrt(0.8), 0.0],
                "alpha10": [math.sqrt(0.2), 0.0],
            },
        )
        out = tmp_path / "report.json"
        assert run(
            [
                "teleport",
                "--resource",
                str(resource_path),
                "--a-re",
                str(SQRT_HALF),
                "--b-re",
                str(SQRT_HALF),
                "--out",
                str(out),
            ]
        ) == 0
        payload = read_json(out)
        assert payload["expected_fidelity"] == pytest.approx(0.9, abs=1e-12)

    def test_unnormalized_input_is_an_argument_error(self, tmp_path, capsys):
        code = run(
            [
                "teleport",
                "--n",
                "5",
                "--a-re",
                "1.0",
                "--b-re",
                "1.0",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 2
        assert "normalized" in capsys.readouterr().err

    def test_sample_mode_requires_seed(self, tmp_path, capsys):
        code = run(
            [
                "teleport",
                "--n",
                "5",
                "--mode",
                "sample",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_sample_mode_is_byte_reproducible(self, tmp_path):
        out1 = tmp_path / "one.json"
        out2 = tmp_path / "two.json"
        base = [
            "teleport",
            "--n",
            "5",
            "--a-re",
            "0.6",
            "--b-re",
            "0.8",
            "--mode",
            "sample",
            "--seed",
            "42",
        ]
        assert run(base + ["--out", str(out1)]) == 0
        assert run(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = read_json(out1)
        assert len(payload["records"]) == 1
        assert payload["seed"] == 42
        assert manifest_of(out1)["master_seed"] == 42

    def test_sample_report_carries_the_four_branch_expectation(self, tmp_path):
        # the drawn branch (outcome 00 for seed 3) has probability 1/4, so
        # weighing it alone would report 0.25 instead of 1
        base = ["teleport", "--n", "9", "--a-re", "0.6", "--b-re", "0.8"]
        enumerated, sampled = tmp_path / "enumerate.json", tmp_path / "sample.json"
        assert run(base + ["--out", str(enumerated)]) == 0
        assert run(base + ["--mode", "sample", "--seed", "3", "--out", str(sampled)]) == 0
        expectation = read_json(enumerated)["expected_fidelity"]
        assert expectation == pytest.approx(1.0, abs=1e-12)
        assert read_json(sampled)["expected_fidelity"] == expectation
        assert len(read_json(sampled)["records"]) == 1

    @pytest.mark.parametrize(
        "a, b, alphas",
        [
            (0.48 + 0.36j, 0.8j, (math.sqrt(0.3), -1j * math.sqrt(0.7))),
            (1.0 + 0j, 0j, (1.0 + 0j, 0j)),  # outcomes 01 and 11 vanish
        ],
    )
    def test_sample_mode_draws_an_enumerated_record(self, tmp_path, a, b, alphas):
        # parsed canonical JSON round-trips every float, so the records match bit for bit
        resource_path = tmp_path / "resource.json"
        write_json(resource_path, {"alpha01": [alphas[0].real, alphas[0].imag], "alpha10": [alphas[1].real, alphas[1].imag]})
        base = ["teleport", "--resource", str(resource_path)]
        base += [f"--{name}={value!r}" for name, value in (("a-re", a.real), ("a-im", a.imag), ("b-re", b.real), ("b-im", b.imag))]
        out = tmp_path / "enumerate.json"
        assert run(base + ["--out", str(out)]) == 0
        enumerated = read_json(out)
        by_outcome = {r["outcome"]: r for r in enumerated["records"]}
        drawn = set()
        for seed in range(40):
            assert run(base + ["--mode", "sample", "--seed", str(seed), "--out", str(out)]) == 0
            sampled = read_json(out)
            (record,) = sampled["records"]
            assert record == by_outcome[record["outcome"]]
            assert sampled["expected_fidelity"] == enumerated["expected_fidelity"]
            drawn.add(record["outcome"])
        assert drawn == {r["outcome"] for r in enumerated["records"] if r["probability"] > 0}

    def test_needs_resource_or_n(self, tmp_path):
        assert run(["teleport", "--out", str(tmp_path / "x.json")]) == 2


class TestFeasibility:
    def test_reference_numbers(self, tmp_path):
        out = tmp_path / "bound.json"
        assert run(
            ["feasibility", "--mu", "1e4", "--gmax", "7.3e8", "--out", str(out)]
        ) == 0
        payload = read_json(out)
        assert payload["n_max"] == 584000
        assert payload["degenerate"] is False
        assert payload["t0"] == pytest.approx(math.pi / 1e4)

    def test_unrepresentable_bound_is_a_one_line_argument_error(self, tmp_path, capsys):
        out = tmp_path / "bound.json"
        assert run(["feasibility", "--mu", "1e-300", "--gmax", "1e300", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_exact_bound_stays_under_the_ceiling(self, tmp_path):
        out = tmp_path / "bound.json"
        assert run(["feasibility", "--mu", "1", "--gmax", "1.125", "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["n_max"] == 9
        assert payload["n_max_exact"] == 7


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["couplings", "--n", "5", "--mu", "inf"], "mu must be positive and finite"),
            (["evolve", "--profile", "PROFILE", "--t-grid", "0:1:0.5"], "coupling D_2"),
            (["perturb", "--n", "5", "--sigma", "inf"], "sigma must be finite"),
            (["search", "--n", "5", "--restarts", "1", "--d-hi", "inf"], "bounds must be finite"),
            (["search", "--n", "5", "--restarts", "1", "--t-max", "inf"], "t_window must be finite"),
            (["teleport", "--n", "5", "--a-re", "nan"], "input qubit not normalized"),
            (["teleport", "--n", "5", "--mu", "1e-310"], "pi/mu is not finite"),
            (["perturb", "--n", "5", "--mu", "1e-310", "--swap", "1", "2"], "pi/mu is not finite"),
            (["teleport", "--n", "5", "--a-re", "1e200", "--b-re", "1e200"], "input qubit not normalized"),
            (["search", "--n", "5", "--restarts", "1", "--d-hi", "1e308"], "d_hi = 1e+308"),
            (["search", "--n", "5", "--restarts", "1", "--t-min", "0", "--t-max", "1e-9"], "t_window"),
            (["search", "--n", "5", "--restarts", "1", "--t-min", "1e-310", "--t-max", "1e-300"],
             "t_window"),
            (["perturb", "--n", "9", "--sigma", "1e-3", "--trials", "1000000000"],
             "trials must be in 1..1000000"),
            (["search", "--n", "5", "--restarts", "1000000000"], "restarts must be in 1..10000"),
            (["perturb", "--n", "5", "--config", "CONFIG"],
             "config value for adjacent must be a bool, got 'no'"),
        ],
    )
    def test_is_a_one_line_argument_error_without_warnings(self, tmp_path, capsys, argv, message):
        files = {"PROFILE": tmp_path / "profile.json", "CONFIG": tmp_path / "config.json"}
        # Python's json module reads the bare token Infinity
        files["PROFILE"].write_text('{"n_sites":5,"mu":1.0,"couplings":[1.0,Infinity,1.0,1.0]}')
        files["CONFIG"].write_text('{"adjacent": "no"}')
        out = tmp_path / "x.out"
        argv = [str(files[a]) if a in files else a for a in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert err.count("\n") == 1
        assert not out.exists()


class TestProfileAndResourceTypes:
    """--profile and --resource files are typed as strictly as --config: one-line exit 2 otherwise."""

    HUGE = "1" + "0" * 400  # a JSON integer beyond the float range

    @pytest.mark.parametrize(
        "profile, message",
        [
            ('{"n_sites": 1e400, "mu": 1.0, "couplings": [1, 1, 1, 1]}', "n_sites must be a JSON integer, got inf"),
            ('{"n_sites": 9.9, "mu": 1.0, "couplings": [1, 1, 1, 1, 1, 1, 1, 1]}', "n_sites must be a JSON integer"),
            ('{"n_sites": 5.0, "mu": 1.0, "couplings": [1, 1, 1, 1]}', "n_sites must be a JSON integer"),
            ('{"n_sites": true, "mu": 1.0, "couplings": []}', "n_sites must be a JSON integer"),
            ('{"n_sites": 5, "mu": true, "couplings": [1, 1, 1, 1]}', "mu must be a JSON number, got True"),
            ('{"n_sites": 5, "mu": "1", "couplings": [1, 1, 1, 1]}', "mu must be a JSON number"),
            ('{"n_sites": 5, "mu": HUGE, "couplings": [1, 1, 1, 1]}', "out of the float range"),
            ('{"n_sites": 5, "mu": 1.0, "couplings": [1, 1, 1, "1"]}', "coupling must be a JSON number, got '1'"),
            ('{"n_sites": 5, "mu": 1.0, "couplings": [1, false, 1, 1]}', "coupling must be a JSON number"),
            ('{"n_sites": 5, "mu": 1.0, "couplings": [1, HUGE, 1, 1]}', "out of the float range"),
            ('{"n_sites": 5, "mu": 1.0, "couplings": "1111"}', "couplings must be a JSON list"),
            ('{"n_sites": 5, "mu": 1.0, "couplings": {"1": 1}}', "couplings must be a JSON list"),
            ('[5, 1.0, [1, 1, 1, 1]]', "malformed profile data"),
            ('{"n_sites": 9, "mu": 1.0, "couplings": [1, 1, 1, 1]}', "expected 8 couplings for 9 sites, got 4"),
        ],
    )
    @pytest.mark.parametrize("command", [["evolve", "--t-grid", "0:1:0.5"], ["perturb", "--swap", "1", "2"]])
    def test_profile(self, tmp_path, capsys, command, profile, message):
        path = tmp_path / "profile.json"
        path.write_text(profile.replace("HUGE", self.HUGE))
        out = tmp_path / "x.out"
        assert run([*command, "--profile", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload, message",
        [
            ('{"alpha01": [true, 0], "alpha10": [0, 0]}', "real part must be a JSON number, got True"),
            ('{"alpha01": ["0.6", 0], "alpha10": [0, 0.8]}', "real part must be a JSON number"),
            ('{"alpha01": [0.6, null], "alpha10": [0, 0.8]}', "imaginary part must be a JSON number"),
            ('{"alpha01": [0.6, 0], "alpha10": [0, HUGE]}', "out of the float range"),
            ('{"alpha01": [1e400, 0], "alpha10": [0, 0]}', "not normalized"),
        ],
    )
    def test_resource(self, tmp_path, capsys, payload, message):
        path = tmp_path / "resource.json"
        path.write_text(payload.replace("HUGE", self.HUGE))
        out = tmp_path / "x.json"
        assert run(["teleport", "--resource", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["couplings", "--n", "9", "--config", "PATH"],
            ["evolve", "--t-grid", "0:1:0.5", "--profile", "PATH"],
            ["teleport", "--resource", "PATH"],
        ],
    )
    def test_deeply_nested_json_is_a_one_line_argument_error(self, tmp_path, capsys, argv):
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000)
        out = tmp_path / "x.out"
        assert run([str(path) if a == "PATH" else a for a in argv] + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nested too deeply" in err and err.count("\n") == 1
        assert not out.exists()

    def test_integer_couplings_and_mu_are_numbers(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text('{"n_sites": 5, "mu": 1, "couplings": [1, 1, 1, 1]}')
        out = tmp_path / "x.csv"
        assert run(["evolve", "--profile", str(path), "--t-grid", "0:1:0.5", "--out", str(out)]) == 0


class TestPerturb:
    def test_single_swap(self, tmp_path):
        out = tmp_path / "swap.csv"
        assert run(
            [
                "perturb",
                "--n",
                "9",
                "--swap",
                "3",
                "4",
                "--out",
                str(out),
            ]
        ) == 0
        header, rows = read_csv(out)
        assert header == [
            "trial",
            "param",
            "concurrence",
            "residual_norm",
            "expected_fidelity",
        ]
        assert len(rows) == 1
        assert float(rows[0][2]) == pytest.approx(0.41051809923479293, abs=1e-9)

    def test_noise_sweep_rows(self, tmp_path):
        out = tmp_path / "noise.csv"
        assert run(
            [
                "perturb",
                "--n",
                "9",
                "--sigma",
                "1e-3",
                "--trials",
                "5",
                "--seed",
                "42",
                "--out",
                str(out),
            ]
        ) == 0
        _, rows = read_csv(out)
        assert len(rows) == 5
        assert [r[0] for r in rows] == [str(i) for i in range(5)]
        assert manifest_of(out)["master_seed"] == 42

    def test_adjacent_sweep_rows(self, tmp_path):
        out = tmp_path / "adjacent.csv"
        assert run(["perturb", "--n", "9", "--adjacent", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 8
        assert [r[1] for r in rows][:3] == ["0", "1", "2"]

    def test_exactly_one_mode_required(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert run(["perturb", "--n", "9", "--out", out]) == 2
        assert (
            run(
                [
                    "perturb",
                    "--n",
                    "9",
                    "--swap",
                    "1",
                    "2",
                    "--sigma",
                    "0.1",
                    "--out",
                    out,
                ]
            )
            == 2
        )
        assert "exactly one" in capsys.readouterr().err


class TestSearch:
    def test_converges_and_serializes(self, tmp_path):
        out = tmp_path / "search.json"
        assert run(
            [
                "search",
                "--n",
                "5",
                "--seed",
                "20260816",
                "--restarts",
                "2",
                "--t-min",
                "0.5",
                "--t-max",
                "6.0",
                "--d-lo",
                "0.05",
                "--d-hi",
                "3.0",
                "--out",
                str(out),
            ]
        ) == 0
        payload = read_json(out)
        assert payload["converged"] is True
        assert payload["objective"] < 1e-8
        assert payload["problem"]["n_sites"] == 5
        assert len(payload["profile"]["couplings"]) == 4
        assert manifest_of(out)["master_seed"] == 20260816


class TestConfigAndEnvironment:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n": 9, "mu": 5.0}))
        out = tmp_path / "p.json"
        assert run(
            [
                "couplings",
                "--mu",
                "1.0",
                "--config",
                str(config_path),
                "--out",
                str(out),
            ]
        ) == 0
        payload = read_json(out)
        assert payload["n_sites"] == 9  # from config (required flag relaxed)
        assert payload["mu"] == 1.0  # explicit flag beats config

    @pytest.mark.parametrize("flags", [["--config", "FIRST", "--config", "LAST"], ["--config=FIRST", "--config=LAST"]])
    def test_repeated_config_applies_the_last_file(self, tmp_path, flags):
        # as argparse keeps the last value of any other repeated flag
        paths = {"FIRST": tmp_path / "first.json", "LAST": tmp_path / "last.json"}
        paths["FIRST"].write_text(json.dumps({"n": 5}))
        paths["LAST"].write_text(json.dumps({"n": 7}))
        for name, path in paths.items():
            flags = [flag.replace(name, str(path)) for flag in flags]
        out = tmp_path / "p.json"
        assert run(["couplings", *flags, "--out", str(out)]) == 0
        assert read_json(out)["n_sites"] == 7

    def test_config_must_be_an_object(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text("[1, 2]")
        code = run(
            [
                "couplings",
                "--n",
                "5",
                "--config",
                str(config_path),
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [
            {"n": [1]},
            {"n": "abc"},
            {"n": 9, "mu": "fast"},
            {"n": True},
            {"n": 9, "format": "xml"},
            {"n": None},
            {"n": 9, "out": None},
            {"n": 9, "adjacent": "no"},  # keys naming another subcommand's flag are checked too
            {"n": 9, "restarts": "many"},
        ],
    )
    def test_config_value_of_wrong_type_is_an_argument_error(self, tmp_path, capsys, config):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "x.json"
        assert run(["couplings", "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config value for") and err.count("\n") == 1
        assert not out.exists()

    def test_only_the_invoked_subcommand_gets_its_flags(self):
        parser = cli._build_parser({}, "evolve")
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {name: [f for a in p._actions for f in a.option_strings] for name, p in sub.choices.items()}
        assert list(flags) == ["couplings", "evolve", "teleport", "feasibility", "perturb", "search"]
        assert flags.pop("evolve") == ["-h", "--help", "--profile", "--n", "--mu", "--t-grid", "--out", "--config"]
        assert all(f == ["-h", "--help"] for f in flags.values())

    def test_config_values_convert_like_flag_text(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n": "9", "swap": [2, 4]}))
        from_config = tmp_path / "config.csv"
        from_flags = tmp_path / "flags.csv"
        assert run(["perturb", "--config", str(config_path), "--out", str(from_config)]) == 0
        assert run(["perturb", "--n", "9", "--swap", "2", "4", "--out", str(from_flags)]) == 0
        assert from_config.read_bytes() == from_flags.read_bytes()

    def test_config_list_needs_nargs_entries(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"swap": [2]}))
        code = run(["perturb", "--n", "9", "--config", str(config_path), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "swap" in capsys.readouterr().err

    def test_missing_config_file_is_an_io_error(self, tmp_path):
        code = run(
            [
                "couplings",
                "--n",
                "5",
                "--config",
                str(tmp_path / "absent.json"),
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 3

    def test_out_dir_env_resolves_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
        assert run(["couplings", "--n", "5", "--out", "rel.json"]) == 0
        assert (tmp_path / "rel.json").exists()
        assert (tmp_path / "rel.json.manifest.json").exists()

    def test_out_dir_env_missing_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "absent"))
        assert run(["couplings", "--n", "5", "--out", "rel.json"]) == 3

    def test_absolute_out_ignores_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "absent"))
        out = tmp_path / "abs.json"
        assert run(["couplings", "--n", "5", "--out", str(out)]) == 0
        assert out.exists()


class TestConfigDigest:
    """The digest covers the parsed flags but --out and --config, and input files by their bytes."""

    @staticmethod
    def digest(argv, out):
        assert run([*argv, "--out", str(out)]) == 0
        return manifest_of(out)["config_digest"]

    def test_is_the_digest_of_the_parsed_flags(self, tmp_path):
        flags = {"command": "couplings", "format": "json", "mu": 1.0, "n": 9}
        assert self.digest(["couplings", "--n", "9"], tmp_path / "p.json") == json_digest(flags)

    def test_config_value_digests_like_the_flag(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n": 9, "swap": [3, 4]}))
        from_config = self.digest(["perturb", "--config", str(config_path)], tmp_path / "config.csv")
        from_flags = self.digest(["perturb", "--swap", "3", "4", "--n", "9"], tmp_path / "flags.csv")
        assert from_config == from_flags

    def test_changes_with_a_flag_value(self, tmp_path):
        argv = ["feasibility", "--mu", "1", "--gmax", "1.125"]
        assert self.digest(argv, tmp_path / "a.json") != self.digest([*argv[:-1], "1.25"], tmp_path / "b.json")

    def test_changes_with_the_bytes_of_a_profile_file(self, tmp_path):
        profile_path = tmp_path / "profile.json"
        argv = ["evolve", "--profile", str(profile_path), "--t-grid", "0:1:0.5"]
        write_json(profile_path, profile_to_dict(engineered_couplings(9, 1.0)))
        first = self.digest(argv, tmp_path / "a.csv")
        write_json(profile_path, profile_to_dict(engineered_couplings(9, 2.0)))
        assert self.digest(argv, tmp_path / "b.csv") != first

    def test_input_file_is_hashed_before_the_payload_overwrites_it(self, tmp_path):
        resource_path = tmp_path / "resource.json"
        write_json(resource_path, {"alpha01": [SQRT_HALF, 0.0], "alpha10": [SQRT_HALF, 0.0]})
        flags = {"a_im": 0.0, "a_re": 1.0, "b_im": 0.0, "b_re": 0.0, "command": "teleport", "mode": "enumerate",
                 "mu": 1.0, "n": None, "resource": hashlib.sha256(resource_path.read_bytes()).hexdigest(), "seed": None}
        argv = ["teleport", "--resource", str(resource_path)]
        assert self.digest(argv, resource_path) == json_digest(flags)

    def test_does_not_depend_on_out_or_the_out_dir(self, tmp_path, monkeypatch):
        argv = ["couplings", "--n", "9", "--mu", "2"]
        absolute = self.digest(argv, tmp_path / "abs.json")
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / sub))
            assert run([*argv, "--out", f"{sub}.json"]) == 0
            assert manifest_of(tmp_path / sub / f"{sub}.json")["config_digest"] == absolute


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, config, given",
        [
            (["evolve", "--t-grid", "0:1:0.5", "--profile", "PROFILE", "--n", "5"], {}, "--n"),
            (["evolve", "--t-grid", "0:1:0.5", "--profile", "PROFILE", "--mu", "1"], {}, "--mu"),
            (["evolve", "--t-grid", "0:1:0.5", "--profile", "PROFILE", "--mu", "inf"], {}, "--mu"),
            (["evolve", "--t-grid", "0:1:0.5", "--profile", "PROFILE"], {"mu": 1.0}, "--mu"),
            (["perturb", "--swap", "1", "2", "--profile", "PROFILE", "--n", "5", "--mu", "2"], {}, "--n and --mu"),
            (["perturb", "--adjacent", "--profile", "PROFILE"], {"n": 5}, "--n"),
            (["teleport", "--resource", "RESOURCE", "--n", "5"], {}, "--n"),
            (["teleport", "--resource", "RESOURCE", "--mu", "1"], {}, "--mu"),
        ],
    )
    def test_n_or_mu_beside_the_input_file_is_an_argument_error(self, tmp_path, capsys, argv, config, given):
        files = {"PROFILE": tmp_path / "profile.json", "RESOURCE": tmp_path / "resource.json"}
        write_json(files["PROFILE"], profile_to_dict(engineered_couplings(5, 1.0)))
        write_json(files["RESOURCE"], {"alpha01": [SQRT_HALF, 0.0], "alpha10": [SQRT_HALF, 0.0]})
        argv = [str(files.get(token, token)) for token in argv]
        if config:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "config.json")]
        out = tmp_path / "x.out"
        assert run([*argv, "--out", str(out)]) == 2
        source = "--resource" if argv[0] == "teleport" else "--profile"
        assert capsys.readouterr().err == f"error: {source} replaces {given}; give one or the other\n"
        assert not out.exists()

    def test_no_arguments_is_an_argument_error(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_numeric_failure_maps_to_exit_4(self, tmp_path, monkeypatch, capsys):
        def boom(args, out):
            raise NumericFailure(9)

        monkeypatch.setitem(cli._HANDLERS, "feasibility", boom)
        code = run(
            ["feasibility", "--mu", "1.0", "--gmax", "1.0", "--out", str(tmp_path / "x")]
        )
        assert code == 4
        assert "eigensolver failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["perturb", "--swap", "3", "4"], ["perturb", "--sigma", "0.01", "--trials", "3"]]
    )
    def test_lapack_failure_exits_4(self, tmp_path, monkeypatch, capsys, argv):
        def not_converged(d, e, **kwargs):
            return np.zeros(len(d)), np.eye(len(d)), 1

        monkeypatch.setattr(scipy.linalg.lapack, "dstevd", not_converged)
        out = tmp_path / "p.csv"
        assert run([*argv, "--n", "9", "--out", str(out)]) == 4
        assert capsys.readouterr().err == "error: eigensolver failed (dimension 9)\n"
        assert not out.exists()

    @pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 3.73 GiB")])
    def test_memory_error_maps_to_exit_2(self, tmp_path, monkeypatch, capsys, exc):
        def exhaust(args, out):
            raise exc

        monkeypatch.setitem(cli._HANDLERS, "couplings", exhaust)
        assert run(["couplings", "--n", "5", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert str(exc) in err


class TestLongChains:
    @pytest.mark.parametrize(
        "argv",
        [
            ["couplings"],
            ["evolve", "--t-grid", "3:3.1:0.1"],
            ["teleport"],
            ["perturb", "--swap", "5", "6"],
            ["search", "--restarts", "1"],
        ],
    )
    @pytest.mark.parametrize("n", [cli.MAX_SITES + 2, 100_000_001])
    def test_chain_above_the_site_cap_is_a_one_line_argument_error(self, tmp_path, capsys, argv, n):
        out = tmp_path / "out"
        assert run([*argv, "--n", str(n), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: chain of {n} sites exceeds the limit of {cli.MAX_SITES}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["evolve", "--t-grid", "3:3.1:0.1"], ["perturb", "--swap", "5", "6"]])
    def test_profile_file_above_the_site_cap_is_refused(self, tmp_path, capsys, argv):
        profile = tmp_path / "long.json"
        write_json(profile, profile_to_dict(engineered_couplings(cli.MAX_SITES + 2)))
        out = tmp_path / "out.csv"
        assert run([*argv, "--profile", str(profile), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: chain of {cli.MAX_SITES + 2} sites exceeds the limit of {cli.MAX_SITES}\n"
        assert not out.exists()

    def test_chain_at_the_site_cap_is_accepted(self):
        assert cli._check_sites(cli.MAX_SITES) == cli.MAX_SITES
        assert engineered_couplings(cli.MAX_SITES).n_sites == cli.MAX_SITES

    @pytest.mark.skipif(
        (dynamics._memory_limit_bytes() or math.inf) >= 16 * 100_001**2,
        reason="memory limit unknown, or large enough for 100,001-site eigenvectors and workspace",
    )
    def test_dense_eigensolve_beyond_physical_memory_is_refused_unallocated(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(scipy.linalg.lapack, "dstevd", no_eigensolve)
        out = tmp_path / "amps.csv"
        # a grid on which the Chebyshev series needs N terms or more: the dense path
        assert run(["evolve", "--n", "100001", "--t-grid", "0:10:1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dense eigenvectors of 100001 sites need")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_adjacent_above_its_cap_is_refused_before_any_readout(self, tmp_path, monkeypatch, capsys):
        def no_sweep(profile):
            raise AssertionError("adjacent sweep ran")

        monkeypatch.setattr(cli, "adjacent_swap_sweep", no_sweep)
        n = cli.MAX_ADJACENT_SITES + 2
        out = tmp_path / "adjacent.csv"
        assert run(["perturb", "--adjacent", "--n", str(n), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --adjacent on {n} sites exceeds the limit of {cli.MAX_ADJACENT_SITES}\n"
        assert not out.exists()

    def test_adjacent_at_its_cap_is_accepted(self, tmp_path, monkeypatch):
        sizes = []

        def one_row(profile):
            sizes.append(profile.n_sites)
            return [SweepRow(trial=0, param=0.0, concurrence=1.0, residual_norm=0.0, expected_fidelity=1.0)]

        monkeypatch.setattr(cli, "adjacent_swap_sweep", one_row)
        n = cli.MAX_ADJACENT_SITES
        assert run(["perturb", "--adjacent", "--n", str(n), "--out", str(tmp_path / "a.csv")]) == 0
        assert sizes == [n]

    def test_eigensolve_beyond_the_address_space_is_a_one_line_argument_error(self, tmp_path):
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2_000_000 << 10, 2_000_000 << 10))

        out = tmp_path / "amps.csv"
        # the grid's Chebyshev series needs more terms than sites: the dense path,
        # whose 5.96 GiB of eigenvectors and workspace the guard refuses in 2 GB
        proc = subprocess.run(
            [sys.executable, "-m", "bellchain", "evolve", "--n", "20001", "--t-grid", "0:100:1",
             "--out", str(out)],
            capture_output=True,
            text=True,
            preexec_fn=limit_address_space,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: dense eigenvectors of 20001 sites need")
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_swap_on_8001_sites_runs_in_one_gib_of_address_space(self, tmp_path):
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        out = tmp_path / "swap.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "bellchain", "perturb", "--n", "8001", "--swap", "5", "6",
             "--out", str(out)],
            capture_output=True,
            text=True,
            preexec_fn=limit_address_space,
        )
        assert proc.returncode == 0, proc.stderr
        _, rows = read_csv(out)
        assert len(rows) == 1
        assert 0.0 < float(rows[0][2]) < 1.0


def test_module_entry_point(tmp_path):
    out = tmp_path / "p.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bellchain", "couplings", "--n", "5", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    payload = json.loads(out.read_text())
    assert payload["n_sites"] == 5
