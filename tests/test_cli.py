"""Command-line interface: payloads, manifests, exit codes, config handling."""

import json
import math
import resource
import subprocess
import sys
import warnings

import pytest
import scipy.linalg

from bellchain import cli, dynamics
from bellchain.chain import engineered_couplings
from bellchain.cli import run
from bellchain.dynamics import NumericFailure, eigendecompose
from bellchain.serialize import write_json

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
        assert "n must be odd and >= 3" in capsys.readouterr().err

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


class TestExitCodes:
    def test_no_arguments_is_an_argument_error(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_numeric_failure_maps_to_exit_4(self, tmp_path, monkeypatch, capsys):
        def boom(args):
            raise NumericFailure(9)

        monkeypatch.setitem(cli._HANDLERS, "feasibility", boom)
        code = run(
            ["feasibility", "--mu", "1.0", "--gmax", "1.0", "--out", str(tmp_path / "x")]
        )
        assert code == 4
        assert "eigensolver failed" in capsys.readouterr().err

    @pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 3.73 GiB")])
    def test_memory_error_maps_to_exit_2(self, tmp_path, monkeypatch, capsys, exc):
        def exhaust(args):
            raise exc

        monkeypatch.setitem(cli._HANDLERS, "couplings", exhaust)
        assert run(["couplings", "--n", "5", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert str(exc) in err


class TestLongChains:
    @pytest.mark.skipif(
        (dynamics._physical_memory_bytes() or math.inf) >= 8 * 100_001**2,
        reason="physical memory unknown, or large enough for 100,001-site eigenvectors",
    )
    def test_dense_eigensolve_beyond_physical_memory_is_refused_unallocated(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", no_eigensolve)
        out = tmp_path / "amps.csv"
        # a grid on which the Chebyshev series needs N terms or more: the dense path
        assert run(["evolve", "--n", "100001", "--t-grid", "0:10:1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dense eigenvectors of 100001 sites need")
        assert err.count("\n") == 1
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
