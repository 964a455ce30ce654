"""Canonical JSON, CSV emission, round-trips, and run manifests."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellchain.chain import CouplingProfile, engineered_couplings
from bellchain.robustness import SweepRow, feasibility
from bellchain.search import SearchProblem, SearchResult
from bellchain.serialize import (
    canonical_json,
    complex_pair,
    feasibility_to_dict,
    format_float,
    json_digest,
    manifest_path,
    profile_from_dict,
    profile_to_dict,
    read_profile,
    read_resource,
    resource_to_dict,
    search_result_to_dict,
    sweep_rows_to_csv,
    teleport_report,
    write_csv,
    write_json,
    write_manifest,
)
from bellchain.teleport import EntangledResource, TeleportRecord


class TestFormatFloat:
    def test_short_values_stay_short(self):
        assert format_float(0.5) == "0.5"
        assert format_float(1.0) == "1"
        assert format_float(-2.25) == "-2.25"

    def test_round_trips_doubles_exactly(self):
        for x in (math.pi, 1 / 3, 0.1, 2**-52, 1e300, -1.2345678901234567e-8):
            assert float(format_float(x)) == x

    def test_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                format_float(bad)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200)
    def test_round_trip_property(self, x):
        assert float(format_float(x)) == x


class TestCanonicalJson:
    def test_scalars(self):
        assert canonical_json(None) == "null"
        assert canonical_json(True) == "true"
        assert canonical_json(False) == "false"
        assert canonical_json(42) == "42"
        assert canonical_json(0.5) == "0.5"
        assert canonical_json("hi") == '"hi"'

    def test_containers_keep_insertion_order(self):
        text = canonical_json({"b": 1, "a": [2, None, {"z": 0.25}]})
        assert text == '{"b":1,"a":[2,null,{"z":0.25}]}'

    def test_mixed_list_text_is_pinned(self):
        value = [True, 3, 0.1, np.float64(2.5), None, {"k": [False, -0.0, 1e-300, (7, np.float64(1 / 3))]}, "x", 2**70]
        assert canonical_json(value) == (
            '[true,3,0.10000000000000001,2.5,null,{"k":[false,-0,1e-300,[7,0.33333333333333331]]},'
            '"x",1180591620717411303424]'
        )

    def test_output_parses_as_json(self):
        value = {"x": [1.5, "s", None, True], "y": {"n": 3}}
        assert json.loads(canonical_json(value)) == value

    def test_rejects_non_finite_and_unknown_types(self):
        with pytest.raises(ValueError):
            canonical_json({"x": math.nan})
        with pytest.raises(TypeError):
            canonical_json({"x": object()})

    def test_digest_is_stable_and_order_sensitive(self):
        d1 = json_digest({"a": 1, "b": 2})
        d2 = json_digest({"a": 1, "b": 2})
        d3 = json_digest({"b": 2, "a": 1})
        assert d1 == d2
        assert d1 != d3
        assert len(d1) == 64
        assert set(d1) <= set("0123456789abcdef")


class TestProfileRoundTrip:
    def test_dict_round_trip_is_exact(self):
        profile = engineered_couplings(9, 2.0)
        again = profile_from_dict(profile_to_dict(profile))
        assert again == profile

    def test_file_round_trip_is_exact(self, tmp_path):
        profile = engineered_couplings(21, 0.7)
        path = tmp_path / "profile.json"
        write_json(path, profile_to_dict(profile))
        again = read_profile(path)
        assert again.couplings == profile.couplings
        assert again.mu == profile.mu
        assert again.n_sites == profile.n_sites

    def test_malformed_profile_raises_value_error(self):
        with pytest.raises(ValueError):
            profile_from_dict({"mu": 1.0, "couplings": [1.0, 1.0]})
        with pytest.raises(ValueError):
            profile_from_dict({"n_sites": 3, "mu": 1.0, "couplings": None})


class TestResourceIO:
    def test_round_trip(self, tmp_path):
        resource = EntangledResource(
            alpha01=complex(0.6, 0.0), alpha10=complex(0.0, -0.8)
        )
        path = tmp_path / "resource.json"
        write_json(path, resource_to_dict(resource))
        again = read_resource(path)
        assert again.alpha01 == resource.alpha01
        assert again.alpha10 == resource.alpha10

    def test_complex_pair_layout(self):
        assert complex_pair(complex(0.5, -0.25)) == [0.5, -0.25]

    def test_malformed_resource_raises_value_error(self, tmp_path):
        for payload in (
            '{"alpha01": [1.0, 0.0]}',
            '{"alpha01": 1.0, "alpha10": 0.0}',
            '{"alpha01": [1.0], "alpha10": [0.0, 0.0]}',
        ):
            path = tmp_path / "bad.json"
            path.write_text(payload)
            with pytest.raises(ValueError):
                read_resource(path)


class TestCsv:
    def test_rejects_width_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "x.csv", ["a", "b"], [["1"]])

    def test_bytes_are_stable(self, tmp_path):
        rows = [
            SweepRow(
                trial=0,
                param=0.001,
                concurrence=0.75,
                residual_norm=0.5,
                expected_fidelity=0.875,
            )
        ]
        p1 = tmp_path / "one.csv"
        p2 = tmp_path / "two.csv"
        sweep_rows_to_csv(p1, rows)
        sweep_rows_to_csv(p2, rows)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert text.splitlines()[0] == (
            "trial,param,concurrence,residual_norm,expected_fidelity"
        )
        assert text.splitlines()[1] == "0,0.001,0.75,0.5,0.875"
        assert text.endswith("\n")


class TestReportPayloads:
    def test_teleport_report_shape(self):
        records = [
            TeleportRecord("00", 0.25, "X", 1.0),
            TeleportRecord("01", 0.25, "I", 1.0),
            TeleportRecord("10", 0.25, "ZX", None),
            TeleportRecord("11", 0.25, "Z", 1.0),
        ]
        payload = teleport_report(
            complex(1.0, 0.0),
            complex(0.0, 0.0),
            EntangledResource(alpha01=math.sqrt(0.5), alpha10=math.sqrt(0.5)),
            records,
            seed=None,
            branches=records,
        )
        assert payload["a"] == [1.0, 0.0]
        assert payload["records"][2]["fidelity"] is None
        assert payload["expected_fidelity"] == pytest.approx(0.75)
        assert payload["seed"] is None
        canonical_json(payload)  # must serialize without error

    def test_feasibility_payload(self):
        payload = feasibility_to_dict(feasibility(mu=1.0e4, g_max=7.3e8))
        assert payload["n_max"] == 584000
        assert payload["n_max_exact"] == 583999
        assert payload["degenerate"] is False
        # n_max is even, so the peak is quoted for the largest odd length
        assert payload["d_max_at_n_max"] == pytest.approx(7.3e8, rel=1e-5)
        assert payload["d_max_at_n_max"] <= 7.3e8 * (1 + 1e-12)

    def test_degenerate_feasibility_payload(self):
        payload = feasibility_to_dict(feasibility(mu=10.0, g_max=1.0))
        assert payload["degenerate"] is True
        assert payload["d_max_at_n_max"] is None
        assert payload["n_max_exact"] is None

    def test_search_payload(self):
        problem = SearchProblem(n_sites=5, t_window=(0.5, 6.0), bounds=(0.05, 3.0))
        profile = CouplingProfile(mu=1.0, couplings=(1.0, 0.7, 0.7, 1.0))
        result = SearchResult(
            profile=profile,
            best_time=math.pi,
            objective=1e-12,
            iterations=40,
            converged=True,
        )
        payload = search_result_to_dict(problem, result, seed=11)
        assert payload["problem"]["n_sites"] == 5
        assert payload["seed"] == 11
        assert payload["profile"]["couplings"] == [1.0, 0.7, 0.7, 1.0]
        assert payload["converged"] is True
        canonical_json(payload)


class TestManifest:
    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "result.json"
        write_manifest(
            out,
            command_line=["couplings", "--n", "9"],
            digest_params={"n": 9, "mu": 1.0},
            master_seed=7,
            wall_time_s=0.125,
        )
        path = manifest_path(out)
        assert path.name == "result.json.manifest.json"
        data = json.loads(path.read_text())
        assert set(data) == {
            "command_line",
            "config_digest",
            "master_seed",
            "tool_version",
            "wall_time_s",
        }
        assert data["command_line"] == ["couplings", "--n", "9"]
        assert data["config_digest"] == json_digest({"n": 9, "mu": 1.0})
        assert data["master_seed"] == 7

    def test_digest_ignores_wall_time(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out, wall in ((out1, 0.1), (out2, 99.0)):
            write_manifest(out, ["x"], {"n": 3}, None, wall)
        d1 = json.loads(manifest_path(out1).read_text())
        d2 = json.loads(manifest_path(out2).read_text())
        assert d1["config_digest"] == d2["config_digest"]
        assert d1["wall_time_s"] != d2["wall_time_s"]
