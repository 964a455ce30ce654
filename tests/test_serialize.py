"""Canonical JSON, CSV emission, round-trips, and run manifests."""

import json
import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellchain import cli
from bellchain.chain import CouplingProfile, engineered_couplings
from bellchain.robustness import SweepRow, feasibility
from bellchain.search import SearchProblem, SearchResult
from bellchain.serialize import (
    canonical_json,
    format_float,
    json_digest,
    manifest_path,
    profile_from_dict,
    read_json,
    read_profile,
    read_resource,
    sweep_rows_to_csv,
    write_csv,
    write_json,
    write_manifest,
)
from bellchain.teleport import EntangledResource


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

    def test_dataclass_is_its_shown_fields_in_declaration_order(self):
        @dataclass(frozen=True)
        class Inner:
            z: float
            hidden: object = field(default=None, repr=False)

        @dataclass(frozen=True)
        class Outer:
            b: int
            a: Inner
            items: list

        value = Outer(b=1, a=Inner(0.25, hidden=object()), items=[Inner(-1.0), 2j])
        assert canonical_json(value) == '{"b":1,"a":{"z":0.25},"items":[{"z":-1},[0,2]]}'
        with pytest.raises(TypeError):
            canonical_json(Outer)

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
        again = profile_from_dict(json.loads(canonical_json(profile)))
        assert again == profile

    def test_file_round_trip_is_exact(self, tmp_path):
        profile = engineered_couplings(21, 0.7)
        path = tmp_path / "profile.json"
        write_json(path, profile)
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
        write_json(path, resource)
        again = read_resource(path)
        assert again.alpha01 == resource.alpha01
        assert again.alpha10 == resource.alpha10

    def test_complex_is_a_re_im_pair(self):
        assert canonical_json(complex(0.6, -0.0)) == "[0.59999999999999998,-0]"

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

    def test_cells_are_canonical_json_and_none_is_empty(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["a", "b", "c"], [(1, 0.1, None)])
        assert path.read_bytes() == b"a,b,c\n1,0.10000000000000001,\n"

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
    """Each library result is its own payload; only the teleport report is assembled, by the CLI."""

    def test_profile_payload(self):
        payload = json.loads(canonical_json(CouplingProfile(mu=2.0, couplings=(1.0, 0.5))))
        assert payload == {"n_sites": 3, "mu": 2.0, "couplings": [1.0, 0.5]}
        assert list(payload) == ["n_sites", "mu", "couplings"]

    def test_teleport_report_shape(self, tmp_path):
        resource, out = tmp_path / "resource.json", tmp_path / "report.json"
        write_json(resource, EntangledResource(alpha01=0.0, alpha10=1.0))
        assert cli.run(["teleport", "--resource", str(resource), "--out", str(out)]) == 0
        payload = read_json(out)
        assert list(payload) == ["a", "b", "resource", "records", "expected_fidelity", "seed"]
        assert [list(r) for r in payload["records"]] == [["outcome", "probability", "correction", "fidelity"]] * 4
        # with alpha01 = 0 the input |0> never leaves A reading 0
        assert [r["fidelity"] for r in payload["records"]] == [None, 1.0, None, 1.0]
        assert payload["expected_fidelity"] == pytest.approx(1.0)
        assert payload["seed"] is None
        assert out.read_text().startswith('{"a":[1,0],"b":[0,0],"resource":{"alpha01":[0,0],"alpha10":[1,0]},')

    def test_feasibility_payload(self):
        payload = json.loads(canonical_json(feasibility(mu=1.0e4, g_max=7.3e8)))
        assert list(payload) == ["mu", "g_max", "t0", "n_max", "n_max_exact", "degenerate", "d_max_at_n_max"]
        assert payload["n_max"] == 584000
        assert payload["n_max_exact"] == 583999
        assert payload["degenerate"] is False
        # n_max is even, so the peak is quoted for the largest odd length
        assert payload["d_max_at_n_max"] == pytest.approx(7.3e8, rel=1e-5)
        assert payload["d_max_at_n_max"] <= 7.3e8 * (1 + 1e-12)

    def test_degenerate_feasibility_payload(self):
        payload = json.loads(canonical_json(feasibility(mu=10.0, g_max=1.0)))
        assert payload["degenerate"] is True
        assert payload["d_max_at_n_max"] is None
        assert payload["n_max_exact"] is None

    def test_search_payload(self, tmp_path):
        problem = SearchProblem(n_sites=5, t_window=(0.5, 6.0), bounds=(0.05, 3.0))
        profile = CouplingProfile(mu=1.0, couplings=(1.0, 0.7, 0.7, 1.0))
        result = SearchResult(
            problem=problem,
            seed=11,
            profile=profile,
            best_time=math.pi,
            objective=1e-12,
            iterations=40,
            converged=True,
        )
        path = tmp_path / "search.json"
        write_json(path, result)
        payload = read_json(path)
        assert list(payload) == [
            "problem", "seed", "profile", "best_time", "objective", "iterations", "converged",
        ]
        assert payload["problem"] == {"n_sites": 5, "t_window": [0.5, 6.0], "bounds": [0.05, 3.0]}
        assert payload["seed"] == 11
        assert payload["profile"] == {"n_sites": 5, "mu": 1.0, "couplings": [1.0, 0.7, 0.7, 1.0]}
        assert payload["converged"] is True


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
