"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from checks import check_op, parse_payload  # noqa: E402
from spans import TARGETS, Tracer, self_times, summarize  # noqa: E402
from worker import REFERENCES, import_cli  # noqa: E402
from workloads import EVOLVE_GRID, WORKLOADS, op_key, ops  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFS = json.loads(REFERENCES.read_text(encoding="utf-8"))["ops"]


def span(name, start, end, parent, n=None):
    return (name, start, end, parent, 0, n)


def test_self_time_subtracts_direct_children():
    spans = [
        span("cli.run", 0.0, 10.0, -1),
        span("robustness.noise_sweep", 1.0, 4.0, 0),
        span("teleport.teleport", 2.0, 3.0, 1),
        span("serialize.write_csv", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0


def test_summarize_counts_evaluations_under_minimize_and_computed_bytes():
    spans = [
        span("cli.run", 0.0, 10.0, -1),
        span("search.minimize", 1.0, 9.0, 0),
        span("dynamics.eigendecompose", 2.0, 3.0, 1, n=5),
        span("dynamics.eigendecompose", 4.0, 5.0, 1, n=5),
        span("dynamics.eigendecompose", 9.5, 9.75, 0, n=7),
        span("dynamics.evolve", 9.75, 9.875, 0, n=7),
    ]
    summary = summarize(spans)
    assert summary["search_evaluations"] == 2
    assert summary["layers"]["dynamics.eigendecompose"]["calls"] == 3
    assert summary["layers"]["search.minimize"]["self_s"] == 6.0
    assert summary["bytes_computed"] == {
        "dynamics.eigendecompose": 8 * (25 + 25 + 49),
        "dynamics.evolve": 16 * 49,
    }


def test_tracer_wraps_every_importing_module_and_restores():
    cli = import_cli()
    from bellchain import dynamics, robustness, search

    original = dynamics.eigendecompose
    tracer = Tracer()
    tracer.install(op=7)
    try:
        for module in (cli, dynamics, robustness, search):
            assert module.eigendecompose is not original
    finally:
        tracer.uninstall()
    for module in (cli, dynamics, robustness, search):
        assert module.eigendecompose is original


def test_traced_op_self_times_add_up_to_the_root_span(tmp_path):
    cli = import_cli()
    tracer = Tracer()
    tracer.install(op=0)
    try:
        argv = ["perturb", "--n", "9", "--sigma", "0.001", "--trials", "3", "--seed", "1"]
        assert cli.run([*argv, "--out", str(tmp_path / "p.csv")]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.spans
    root = [s for s in spans if s[3] == -1]
    assert [s[0] for s in root] == ["cli.run"]
    assert sum(self_times(spans)) == pytest.approx(root[0][2] - root[0][1], abs=1e-9)
    layers = summarize(spans)["layers"]
    assert layers["teleport.teleport"]["calls"] == 3
    assert layers["robustness.noise_sweep"]["calls"] == 1
    assert {s[4] for s in spans} == {0}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_and_covers_the_pool(name):
    pool = WORKLOADS[name].pool
    first = ops(name, 123, 3 * len(pool))
    assert first == ops(name, 123, 3 * len(pool))
    for start in range(0, len(first), len(pool)):
        assert sorted(map(tuple, first[start:start + len(pool)])) == sorted(pool)
    if len(pool) > 2:
        assert first != ops(name, 124, 3 * len(pool))


def test_every_pool_op_has_a_reference():
    keys = {op_key(argv) for w in WORKLOADS.values() for argv in w.pool}
    assert keys == set(REFS)


def test_benchmark_json_matches_the_harness():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    ops_ = [
        {"wall_s": 1.0 + k, "traced": k % 2 == 1, "identical": True,
         "bytes_written": 10, "failure": None}
        for k in range(4)
    ]
    result = {
        "ops": ops_, "setups": [1.0], "peak_rss_mb": 50.0,
        "trace": summarize([span("cli.run", 0.0, 1.0, -1)]),
    }
    assert list(run.end_to_end(result)) == [m["name"] for m in BENCHMARK["end_to_end"]]
    layer_metrics = run.per_layer(result)
    assert [(k, m["unit"]) for k, m in layer_metrics.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]
    ]
    assert {f"{t}.{m}" for t in TARGETS for m in ("calls", "self_s")} <= set(layer_metrics)


def write_op(tmp_path, name, text, manifest=True):
    out = tmp_path / name
    out.write_text(text, encoding="utf-8")
    if manifest:
        Path(f"{out}.manifest.json").write_text("{}\n", encoding="utf-8")
    return out, Path(f"{out}.manifest.json")


def run_cli(tmp_path, argv, name):
    cli = import_cli()
    out = tmp_path / name
    assert cli.run([*argv, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def replace_cell(text, row, column, value):
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    cells[header.index(column)] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def own_reference(text, fmt):
    """A reference entry made from this payload, as ``make_refs.py`` stores it."""
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return {"sha256": digest, "values": parse_payload(text, fmt)}


def test_evolve_check_rejects_corrupted_rows(tmp_path):
    text = run_cli(tmp_path, ["evolve", "--n", "9", "--t-grid", EVOLVE_GRID], "e.csv")
    ref = own_reference(text, "csv")
    assert check_op("evolve", *write_op(tmp_path, "ok.csv", text), ref) == (None, True)
    bad = {
        "err": replace_cell(text, 5, "abs_err", "2.0000000000000001e-09"),
        "valid": replace_cell(text, 5, "analytic_valid", "0"),
        "short": "\n".join(text.splitlines()[:-1]) + "\n",
    }
    for key, corrupted in bad.items():
        reason, _ = check_op("evolve", *write_op(tmp_path, f"{key}.csv", corrupted), ref)
        assert reason and reason.startswith("evolve"), key
    # A wrong time grid or amplitude passes the self-reported columns but
    # not the reference.
    for column in ("t", "re_amp"):
        value = float(text.splitlines()[5].split(",")[0 if column == "t" else 1])
        corrupted = replace_cell(text, 5, column, repr(value + 1e-6))
        reason, _ = check_op("evolve", *write_op(tmp_path, f"{column}.csv", corrupted), ref)
        assert "reference" in reason, column


def test_teleport_check_rejects_a_changed_fidelity_or_resource(tmp_path):
    argv = list(WORKLOADS["long_teleport"].warmup)
    text = run_cli(tmp_path, argv, "t.json")
    ref = own_reference(text, "json")
    assert check_op("teleport", *write_op(tmp_path, "ok.json", text), ref)[0] is None
    payload = json.loads(text)
    payload["expected_fidelity"] -= 1e-6
    reason, _ = check_op("teleport", *write_op(tmp_path, "bad.json", json.dumps(payload)), ref)
    assert "expected_fidelity" in reason
    payload = json.loads(text)
    payload["a"][0] += 1e-6
    reason, _ = check_op("teleport", *write_op(tmp_path, "a.json", json.dumps(payload)), ref)
    assert "reference" in reason


def test_perturb_check_compares_values_with_the_reference(tmp_path):
    argv = list(WORKLOADS["noise_sweep"].pool[0])
    ref = REFS[op_key(argv)]
    text = run_cli(tmp_path, argv, "p.csv")
    assert check_op("perturb", *write_op(tmp_path, "ok.csv", text), ref) == (None, True)
    value = float(text.splitlines()[3].split(",")[2])
    corrupted = replace_cell(text, 3, "concurrence", repr(value - 1e-8))
    reason, identical = check_op("perturb", *write_op(tmp_path, "bad.csv", corrupted), ref)
    assert "reference" in reason and not identical
    reason, _ = check_op("perturb", *write_op(tmp_path, "nm.csv", text, manifest=False), ref)
    assert reason == "no manifest written"


def test_search_check_compares_values_with_the_reference(tmp_path):
    argv = WORKLOADS["search"].pool[0]
    ref = REFS[op_key(argv)]
    good = ref["values"]
    assert parse_payload(json.dumps(good), "json") == good
    assert check_op("search", *write_op(tmp_path, "ok.json", json.dumps(good)), ref)[0] is None
    for field, delta in (("best_time", 1e-6), ("iterations", 1)):
        corrupted = dict(good, **{field: good[field] + delta})
        written = write_op(tmp_path, f"{field}.json", json.dumps(corrupted))
        reason, _ = check_op("search", *written, ref)
        assert "reference" in reason, field
    corrupted = dict(good, converged=not good["converged"])
    assert check_op("search", *write_op(tmp_path, "c.json", json.dumps(corrupted)), ref)[0]
