#!/usr/bin/env python3
"""bellchain benchmark: CLI workloads timed end to end, or traced per layer.

    python3 bench/run.py --workload long_evolve --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each run spawns fresh worker interpreters (``worker.py``):
several that only get ready (import plus one untimed warm-up op), whose
median time to ready is ``setup_s``, and one that also runs the timed
closed loop of ops.  With ``--trace 0`` the last stdout line is a JSON
object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of the traced run, and the full per-function table is
printed above it.  Scratch files live under ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from spans import TARGETS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SCRATCH = ROOT / ".bench_run"
SETUP_SPAWNS = 3  # fresh interpreters per untraced run; setup_s is their median
READY_TIMEOUT_S = 60.0
RUN_GRACE_S = 60.0  # time allowed past --seconds for the last op and the report


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("BELLCHAIN_OUT_DIR", None)
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def read_line(proc) -> bytes:
    readable, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    return proc.stdout.readline() if readable else b""


@contextmanager
def spawn(args: list[str]):
    """Start a worker; yield (process, seconds until it printed ``ready``)."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT
    )
    try:
        line = read_line(proc)
        ready_s = perf_counter() - start
        if line != b"ready\n":
            raise BenchError(f"worker did not get ready (exit code {proc.poll()})")
        yield proc, ready_s
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def finish(proc, timeout: float) -> None:
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish in time") from None
    if code != 0:
        raise BenchError(f"worker exited with code {code}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    SCRATCH.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--run-dir", str(run_dir)]
    try:
        setups = []
        for _ in range(0 if trace else SETUP_SPAWNS - 1):
            with spawn([*args, "--setup-only"]) as (proc, setup_s):
                finish(proc, READY_TIMEOUT_S)
            setups.append(setup_s)
        with spawn(args) as (proc, setup_s):
            finish(proc, seconds + RUN_GRACE_S)
        setups.append(setup_s)
        result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result["setups"] = setups
    return result


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict) -> dict:
    """The op time is bounded as a p90, not a median: on a host whose speed
    switches between two states, short ops' times are bimodal and their
    median jumps to whichever state held for most of the run, while the
    p90 stays in the slow state, which nearly every run contains."""
    walls = [op["wall_s"] for op in result["ops"]]
    return {
        "setup_s": metric(statistics.median(result["setups"]), "s"),
        "op_s.p90": metric(statistics.quantiles(walls, n=10, method="inclusive")[-1], "s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
    }


def per_layer(result: dict) -> dict:
    """Per traced op, so that a faster commit tracing more ops in the same
    time reads the same; ``trace.ops`` is the base."""
    ops = result["ops"]
    trace = result["trace"]
    layers = trace["layers"]
    traced = [op["wall_s"] for op in ops if op["traced"]]
    untraced = [op["wall_s"] for op in ops if not op["traced"]]
    n = len(traced)
    covered = sum(layer["self_s"] for layer in layers.values())
    searched = [op for op in ops if op["traced"] and "converged" in op]
    metrics = {f"{name}.calls": metric(layers[name]["calls"] / n, "count/op") for name in TARGETS}
    metrics.update(
        {f"{name}.self_s": metric(layers[name]["self_s"] / n, "s/op") for name in TARGETS}
    )
    metrics.update(
        {
            f"{name}.bytes_computed": metric(value / n, "bytes/op")
            for name, value in trace["bytes_computed"].items()
        }
    )
    metrics.update(
        {
            "search.evaluations": metric(trace["search_evaluations"] / n, "count/op"),
            "search.iterations": metric(sum(op["iterations"] for op in searched) / n, "count/op"),
            "search.converged_ratio": metric(
                sum(op["converged"] for op in searched) / len(searched) if searched else 0.0,
                "ratio",
            ),
            "search.converged_ratio.base": metric(len(searched), "count"),
            "serialize.bytes_written": metric(
                sum(op["bytes_written"] for op in ops if op["traced"]) / n, "bytes/op"
            ),
            "serialize.payload_identical_ratio": metric(
                sum(op["identical"] for op in ops) / len(ops), "ratio"
            ),
            "serialize.payload_identical_ratio.base": metric(len(ops), "count"),
            "trace.ops": metric(n, "count"),
            "trace.overhead_s": metric(
                statistics.median(traced) - statistics.median(untraced), "s"
            ),
            "trace.unwrapped_s": metric((sum(traced) - covered) / n, "s/op"),
        }
    )
    return metrics


def print_report(name: str, seed: int, seconds: float, result: dict, metrics: dict) -> None:
    w = WORKLOADS[name]
    ops = result["ops"]
    walls = [op["wall_s"] for op in ops]
    failed = [op for op in ops if op["failure"]]
    env = result["env"]
    print(f"== {name} ({w.kind}): {w.why}")
    print(f"   seed {seed}, {seconds:g} s, closed loop, 1 client, 1 process")
    print("   env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for key, m in metrics.items():
        print(f"   {key:<42} {m['value']!r:>24} {m['unit']}")
    if "setup_s" in metrics:
        print(f"   {'op_s.p50':<42} {statistics.median(walls)!r:>24} s (not bounded)")
        print(f"   op samples {len(walls)}, setup samples: "
              f"{', '.join(f'{s:.4f}' for s in result['setups'])}")
    print(f"   ops_attempted {len(ops)}, ops_failed {len(failed)}, "
          f"payload sha256 identical {sum(op['identical'] for op in ops)}/{len(ops)}")
    for op in failed[:5]:
        print(f"   failed op {op['op']}: {op['failure']}")
    if "trace" in result:
        print_layers(result)


def print_layers(result: dict) -> None:
    traced = [op["wall_s"] for op in result["ops"] if op["traced"]]
    wall = sum(traced)
    layers = result["trace"]["layers"]
    print(f"   per-layer self time over {len(traced)} traced ops ({wall:.4f} s of op wall time):")
    print(f"   {'layer':<36} {'calls':>8} {'self_s':>12} {'per op':>12} {'share':>7}")
    for name in TARGETS:
        layer = layers[name]
        print(f"   {name:<36} {layer['calls']:>8} {layer['self_s']:>12.6f} "
              f"{layer['self_s'] / len(traced):>12.6f} {layer['self_s'] / wall:>7.1%}")
    covered = sum(layer["self_s"] for layer in layers.values())
    print(f"   {'sum of self times':<36} {'':>8} {covered:>12.6f} {'':>12} {covered / wall:>7.1%}")
    print(f"   {'outside every wrapper':<36} {'':>8} {wall - covered:>12.6f} {'':>12} "
          f"{(wall - covered) / wall:>7.1%}")
    print("   inside cli.run but under no other wrapper: cli.run.self_s above")
    print(f"   spans written to {result['spans_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bellchain" / "cli.py").is_file():
        print(f"error: no bellchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A terminated run still kills and waits for its worker (spawn's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    combined = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            metrics = per_layer(result) if args.trace else end_to_end(result)
            print_report(name, args.seed, args.seconds, result, metrics)
            attempted += len(result["ops"])
            failed += sum(1 for op in result["ops"] if op["failure"])
            prefix = f"{name}." if len(names) > 1 else ""
            combined.update({prefix + key: m for key, m in metrics.items()})
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
