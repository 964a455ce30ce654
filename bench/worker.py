"""Workload process: one fresh interpreter per run, started by ``run.py``.

It imports ``bellchain`` from the checkout's ``src/``, runs one untimed
warm-up op of the workload's kind, prints ``ready`` on stdout, and then
(unless ``--setup-only``) runs timed ops in a closed loop until
``--seconds`` have passed.  Every op is one in-process call to
``bellchain.cli.run(argv)`` with an absolute ``--out`` path in the run
directory; its output is checked and deleted before the next op starts.
With ``--trace 1`` every second op runs with the span wrappers installed
and the others without, so the traced and untraced medians come from the
same process.  Results go to ``<run-dir>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

from checks import check_op, payload_format
from spans import Tracer, summarize
from workloads import WORKLOADS, op_key, op_stream

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references.json"
MIN_OPS = 2  # a traced run needs one traced and one untraced op


def import_cli():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from bellchain import cli

    if Path(cli.__file__).resolve().parent != src / "bellchain":
        raise SystemExit(f"bellchain imported from {cli.__file__}, not from {src}")
    return cli


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        openblas = "unknown"
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_cache": l3,
        "eigenvectors_n4001_bytes": 8 * 4001 * 4001,
    }


def run_op(cli, argv, out: Path) -> tuple[float, str | None]:
    """Wall time of one ``cli.run`` call and a failure reason, if it failed."""
    full = [*argv, "--out", str(out)]
    start = perf_counter()
    try:
        code = cli.run(full)
    except Exception as exc:  # a traceback is exit code 1 for a CLI user
        return perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    wall = perf_counter() - start
    return wall, (None if code == 0 else f"exit code {code}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # An inherited value would redirect relative --out paths.
    os.environ.pop("BELLCHAIN_OUT_DIR", None)
    workload = WORKLOADS[args.workload]
    cli = import_cli()

    out = args.run_dir / f"{os.getpid()}.{payload_format(workload.kind)}"
    manifest = Path(f"{out}.manifest.json")
    _, failure = run_op(cli, workload.warmup, out)
    if failure:
        print(f"warm-up op failed: {failure}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if args.setup_only:
        return 0

    references = json.loads(REFERENCES.read_text(encoding="utf-8"))["ops"]
    tracer = Tracer() if args.trace else None
    records = []
    deadline = perf_counter() + args.seconds
    for k, argv in enumerate(op_stream(args.workload, args.seed)):
        if k >= MIN_OPS and perf_counter() >= deadline:
            break
        for path in (out, manifest):
            path.unlink(missing_ok=True)
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install(k)
        try:
            wall, failure = run_op(cli, argv, out)
        finally:
            if traced:
                tracer.uninstall()
        ref = references.get(op_key(argv))
        identical = False
        if failure is None:
            failure, identical = check_op(workload.kind, out, manifest, ref)
        record = {
            "op": k,
            "argv": argv,
            "wall_s": wall,
            "traced": traced,
            "failure": failure,
            "identical": identical,
            "bytes_written": sum(p.stat().st_size for p in (out, manifest) if p.is_file()),
        }
        if workload.kind == "search" and failure is None:
            payload = json.loads(out.read_text(encoding="utf-8"))
            record["iterations"] = payload["iterations"]
            record["converged"] = payload["converged"]
        if failure:
            print(f"op {k} failed ({op_key(argv)}): {failure}", file=sys.stderr)
        records.append(record)

    result = {
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        result["trace"] = summarize(tracer.spans)
        spans_file = args.run_dir.parent / f"trace-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.spans), encoding="utf-8")
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    (args.run_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
