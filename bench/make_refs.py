#!/usr/bin/env python3
"""Regenerate ``references.json``: the payload of every pool op.

    python3 bench/make_refs.py

Run it only at the commit whose outputs define "correct"; the benchmark
compares later commits against these payloads.  For every op the parsed
payload values are stored (checked to 1e-9) and the payload's sha256
(reported, never checked).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

from checks import parse_payload, payload_format
from workloads import LONG_N, WORKLOADS, op_key
from worker import ROOT, REFERENCES, import_cli


def main() -> int:
    cli = import_cli()
    from bellchain.chain import engineered_couplings

    couplings = engineered_couplings(int(LONG_N)).couplings
    for argv in WORKLOADS["long_swap"].pool:
        i = int(argv[argv.index("--swap") + 1])
        if couplings[i - 1] == couplings[i]:
            raise SystemExit(f"swap {i} {i + 1} exchanges equal couplings")

    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="refs-", dir=scratch))
    refs = {}
    try:
        for workload in WORKLOADS.values():
            for argv in workload.pool:
                out = tmp / f"ref.{payload_format(workload.kind)}"
                if cli.run([*argv, "--out", str(out)]) != 0:
                    raise SystemExit(f"reference op failed: {op_key(argv)}")
                data = out.read_bytes()
                refs[op_key(argv)] = {
                    "sha256": hashlib.sha256(data).hexdigest(),
                    "values": parse_payload(data.decode("utf-8"), payload_format(workload.kind)),
                }
                print(f"{workload.name}: {op_key(argv)}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = ",\n".join(f"{json.dumps(key)}: {json.dumps(entry)}" for key, entry in refs.items())
    REFERENCES.write_text('{"ops": {\n' + lines + "\n}}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
