"""Payload digests over a fixed command matrix, for byte-identity checks.

    python tests/payload_matrix.py OUTDIR

runs each command below as ``python -m bellchain`` in its own
interpreter, with the package from this checkout's ``src``, writes its
payload under OUTDIR and prints one ``sha256  argv`` line per command
(argv without ``--out``).  Two listings, from two checkouts or two
environments, are compared with ``diff``.  Exits 1 when any command
fails.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CRITERION_11_WINDOW = ["--t-min", "0.5", "--t-max", "6.0", "--d-lo", "0.05", "--d-hi", "3.0"]

COMMANDS = [
    ["couplings", "--n", "9"],
    ["evolve", "--n", "9", "--t-grid", "0:6.3:0.01"],
    ["evolve", "--n", "401", "--t-grid", "0:6:0.1"],
    ["teleport", "--n", "9", "--a-re", "0.6", "--b-re", "0.8"],
    ["teleport", "--n", "9", "--a-re", "0.6", "--a-im", "0.48", "--b-im", "-0.64"],
    ["teleport", "--n", "9", "--a-re", "0.6", "--b-re", "0.8", "--mode", "sample", "--seed", "3"],
    ["teleport", "--n", "1001"],
    ["feasibility", "--mu", "1", "--gmax", "1.125"],
    ["feasibility", "--mu", "1e4", "--gmax", "7.3e8"],
    ["perturb", "--n", "9", "--swap", "3", "4"],
    ["perturb", "--n", "1001", "--swap", "5", "6"],
    ["perturb", "--n", "9", "--adjacent"],
    ["perturb", "--n", "101", "--adjacent"],
    ["perturb", "--n", "9", "--sigma", "0.0001", "--trials", "100", "--seed", "151270570"],
    ["perturb", "--n", "401", "--sigma", "0.001", "--trials", "5", "--seed", "7"],
    ["search", "--n", "5", "--restarts", "2", "--seed", "20260816", *CRITERION_11_WINDOW],
    ["search", "--n", "7", "--restarts", "1", "--seed", "3"],
    ["evolve", "--n", "4001", "--t-grid", "3.0:3.3:0.005"],
    ["teleport", "--n", "4003"],
    ["perturb", "--n", "4003", "--swap", "100", "101"],
    ["evolve", "--n", "4003", "--t-grid", "3.0:3.3:0.005"],
]

SUFFIX = {"evolve": ".csv", "perturb": ".csv"}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    env.pop("BELLCHAIN_OUT_DIR", None)
    failed = 0
    for k, command in enumerate(COMMANDS):
        out = out_dir / f"{k:02d}-{command[0]}{SUFFIX.get(command[0], '.json')}"
        proc = subprocess.run(
            [sys.executable, "-m", "bellchain", *command, "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            failed += 1
            print(f"FAILED (exit {proc.returncode})  {' '.join(command)}\n{proc.stderr}", end="")
            continue
        print(f"{hashlib.sha256(out.read_bytes()).hexdigest()}  {' '.join(command)}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
