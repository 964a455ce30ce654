"""Payload digests over a fixed command matrix, for byte-identity checks.

    python tests/payload_matrix.py OUTDIR
    python tests/payload_matrix.py --compare DIR_A DIR_B

The first form runs each command below as ``python -m bellchain`` in its
own interpreter, with the package from this checkout's ``src``, writes
its payload under OUTDIR and prints one ``sha256  config_digest  argv``
line per command: the payload's sha256, its manifest's config digest
and argv without ``--out``.  Two listings, from two checkouts or two
environments, are compared with ``diff``.  Exits 1 when any command
fails.

``--compare`` reads the payloads two such runs wrote and prints one line
per command: ``identical``, or the largest absolute difference over the
numeric values (JSON numbers, CSV cells).  It exits 1 when a payload is
missing or a non-numeric value (a key, a string, a null, the shape)
differs.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import hashlib
import json
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
    ["teleport", "--n", "9", "--a-re", "0.6", "--b-re", "0.8", "--seed", "3"],
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
    ["couplings", "--n", "9", "--format", "csv"],
    ["feasibility", "--mu", "1", "--gmax", "0.3"],
    ["perturb", "--n", "4001", "--sigma", "0.001", "--trials", "4", "--seed", "7"],
]

FORMAT = {"evolve": "csv", "perturb": "csv"}


def payload_name(k: int, command: list[str]) -> str:
    """The file name of command ``k``'s payload; its suffix is the payload's format."""
    fmt = command[command.index("--format") + 1] if "--format" in command else FORMAT.get(command[0], "json")
    return f"{k:02d}-{command[0]}.{fmt}"


def _tokens(path: Path) -> list:
    """A payload's values in reading order, with markers for its shape.

    A CSV cell that spells a float is that float; a JSON object gives its
    keys as strings beside its values.
    """
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        tokens = []
        for line in text.splitlines():
            for cell in line.split(","):
                try:
                    tokens.append(float(cell))
                except ValueError:
                    tokens.append(cell)
            tokens.append("\n")
        return tokens

    def walk(value):
        if isinstance(value, dict):
            yield "{"
            for key, item in value.items():
                yield str(key)
                yield from walk(item)
            yield "}"
        elif isinstance(value, list):
            yield "["
            for item in value:
                yield from walk(item)
            yield "]"
        else:
            yield value

    return list(walk(json.loads(text)))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _difference(a: Path, b: Path) -> tuple[str, bool]:
    """(status, whether the two payloads differ only in numeric values)."""
    tokens_a, tokens_b = _tokens(a), _tokens(b)
    if len(tokens_a) != len(tokens_b):
        return f"shapes differ: {len(tokens_a)} against {len(tokens_b)} values", False
    largest = 0.0
    for x, y in zip(tokens_a, tokens_b):
        if _is_number(x) and _is_number(y):
            largest = max(largest, abs(x - y))
        elif x != y or type(x) is not type(y):
            return f"non-numeric values differ: {x!r} against {y!r}", False
    return f"max abs diff {largest:.3g}", True


def compare(dir_a: Path, dir_b: Path) -> int:
    """Print one line per command: ``identical`` or the largest numeric difference; 1 on any other difference."""
    failed = 0
    for k, command in enumerate(COMMANDS):
        a, b = dir_a / payload_name(k, command), dir_b / payload_name(k, command)
        missing = [str(path) for path in (a, b) if not path.is_file()]
        if missing:
            status, ok = f"missing {' '.join(missing)}", False
        elif a.read_bytes() == b.read_bytes():
            status, ok = "identical", True
        else:
            status, ok = _difference(a, b)
        failed += not ok
        print(f"{status}  {' '.join(command)}")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    env.pop("BELLCHAIN_OUT_DIR", None)
    failed = 0
    for k, command in enumerate(COMMANDS):
        out = out_dir / payload_name(k, command)
        proc = subprocess.run(
            [sys.executable, "-m", "bellchain", *command, "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            failed += 1
            print(f"FAILED (exit {proc.returncode})  {' '.join(command)}\n{proc.stderr}", end="")
            continue
        digest = json.loads(out.with_name(out.name + ".manifest.json").read_text())["config_digest"]
        print(f"{hashlib.sha256(out.read_bytes()).hexdigest()}  {digest}  {' '.join(command)}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
