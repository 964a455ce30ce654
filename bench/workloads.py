"""Workload definitions and the seeded op generator.

An op is one ``bellchain`` command line without its ``--out`` flag.  Each
workload draws its ops from a fixed pool whose reference payloads are
stored in ``references.json``; the workload seed only fixes the order in
which the pool is visited (a fresh seeded shuffle per pass), so the same
seed gives the same op list and every run of a few passes covers the
whole pool.  Everything here is standard library only: the harness
process never imports the program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

LONG_N = "4001"
EVOLVE_GRID = "3.0:3.3:0.005"
EVOLVE_POINTS = 61
NOISE_SIGMAS = ("0.0001", "0.0003", "0.001", "0.003", "0.01")
SEARCH_WINDOW = [
    "--t-min", "0.5", "--t-max", "6.0", "--d-lo", "0.05", "--d-hi", "3.0"
]

# Swapping D_1000/D_1001, D_2000/D_2001 or D_3000/D_3001 of the N = 4001
# profile exchanges equal couplings, so those indices are left out.
_SWAP_INDICES = (125, 498, 749, 1150, 1795, 1986, 2147, 2175, 2720, 3252, 3658, 3851)
_NOISE_SEEDS = (151270570, 297405791, 1663191806, 1699000753)
_SEARCH_SEEDS = (
    20260816, 1228827727, 373216482, 1806498902,
    1219680293, 1548970611, 1945908165, 2001622107,
)
# Integer 4-vectors normalized at import into teleport inputs (a, b);
# IEEE sqrt and division make the decimal strings platform-independent.
_TELEPORT_VECTORS = (
    (34, 93, 43, 42), (-15, 51, -54, 23), (32, 2, 41, 45), (-77, -54, 82, -52),
    (-58, -35, -19, 16), (96, 45, -65, 82), (-98, -16, -54, -96), (43, -78, -7, -17),
    (-2, 31, -12, 27), (-2, 97, -57, -38), (-21, -17, -9, 3), (-17, 10, -22, -6),
)


def _teleport_args(n: str, vec: tuple[int, ...]) -> list[str]:
    norm = math.sqrt(sum(x * x for x in vec))
    a_re, a_im, b_re, b_im = (repr(x / norm) for x in vec)
    return [
        "teleport", "--n", n, f"--a-re={a_re}", f"--a-im={a_im}",
        f"--b-re={b_re}", f"--b-im={b_im}",
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # the bellchain subcommand every op of this workload runs
    why: str
    pool: tuple[tuple[str, ...], ...]
    warmup: tuple[str, ...]  # untimed op of the same kind at its smallest size


def _workload(name, kind, why, pool, warmup) -> Workload:
    return Workload(name, kind, why, tuple(tuple(p) for p in pool), tuple(warmup))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        _workload(
            "long_evolve",
            "evolve",
            "N=4001 evolve: two-row spectral readout over 61 times; the eigensolve "
            "dominates and its 128 MB eigenvectors exceed L3",
            [["evolve", "--n", LONG_N, "--t-grid", EVOLVE_GRID]],
            ["evolve", "--n", "9", "--t-grid", EVOLVE_GRID],
        ),
        _workload(
            "long_teleport",
            "teleport",
            "N=4001 teleport: full-state evolve on the mirror-symmetric engineered "
            "chain, then the protocol on a seeded input",
            [_teleport_args(LONG_N, v) for v in _TELEPORT_VECTORS],
            _teleport_args("9", _TELEPORT_VECTORS[0]),
        ),
        _workload(
            "long_swap",
            "perturb",
            "N=4001 perturb --swap: full-state evolve on an asymmetric chain, so "
            "paths that only help symmetric chains show",
            [["perturb", "--n", LONG_N, "--swap", str(i), str(i + 1)] for i in _SWAP_INDICES],
            ["perturb", "--n", "9", "--swap", "3", "4"],
        ),
        _workload(
            "noise_sweep",
            "perturb",
            "N=9 perturb --sigma, 100 trials per op: per-call overhead dominates "
            "and teleport() is about half; batching moves it",
            [
                ["perturb", "--n", "9", "--sigma", s, "--trials", "100", "--seed", str(seed)]
                for s in NOISE_SIGMAS
                for seed in _NOISE_SEEDS
            ],
            ["perturb", "--n", "9", "--sigma", "0.001", "--trials", "3", "--seed", "0"],
        ),
        _workload(
            "search",
            "search",
            "N=5 search, 1 restart per op: the only workload where search does "
            "real work, about 200 tiny eigensolves per op",
            [
                ["search", "--n", "5", "--restarts", "1", *SEARCH_WINDOW, "--seed", str(s)]
                for s in _SEARCH_SEEDS
            ],
            ["search", "--n", "5", "--restarts", "1", *SEARCH_WINDOW, "--seed", "0"],
        ),
    )
}


def op_key(argv) -> str:
    """The reference-table key of an op: its argv joined by spaces."""
    return " ".join(argv)


def op_stream(workload: str, seed: int) -> Iterator[list[str]]:
    """Endless seeded sequence of ops: one shuffled pass over the pool after another."""
    pool = list(WORKLOADS[workload].pool)
    rng = random.Random(seed)
    while True:
        order = list(range(len(pool)))
        rng.shuffle(order)
        for i in order:
            yield list(pool[i])


def ops(workload: str, seed: int, count: int) -> list[list[str]]:
    return list(islice(op_stream(workload, seed), count))
