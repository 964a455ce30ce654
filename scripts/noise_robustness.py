#!/usr/bin/env python3
"""Monte-Carlo robustness of the end-pair entanglement under coupling noise.

For each noise level sigma, perturbs every coupling multiplicatively and
aggregates the surviving concurrence and the expected teleportation
fidelity of the balanced input over the trials.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from bellchain import engineered_couplings, noise_sweep
from bellchain.serialize import write_csv


def main(
    n_sites: int = 9,
    mu: float = 1.0,
    sigmas: tuple[float, ...] = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2),
    trials: int = 100,
    seed: int = 7,
    out: Path = Path("noise_robustness.csv"),
) -> None:
    profile = engineered_couplings(n_sites, mu)
    rows = []
    for sigma in sigmas:
        sweep = noise_sweep(profile, sigma, trials, seed)
        concurrences = [r.concurrence for r in sweep]
        fidelities = [r.expected_fidelity for r in sweep]
        mean_c, min_c = sum(concurrences) / len(concurrences), min(concurrences)
        mean_f = sum(fidelities) / len(fidelities)
        rows.append([sigma, mean_c, min_c, mean_f])
        print(f"sigma={sigma:8.1e}  mean C={mean_c:.6f}  min C={min_c:.6f}  mean F={mean_f:.8f}")
    write_csv(
        out,
        ["sigma", "mean_concurrence", "min_concurrence", "mean_expected_fidelity"],
        rows,
    )
    print(f"wrote {out} ({trials} trials per level, seed {seed})")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, argument_default=argparse.SUPPRESS)
    parser.add_argument("--n-sites", type=int)
    parser.add_argument("--mu", type=float)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", type=Path)
    try:
        main(**vars(parser.parse_args()))
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")
    except OSError as exc:
        parser.exit(3, f"error: {exc}\n")
