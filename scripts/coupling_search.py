#!/usr/bin/env python3
"""Search for coupling profiles outside the engineered family that still
form a maximal end pair, and report the best witness found."""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

from bellchain import SearchProblem, entanglement_at_t0, minimize, validate_profile
from bellchain.serialize import search_result_to_dict, write_json


MAX_ITERS = 400
T_WINDOW = (0.5, 6.0)
BOUNDS = (0.05, 3.0)


@dataclass(frozen=True)
class Config:
    n_sites: int = 5
    seed: int = 20260816
    restarts: int = 8
    out: Path = Path("coupling_search.json")


def main(cfg: Config) -> None:
    problem = SearchProblem(n_sites=cfg.n_sites, t_window=T_WINDOW, bounds=BOUNDS)
    result = minimize(problem, seed=cfg.seed, max_iters=MAX_ITERS, restarts=cfg.restarts)
    write_json(cfg.out, search_result_to_dict(problem, result, cfg.seed))

    print(f"converged: {result.converged}  objective: {result.objective:.3e}")
    print(f"best_time: {result.best_time:.6f}  iterations: {result.iterations}")
    print("couplings:", " ".join(f"{d:.6f}" for d in result.profile.couplings))
    violations = validate_profile(result.profile)
    if violations:
        print("outside the engineered family:")
        for v in violations:
            print(f"  {v}")
    else:
        print("profile has the engineered symmetries to tolerance")
    if result.converged:
        report = entanglement_at_t0(result.profile)
        print(f"concurrence at the profile's own readout time: {report.concurrence:.12f}")
    print(f"wrote {cfg.out}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-sites", type=int, default=Config.n_sites)
    parser.add_argument("--seed", type=int, default=Config.seed)
    parser.add_argument("--restarts", type=int, default=Config.restarts)
    parser.add_argument("--out", type=Path, default=Config.out)
    args = parser.parse_args()
    main(
        Config(
            n_sites=args.n_sites,
            seed=args.seed,
            restarts=args.restarts,
            out=args.out,
        )
    )
