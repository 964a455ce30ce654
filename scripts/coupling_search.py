#!/usr/bin/env python3
"""Search for coupling profiles outside the engineered family that still
form a maximal end pair, and report the best witness found."""

from __future__ import annotations

import argparse
from pathlib import Path

from bellchain import SearchProblem, entanglement_at_t0, minimize, validate_profile
from bellchain.serialize import write_json


MAX_ITERS = 400
T_WINDOW = (0.5, 6.0)
BOUNDS = (0.05, 3.0)


def main(
    n_sites: int = 5,
    seed: int = 20260816,
    restarts: int = 8,
    out: Path = Path("coupling_search.json"),
) -> None:
    problem = SearchProblem(n_sites=n_sites, t_window=T_WINDOW, bounds=BOUNDS)
    result = minimize(problem, seed=seed, max_iters=MAX_ITERS, restarts=restarts)
    write_json(out, result)

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
    print(f"wrote {out}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, argument_default=argparse.SUPPRESS)
    parser.add_argument("--n-sites", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--restarts", type=int)
    parser.add_argument("--out", type=Path)
    try:
        main(**vars(parser.parse_args()))
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")
    except OSError as exc:
        parser.exit(3, f"error: {exc}\n")
