#!/usr/bin/env python3
"""Sweep chain lengths and record end-pair formation at the shared readout time.

Every odd length uses the same readout time pi/mu; the CSV shows both
end probabilities pinned at 1/2 and unit concurrence across the sweep.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from bellchain import bell_time, engineered_couplings, entanglement_at_t0
from bellchain.serialize import write_csv


def main(
    n_min: int = 3, n_max: int = 41, mu: float = 1.0, out: Path = Path("bell_formation.csv")
) -> None:
    if n_min > n_max:
        raise ValueError(f"empty length range: n_min {n_min} > n_max {n_max}")
    t0 = bell_time(mu)
    rows = []
    worst = 0.0
    for n in range(n_min, n_max + 1, 2):
        report = entanglement_at_t0(engineered_couplings(n, mu))
        prob_first, prob_last = abs(report.alpha_first) ** 2, abs(report.alpha_last) ** 2
        rows.append([n, prob_first, prob_last, report.concurrence, report.residual_norm])
        worst = max(worst, abs(report.concurrence - 1.0))
    write_csv(
        out,
        ["n_sites", "prob_first", "prob_last", "concurrence", "residual_norm"],
        rows,
    )
    print(f"wrote {out} ({len(rows)} lengths, shared t0 = {t0:.6f})")
    print(f"worst |concurrence - 1| over the sweep: {worst:.3e}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, argument_default=argparse.SUPPRESS)
    parser.add_argument("--n-min", type=int)
    parser.add_argument("--n-max", type=int)
    parser.add_argument("--mu", type=float)
    parser.add_argument("--out", type=Path)
    try:
        main(**vars(parser.parse_args()))
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")
    except OSError as exc:
        parser.exit(3, f"error: {exc}\n")
