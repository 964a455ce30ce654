#!/usr/bin/env python3
"""Sweep chain lengths and record end-pair formation at the shared readout time.

Every odd length uses the same readout time pi/mu; the CSV shows both
end probabilities pinned at 1/2 and unit concurrence across the sweep.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

from bellchain import bell_time, engineered_couplings, entanglement_at_t0
from bellchain.serialize import format_float, write_csv


@dataclass(frozen=True)
class Config:
    n_min: int = 3
    n_max: int = 41
    mu: float = 1.0
    out: Path = Path("bell_formation.csv")


def main(cfg: Config) -> None:
    t0 = bell_time(cfg.mu)
    rows = []
    worst = 0.0
    for n in range(cfg.n_min, cfg.n_max + 1, 2):
        report = entanglement_at_t0(engineered_couplings(n, cfg.mu))
        rows.append(
            [
                str(n),
                format_float(abs(report.alpha_first) ** 2),
                format_float(abs(report.alpha_last) ** 2),
                format_float(report.concurrence),
                format_float(report.residual_norm),
            ]
        )
        worst = max(worst, abs(report.concurrence - 1.0))
    write_csv(
        cfg.out,
        ["n_sites", "prob_first", "prob_last", "concurrence", "residual_norm"],
        rows,
    )
    print(f"wrote {cfg.out} ({len(rows)} lengths, shared t0 = {t0:.6f})")
    print(f"worst |concurrence - 1| over the sweep: {worst:.3e}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-min", type=int, default=Config.n_min)
    parser.add_argument("--n-max", type=int, default=Config.n_max)
    parser.add_argument("--mu", type=float, default=Config.mu)
    parser.add_argument("--out", type=Path, default=Config.out)
    args = parser.parse_args()
    main(Config(n_min=args.n_min, n_max=args.n_max, mu=args.mu, out=args.out))
