"""Derivative-free search for alternative maximally entangling profiles.

Candidates are mirror-symmetric coupling profiles (that symmetry is what
makes the two end amplitudes equal); the stronger structure of the
engineered family is deliberately NOT imposed, so the optimizer is free
to land on profiles outside it.  The objective penalizes the squared
deviation of both end-site probabilities from 1/2, minimized jointly
over the free couplings (Nelder-Mead with bounds) and the readout time
(dense scan plus bounded 1-D refinement inside the window).

A returned profile carries mu = pi / best_time, so its nominal readout
time is exactly the time the search found.

Both end amplitudes come from ``dynamics.transition_amplitudes``, the
package's one spectral kernel, over the whole scan grid at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .chain import CouplingProfile, one_excitation_hamiltonian
from .dynamics import EigenSystem, eigendecompose, transition_amplitudes

CONVERGED_TOL = 1e-10

_SCAN_POINTS = 257


@dataclass(frozen=True)
class SearchProblem:
    """Mirror-symmetric profile search space for an odd n-site chain.

    free couplings: (n_sites - 1) / 2 values, reflected to full length;
    t_window: readout times scanned; bounds: box for every coupling.
    """

    n_sites: int
    t_window: tuple[float, float] = (0.1, 10.0)
    bounds: tuple[float, float] = (0.05, 4.0)

    def __post_init__(self) -> None:
        if self.n_sites < 3 or self.n_sites % 2 == 0:
            raise ValueError(f"n_sites must be an odd integer >= 3, got {self.n_sites}")
        t_lo, t_hi = self.t_window
        if not 0 <= t_lo < t_hi < math.inf:
            raise ValueError(
                f"t_window must be finite with 0 <= t_lo < t_hi, got {self.t_window}"
            )
        d_lo, d_hi = self.bounds
        if not 0 < d_lo < d_hi < math.inf:
            raise ValueError(
                f"bounds must be finite with 0 < d_lo < d_hi, got {self.bounds}"
            )

    @property
    def n_free(self) -> int:
        return (self.n_sites - 1) // 2


@dataclass(frozen=True)
class SearchResult:
    profile: CouplingProfile
    best_time: float
    objective: float
    iterations: int
    converged: bool


def mirror_profile(free: np.ndarray, n_sites: int, mu: float = 1.0) -> CouplingProfile:
    """Reflect the free couplings into a full mirror-symmetric profile."""
    half = [float(d) for d in free]
    if len(half) != (n_sites - 1) // 2:
        raise ValueError(
            f"need {(n_sites - 1) // 2} free couplings for n_sites={n_sites}, "
            f"got {len(half)}"
        )
    return CouplingProfile(n_sites=n_sites, mu=mu, couplings=tuple(half + half[::-1]))


def objective(profile: CouplingProfile, t: float) -> float:
    """Squared deviation of both end probabilities from 1/2 at time t."""
    eig = eigendecompose(one_excitation_hamiltonian(profile))
    return float(_objective_on_grid(eig, np.array([t]))[0])


def _objective_on_grid(eig: EigenSystem, t_grid: np.ndarray) -> np.ndarray:
    center = (eig.dimension - 1) // 2
    amp_first, amp_last = transition_amplitudes(eig, [0, eig.dimension - 1], center, t_grid)
    p_first = np.abs(amp_first) ** 2
    p_last = np.abs(amp_last) ** 2
    return (p_first - 0.5) ** 2 + (p_last - 0.5) ** 2


def _best_time(eig: EigenSystem, window: tuple[float, float]) -> tuple[float, float]:
    """Scan the window on a dense grid, then refine around the best point."""
    t_grid = np.linspace(window[0], window[1], _SCAN_POINTS)
    values = _objective_on_grid(eig, t_grid)
    k = int(np.argmin(values))
    t_best, f_best = float(t_grid[k]), float(values[k])

    lo = float(t_grid[max(k - 1, 0)])
    hi = float(t_grid[min(k + 1, _SCAN_POINTS - 1)])
    if hi > lo:
        refined = scipy.optimize.minimize_scalar(
            lambda t: float(_objective_on_grid(eig, np.array([t]))[0]),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-12},
        )
        if refined.fun < f_best:
            t_best, f_best = float(refined.x), float(refined.fun)
    return t_best, f_best


def _evaluate(free: np.ndarray, problem: SearchProblem) -> tuple[float, float]:
    clipped = np.clip(free, problem.bounds[0], problem.bounds[1])
    profile = mirror_profile(clipped, problem.n_sites)
    eig = eigendecompose(one_excitation_hamiltonian(profile))
    t_best, f_best = _best_time(eig, problem.t_window)
    return f_best, t_best


def minimize(
    problem: SearchProblem,
    seed: int,
    max_iters: int = 400,
    restarts: int = 8,
    x0: np.ndarray | None = None,
) -> SearchResult:
    """Search for a profile meeting the end-probability condition.

    Runs ``restarts`` Nelder-Mead descents from seeded random starting
    points (restart 0 uses ``x0`` when given) and keeps the best result
    by (objective, restart index); each candidate's readout time comes
    from the inner window scan.  Non-convergence is reported in the
    result, never raised.  A starting point already below the threshold
    is returned as-is after a single evaluation.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (problem.n_free,):
            raise ValueError(
                f"x0 must have shape ({problem.n_free},), got {x0.shape}"
            )
        f0, t0 = _evaluate(x0, problem)
        if f0 < CONVERGED_TOL:
            return _package(x0, t0, f0, iterations=1, problem=problem)

    d_lo, d_hi = problem.bounds
    children = np.random.SeedSequence(seed).spawn(restarts)
    best: tuple[float, int, np.ndarray, float, int] | None = None
    for idx in range(restarts):
        if idx == 0 and x0 is not None:
            start = x0
        else:
            rng = np.random.default_rng(children[idx])
            start = rng.uniform(d_lo, d_hi, size=problem.n_free)
        res = scipy.optimize.minimize(
            lambda p: _evaluate(p, problem)[0],
            start,
            method="Nelder-Mead",
            bounds=[(d_lo, d_hi)] * problem.n_free,
            options={"maxiter": max_iters, "xatol": 1e-10, "fatol": 1e-14},
        )
        f_final, t_final = _evaluate(res.x, problem)
        candidate = (f_final, idx, np.clip(res.x, d_lo, d_hi), t_final, int(res.nit))
        if best is None or (candidate[0], candidate[1]) < (best[0], best[1]):
            best = candidate

    f_best, _, x_best, t_best, nit = best
    return _package(x_best, t_best, f_best, iterations=max(nit, 1), problem=problem)


def _package(
    free: np.ndarray,
    best_time: float,
    objective_value: float,
    iterations: int,
    problem: SearchProblem,
) -> SearchResult:
    profile = mirror_profile(
        np.clip(free, problem.bounds[0], problem.bounds[1]),
        problem.n_sites,
        mu=math.pi / best_time,
    )
    return SearchResult(
        profile=profile,
        best_time=best_time,
        objective=objective_value,
        iterations=iterations,
        converged=objective_value < CONVERGED_TOL,
    )
