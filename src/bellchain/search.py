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

``scipy.optimize`` (with ``scipy.sparse`` and the rest it pulls in) is
imported inside the two functions that call it, not at module level, so
that no command but ``search`` loads it.  A ``SearchResult`` names the
problem and seed it answers, so its canonical JSON is the whole payload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import CouplingProfile, _check_odd, one_excitation_hamiltonian
from .dynamics import EigenSystem, eigendecompose, transition_amplitudes

CONVERGED_TOL = 1e-10

# Most restarts one search accepts: about 18 minutes at N = 5 on a 2-core host.
MAX_RESTARTS = 10_000

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
        _check_odd(self.n_sites)
        t_lo, t_hi = self.t_window
        # The result's mu is pi / best_time with best_time >= t_lo.
        if not (0 < t_lo < t_hi < math.inf and math.pi / t_lo < math.inf):
            raise ValueError(
                f"t_window must be finite with 0 < t_lo < t_hi and pi/t_lo finite, "
                f"got {self.t_window}"
            )
        d_lo, d_hi = self.bounds
        if not 0 < d_lo < d_hi < math.inf:
            raise ValueError(
                f"bounds must be finite with 0 < d_lo < d_hi, got {self.bounds}"
            )
        # Eigenvalues lie in [-2 d_hi, 2 d_hi] and phases reach 2 d_hi t_hi;
        # both must stay finite, or every eigensolve of the search is lost.
        if not math.isfinite(2.0 * d_hi * t_hi):
            raise ValueError(
                f"bound d_hi = {d_hi!r} with t_hi = {t_hi!r} overflows the "
                f"spectrum (2 d_hi) or the phases (2 d_hi t_hi)"
            )

    @property
    def n_free(self) -> int:
        return (self.n_sites - 1) // 2


@dataclass(frozen=True)
class SearchResult:
    problem: SearchProblem
    seed: int
    profile: CouplingProfile
    best_time: float
    objective: float
    iterations: int
    converged: bool


def mirror_profile(free: np.ndarray, mu: float = 1.0) -> CouplingProfile:
    """Reflect the free couplings D_1 ... D_m into the full mirror-symmetric
    profile of the 2m + 1 site chain."""
    half = [float(d) for d in free]
    return CouplingProfile(mu, tuple(half + half[::-1]))


def _objective_on_grid(eig: EigenSystem, t_grid: np.ndarray) -> np.ndarray:
    """Squared deviation of both end probabilities from 1/2 at each time of ``t_grid``."""
    center = (eig.dimension - 1) // 2
    amp_first, amp_last = transition_amplitudes(eig, [0, eig.dimension - 1], center, t_grid)
    p_first = np.abs(amp_first) ** 2
    p_last = np.abs(amp_last) ** 2
    return (p_first - 0.5) ** 2 + (p_last - 0.5) ** 2


def _best_time(eig: EigenSystem, window: tuple[float, float]) -> tuple[float, float]:
    """Scan the window on a dense grid, then refine around the best point
    with ``scipy.optimize.minimize_scalar``."""
    from scipy.optimize import minimize_scalar

    t_grid = np.linspace(window[0], window[1], _SCAN_POINTS)
    values = _objective_on_grid(eig, t_grid)
    k = int(np.argmin(values))
    t_best, f_best = float(t_grid[k]), float(values[k])

    lo = float(t_grid[max(k - 1, 0)])
    hi = float(t_grid[min(k + 1, _SCAN_POINTS - 1)])
    if hi > lo:
        refined = minimize_scalar(
            lambda t: float(_objective_on_grid(eig, np.array([t]))[0]),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-12},
        )
        if refined.fun < f_best:
            t_best, f_best = float(refined.x), float(refined.fun)
    return t_best, f_best


def _evaluate(free: np.ndarray, problem: SearchProblem) -> tuple[float, float]:
    """Best (objective, time) of the free couplings, which Nelder-Mead has already clipped to the bounds."""
    eig = eigendecompose(one_excitation_hamiltonian(mirror_profile(free)))
    t_best, f_best = _best_time(eig, problem.t_window)
    return f_best, t_best


def minimize(
    problem: SearchProblem,
    seed: int,
    max_iters: int = 400,
    restarts: int = 8,
) -> SearchResult:
    """Search for a profile meeting the end-probability condition.

    Runs ``restarts`` Nelder-Mead descents from seeded random starting
    points and keeps the best result by (objective, restart index); each
    candidate's readout time comes from the inner window scan.
    Non-convergence is reported in the result, never raised.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not 1 <= restarts <= MAX_RESTARTS:
        raise ValueError(f"restarts must be in 1..{MAX_RESTARTS}, got {restarts}")

    import scipy.optimize

    d_lo, d_hi = problem.bounds
    children = np.random.SeedSequence(seed).spawn(restarts)
    best: tuple[float, int, np.ndarray, float, int] | None = None
    for idx in range(restarts):
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
        candidate = (f_final, idx, res.x, t_final, int(res.nit))
        if best is None or (candidate[0], candidate[1]) < (best[0], best[1]):
            best = candidate

    f_best, _, x_best, t_best, nit = best
    return SearchResult(
        problem=problem,
        seed=seed,
        profile=mirror_profile(x_best, mu=math.pi / t_best),
        best_time=t_best,
        objective=f_best,
        iterations=max(nit, 1),
        converged=f_best < CONVERGED_TOL,
    )
