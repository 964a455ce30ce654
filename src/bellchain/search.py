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

One evaluation of Nelder-Mead solves the candidate's eigensystem once
and forms its two end weight rows u_1 u_center and u_N u_center once
(``_objective``); every time it is asked about then costs one phase
block summed against those rows by ``dynamics._spectral_sums``, the
package's one dense spectral kernel.  The 257-point scan grid is made
once per ``minimize``.  The best scan point is refined between its
neighbours by ``_minimize_scalar_bounded``, a port of scipy's bounded
Brent loop to Python floats that returns scipy's bits, so the search
and its payloads are those of ``scipy.optimize.minimize_scalar``
without its per-step overhead.

The descent itself is ``_nelder_mead``, a port of scipy's bounded
Nelder-Mead loop that keeps only what ``minimize`` asks of it and does
scipy's numpy operations in scipy's order, so its points and iteration
counts are those of ``scipy.optimize.minimize(method="Nelder-Mead")``.
No part of the search imports ``scipy.optimize`` (nor the
``scipy.sparse`` and ``scipy.special`` it pulls in): ``search`` loads
only the ``scipy.linalg`` of its eigensolves.  A ``SearchResult`` names the
problem and seed it answers, so its canonical JSON is the whole payload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import CouplingProfile, TridiagonalHamiltonian, _check_odd
from .dynamics import EigenSystem, _spectral_sums, eigendecompose

CONVERGED_TOL = 1e-10

# Most restarts one search accepts: about 6.5 minutes at N = 5 on a 2-core host
# (19 s per 500 restarts with the default window).
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


def _objective(eig: EigenSystem):
    """The objective of one eigensystem: (on a 1-D float array of times, at one float time).

    At each time it is the squared deviation of both end probabilities
    from 1/2.  The two weight rows u_1 u_center and u_N u_center are
    formed here, once, and cast to complex, and each call only sums them
    against the phases.
    ``at_time`` takes the moduli from numpy, as ``on_grid`` does, and
    then squares, subtracts and adds in Python floats: the same roundings
    in the same order, so the same bits as ``on_grid`` at that time.
    """
    u, center = eig.eigenvectors, (eig.dimension - 1) // 2
    weights = ((u[0] * u[center]).astype(complex), (u[-1] * u[center]).astype(complex))
    eigenvalues = eig.eigenvalues

    def on_grid(t_grid: np.ndarray) -> np.ndarray:
        amp_first, amp_last = _spectral_sums(eigenvalues, weights, t_grid)
        p_first = np.abs(amp_first) ** 2
        p_last = np.abs(amp_last) ** 2
        return (p_first - 0.5) ** 2 + (p_last - 0.5) ** 2

    def at_time(t: float) -> float:
        amp_first, amp_last = _spectral_sums(eigenvalues, weights, np.array([t]))
        a_first, a_last = float(np.abs(amp_first)[0]), float(np.abs(amp_last)[0])
        d_first, d_last = a_first * a_first - 0.5, a_last * a_last - 0.5
        return d_first * d_first + d_last * d_last

    return on_grid, at_time


def _minimize_scalar_bounded(func, lo: float, hi: float, xatol: float = 1e-12, maxfun: int = 500):
    """(x, f) of the minimum of ``func`` on [lo, hi], as ``scipy.optimize.fminbound`` finds it.

    scipy's bounded Brent loop (golden-section steps with parabolic
    interpolation) ported to Python floats, step for step: the same
    steps, comparisons, stopping rule and ``maxfun`` cut, so it returns
    the bits scipy returns, without the numpy-scalar bookkeeping each of
    scipy's iterations pays.  scipy's np.sign(v) + (v == 0) is the sign
    that counts zero as positive; every x tried stays finite, so the NaN
    rules of np.sign and np.maximum never apply.  A NaN value of ``func``
    only fails its comparisons, as in scipy.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic step
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0 else 1.0)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx


def _nelder_mead(func, x0: np.ndarray, lo: float, hi: float, maxiter: int, xatol: float, fatol: float):
    """(x, nit) of ``scipy.optimize.minimize(func, x0, method="Nelder-Mead",
    bounds=[(lo, hi)] * len(x0), options={"maxiter", "xatol", "fatol"})``.

    scipy's loop step for step: coefficients rho = 1, chi = 2, psi = sigma
    = 1/2; a first simplex of 5 % steps whose vertices above ``hi`` are
    reflected back into the box; every trial point clipped; the vertices
    reordered by ``np.argsort`` and ``np.take`` of their values (twice
    after the first evaluations, as scipy does) and after each
    iteration.  The centroid, the sort and the clip are scipy's numpy
    calls, so roundings and the order of tied or NaN values agree and
    the same points are evaluated.  Iterations count from 1, as scipy's
    ``nit`` does.  With ``0 < lo < hi`` no start coordinate is 0, so
    scipy's step from a zero coordinate never applies.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    n = len(x0)
    x0 = np.clip(x0, lo, hi)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k]
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)
    fsim = np.array([func(vertex) for vertex in sim], dtype=float)
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)

    nit = 1
    while nit < maxiter:
        if np.max(np.abs(sim[1:] - sim[0])) <= xatol and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = np.clip((1 + rho) * xbar - rho * sim[-1], lo, hi)
        fxr = func(xr)
        shrink = False
        if fxr < fsim[0]:
            xe = np.clip((1 + rho * chi) * xbar - rho * chi * sim[-1], lo, hi)
            fxe = func(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:  # outside contraction
            xc = np.clip((1 + psi * rho) * xbar - psi * rho * sim[-1], lo, hi)
            fxc = func(xc)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:  # inside contraction, also when fxr is NaN
            xcc = np.clip((1 - psi) * xbar + psi * sim[-1], lo, hi)
            fxcc = func(xcc)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = np.clip(sim[0] + sigma * (sim[j] - sim[0]), lo, hi)
                fsim[j] = func(sim[j])
        nit += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], nit


def _evaluate(free: np.ndarray, t_grid: np.ndarray) -> tuple[float, float]:
    """Best (objective, time) of the free couplings, which Nelder-Mead has already clipped to the bounds.

    The mirrored couplings go straight into a ``TridiagonalHamiltonian``,
    whose check is their only one.  The time is the best point of the
    scan ``t_grid``, refined between its two neighbours by
    ``_minimize_scalar_bounded``.
    """
    half = free.tolist()
    on_grid, at_time = _objective(eigendecompose(TridiagonalHamiltonian((*half, *half[::-1]))))
    values = on_grid(t_grid)
    k = int(np.argmin(values))
    t_best, f_best = float(t_grid[k]), float(values[k])

    lo = float(t_grid[max(k - 1, 0)])
    hi = float(t_grid[min(k + 1, len(t_grid) - 1)])
    if hi > lo:
        t, f = _minimize_scalar_bounded(at_time, lo, hi)
        if f < f_best:
            t_best, f_best = t, f
    return f_best, t_best


def minimize(
    problem: SearchProblem,
    seed: int,
    max_iters: int = 400,
    restarts: int = 8,
) -> SearchResult:
    """Search for a profile meeting the end-probability condition.

    Runs ``restarts`` bounded Nelder-Mead descents (``_nelder_mead``,
    at most ``max_iters`` iterations each) from seeded random starting
    points and keeps the best result by (objective, restart index); each
    candidate's readout time comes from the inner window scan, and the
    vertex a descent returns keeps the (objective, time) of the
    evaluation Nelder-Mead made of it, so it is not solved again.  The
    result's ``iterations`` are the winning descent's, counted from 1 as
    scipy counts them.  Non-convergence is reported in the result, never
    raised.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not 1 <= restarts <= MAX_RESTARTS:
        raise ValueError(f"restarts must be in 1..{MAX_RESTARTS}, got {restarts}")

    d_lo, d_hi = problem.bounds
    t_grid = np.linspace(*problem.t_window, _SCAN_POINTS)
    children = np.random.SeedSequence(seed).spawn(restarts)
    best: tuple[float, int, np.ndarray, float, int] | None = None
    for idx in range(restarts):
        rng = np.random.default_rng(children[idx])
        start = rng.uniform(d_lo, d_hi, size=problem.n_free)
        evaluated: dict[bytes, tuple[float, float]] = {}

        def objective(p: np.ndarray) -> float:
            evaluated[p.tobytes()] = result = _evaluate(p, t_grid)
            return result[0]

        x, nit = _nelder_mead(objective, start, d_lo, d_hi, max_iters, xatol=1e-10, fatol=1e-14)
        f_final, t_final = evaluated[x.tobytes()]  # the returned vertex is one Nelder-Mead evaluated
        candidate = (f_final, idx, x, t_final, nit)
        if best is None or (candidate[0], candidate[1]) < (best[0], best[1]):
            best = candidate

    f_best, _, x_best, t_best, nit = best
    return SearchResult(
        problem=problem,
        seed=seed,
        profile=mirror_profile(x_best, mu=math.pi / t_best),
        best_time=t_best,
        objective=f_best,
        iterations=nit,
        converged=f_best < CONVERGED_TOL,
    )
