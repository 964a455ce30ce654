"""Degraded-resource studies and the hardware feasibility bound.

The engineered profile is fragile: permuting two unequal couplings or
spreading all of them with multiplicative noise leaves the end pair
short of maximal entanglement at the readout time, which turns the
downstream teleportation probabilistic.  This module perturbs profiles,
scores the surviving entanglement, converts end amplitudes into a
(renormalized) pure resource for the protocol, and evaluates how long a
chain fits under a hardware coupling ceiling.

The resource behind ``teleport --n`` (``resource_from_profile``) needs
only the two end amplitudes, so it reads them with
``grid_amplitudes`` at the one time pi/mu, the row-pruned moment
recurrence, and never builds the N-site state; a mirror-symmetric
chain reads one end and reuses it for the other.  Sweeps and
``entanglement_at_t0`` build the whole state with ``states_at`` and
``state_at``: their rows report ``residual_norm``, the weight on the
interior.

Sweep rows score ``expected_fidelity`` by teleporting the balanced
input (|0> + |1>)/sqrt(2), the input most sensitive to amplitude skew
in the resource.

Every sweep goes through ``_score``, which never builds a
``CouplingProfile`` per trial: each coupling row is checked as a
``TridiagonalHamiltonian``, a block of rows is evolved by one
``states_at`` call (one Chebyshev recurrence for all rows with K < 8N,
so at t0 all of them, with each row's own bound, K and Bessel row and
the bits that row has alone), and the end amplitudes, concurrence,
``residual_norm`` and resource of the block come from one vectorized
readout, the kernels that ``bell_decomposition`` and
``resource_from_report`` run on one row.
``teleport`` still runs per row: its fidelity is one ``np.vdot`` per
branch, and a batched elementwise dot product gives other last bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .chain import CouplingProfile, TridiagonalHamiltonian, engineered_max_coupling, one_excitation_hamiltonian
from .dynamics import (
    BellDecomposition,
    bell_decomposition,
    bell_time,
    eigendecompose,  # noqa: F401  bench/selftest.py checks the tracer patches it here
    end_pair_readout,
    grid_amplitudes,
    state_at,
    states_at,
)
from .teleport import EntangledResource, expected_fidelity, teleport

_END_WEIGHT_ATOL = 1e-12

# Most amplitudes a sweep evolves and reads out at once (256 KB, and the
# recurrence's block of products about 17 times that), so a long sweep
# never holds trials x N of them.  A row's bits do not depend on it.
_BLOCK_ENTRIES = 1 << 14

# Most trials one noise sweep accepts: about 7 minutes at N = 9 on a 2-core host.
MAX_TRIALS = 1_000_000


@dataclass(frozen=True)
class SwapPerturbation:
    """Exchange couplings i and j (1-based)."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i < 1 or self.j < 1:
            raise ValueError(f"swap indices must be >= 1, got ({self.i}, {self.j})")


@dataclass(frozen=True)
class NoisePerturbation:
    """Multiply every coupling by (1 + eps), eps ~ Gaussian(0, sigma).

    Draws with 1 + eps <= 0 are rejected and redrawn so couplings stay
    positive.  The seed fixes the draw sequence exactly.
    """

    sigma: float
    seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


PerturbationSpec = SwapPerturbation | NoisePerturbation


@dataclass(frozen=True)
class FeasibilityReport:
    """Largest chain allowed by a hardware coupling ceiling.

    n_max = floor(8 g_max / mu) is the paper's estimate; the report is
    degenerate when it falls below 3.  The estimate can overshoot, so
    n_max_exact is the largest odd N whose engineered peak coupling is
    <= g_max (None when not even the 3-site chain fits).  d_max_at_n_max
    is the engineered peak coupling of the largest odd length up to
    n_max (None when degenerate).
    """

    mu: float
    g_max: float
    t0: float
    n_max: int
    n_max_exact: int | None
    degenerate: bool
    d_max_at_n_max: float | None


@dataclass(frozen=True)
class SweepRow:
    trial: int
    param: float
    concurrence: float
    residual_norm: float
    expected_fidelity: float


def perturb(profile: CouplingProfile, spec: PerturbationSpec) -> CouplingProfile:
    """Apply a swap or multiplicative-noise perturbation to the couplings."""
    couplings = list(profile.couplings)
    if isinstance(spec, SwapPerturbation):
        n_couplings = len(couplings)
        for idx in (spec.i, spec.j):
            if not 1 <= idx <= n_couplings:
                raise ValueError(f"swap index {idx} outside 1..{n_couplings}")
        couplings[spec.i - 1], couplings[spec.j - 1] = (
            couplings[spec.j - 1],
            couplings[spec.i - 1],
        )
    elif isinstance(spec, NoisePerturbation):
        couplings = np.asarray(couplings) * _noise_factors(spec.seed, spec.sigma, len(couplings))
    else:
        raise TypeError(f"unknown perturbation spec {spec!r}")
    return CouplingProfile(profile.mu, tuple(couplings))


def _noise_factors(seed: int, sigma: float, size: int) -> np.ndarray:
    """1 + eps for ``size`` couplings, eps ~ Gaussian(0, sigma), in one draw.

    If any 1 + eps <= 0, a fresh generator with the same seed draws them
    one at a time instead, each redrawn until 1 + eps > 0.
    """
    factors = 1.0 + np.random.default_rng(seed).normal(0.0, sigma, size)
    if not factors.min() > 0.0:
        rng = np.random.default_rng(seed)
        for k in range(size):
            eps = rng.normal(0.0, sigma)
            while 1.0 + eps <= 0.0:
                eps = rng.normal(0.0, sigma)
            factors[k] = 1.0 + eps
    return factors


def entanglement_at_t0(profile: CouplingProfile) -> BellDecomposition:
    """Evolve the center-excited state to the readout time pi/mu and score the end pair.

    ``dynamics.state_at`` picks the path: the O(N)-memory Chebyshev
    series whenever it needs fewer than 8N terms, as every chain whose
    couplings the engineered ones bound does at t0, else the dense
    eigensolve.
    """
    return bell_decomposition(
        state_at(one_excitation_hamiltonian(profile), profile.n_sites // 2, bell_time(profile.mu))
    )


def resource_from_report(report: BellDecomposition) -> EntangledResource:
    """Renormalize the end amplitudes into a pure two-qubit resource.

    The excitation sitting on the first site reads as |10>_AB, on the
    last site as |01>_AB; weight left on the interior sites is discarded
    by the renormalization (the caller has report.residual_norm to judge
    how much that hides).
    """
    (alpha01,), (alpha10,) = _renormalized(*np.array([[report.alpha_first], [report.alpha_last]], dtype=complex))
    return EntangledResource(alpha01=alpha01, alpha10=alpha10)


def _renormalized(first: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(alpha01, alpha10) = (last, first) / sqrt(|first|^2 + |last|^2), elementwise.

    ``np.hypot`` and ``np.float_power`` round like abs() and ** 2 of one
    Python number; ``np.abs`` and ``** 2`` over arrays differ in last bits.
    """
    weight = np.float_power(np.hypot(first.real, first.imag), 2) + np.float_power(np.hypot(last.real, last.imag), 2)
    if np.any(weight < _END_WEIGHT_ATOL):
        raise ValueError("end amplitudes carry no weight; no resource to extract")
    scale = 1.0 / np.sqrt(weight)
    return last * scale, first * scale


def resource_from_profile(profile: CouplingProfile) -> EntangledResource:
    """Resource produced by this profile at its own readout time pi/mu.

    It reads only the two end amplitudes of the evolved center
    excitation, each with ``grid_amplitudes`` at the one time pi/mu: on
    every engineered chain a Chebyshev moment recurrence pruned to the
    sites that can reach the end, not the whole state of
    ``entanglement_at_t0``.  When the couplings equal their reverse bit
    for bit, as every engineered profile's do, H and the center start are
    mirror symmetric, so a_N = a_1 exactly: row 0 is read once and serves
    both ends.  Any other profile reads row N-1 as well.
    """
    h, t0 = one_excitation_hamiltonian(profile), bell_time(profile.mu)
    center, couplings = profile.n_sites // 2, profile.couplings
    first = grid_amplitudes(h, 0, center, [t0])
    last = first if couplings == couplings[::-1] else grid_amplitudes(h, profile.n_sites - 1, center, [t0])
    (alpha01,), (alpha10,) = _renormalized(first, last)
    return EntangledResource(alpha01=alpha01, alpha10=alpha10)


def feasibility(mu: float, g_max: float) -> FeasibilityReport:
    """Largest chain whose peak engineered coupling fits under g_max."""
    t0 = bell_time(mu)
    if not g_max > 0:
        raise ValueError(f"g_max must be positive, got {g_max}")
    ratio = 8.0 * g_max / mu
    # From 2**53 on every double is an integer, so the floor below would
    # no longer be an exact chain length (and inf has none at all).
    if not ratio < 2.0**53:
        raise ValueError(f"8*g_max/mu = {ratio!r} is too large for an exact chain-length bound")
    n_max = math.floor(ratio)
    degenerate = n_max < 3
    return FeasibilityReport(
        mu=mu,
        g_max=g_max,
        t0=t0,
        n_max=n_max,
        n_max_exact=_largest_fitting_chain(mu, g_max),
        degenerate=degenerate,
        d_max_at_n_max=None if degenerate else engineered_max_coupling(n_max - 1 + n_max % 2, mu),
    )


def _largest_fitting_chain(mu: float, g_max: float) -> int | None:
    """Largest odd N with engineered_max_coupling(N, mu) <= g_max.

    The peak is mu*M/4 for even M = (N+1)/2 and mu*sqrt(M^2-1)/4 for
    odd M, which grows with M; both are <= g_max up to about M = 4
    g_max/mu.  Start there and step by 2 sites with the exact check.
    """

    def fits(n: int) -> bool:
        return n >= 3 and engineered_max_coupling(n, mu) <= g_max

    n = max(2 * math.floor(4.0 * g_max / mu) - 1, 3)
    while fits(n + 2):
        n += 2
    while n >= 3 and not fits(n):
        n -= 2
    return n if n >= 3 else None


def _score(profile: CouplingProfile, trials) -> list[SweepRow]:
    """One SweepRow per (trial, param, couplings) of ``trials``, each scored at pi/mu.

    ``TridiagonalHamiltonian`` checks each row's couplings, so a noise
    draw that overflows to inf is a ValueError naming its D_i.
    """
    n, t0, s = profile.n_sites, bell_time(profile.mu), 1.0 / math.sqrt(2.0)
    trials, rows = iter(trials), []
    while block := list(itertools.islice(trials, _BLOCK_ENTRIES // n or 1)):
        amplitudes = states_at([TridiagonalHamiltonian(couplings) for _, _, couplings in block], n // 2, t0)
        first, last, concurrence, residual = end_pair_readout(amplitudes)
        resources = zip(*(alpha.tolist() for alpha in _renormalized(first, last)))
        rows += [
            SweepRow(trial, param, c, r, expected_fidelity(teleport(s, s, EntangledResource(*alphas))))
            for (trial, param, _), c, r, alphas in zip(block, concurrence.tolist(), residual.tolist(), resources)
        ]
    return rows


def sweep_row(profile: CouplingProfile, trial: int, param: float) -> SweepRow:
    """Score one (already perturbed) profile at the readout time pi/mu."""
    (row,) = _score(profile, [(trial, param, profile.couplings)])
    return row


def noise_sweep(
    profile: CouplingProfile, sigma: float, trials: int, seed: int
) -> list[SweepRow]:
    """Monte-Carlo sweep over noise realizations; one row per trial.

    Trial k's generator is seeded from word k of the master seed's
    stream, so rows do not depend on evaluation order and a longer sweep
    reproduces a shorter one's prefix.  Trial k's couplings are what
    ``perturb`` with that seed gives.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in 1..{MAX_TRIALS}, got {trials}")
    NoisePerturbation(sigma, seed)  # rejects a bad sigma before any draw
    base = np.asarray(profile.couplings)
    seeds = np.random.SeedSequence(seed).generate_state(trials).tolist()
    noisy = (base * _noise_factors(s, sigma, len(base)) for s in seeds)
    return _score(profile, ((k, sigma, couplings) for k, couplings in enumerate(noisy)))


def adjacent_swap_sweep(profile: CouplingProfile) -> list[SweepRow]:
    """Baseline row plus one row per adjacent coupling swap (i, i+1).

    Row 0 (param 0) is the unperturbed profile; row i scores the profile
    with couplings i and i+1 exchanged, param = i.
    """
    c = profile.couplings
    swapped = ((i, float(i), c[: i - 1] + (c[i], c[i - 1]) + c[i + 1 :]) for i in range(1, len(c)))
    return _score(profile, itertools.chain([(0, 0.0, c)], swapped))
