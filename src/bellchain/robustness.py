"""Degraded-resource studies and the hardware feasibility bound.

The engineered profile is fragile: permuting two unequal couplings or
spreading all of them with multiplicative noise leaves the end pair
short of maximal entanglement at the readout time, which turns the
downstream teleportation probabilistic.  This module perturbs profiles,
scores the surviving entanglement, converts end amplitudes into a
(renormalized) pure resource for the protocol, and evaluates how long a
chain fits under a hardware coupling ceiling.

Sweep rows score ``expected_fidelity`` by teleporting the balanced
input (|0> + |1>)/sqrt(2), the input most sensitive to amplitude skew
in the resource.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import CouplingProfile, engineered_max_coupling, one_excitation_hamiltonian
from .dynamics import (
    bell_decomposition,
    bell_time,
    center_excited_state,
    concurrence_ab,
    eigendecompose,
    evolve,
)
from .teleport import EntangledResource, expected_fidelity, teleport

_END_WEIGHT_ATOL = 1e-12


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
class EntanglementReport:
    """End-pair entanglement of an evolved chain state."""

    concurrence: float
    alpha_first: complex
    alpha_last: complex
    residual_norm: float


@dataclass(frozen=True)
class FeasibilityReport:
    """Largest chain allowed by a hardware coupling ceiling.

    n_max = floor(8 g_max / mu) is the paper's estimate; the report is
    degenerate when it falls below 3.  The estimate can overshoot, so
    n_max_exact is the largest odd N whose engineered peak coupling is
    <= g_max (None when not even the 3-site chain fits).
    """

    mu: float
    g_max: float
    t0: float
    n_max: int
    degenerate: bool
    n_max_exact: int | None

    def d_max_at(self, n_sites: int) -> float:
        """Peak coupling of the engineered n-site profile at this mu."""
        return engineered_max_coupling(n_sites, self.mu)


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
        rng = np.random.default_rng(spec.seed)
        for k in range(len(couplings)):
            eps = rng.normal(0.0, spec.sigma)
            while 1.0 + eps <= 0.0:
                eps = rng.normal(0.0, spec.sigma)
            couplings[k] *= 1.0 + eps
    else:
        raise TypeError(f"unknown perturbation spec {spec!r}")
    return CouplingProfile(
        n_sites=profile.n_sites, mu=profile.mu, couplings=tuple(couplings)
    )


def entanglement_at_time(profile: CouplingProfile, t: float) -> EntanglementReport:
    """Evolve the center-excited state to time t and score the end pair."""
    eig = eigendecompose(one_excitation_hamiltonian(profile))
    state = evolve(eig, center_excited_state(profile.n_sites), t)
    decomp = bell_decomposition(state)
    return EntanglementReport(
        concurrence=concurrence_ab(state),
        alpha_first=decomp.alpha_first,
        alpha_last=decomp.alpha_last,
        residual_norm=decomp.beta_norm,
    )


def entanglement_at_t0(profile: CouplingProfile) -> EntanglementReport:
    """Score the end pair at the unperturbed design's readout time pi/mu."""
    return entanglement_at_time(profile, bell_time(profile.mu))


def resource_from_report(report: EntanglementReport) -> EntangledResource:
    """Renormalize the end amplitudes into a pure two-qubit resource.

    The excitation sitting on the first site reads as |10>_AB, on the
    last site as |01>_AB; weight left on the interior sites is discarded
    by the renormalization (the caller has report.residual_norm to judge
    how much that hides).
    """
    weight = abs(report.alpha_first) ** 2 + abs(report.alpha_last) ** 2
    if weight < _END_WEIGHT_ATOL:
        raise ValueError("end amplitudes carry no weight; no resource to extract")
    scale = 1.0 / math.sqrt(weight)
    return EntangledResource(
        alpha01=report.alpha_last * scale, alpha10=report.alpha_first * scale
    )


def resource_from_profile(profile: CouplingProfile) -> EntangledResource:
    """Resource produced by this profile at its own readout time."""
    return resource_from_report(entanglement_at_t0(profile))


def feasibility(mu: float, g_max: float) -> FeasibilityReport:
    """Largest chain whose peak engineered coupling fits under g_max."""
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if not g_max > 0:
        raise ValueError(f"g_max must be positive, got {g_max}")
    ratio = 8.0 * g_max / mu
    # From 2**53 on every double is an integer, so the floor below would
    # no longer be an exact chain length (and inf has none at all).
    if not ratio < 2.0**53:
        raise ValueError(f"8*g_max/mu = {ratio!r} is too large for an exact chain-length bound")
    n_max = math.floor(ratio)
    return FeasibilityReport(
        mu=mu,
        g_max=g_max,
        t0=math.pi / mu,
        n_max=n_max,
        degenerate=n_max < 3,
        n_max_exact=_largest_fitting_chain(mu, g_max),
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


def sweep_row(profile: CouplingProfile, trial: int, param: float) -> SweepRow:
    """Score one (already perturbed) profile at the readout time pi/mu."""
    report = entanglement_at_t0(profile)
    resource = resource_from_report(report)
    s = 1.0 / math.sqrt(2.0)
    records = teleport(s, s, resource)
    return SweepRow(
        trial=trial,
        param=param,
        concurrence=report.concurrence,
        residual_norm=report.residual_norm,
        expected_fidelity=expected_fidelity(records),
    )


def noise_sweep(
    profile: CouplingProfile, sigma: float, trials: int, seed: int
) -> list[SweepRow]:
    """Monte-Carlo sweep over noise realizations; one row per trial.

    Trial k's generator is seeded from word k of the master seed's
    stream, so rows do not depend on evaluation order and a longer sweep
    reproduces a shorter one's prefix.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    trial_seeds = np.random.SeedSequence(seed).generate_state(trials)
    rows = []
    for k in range(trials):
        spec = NoisePerturbation(sigma=sigma, seed=int(trial_seeds[k]))
        rows.append(sweep_row(perturb(profile, spec), trial=k, param=sigma))
    return rows


def adjacent_swap_sweep(profile: CouplingProfile) -> list[SweepRow]:
    """Baseline row plus one row per adjacent coupling swap (i, i+1).

    Row 0 (param 0) is the unperturbed profile; row i scores the profile
    with couplings i and i+1 exchanged, param = i.
    """
    rows = [sweep_row(profile, trial=0, param=0.0)]
    for i in range(1, len(profile.couplings)):
        swapped = perturb(profile, SwapPerturbation(i, i + 1))
        rows.append(sweep_row(swapped, trial=i, param=float(i)))
    return rows
