"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a PASS line with the measured worst case next to its
tolerance; pytest -v gives the per-criterion pass/fail verdict.
"""

import math
import time

import numpy as np
import pytest

from bellchain.chain import (
    engineered_couplings,
    halved_hamiltonian,
    one_excitation_hamiltonian,
    validate_profile,
)
from bellchain.dynamics import (
    analytic_center_to_end,
    bell_decomposition,
    bell_time,
    center_to_end_amplitude,
    eigendecompose,
    evolve,
    transition_amplitudes,
)
from bellchain.robustness import (
    SwapPerturbation,
    entanglement_at_t0,
    feasibility,
    perturb,
)
from bellchain.search import SearchProblem, minimize
from bellchain.teleport import EntangledResource, expected_fidelity, teleport
from oracles import (
    dense_propagate,
    full_hilbert_hamiltonian,
    one_excitation_indices,
    parity_labels,
    random_qubit_pair,
    teleport_brute_force,
)

# the one readout clock shared by every chain length at mu = 1;
# criterion 9 asserts this single constant serves criterion 1 unchanged
SHARED_T0 = bell_time(1.0)

ODD_LENGTHS = tuple(range(3, 42, 2))

SQRT_HALF = 1.0 / math.sqrt(2.0)

# concurrence after exchanging the third and fourth couplings of the
# nine-site design (an unequal pair, so the profile leaves the
# engineered family); frozen after first computation
SWAP_3_4_CONCURRENCE = 0.41051809923479293


def _formation_worst_cases(t0: float) -> tuple[float, float]:
    """Worst end-probability and concurrence deviations across lengths."""
    worst_prob = 0.0
    worst_conc = 0.0
    for n in ODD_LENGTHS:
        profile = engineered_couplings(n, 1.0)
        eig = eigendecompose(one_excitation_hamiltonian(profile))
        state = evolve(eig, n // 2, t0)
        p_first = abs(state.amplitudes[0]) ** 2
        p_last = abs(state.amplitudes[-1]) ** 2
        worst_prob = max(worst_prob, abs(p_first - 0.5), abs(p_last - 0.5))
        worst_conc = max(worst_conc, abs(bell_decomposition(state).concurrence - 1.0))
    return worst_prob, worst_conc


def test_criterion_01_bell_formation():
    started = time.perf_counter()
    worst_prob, worst_conc = _formation_worst_cases(SHARED_T0)
    elapsed = time.perf_counter() - started
    assert worst_prob < 1e-9
    assert worst_conc < 1e-9
    assert SHARED_T0 == math.pi
    assert elapsed < 5.0
    print(
        f"PASS criterion 1: end probabilities within {worst_prob:.3g} of 0.5 "
        f"(tol 1e-9), concurrence within {worst_conc:.3g} of 1 (tol 1e-9), "
        f"t0 = pi, {elapsed:.2f}s < 5s"
    )


def test_criterion_02_analytic_amplitude_match():
    started = time.perf_counter()
    t_grid = np.linspace(0.0, 2.0 * math.pi, 200)
    worst = 0.0
    for n in ODD_LENGTHS:
        profile = engineered_couplings(n, 1.0)
        eig = eigendecompose(one_excitation_hamiltonian(profile))
        for t in t_grid:
            numeric = center_to_end_amplitude(eig, float(t))
            analytic = analytic_center_to_end(n, 1.0, float(t))
            worst = max(worst, abs(numeric - analytic))
    elapsed = time.perf_counter() - started
    assert worst < 1e-9
    assert elapsed < 10.0
    print(
        f"PASS criterion 2: max |numeric - analytic| = {worst:.3g} "
        f"(tol 1e-9) over 200 times x {len(ODD_LENGTHS)} lengths, "
        f"{elapsed:.2f}s < 10s"
    )


def test_criterion_03_halved_chain_transfer():
    worst_pst = 0.0
    worst_factor = 0.0
    t_grid = np.linspace(0.0, 2.0 * math.pi, 25)
    for m in range(2, 22):
        n = 2 * m - 1
        profile = engineered_couplings(n, 1.0)
        halved_eig = eigendecompose(halved_hamiltonian(profile))
        full_eig = eigendecompose(one_excitation_hamiltonian(profile))

        # unit-probability transfer across the folded chain at mu t = pi
        pst_prob = abs(transition_amplitudes(halved_eig, [0], m - 1, [math.pi])[0][0]) ** 2
        worst_pst = max(worst_pst, abs(pst_prob - 1.0))

        # the full chain's center-to-end amplitude is the folded chain's
        # end-to-end amplitude divided by sqrt(2), at every time
        for t in t_grid:
            full_amp = center_to_end_amplitude(full_eig, float(t))
            half_amp = transition_amplitudes(halved_eig, [0], m - 1, [float(t)])[0][0]
            worst_factor = max(worst_factor, abs(full_amp - half_amp * SQRT_HALF))
    assert worst_pst < 1e-10
    assert worst_factor < 1e-10
    print(
        f"PASS criterion 3: folded-chain transfer within {worst_pst:.3g} of 1 "
        f"(tol 1e-10), full = folded/sqrt(2) within {worst_factor:.3g} "
        f"(tol 1e-10) for M in 2..21"
    )


def test_criterion_04_parity_structure():
    worst_center = 0.0
    worst_restrict = 0.0
    t_grid = (0.0, 0.7, math.pi / 2.0, math.pi, 2.0)
    for n in (5, 9, 21):
        profile = engineered_couplings(n, 1.0)
        eig = eigendecompose(one_excitation_hamiltonian(profile))
        center = (n - 1) // 2
        labels = parity_labels(eig.eigenvectors)

        for k, label in enumerate(labels):
            if label != "symmetric":
                worst_center = max(
                    worst_center, abs(eig.eigenvectors[center, k])
                )

        # dropping the antisymmetric terms from the spectral sum must not
        # change the center-to-end amplitude: they carry no center weight
        weights = eig.eigenvectors[0, :] * eig.eigenvectors[center, :]
        symmetric_mask = np.array([p == "symmetric" for p in labels])
        for t in t_grid:
            phases = np.exp(-1j * eig.eigenvalues * t)
            full_sum = np.sum(weights * phases)
            restricted = np.sum(weights[symmetric_mask] * phases[symmetric_mask])
            worst_restrict = max(worst_restrict, abs(full_sum - restricted))
    assert worst_center < 1e-10
    assert worst_restrict < 1e-10
    print(
        f"PASS criterion 4: antisymmetric center components <= "
        f"{worst_center:.3g} (tol 1e-10), symmetric-only spectral sum "
        f"within {worst_restrict:.3g} (tol 1e-10) for N in 5, 9, 21"
    )


def test_criterion_05_full_hilbert_oracle():
    started = time.perf_counter()
    worst = 0.0
    for n in (3, 5, 7, 9):
        profile = engineered_couplings(n, 1.0)
        eig = eigendecompose(one_excitation_hamiltonian(profile))
        h_full = full_hilbert_hamiltonian(profile)
        center_site = (n + 1) // 2
        psi0 = np.zeros(2**n, dtype=complex)
        psi0[1 << (n - center_site)] = 1.0
        indices = one_excitation_indices(n)
        for t in (0.4, SHARED_T0 / 2.0, SHARED_T0):
            sector = evolve(eig, n // 2, t).amplitudes
            dense = dense_propagate(h_full, psi0, t)
            worst = max(worst, float(np.max(np.abs(dense[indices] - sector))))
    elapsed = time.perf_counter() - started
    assert worst < 1e-9
    assert elapsed < 30.0
    print(
        f"PASS criterion 5: sector evolution matches 2^N dense evolution "
        f"within {worst:.3g} (tol 1e-9) for N in 3, 5, 7, 9, "
        f"{elapsed:.2f}s < 30s"
    )


def test_criterion_06_teleportation_determinism():
    rng = np.random.default_rng(60)
    bell = EntangledResource(alpha01=SQRT_HALF, alpha10=SQRT_HALF)
    worst_prob = 0.0
    worst_fid = 0.0
    for _ in range(100):
        a, b = random_qubit_pair(rng)
        for record in teleport(a, b, bell):
            worst_prob = max(worst_prob, abs(record.probability - 0.25))
            worst_fid = max(worst_fid, abs(record.fidelity - 1.0))
    assert worst_prob < 1e-12
    assert worst_fid < 1e-12
    print(
        f"PASS criterion 6: 100 random inputs, outcome probabilities within "
        f"{worst_prob:.3g} of 0.25 (tol 1e-12), fidelities within "
        f"{worst_fid:.3g} of 1 (tol 1e-12)"
    )


def test_criterion_07_probabilistic_teleportation():
    resource = EntangledResource(math.sqrt(0.8), math.sqrt(0.2))
    records = {r.outcome: r for r in teleport(SQRT_HALF, SQRT_HALF, resource)}
    worst = 0.0
    for outcome, prob, fidelity in teleport_brute_force(
        SQRT_HALF, SQRT_HALF, [0.0, math.sqrt(0.8), math.sqrt(0.2), 0.0]
    ):
        worst = max(worst, abs(records[outcome].probability - prob))
        worst = max(worst, abs(records[outcome].fidelity - fidelity))
    ef = expected_fidelity(records.values())
    assert worst < 1e-12
    assert ef < 1.0 - 1e-6
    print(
        f"PASS criterion 7: skewed-resource branches match the brute-force "
        f"oracle within {worst:.3g} (tol 1e-12), expected fidelity "
        f"{ef:.6f} < 1 - 1e-6"
    )


def test_criterion_08_feasibility_arithmetic():
    report = feasibility(mu=1.0e4, g_max=7.3e8)
    assert report.n_max == 584000
    rel = abs(report.t0 - 3.1416e-4) / 3.1416e-4
    assert rel < 0.005
    print(
        f"PASS criterion 8: n_max = {report.n_max} (exact), "
        f"t0 = {report.t0:.6e} within {rel:.2%} of 3.1416e-4 (tol 0.5%)"
    )


def test_criterion_09_t0_length_independence():
    # the clock constant is defined once at module scope and criterion 1
    # consumes it unchanged; here the same constant is fed through the
    # same sweep to show no per-length retuning happens
    assert SHARED_T0 == bell_time(1.0) == math.pi
    worst_prob, worst_conc = _formation_worst_cases(SHARED_T0)
    assert worst_prob < 1e-9
    assert worst_conc < 1e-9
    print(
        f"PASS criterion 9: the single constant t0 = pi serves every length "
        f"3..41 (worst probability deviation {worst_prob:.3g}, worst "
        f"concurrence deviation {worst_conc:.3g}, tol 1e-9)"
    )


def test_criterion_10_swap_robustness_regression():
    profile = perturb(engineered_couplings(9, 1.0), SwapPerturbation(3, 4))
    report = entanglement_at_t0(profile)
    assert report.concurrence < 1.0 - 1e-6
    assert report.concurrence == pytest.approx(SWAP_3_4_CONCURRENCE, abs=1e-9)
    print(
        f"PASS criterion 10: swapped-coupling concurrence "
        f"{report.concurrence:.17g} < 1 - 1e-6 and matches the pinned "
        f"baseline {SWAP_3_4_CONCURRENCE} within 1e-9"
    )


def test_criterion_11_search_existence_witness():
    started = time.perf_counter()
    problem = SearchProblem(n_sites=5, t_window=(0.5, 6.0), bounds=(0.05, 3.0))
    result = minimize(problem, seed=20260816, restarts=8)
    elapsed = time.perf_counter() - started
    violations = validate_profile(result.profile)
    assert result.converged
    assert result.objective < 1e-8
    assert violations != []
    assert elapsed < 60.0
    print(
        f"PASS criterion 11: a restart converged to objective "
        f"{result.objective:.3g} < 1e-8 on a profile outside the engineered "
        f"family ({len(violations)} validation flags), {elapsed:.2f}s < 60s"
    )
