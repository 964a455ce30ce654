"""Perturbation sweeps, degraded-resource extraction, and the length bound."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellchain.chain import (
    CouplingProfile,
    engineered_couplings,
    engineered_max_coupling,
    one_excitation_hamiltonian,
)
from bellchain import dynamics, robustness
from bellchain.dynamics import (
    BellDecomposition,
    bell_time,
    eigendecompose,
    evolve,
)
from bellchain.robustness import (
    MAX_TRIALS,
    NoisePerturbation,
    SwapPerturbation,
    adjacent_swap_sweep,
    entanglement_at_t0,
    feasibility,
    noise_sweep,
    perturb,
    resource_from_profile,
    resource_from_report,
    sweep_row,
)
from bellchain.serialize import feasibility_to_dict
from bellchain.teleport import expected_fidelity, teleport
import oracles

SQRT_HALF = 1.0 / math.sqrt(2.0)

# concurrence after exchanging couplings 3 and 4 of the 9-site design,
# read out at the unperturbed time pi/mu; frozen regression value
SWAP_3_4_CONCURRENCE = 0.41051809923479293


class TestPerturb:
    def test_swap_exchanges_exactly_two(self):
        profile = engineered_couplings(9, 1.0)
        swapped = perturb(profile, SwapPerturbation(3, 4))
        assert swapped.couplings[2] == profile.couplings[3]
        assert swapped.couplings[3] == profile.couplings[2]
        for k in (0, 1, 4, 5, 6, 7):
            assert swapped.couplings[k] == profile.couplings[k]
        assert swapped.n_sites == profile.n_sites
        assert swapped.mu == profile.mu

    def test_swap_same_index_is_identity(self):
        profile = engineered_couplings(5, 2.0)
        assert perturb(profile, SwapPerturbation(2, 2)).couplings == profile.couplings

    def test_swap_out_of_range(self):
        profile = engineered_couplings(5, 1.0)
        with pytest.raises(ValueError):
            perturb(profile, SwapPerturbation(1, 5))
        with pytest.raises(ValueError):
            SwapPerturbation(0, 2)

    def test_noise_zero_sigma_is_identity(self):
        profile = engineered_couplings(9, 1.0)
        noisy = perturb(profile, NoisePerturbation(sigma=0.0, seed=1))
        np.testing.assert_allclose(noisy.couplings, profile.couplings, rtol=0)

    def test_noise_is_seed_reproducible(self):
        profile = engineered_couplings(9, 1.0)
        a = perturb(profile, NoisePerturbation(sigma=1e-2, seed=77))
        b = perturb(profile, NoisePerturbation(sigma=1e-2, seed=77))
        c = perturb(profile, NoisePerturbation(sigma=1e-2, seed=78))
        assert a.couplings == b.couplings
        assert a.couplings != c.couplings

    def test_noise_keeps_couplings_positive(self):
        profile = engineered_couplings(7, 1.0)
        for seed in range(20):
            noisy = perturb(profile, NoisePerturbation(sigma=2.0, seed=seed))
            assert all(c > 0 for c in noisy.couplings)

    def test_noise_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            NoisePerturbation(sigma=-0.1, seed=0)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_noise_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite"):
            NoisePerturbation(sigma=sigma, seed=0)

    def test_rejects_unknown_spec(self):
        with pytest.raises(TypeError):
            perturb(engineered_couplings(5, 1.0), "swap")


class TestEntanglementReports:
    def test_engineered_nine_sites_is_maximal(self):
        report = entanglement_at_t0(engineered_couplings(9, 1.0))
        assert report.concurrence == pytest.approx(1.0, abs=1e-9)
        assert abs(report.alpha_first) == pytest.approx(SQRT_HALF, abs=1e-9)
        assert abs(report.alpha_last) == pytest.approx(SQRT_HALF, abs=1e-9)
        assert report.residual_norm < 1e-9

    def test_engineered_three_sites_is_maximal(self):
        report = entanglement_at_t0(engineered_couplings(3, 2.0))
        assert report.concurrence == pytest.approx(1.0, abs=1e-9)
        assert report.residual_norm < 1e-9

    def test_long_swapped_chain_matches_the_dense_path(self):
        n = 1001
        profile = perturb(engineered_couplings(n, 1.0), SwapPerturbation(5, 6))
        report = entanglement_at_t0(profile)
        eig = eigendecompose(one_excitation_hamiltonian(profile))
        dense = evolve(eig, n // 2, bell_time(1.0)).amplitudes
        assert abs(report.alpha_first - dense[0]) < 1e-12
        assert abs(report.alpha_last - dense[-1]) < 1e-12
        assert report.residual_norm == pytest.approx(
            float(np.linalg.norm(dense[1:-1])), abs=1e-12
        )

    def test_swap_3_4_regression(self):
        profile = perturb(engineered_couplings(9, 1.0), SwapPerturbation(3, 4))
        report = entanglement_at_t0(profile)
        assert report.concurrence == pytest.approx(SWAP_3_4_CONCURRENCE, abs=1e-9)
        assert report.concurrence < 1.0 - 1e-6


class TestResourceExtraction:
    def test_engineered_chain_yields_bell(self):
        resource = resource_from_profile(engineered_couplings(9, 1.0))
        assert abs(resource.alpha01) == pytest.approx(SQRT_HALF, abs=1e-9)
        assert abs(resource.alpha10) == pytest.approx(SQRT_HALF, abs=1e-9)

    def test_first_site_maps_to_10(self):
        report = BellDecomposition(
            concurrence=0.0, alpha_first=0.6, alpha_last=0.8j, residual_norm=0.0
        )
        resource = resource_from_report(report)
        assert resource.alpha10 == pytest.approx(0.6)
        assert resource.alpha01 == pytest.approx(0.8j)

    def test_renormalizes_interior_leakage(self):
        report = BellDecomposition(
            concurrence=0.5, alpha_first=0.3, alpha_last=0.4, residual_norm=0.866
        )
        resource = resource_from_report(report)
        assert abs(resource.alpha10) ** 2 + abs(resource.alpha01) ** 2 == (
            pytest.approx(1.0, abs=1e-12)
        )
        assert resource.alpha10 == pytest.approx(0.6)
        assert resource.alpha01 == pytest.approx(0.8)

    def test_zero_end_weight_raises(self):
        report = BellDecomposition(
            concurrence=0.0, alpha_first=0.0, alpha_last=0.0, residual_norm=1.0
        )
        with pytest.raises(ValueError):
            resource_from_report(report)

    def test_degraded_resource_still_teleports_consistently(self):
        profile = perturb(engineered_couplings(9, 1.0), SwapPerturbation(3, 4))
        resource = resource_from_profile(profile)
        records = teleport(SQRT_HALF, SQRT_HALF, resource)
        assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-12)
        ef = expected_fidelity(records)
        assert 0.0 < ef <= 1.0
        assert ef < 1.0 - 1e-6


def _one_bond_up_one_ulp(profile: CouplingProfile) -> CouplingProfile:
    couplings = list(profile.couplings)
    couplings[10] = math.nextafter(couplings[10], math.inf)
    return CouplingProfile(profile.mu, tuple(couplings))


class TestResourceFromProfile:
    """The end-pair read behind ``teleport --n`` against the whole-state readout it replaced."""

    @pytest.mark.parametrize(
        "profile, rows",
        [
            (engineered_couplings(9, 1.0), [0]),  # dense
            (engineered_couplings(4001, 1.0), [0]),  # Chebyshev
            (engineered_couplings(4003, 1.0), [0]),  # the center on the odd sublattice
            (perturb(engineered_couplings(9, 1.0), SwapPerturbation(3, 4)), [0, 8]),
            (perturb(engineered_couplings(4001, 1.0), SwapPerturbation(5, 6)), [0, 4000]),
            (_one_bond_up_one_ulp(engineered_couplings(4001, 1.0)), [0, 4000]),
        ],
        ids=["dense-9", "chebyshev-4001", "odd-center-4003", "swap-9", "swap-4001", "one-ulp-4001"],
    )
    def test_matches_the_whole_state_readout(self, monkeypatch, profile, rows):
        read = []

        def grid_amplitudes(h, row, column, times):
            read.append(row)
            return dynamics.grid_amplitudes(h, row, column, times)

        monkeypatch.setattr(robustness, "grid_amplitudes", grid_amplitudes)
        fast = resource_from_profile(profile)
        slow = resource_from_report(entanglement_at_t0(profile))
        assert read == rows
        assert abs(fast.alpha01 - slow.alpha01) <= 1e-14
        assert abs(fast.alpha10 - slow.alpha10) <= 1e-14

    @pytest.mark.parametrize("n", [9, 4001, 4003])
    def test_bitwise_palindrome_reads_equal_ends_on_the_closed_form(self, n):
        resource = resource_from_profile(engineered_couplings(n, 1.0))
        assert resource.alpha01 == resource.alpha10
        # (-i sin(mu t0 / 2))^((N-1)/2) / sqrt 2 with sin = 1; analytic_center_to_end
        # takes that power in polar form and is itself ~2e-13 off at N = 4001
        closed_form = (-1j) ** ((n - 1) // 2 % 4) / math.sqrt(2.0)
        assert abs(resource.alpha01 - closed_form) <= 1e-14


class TestFeasibility:
    def test_reference_hardware_numbers(self):
        report = feasibility(mu=1.0e4, g_max=7.3e8)
        assert report.n_max == 584000
        assert report.t0 == pytest.approx(3.1416e-4, rel=5e-3)
        assert not report.degenerate

    def test_degenerate_when_ceiling_too_low(self):
        report = feasibility(mu=10.0, g_max=1.0)
        assert report.n_max < 3
        assert report.degenerate
        assert report.n_max_exact is None

    def test_exact_bound_stays_under_the_ceiling(self):
        # the paper's floor(8 g_max / mu) = 9 overshoots: the 9-site peak
        # is sqrt(1.5) = 1.2247 > 1.125, the 7-site peak is exactly 1
        report = feasibility(mu=1.0, g_max=1.125)
        assert report.n_max == 9
        assert report.n_max_exact == 7
        peak_9, peak_7 = (engineered_max_coupling(n, report.mu) for n in (9, 7))
        assert peak_9 > report.g_max >= peak_7

    @given(
        mu=st.floats(min_value=1e-3, max_value=1e3),
        ratio=st.floats(min_value=0.1, max_value=1e6),
    )
    # 4 g_max / mu = 2.96: the 5-site peak sqrt(2)/2 fits although mu*M/4
    # for M = 3 would not, so the bound steps up from its estimate
    @example(mu=1.0, ratio=0.74)
    @settings(max_examples=200, deadline=None)
    def test_exact_bound_is_the_largest_fitting_chain(self, mu, ratio):
        g_max = mu * ratio
        n = feasibility(mu=mu, g_max=g_max).n_max_exact
        if n is None:
            assert engineered_max_coupling(3, mu) > g_max
        else:
            assert n % 2 == 1
            assert engineered_max_coupling(n, mu) <= g_max
            assert engineered_max_coupling(n + 2, mu) > g_max

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            feasibility(mu=0.0, g_max=1.0)
        with pytest.raises(ValueError):
            feasibility(mu=1.0, g_max=-1.0)

    @pytest.mark.parametrize("mu, g_max", [(1e-300, 1e300), (1e-300, 1e-10), (1.0, 2.0**50)])
    def test_rejects_bound_without_an_exact_chain_length(self, mu, g_max):
        with pytest.raises(ValueError, match="too large"):
            feasibility(mu=mu, g_max=g_max)

    def test_d_max_matches_engineered_peak(self):
        # the payload quotes the peak of the largest odd length up to n_max
        for mu, g_max, n in ((1.0e4, 7.3e8, 584000 - 1), (1.0, 1.125, 9)):
            payload = feasibility_to_dict(feasibility(mu=mu, g_max=g_max))
            assert payload["d_max_at_n_max"] == engineered_max_coupling(n, mu)

    def test_peak_at_n_max_saturates_ceiling(self):
        # 8 g_max / mu lands exactly on an integer here; the peak coupling
        # of the largest admissible chain equals the ceiling
        report = feasibility(mu=1.0e4, g_max=7.3e8)
        n = report.n_max if report.n_max % 2 == 1 else report.n_max - 1
        assert engineered_max_coupling(n, report.mu) <= report.g_max * (1 + 1e-12)
        assert engineered_max_coupling(n, report.mu) == pytest.approx(report.g_max, rel=1e-5)

    @given(
        g1=st.floats(min_value=1.0, max_value=1e6),
        factor=st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_n_max_monotone_in_ceiling(self, g1, factor):
        lo = feasibility(mu=3.0, g_max=g1)
        hi = feasibility(mu=3.0, g_max=g1 * factor)
        assert hi.n_max >= lo.n_max


class TestNoiseSweep:
    def test_shape_and_metadata(self):
        rows = noise_sweep(engineered_couplings(5, 1.0), 1e-3, 7, seed=3)
        assert len(rows) == 7
        assert [r.trial for r in rows] == list(range(7))
        assert all(r.param == 1e-3 for r in rows)

    def test_prefix_stability(self):
        profile = engineered_couplings(9, 1.0)
        short = noise_sweep(profile, 1e-3, 3, seed=42)
        long = noise_sweep(profile, 1e-3, 5, seed=42)
        assert long[:3] == short

    def test_zero_sigma_rows_are_clean(self):
        rows = noise_sweep(engineered_couplings(9, 1.0), 0.0, 3, seed=1)
        for row in rows:
            assert row.concurrence == pytest.approx(1.0, abs=1e-9)
            assert row.expected_fidelity == pytest.approx(1.0, abs=1e-9)
            assert row.residual_norm < 1e-9

    def test_mild_noise_keeps_high_entanglement(self):
        rows = noise_sweep(engineered_couplings(9, 1.0), 1e-3, 100, seed=42)
        mean_c = float(np.mean([r.concurrence for r in rows]))
        assert 0.9 < mean_c <= 1.0
        # frozen mean for this exact seed stream
        assert mean_c == pytest.approx(0.99999298984087703, abs=1e-12)
        assert all(r.expected_fidelity <= 1.0 + 1e-12 for r in rows)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            noise_sweep(engineered_couplings(5, 1.0), 1e-3, 0, seed=1)

    def test_rejects_trials_above_the_cap_before_drawing_seeds(self, monkeypatch):
        def no_seeds(*args, **kwargs):
            raise AssertionError("trial seeds drawn")

        monkeypatch.setattr(np.random, "SeedSequence", no_seeds)
        with pytest.raises(ValueError, match="trials must be in 1..1000000"):
            noise_sweep(engineered_couplings(5, 1.0), 1e-3, MAX_TRIALS + 1, seed=1)


class TestAdjacentSwapSweep:
    def test_nine_site_pattern(self):
        rows = adjacent_swap_sweep(engineered_couplings(9, 1.0))
        assert len(rows) == 8
        assert [r.param for r in rows] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        by_param = {r.param: r for r in rows}
        # baseline and equal-pair swaps are no-ops
        for p in (0.0, 2.0, 4.0, 6.0):
            assert by_param[p].concurrence == pytest.approx(1.0, abs=1e-9)
            assert by_param[p].expected_fidelity == pytest.approx(1.0, abs=1e-9)
        # unequal-pair swaps degrade the resource
        assert by_param[3.0].concurrence == pytest.approx(
            SWAP_3_4_CONCURRENCE, abs=1e-9
        )
        assert by_param[3.0].concurrence < 1.0 - 1e-6
        assert by_param[3.0].expected_fidelity == pytest.approx(
            0.90977802739414826, abs=1e-9
        )
        # mirror symmetry of the profile mirrors the damage
        assert by_param[5.0].concurrence == pytest.approx(
            by_param[3.0].concurrence, abs=1e-9
        )
        assert by_param[1.0].concurrence == pytest.approx(
            by_param[7.0].concurrence, abs=1e-9
        )
        assert by_param[1.0].concurrence == pytest.approx(
            0.91685943200397702, abs=1e-9
        )

    def test_three_site_has_single_swap(self):
        rows = adjacent_swap_sweep(engineered_couplings(3, 1.0))
        assert len(rows) == 2
        # both couplings are equal, so the swap changes nothing
        assert rows[1].concurrence == pytest.approx(rows[0].concurrence, abs=1e-12)

    def test_plain_profile_round_trips(self):
        profile = CouplingProfile(mu=1.0, couplings=(1.0, 0.7, 0.7, 1.0))
        rows = adjacent_swap_sweep(profile)
        assert len(rows) == 4
        assert all(0.0 <= r.concurrence <= 1.0 + 1e-12 for r in rows)


def load_bench_workloads():
    """bench/workloads.py, which holds the benchmark's op pools (standard library only)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def assert_same_rows(rows, reference):
    """Trial and param equal, and every float bit-identical to the per-trial reference."""
    assert [(r.trial, r.param) for r in rows] == [(trial, param) for trial, param, *_ in reference]
    got = np.array([[r.concurrence, r.residual_norm, r.expected_fidelity] for r in rows])
    want = np.array([values for _, _, *values in reference])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSweepsMatchThePerTrialReference:
    """Sweeps draw each trial's noise in one call, skip CouplingProfile and
    read trials out in blocks; ``oracles`` scores one profile at a time."""

    def test_every_noise_sweep_pool_op_of_the_benchmark(self):
        pool = load_bench_workloads().WORKLOADS["noise_sweep"].pool
        assert len(pool) == 20
        for argv in pool:
            flags = dict(zip(argv[1::2], argv[2::2]))
            profile = engineered_couplings(int(flags["--n"]), 1.0)
            sigma, trials, seed = float(flags["--sigma"]), int(flags["--trials"]), int(flags["--seed"])
            assert_same_rows(
                noise_sweep(profile, sigma, trials, seed),
                oracles.noise_sweep(profile, sigma, trials, seed),
            )

    def test_draws_that_need_redraws(self):
        profile = engineered_couplings(9, 1.0)
        redrawn = 0
        for seed in range(100):
            vector_draw = 1.0 + np.random.default_rng(seed).normal(0.0, 0.7, 8)
            redrawn += not np.all(vector_draw > 0.0)
            noisy = perturb(profile, NoisePerturbation(sigma=0.7, seed=seed))
            assert noisy.couplings == tuple(oracles.noise_couplings(profile.couplings, 0.7, seed))
        assert redrawn > 10
        assert_same_rows(noise_sweep(profile, 0.7, 200, 3), oracles.noise_sweep(profile, 0.7, 200, 3))

    def test_chebyshev_trials(self):
        profile = engineered_couplings(401, 1.0)
        h = robustness.one_excitation_hamiltonian(perturb(profile, NoisePerturbation(1e-3, 0)))
        assert dynamics._chebyshev_plan(h, [bell_time(1.0)], 401) is not None
        assert_same_rows(noise_sweep(profile, 1e-3, 6, 11), oracles.noise_sweep(profile, 1e-3, 6, 11))

    @pytest.mark.parametrize("n", [9, 101])
    def test_adjacent_swaps(self, n):
        profile = engineered_couplings(n, 1.0)
        assert_same_rows(adjacent_swap_sweep(profile), oracles.adjacent_swap_sweep(profile))

    def test_single_row(self):
        profile = perturb(engineered_couplings(9, 1.0), SwapPerturbation(3, 4))
        row = sweep_row(profile, trial=0, param=3.0)
        assert_same_rows([row], [oracles.sweep_row(9, 1.0, profile.couplings, 0, 3.0)])

    @pytest.mark.parametrize("block", [1, 3])
    def test_rows_across_block_boundaries(self, monkeypatch, block):
        shapes = []
        readout = robustness.end_pair_readout

        def recording(amplitudes):
            shapes.append(amplitudes.shape)
            return readout(amplitudes)

        monkeypatch.setattr(robustness, "_BLOCK_ENTRIES", 9 * block)
        monkeypatch.setattr(robustness, "end_pair_readout", recording)
        profile = engineered_couplings(9, 1.0)
        assert_same_rows(noise_sweep(profile, 1e-2, 10, 5), oracles.noise_sweep(profile, 1e-2, 10, 5))
        assert_same_rows(adjacent_swap_sweep(profile), oracles.adjacent_swap_sweep(profile))
        # 10 noise trials, then 8 adjacent rows, in blocks of at most `block` x 9 amplitudes
        expected = [min(block, 10 - k) for k in range(0, 10, block)]
        expected += [min(block, 8 - k) for k in range(0, 8, block)]
        assert shapes == [(rows, 9) for rows in expected]

    def test_resource_kernel_rounds_like_scalar_arithmetic(self):
        # sweep end amplitudes are real or imaginary up to rounding, so the
        # sweeps alone would not notice a kernel that rounds general complex
        # moduli differently
        rng = np.random.default_rng(8)
        for _ in range(2000):
            first, last = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
            resource = resource_from_report(BellDecomposition(0.0, first, last, 0.0))
            got = np.array([resource.alpha01, resource.alpha10])
            want = np.array(oracles.end_pair_resource(first, last))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_overflowing_couplings_are_an_argument_error(self):
        profile = CouplingProfile(mu=1.0, couplings=(1e308, 1e308))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match=r"coupling D_\d must be positive and finite, got inf"):
                noise_sweep(profile, 1e3, 20, 0)
