"""Perturbation sweeps, degraded-resource extraction, and the length bound."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellchain.chain import (
    CouplingProfile,
    engineered_couplings,
    engineered_max_coupling,
)
from bellchain.robustness import (
    EntanglementReport,
    NoisePerturbation,
    SwapPerturbation,
    adjacent_swap_sweep,
    entanglement_at_t0,
    entanglement_at_time,
    feasibility,
    noise_sweep,
    perturb,
    resource_from_profile,
    resource_from_report,
)
from bellchain.teleport import expected_fidelity, teleport

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

    def test_time_zero_has_no_end_weight(self):
        report = entanglement_at_time(engineered_couplings(9, 1.0), 0.0)
        assert report.concurrence == pytest.approx(0.0, abs=1e-12)
        assert report.residual_norm == pytest.approx(1.0, abs=1e-12)

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
        report = EntanglementReport(
            concurrence=0.0, alpha_first=0.6, alpha_last=0.8j, residual_norm=0.0
        )
        resource = resource_from_report(report)
        assert resource.alpha10 == pytest.approx(0.6)
        assert resource.alpha01 == pytest.approx(0.8j)

    def test_renormalizes_interior_leakage(self):
        report = EntanglementReport(
            concurrence=0.5, alpha_first=0.3, alpha_last=0.4, residual_norm=0.866
        )
        resource = resource_from_report(report)
        assert abs(resource.alpha10) ** 2 + abs(resource.alpha01) ** 2 == (
            pytest.approx(1.0, abs=1e-12)
        )
        assert resource.alpha10 == pytest.approx(0.6)
        assert resource.alpha01 == pytest.approx(0.8)

    def test_zero_end_weight_raises(self):
        report = EntanglementReport(
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
        assert report.d_max_at(9) > report.g_max >= report.d_max_at(7)

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
        report = feasibility(mu=1.0e4, g_max=7.3e8)
        for n in (3, 9, 21, 584000 - 1):
            assert report.d_max_at(n) == engineered_max_coupling(n, 1.0e4)

    def test_peak_at_n_max_saturates_ceiling(self):
        # 8 g_max / mu lands exactly on an integer here; the peak coupling
        # of the largest admissible chain equals the ceiling
        report = feasibility(mu=1.0e4, g_max=7.3e8)
        n = report.n_max if report.n_max % 2 == 1 else report.n_max - 1
        assert report.d_max_at(n) <= report.g_max * (1 + 1e-12)
        assert report.d_max_at(n) == pytest.approx(report.g_max, rel=1e-5)

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
        profile = CouplingProfile(n_sites=5, mu=1.0, couplings=(1.0, 0.7, 0.7, 1.0))
        rows = adjacent_swap_sweep(profile)
        assert len(rows) == 4
        assert all(0.0 <= r.concurrence <= 1.0 + 1e-12 for r in rows)
