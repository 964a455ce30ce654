"""Coupling-profile search: objective correctness and optimizer behavior."""

import math

import numpy as np
import pytest

from bellchain.chain import engineered_couplings, validate_profile
from bellchain.dynamics import basis_state, center_excited_state
from bellchain.robustness import entanglement_at_t0
from bellchain.search import (
    CONVERGED_TOL,
    SearchProblem,
    minimize,
    mirror_profile,
    objective,
)
from bellchain.chain import one_excitation_hamiltonian
from oracles import dense_propagate

FIVE_SITE_PROBLEM = SearchProblem(
    n_sites=5, t_window=(0.5, 6.0), bounds=(0.05, 3.0)
)
SEARCH_SEED = 20260816


@pytest.fixture(scope="module")
def five_site_result():
    return minimize(FIVE_SITE_PROBLEM, seed=SEARCH_SEED, restarts=8)


class TestProblem:
    def test_n_free(self):
        assert SearchProblem(n_sites=5).n_free == 2
        assert SearchProblem(n_sites=9).n_free == 4

    def test_rejects_even_or_tiny_n(self):
        with pytest.raises(ValueError):
            SearchProblem(n_sites=4)
        with pytest.raises(ValueError):
            SearchProblem(n_sites=1)

    def test_rejects_bad_window_and_bounds(self):
        with pytest.raises(ValueError):
            SearchProblem(n_sites=5, t_window=(2.0, 1.0))
        with pytest.raises(ValueError):
            SearchProblem(n_sites=5, bounds=(0.0, 1.0))
        with pytest.raises(ValueError):
            SearchProblem(n_sites=5, bounds=(2.0, 1.0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_window_and_bounds(self, bad):
        with pytest.raises(ValueError, match="t_window must be finite"):
            SearchProblem(n_sites=5, t_window=(0.1, bad))
        with pytest.raises(ValueError, match="t_window must be finite"):
            SearchProblem(n_sites=5, t_window=(bad, 1.0))
        with pytest.raises(ValueError, match="bounds must be finite"):
            SearchProblem(n_sites=5, bounds=(0.05, bad))
        with pytest.raises(ValueError, match="bounds must be finite"):
            SearchProblem(n_sites=5, bounds=(bad, 1.0))


class TestMirrorProfile:
    def test_reflects(self):
        profile = mirror_profile(np.array([1.0, 2.0]), n_sites=5)
        assert profile.couplings == (1.0, 2.0, 2.0, 1.0)
        assert profile.mu == 1.0

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            mirror_profile(np.array([1.0, 2.0, 3.0]), n_sites=5)


class TestObjective:
    def test_engineered_profile_is_optimal_at_readout_time(self):
        profile = engineered_couplings(9, 1.0)
        assert objective(profile, math.pi) < 1e-15

    def test_time_zero_is_worst_case(self):
        profile = engineered_couplings(9, 1.0)
        assert objective(profile, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_matches_dense_propagation_oracle(self):
        rng = np.random.default_rng(314)
        for _ in range(20):
            free = rng.uniform(0.3, 2.0, size=2)
            t = float(rng.uniform(0.1, 6.0))
            profile = mirror_profile(free, n_sites=5)
            h = one_excitation_hamiltonian(profile).to_dense()
            psi = dense_propagate(h, center_excited_state(5).amplitudes, t)
            expected = (abs(psi[0]) ** 2 - 0.5) ** 2 + (abs(psi[-1]) ** 2 - 0.5) ** 2
            assert objective(profile, t) == pytest.approx(expected, abs=1e-12)


class TestMinimize:
    def test_engineered_start_converges_immediately(self):
        profile = engineered_couplings(5, 1.0)
        x0 = np.asarray(profile.couplings[:2])
        result = minimize(FIVE_SITE_PROBLEM, seed=0, x0=x0)
        assert result.converged
        assert result.objective < CONVERGED_TOL
        assert result.iterations <= 2
        assert result.best_time == pytest.approx(math.pi, abs=1e-6)

    def test_starved_iterations_report_failure_without_raising(self):
        # weak end couplings keep the ends dark; one simplex step cannot fix it
        result = minimize(
            FIVE_SITE_PROBLEM,
            seed=1,
            max_iters=1,
            restarts=1,
            x0=np.array([0.05, 3.0]),
        )
        assert not result.converged
        assert result.objective > CONVERGED_TOL

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            minimize(FIVE_SITE_PROBLEM, seed=0, max_iters=0)
        with pytest.raises(ValueError):
            minimize(FIVE_SITE_PROBLEM, seed=0, restarts=0)
        with pytest.raises(ValueError):
            minimize(FIVE_SITE_PROBLEM, seed=0, x0=np.array([1.0, 2.0, 3.0]))

    def test_five_site_restarts_converge(self, five_site_result):
        result = five_site_result
        assert result.converged
        assert result.objective < 1e-8
        lo, hi = FIVE_SITE_PROBLEM.bounds
        assert all(lo <= c <= hi for c in result.profile.couplings)
        t_lo, t_hi = FIVE_SITE_PROBLEM.t_window
        assert t_lo <= result.best_time <= t_hi
        assert result.profile.mu == pytest.approx(math.pi / result.best_time)

    def test_found_profile_is_outside_engineered_family(self, five_site_result):
        # random starts land near a scaled copy of the design ray, but not
        # on it to the validator's resolution
        assert validate_profile(five_site_result.profile) != []

    def test_found_profile_entangles_ends(self, five_site_result):
        report = entanglement_at_t0(five_site_result.profile)
        assert report.concurrence >= 1.0 - 1e-4

    def test_search_is_reproducible(self, five_site_result):
        again = minimize(FIVE_SITE_PROBLEM, seed=SEARCH_SEED, restarts=8)
        assert again.profile.couplings == five_site_result.profile.couplings
        assert again.best_time == five_site_result.best_time
        assert again.objective == five_site_result.objective

    def test_state_amplitudes_split_between_ends(self, five_site_result):
        result = five_site_result
        from bellchain.dynamics import eigendecompose, evolve

        eig = eigendecompose(one_excitation_hamiltonian(result.profile))
        state = evolve(eig, center_excited_state(5), result.best_time)
        assert abs(state.amplitudes[0]) ** 2 == pytest.approx(0.5, abs=1e-4)
        assert abs(state.amplitudes[-1]) ** 2 == pytest.approx(0.5, abs=1e-4)


def test_basis_state_helper_matches_center():
    np.testing.assert_allclose(
        center_excited_state(5).amplitudes, basis_state(5, 3).amplitudes
    )
