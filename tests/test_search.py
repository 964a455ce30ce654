"""Coupling-profile search: objective correctness and optimizer behavior."""

import math

import numpy as np
import pytest

from bellchain import search
from bellchain.chain import engineered_couplings, validate_profile
from bellchain.robustness import entanglement_at_t0
from bellchain.search import (
    CONVERGED_TOL,
    MAX_RESTARTS,
    SearchProblem,
    _objective_on_grid,
    minimize,
    mirror_profile,
)
from bellchain.chain import one_excitation_hamiltonian
from bellchain.dynamics import eigendecompose
from oracles import basis_amplitudes, dense_propagate, dense_tridiagonal

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
        # the found mu = pi / best_time must be finite for every time in the window
        with pytest.raises(ValueError, match="t_window"):
            SearchProblem(n_sites=5, t_window=(0.0, 1e-9))
        with pytest.raises(ValueError, match="t_window"):
            SearchProblem(n_sites=5, t_window=(1e-310, 1e-300))
        SearchProblem(n_sites=5, t_window=(1e-300, 1e-299))
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

    def test_rejects_bounds_whose_spectrum_or_phases_overflow(self):
        with pytest.raises(ValueError, match="d_hi = 1e[+]308"):
            SearchProblem(n_sites=5, bounds=(0.05, 1e308))
        with pytest.raises(ValueError, match="phases"):
            SearchProblem(n_sites=5, t_window=(0.1, 20.0), bounds=(0.05, 8.9e306))
        SearchProblem(n_sites=5, t_window=(0.1, 10.0), bounds=(0.05, 8.9e306))


class TestMirrorProfile:
    def test_reflects(self):
        profile = mirror_profile(np.array([1.0, 2.0]))
        assert profile.couplings == (1.0, 2.0, 2.0, 1.0)
        assert profile.mu == 1.0

    def test_length_follows_the_free_couplings(self):
        assert mirror_profile(np.array([1.0, 2.0, 3.0])).n_sites == 7
        with pytest.raises(ValueError, match=r"^n_sites must be odd and >= 3, got 1$"):
            mirror_profile(np.array([]))


class TestObjective:
    # the function the search runs, at one time
    def test_engineered_profile_is_optimal_at_readout_time(self):
        h = one_excitation_hamiltonian(engineered_couplings(9, 1.0))
        assert _objective_on_grid(eigendecompose(h), [math.pi])[0] < 1e-15

    def test_time_zero_is_worst_case(self):
        h = one_excitation_hamiltonian(engineered_couplings(9, 1.0))
        assert _objective_on_grid(eigendecompose(h), [0.0])[0] == pytest.approx(0.5, abs=1e-15)

    def test_matches_dense_propagation_oracle(self):
        rng = np.random.default_rng(314)
        for _ in range(20):
            free = rng.uniform(0.3, 2.0, size=2)
            t = float(rng.uniform(0.1, 6.0))
            h = one_excitation_hamiltonian(mirror_profile(free))
            psi = dense_propagate(dense_tridiagonal(h.off_diagonal), basis_amplitudes(5, 2), t)
            expected = (abs(psi[0]) ** 2 - 0.5) ** 2 + (abs(psi[-1]) ** 2 - 0.5) ** 2
            assert _objective_on_grid(eigendecompose(h), [t])[0] == pytest.approx(expected, abs=1e-12)


class TestMinimize:
    def test_starved_iterations_report_failure_without_raising(self):
        # one simplex step from a random start cannot reach the threshold
        result = minimize(FIVE_SITE_PROBLEM, seed=1, max_iters=1, restarts=1)
        assert not result.converged
        assert result.objective > CONVERGED_TOL

    def test_validates_arguments(self, monkeypatch):
        with pytest.raises(ValueError):
            minimize(FIVE_SITE_PROBLEM, seed=0, max_iters=0)
        with pytest.raises(ValueError):
            minimize(FIVE_SITE_PROBLEM, seed=0, restarts=0)

        def no_seeds(*args, **kwargs):
            raise AssertionError("restart seeds drawn")

        monkeypatch.setattr(np.random, "SeedSequence", no_seeds)
        with pytest.raises(ValueError, match="restarts must be in 1..10000"):
            minimize(FIVE_SITE_PROBLEM, seed=0, restarts=MAX_RESTARTS + 1)

    def test_nelder_mead_clips_every_point_to_the_bounds(self, monkeypatch):
        # so neither the objective nor the result clips again
        seen, evaluate = [], search._evaluate

        def recording(free, problem):
            seen.append(free.copy())
            return evaluate(free, problem)

        monkeypatch.setattr(search, "_evaluate", recording)
        problem = SearchProblem(n_sites=5, t_window=(0.5, 6.0), bounds=(0.05, 0.3))
        minimize(problem, seed=3, max_iters=40, restarts=2)
        lo, hi = problem.bounds
        assert len(seen) > 40 and all(np.all((lo <= free) & (free <= hi)) for free in seen)
        assert np.any(np.array(seen) == lo) or np.any(np.array(seen) == hi)

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
        from bellchain.dynamics import evolve

        eig = eigendecompose(one_excitation_hamiltonian(result.profile))
        state = evolve(eig, 2, result.best_time)
        assert abs(state.amplitudes[0]) ** 2 == pytest.approx(0.5, abs=1e-4)
        assert abs(state.amplitudes[-1]) ** 2 == pytest.approx(0.5, abs=1e-4)
