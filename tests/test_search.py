"""Coupling-profile search: objective correctness and optimizer behavior."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import fminbound

from bellchain import search
from bellchain.chain import engineered_couplings, validate_profile
from bellchain.robustness import entanglement_at_t0
from bellchain.search import (
    CONVERGED_TOL,
    MAX_RESTARTS,
    SearchProblem,
    _minimize_scalar_bounded,
    _objective,
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
    # the function the search runs, on a grid and at one time
    def test_engineered_profile_is_optimal_at_readout_time(self):
        h = one_excitation_hamiltonian(engineered_couplings(9, 1.0))
        on_grid, at_time = _objective(eigendecompose(h))
        assert on_grid(np.array([math.pi]))[0] < 1e-15
        assert at_time(math.pi) < 1e-15

    def test_time_zero_is_worst_case(self):
        h = one_excitation_hamiltonian(engineered_couplings(9, 1.0))
        on_grid, at_time = _objective(eigendecompose(h))
        assert on_grid(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-15)
        assert at_time(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_matches_dense_propagation_oracle(self):
        rng = np.random.default_rng(314)
        for _ in range(20):
            free = rng.uniform(0.3, 2.0, size=2)
            t = float(rng.uniform(0.1, 6.0))
            h = one_excitation_hamiltonian(mirror_profile(free))
            psi = dense_propagate(dense_tridiagonal(h.off_diagonal), basis_amplitudes(5, 2), t)
            expected = (abs(psi[0]) ** 2 - 0.5) ** 2 + (abs(psi[-1]) ** 2 - 0.5) ** 2
            on_grid, at_time = _objective(eigendecompose(h))
            assert on_grid(np.array([t]))[0] == pytest.approx(expected, abs=1e-12)
            assert at_time(t) == pytest.approx(expected, abs=1e-12)

    def test_one_time_has_the_bits_of_a_one_point_grid(self):
        # the refinement reads at_time, the scan on_grid; they must agree to the last bit
        rng = np.random.default_rng(2718)
        for n_sites in (3, 5, 9):
            for _ in range(20):
                h = one_excitation_hamiltonian(mirror_profile(rng.uniform(0.05, 3.0, size=n_sites // 2)))
                on_grid, at_time = _objective(eigendecompose(h))
                for t in rng.uniform(0.0, 10.0, size=5):
                    assert at_time(float(t)).hex() == float(on_grid(np.array([t]))[0]).hex()


def _bits(x) -> bytes:
    return struct.pack("<d", x)


def _bounded_objective(kind: str, lo: float, hi: float, c: float):
    """A minimum inside [lo, hi] or at either end, a flat, a stepped (its plateaus tie values)
    or an oscillating objective, or one that turns NaN past a point; c in [0, 1] places it."""
    mid = lo + c * (hi - lo)
    return {
        "inside": lambda x: (x - mid) * (x - mid),
        "left": lambda x: x - lo,
        "right": lambda x: hi - x,
        "flat": lambda x: c,
        "stepped": lambda x: float(round(3.0 * math.sin((6.0 + 300.0 * c) * (x - lo) / (hi - lo)))),
        "oscillating": lambda x: math.sin((1.0 + 500.0 * c) * x) + 0.01 * x,
        "nan": lambda x: math.nan if x > mid else (x - lo) * (hi - x),
    }[kind]


class TestBoundedBrent:
    """``_minimize_scalar_bounded`` is scipy's bounded Brent loop: the same x and f, bit for bit."""

    @given(
        kind=st.sampled_from(["inside", "left", "right", "flat", "stepped", "oscillating", "nan"]),
        lo=st.floats(min_value=-10.0, max_value=10.0),
        width=st.floats(min_value=1e-9, max_value=20.0),
        c=st.floats(min_value=0.0, max_value=1.0),
        maxfun=st.sampled_from([500, 1, 2, 3]) | st.integers(min_value=4, max_value=30),
    )
    # a new value that ties the second or third best decides which points the next
    # parabola passes through; drawn floats rarely reach such ties
    @example(kind="stepped", lo=2.5, width=15.5, c=0.64, maxfun=500)
    @example(kind="stepped", lo=7.9, width=4.9, c=0.97, maxfun=500)
    @settings(max_examples=400, deadline=None)
    def test_matches_fminbound_bit_for_bit(self, kind, lo, width, c, maxfun):
        hi = lo + width
        func = _bounded_objective(kind, lo, hi, c)
        x, f = _minimize_scalar_bounded(func, lo, hi, maxfun=maxfun)
        x_ref, f_ref, _, _ = fminbound(func, lo, hi, xtol=1e-12, maxfun=maxfun, full_output=True, disp=0)
        assert (_bits(x), _bits(f)) == (_bits(x_ref), _bits(f_ref)), (
            float(x).hex(), float(x_ref).hex(), float(f).hex(), float(f_ref).hex()
        )

    def test_each_kind_of_problem_is_covered(self):
        # ends, a NaN run and a maxfun cut are reached, not only drawn; an end is
        # approached to within Brent's tolerance sqrt(eps) |x|, not reached
        x, _ = _minimize_scalar_bounded(lambda x: x, 1.0, 2.0)
        assert 0.0 < x - 1.0 < 1e-7
        x, _ = _minimize_scalar_bounded(lambda x: -x, 1.0, 2.0)
        assert 0.0 < 2.0 - x < 1e-7
        _, f = _minimize_scalar_bounded(lambda x: math.nan, 1.0, 2.0)
        assert math.isnan(f)
        calls = []
        _minimize_scalar_bounded(lambda x: calls.append(x) or math.sin(50.0 * x), 0.0, 10.0, maxfun=7)
        assert len(calls) == 7


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

        def recording(free, *rest):
            seen.append(free.copy())
            return evaluate(free, *rest)

        monkeypatch.setattr(search, "_evaluate", recording)
        problem = SearchProblem(n_sites=5, t_window=(0.5, 6.0), bounds=(0.05, 0.3))
        minimize(problem, seed=3, max_iters=40, restarts=2)
        lo, hi = problem.bounds
        assert len(seen) > 40 and all(np.all((lo <= free) & (free <= hi)) for free in seen)
        assert np.any(np.array(seen) == lo) or np.any(np.array(seen) == hi)

    def test_one_restart_keeps_its_bits(self):
        # recorded when the refinement still ran in scipy's minimize_scalar; Nelder-Mead
        # turns a last-bit change in any evaluation into another path, so drift in the
        # evaluation path fails here and not only against a tolerance
        result = minimize(FIVE_SITE_PROBLEM, seed=SEARCH_SEED, restarts=1)
        assert result.best_time.hex() == "0x1.29f858d1e4ba1p+2"
        assert result.objective.hex() == "0x1.0000000000000p-105"
        outer, inner = "0x1.e896547d3128cp-2", "0x1.597bbc7450d14p-2"
        assert [d.hex() for d in result.profile.couplings] == [outer, inner, inner, outer]
        assert result.iterations == 94

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
