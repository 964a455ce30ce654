"""Coupling-profile search: objective correctness and optimizer behavior."""

import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import fminbound
from scipy.optimize import minimize as scipy_minimize

from bellchain import search
from bellchain.chain import engineered_couplings, validate_profile
from bellchain.robustness import entanglement_at_t0
from bellchain.search import (
    CONVERGED_TOL,
    MAX_RESTARTS,
    SearchProblem,
    _evaluate,
    _minimize_scalar_bounded,
    _nelder_mead,
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


def _simplex_objective(kind: str, lo: float, hi: float, c: float):
    """An n-dimensional objective on the box [lo, hi]^n: a bowl inside it, a tilted plane whose
    minimum is a corner, a flat, a stepped (its plateaus tie values), an oscillating or a
    non-smooth valley objective, or a bowl that turns NaN past a point; c in [0, 1] places it."""
    mid = lo + c * (hi - lo)
    scale = 1.0 / (hi - lo)
    return {
        "bowl": lambda x: sum((v - mid) * (v - mid) for v in x.tolist()),
        "low_corner": lambda x: sum(x.tolist()),
        "high_corner": lambda x: -sum(x.tolist()),
        "flat": lambda x: c,
        "stepped": lambda x: float(round(3.0 * math.sin((6.0 + 300.0 * c) * scale * sum(x.tolist())))),
        "oscillating": lambda x: sum(math.sin((1.0 + 50.0 * c) * v) + 0.01 * v for v in x.tolist()),
        "valley": lambda x: sum(abs(x[k + 1] - x[k] - c) for k in range(len(x) - 1)) + abs(x[0] - mid),
        "nan": lambda x: math.nan if x[0] > mid else sum((v - lo) * (hi - v) for v in x.tolist()),
    }[kind]


SIMPLEX_KINDS = ["bowl", "low_corner", "high_corner", "flat", "stepped", "oscillating", "valley", "nan"]


def _recorded(func):
    """``func`` that appends each point it is asked about (as float.hex) and its value to ``calls``."""
    calls = []

    def recording(x):
        f = func(x)
        calls.append((tuple(v.hex() for v in x.tolist()), f))
        return f

    return recording, calls


def _both_nelder_meads(func, x0, lo, hi, maxiter, xatol=1e-10, fatol=1e-14):
    """The calls, result x (as float.hex) and nit of ``_nelder_mead`` and of scipy's bounded
    Nelder-Mead, and where each of scipy's iterations ended in its calls."""
    port, port_calls = _recorded(func)
    x, nit = _nelder_mead(port, np.array(x0), lo, hi, maxiter, xatol=xatol, fatol=fatol)
    ref, ref_calls = _recorded(func)
    ends = []
    res = scipy_minimize(
        ref, np.array(x0), method="Nelder-Mead", bounds=[(lo, hi)] * len(x0),
        options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol},
        callback=lambda xk: ends.append(len(ref_calls)),
    )
    ours = (port_calls, [v.hex() for v in x.tolist()], nit)
    theirs = (ref_calls, [v.hex() for v in res.x.tolist()], int(res.nit))
    return ours, theirs, ends


def _branches(calls, ends, n: int) -> list[str]:
    """The step each Nelder-Mead iteration took, read from the values it evaluated.

    Only the sorted values of the simplex are tracked (NaN last, as np.argsort puts it):
    an iteration's first value is the reflection's, and the number of values it evaluated,
    1, 2 or n + 2, tells a kept reflection from one more trial point from a shrink.
    """
    def ordered(values):
        return sorted(values, key=lambda f: (math.isnan(f), f))

    values = ordered(f for _, f in calls[: n + 1])
    steps, start = [], n + 1
    for end in ends:
        new = [f for _, f in calls[start:end]]
        start = end
        fxr, best, worst = new[0], values[0], values[-1]
        if len(new) == 1:
            steps.append("reflection")
            values = ordered([*values[:-1], fxr])
            continue
        if fxr < best:
            step = "expansion kept" if new[1] < fxr else "expansion rejected"
            accepted = new[1] if new[1] < fxr else fxr
        else:
            step = "outside contraction" if fxr < worst else "inside contraction"
            accepted = new[1]
        if len(new) == n + 2:
            steps.append("shrink")
            values = ordered([best, *new[2:]])
        else:
            assert len(new) == 2, (len(new), n)
            steps.append(step)
            values = ordered([*values[:-1], accepted])
    return steps


# (kind, n, lo, hi, start as fractions of the box, c, maxiter): chosen so that together they
# take every step, start on both bounds, tie values and meet NaN
BRANCH_CASES = [
    ("bowl", 2, 0.05, 3.0, (0.9, 0.1), 0.3, 400),
    ("bowl", 1, 0.5, 2.0, (1.0,), 0.2, 400),
    ("low_corner", 3, 0.05, 4.0, (0.0, 0.5, 1.0), 0.0, 100),
    ("high_corner", 2, 1.0, 1.04, (1.0, 1.0), 0.0, 50),
    ("flat", 2, 0.1, 1.0, (0.5, 0.5), 0.7, 5),
    ("stepped", 3, 0.2, 5.0, (0.3, 0.6, 0.9), 0.4, 200),
    ("stepped", 1, 2.18, 7.53, (0.9,), 0.66, 400),  # an expansion that ties the reflection
    ("oscillating", 4, 0.05, 4.0, (0.2, 0.4, 0.6, 0.8), 0.5, 300),
    ("valley", 3, 0.05, 3.0, (0.9, 0.5, 0.1), 0.1, 400),
    ("nan", 2, 0.1, 2.0, (0.8, 0.6), 0.5, 200),
]


# a start drawn on the upper bound can round past it; both sides clip it, and scipy also warns
@pytest.mark.filterwarnings("ignore:Initial guess is not within the specified bounds")
class TestNelderMead:
    """``_nelder_mead`` is scipy's bounded Nelder-Mead: the same points evaluated, x and nit, bit for bit."""

    @given(
        kind=st.sampled_from(SIMPLEX_KINDS),
        lo=st.floats(min_value=1e-3, max_value=10.0),
        width=st.floats(min_value=1e-6, max_value=20.0),
        start=st.lists(
            st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4
        ),
        c=st.floats(min_value=0.0, max_value=1.0),
        maxiter=st.sampled_from([1, 2, 400]) | st.integers(min_value=3, max_value=60),
        tolerances=st.sampled_from([(1e-10, 1e-14), (1e-4, 1e-4), (0.0, 0.0)]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_bit_for_bit(self, kind, lo, width, start, c, maxiter, tolerances):
        hi = lo + width
        x0 = [lo + u * (hi - lo) for u in start]
        ours, theirs, _ = _both_nelder_meads(
            _simplex_objective(kind, lo, hi, c), x0, lo, hi, maxiter, *tolerances
        )
        assert ours == theirs

    @pytest.mark.parametrize("maxiter", [1, 2])
    def test_one_and_two_iterations(self, maxiter):
        ours, theirs, ends = _both_nelder_meads(_simplex_objective("bowl", 0.1, 2.0, 0.3), [1.5, 0.4], 0.1, 2.0, maxiter)
        assert ours == theirs
        calls, _, nit = ours
        assert nit == maxiter
        # the first iteration evaluates only the starting simplex; the second adds its trial points
        assert ends == ([] if maxiter == 1 else [len(calls)])
        assert (len(calls) == 3) if maxiter == 1 else (len(calls) > 3)

    def test_each_branch_is_covered(self):
        steps = Counter()
        for kind, n, lo, hi, start, c, maxiter in BRANCH_CASES:
            x0 = [lo + u * (hi - lo) for u in start]
            ours, theirs, ends = _both_nelder_meads(_simplex_objective(kind, lo, hi, c), x0, lo, hi, maxiter)
            assert ours == theirs, kind
            steps.update(_branches(theirs[0], ends, n))
        assert set(steps) == {
            "reflection", "expansion kept", "expansion rejected",
            "outside contraction", "inside contraction", "shrink",
        }, steps

    def test_a_start_on_the_upper_bound_steps_back_into_the_box(self):
        # 1.05 hi lies above the box: scipy reflects it to 0.95 hi, or to lo past that
        for lo, hi in ((0.5, 2.0), (1.0, 1.04)):
            calls, _, _ = _both_nelder_meads(lambda x: 0.0, [hi, hi], lo, hi, 1)[0]
            first = [tuple(float.fromhex(v) for v in point) for point, _ in calls]
            assert first == [(hi, hi), (max(2 * hi - 1.05 * hi, lo), hi), (hi, max(2 * hi - 1.05 * hi, lo))]

    @pytest.mark.parametrize("n_sites, seed", [(3, 1), (5, 7), (7, 11)])
    def test_search_objectives(self, n_sites, seed):
        # the evaluations minimize runs, on a short window so that the scan stays cheap
        problem = SearchProblem(n_sites=n_sites, t_window=(0.5, 6.0), bounds=(0.05, 3.0))
        t_grid = np.linspace(*problem.t_window, 257)
        start = np.random.default_rng(seed).uniform(*problem.bounds, size=problem.n_free)
        ours, theirs, _ = _both_nelder_meads(lambda p: _evaluate(p, t_grid)[0], start, *problem.bounds, 400)
        assert ours == theirs
        assert len(ours[0]) > 50


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

    def test_one_eigensolve_per_nelder_mead_evaluation(self, monkeypatch):
        # the returned vertex reuses its own evaluation: 577 solves for 3 restarts
        # at N = 5, where solving it again took 580
        solves, evaluations = [], []
        solve, nelder_mead = search.eigendecompose, search._nelder_mead

        def counting_solve(h):
            solves.append(h.dimension)
            return solve(h)

        def counting_nelder_mead(func, *args, **kwargs):
            return nelder_mead(lambda p: evaluations.append(p.copy()) or func(p), *args, **kwargs)

        monkeypatch.setattr(search, "eigendecompose", counting_solve)
        monkeypatch.setattr(search, "_nelder_mead", counting_nelder_mead)
        result = minimize(FIVE_SITE_PROBLEM, seed=SEARCH_SEED, restarts=3)
        assert len(solves) == len(evaluations) == 577
        # the payload keeps the (objective, time) that solving the vertex again gives
        monkeypatch.undo()
        free = np.array(result.profile.couplings[:2])
        assert (result.objective, result.best_time) == _evaluate(free, np.linspace(0.5, 6.0, search._SCAN_POINTS))

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
