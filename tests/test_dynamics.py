"""Spectral decomposition, propagation, closed forms, and concurrence."""

import cmath
import fractions
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from bellchain.chain import (
    CouplingProfile,
    ResourceLimitError,
    TridiagonalHamiltonian,
    engineered_couplings,
    halved_hamiltonian,
    one_excitation_hamiltonian,
)
from bellchain.dynamics import (
    NumericFailure,
    SiteAmplitudeState,
    analytic_center_to_end,
    bell_decomposition,
    bell_time,
    center_to_end_amplitude,
    eigendecompose,
    evolve,
    grid_amplitudes,
    state_at,
    transition_amplitudes,
)
from bellchain import dynamics
from bellchain.robustness import NoisePerturbation, SwapPerturbation, perturb
from oracles import (
    analytic_halved_transfer,
    basis_amplitudes,
    chebyshev_moments,
    chebyshev_state,
    chebyshev_terms,
    dense_propagate,
    dense_tridiagonal,
    end_pair_density,
    full_hilbert_hamiltonian,
    jv_series_length,
    kapteyn_bound,
    one_excitation_indices,
    parity_labels,
    wootters_concurrence,
)

SQRT2 = math.sqrt(2.0)

PROFILE_KINDS = ("engineered", "swapped", "noisy")


def engineered_eig(n, mu=1.0):
    return eigendecompose(one_excitation_hamiltonian(engineered_couplings(n, mu)))


def profile_of_kind(kind, n):
    """The engineered n-site profile, with D_1 and D_2 exchanged, or with 5% noise."""
    profile = engineered_couplings(n, 1.0)
    if kind == "swapped":
        return perturb(profile, SwapPerturbation(1, 2))
    if kind == "noisy":
        return perturb(profile, NoisePerturbation(sigma=0.05, seed=n))
    return profile


class TestCouplingRule:
    """Every kernel takes a TridiagonalHamiltonian, which refuses bad couplings.

    N = 401 takes the Chebyshev path, whose Gershgorin bound a negated
    or NaN coupling would make negative or NaN.
    """

    def test_negated_long_chain_is_refused(self):
        negated = tuple(-d for d in engineered_couplings(401, 1.0).couplings)
        with pytest.raises(ValueError, match="coupling D_1 must be positive and finite, got -"):
            grid_amplitudes(TridiagonalHamiltonian(negated), 0, 200, [math.pi, 2.0 * math.pi])

    def test_nan_coupling_is_refused(self):
        couplings = list(engineered_couplings(401, 1.0).couplings)
        couplings[200] = math.nan
        with pytest.raises(ValueError, match="coupling D_201 must be positive and finite, got nan"):
            state_at(TridiagonalHamiltonian(tuple(couplings)), 200, math.pi)


class TestEigendecompose:
    def test_uniform_3x3(self):
        # characteristic polynomial by hand: lambda (lambda^2 - 2) = 0
        eig = eigendecompose(TridiagonalHamiltonian((1.0, 1.0)))
        np.testing.assert_allclose(eig.eigenvalues, [-SQRT2, 0.0, SQRT2], atol=1e-12)
        k0 = int(np.argmin(np.abs(eig.eigenvalues)))
        assert parity_labels(eig.eigenvectors)[k0] == "antisymmetric"
        assert abs(eig.eigenvectors[1, k0]) < 1e-12

    def test_two_sites(self):
        eig = eigendecompose(TridiagonalHamiltonian((0.7,)))
        np.testing.assert_allclose(eig.eigenvalues, [-0.7, 0.7], atol=1e-12)

    def test_n9_engineered_parity_census(self):
        eig = engineered_eig(9)
        anti = [k for k, p in enumerate(parity_labels(eig.eigenvectors)) if p == "antisymmetric"]
        assert len(anti) == 4
        for k in anti:
            assert abs(eig.eigenvectors[4, k]) < 1e-10

    @pytest.mark.parametrize("n", [3, 5, 9, 21, 41])
    def test_orthonormal_and_eigen_residual(self, n):
        h = one_excitation_hamiltonian(engineered_couplings(n, 1.0))
        eig = eigendecompose(h)
        u = eig.eigenvectors
        np.testing.assert_allclose(u.T @ u, np.eye(n), atol=1e-10)
        dense = dense_tridiagonal(h.off_diagonal)
        scale = np.linalg.norm(dense, 2)
        residual = dense @ u - u * eig.eigenvalues[np.newaxis, :]
        assert np.max(np.abs(residual)) < 1e-10 * scale

    @pytest.mark.parametrize("n", [3, 5, 9, 21])
    def test_parity_labels_match_mirror_residuals(self, n):
        eig = engineered_eig(n)
        labels = parity_labels(eig.eigenvectors)
        for k in range(n):
            u = eig.eigenvectors[:, k]
            if labels[k] == "symmetric":
                assert np.max(np.abs(u - u[::-1])) < 1e-9
            else:
                assert np.max(np.abs(u + u[::-1])) < 1e-9

    def test_sign_normalization_first_component_positive(self):
        eig = engineered_eig(9)
        assert np.all(eig.eigenvectors[0, :] > 0)

    def test_returned_arrays_are_read_only(self):
        eig = engineered_eig(9)
        with pytest.raises(ValueError):
            eig.eigenvalues[0] = 1.0
        with pytest.raises(ValueError):
            eig.eigenvectors[0, 0] = 1.0

    @pytest.mark.parametrize("n", [3, 5, 9, 21, 41])
    def test_spectrum_symmetric_about_zero_with_zero_mode(self, n):
        # zero diagonal makes the chain bipartite: eigenvalues come in
        # +/- pairs and odd dimension forces one exact zero
        eig = engineered_eig(n)
        np.testing.assert_allclose(
            eig.eigenvalues, -eig.eigenvalues[::-1], atol=1e-10
        )
        assert np.min(np.abs(eig.eigenvalues)) < 1e-10

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            eigendecompose(TridiagonalHamiltonian(()))
        with pytest.raises(ValueError):
            eigendecompose(TridiagonalHamiltonian((1.0, -1.0)))

    def test_refuses_eigenvectors_larger_than_physical_memory(self, monkeypatch):
        # N^2 doubles of eigenvectors and dstevd's 1 + 4N + N^2 of workspace
        h = one_excitation_hamiltonian(engineered_couplings(9, 1.0))
        needed = 8 * (9**2 + 1 + 4 * 9 + 9**2)
        monkeypatch.setattr(dynamics, "_memory_limit_bytes", lambda: needed - 1)
        with pytest.raises(ResourceLimitError, match="9 sites"):
            eigendecompose(h)
        monkeypatch.setattr(dynamics, "_memory_limit_bytes", lambda: needed)
        assert eigendecompose(h).dimension == 9

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_off_diagonals(self, monkeypatch, bad):
        monkeypatch.setattr(scipy.linalg.lapack, "dstevd", refuse_eigensolve)
        with pytest.raises(ValueError, match="positive and finite"):
            eigendecompose(TridiagonalHamiltonian((1.0, bad, 1.0)))

    def test_lapack_failure_is_a_numeric_failure(self, monkeypatch):
        def not_converged(d, e, **kwargs):
            return np.zeros(len(d)), np.eye(len(d)), 2

        monkeypatch.setattr(scipy.linalg.lapack, "dstevd", not_converged)
        with pytest.raises(NumericFailure) as failure:
            eigendecompose(one_excitation_hamiltonian(engineered_couplings(9, 1.0)))
        assert failure.value.dimension == 9

    @pytest.mark.parametrize("n", [2, 3, 9, 50, 101])
    def test_bitwise_equal_to_scipy_eigh_tridiagonal(self, n):
        rng = np.random.default_rng(n)
        off = rng.uniform(0.1, 2.0, n - 1)
        eig = eigendecompose(TridiagonalHamiltonian(off))
        eigenvalues, vectors = scipy.linalg.eigh_tridiagonal(np.zeros(n), off)
        vectors *= np.where(vectors[0] < 0, -1.0, 1.0)
        assert np.array_equal(eig.eigenvalues.view(np.uint64), eigenvalues.view(np.uint64))
        assert np.array_equal(eig.eigenvectors.view(np.uint64), vectors.view(np.uint64))

    def test_numeric_failure_carries_dimension(self):
        failure = NumericFailure(17)
        assert failure.dimension == 17
        assert "17" in str(failure)


class TestStates:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            SiteAmplitudeState(np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="not normalized"):
            SiteAmplitudeState(np.array([1.0, math.nan]))

    def test_amplitudes_are_read_only(self):
        s = SiteAmplitudeState(basis_amplitudes(3, 1))
        with pytest.raises(ValueError):
            s.amplitudes[0] = 1.0


class TestEvolve:
    def test_identity_at_t0(self):
        out = evolve(engineered_eig(5), 2, 0.0)
        np.testing.assert_allclose(out.amplitudes, basis_amplitudes(5, 2), atol=1e-12)

    def test_center_to_ends_at_bell_time(self):
        eig = engineered_eig(5)
        out = evolve(eig, 2, math.pi)
        assert abs(out.amplitudes[0]) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(out.amplitudes[4]) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_group_property(self):
        # column j of exp(-iH 1.9) is the evolved excitation on site j
        eig = engineered_eig(9)
        propagator = np.column_stack([evolve(eig, j, 1.9).amplitudes for j in range(9)])
        one_step = propagator @ evolve(eig, 4, 0.7).amplitudes
        two_step = evolve(eig, 4, 2.6)
        np.testing.assert_allclose(one_step, two_step.amplitudes, atol=1e-11)

    def test_norm_drift_over_long_times(self):
        eig = engineered_eig(9)
        for t in np.linspace(0.0, 100.0, 11):
            out = evolve(eig, 4, float(t))
            assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        # a start site outside the chain
        for site in (-1, 5, 9):
            with pytest.raises(ValueError, match=f"site {site} outside 0..4"):
                evolve(engineered_eig(5), site, 1.0)

    @given(t=st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=30, deadline=None)
    def test_norm_preserved_any_time(self, t):
        eig = engineered_eig(7)
        out = evolve(eig, 1, t)
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-12

    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=20).map(lambda k: 2 * k + 1),
        kind=st.sampled_from(PROFILE_KINDS),
        t=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_site_matches_dense_exponential(self, data, n, kind, t):
        site = data.draw(st.integers(min_value=0, max_value=n - 1))
        h = one_excitation_hamiltonian(profile_of_kind(kind, n))
        out = evolve(eigendecompose(h), site, t)
        expected = dense_propagate(dense_tridiagonal(h.off_diagonal), basis_amplitudes(n, site), t)
        np.testing.assert_allclose(out.amplitudes, expected, rtol=0, atol=1e-12)


def chebyshev_evolve(h, site, t):
    """The Chebyshev series of one chain up to a million terms (state_at uses it only below 8N)."""
    bound, n_terms = dynamics._chebyshev_plan(h, [t], 10**6)
    return SiteAmplitudeState(dynamics._chebyshev_states(np.array([h.off_diagonal]), site, t, np.array([bound]), [n_terms])[0])


def bessel_row(x, n_terms):
    """``_bessel_rows`` of one argument."""
    return dynamics._bessel_rows(np.array([x]), [n_terms])[0]


class TestStateAt:
    @pytest.mark.parametrize("kind", PROFILE_KINDS)
    @pytest.mark.parametrize("n", [9, 101, 401, 2001])  # at N = 9 state_at recurs only at t = 0
    def test_chebyshev_matches_dense_evolve(self, n, kind):
        h = one_excitation_hamiltonian(profile_of_kind(kind, n))
        eig = eigendecompose(h)
        t0 = bell_time(1.0)
        for site, t in itertools.product((0, n // 2, n // 2 + 1), (0.0, t0, 3.0 * t0)):
            reference = evolve(eig, site, t).amplitudes
            np.testing.assert_allclose(
                chebyshev_evolve(h, site, t).amplitudes, reference, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                state_at(h, site, t).amplitudes, reference, rtol=0, atol=1e-12
            )

    def test_long_chain_matches_closed_form_without_eigensolve(self, monkeypatch):
        def no_eigensolve(h):
            raise AssertionError("the dense path was taken")

        monkeypatch.setattr(dynamics, "eigendecompose", no_eigensolve)
        n = 8001
        t0 = bell_time(1.0)
        state = state_at(one_excitation_hamiltonian(engineered_couplings(n, 1.0)), n // 2, t0)
        expected = analytic_center_to_end(n, 1.0, t0)
        assert abs(state.amplitudes[0] - expected) < 1e-11
        assert abs(state.amplitudes[-1] - expected) < 1e-11
        assert bell_decomposition(state).residual_norm < 1e-11

    # At t = 1000, K = 2612 >> N = 9: the dense path took 0.053 ms and the
    # forced recurrence 15 ms, about 280x (one BLAS thread, 2-core host).
    def test_short_chain_takes_the_dense_path_bit_for_bit(self, monkeypatch):
        calls = []

        def counting(h):
            calls.append(h.dimension)
            return eigendecompose(h)

        monkeypatch.setattr(dynamics, "eigendecompose", counting)
        h = one_excitation_hamiltonian(engineered_couplings(9, 1.0))
        state = state_at(h, 4, 1000.0)
        assert calls == [9]
        assert np.array_equal(state.amplitudes, evolve(eigendecompose(h), 4, 1000.0).amplitudes)

    def test_size_rule_compares_terms_with_8n(self, monkeypatch):
        # every readout at t0 takes the recurrence (K <= 7N), and K = 8N - 1 and
        # 8N split the paths as they do for a one-time grid
        monkeypatch.setattr(dynamics, "eigendecompose", refuse_eigensolve)
        t0 = bell_time(1.0)
        for n in (3, 9, 101, 387, 389, 1001):
            h = one_excitation_hamiltonian(engineered_couplings(n, 1.0))
            _, n_terms = dynamics._chebyshev_plan(h, [t0], 10**6)
            assert n <= n_terms < 8 * n if n < 389 else n_terms < n
            np.testing.assert_array_equal(state_at(h, n // 2, t0).amplitudes, chebyshev_evolve(h, n // 2, t0).amplitudes)
        for n, t_in, t_out in ((9, 12.93, 12.94), (401, 30.18, 30.19)):
            h = one_excitation_hamiltonian(engineered_couplings(n, 1.0))
            assert dynamics._chebyshev_plan(h, [t_in], 10**6)[1] == 8 * n - 1
            assert dynamics._chebyshev_plan(h, [t_out], 10**6)[1] == 8 * n
            state_at(h, n // 2, t_in)
            with pytest.raises(AssertionError, match="the dense path was taken"):
                state_at(h, n // 2, t_out)

    def test_recurrence_at_t0_matches_the_dense_path_on_short_chains(self):
        t0 = bell_time(1.0)
        for n in (3, 5, 9, 21):
            for kind in PROFILE_KINDS:
                h = one_excitation_hamiltonian(profile_of_kind(kind, n))
                for site in (0, n // 2, n - 1):
                    reference = evolve(eigendecompose(h), site, t0).amplitudes
                    np.testing.assert_allclose(state_at(h, site, t0).amplitudes, reference, rtol=0, atol=1e-13)

    # grid_amplitudes on engineered chains from the center, 61 times, warm, one
    # BLAS thread, 2-core host; the recurrence against eigendecompose +
    # transition_amplitudes:
    #   N = 3, 9   dense faster at every K; on 3.0:3.3:0.005 (K = 21, 35)
    #              0.14-0.19 ms against 0.02-0.03 ms
    #   N = 101    even at K = 1.9N (0.58 ms each), dense faster past it
    #   N = 401    recurrence faster up to about K = 5N (4.8 against 6.5 ms at
    #              4.4N), dense past it (7.6 against 6.4 ms at 6.4N)
    #   N = 4001   recurrence faster at every K measured, 396 against 723 ms at 20N
    # The worst grid the 8N clause admits (K just under 8N, T K just under
    # 2^20) takes 11-24 ms on the recurrence against 4-11 ms dense at
    # N = 3..387, and importing the dense path costs a cold process 0.22 s.
    def test_grid_rule_takes_the_recurrence_below_8n_terms_and_2_20_entries(self, monkeypatch):
        calls = []

        def counting(h):
            calls.append(h.dimension)
            return eigendecompose(h)

        monkeypatch.setattr(dynamics, "eigendecompose", counting)

        def dense(h, times):
            calls.clear()
            grid_amplitudes(h, 0, h.dimension // 2, times)
            return calls == [h.dimension]

        def terms(h, times):
            return dynamics._chebyshev_plan(h, times, 10**6)[1]

        # every engineered readout at t0 needs fewer than 8N terms: K <= 7N
        t0 = bell_time(1.0)
        for n in range(3, 1002, 2):
            h = one_excitation_hamiltonian(engineered_couplings(n, 1.0))
            assert terms(h, [t0]) <= 7 * n
        for n in (3, 9, 101, 387):
            assert not dense(one_excitation_hamiltonian(engineered_couplings(n, 1.0)), [t0])
        for n, t_in, t_out in ((9, 12.93, 12.94), (401, 30.18, 30.19)):
            h = one_excitation_hamiltonian(engineered_couplings(n, 1.0))
            assert terms(h, [t_in]) == 8 * n - 1 and not dense(h, [t_in])
            assert terms(h, [t_out]) == 8 * n and dense(h, [t_out])
        # a long grid at N = 9: T K just inside 2^20, then one time more
        h = one_excitation_hamiltonian(engineered_couplings(9, 1.0))
        n_terms = terms(h, [9.0])
        assert 9 <= n_terms < 72
        n_times = (1 << 20) // n_terms
        assert not dense(h, np.linspace(0.0, 9.0, n_times))
        assert dense(h, np.linspace(0.0, 9.0, n_times + 1))
        assert not dense(h, [])

    def test_bessel_series_truncation(self):
        assert dynamics._series_length(0.0, 3) == 1
        n_terms = dynamics._series_length(50.0, 10**6)
        assert n_terms > 51
        self.check_series_length(50.0, n_terms, 16)
        assert dynamics._series_length(50.0, 51) is None
        assert dynamics._series_length(50.0, n_terms) is None
        assert dynamics._series_length(50.0, n_terms + 1) is not None
        # J_4 vanishes at its first zero, 7.588...; an order below x never ends the series
        first_zero = float(scipy.special.jn_zeros(4, 1)[0])
        assert dynamics._series_length(first_zero, 5) is None

    @staticmethod
    def check_series_length(x, n_terms, excess):
        # every dropped order is below the tolerance, K exceeds the jv-minimal
        # order by at most ``excess``, and Kapteyn's bound still keeps order K-1
        tol = dynamics._BESSEL_TOL
        assert np.all(np.abs(scipy.special.jv(np.arange(n_terms, n_terms + 65), x)) <= tol)
        k_jv = jv_series_length(x, 10**6, tol)
        assert k_jv <= n_terms <= k_jv + excess
        assert kapteyn_bound(n_terms - 1, x) > tol

    @given(x=st.floats(min_value=0.0, max_value=5000.0))
    @settings(max_examples=60, deadline=None)
    def test_series_length_from_kapteyn_bound(self, x):
        # the bound is loosest near the turning point; up to x = 5000 it costs at most 17 orders
        self.check_series_length(x, dynamics._series_length(x, 10**6), 17)

    @pytest.mark.parametrize("x, n_terms, excess", [(3143.16, 3320, 14), (78540.0, 79054, 49)])
    def test_series_length_at_long_chains(self, x, n_terms, excess):
        # about Lambda t0 for N = 4001 and for the site cap
        assert dynamics._series_length(x, 10**6) == n_terms
        self.check_series_length(x, n_terms, excess)

    @pytest.mark.parametrize("x", [0.0, -7.3, 12.5, 50.0, 3143.0])
    def test_fft_bessel_row_matches_jv(self, x):
        n_terms = dynamics._series_length(x, 10**6)
        row = bessel_row(x, n_terms)
        expected = scipy.special.jv(np.arange(n_terms), x)
        np.testing.assert_allclose(row, expected, rtol=0, atol=1e-13)
        if x == 0.0:
            assert row.tolist() == [1.0]

    def test_negative_time_inverts_the_propagator(self):
        # H is real symmetric, so exp(iHt) is the conjugate and the transpose of
        # exp(-iHt): <site| exp(iHt) exp(-iHt) |site> is the unconjugated product
        # of the two evolved columns
        h = one_excitation_hamiltonian(profile_of_kind("noisy", 401))
        for site in (0, 200, 201):
            there = chebyshev_evolve(h, site, 2.0).amplitudes
            back = chebyshev_evolve(h, site, -2.0).amplitudes
            np.testing.assert_allclose(back, there.conj(), rtol=0, atol=1e-12)
            assert abs(np.dot(back, there) - 1.0) < 1e-12

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 1e308])
    def test_rejects_non_finite_phase(self, t):
        h = one_excitation_hamiltonian(engineered_couplings(9, 1.0))
        with pytest.raises(ValueError, match="not finite"):
            state_at(h, 4, t)
        with pytest.raises(ValueError, match="not finite"):
            chebyshev_evolve(h, 4, t)
        with pytest.raises(ValueError, match="not finite"):
            grid_amplitudes(h, 0, 4, [0.0, t])

    def test_dimension_mismatch(self):
        # a start site outside the chain, on both paths
        for n, t in ((9, 1.0), (401, 0.5)):
            h = one_excitation_hamiltonian(engineered_couplings(n, 1.0))
            for site in (-1, n):
                with pytest.raises(ValueError, match=f"site {site} outside 0..{n - 1}"):
                    state_at(h, site, t)


def refuse_eigensolve(*args, **kwargs):
    raise AssertionError("the dense path was taken")


class TestGridAmplitudes:
    # symmetric about and holding t = 0; K < N for every chain below
    GRID = np.linspace(-1.5, 1.5, 25)

    @pytest.mark.parametrize("kind", PROFILE_KINDS)
    @pytest.mark.parametrize("n", [401, 2001])
    def test_chebyshev_grid_matches_dense_path(self, n, kind, monkeypatch):
        h = one_excitation_hamiltonian(profile_of_kind(kind, n))
        assert dynamics._chebyshev_plan(h, self.GRID, n) is not None
        eig = eigendecompose(h)
        monkeypatch.setattr(dynamics, "eigendecompose", refuse_eigensolve)
        # the ends lie outside the center's light cone on this grid, so mid-chain
        # rows (even and odd distance) and a pair on the swapped bonds carry the values
        for row, column in ((0, n // 2), (n // 4, n // 2), (n // 4 + 1, n // 2), (0, 3)):
            (expected,) = transition_amplitudes(eig, [row], column, self.GRID)
            amps = grid_amplitudes(h, row, column, self.GRID)
            np.testing.assert_allclose(amps, expected, rtol=0, atol=1e-12)
            # a real Hamiltonian: <r| exp(iHt) |c> is the conjugate of <r| exp(-iHt) |c>
            np.testing.assert_allclose(amps[::-1], amps.conj(), rtol=0, atol=1e-12)

    def test_single_points(self, monkeypatch):
        n = 401
        h = one_excitation_hamiltonian(engineered_couplings(n, 1.0))
        eig = eigendecompose(h)
        monkeypatch.setattr(dynamics, "eigendecompose", refuse_eigensolve)
        for t in (-0.2, 0.1, 0.3):
            (expected,) = transition_amplitudes(eig, [n // 2 + 3], n // 2, [t])
            amps = grid_amplitudes(h, n // 2 + 3, n // 2, [t])
            assert amps.shape == (1,)
            assert abs(expected[0]) > 0.01 and abs(amps[0] - expected[0]) < 1e-12
        assert grid_amplitudes(h, n // 2, n // 2, [0.0]).tolist() == [1.0]
        assert grid_amplitudes(h, 0, n // 2, [0.0]).tolist() == [0.0]

    def test_long_grid_on_a_short_chain_takes_the_eigensolve(self, monkeypatch):
        # the grid 0:1000:1 needs K = 2612 >> N = 9 terms: the dense path took 0.66 ms
        # and the forced recurrence 98 ms, about 150x (one BLAS thread, 2-core host)
        h = one_excitation_hamiltonian(engineered_couplings(9, 1.0))
        times = np.arange(1001) * 1.0
        calls = []

        def counting(h):
            calls.append(h.dimension)
            return eigendecompose(h)

        monkeypatch.setattr(dynamics, "eigendecompose", counting)
        dense = grid_amplitudes(h, 0, 4, times)
        assert calls == [9]
        plan = dynamics._chebyshev_plan
        monkeypatch.setattr(dynamics, "_chebyshev_plan", lambda h, times, max_terms: plan(h, times, 10**6))
        monkeypatch.setattr(dynamics, "eigendecompose", refuse_eigensolve)
        np.testing.assert_allclose(grid_amplitudes(h, 0, 4, times), dense, rtol=0, atol=1e-12)

    # the Chebyshev path, and the dense one at a time where K >= 8N
    @pytest.mark.parametrize("n, times", [(401, GRID), (9, [1000.0])], ids=["401", "9"])
    def test_site_outside_the_chain_is_refused(self, n, times):
        h = one_excitation_hamiltonian(engineered_couplings(n, 1.0))
        assert (dynamics._chebyshev_plan(h, times, 8 * n) is None) is (n == 9)
        for site in (-1, n):
            with pytest.raises(ValueError, match=f"site {site} outside 0..{n - 1}"):
                grid_amplitudes(h, site, n // 2, times)
            with pytest.raises(ValueError, match=f"site {site} outside 0..{n - 1}"):
                grid_amplitudes(h, 0, site, times)

    @pytest.mark.parametrize("n, tolerance", [(4001, 2.5e-13), (20001, 1e-11)])
    def test_long_chain_matches_closed_form_without_eigensolve(self, n, tolerance, monkeypatch):
        monkeypatch.setattr(scipy.linalg.lapack, "dstevd", refuse_eigensolve)
        times = 3.0 + np.arange(61) * 0.005
        amps = grid_amplitudes(one_excitation_hamiltonian(engineered_couplings(n, 1.0)), 0, n // 2, times)
        expected = [analytic_center_to_end(n, 1.0, t) for t in times]
        assert np.max(np.abs(amps - expected)) <= tolerance


class TestSecondExactBellChain:
    """An exact Bell chain outside the engineered (Krawtchouk) family, on three readout paths.

    Couplings (sqrt 7, 6, sqrt 3.5, sqrt 3.5, 6, sqrt 7) have every engineered
    symmetry but are not the engineered N = 7 chain of any mu; from the center
    they still put a maximally entangled pair on the ends at t = pi/2 (mu = 2),
    so these checks reach beyond the one closed form.
    """

    H = TridiagonalHamiltonian((math.sqrt(7), 6.0, math.sqrt(3.5), math.sqrt(3.5), 6.0, math.sqrt(7)))
    T = math.pi / 2

    def test_dense_state_at(self):
        assert dynamics._chebyshev_plan(self.H, [self.T], 7) is None
        assert bell_decomposition(state_at(self.H, 3, self.T)).concurrence >= 1.0 - 1e-12

    def test_chebyshev_state(self):
        state = chebyshev_evolve(self.H, 3, self.T)
        assert bell_decomposition(state).concurrence >= 1.0 - 1e-12

    def test_chebyshev_grid_matches_transition_amplitudes(self, monkeypatch):
        times = np.linspace(0.0, self.T, 9)
        expected = transition_amplitudes(eigendecompose(self.H), [0, 6], 3, times)
        plan = dynamics._chebyshev_plan
        monkeypatch.setattr(dynamics, "_chebyshev_plan", lambda h, times, max_terms: plan(h, times, 10**6))
        monkeypatch.setattr(scipy.linalg.lapack, "dstevd", refuse_eigensolve)
        first, last = (grid_amplitudes(self.H, row, 3, times) for row in (0, 6))
        np.testing.assert_allclose(first, expected[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(last, expected[1], rtol=0, atol=1e-12)
        assert 2.0 * abs(first[-1]) * abs(last[-1]) >= 1.0 - 1e-12


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def reference_state(h, site, t):
    """The sum of ``_chebyshev_states`` for one chain, with its terms from the whole-chain recurrence."""
    bound, n_terms = dynamics._chebyshev_plan(h, [t], 10**6)
    bessel = bessel_row(bound * t, n_terms)
    weights = dynamics._chebyshev_weights(bessel)
    return chebyshev_state(h.off_diagonal, site, bound, weights)


def reference_grid(h, row, column, times):
    """``grid_amplitudes`` with its moments from the whole-chain recurrence."""
    bound, n_terms = dynamics._chebyshev_plan(h, times, 10**6)
    moments = chebyshev_moments(h.off_diagonal, row, column, bound, n_terms)
    return dynamics._bessel_sums(dynamics._chebyshev_weights(moments), bound * np.asarray(times))


def table_sums(weights, xs):
    """sum_k c_k J_k(x) as a table of J_k(x) times the complex coefficients c_k = w_k (-i)^(k mod 2)."""
    coefficients = weights * np.where(np.arange(len(weights)) % 2, -1j, 1.0)
    table = np.array([bessel_row(x, len(weights)) for x in xs])
    return table @ coefficients


def table_grid(h, row, column, times):
    """``grid_amplitudes`` with the whole-chain moments summed over a Bessel table instead of the quadrature."""
    bound, n_terms = dynamics._chebyshev_plan(h, times, 10**6)
    moments = chebyshev_moments(h.off_diagonal, row, column, bound, n_terms)
    return table_sums(dynamics._chebyshev_weights(moments), bound * np.asarray(times))


def whole_terms(h, site, bound, n_terms, row=None):
    """The half-length terms of ``_chebyshev_terms`` put on their sites: row k is T_k, +0 off its sublattice."""
    n = h.dimension
    bonds = dynamics._doubled_bonds(np.array([h.off_diagonal]), np.array([bound]))
    terms = np.zeros((n_terms, n))
    for k, s, term in dynamics._chebyshev_terms(bonds, site, n_terms, row):
        terms[k, s::2] = term
    return terms


def random_chain(n, seed):
    return TridiagonalHamiltonian(tuple(np.random.default_rng(seed).uniform(0.5, 1.5, n - 1)))


class TestLightConeRecurrence:
    """The windowed two-sublattice recurrence against the whole-chain one in oracles.py, bit for bit."""

    CHUNKS = (1, 3, 64, 10**6)  # 10**6 is above every K here: one block
    SIZES = (401, 403)  # center site 200 is even, 201 odd

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("kind", PROFILE_KINDS)
    def test_state_matches_whole_chain(self, kind, chunk, monkeypatch):
        monkeypatch.setattr(dynamics, "_CONE_CHUNK", chunk)
        t0 = bell_time(1.0)
        for n in self.SIZES:
            h = one_excitation_hamiltonian(profile_of_kind(kind, n))
            # the ends, the center and its neighbour on the other sublattice
            for site in (0, n - 1, n // 2, n // 2 + 1):
                for t in (0.4, -0.4, t0, 3.0 * t0):
                    out = chebyshev_evolve(h, site, t).amplitudes
                    assert np.array_equal(bits(out), bits(reference_state(h, site, t)))

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("kind", PROFILE_KINDS)
    def test_short_chain_crossed_by_the_cone(self, kind, chunk, monkeypatch):
        # K far above N: every block window is clamped at both ends of the chain
        monkeypatch.setattr(dynamics, "_CONE_CHUNK", chunk)
        for n in (3, 5, 9):
            h = one_excitation_hamiltonian(profile_of_kind(kind, n))
            for site in (0, n - 1, 1):
                out = chebyshev_evolve(h, site, 40.0).amplitudes
                assert np.array_equal(bits(out), bits(reference_state(h, site, 40.0)))

    @pytest.mark.parametrize("chunk", [1, 3, 10**6])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 30, 31])
    def test_starts_on_one_or_both_sublattices(self, n, chunk, monkeypatch):
        # every site, so starts on both sublattices; the odd sizes put site N-1
        # on the even sublattice, the even sizes on the odd one
        monkeypatch.setattr(dynamics, "_CONE_CHUNK", chunk)
        h = random_chain(n, seed=n)
        bound, n_terms = dynamics._chebyshev_plan(h, [25.0], 10**6)
        for site in range(n):
            for t in (0.3, 2.0, 25.0):
                out = chebyshev_evolve(h, site, t).amplitudes
                assert np.array_equal(bits(out), bits(reference_state(h, site, t)))
            expected = [term.copy() for term in chebyshev_terms(h.off_diagonal, site, bound, n_terms)]
            terms = whole_terms(h, site, bound, n_terms)
            # adding +0.0 turns -0.0 into +0.0 and keeps every other value
            assert np.array_equal(bits(terms + 0.0), bits(np.array(expected) + 0.0))
            c = site % 2
            assert not np.any(terms[0::2, 1 - c :: 2]) and not np.any(terms[1::2, c::2])

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("n", [41, 42])
    def test_signed_zeros_at_both_chain_ends(self, n, chunk, monkeypatch):
        # bonds of 1e-120 on the outer five at each end underflow the light-cone
        # edge there to signed zeros; raw bits, so -0.0 against +0.0 fails
        monkeypatch.setattr(dynamics, "_CONE_CHUNK", chunk)
        off = np.random.default_rng(n).uniform(0.5, 1.5, n - 1)
        off[:5] = off[-5:] = 1e-120
        h = TridiagonalHamiltonian(tuple(off))
        bound, n_terms = dynamics._chebyshev_plan(h, [25.0], 10**6)
        for site in range(n):
            expected = [term.copy() for term in chebyshev_terms(h.off_diagonal, site, bound, n_terms)]
            assert np.array_equal(bits(whole_terms(h, site, bound, n_terms)), bits(expected))
            for row in (0, n // 2, n - 1):
                moments = whole_terms(h, site, bound, n_terms, row)[:, row]
                assert np.array_equal(bits(moments), bits(chebyshev_moments(h.off_diagonal, row, site, bound, n_terms)))

    def test_long_chain_matches_whole_chain(self):
        # about 16,000 steps in 250 blocks, with windows of up to 10,000 entries per sublattice
        n = 20003
        h = one_excitation_hamiltonian(engineered_couplings(n, 1.0))
        out = chebyshev_evolve(h, n // 2, bell_time(1.0)).amplitudes
        assert np.array_equal(bits(out), bits(reference_state(h, n // 2, bell_time(1.0))))

    def test_state_readout_memory_is_linear_in_the_chain(self):
        # 16 N bytes is one complex amplitude per site, the row the readout returns;
        # the buffers, sums and Bessel samples together stay within 20 such rows
        n = 20001
        h = one_excitation_hamiltonian(engineered_couplings(n, 1.0))
        tracemalloc.start()
        try:
            dynamics.states_at([h], n // 2, bell_time(1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 16 * n, peak / (16 * n)

    @pytest.mark.parametrize("n_terms", [1, 2])
    def test_one_and_two_terms(self, n_terms):
        n = self.SIZES[0]
        h = one_excitation_hamiltonian(profile_of_kind("noisy", n))
        bound, _ = dynamics._chebyshev_plan(h, [1.0], 10**6)
        t = 0.0 if n_terms == 1 else 1e-10 / bound
        assert dynamics._chebyshev_plan(h, [t], 10**6) == (bound, n_terms)
        for site in (0, n // 2 + 1, n - 1):
            out = chebyshev_evolve(h, site, t).amplitudes
            assert np.array_equal(bits(out), bits(reference_state(h, site, t)))
            terms = whole_terms(h, site, bound, n_terms)
            expected = [term.copy() for term in chebyshev_terms(h.off_diagonal, site, bound, n_terms)]
            assert np.array_equal(bits(terms), bits(expected))

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("kind", PROFILE_KINDS)
    def test_grid_matches_whole_chain(self, kind, chunk, monkeypatch):
        monkeypatch.setattr(dynamics, "_CONE_CHUNK", chunk)
        times = np.linspace(-1.2, 1.5, 19)
        for n in self.SIZES:
            h = one_excitation_hamiltonian(profile_of_kind(kind, n))
            bound, n_terms = dynamics._chebyshev_plan(h, times, n)
            pairs = [(0, n // 2), (n - 1, n // 2), (n // 2, n // 2), (0, 0), (n - 1, n - 1), (0, 7), (n // 4, n // 2 + 1)]
            for row, column in pairs:
                moments = whole_terms(h, column, bound, n_terms, row)[:, row]
                expected = chebyshev_moments(h.off_diagonal, row, column, bound, n_terms)
                assert np.array_equal(bits(moments), bits(expected))
                out = grid_amplitudes(h, row, column, times)
                assert np.array_equal(bits(out), bits(reference_grid(h, row, column, times)))

    @pytest.mark.parametrize("n", SIZES)
    def test_moments_off_the_rows_sublattice_are_plus_zero(self, n, monkeypatch):
        h = one_excitation_hamiltonian(profile_of_kind("noisy", n))
        times = np.linspace(-1.2, 1.5, 19)
        bound, n_terms = dynamics._chebyshev_plan(h, times, n)
        seen, weights = [], dynamics._chebyshev_weights
        monkeypatch.setattr(dynamics, "_chebyshev_weights", lambda moments: weights(seen.append(moments) or moments))
        for row, column in ((0, n // 2), (n - 1, n // 2), (n // 2 + 1, n // 2), (1, 0), (n - 2, n - 1), (0, 0)):
            grid_amplitudes(h, row, column, times)
            moments = seen.pop()
            assert np.array_equal(bits(moments), bits(chebyshev_moments(h.off_diagonal, row, column, bound, n_terms)))
            on, off = moments[(row - column) % 2 :: 2], moments[(row - column + 1) % 2 :: 2]
            assert np.any(on)
            assert np.array_equal(bits(off), bits(np.zeros(len(off))))

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_row_outside_the_cone_reads_exactly_zero(self, chunk, monkeypatch):
        monkeypatch.setattr(dynamics, "_CONE_CHUNK", chunk)
        n = self.SIZES[0]
        h = one_excitation_hamiltonian(profile_of_kind("swapped", n))
        times = np.linspace(0.0, 0.5, 11)
        bound, n_terms = dynamics._chebyshev_plan(h, times, n)
        assert n_terms < n // 2
        for row, column in ((n - 1, 0), (0, n - 1), (n // 2 + n_terms, n // 2)):
            moments = whole_terms(h, column, bound, n_terms, row)[:, row]
            assert np.array_equal(bits(moments), bits(np.zeros(n_terms)))
            out = grid_amplitudes(h, row, column, times)
            assert np.array_equal(bits(out), bits(np.zeros(len(times), dtype=complex)))
            assert np.array_equal(bits(out), bits(reference_grid(h, row, column, times)))


class TestBlocksOfChains:
    """``states_at`` runs one recurrence for chains of one length; each row has the bits of its chain alone."""

    def test_rows_equal_each_chain_alone(self):
        # bounds and K differ between the chains, and a K >= 8N row takes the eigensolve
        n, t0 = 21, bell_time(1.0)
        rng = np.random.default_rng(4)
        chains = [one_excitation_hamiltonian(profile_of_kind(kind, n)) for kind in PROFILE_KINDS]
        chains += [TridiagonalHamiltonian(tuple(rng.uniform(0.2, scale, n - 1))) for scale in (0.5, 2.0, 9.0, 60.0)]
        plans = [dynamics._chebyshev_plan(h, [t0], 8 * n) for h in chains]
        assert len({plan[1] for plan in plans[:-1]}) > 4 and plans[-1] is None
        for site in (0, n // 2, n - 1):
            block = dynamics.states_at(chains, site, t0)
            for h, amplitudes in zip(chains, block):
                assert np.array_equal(bits(amplitudes), bits(state_at(h, site, t0).amplitudes))
            assert np.array_equal(bits(block[-1]), bits(evolve(eigendecompose(chains[-1]), site, t0).amplitudes))

    def test_chains_past_the_shared_length_run_alone_with_the_same_bits(self, monkeypatch):
        n, t0 = 21, bell_time(1.0)
        chains = [random_chain(n, seed) for seed in range(4)]
        shared = dynamics.states_at(chains, n // 2, t0)
        runs, states = [], dynamics._chebyshev_states

        def counting_states(off, *args):
            runs.append(len(off))
            return states(off, *args)

        monkeypatch.setattr(dynamics, "_chebyshev_states", counting_states)
        monkeypatch.setattr(dynamics, "_SHARED_SITES", n - 1)
        assert np.array_equal(bits(dynamics.states_at(chains, n // 2, t0)), bits(shared))
        assert runs == [1, 1, 1, 1]

    def test_rows_match_the_whole_chain_reference(self):
        n, t = 41, 6.0
        chains = [random_chain(n, seed) for seed in range(5)]
        for site in (0, 20, 21, n - 1):
            for h, amplitudes in zip(chains, dynamics.states_at(chains, site, t)):
                assert np.array_equal(bits(amplitudes), bits(reference_state(h, site, t)))

    @given(xs=st.lists(st.floats(min_value=-5000.0, max_value=5000.0), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_bessel_rows_are_per_argument(self, xs):
        n_terms = [dynamics._series_length(x, 10**6) for x in xs]
        rows = dynamics._bessel_rows(np.array(xs), n_terms)
        for x, k, row in zip(xs, n_terms, rows):
            assert np.array_equal(bits(row[:k]), bits(bessel_row(x, k)))
            assert not np.any(row[k:])


class TestBesselQuadrature:
    """The folded quadrature of ``_bessel_sums`` against the table of J_k(x) it replaced."""

    @pytest.mark.parametrize("n_terms", [1, 2, 3, 4, 5, 6, 9])
    def test_matches_the_table_of_the_same_rule(self, n_terms):
        # K = 1 and 2 have M = 4 nodes, the fewest with a quarter; any x, since
        # both sides run the same trapezoidal rule whether or not it has converged
        rng = np.random.default_rng(n_terms)
        weights = rng.standard_normal(n_terms)
        xs = np.concatenate([[0.0], rng.uniform(-3.0 * n_terms, 3.0 * n_terms, 40)])
        np.testing.assert_allclose(dynamics._bessel_sums(weights, xs), table_sums(weights, xs), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n_terms", [1, 2, 3])
    def test_smallest_series(self, n_terms, monkeypatch):
        n = 401
        h = one_excitation_hamiltonian(profile_of_kind("noisy", n))
        eig = eigendecompose(h)
        monkeypatch.setattr(dynamics, "eigendecompose", refuse_eigensolve)
        bound, _ = dynamics._chebyshev_plan(h, [1.0], 10**6)
        t = {1: 0.0, 2: 1e-10, 3: 1e-7}[n_terms] / bound
        times = [-t, t]
        assert dynamics._chebyshev_plan(h, times, n) == (bound, n_terms)
        for column in (n // 2, n // 2 + 1):  # starts on both sublattices
            for row in (column, column + 1, column - 2, column + 3):
                amps = grid_amplitudes(h, row, column, times)
                (expected,) = transition_amplitudes(eig, [row], column, times)
                np.testing.assert_allclose(amps, expected, rtol=0, atol=1e-12)
                np.testing.assert_allclose(amps, table_grid(h, row, column, times), rtol=1e-12, atol=1e-16)
                if n_terms == 1:
                    assert amps.tolist() == [float(row == column)] * 2
                # K terms reach K - 1 sites away; beyond, every moment and so every sum is 0
                assert bool(amps[1] != 0.0) is (abs(row - column) < n_terms)

    def test_blocked_equals_unblocked(self, monkeypatch):
        weights = np.random.default_rng(5).standard_normal(100)  # M = 256: 65 folded nodes
        xs = np.linspace(-60.0, 60.0, 23)
        whole = dynamics._bessel_sums(weights, xs)
        for entries in (65, 200, 1000):  # 1, 3 and 15 times per block
            monkeypatch.setattr(dynamics, "_PHASE_BLOCK_ENTRIES", entries)
            assert np.array_equal(bits(dynamics._bessel_sums(weights, xs)), bits(whole))
        h = one_excitation_hamiltonian(profile_of_kind("swapped", 401))
        times = np.linspace(-1.0, 1.4, 17)
        blocked = grid_amplitudes(h, 3, 200, times)  # M = 512: 7 times per block of 1000
        monkeypatch.setattr(dynamics, "_PHASE_BLOCK_ENTRIES", 1 << 16)
        assert np.array_equal(bits(grid_amplitudes(h, 3, 200, times)), bits(blocked))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_agrees_with_the_table_sum_on_random_chains(self, seed):
        n = 301 + 2 * seed
        h = random_chain(n, seed)
        times = np.linspace(-9.0, 7.0, 33)  # negative times, K about 60
        _, n_terms = dynamics._chebyshev_plan(h, times, n)
        assert n_terms > 40
        column = n // 2
        for row in (column, column + 1, column - 10, column + 17, 0):  # both sublattices, and off the cone
            amps = grid_amplitudes(h, row, column, times)
            np.testing.assert_allclose(amps, table_grid(h, row, column, times), rtol=0, atol=1e-12)


class TestTransferAmplitudes:
    def test_center_to_end_zero_at_t0(self):
        assert abs(center_to_end_amplitude(engineered_eig(7), 0.0)) < 1e-14

    def test_n5_value_at_bell_time(self):
        amp = center_to_end_amplitude(engineered_eig(5), math.pi)
        assert amp.real == pytest.approx(-1 / SQRT2, abs=1e-12)
        assert amp.imag == pytest.approx(0.0, abs=1e-12)

    def test_n9_value_at_bell_time(self):
        amp = center_to_end_amplitude(engineered_eig(9), math.pi)
        assert amp.real == pytest.approx(+1 / SQRT2, abs=1e-12)
        assert amp.imag == pytest.approx(0.0, abs=1e-12)

    def test_rejects_even_dimension(self):
        eig = eigendecompose(TridiagonalHamiltonian((1.0, 1.0, 1.0)))
        with pytest.raises(ValueError, match=r"^n_sites must be odd and >= 3, got 4$"):
            center_to_end_amplitude(eig, 1.0)

    @pytest.mark.parametrize("n", [5, 9, 13])
    def test_mirror_equality_of_both_ends(self, n):
        eig = engineered_eig(n)
        c = (n - 1) // 2
        for t in np.linspace(0.0, 2 * math.pi, 17):
            state = evolve(eig, c, float(t))
            assert abs(state.amplitudes[0] - state.amplitudes[-1]) < 1e-10

    @pytest.mark.parametrize("n", [5, 9, 21])
    def test_symmetric_sector_carries_the_whole_amplitude(self, n):
        eig = engineered_eig(n)
        c = (n - 1) // 2
        mask = np.array([p == "symmetric" for p in parity_labels(eig.eigenvectors)])
        for t in (0.3, 1.1, math.pi):
            full = center_to_end_amplitude(eig, t)
            weights = eig.eigenvectors[0, :] * eig.eigenvectors[c, :]
            restricted = np.sum(
                weights[mask] * np.exp(-1j * eig.eigenvalues[mask] * t)
            )
            assert abs(full - restricted) < 1e-10

    @pytest.mark.parametrize("n", [5, 9, 13])
    def test_halved_chain_reproduces_full_amplitude(self, n):
        profile = engineered_couplings(n, 1.0)
        eig_full = eigendecompose(one_excitation_hamiltonian(profile))
        eig_half = eigendecompose(halved_hamiltonian(profile))
        for t in np.linspace(0.1, 2 * math.pi, 13):
            full = center_to_end_amplitude(eig_full, float(t))
            half = transition_amplitudes(eig_half, [0], eig_half.dimension - 1, [float(t)])[0][0]
            assert abs(full - half / SQRT2) < 1e-10


class TestTransitionAmplitudes:
    def test_matches_full_state_propagation(self):
        profile = CouplingProfile(1.0, (0.9, 1.3, 1.1, 1.1, 1.3, 0.7))
        eig = eigendecompose(one_excitation_hamiltonian(profile))
        times = np.linspace(0.0, 4.0, 9)
        amps = np.array(transition_amplitudes(eig, range(7), 2, times))
        assert amps.shape == (7, 9)
        for k, t in enumerate(times):
            state = evolve(eig, 2, float(t))
            np.testing.assert_allclose(amps[:, k], state.amplitudes, atol=1e-12)

    def test_blocks_of_times_agree_with_one_block(self, monkeypatch):
        eig = engineered_eig(9)
        times = np.linspace(0.0, 2 * math.pi, 23)
        whole = transition_amplitudes(eig, [0, 8], 4, times)
        monkeypatch.setattr(dynamics, "_PHASE_BLOCK_ENTRIES", 20)  # 2 times per block
        blocked = transition_amplitudes(eig, [0, 8], 4, times)
        np.testing.assert_allclose(blocked, whole, rtol=0, atol=1e-15)

    def test_site_outside_the_chain_is_refused(self):
        eig = engineered_eig(9)
        for site in (-1, -5, 9):
            with pytest.raises(ValueError, match=f"site {site} outside 0..8"):
                transition_amplitudes(eig, [0, site], 4, [1.3])
            with pytest.raises(ValueError, match=f"site {site} outside 0..8"):
                transition_amplitudes(eig, [0], site, [1.3])

    def test_scalar_readouts_use_the_kernel(self):
        eig = engineered_eig(9)
        assert center_to_end_amplitude(eig, 1.3) == transition_amplitudes(eig, [0], 4, [1.3])[0][0]

    @pytest.mark.parametrize("n", [5, 9, 401])
    def test_empty_grid(self, n):
        h = one_excitation_hamiltonian(engineered_couplings(n))
        (amps,) = transition_amplitudes(eigendecompose(h), [0], n // 2, [])
        assert amps.shape == (0,)
        # an empty grid plans the series at t = 0, so N = 9 takes the Chebyshev path as N = 401 does
        amps = grid_amplitudes(h, 0, n // 2, [])
        assert amps.shape == (0,) and amps.dtype == complex


class TestClosedForms:
    def test_center_to_end_n5(self):
        assert analytic_center_to_end(5, 1.0, math.pi) == pytest.approx(
            -1 / SQRT2, abs=1e-15
        )

    def test_center_to_end_zero_time(self):
        assert analytic_center_to_end(21, 1.0, 0.0) == 0.0

    def test_center_to_end_n21_modulus(self):
        value = analytic_center_to_end(21, 2.0, math.pi / 4)
        assert abs(value) == pytest.approx(2.0**-5 / SQRT2, rel=1e-12)

    @pytest.mark.parametrize("n", [4, 1, -3])
    def test_rejects_even_n(self, n):
        with pytest.raises(ValueError, match=rf"^n_sites must be odd and >= 3, got {n}$"):
            analytic_center_to_end(n, 1.0, 1.0)

    @pytest.mark.parametrize("n", [401, 4001, 4003, 20001])
    def test_center_to_end_phase_is_exact_at_t0(self, n):
        # (-i)^((N-1)/2) is real for N = 1 mod 4 and imaginary for N = 3 mod 4
        value = analytic_center_to_end(n, 1.0, bell_time(1.0))
        vanishing, kept = (value.imag, value.real) if n % 4 == 1 else (value.real, value.imag)
        assert vanishing == 0.0
        assert abs(kept) == pytest.approx(1 / SQRT2, rel=1e-15)

    def test_center_to_end_matches_complex_power(self):
        for n, t in itertools.product(range(3, 200, 2), np.linspace(0.0, 2 * math.pi, 41).tolist()):
            m, sine = (n - 1) // 2, math.sin(0.5 * t)
            value = analytic_center_to_end(n, 1.0, t)
            # the complex power's polar form is off by about m ulp: 1.6e-15 at N = 193
            assert abs(value - (-1j * sine) ** m / SQRT2) <= 2e-15
            # sine^m is exact as a fraction, so the real power is within rounding of it
            exact = float(fractions.Fraction(sine) ** m / fractions.Fraction(SQRT2))
            assert value == pytest.approx((-1j) ** (m % 4) * exact, rel=4.5e-16, abs=0.0)

    def test_halved_transfer_peaks_at_one(self):
        for m in (2, 3, 8, 21):
            assert abs(analytic_halved_transfer(m, 1.0, math.pi)) == pytest.approx(
                1.0, abs=1e-15
            )

    @pytest.mark.parametrize("m", [2001, 2002, 2003, 2004])
    def test_halved_transfer_phase_is_exact(self, m):
        # at mu t = pi the value is (-i)^(M-1): one exactly zero part, whatever M
        value = analytic_halved_transfer(m, 1.0, math.pi)
        assert (value.real == 0.0) != (value.imag == 0.0)
        assert value == pytest.approx((-1j) ** ((m - 1) % 4), abs=1e-15)

    def test_halved_transfer_m3_value(self):
        assert analytic_halved_transfer(3, 1.0, math.pi / 2) == pytest.approx(
            -0.5, abs=1e-15
        )

    def test_halved_transfer_rejects_m1(self):
        with pytest.raises(ValueError):
            analytic_halved_transfer(1, 1.0, 1.0)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [3, 5, 9, 15, 21])
    def test_numeric_matches_closed_form(self, n, mu):
        eig = engineered_eig(n, mu)
        for t in np.linspace(0.0, 2 * math.pi / mu, 50):
            numeric = center_to_end_amplitude(eig, float(t))
            analytic = analytic_center_to_end(n, mu, float(t))
            assert abs(numeric - analytic) < 1e-9


class TestBellTime:
    def test_values(self):
        assert bell_time(math.pi) == 1.0
        assert bell_time(2 * math.pi) == 0.5
        assert bell_time(1e4) == pytest.approx(3.1416e-4, rel=1e-4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bell_time(0.0)
        with pytest.raises(ValueError):
            bell_time(-1.0)

    def test_rejects_mu_whose_readout_time_overflows(self):
        with pytest.raises(ValueError, match="pi/mu is not finite"):
            bell_time(1e-310)


class TestBellDecomposition:
    def test_pure_end_pair(self):
        amps = np.zeros(5, dtype=complex)
        amps[0] = amps[4] = 1 / SQRT2
        d = bell_decomposition(SiteAmplitudeState(amps))
        assert d.residual_norm == 0.0
        assert d.alpha_first == pytest.approx(d.alpha_last)
        assert d.concurrence == pytest.approx(1.0, abs=1e-15)

    def test_interior_basis_state(self):
        d = bell_decomposition(SiteAmplitudeState(basis_amplitudes(4, 1)))
        assert d.alpha_first == 0.0
        assert d.alpha_last == 0.0
        assert d.residual_norm == 1.0
        assert d.concurrence == 0.0

    def test_budget_identity(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=7) + 1j * rng.normal(size=7)
        state = SiteAmplitudeState(raw / np.linalg.norm(raw))
        d = bell_decomposition(state)
        total = abs(d.alpha_first) ** 2 + abs(d.alpha_last) ** 2 + d.residual_norm**2
        assert total == pytest.approx(1.0, abs=1e-12)
        # the readout kernel rounds like the scalar product of two complex moduli
        assert d.concurrence == 2.0 * abs(state.amplitudes[0]) * abs(state.amplitudes[-1])

    def test_phase_at_bell_time(self):
        # (-i)^((n-1)/2): pi for n=5, 0 for n=9
        for n, expected in ((5, math.pi), (9, 0.0)):
            state = evolve(engineered_eig(n), n // 2, math.pi)
            d = bell_decomposition(state)
            delta = (cmath.phase(d.alpha_first) - expected + math.pi) % (2 * math.pi) - math.pi
            assert abs(delta) < 1e-10

    def test_mirror_evolution_keeps_end_amplitudes_equal(self):
        state = evolve(engineered_eig(9), 4, 1.234)
        d = bell_decomposition(state)
        assert abs(d.alpha_first - d.alpha_last) < 1e-10


class TestConcurrence:
    def test_center_state_zero(self):
        assert bell_decomposition(SiteAmplitudeState(basis_amplitudes(9, 4))).concurrence == 0.0

    def test_engineered_at_bell_time(self):
        state = evolve(engineered_eig(9), 4, math.pi)
        assert bell_decomposition(state).concurrence == pytest.approx(1.0, abs=1e-10)

    def test_skewed_state_value(self):
        amps = np.zeros(5, dtype=complex)
        amps[0] = math.sqrt(0.8)
        amps[4] = math.sqrt(0.2)
        state = SiteAmplitudeState(amps)
        assert bell_decomposition(state).concurrence == pytest.approx(0.8, abs=1e-12)
        rho = end_pair_density(state.amplitudes)
        assert wootters_concurrence(rho) == pytest.approx(0.8, abs=1e-10)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_wootters_oracle(self, seed):
        # the oracle's zero spin-flip eigenvalues carry ~1e-16 solver
        # noise that the square root amplifies to ~1e-8
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=7) + 1j * rng.normal(size=7)
        state = SiteAmplitudeState(raw / np.linalg.norm(raw))
        oracle = wootters_concurrence(end_pair_density(state.amplitudes))
        assert bell_decomposition(state).concurrence == pytest.approx(oracle, abs=5e-8)
        assert 0.0 <= bell_decomposition(state).concurrence <= 1.0 + 1e-12


class TestFullHilbertOracle:
    @pytest.mark.parametrize("n", [3, 5])
    def test_sector_evolution_matches_dense(self, n):
        profile = engineered_couplings(n, 1.0)
        eig = eigendecompose(one_excitation_hamiltonian(profile))
        full = full_hilbert_hamiltonian(profile)
        idx = one_excitation_indices(n)
        psi0 = np.zeros(2**n, dtype=complex)
        psi0[idx[(n - 1) // 2]] = 1.0
        for t in (0.4, math.pi):
            dense = dense_propagate(full, psi0, t)
            sector = evolve(eig, (n - 1) // 2, t)
            np.testing.assert_allclose(
                dense[idx], sector.amplitudes, atol=1e-9
            )
            off_sector = np.delete(dense, idx)
            assert np.max(np.abs(off_sector)) < 1e-12
