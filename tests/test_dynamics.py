"""Spectral decomposition, propagation, closed forms, and concurrence."""

import cmath
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bellchain.chain import (
    CouplingProfile,
    ResourceLimitError,
    TridiagonalHamiltonian,
    engineered_couplings,
    full_hilbert_hamiltonian,
    halved_hamiltonian,
    one_excitation_hamiltonian,
    one_excitation_indices,
)
from bellchain.dynamics import (
    ANTISYMMETRIC,
    SYMMETRIC,
    NumericFailure,
    SiteAmplitudeState,
    analytic_center_to_end,
    analytic_halved_transfer,
    basis_state,
    bell_decomposition,
    bell_time,
    center_excited_state,
    center_to_end_amplitude,
    concurrence_ab,
    eigendecompose,
    end_to_end_amplitude,
    evolve,
    grid_amplitudes,
    state_at,
    transition_amplitudes,
)
from bellchain import dynamics
from bellchain.robustness import NoisePerturbation, SwapPerturbation, perturb
from oracles import dense_propagate, end_pair_density, parity_labels, wootters_concurrence

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


class TestEigendecompose:
    def test_uniform_3x3(self):
        # characteristic polynomial by hand: lambda (lambda^2 - 2) = 0
        eig = eigendecompose(TridiagonalHamiltonian(3, (1.0, 1.0)))
        np.testing.assert_allclose(eig.eigenvalues, [-SQRT2, 0.0, SQRT2], atol=1e-12)
        k0 = int(np.argmin(np.abs(eig.eigenvalues)))
        assert eig.parity[k0] == ANTISYMMETRIC
        assert abs(eig.eigenvectors[1, k0]) < 1e-12

    def test_two_sites(self):
        eig = eigendecompose(TridiagonalHamiltonian(2, (0.7,)))
        np.testing.assert_allclose(eig.eigenvalues, [-0.7, 0.7], atol=1e-12)

    def test_n9_engineered_parity_census(self):
        eig = engineered_eig(9)
        anti = [k for k, p in enumerate(eig.parity) if p == ANTISYMMETRIC]
        assert len(anti) == 4
        for k in anti:
            assert abs(eig.eigenvectors[4, k]) < 1e-10

    @pytest.mark.parametrize("n", [3, 5, 9, 21, 41])
    def test_orthonormal_and_eigen_residual(self, n):
        h = one_excitation_hamiltonian(engineered_couplings(n, 1.0))
        eig = eigendecompose(h)
        u = eig.eigenvectors
        np.testing.assert_allclose(u.T @ u, np.eye(n), atol=1e-10)
        dense = h.to_dense()
        scale = np.linalg.norm(dense, 2)
        residual = dense @ u - u * eig.eigenvalues[np.newaxis, :]
        assert np.max(np.abs(residual)) < 1e-10 * scale

    @pytest.mark.parametrize("n", [3, 5, 9, 21])
    def test_parity_labels_match_mirror_residuals(self, n):
        eig = engineered_eig(n)
        for k in range(n):
            u = eig.eigenvectors[:, k]
            if eig.parity[k] == SYMMETRIC:
                assert np.max(np.abs(u - u[::-1])) < 1e-9
            else:
                assert np.max(np.abs(u + u[::-1])) < 1e-9

    def test_sign_normalization_first_component_positive(self):
        eig = engineered_eig(9)
        assert np.all(eig.eigenvectors[0, :] > 0)

    def test_parity_is_computed_on_first_access(self):
        eig = engineered_eig(9)
        assert "parity" not in eig.__dict__
        labels = eig.parity
        assert eig.__dict__["parity"] is labels
        assert eig.parity is labels

    def test_returned_arrays_are_read_only(self):
        eig = engineered_eig(9)
        with pytest.raises(ValueError):
            eig.eigenvalues[0] = 1.0
        with pytest.raises(ValueError):
            eig.eigenvectors[0, 0] = 1.0

    @pytest.mark.parametrize("kind", PROFILE_KINDS)
    @pytest.mark.parametrize("n", [3, 9, 41])
    def test_lazy_parity_matches_the_column_loop(self, kind, n):
        eig = eigendecompose(one_excitation_hamiltonian(profile_of_kind(kind, n)))
        assert eig.parity == parity_labels(eig.eigenvectors)

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
            eigendecompose(TridiagonalHamiltonian(1, ()))
        with pytest.raises(ValueError):
            eigendecompose(TridiagonalHamiltonian(3, (1.0, -1.0)))

    def test_refuses_eigenvectors_larger_than_physical_memory(self, monkeypatch):
        h = one_excitation_hamiltonian(engineered_couplings(9, 1.0))
        monkeypatch.setattr(dynamics, "_physical_memory_bytes", lambda: 8 * 9**2 - 1)
        with pytest.raises(ResourceLimitError, match="9 sites"):
            eigendecompose(h)
        monkeypatch.setattr(dynamics, "_physical_memory_bytes", lambda: 8 * 9**2)
        assert eigendecompose(h).dimension == 9

    def test_numeric_failure_carries_dimension(self):
        failure = NumericFailure(17)
        assert failure.dimension == 17
        assert "17" in str(failure)


class TestStates:
    def test_basis_state_bounds(self):
        s = basis_state(5, 1)
        assert s.amplitudes[0] == 1.0
        with pytest.raises(ValueError):
            basis_state(5, 0)
        with pytest.raises(ValueError):
            basis_state(5, 6)

    def test_center_state(self):
        s = center_excited_state(9)
        assert s.amplitudes[4] == 1.0
        with pytest.raises(ValueError):
            center_excited_state(4)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            SiteAmplitudeState(np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="not normalized"):
            SiteAmplitudeState(np.array([1.0, math.nan]))

    def test_amplitudes_are_read_only(self):
        s = basis_state(3, 2)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 1.0


class TestEvolve:
    def test_identity_at_t0(self):
        eig = engineered_eig(5)
        s = center_excited_state(5)
        out = evolve(eig, s, 0.0)
        np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-12)

    def test_center_to_ends_at_bell_time(self):
        eig = engineered_eig(5)
        out = evolve(eig, center_excited_state(5), math.pi)
        assert abs(out.amplitudes[0]) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(out.amplitudes[4]) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_group_property(self):
        eig = engineered_eig(9)
        s = center_excited_state(9)
        one_step = evolve(eig, evolve(eig, s, 0.7), 1.9)
        two_step = evolve(eig, s, 2.6)
        np.testing.assert_allclose(
            one_step.amplitudes, two_step.amplitudes, atol=1e-11
        )

    def test_norm_drift_over_long_times(self):
        eig = engineered_eig(9)
        s = center_excited_state(9)
        for t in np.linspace(0.0, 100.0, 11):
            out = evolve(eig, s, float(t))
            assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evolve(engineered_eig(5), center_excited_state(9), 1.0)

    @given(t=st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=30, deadline=None)
    def test_norm_preserved_any_time(self, t):
        eig = engineered_eig(7)
        out = evolve(eig, basis_state(7, 2), t)
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-12

    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=20).map(lambda k: 2 * k + 1),
        kind=st.sampled_from(PROFILE_KINDS),
        t=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_complex_superpositions_match_dense_exponential(self, data, n, kind, t):
        # The pipeline only evolves basis states, whose imaginary part is
        # zero; this is what checks the imaginary half of the forward transform.
        part = st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=n, max_size=n)
        re, im = np.array(data.draw(part)), np.array(data.draw(part))
        assume(np.linalg.norm(re) > 1e-3 and np.linalg.norm(im) > 1e-3)
        psi0 = (re + 1j * im) / np.linalg.norm(re + 1j * im)
        h = one_excitation_hamiltonian(profile_of_kind(kind, n))
        out = evolve(eigendecompose(h), SiteAmplitudeState(psi0), t)
        expected = dense_propagate(h.to_dense(), psi0, t)
        np.testing.assert_allclose(out.amplitudes, expected, rtol=0, atol=1e-12)


def chebyshev_evolve(h, initial, t):
    """The Chebyshev series up to a million terms (state_at uses it only below N)."""
    return dynamics._chebyshev_state(h, initial, t, 10**6)


def complex_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return SiteAmplitudeState(amps / np.linalg.norm(amps))


class TestStateAt:
    @pytest.mark.parametrize("kind", PROFILE_KINDS)
    @pytest.mark.parametrize("n", [101, 401, 2001])
    def test_chebyshev_matches_dense_evolve(self, n, kind):
        h = one_excitation_hamiltonian(profile_of_kind(kind, n))
        eig = eigendecompose(h)
        initial = complex_state(n, seed=n)
        t0 = bell_time(1.0)
        for t in (0.0, t0, 3.0 * t0):
            reference = evolve(eig, initial, t).amplitudes
            np.testing.assert_allclose(
                chebyshev_evolve(h, initial, t).amplitudes, reference, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                state_at(h, initial, t).amplitudes, reference, rtol=0, atol=1e-12
            )

    def test_long_chain_matches_closed_form_without_eigensolve(self, monkeypatch):
        def no_eigensolve(h):
            raise AssertionError("the dense path was taken")

        monkeypatch.setattr(dynamics, "eigendecompose", no_eigensolve)
        n = 8001
        t0 = bell_time(1.0)
        state = state_at(
            one_excitation_hamiltonian(engineered_couplings(n, 1.0)), center_excited_state(n), t0
        )
        expected = analytic_center_to_end(n, 1.0, t0)
        assert abs(state.amplitudes[0] - expected) < 1e-11
        assert abs(state.amplitudes[-1] - expected) < 1e-11
        assert bell_decomposition(state).residual_norm < 1e-11

    def test_short_chain_takes_the_dense_path_bit_for_bit(self, monkeypatch):
        calls = []

        def counting(h):
            calls.append(h.dimension)
            return eigendecompose(h)

        monkeypatch.setattr(dynamics, "eigendecompose", counting)
        h = one_excitation_hamiltonian(engineered_couplings(9, 1.0))
        initial = center_excited_state(9)
        t0 = bell_time(1.0)
        state = state_at(h, initial, t0)
        assert calls == [9]
        assert np.array_equal(state.amplitudes, evolve(eigendecompose(h), initial, t0).amplitudes)

    def test_size_rule_compares_terms_with_sites(self):
        t0 = bell_time(1.0)
        for n, chebyshev in ((9, False), (101, False), (1001, True), (4001, True)):
            h = one_excitation_hamiltonian(engineered_couplings(n, 1.0))
            assert (dynamics._chebyshev_plan(h, [t0], n) is not None) is chebyshev
            _, n_terms = dynamics._chebyshev_plan(h, [t0], 10**6)
            assert (n_terms < n) is chebyshev

    def test_bessel_series_truncation(self):
        assert dynamics._series_length(0.0, 3) == 1
        n_terms = dynamics._series_length(50.0, 10**6)
        assert n_terms > 51
        # the last kept order is still above the tail tolerance
        assert abs(scipy.special.jv(n_terms - 1, 50.0)) > dynamics._BESSEL_TOL
        assert dynamics._series_length(50.0, 51) is None
        assert dynamics._series_length(50.0, n_terms) is None
        assert dynamics._series_length(50.0, n_terms + 1) is not None
        # J_4 vanishes at its first zero, 7.588...; an order below x never ends the series
        first_zero = float(scipy.special.jn_zeros(4, 1)[0])
        assert dynamics._series_length(first_zero, 5) is None

    @pytest.mark.parametrize("x", [0.0, -7.3, 12.5, 50.0, 3143.0])
    def test_fft_bessel_table_matches_jv(self, x):
        n_terms = dynamics._series_length(x, 10**6)
        (table,) = next(dynamics._bessel_tables([x], n_terms))
        expected = scipy.special.jv(np.arange(n_terms), x)
        np.testing.assert_allclose(table, expected, rtol=0, atol=1e-13)
        if x == 0.0:
            assert table.tolist() == [1.0]

    def test_blocked_bessel_table_equals_unblocked(self, monkeypatch):
        xs = np.linspace(-40.0, 60.0, 23)
        n_terms = dynamics._series_length(60.0, 10**6)
        (whole,) = dynamics._bessel_tables(xs, n_terms)
        monkeypatch.setattr(dynamics, "_PHASE_BLOCK_ENTRIES", 1000)  # 3 rows of 256 samples
        blocked = list(dynamics._bessel_tables(xs, n_terms))
        assert [len(table) for table in blocked] == [3] * 7 + [2]
        assert np.array_equal(np.concatenate(blocked), whole)

    def test_negative_time_inverts_the_propagator(self):
        h = one_excitation_hamiltonian(profile_of_kind("noisy", 401))
        initial = complex_state(401, seed=1)
        there = chebyshev_evolve(h, initial, 2.0)
        back = chebyshev_evolve(h, there, -2.0)
        np.testing.assert_allclose(back.amplitudes, initial.amplitudes, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 1e308])
    def test_rejects_non_finite_phase(self, t):
        h = one_excitation_hamiltonian(engineered_couplings(9, 1.0))
        with pytest.raises(ValueError, match="not finite"):
            state_at(h, center_excited_state(9), t)
        with pytest.raises(ValueError, match="not finite"):
            chebyshev_evolve(h, center_excited_state(9), t)
        with pytest.raises(ValueError, match="not finite"):
            grid_amplitudes(h, 0, 4, [0.0, t])

    def test_dimension_mismatch(self):
        h = one_excitation_hamiltonian(engineered_couplings(9, 1.0))
        with pytest.raises(ValueError, match="sites"):
            state_at(h, center_excited_state(7), 1.0)


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

    def test_long_chain_matches_closed_form_without_eigensolve(self, monkeypatch):
        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", refuse_eigensolve)
        n = 20001
        times = 3.0 + np.arange(61) * 0.005
        amps = grid_amplitudes(one_excitation_hamiltonian(engineered_couplings(n, 1.0)), 0, n // 2, times)
        expected = [analytic_center_to_end(n, 1.0, t) for t in times]
        assert np.max(np.abs(amps - expected)) < 1e-11


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
        eig = eigendecompose(TridiagonalHamiltonian(4, (1.0, 1.0, 1.0)))
        with pytest.raises(ValueError):
            center_to_end_amplitude(eig, 1.0)

    @pytest.mark.parametrize("n", [5, 9, 13])
    def test_mirror_equality_of_both_ends(self, n):
        eig = engineered_eig(n)
        c = (n - 1) // 2
        for t in np.linspace(0.0, 2 * math.pi, 17):
            state = evolve(eig, center_excited_state(n), float(t))
            assert abs(state.amplitudes[0] - state.amplitudes[-1]) < 1e-10

    @pytest.mark.parametrize("n", [5, 9, 21])
    def test_symmetric_sector_carries_the_whole_amplitude(self, n):
        eig = engineered_eig(n)
        c = (n - 1) // 2
        mask = np.array([p == SYMMETRIC for p in eig.parity])
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
            half = end_to_end_amplitude(eig_half, float(t))
            assert abs(full - half / SQRT2) < 1e-10


class TestTransitionAmplitudes:
    def test_matches_full_state_propagation(self):
        profile = CouplingProfile(7, 1.0, (0.9, 1.3, 1.1, 1.1, 1.3, 0.7))
        eig = eigendecompose(one_excitation_hamiltonian(profile))
        times = np.linspace(0.0, 4.0, 9)
        amps = np.array(transition_amplitudes(eig, range(7), 2, times))
        assert amps.shape == (7, 9)
        for k, t in enumerate(times):
            state = evolve(eig, basis_state(7, 3), float(t))
            np.testing.assert_allclose(amps[:, k], state.amplitudes, atol=1e-12)

    def test_blocks_of_times_agree_with_one_block(self, monkeypatch):
        eig = engineered_eig(9)
        times = np.linspace(0.0, 2 * math.pi, 23)
        whole = transition_amplitudes(eig, [0, 8], 4, times)
        monkeypatch.setattr(dynamics, "_PHASE_BLOCK_ENTRIES", 20)  # 2 times per block
        blocked = transition_amplitudes(eig, [0, 8], 4, times)
        np.testing.assert_allclose(blocked, whole, rtol=0, atol=1e-15)

    def test_scalar_readouts_use_the_kernel(self):
        eig = engineered_eig(9)
        assert center_to_end_amplitude(eig, 1.3) == transition_amplitudes(eig, [0], 4, [1.3])[0][0]
        assert end_to_end_amplitude(eig, 1.3) == transition_amplitudes(eig, [0], 8, [1.3])[0][0]

    def test_empty_grid(self):
        (amps,) = transition_amplitudes(engineered_eig(5), [0], 2, [])
        assert amps.shape == (0,)


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

    def test_rejects_even_n(self):
        with pytest.raises(ValueError):
            analytic_center_to_end(4, 1.0, 1.0)

    def test_halved_transfer_peaks_at_one(self):
        for m in (2, 3, 8, 21):
            assert abs(analytic_halved_transfer(m, 1.0, math.pi)) == pytest.approx(
                1.0, abs=1e-15
            )

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
        d = bell_decomposition(basis_state(4, 2))
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
        assert d.concurrence == concurrence_ab(state)

    def test_phase_at_bell_time(self):
        # (-i)^((n-1)/2): pi for n=5, 0 for n=9
        for n, expected in ((5, math.pi), (9, 0.0)):
            state = evolve(engineered_eig(n), center_excited_state(n), math.pi)
            d = bell_decomposition(state)
            delta = (cmath.phase(d.alpha_first) - expected + math.pi) % (2 * math.pi) - math.pi
            assert abs(delta) < 1e-10

    def test_mirror_evolution_keeps_end_amplitudes_equal(self):
        state = evolve(engineered_eig(9), center_excited_state(9), 1.234)
        d = bell_decomposition(state)
        assert abs(d.alpha_first - d.alpha_last) < 1e-10


class TestConcurrence:
    def test_center_state_zero(self):
        assert concurrence_ab(center_excited_state(9)) == 0.0

    def test_engineered_at_bell_time(self):
        state = evolve(engineered_eig(9), center_excited_state(9), math.pi)
        assert concurrence_ab(state) == pytest.approx(1.0, abs=1e-10)

    def test_skewed_state_value(self):
        amps = np.zeros(5, dtype=complex)
        amps[0] = math.sqrt(0.8)
        amps[4] = math.sqrt(0.2)
        state = SiteAmplitudeState(amps)
        assert concurrence_ab(state) == pytest.approx(0.8, abs=1e-12)
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
        assert concurrence_ab(state) == pytest.approx(oracle, abs=5e-8)
        assert 0.0 <= concurrence_ab(state) <= 1.0 + 1e-12


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
            sector = evolve(eig, center_excited_state(n), t)
            np.testing.assert_allclose(
                dense[idx], sector.amplitudes, atol=1e-9
            )
            off_sector = np.delete(dense, idx)
            assert np.max(np.abs(off_sector)) < 1e-12
