"""Profile construction, symmetry validation, and Hamiltonian builders."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellchain.chain import (
    CouplingProfile,
    ResourceLimitError,
    engineered_couplings,
    engineered_max_coupling,
    excitation_number_operator,
    full_hilbert_hamiltonian,
    halved_hamiltonian,
    one_excitation_hamiltonian,
    one_excitation_indices,
    validate_profile,
)

SQRT2 = math.sqrt(2.0)
SQRT6 = math.sqrt(6.0)

odd_n = st.integers(min_value=1, max_value=20).map(lambda k: 2 * k + 1)


class TestEngineeredCouplings:
    def test_n5_mu2_values(self):
        # hand evaluation: D_1 = sqrt(1*2) = sqrt(2), bridge = (2/(2 sqrt 2)) sqrt(2) = 1
        profile = engineered_couplings(5, 2.0)
        assert profile.couplings == pytest.approx(
            (SQRT2, 1.0, 1.0, SQRT2), abs=1e-15
        )

    def test_n9_mu2_values(self):
        # hand evaluation with M = 5: sqrt(1*4)=2, sqrt(2*3)=sqrt 6, bridge sqrt(2)
        profile = engineered_couplings(9, 2.0)
        assert profile.couplings == pytest.approx(
            (2.0, SQRT6, SQRT6, SQRT2, SQRT2, SQRT6, SQRT6, 2.0), abs=1e-15
        )

    def test_n3_single_pair(self):
        profile = engineered_couplings(3, 2.0)
        assert profile.couplings == pytest.approx((1 / SQRT2, 1 / SQRT2), abs=1e-15)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            engineered_couplings(4)
        with pytest.raises(ValueError):
            engineered_couplings(1)

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            engineered_couplings(5, 0.0)

    @pytest.mark.parametrize("mu", [math.inf, math.nan])
    def test_non_finite_mu(self, mu):
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            engineered_couplings(5, mu)

    def test_coupling_accessor_is_one_based(self):
        profile = engineered_couplings(9, 2.0)
        assert profile.coupling(1) == profile.couplings[0]
        assert profile.coupling(8) == profile.couplings[7]
        with pytest.raises(ValueError):
            profile.coupling(0)
        with pytest.raises(ValueError):
            profile.coupling(9)

    @given(n=odd_n, mu=st.floats(min_value=0.1, max_value=10.0))
    def test_engineered_is_mirror_symmetric_exactly(self, n, mu):
        couplings = engineered_couplings(n, mu).couplings
        assert couplings == tuple(reversed(couplings))

    @given(n=odd_n, mu=st.floats(min_value=0.1, max_value=10.0))
    def test_engineered_validates_clean(self, n, mu):
        assert validate_profile(engineered_couplings(n, mu)) == []

    @given(n=odd_n, mu=st.floats(min_value=0.1, max_value=10.0))
    def test_max_coupling_matches_profile_max(self, n, mu):
        profile = engineered_couplings(n, mu)
        assert engineered_max_coupling(n, mu) == max(profile.couplings)

    def test_peak_scales_like_mu_n_over_8_for_long_chains(self):
        for n in range(17, 43, 2):
            peak = engineered_max_coupling(n, 1.0)
            assert abs(peak - n / 8.0) / (n / 8.0) < 0.1


class TestCouplingProfile:
    def test_rejects_even_n(self):
        with pytest.raises(ValueError):
            CouplingProfile(4, 1.0, (1.0, 1.0, 1.0))

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            CouplingProfile(5, 1.0, (1.0, 1.0))

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            CouplingProfile(3, 1.0, (1.0, 0.0))
        with pytest.raises(ValueError):
            CouplingProfile(3, 1.0, (1.0, -1.0))

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            CouplingProfile(3, -1.0, (1.0, 1.0))

    @pytest.mark.parametrize("mu", [math.inf, math.nan])
    def test_rejects_non_finite_mu(self, mu):
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            CouplingProfile(3, mu, (1.0, 1.0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_coupling(self, bad):
        with pytest.raises(ValueError, match="coupling D_2 must be positive and finite"):
            CouplingProfile(5, 1.0, (1.0, bad, 1.0, 1.0))


class TestValidateProfile:
    def test_uniform_profile_breaks_only_the_bridge(self):
        # D identical everywhere satisfies the mirror and palindrome rules;
        # the bridge rule wants D_4 = D_1/sqrt(2), off by a factor sqrt(2).
        profile = CouplingProfile(9, 1.0, (1.0,) * 8)
        violations = validate_profile(profile)
        assert [v.constraint for v in violations] == ["bridge"]
        assert violations[0].residual == pytest.approx(1.0 - 1.0 / SQRT2, rel=1e-12)

    def test_swap_2_4_breaks_palindrome_and_bridge(self):
        base = list(engineered_couplings(9, 2.0).couplings)
        base[1], base[3] = base[3], base[1]
        violations = validate_profile(CouplingProfile(9, 2.0, tuple(base)))
        constraints = {v.constraint for v in violations}
        assert "half_palindrome" in constraints
        assert "bridge" in constraints
        assert "mirror" in constraints

    def test_violation_reports_one_based_indices(self):
        base = list(engineered_couplings(9, 2.0).couplings)
        base[0] *= 1.5
        violations = validate_profile(CouplingProfile(9, 2.0, tuple(base)))
        mirror = [v for v in violations if v.constraint == "mirror"]
        assert mirror and set(mirror[0].indices) == {1, 8}

    def test_str_is_readable(self):
        profile = CouplingProfile(9, 1.0, (1.0,) * 8)
        text = str(validate_profile(profile)[0])
        assert "bridge" in text and "D_" in text


class TestHalvedChain:
    def test_n9_mu2_off_diagonals(self):
        # bridge sqrt(2) doubles under the fold: last entry 2
        h = halved_hamiltonian(engineered_couplings(9, 2.0))
        assert h.dimension == 5
        assert h.off_diagonal == pytest.approx((2.0, SQRT6, SQRT6, 2.0), abs=1e-15)

    def test_n5_mu2_off_diagonals(self):
        h = halved_hamiltonian(engineered_couplings(5, 2.0))
        assert h.dimension == 3
        assert h.off_diagonal == pytest.approx((SQRT2, SQRT2), abs=1e-15)

    def test_n3_mu2_single_bond(self):
        # folding scales the lone coupling mu/(2 sqrt 2) up to mu/2
        h = halved_hamiltonian(engineered_couplings(3, 2.0))
        assert h.dimension == 2
        assert h.off_diagonal == pytest.approx((1.0,), abs=1e-15)

    def test_rejects_profiles_outside_the_family(self):
        with pytest.raises(ValueError, match="bridge"):
            halved_hamiltonian(CouplingProfile(9, 1.0, (1.0,) * 8))


class TestHamiltonians:
    def test_one_excitation_dense_layout(self):
        profile = engineered_couplings(5, 2.0)
        h = one_excitation_hamiltonian(profile).to_dense()
        expected = np.zeros((5, 5))
        for i, d in enumerate(profile.couplings):
            expected[i, i + 1] = expected[i + 1, i] = d
        np.testing.assert_allclose(h, expected, atol=0)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_full_hilbert_restricts_to_one_excitation_block(self, n):
        profile = engineered_couplings(n, 1.3)
        full = full_hilbert_hamiltonian(profile)
        idx = one_excitation_indices(n)
        block = full[np.ix_(idx, idx)]
        np.testing.assert_allclose(
            block, one_excitation_hamiltonian(profile).to_dense(), atol=1e-14
        )

    def test_full_hilbert_commutes_with_excitation_number(self):
        profile = engineered_couplings(5, 1.0)
        h = full_hilbert_hamiltonian(profile)
        x = excitation_number_operator(5)
        assert np.max(np.abs(h @ x - x @ h)) < 1e-12

    def test_full_hilbert_site_limit(self):
        with pytest.raises(ResourceLimitError):
            full_hilbert_hamiltonian(engineered_couplings(13, 1.0))

    def test_one_excitation_indices_order(self):
        # site j maps to the basis index with only bit (n - j) set
        assert one_excitation_indices(3) == [4, 2, 1]
        assert one_excitation_indices(5)[0] == 16
        assert one_excitation_indices(5)[-1] == 1
