"""The closed-form teleportation protocol against the matrix oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellchain.chain import engineered_couplings
from bellchain.robustness import resource_from_profile
from bellchain.teleport import (
    EntangledResource,
    correction_for,
    expected_fidelity,
    teleport,
)
from oracles import (
    dense_propagate,
    full_hilbert_hamiltonian,
    random_qubit_pair,
    sender_gates,
    teleport_brute_force,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)
BELL = EntangledResource(alpha01=SQRT_HALF, alpha10=SQRT_HALF)


def _normalized(parts):
    norm = math.sqrt(sum(x * x for x in parts))
    return complex(parts[0], parts[1]) / norm, complex(parts[2], parts[3]) / norm


# Normalized complex pairs (a, b); the filter keeps the norm away from 0.
unit_pairs = (
    st.tuples(*[st.floats(-1.0, 1.0, allow_subnormal=False)] * 4)
    .filter(lambda parts: sum(x * x for x in parts) > 1e-6)
    .map(_normalized)
)


class TestEntangledResource:
    def test_bell_is_balanced(self):
        # (-i)^((N-1)/2) / sqrt(2) at both ends is +1/sqrt(2) for N = 9
        bell = resource_from_profile(engineered_couplings(9, 1.0))
        assert bell.alpha01 == pytest.approx(SQRT_HALF)
        assert bell.alpha10 == pytest.approx(SQRT_HALF)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            EntangledResource(1.0, 1.0)
        with pytest.raises(ValueError, match="not normalized"):
            EntangledResource(math.nan, SQRT_HALF)

    @pytest.mark.parametrize("huge", [1e200, complex(1e308, 1e308)])
    def test_huge_amplitudes_fail_the_norm_check(self, huge):
        with pytest.raises(ValueError, match="not normalized"):
            EntangledResource(huge, huge)


class TestCorrections:
    def test_table(self):
        assert correction_for("00") == "X"
        assert correction_for("01") == "I"
        assert correction_for("10") == "ZX"
        assert correction_for("11") == "Z"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            correction_for("2")


class TestApplyGate:
    """The sender's CNOT(At -> A) and Hadamard on At, which teleport()
    evaluates in closed form, applied here as matrices by the oracle."""

    def test_four_branch_structure_after_sender_gates(self):
        rng = np.random.default_rng(3)
        a, b = random_qubit_pair(rng)
        tensor = sender_gates(a, b, [0.0, SQRT_HALF, SQRT_HALF, 0.0]).reshape(2, 2, 2)
        half = 0.5
        np.testing.assert_allclose(tensor[0, 0], [half * b, half * a], atol=1e-12)
        np.testing.assert_allclose(tensor[0, 1], [half * a, half * b], atol=1e-12)
        np.testing.assert_allclose(tensor[1, 0], [-half * b, half * a], atol=1e-12)
        np.testing.assert_allclose(tensor[1, 1], [half * a, -half * b], atol=1e-12)

        # a skewed resource weights the branches by alpha01 / alpha10, and
        # each branch's norm is the probability the closed form gives it
        r01, r10 = math.sqrt(0.3), -1j * math.sqrt(0.7)
        tensor = sender_gates(a, b, [0.0, r01, r10, 0.0]).reshape(2, 2, 2)
        s = SQRT_HALF
        np.testing.assert_allclose(tensor[0, 0], [s * b * r10, s * a * r01], atol=1e-12)
        np.testing.assert_allclose(tensor[0, 1], [s * a * r10, s * b * r01], atol=1e-12)
        np.testing.assert_allclose(tensor[1, 0], [-s * b * r10, s * a * r01], atol=1e-12)
        np.testing.assert_allclose(tensor[1, 1], [s * a * r10, -s * b * r01], atol=1e-12)
        for r in teleport(a, b, EntangledResource(r01, r10)):
            branch = tensor[int(r.outcome[0]), int(r.outcome[1])]
            assert r.probability == pytest.approx(np.sum(np.abs(branch) ** 2), abs=1e-12)


class TestMeasureTwo:
    """The (At, A) measurement, made inside teleport()."""

    def test_bell_pipeline_outcomes_equiprobable(self):
        records = teleport(0.6, 0.8, BELL)
        assert [r.outcome for r in records] == ["00", "01", "10", "11"]
        for r in records:
            assert r.probability == pytest.approx(0.25, abs=1e-12)
            assert r.fidelity is not None
            assert r.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_product_state_single_outcome(self):
        # a basis input on a product resource leaves A one reading: the
        # two branches of the other reading have no state
        for (a, b), (r01, r10), a_reads in [
            ((1.0, 0.0), (1.0, 0.0), "0"),
            ((0.0, 1.0), (1.0, 0.0), "1"),
            ((1.0, 0.0), (0.0, 1.0), "1"),
            ((0.0, 1.0), (0.0, 1.0), "0"),
        ]:
            records = teleport(a, b, EntangledResource(r01, r10))
            for r in records:
                if r.outcome[1] == a_reads:
                    assert r.probability == pytest.approx(0.5, abs=1e-12)
                    assert r.fidelity == pytest.approx(1.0, abs=1e-12)
                else:
                    assert r.probability == 0.0
                    assert r.fidelity is None


class TestTeleport:
    def test_rejects_unnormalized_input(self):
        with pytest.raises(ValueError):
            teleport(1.0, 1.0, BELL)
        with pytest.raises(ValueError, match="not normalized"):
            teleport(complex(math.nan, 0.0), 0.0, BELL)

    @pytest.mark.parametrize("huge", [1e200, complex(1e308, 1e308)])
    def test_huge_inputs_fail_the_norm_check(self, huge):
        with pytest.raises(ValueError, match="not normalized"):
            teleport(huge, huge, BELL)

    def test_bell_resource_is_deterministic(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            a, b = random_qubit_pair(rng)
            records = teleport(a, b, BELL)
            assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-12)
            for r in records:
                assert r.probability == pytest.approx(0.25, abs=1e-12)
                assert r.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_basis_inputs_survive_any_resource(self):
        resource = EntangledResource(math.sqrt(0.8), math.sqrt(0.2))
        for a, b in ((1.0, 0.0), (0.0, 1.0)):
            for r in teleport(a, b, resource):
                if r.probability > 0:
                    assert r.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_branch_has_null_fidelity(self):
        # alpha10 = 0 with a = 1 kills the outcome-01 and outcome-11 branches
        records = teleport(1.0, 0.0, EntangledResource(1.0, 0.0))
        by_outcome = {r.outcome: r for r in records}
        assert by_outcome["01"].probability == 0.0
        assert by_outcome["01"].fidelity is None
        assert by_outcome["11"].probability == 0.0
        assert by_outcome["11"].fidelity is None
        assert by_outcome["00"].probability == pytest.approx(0.5)
        assert by_outcome["00"].fidelity == pytest.approx(1.0, abs=1e-12)

    def test_skewed_resource_balanced_input_closed_form(self):
        # every branch fidelity is (sqrt .8 + sqrt .2)^2 / 2 = 0.9
        resource = EntangledResource(math.sqrt(0.8), math.sqrt(0.2))
        records = teleport(SQRT_HALF, SQRT_HALF, resource)
        target = (math.sqrt(0.8) + math.sqrt(0.2)) ** 2 / 2.0
        for r in records:
            assert r.fidelity == pytest.approx(target, abs=1e-12)
        ef = expected_fidelity(records)
        assert ef == pytest.approx(0.9, abs=1e-12)
        assert ef < 1.0 - 1e-6

    @given(inputs=unit_pairs, resource=unit_pairs)
    @example(inputs=(1.0, 0.0), resource=(1.0, 0.0))  # outcomes 01 and 11 vanish
    @example(inputs=(0.0, 1.0), resource=(1.0, 0.0))  # outcomes 00 and 10 vanish
    @example(inputs=(1.0, 0.0), resource=(0.0, 1j))  # outcomes 00 and 10 vanish
    @example(inputs=(0.0, 1.0), resource=(0.0, 1.0))  # outcomes 01 and 11 vanish
    @example(inputs=(0.6, 0.8j), resource=(1.0, 0.0))  # alpha10 = 0, no branch vanishes
    @example(inputs=(1.0, 0.0), resource=(math.sqrt(0.8), math.sqrt(0.2)))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_oracle(self, inputs, resource):
        a, b = inputs
        r01, r10 = resource
        records = teleport(a, b, EntangledResource(r01, r10))
        assert [r.outcome for r in records] == ["00", "01", "10", "11"]
        by_outcome = {r.outcome: r for r in records}
        for outcome, prob, fidelity in teleport_brute_force(a, b, [0.0, r01, r10, 0.0]):
            assert by_outcome[outcome].probability == pytest.approx(prob, abs=1e-12)
            if fidelity is None:
                assert by_outcome[outcome].fidelity is None
            else:
                assert by_outcome[outcome].fidelity == pytest.approx(fidelity, abs=1e-12)

    def test_input_flip_relabels_outcomes(self):
        # swapping (a, b) mirrors the branch structure 00<->01, 10<->11
        rng = np.random.default_rng(7)
        a, b = random_qubit_pair(rng)
        resource = EntangledResource(math.sqrt(0.3), math.sqrt(0.7))
        direct = {r.outcome: r for r in teleport(a, b, resource)}
        flipped = {r.outcome: r for r in teleport(b, a, resource)}
        relabel = {"00": "01", "01": "00", "10": "11", "11": "10"}
        for outcome, twin in relabel.items():
            assert direct[outcome].probability == pytest.approx(
                flipped[twin].probability, abs=1e-12
            )
            assert direct[outcome].fidelity == pytest.approx(
                flipped[twin].fidelity, abs=1e-12
            )

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        skew=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=30, deadline=None)
    def test_probabilities_always_sum_to_one(self, seed, skew):
        rng = np.random.default_rng(seed)
        a, b = random_qubit_pair(rng)
        resource = EntangledResource(math.sqrt(skew), math.sqrt(1.0 - skew))
        records = teleport(a, b, resource)
        assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-12)


class TestProtocolEmbeddedInChain:
    def test_interior_sites_factor_out_at_readout(self):
        # run the oracle on the chain's whole register (A = site 1, B =
        # site 5) at the readout time; its fidelity is taken against |000>
        # on the interior, so it reads 1 only if the line factors out, and
        # then the two-qubit resource the pipeline extracts must agree
        n = 5
        profile = engineered_couplings(n, 1.0)
        h_full = full_hilbert_hamiltonian(profile)
        psi0 = np.zeros(2**n, dtype=complex)
        psi0[1 << (n - (n + 1) // 2)] = 1.0  # excitation on the center site
        chain_state = dense_propagate(h_full, psi0, math.pi)
        resource = resource_from_profile(profile)

        rng = np.random.default_rng(20260816)
        for _ in range(3):
            a, b = random_qubit_pair(rng)
            records = {r.outcome: r for r in teleport(a, b, resource)}
            for outcome, prob, fidelity in teleport_brute_force(a, b, chain_state):
                assert prob == pytest.approx(0.25, abs=1e-9)
                assert fidelity == pytest.approx(1.0, abs=1e-9)
                assert records[outcome].probability == pytest.approx(prob, abs=1e-9)
                assert records[outcome].fidelity == pytest.approx(fidelity, abs=1e-9)
