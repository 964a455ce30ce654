"""Gate application, measurement, and the teleportation protocol."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellchain.chain import engineered_couplings, full_hilbert_hamiltonian
from bellchain.teleport import (
    EntangledResource,
    QubitRegisterState,
    apply_gate,
    correction_for,
    expected_fidelity,
    measure_two,
    prepare_phi1,
    teleport,
)
from oracles import dense_propagate, random_qubit_pair, teleport_brute_force

SQRT_HALF = 1.0 / math.sqrt(2.0)


def single(label: str, amps) -> QubitRegisterState:
    return QubitRegisterState((label,), np.asarray(amps, dtype=complex))


class TestRegisterState:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            QubitRegisterState(("q", "q"), np.array([0.5, 0.5, 0.5, 0.5]))

    def test_rejects_oversized_register(self):
        with pytest.raises(ValueError):
            QubitRegisterState(
                tuple(f"q{i}" for i in range(13)),
                np.zeros(2**13),
            )

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            QubitRegisterState(("a", "b"), np.array([1.0, 0.0]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            QubitRegisterState(("a",), np.array([1.0, 1.0]))

    def test_axis_lookup(self):
        state = QubitRegisterState(("a", "b"), np.array([1.0, 0, 0, 0]))
        assert state.axis_of("b") == 1
        with pytest.raises(ValueError):
            state.axis_of("zz")


class TestEntangledResource:
    def test_bell_is_balanced(self):
        bell = EntangledResource.bell()
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

    def test_vector_layout(self):
        r = EntangledResource(math.sqrt(0.8), math.sqrt(0.2))
        np.testing.assert_allclose(
            r.as_vector(), [0.0, math.sqrt(0.8), math.sqrt(0.2), 0.0]
        )


class TestPreparePhi1:
    def test_basis_input(self):
        state = prepare_phi1(1.0, 0.0, EntangledResource.bell())
        expected = np.zeros(8, dtype=complex)
        expected[0b001] = SQRT_HALF
        expected[0b010] = SQRT_HALF
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_balanced_input(self):
        state = prepare_phi1(SQRT_HALF, SQRT_HALF, EntangledResource.bell())
        expected = np.zeros(8, dtype=complex)
        expected[[0b001, 0b010, 0b101, 0b110]] = 0.5
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_product_resource_has_no_ab_entanglement(self):
        state = prepare_phi1(0.6, 0.8, EntangledResource(1.0, 0.0))
        expected = np.zeros(8, dtype=complex)
        expected[0b001] = 0.6
        expected[0b101] = 0.8
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_rejects_unnormalized_input(self):
        with pytest.raises(ValueError):
            prepare_phi1(1.0, 1.0, EntangledResource.bell())
        with pytest.raises(ValueError, match="not normalized"):
            prepare_phi1(complex(math.nan, 0.0), 0.0, EntangledResource.bell())

    @pytest.mark.parametrize("huge", [1e200, complex(1e308, 1e308)])
    def test_huge_inputs_fail_the_norm_check(self, huge):
        with pytest.raises(ValueError, match="not normalized"):
            prepare_phi1(huge, huge, EntangledResource.bell())


class TestApplyGate:
    def test_x_flips(self):
        out = apply_gate(single("q", [1.0, 0.0]), "X", "q")
        np.testing.assert_allclose(out.amplitudes, [0.0, 1.0])

    def test_h_squares_to_identity(self):
        state = single("q", [0.6, 0.8])
        out = apply_gate(apply_gate(state, "H", "q"), "H", "q")
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_cnot_truth_table(self):
        for control, target, expect in [
            ((1.0, 0.0), (1.0, 0.0), 0b00),
            ((1.0, 0.0), (0.0, 1.0), 0b01),
            ((0.0, 1.0), (1.0, 0.0), 0b11),
            ((0.0, 1.0), (0.0, 1.0), 0b10),
        ]:
            amps = np.kron(control, target).astype(complex)
            out = apply_gate(
                QubitRegisterState(("c", "t"), amps), "CNOT", "c", "t"
            )
            assert out.amplitudes[expect] == pytest.approx(1.0)

    def test_cnot_respects_label_order_not_register_order(self):
        # control listed second: |t=0, c=1> must flip t
        amps = np.zeros(4, dtype=complex)
        amps[0b01] = 1.0  # t=0, c=1
        out = apply_gate(QubitRegisterState(("t", "c"), amps), "CNOT", "c", "t")
        assert out.amplitudes[0b11] == pytest.approx(1.0)

    def test_four_branch_structure_after_sender_gates(self):
        rng = np.random.default_rng(3)
        a, b = random_qubit_pair(rng)
        state = prepare_phi1(a, b, EntangledResource.bell())
        state = apply_gate(state, "CNOT", "At", "A")
        state = apply_gate(state, "H", "At")
        tensor = state.amplitudes.reshape(2, 2, 2)
        half = 0.5
        np.testing.assert_allclose(tensor[0, 0], [half * b, half * a], atol=1e-12)
        np.testing.assert_allclose(tensor[0, 1], [half * a, half * b], atol=1e-12)
        np.testing.assert_allclose(tensor[1, 0], [-half * b, half * a], atol=1e-12)
        np.testing.assert_allclose(tensor[1, 1], [half * a, -half * b], atol=1e-12)

    def test_rejects_unknown_gate_and_label(self):
        state = single("q", [1.0, 0.0])
        with pytest.raises(ValueError):
            apply_gate(state, "SWAP", "q")
        with pytest.raises(ValueError):
            apply_gate(state, "X", "nope")

    def test_rejects_repeated_qubit(self):
        state = QubitRegisterState(("a", "b"), np.array([1.0, 0, 0, 0]))
        with pytest.raises(ValueError):
            apply_gate(state, "CNOT", "a", "a")


class TestMeasureTwo:
    def test_bell_pipeline_outcomes_equiprobable(self):
        state = prepare_phi1(0.6, 0.8, EntangledResource.bell())
        state = apply_gate(state, "CNOT", "At", "A")
        state = apply_gate(state, "H", "At")
        branches = measure_two(state, "At", "A")
        assert [o for o, _, _ in branches] == ["00", "01", "10", "11"]
        for _, prob, conditional in branches:
            assert prob == pytest.approx(0.25, abs=1e-12)
            assert conditional is not None
            assert np.sum(np.abs(conditional.amplitudes) ** 2) == pytest.approx(1.0)

    def test_product_state_single_outcome(self):
        amps = np.kron([1.0, 0.0], np.kron([1.0, 0.0], [0.6, 0.8])).astype(complex)
        state = QubitRegisterState(("x", "y", "z"), amps)
        branches = measure_two(state, "x", "y")
        probs = {o: p for o, p, _ in branches}
        assert probs["00"] == pytest.approx(1.0)
        assert probs["01"] == 0.0 and probs["10"] == 0.0 and probs["11"] == 0.0
        assert [s for o, _, s in branches if o != "00"] == [None, None, None]

    def test_skewed_resource_sender_receiver_correlation(self):
        # measuring the sender against B reads out the resource skew:
        # outcome 00 keeps the |10>_AB branch
        resource = EntangledResource(math.sqrt(0.8), math.sqrt(0.2))
        state = prepare_phi1(1.0, 0.0, resource)
        branches = dict(
            (o, p) for o, p, _ in measure_two(state, "At", "B")
        )
        assert branches["00"] == pytest.approx(0.2, abs=1e-12)
        assert branches["01"] == pytest.approx(0.8, abs=1e-12)

    def test_sample_mode_is_seeded(self):
        state = prepare_phi1(0.6, 0.8, EntangledResource.bell())
        first = measure_two(state, "At", "A", mode="sample", seed=123)
        second = measure_two(state, "At", "A", mode="sample", seed=123)
        assert len(first) == 1
        assert first[0][0] == second[0][0]
        enumerated = {o: p for o, p, _ in measure_two(state, "At", "A")}
        assert first[0][1] == pytest.approx(enumerated[first[0][0]])

    def test_rejects_same_qubit_and_bad_mode(self):
        state = prepare_phi1(1.0, 0.0, EntangledResource.bell())
        with pytest.raises(ValueError):
            measure_two(state, "At", "At")
        with pytest.raises(ValueError):
            measure_two(state, "At", "A", mode="guess")


class TestCorrections:
    def test_table(self):
        assert correction_for("00") == "X"
        assert correction_for("01") == "I"
        assert correction_for("10") == "ZX"
        assert correction_for("11") == "Z"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            correction_for("2")


class TestTeleport:
    def test_bell_resource_is_deterministic(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            a, b = random_qubit_pair(rng)
            records = teleport(a, b, EntangledResource.bell())
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

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(20260816)
        for _ in range(50):
            a, b = random_qubit_pair(rng)
            r01, r10 = random_qubit_pair(rng)
            resource = EntangledResource(r01, r10)
            records = {r.outcome: r for r in teleport(a, b, resource)}
            for outcome, prob, fidelity in teleport_brute_force(a, b, r01, r10):
                assert records[outcome].probability == pytest.approx(prob, abs=1e-12)
                if fidelity is None:
                    assert records[outcome].fidelity is None
                else:
                    assert records[outcome].fidelity == pytest.approx(
                        fidelity, abs=1e-12
                    )

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

    def test_sample_mode_returns_one_branch(self):
        records = teleport(0.6, 0.8, EntangledResource.bell(), mode="sample", seed=5)
        assert len(records) == 1
        assert records[0].fidelity == pytest.approx(1.0, abs=1e-12)


class TestProtocolEmbeddedInChain:
    def test_interior_sites_factor_out_at_readout(self):
        # run the protocol against the chain's own end pair, keeping all
        # five chain qubits in the register; the interior must hold |000>
        # in every branch, so the recovered qubit is exact
        n = 5
        profile = engineered_couplings(n, 1.0)
        h_full = full_hilbert_hamiltonian(profile)
        psi0 = np.zeros(2**n, dtype=complex)
        psi0[1 << (n - (n + 1) // 2)] = 1.0  # excitation on the center site
        chain_state = dense_propagate(h_full, psi0, math.pi)

        rng = np.random.default_rng(20260816)
        a, b = random_qubit_pair(rng)
        labels = ("At", "s1", "s2", "s3", "s4", "s5")
        register = QubitRegisterState(
            labels, np.kron(np.array([a, b]), chain_state)
        )
        register = apply_gate(register, "CNOT", "At", "s1")
        register = apply_gate(register, "H", "At")

        for outcome, prob, branch in measure_two(register, "At", "s1"):
            assert prob == pytest.approx(0.25, abs=1e-9)
            corrected = branch
            for gate in reversed(correction_for(outcome)):
                if gate != "I":
                    corrected = apply_gate(corrected, gate, "s5")
            # overlap with |outcome> x |000> x (a|0> + b|1>) on s5
            expected = np.array([int(outcome[0]) == 0, int(outcome[0]) == 1])
            expected = np.kron(
                expected, [int(outcome[1]) == 0, int(outcome[1]) == 1]
            ).astype(complex)
            for _ in range(3):
                expected = np.kron(expected, [1.0, 0.0])
            expected = np.kron(expected, [a, b])
            fidelity = abs(np.vdot(expected, corrected.amplitudes)) ** 2
            assert fidelity == pytest.approx(1.0, abs=1e-9)
