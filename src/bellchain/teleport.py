"""Statevector teleportation over a (possibly non-maximal) entangled pair.

The protocol runs on a small explicit qubit register: prepare the sender
qubit against the AB resource, entangle and rotate on the sender side,
measure, and apply the outcome-dependent Pauli correction on B.  With
the maximal Bell resource every outcome recovers the input exactly; with
a skewed resource the recovery fidelity varies per outcome and only the
expectation over outcomes is meaningful.

Register convention: labels are ordered most-significant-bit first, so
for labels (p, q, r) the amplitude at index 6 = 0b110 belongs to
|1⟩_p |1⟩_q |0⟩_r.  The transmission line is omitted throughout: at the
readout time its factor is exactly |0...0⟩, which a cross-module test
confirms by embedding the protocol in the full register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _check_normalized, _frozen_array

_ZERO_PROB = 1e-15

MAX_REGISTER_QUBITS = 12

SENDER = "At"
NODE_A = "A"
NODE_B = "B"

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_CNOT = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
    ],
    dtype=complex,
)

_CORRECTIONS = {"00": "X", "01": "I", "10": "ZX", "11": "Z"}


def _norm_sq(a: complex, b: complex) -> float:
    """|a|^2 + |b|^2 as re*re + im*im, which overflows to inf for huge
    amplitudes where abs(z) ** 2 would raise OverflowError."""
    a, b = complex(a), complex(b)
    return a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag


@dataclass(frozen=True)
class QubitRegisterState:
    """Named qubits with a normalized complex amplitude vector.

    ``labels[0]`` is the most significant bit of the amplitude index.
    """

    labels: tuple[str, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        if len(labels) != len(set(labels)):
            raise ValueError(f"duplicate qubit labels: {labels}")
        if not 1 <= len(labels) <= MAX_REGISTER_QUBITS:
            raise ValueError(
                f"register size {len(labels)} outside 1..{MAX_REGISTER_QUBITS}"
            )
        amps = _frozen_array(self.amplitudes, complex)
        if amps.shape != (2 ** len(labels),):
            raise ValueError(
                f"{len(labels)} qubits need {2 ** len(labels)} amplitudes, "
                f"got shape {amps.shape}"
            )
        _check_normalized(float(np.sum(np.abs(amps) ** 2)), "register state")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def axis_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"no qubit {label!r} in register {self.labels}") from None


@dataclass(frozen=True)
class EntangledResource:
    """Two-qubit AB resource alpha01|01> + alpha10|10>."""

    alpha01: complex
    alpha10: complex

    def __post_init__(self) -> None:
        _check_normalized(_norm_sq(self.alpha01, self.alpha10), "resource")
        object.__setattr__(self, "alpha01", complex(self.alpha01))
        object.__setattr__(self, "alpha10", complex(self.alpha10))

    @classmethod
    def bell(cls) -> "EntangledResource":
        s = 1.0 / math.sqrt(2.0)
        return cls(alpha01=s, alpha10=s)

    def as_vector(self) -> np.ndarray:
        """Amplitudes over the AB basis |00>, |01>, |10>, |11>."""
        return np.array([0.0, self.alpha01, self.alpha10, 0.0], dtype=complex)


@dataclass(frozen=True)
class TeleportRecord:
    """One measurement branch: outcome, its probability, the Pauli
    correction applied on B, and the recovery fidelity (None when the
    branch has probability zero and no conditional state exists)."""

    outcome: str
    probability: float
    correction: str
    fidelity: float | None


def prepare_phi1(a: complex, b: complex, resource: EntangledResource) -> QubitRegisterState:
    """Sender qubit a|0>+b|1> tensored with the AB resource.

    Register order (At, A, B); any global phase on the inputs is the
    caller's to drop.
    """
    _check_normalized(_norm_sq(a, b), "input qubit")
    amps = np.kron(np.array([a, b], dtype=complex), resource.as_vector())
    return QubitRegisterState(labels=(SENDER, NODE_A, NODE_B), amplitudes=amps)


def _apply_matrix(state: QubitRegisterState, matrix: np.ndarray, axes: list[int]) -> QubitRegisterState:
    n = state.n_qubits
    k = len(axes)
    tensor = state.amplitudes.reshape((2,) * n)
    tensor = np.moveaxis(tensor, axes, range(k))
    flat = tensor.reshape(2**k, -1)
    flat = matrix @ flat
    tensor = flat.reshape((2,) * n)
    tensor = np.moveaxis(tensor, range(k), axes)
    return QubitRegisterState(labels=state.labels, amplitudes=tensor.reshape(-1))


def apply_gate(state: QubitRegisterState, gate: str, *qubits: str) -> QubitRegisterState:
    """Apply a named gate to the given qubits.

    Parameters
    ----------
    state : QubitRegisterState
    gate : one of CNOT, H, X, Z
        CNOT takes (control, target); H, X and Z take one qubit.
    qubits : qubit labels the gate acts on

    Returns a new register state; all other qubits are untouched.
    """
    axes = [state.axis_of(q) for q in qubits]
    if len(set(axes)) != len(axes):
        raise ValueError(f"gate qubits must be distinct, got {qubits}")

    if gate == "CNOT":
        if len(qubits) != 2:
            raise ValueError("CNOT takes (control, target)")
        op = _CNOT
    elif gate in ("H", "X", "Z"):
        if len(qubits) != 1:
            raise ValueError(f"{gate} takes exactly one qubit")
        op = {"H": _H, "X": _X, "Z": _Z}[gate]
    else:
        raise ValueError(f"unknown gate {gate!r}")

    return _apply_matrix(state, op, axes)


def measure_two(
    state: QubitRegisterState,
    q1: str,
    q2: str,
    mode: str = "enumerate",
    seed: int | None = None,
) -> list[tuple[str, float, QubitRegisterState | None]]:
    """Projective measurement of two named qubits.

    enumerate mode returns all four outcomes "00".."11" (first bit is
    q1) with Born probabilities and the renormalized conditional states;
    branches of probability zero carry None instead of a state.  sample
    mode draws a single outcome from those probabilities using
    ``numpy.random.default_rng(seed)`` and returns just that branch.
    """
    if q1 == q2:
        raise ValueError("measured qubits must be distinct")
    if mode not in ("enumerate", "sample"):
        raise ValueError(f"unknown measurement mode {mode!r}")
    axes = [state.axis_of(q1), state.axis_of(q2)]

    n = state.n_qubits
    tensor = state.amplitudes.reshape((2,) * n)
    tensor = np.moveaxis(tensor, axes, [0, 1])
    blocks = tensor.reshape(4, -1)

    branches: list[tuple[str, float, QubitRegisterState | None]] = []
    probs = np.sum(np.abs(blocks) ** 2, axis=1)
    for code in range(4):
        outcome = f"{code >> 1}{code & 1}"
        p = float(probs[code])
        if p < _ZERO_PROB:
            branches.append((outcome, 0.0, None))
            continue
        collapsed = np.zeros_like(blocks)
        collapsed[code] = blocks[code] / math.sqrt(p)
        back = np.moveaxis(collapsed.reshape((2,) * n), [0, 1], axes)
        branches.append(
            (outcome, p, QubitRegisterState(state.labels, back.reshape(-1)))
        )

    if mode == "enumerate":
        return branches
    rng = np.random.default_rng(seed)
    code = int(rng.choice(4, p=probs / probs.sum()))
    return [branches[code]]


def correction_for(outcome: str) -> str:
    """Pauli correction on B for a given (At, A) outcome."""
    try:
        return _CORRECTIONS[outcome]
    except KeyError:
        raise ValueError(f"outcome must be one of 00,01,10,11, got {outcome!r}") from None


def _b_state_after(branch_state: QubitRegisterState, outcome: str) -> np.ndarray:
    """Extract the pure B qubit from a collapsed (At, A, B) register."""
    tensor = branch_state.amplitudes.reshape(2, 2, 2)
    return np.array(tensor[int(outcome[0]), int(outcome[1]), :], dtype=complex)


def _apply_correction(vec: np.ndarray, correction: str) -> np.ndarray:
    # "ZX" means X first, then Z.
    for name in reversed(correction):
        if name == "I":
            continue
        vec = (_X if name == "X" else _Z) @ vec
    return vec


def teleport(
    a: complex,
    b: complex,
    resource: EntangledResource,
    mode: str = "enumerate",
    seed: int | None = None,
) -> list[TeleportRecord]:
    """Run the full protocol and score every measurement branch.

    Pipeline: prepare (At, A, B), CNOT with At controlling A, Hadamard
    on At, measure (At, A), correct B per outcome.  Fidelity is
    |<target|B>|^2 against the input qubit a|0>+b|1>.
    """
    state = prepare_phi1(a, b, resource)
    state = apply_gate(state, "CNOT", SENDER, NODE_A)
    state = apply_gate(state, "H", SENDER)

    records = []
    for outcome, prob, branch in measure_two(state, SENDER, NODE_A, mode=mode, seed=seed):
        correction = correction_for(outcome)
        if branch is None:
            records.append(TeleportRecord(outcome, prob, correction, None))
            continue
        b_vec = _apply_correction(_b_state_after(branch, outcome), correction)
        target = np.array([a, b], dtype=complex)
        fidelity = float(abs(np.vdot(target, b_vec)) ** 2)
        records.append(TeleportRecord(outcome, prob, correction, fidelity))
    return records


def expected_fidelity(records: list[TeleportRecord]) -> float:
    """Probability-weighted fidelity over the measurement branches."""
    return sum(r.probability * r.fidelity for r in records if r.fidelity is not None)
