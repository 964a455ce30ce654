"""Independent reference implementations used only by the tests.

Everything here is built from first principles with numpy/scipy and no
imports from the package under test, so agreement is evidence rather
than tautology: Wootters concurrence from the spin-flipped density
matrix, evolution through a dense matrix exponential, and a monolithic
matrix-product teleportation pipeline.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

_SY = np.array([[0.0, -1j], [1j, 0.0]])
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def wootters_concurrence(rho: np.ndarray) -> float:
    """Concurrence of a two-qubit density matrix via the spin-flip spectrum."""
    yy = np.kron(_SY, _SY)
    r = rho @ yy @ rho.conj() @ yy
    eigenvalues = np.linalg.eigvals(r).real
    lams = np.sort(np.sqrt(np.clip(eigenvalues, 0.0, None)))[::-1]
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def end_pair_density(amplitudes: np.ndarray) -> np.ndarray:
    """Reduced density matrix of sites (1, N) for a one-excitation state.

    The excitation on site 1 reads as |10>, on site N as |01>; interior
    weight traces to the |00> population because the interior register
    states are mutually orthogonal and orthogonal to the empty line.
    """
    a = np.asarray(amplitudes, dtype=complex)
    a_first, a_last = a[0], a[-1]
    interior = a[1:-1]
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = np.sum(np.abs(interior) ** 2)
    rho[1, 1] = abs(a_last) ** 2
    rho[2, 2] = abs(a_first) ** 2
    rho[1, 2] = a_last * np.conj(a_first)
    rho[2, 1] = a_first * np.conj(a_last)
    return rho


def dense_propagate(h: np.ndarray, psi0: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt) psi0 through a dense matrix exponential."""
    return scipy.linalg.expm(-1j * t * np.asarray(h, dtype=complex)) @ np.asarray(
        psi0, dtype=complex
    )


def parity_labels(vectors: np.ndarray) -> tuple[str, ...]:
    """Mirror parity of each eigenvector column, one column at a time.

    A column is "symmetric" when u - reverse(u) has the smaller largest
    entry and "antisymmetric" otherwise.
    """
    labels = []
    for k in range(vectors.shape[1]):
        u = vectors[:, k]
        mirrored = u[::-1]
        even = np.max(np.abs(u - mirrored))
        odd = np.max(np.abs(u + mirrored))
        labels.append("symmetric" if even <= odd else "antisymmetric")
    return tuple(labels)


def sender_gates(a: complex, b: complex, register) -> np.ndarray:
    """State of (At, A, line..., B) after the sender's CNOT(At -> A) and
    Hadamard on At, for the input a|0> + b|1> on At and ``register`` on
    (A, line..., B), A as the most significant bit."""
    register = np.asarray(register, dtype=complex)
    rest = register.size // 2  # dimension of (line..., B)
    psi = np.kron(np.array([a, b], dtype=complex), register)
    psi = np.kron(_CNOT, np.eye(rest)) @ psi
    return np.kron(_H, np.eye(2 * rest)) @ psi


def teleport_brute_force(
    a: complex, b: complex, register
) -> list[tuple[str, float, float | None]]:
    """Monolithic matrix teleportation pipeline on (At, A, line..., B).

    ``register`` is the state vector of (A, line..., B) with A as the
    most significant bit; the AB resource alpha01|01> + alpha10|10> is
    [0, alpha01, alpha10, 0].  The gates act through np.kron with
    identities on the untouched qubits.  Returns (outcome, probability,
    post-correction fidelity) for the four (At, A) outcomes, the
    fidelity taken against |0...0> on the line times a|0> + b|1> on B; a
    zero-probability branch carries None.
    """
    psi = sender_gates(a, b, register)
    rest = psi.size // 4  # dimension of (line..., B)
    line = np.eye(rest // 2)

    corrections = {
        "00": _X,
        "01": np.eye(2, dtype=complex),
        "10": _Z @ _X,
        "11": _Z,
    }
    target = np.kron(line[0], np.array([a, b], dtype=complex))
    results: list[tuple[str, float, float | None]] = []
    for o1 in (0, 1):
        for o2 in (0, 1):
            outcome = f"{o1}{o2}"
            start = (2 * o1 + o2) * rest
            branch = psi[start : start + rest]
            prob = float(np.sum(np.abs(branch) ** 2))
            if prob < 1e-15:
                results.append((outcome, 0.0, None))
                continue
            correction = np.kron(line, corrections[outcome])
            corrected = correction @ (branch / math.sqrt(prob))
            fidelity = float(abs(np.vdot(target, corrected)) ** 2)
            results.append((outcome, prob, fidelity))
    return results


def random_qubit_pair(rng: np.random.Generator) -> tuple[complex, complex]:
    """Haar-ish random normalized (a, b) with complex entries."""
    vec = rng.normal(size=4)
    a = complex(vec[0], vec[1])
    b = complex(vec[2], vec[3])
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / norm, b / norm
