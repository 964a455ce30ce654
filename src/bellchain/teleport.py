"""Teleportation over a (possibly non-maximal) entangled pair.

The sender holds the input qubit a|0> + b|1> (At) and node A of the
resource alpha01|01> + alpha10|10> on (A, B); node B receives.  The
sender applies CNOT(At -> A) and a Hadamard on At, measures (At, A), and
B gets the outcome's Pauli correction: X when A reads 0, Z when At reads
1.  That fixed three-qubit circuit is evaluated in closed form: after
the correction, B holds (a alpha01, b alpha10) / sqrt(2) when A reads 0
and (a alpha10, b alpha01) / sqrt(2) when A reads 1, before
renormalization; both At outcomes give the same B.  With the maximal
Bell resource every outcome recovers the input exactly; with a skewed
resource the recovery fidelity varies per outcome and only the
expectation over outcomes is meaningful.

The transmission line is omitted throughout: at the readout time its
factor is exactly |0...0>, which a test confirms by running the
independent matrix oracle on the full chain register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _check_normalized

_ZERO_PROB = 1e-15

_CORRECTIONS = {"00": "X", "01": "I", "10": "ZX", "11": "Z"}


def _norm_sq(a: complex, b: complex) -> float:
    """|a|^2 + |b|^2 as re*re + im*im, which overflows to inf for huge
    amplitudes where abs(z) ** 2 would raise OverflowError."""
    a, b = complex(a), complex(b)
    return a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag


@dataclass(frozen=True)
class EntangledResource:
    """Two-qubit AB resource alpha01|01> + alpha10|10>."""

    alpha01: complex
    alpha10: complex

    def __post_init__(self) -> None:
        _check_normalized(_norm_sq(self.alpha01, self.alpha10), "resource")
        object.__setattr__(self, "alpha01", complex(self.alpha01))
        object.__setattr__(self, "alpha10", complex(self.alpha10))


@dataclass(frozen=True)
class TeleportRecord:
    """One measurement branch: outcome, its probability, the Pauli
    correction applied on B, and the recovery fidelity (None when the
    branch has probability zero and no conditional state exists)."""

    outcome: str
    probability: float
    correction: str
    fidelity: float | None


def correction_for(outcome: str) -> str:
    """Pauli correction on B for a given (At, A) outcome."""
    try:
        return _CORRECTIONS[outcome]
    except KeyError:
        raise ValueError(f"outcome must be one of 00,01,10,11, got {outcome!r}") from None


def teleport(a: complex, b: complex, resource: EntangledResource) -> list[TeleportRecord]:
    """Run the protocol and score every measurement branch.

    Returns the four outcomes "00".."11" (first bit At, second A) with
    their Born probabilities.  Fidelity is |<target|B>|^2 of the
    corrected B against the input a|0>+b|1>; a branch of probability
    zero carries None.
    """
    _check_normalized(_norm_sq(a, b), "input qubit")
    # The ufunc products, the float scale, the array division by sqrt(p)
    # and a contiguous vector for np.vdot each fix the payload's last bits:
    # Python products, a hand-written quotient or a strided view move them.
    # Row m of `kept` is the corrected, unnormalized B when A reads m.
    alphas = resource.alpha01, resource.alpha10
    kept = np.multiply([[a, b], [a, b]], [alphas, alphas[::-1]]) * (1.0 / math.sqrt(2.0))
    weights = np.abs(kept) ** 2
    probs = (weights[:, 0] + weights[:, 1]).tolist()

    target = np.array([a, b], dtype=complex)
    # Both At outcomes leave B alike, so each A outcome m is scored once.
    branches = [
        (0.0, None) if p < _ZERO_PROB else (p, float(abs(np.vdot(target, row / math.sqrt(p))) ** 2))
        for p, row in zip(probs, kept)
    ]
    return [
        TeleportRecord(at + m, p, correction_for(at + m), fidelity)
        for at in "01"
        for m, (p, fidelity) in zip("01", branches)
    ]


def expected_fidelity(records: list[TeleportRecord]) -> float:
    """Probability-weighted fidelity over the measurement branches."""
    return sum(r.probability * r.fidelity for r in records if r.fidelity is not None)
