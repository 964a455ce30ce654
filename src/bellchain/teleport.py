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

    @classmethod
    def bell(cls) -> "EntangledResource":
        s = 1.0 / math.sqrt(2.0)
        return cls(alpha01=s, alpha10=s)


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


def teleport(
    a: complex,
    b: complex,
    resource: EntangledResource,
    mode: str = "enumerate",
    seed: int | None = None,
) -> list[TeleportRecord]:
    """Run the protocol and score every measurement branch.

    enumerate mode returns the four outcomes "00".."11" (first bit At,
    second A) with Born probabilities; sample mode draws one outcome
    from them with ``numpy.random.default_rng(seed)`` and returns that
    branch alone.  Fidelity is |<target|B>|^2 of the corrected B against
    the input a|0>+b|1>; a branch of probability zero carries None.
    """
    _check_normalized(_norm_sq(a, b), "input qubit")
    if mode not in ("enumerate", "sample"):
        raise ValueError(f"unknown measurement mode {mode!r}")
    # The ufunc products, the float scale, the array division by sqrt(p)
    # and a contiguous vector for np.vdot each fix the payload's last bits:
    # Python products, a hand-written quotient or a strided view move them.
    terms = np.multiply.outer([a, b], [resource.alpha01, resource.alpha10])
    terms = terms * (1.0 / math.sqrt(2.0))
    # Row m of `kept` is the corrected, unnormalized B when A reads m.
    kept = terms[[[0, 1], [0, 1]], [[0, 1], [1, 0]]]
    probs = np.tile(np.sum(np.abs(kept) ** 2, axis=1), 2)
    if mode == "enumerate":
        codes = range(4)
    else:
        codes = [int(np.random.default_rng(seed).choice(4, p=probs / probs.sum()))]

    target = np.array([a, b], dtype=complex)
    records = []
    for code in codes:
        outcome = f"{code >> 1}{code & 1}"
        p = float(probs[code])
        if p < _ZERO_PROB:
            records.append(TeleportRecord(outcome, 0.0, correction_for(outcome), None))
            continue
        fidelity = float(abs(np.vdot(target, kept[code & 1] / math.sqrt(p))) ** 2)
        records.append(TeleportRecord(outcome, p, correction_for(outcome), fidelity))
    return records


def expected_fidelity(records: list[TeleportRecord]) -> float:
    """Probability-weighted fidelity over the measurement branches."""
    return sum(r.probability * r.fidelity for r in records if r.fidelity is not None)
