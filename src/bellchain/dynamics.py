"""Spectral decomposition, time evolution and Bell-pair readout.

Everything here works in the one-excitation subspace: states are complex
amplitude vectors over chain sites, and the propagator is built from the
eigendecomposition H = U diag(lambda) U^T of the tridiagonal block.

For mirror-symmetric chains the eigenvectors split into a symmetric and
an antisymmetric family under site reversal; the antisymmetric ones have
exactly zero center component, so only the symmetric family contributes
to transfer out of the center site.  The engineered profile makes that
transfer amplitude equal to the closed form

    <1| exp(-iHt) |center> = (1/sqrt(2)) * (-i sin(mu t / 2))^((N-1)/2)

whose modulus peaks at t0 = pi/mu with value 1/sqrt(2) at both ends
simultaneously: a Bell pair between sites 1 and N.

Every site-to-site amplitude comes from one spectral kernel,
``transition_amplitudes``: <i| exp(-iHt) |j> for a few rows i over a
grid of times.  Only ``evolve``, which propagates a whole state, builds
its own phases.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .chain import TridiagonalHamiltonian

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"

_NORM_ATOL = 1e-12

# Largest (times x eigenvalues) phase block the kernel builds at once,
# so a long grid on a long chain costs a bounded amount of extra memory.
_PHASE_BLOCK_ENTRIES = 1 << 16


class NumericFailure(RuntimeError):
    """Eigensolver did not converge; carries the matrix dimension."""

    def __init__(self, dimension: int, message: str = "eigensolver failed"):
        super().__init__(f"{message} (dimension {dimension})")
        self.dimension = dimension


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_normalized(norm_sq: float, what: str) -> None:
    if abs(norm_sq - 1.0) > _NORM_ATOL:
        raise ValueError(f"{what} not normalized: sum |a|^2 = {norm_sq!r}")


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (ascending), orthonormal eigenvectors, parity labels.

    ``eigenvectors[:, k]`` belongs to ``eigenvalues[k]``; each column has
    its first component positive, and ``parity[k]`` says whether the
    column is even or odd under site reversal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    parity: tuple[str, ...]

    @property
    def dimension(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class SiteAmplitudeState:
    """Normalized complex amplitude per chain site."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _frozen_array(self.amplitudes, complex)
        if amps.ndim != 1 or len(amps) == 0:
            raise ValueError("amplitudes must be a nonempty 1-D vector")
        _check_normalized(float(np.sum(np.abs(amps) ** 2)), "state")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_sites(self) -> int:
        return len(self.amplitudes)


@dataclass(frozen=True)
class BellDecomposition:
    """End-site amplitudes and the weight left on the transmission line.

    alpha_first and alpha_last are the amplitudes on sites 1 and N,
    beta_norm is the norm of the remainder, and phase is arg(alpha_first)
    (0 when alpha_first vanishes).  |alpha_first|^2 + |alpha_last|^2 +
    beta_norm^2 = 1.
    """

    alpha_first: complex
    alpha_last: complex
    beta_norm: float
    phase: float


def basis_state(n_sites: int, site: int) -> SiteAmplitudeState:
    """The state with the excitation on ``site`` (1-based)."""
    if not 1 <= site <= n_sites:
        raise ValueError(f"site {site} outside 1..{n_sites}")
    amps = np.zeros(n_sites, dtype=complex)
    amps[site - 1] = 1.0
    return SiteAmplitudeState(amps)


def center_excited_state(n_sites: int) -> SiteAmplitudeState:
    """Excitation on the middle site of an odd chain."""
    if n_sites % 2 == 0:
        raise ValueError(f"center site undefined for even n_sites {n_sites}")
    return basis_state(n_sites, (n_sites + 1) // 2)


def eigendecompose(h: TridiagonalHamiltonian) -> EigenSystem:
    """Solve the symmetric tridiagonal eigenproblem and label parities.

    Off-diagonals must be positive (this makes the spectrum simple, so
    the parity of each eigenvector is well defined).  Eigenvectors are
    sign-normalized to a positive first component; parity is assigned by
    whichever of u -/+ reverse(u) has the smaller residual.
    """
    off = np.asarray(h.off_diagonal)
    if h.dimension < 2:
        raise ValueError("eigendecompose needs dimension >= 2")
    if np.any(off <= 0):
        raise ValueError("off-diagonals must be positive")
    try:
        eigenvalues, vectors = scipy.linalg.eigh_tridiagonal(
            np.zeros(h.dimension), off
        )
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericFailure(h.dimension) from exc

    # First component of a Jacobi-matrix eigenvector is never zero.
    signs = np.where(vectors[0, :] < 0, -1.0, 1.0)
    vectors = vectors * signs[np.newaxis, :]

    parity = []
    for k in range(h.dimension):
        u = vectors[:, k]
        mirrored = u[::-1]
        even = np.max(np.abs(u - mirrored))
        odd = np.max(np.abs(u + mirrored))
        parity.append(SYMMETRIC if even <= odd else ANTISYMMETRIC)

    return EigenSystem(
        eigenvalues=_frozen_array(eigenvalues, float),
        eigenvectors=_frozen_array(vectors, float),
        parity=tuple(parity),
    )


def evolve(eig: EigenSystem, initial: SiteAmplitudeState, t: float) -> SiteAmplitudeState:
    """Propagate: U diag(exp(-i lambda t)) U^T applied to the state."""
    if initial.n_sites != eig.dimension:
        raise ValueError(
            f"state has {initial.n_sites} sites, eigensystem {eig.dimension}"
        )
    phases = np.exp(-1j * eig.eigenvalues * t)
    coeffs = eig.eigenvectors.T @ initial.amplitudes
    return SiteAmplitudeState(eig.eigenvectors @ (phases * coeffs))


def transition_amplitudes(
    eig: EigenSystem, rows, column: int, times
) -> list[np.ndarray]:
    """<i| exp(-iHt) |column> over the grid ``times``, one array per row i.

    Sites are 0-based.  The sum over eigenstates is one matrix-vector
    product per row, exp(-i t lambda) @ (u_i * u_column); grids longer
    than one phase block are evaluated block by block.
    """
    times = np.asarray(times, dtype=float)
    block = _PHASE_BLOCK_ENTRIES // eig.dimension or 1
    if len(times) > block:
        pieces = [
            transition_amplitudes(eig, rows, column, times[start : start + block])
            for start in range(0, len(times), block)
        ]
        return [np.concatenate(row) for row in zip(*pieces)]
    u = eig.eigenvectors
    phases = np.exp(-1j * np.outer(times, eig.eigenvalues))
    return [phases @ (u[i] * u[column]) for i in rows]


def center_to_end_amplitude(eig: EigenSystem, t: float) -> complex:
    """<1| exp(-iHt) |center> for an odd chain."""
    if eig.dimension % 2 == 0:
        raise ValueError("center-to-end amplitude needs an odd chain")
    return complex(transition_amplitudes(eig, [0], (eig.dimension - 1) // 2, [t])[0][0])


def end_to_end_amplitude(eig: EigenSystem, t: float) -> complex:
    """<1| exp(-iHt) |M> between the first and last sites."""
    return complex(transition_amplitudes(eig, [0], eig.dimension - 1, [t])[0][0])


def analytic_center_to_end(n_sites: int, mu: float, t: float) -> complex:
    """Closed-form center-to-end amplitude of the engineered N-site chain."""
    if n_sites % 2 == 0:
        raise ValueError(f"n_sites must be odd, got {n_sites}")
    return (-1j * math.sin(0.5 * mu * t)) ** ((n_sites - 1) // 2) / math.sqrt(2.0)


def analytic_halved_transfer(m_sites: int, mu: float, t: float) -> complex:
    """Closed-form end-to-end amplitude of the M-site folded chain.

    Has modulus 1 at mu*t = pi: perfect state transfer.
    """
    if m_sites < 2:
        raise ValueError(f"m_sites must be >= 2, got {m_sites}")
    return (-1j * math.sin(0.5 * mu * t)) ** (m_sites - 1)


def bell_time(mu: float) -> float:
    """Time pi/mu at which the end pair is maximally entangled; N-independent."""
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    return math.pi / mu


def bell_decomposition(state: SiteAmplitudeState) -> BellDecomposition:
    """Split a state into end-site amplitudes plus orthogonal remainder.

    beta_norm is summed over the interior amplitudes directly (not via
    1 - |a_1|^2 - |a_N|^2, whose cancellation would swamp a residual
    near zero with rounding noise).
    """
    a_first = complex(state.amplitudes[0])
    a_last = complex(state.amplitudes[-1])
    beta_norm = float(np.sqrt(np.sum(np.abs(state.amplitudes[1:-1]) ** 2)))
    phase = cmath.phase(a_first) if abs(a_first) > 0 else 0.0
    return BellDecomposition(a_first, a_last, beta_norm, phase)


def concurrence_ab(state: SiteAmplitudeState) -> float:
    """Concurrence of the two end qubits: 2 |a_1 a_N| for one-excitation states.

    Equals 1 exactly when |a_1| = |a_N| = 1/sqrt(2), i.e. when the ends
    form a Bell pair and the transmission line is empty.
    """
    return 2.0 * abs(state.amplitudes[0]) * abs(state.amplitudes[-1])
