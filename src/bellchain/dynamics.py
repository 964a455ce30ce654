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

On the dense path every site-to-site amplitude comes from one spectral
kernel, ``transition_amplitudes``: <i| exp(-iHt) |j> for a few rows i
over a grid of times.  Only ``evolve``, which propagates a whole state,
builds its own phases.

Both readouts also have a path that needs no eigenvectors: exp(-iHt) is
expanded in Chebyshev polynomials of H/Lambda with Bessel coefficients
(Tal-Ezer & Kosloff, J. Chem. Phys. 81 (1984) 3967), which costs K
tridiagonal matvecs and O(N) memory.  One recurrence serves both:
``state_at`` sums its weighted terms into the state at one time, and
``grid_amplitudes`` keeps one entry of each term and then reads every
time of a grid from those moments.  The Bessel coefficients come from
one FFT per time.  K grows like Lambda*|t| (about pi*N/4 at the
engineered readout time), so each readout takes that path when K < N
and the dense one otherwise.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.special

from .chain import ResourceLimitError, TridiagonalHamiltonian

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"

_NORM_ATOL = 1e-12

# Largest (times x eigenvalues) phase block the kernel builds at once,
# so a long grid on a long chain costs a bounded amount of extra memory.
_PHASE_BLOCK_ENTRIES = 1 << 16

# Chebyshev terms with |J_k| at or below this are dropped from the tail.
_BESSEL_TOL = 1e-17


class NumericFailure(RuntimeError):
    """Eigensolver did not converge; carries the matrix dimension."""

    def __init__(self, dimension: int):
        super().__init__(f"eigensolver failed (dimension {dimension})")
        self.dimension = dimension


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_normalized(norm_sq: float, what: str) -> None:
    # Written so that a NaN norm fails too: every comparison with NaN is False.
    if not abs(norm_sq - 1.0) <= _NORM_ATOL:
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

    @property
    def dimension(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def parity(self) -> tuple[str, ...]:
        """SYMMETRIC or ANTISYMMETRIC per column, computed on first access.

        Each column gets whichever of u -/+ reverse(u) has the smaller
        residual.  Column by column on purpose: a vectorized form would
        allocate two N x N temporaries.
        """
        parity = []
        for k in range(self.dimension):
            u = self.eigenvectors[:, k]
            mirrored = u[::-1]
            even = np.max(np.abs(u - mirrored))
            odd = np.max(np.abs(u + mirrored))
            parity.append(SYMMETRIC if even <= odd else ANTISYMMETRIC)
        return tuple(parity)


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
    """End-pair readout: concurrence, end-site amplitudes, stranded weight.

    alpha_first and alpha_last are the amplitudes on sites 1 and N,
    concurrence is 2 |alpha_first alpha_last|, and residual_norm is the
    norm of the weight left on the interior sites, so |alpha_first|^2 +
    |alpha_last|^2 + residual_norm^2 = 1.
    """

    concurrence: float
    alpha_first: complex
    alpha_last: complex
    residual_norm: float


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


def _physical_memory_bytes() -> int | None:
    """Installed RAM, or None where ``os.sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def eigendecompose(h: TridiagonalHamiltonian) -> EigenSystem:
    """Solve the symmetric tridiagonal eigenproblem.

    Off-diagonals must be positive (this makes the spectrum simple, so
    the parity of each eigenvector is well defined).  Eigenvectors are
    sign-normalized to a positive first component in place, on the
    arrays LAPACK returned, and both arrays are returned read-only.
    A chain whose 8 N^2 bytes of eigenvectors exceed physical memory
    raises ResourceLimitError before anything is allocated.
    """
    off = np.asarray(h.off_diagonal)
    if h.dimension < 2:
        raise ValueError("eigendecompose needs dimension >= 2")
    if np.any(off <= 0):
        raise ValueError("off-diagonals must be positive")
    needed, memory = 8 * h.dimension**2, _physical_memory_bytes()
    if memory is not None and needed > memory:
        raise ResourceLimitError(
            f"dense eigenvectors of {h.dimension} sites need {needed / 2**30:.1f} GiB, "
            f"more than the {memory / 2**30:.1f} GiB of physical memory"
        )
    try:
        eigenvalues, vectors = scipy.linalg.eigh_tridiagonal(
            np.zeros(h.dimension), off
        )
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericFailure(h.dimension) from exc

    # First component of a Jacobi-matrix eigenvector is never zero.
    vectors *= np.where(vectors[0] < 0, -1.0, 1.0)
    eigenvalues.setflags(write=False)
    vectors.setflags(write=False)
    return EigenSystem(eigenvalues=eigenvalues, eigenvectors=vectors)


def evolve(eig: EigenSystem, initial: SiteAmplitudeState, t: float) -> SiteAmplitudeState:
    """Propagate: U diag(exp(-i lambda t)) U^T applied to the state.

    U^T is applied to the real and imaginary parts separately, so the
    real eigenvector matrix is never promoted to a complex copy.
    """
    if initial.n_sites != eig.dimension:
        raise ValueError(
            f"state has {initial.n_sites} sites, eigensystem {eig.dimension}"
        )
    u = eig.eigenvectors
    amps = initial.amplitudes
    phases = np.exp(-1j * eig.eigenvalues * t)
    coeffs = u.T @ amps.real + 1j * (u.T @ amps.imag)
    return SiteAmplitudeState(u @ (phases * coeffs))


def _series_length(x: float, max_terms: int) -> int | None:
    """Number of Chebyshev terms K at Bessel argument x, or None if K >= ``max_terms``.

    K is the first order above |x| with |J_k(x)| <= _BESSEL_TOL.  Past |x|
    the Bessel values decay monotonically, so K >= max_terms exactly
    when order max_terms - 1 is not past |x| or still above the
    tolerance, and otherwise K is found by bisection on single values.
    The test reads ``scipy.special.jv``: the tail lies below the rounding
    floor of the table that ``_bessel_tables`` builds.
    """

    def negligible(k: int) -> bool:
        return k > abs(x) and abs(scipy.special.jv(k, x)) <= _BESSEL_TOL

    lo, hi = math.floor(abs(x)), max_terms - 1
    if not negligible(hi):
        return None
    while hi - lo > 1:  # negligible(hi) holds and negligible(lo) does not
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if negligible(mid) else (mid, hi)
    return hi


def _bessel_tables(xs, n_terms: int):
    """Yield J_k(x) for k < ``n_terms``, one row per x, over consecutive blocks of xs.

    Each row is the trapezoidal rule for the Fourier coefficients of
    exp(i x sin theta) = sum_k J_k(x) exp(i k theta): one FFT of M
    samples, where M is the power of two >= 2 K.  The rule returns
    J_k + J_{k-M} + J_{k+M} + ..., and every order it aliases in is at
    least M - K >= K, so below the tail tolerance.  A block holds at
    most ``_PHASE_BLOCK_ENTRIES`` samples, so a long grid never holds
    its whole table.
    """
    xs = np.asarray(xs, dtype=float)
    size = 1 << (2 * n_terms - 1).bit_length()
    sines = np.sin(np.arange(size) * (2.0 * math.pi / size))
    block = _PHASE_BLOCK_ENTRIES // size or 1
    for start in range(0, len(xs), block):
        samples = np.exp(1j * np.multiply.outer(xs[start : start + block], sines))
        yield np.fft.fft(samples)[:, :n_terms].real / size


def _chebyshev_plan(
    h: TridiagonalHamiltonian, times, max_terms: int
) -> tuple[float, int] | None:
    """Gershgorin bound Lambda of h and the term count K at max |Lambda t| over ``times``.

    None when K >= ``max_terms``.  One K serves every time of a grid:
    below its order, |J_k(x)| grows with |x|.
    """
    off = h.off_diagonal
    bound = max(map(operator.add, (0.0, *off), (*off, 0.0)))
    t_max = float(np.max(np.abs(times)))
    if not math.isfinite(bound * t_max):
        raise ValueError(f"evolution time {t_max!r} times spectral bound {bound!r} is not finite")
    n_terms = _series_length(bound * t_max, max_terms)
    return None if n_terms is None else (bound, n_terms)


def _chebyshev_terms(h: TridiagonalHamiltonian, parts: np.ndarray, bound: float, n_terms: int):
    """Yield T_k(H/bound) applied to each row of ``parts``, for k = 0 .. n_terms-1.

    Runs T_{k+1} = 2 (H/bound) T_k - T_{k-1} in real arithmetic.  The
    yielded array is a work buffer that the next step overwrites.
    """
    double = 2.0 * np.asarray(h.off_diagonal) / bound
    prev = parts.copy()
    cur = np.zeros_like(prev)
    scratch = np.empty((len(prev), h.dimension - 1))

    # cur = T_1 psi = (H/bound) psi
    np.multiply(0.5 * double, prev[:, 1:], out=cur[:, :-1])
    np.multiply(0.5 * double, prev[:, :-1], out=scratch)
    cur[:, 1:] += scratch
    yield prev
    for k in range(1, n_terms):
        yield cur
        if k + 1 < n_terms:
            # prev <- 2 (H/bound) cur - prev = T_{k+1} psi, then swap names
            np.multiply(double, cur[:, 1:], out=scratch)
            np.subtract(scratch, prev[:, :-1], out=prev[:, :-1])
            prev[:, -1] *= -1.0
            np.multiply(double, cur[:, :-1], out=scratch)
            prev[:, 1:] += scratch
            prev, cur = cur, prev


def _chebyshev_weights(bessel: np.ndarray) -> np.ndarray:
    """Real weights w_k with c_k J_k = w_k (-i)^(k mod 2), where c_0 = 1, c_k = 2 (-i)^k.

    (-i)^k is (-1)^(k//2) for even k and -i (-1)^(k//2) for odd k.
    """
    orders = np.arange(len(bessel))
    return np.where(orders == 0, 1.0, 2.0) * (-1.0) ** (orders // 2) * bessel


def _chebyshev_state(
    h: TridiagonalHamiltonian, initial: SiteAmplitudeState, t: float, max_terms: int
) -> SiteAmplitudeState | None:
    """sum_k c_k J_k(bound t) T_k(H/bound) psi, or None if it needs ``max_terms`` terms.

    The real and imaginary parts of psi are stacked as rows (a part that
    is identically zero, such as the imaginary part of a basis state,
    stays zero and is left out).  Each term is added with its real
    weight to an even or an odd sum, and the odd sum is multiplied by -i
    once at the end.
    """
    plan = _chebyshev_plan(h, [t], max_terms)
    if plan is None:
        return None
    bound, n_terms = plan
    (bessel,) = next(_bessel_tables([bound * t], n_terms))
    weights = _chebyshev_weights(bessel)
    parts = np.stack([initial.amplitudes.real, initial.amplitudes.imag])
    live = np.flatnonzero(np.any(parts, axis=1))
    sums = np.zeros((2, len(live) * h.dimension))  # even-k and odd-k terms, rows flattened
    for k, term in enumerate(_chebyshev_terms(h, parts[live], bound, n_terms)):
        scipy.linalg.blas.daxpy(term.reshape(-1), sums[k & 1], a=weights[k])

    even, odd = np.zeros((2, 2, h.dimension))
    even[live] = sums[0].reshape(len(live), -1)
    odd[live] = sums[1].reshape(len(live), -1)
    return SiteAmplitudeState((even[0] + odd[1]) + 1j * (even[1] - odd[0]))


def state_at(h: TridiagonalHamiltonian, initial: SiteAmplitudeState, t: float) -> SiteAmplitudeState:
    """exp(-iHt) applied to the state, by whichever path is cheaper.

    The Chebyshev series (O(N) memory, K matvecs) when it needs fewer
    terms K than there are sites, else ``eigendecompose`` + ``evolve``.
    """
    if initial.n_sites != h.dimension:
        raise ValueError(f"state has {initial.n_sites} sites, Hamiltonian {h.dimension}")
    state = _chebyshev_state(h, initial, t, h.dimension)
    return evolve(eigendecompose(h), initial, t) if state is None else state


def grid_amplitudes(h: TridiagonalHamiltonian, row: int, column: int, times) -> np.ndarray:
    """<row| exp(-iHt) |column> over the grid ``times`` (0-based sites).

    When the Chebyshev series needs fewer terms K than there are sites
    (K taken at the largest |t|), one recurrence from e_column keeps the
    moments m_k = [T_k(H/Lambda) e_column]_row, and every time is the
    sum_k c_k J_k(Lambda t) m_k.  That costs K matvecs, O(N) memory and
    one Bessel table per block of times.  Otherwise ``eigendecompose`` +
    ``transition_amplitudes``.
    """
    times = np.asarray(times, dtype=float)
    plan = _chebyshev_plan(h, times, h.dimension)
    if plan is None:
        (amps,) = transition_amplitudes(eigendecompose(h), [row], column, times)
        return amps
    bound, n_terms = plan
    start = np.zeros((1, h.dimension))
    start[0, column] = 1.0
    moments = np.array([term[0, row] for term in _chebyshev_terms(h, start, bound, n_terms)])
    coefficients = _chebyshev_weights(moments) * np.where(np.arange(n_terms) % 2, -1j, 1.0)
    return np.concatenate([table @ coefficients for table in _bessel_tables(bound * times, n_terms)])


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
    t0 = math.pi / mu
    if not math.isfinite(t0):
        raise ValueError(f"readout time pi/mu is not finite for mu = {mu!r}")
    return t0


def bell_decomposition(state: SiteAmplitudeState) -> BellDecomposition:
    """Split a state into end-site amplitudes plus orthogonal remainder.

    residual_norm is summed over the interior amplitudes directly (not
    via 1 - |a_1|^2 - |a_N|^2, whose cancellation would swamp a residual
    near zero with rounding noise).
    """
    return BellDecomposition(
        concurrence=concurrence_ab(state),
        alpha_first=complex(state.amplitudes[0]),
        alpha_last=complex(state.amplitudes[-1]),
        residual_norm=float(np.sqrt(np.sum(np.abs(state.amplitudes[1:-1]) ** 2))),
    )


def concurrence_ab(state: SiteAmplitudeState) -> float:
    """Concurrence of the two end qubits: 2 |a_1 a_N| for one-excitation states.

    Equals 1 exactly when |a_1| = |a_N| = 1/sqrt(2), i.e. when the ends
    form a Bell pair and the transmission line is empty.
    """
    return 2.0 * abs(state.amplitudes[0]) * abs(state.amplitudes[-1])
