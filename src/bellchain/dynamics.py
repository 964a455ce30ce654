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
over a grid of times.  Its checks are separate from its sums
(``_spectral_sums``), which ``search`` calls with weight rows it forms
once per eigensystem.  Only ``evolve``, which propagates the excitation
on one site to every site, builds its own phases.

Every propagator starts from one site, as the protocol does from the
center.  Both readouts also have a path that needs no eigenvectors:
exp(-iHt) is expanded in Chebyshev polynomials of H/Lambda with Bessel
coefficients (Tal-Ezer & Kosloff, J. Chem. Phys. 81 (1984) 3967), in
O(N) memory.  Its K terms come from a three-term recurrence that
updates only the sites an excitation can have reached (its light cone,
recomputed once per block of steps) instead of the whole chain.  The
chain has no on-site terms, so H only hops between the even and the odd
sites, and T_k(H/Lambda) applied to a start site lives on the start's
sublattice at even k and on the other one at odd k.  The recurrence
therefore runs in real arithmetic on two half-length buffers, one per
sublattice, and each step updates only the sublattice its new term
lives on: half the work of the whole-chain recurrence.  Guard entries
past both chain ends give the end sites the interior's step, so every
updated site takes the whole chain's operations in their order: the
same bits.  A buffer holds one entry per site and chain, so one
recurrence also serves a block of chains of one length that share the
start site, each with its own bound Lambda: the chains are the inner
index, and a window of sites is one contiguous slice for all of them.
One recurrence serves both readouts: ``states_at`` sums its weighted
terms into the state at one time, and ``grid_amplitudes`` keeps one
entry of each term, so its steps also skip the sites that can no longer
reach that entry, and then reads every time of a grid from those
moments.  ``grid_amplitudes`` serves the ``evolve`` grid and, at the
single time pi/mu, the end pair of ``teleport``
(``robustness.resource_from_profile``), which needs no other site.
``states_at`` serves the sweeps of ``perturb``, a block of trials at a
time (one recurrence per trial past 3001 sites), and ``state_at`` is
its block of one.  It multiplies each term by its chain's weight as
the term is made, into a block of rows, and adds a block's rows to the
running sum in order k with one ``np.add.reduce`` over the light
cone: a product and a sum rounded apart, in an order
that neither the blocks of steps, the other chains of the block nor the
BLAS thread count can change.  Both take the Bessel coefficients
J_k(Lambda t) from one trapezoidal rule: ``states_at`` forms them with
one FFT row per chain, and the grid never forms them, but sums them against
its moments with one folded quadrature per time (``_bessel_sums``), in
real cosines and sines at the M/4 + 1 <= K + 1 nodes of a quarter
period.  The series stops at the first order K past Lambda*|t| where
Kapteyn's closed-form bound on |J_k| (DLMF 10.14.8) is below the tail
tolerance, so sizing it takes no Bessel function.  K grows like
Lambda*|t| (about pi*N/4 at the engineered readout time, and at most 7N
there for every N >= 3).  ``states_at`` takes that path for every chain
with K < 8N, so for every readout at t0 of a chain whose couplings the
engineered ones bound, and the dense one for the others.
``grid_amplitudes`` takes it when K < N, or when K < 8N and T*K <= 2^20
for the T times of its grid: warm, a short chain's dense solve is
faster, by at most 0.3 ms at t0 and 13 ms at that bound, but importing
it costs a cold process about 0.22 s.  The rules read only N, K and T,
so the payload bits stay a function of the parameters.

scipy is imported inside the functions that call it, not here, so a
command loads only the parts of scipy its path uses: ``scipy.linalg``
for the dense eigensolve (``eigendecompose`` calls LAPACK ``dstevd``, the
routine ``eigh_tridiagonal`` picks, and skips that wrapper's checks, about
17 us per call at N = 9 on a 2-core host), and nothing else: the
Chebyshev path is numpy alone.  ``couplings`` and ``feasibility`` never
load scipy, and neither does any readout on the Chebyshev path: the
``teleport`` end pair of every engineered chain, every ``evolve`` grid
within a few readout times of a chain of up to about 400 sites, and
every ``perturb`` sweep row at t0.  Only ``search`` and the dense
branches (K >= 8N) load ``scipy.linalg``.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .chain import ResourceLimitError, TridiagonalHamiltonian, _check_mu, _check_odd

_NORM_ATOL = 1e-12

# Largest (times x eigenvalues) phase block the kernel builds at once,
# so a long grid on a long chain costs a bounded amount of extra memory.
_PHASE_BLOCK_ENTRIES = 1 << 16

# Chebyshev terms with |J_k| at or below this are dropped from the tail.
_BESSEL_TOL = 1e-17

# Chebyshev steps that share one light-cone window and one set of slice views.
_CONE_CHUNK = 64

# Longest chains that share one recurrence: past it a block of chains costs more in
# its per-chain weight products, a short strided loop in numpy, than it saves in calls
# (cold ``perturb --adjacent``: 12.0 s shared against 17.9 s one chain at a time at
# N = 2001, 44.0 s against 43.1 s at N = 3001, 98.9 s against 79.6 s at N = 4001).
_SHARED_SITES = 3001

# Largest (times x terms) a grid readout takes the recurrence for when K >= N:
# its quadrature costs about that many cosines and as many sines.
_GRID_TERM_ENTRIES = 1 << 20


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
    """Eigenvalues (ascending) and orthonormal eigenvectors.

    ``eigenvectors[:, k]`` belongs to ``eigenvalues[k]``; each column has
    its first component positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

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


def _check_site(site: int, n_sites: int) -> None:
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} outside 0..{n_sites - 1}")


def _memory_limit_bytes() -> int | None:
    """The smaller of installed RAM and the address-space limit (RLIMIT_AS) if set; None where unknown."""
    try:
        import resource  # Unix only, as the sysconf names are

        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ImportError, AttributeError, ValueError, OSError):
        return None
    return memory if soft == resource.RLIM_INFINITY else min(memory, soft)


def eigendecompose(h: TridiagonalHamiltonian) -> EigenSystem:
    """Solve the symmetric tridiagonal eigenproblem.

    ``TridiagonalHamiltonian`` has already checked that the off-diagonals
    are positive and finite, so the spectrum is simple.  LAPACK
    ``dstevd`` solves it; a nonzero ``info`` raises NumericFailure.
    Eigenvectors are sign-normalized to a positive first component in
    place, on the arrays LAPACK returned, and both arrays are returned
    read-only.
    A chain whose N^2 doubles of eigenvectors and 1 + 4N + N^2 of
    ``dstevd`` workspace exceed ``_memory_limit_bytes`` raises
    ResourceLimitError before anything is allocated.
    """
    n, off = h.dimension, np.asarray(h.off_diagonal)
    if n < 2:
        raise ValueError("eigendecompose needs dimension >= 2")
    needed, memory = 8 * (2 * n * n + 4 * n + 1), _memory_limit_bytes()
    if memory is not None and needed > memory:
        raise ResourceLimitError(
            f"dense eigenvectors of {n} sites need {needed / 2**30:.1f} GiB, "
            f"more than the {memory / 2**30:.1f} GiB memory limit"
        )
    import scipy.linalg.lapack

    eigenvalues, vectors, info = scipy.linalg.lapack.dstevd(np.zeros(n), off)
    if info != 0:
        raise NumericFailure(n)

    # First component of a Jacobi-matrix eigenvector is never zero.
    np.negative(vectors, out=vectors, where=vectors[0] < 0)
    eigenvalues.setflags(write=False)
    vectors.setflags(write=False)
    return EigenSystem(eigenvalues=eigenvalues, eigenvectors=vectors)


def evolve(eig: EigenSystem, site: int, t: float) -> SiteAmplitudeState:
    """Propagate the excitation on ``site`` (0-based): U diag(exp(-i lambda t)) U^T e_site.

    U^T e_site is row ``site`` of U, so one N x N product remains.
    """
    _check_site(site, eig.dimension)
    u = eig.eigenvectors
    return SiteAmplitudeState(u @ (np.exp(-1j * eig.eigenvalues * t) * u[site]))


def _series_length(x: float, max_terms: int) -> int | None:
    """Number of Chebyshev terms K at Bessel argument x, or None if K >= ``max_terms``.

    K is the first order k above |x| at which Kapteyn's bound (DLMF
    10.14.8) puts |J_k(x)| at or below _BESSEL_TOL: with z = |x|/k <= 1
    and s = sqrt(1 - z^2), |J_k(kz)| <= (z e^s / (1 + s))^k, tested on a
    log scale.  Past |x| the bound falls strictly with k, so K >=
    max_terms exactly when order max_terms - 1 is not past |x| or its
    bound is still above the tolerance, and otherwise K is found by
    bisection.  The bound is closed-form, so the series length needs no
    Bessel function.
    """
    log_tol = math.log(_BESSEL_TOL)

    def negligible(k: int) -> bool:
        if k <= abs(x):
            return False
        z = abs(x) / k
        s = math.sqrt((1.0 - z) * (1.0 + z))
        return z == 0.0 or k * (math.log(z) + s - math.log1p(s)) <= log_tol

    lo, hi = math.floor(abs(x)), max_terms - 1
    if not negligible(hi):
        return None
    while hi - lo > 1:  # negligible(hi) holds and negligible(lo) does not
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if negligible(mid) else (mid, hi)
    return hi


def _quadrature_size(n_terms: int) -> int:
    """Nodes M of the trapezoidal Bessel rule for K = ``n_terms`` orders: the power of two >= 2 K, and >= 4.

    The rule returns J_k + J_{k-M} + J_{k+M} + ..., and every order it
    aliases in is at least M - K >= K, so below the tail tolerance.  Four
    nodes are the fewest that hold a quarter period, which the folded
    sums of ``_bessel_sums`` need.
    """
    return max(4, 1 << (2 * n_terms - 1).bit_length())


def _bessel_rows(xs: np.ndarray, n_terms: list[int]) -> np.ndarray:
    """J_k(x) for k < K, one row per x of ``xs`` and its K of ``n_terms``, +0 from order K on.

    The trapezoidal rule for the Fourier coefficients of
    exp(i x sin theta) = sum_k J_k(x) exp(i k theta): one FFT of the M
    samples of ``_quadrature_size``, for all the rows that share M at
    once.  Each row of an FFT is transformed on its own, so a row's bits
    do not depend on the rows beside it.
    """
    rows = np.zeros((len(xs), max(n_terms)))
    sizes = [_quadrature_size(k) for k in n_terms]
    for size in set(sizes):
        pick = [b for b, m in enumerate(sizes) if m == size]
        samples = np.exp(1j * (xs[pick, np.newaxis] * np.sin(np.arange(size) * (2.0 * math.pi / size))))
        for b, spectrum in zip(pick, np.fft.fft(samples)):
            rows[b, : n_terms[b]] = spectrum[: n_terms[b]].real / size
    return rows


def _bessel_sums(weights: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sum_k c_k J_k(x) for each x of ``xs``, with c_k = w_k (-i)^(k mod 2) for the real ``weights`` w_k.

    The trapezoidal rule of ``_bessel_rows``, summed over k before the
    nodes theta_m = 2 pi m / M instead of after:
    J_k(x) = (1/M) sum_m [cos(x sin theta_m) cos k theta_m + sin(x sin theta_m) sin k theta_m].
    One real FFT of the zero-padded weights gives sum_k w_k exp(-i k theta_m),
    which does not depend on x.  cos(x sin theta) and sin(x sin theta)
    are both even about pi/2, and about pi the cosine is even and the
    sine odd, so the M nodes fold onto the M/4 + 1 nodes of [0, pi/2]:
    the even orders keep their cosine sums, which give the real part, and
    the odd orders their sine sums, which give the imaginary part.  Each
    x then costs M/4 + 1 cosines, as many sines and two dot products,
    and a block of times holds at most ``_PHASE_BLOCK_ENTRIES`` phases.
    ``einsum`` sums each row in the same order whatever the block, so the
    bits of a time do not depend on the grid around it.
    """
    size = _quadrature_size(len(weights))
    quarter = size // 4
    spectrum = np.fft.rfft(weights, size)  # nodes 0 .. M/2
    folded = np.stack([spectrum.real, spectrum.imag])
    folded = folded[:, : quarter + 1] + folded[:, 2 * quarter : quarter - 1 : -1]  # nodes m and M/2 - m
    folded[:, [0, quarter]] *= 0.5  # nodes 0 and M/4 are their own mirror images
    even, odd = folded * (2.0 / size)  # 2/M: rfft leaves out the conjugate nodes M - m
    nodes = np.sin(np.arange(quarter + 1) * (2.0 * math.pi / size))
    block = _PHASE_BLOCK_ENTRIES // (quarter + 1) or 1
    sums = np.empty(len(xs), dtype=complex)
    for start in range(0, len(xs), block):
        phases = np.multiply.outer(xs[start : start + block], nodes)
        sums.real[start : start + block] = np.einsum("ij,j->i", np.cos(phases), even)
        sums.imag[start : start + block] = np.einsum("ij,j->i", np.sin(phases), odd)
    return sums


def _chebyshev_plan(
    h: TridiagonalHamiltonian, times, max_terms: int
) -> tuple[float, int] | None:
    """Gershgorin bound Lambda of h and the term count K at max |Lambda t| over ``times``.

    None when K >= ``max_terms``.  One K serves every time of a grid:
    below its order, |J_k(x)| grows with |x|.
    """
    off = h.off_diagonal
    bound = max(map(operator.add, (0.0, *off), (*off, 0.0)))
    t_max = float(np.abs(times).max(initial=0.0))
    if not math.isfinite(bound * t_max):
        raise ValueError(f"evolution time {t_max!r} times spectral bound {bound!r} is not finite")
    n_terms = _series_length(bound * t_max, max_terms)
    return None if n_terms is None else (bound, n_terms)


def _doubled_bonds(off: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """2 D_j / Lambda for each chain of ``off`` as a column.

    Row j is the bond of sites j-1 and j, with -0.0 guard rows at j = 0 and j = N.
    """
    bonds = np.full((off.shape[1] + 2, len(off)), -0.0)
    bonds[1:-1] = (2.0 * off / bounds[:, np.newaxis]).T
    return bonds


def _chebyshev_blocks(bonds: np.ndarray, site: int, n_terms: int, row=None):
    """The recurrence for T_k(H/bound) e_site, k < n_terms: (terms, blocks), with T_0 and T_1 in ``terms``.

    ``bonds`` holds one column per chain (``_doubled_bonds``).  H only
    hops between the even sites 0, 2, ... and the odd sites 1, 3, ...,
    so T_k e_site lives on sublattice s = (site + k) mod 2, and the
    recurrence T_{k+1} = 2 (H/bound) T_k - T_{k-1} runs in real
    arithmetic on two buffers, one per sublattice; ``terms[s]`` is the
    view of buffer s without its guard sites, T_k on s until step k+1
    writes T_{k+2} over it.  A buffer is flat: entry (i + 1) B + b is
    site 2i+s of chain b of the B chains, so the sites of a window are
    one contiguous slice for every chain.  T_0 is e_site and T_1 the two
    neighbour entries of ``site``.  Step k makes T_{k+1} on s = (site +
    k + 1) mod 2 by one rule for every site j: prev[j] = bonds[j+1]
    cur[j+1] - prev[j], then prev[j] += bonds[j] cur[j-1], four ufunc
    calls on the views (right, cur_right, left, cur_left, prev, tmp).
    The doubled bonds have a -0.0 guard past each chain end and each
    buffer a +0 guard site, never written, at each end, so a guard
    product is -0, and -0 - x = -x and x + (-0) = x for every x, signed
    zeros too: site N-1 gets the whole chain's -prev and site 0 its
    skipped add, where +0 guard bonds would flip zeros.  T_k is 0
    outside the light cone [site - k, site + k], so ``blocks`` yields
    (first, last, windows, views) for blocks of ``_CONE_CHUNK`` steps
    first .. last-1: ``views[s]`` are the step views of sublattice s,
    built once per block over the entries [a, b) = ``windows[s]`` of the
    cone of the block's last step, the only entries its steps change.
    With ``row`` given only entry ``row`` stays exact: a block also
    leaves out the sites that cannot reach ``row`` in the steps left
    after its first.
    """
    n, chains = bonds.shape[0] - 1, bonds.shape[1]
    _check_site(site, n)
    halves = (bonds[0::2].ravel(), bonds[1::2].ravel())
    scratch = np.empty((n + 1) // 2 * chains)
    c = site & 1
    buffers = [np.zeros(((n + 1) // 2 + 2) * chains), np.zeros((n // 2 + 2) * chains)]
    terms = [buffer[chains:-chains] for buffer in buffers]
    terms[c][site // 2 * chains :][:chains] = 1.0
    if site > 0:
        terms[1 - c][(site - 1) // 2 * chains :][:chains] = 0.5 * bonds[site]
    if site < n - 1:
        terms[1 - c][(site + 1) // 2 * chains :][:chains] = 0.5 * bonds[site + 1]

    def blocks():
        for first in range(1, n_terms - 1, _CONE_CHUNK):
            last = min(first + _CONE_CHUNK, n_terms - 1)
            lo, hi = max(site - last, 0), min(site + last + 1, n)
            if row is not None:
                reach = n_terms - 2 - first
                lo, hi = max(lo, row - reach), min(hi, row + reach + 1)
            # sites 2i+s in [lo, hi) for i in [a, b); their neighbours 2i+s+1, 2i+s-1 are entries i+s+1, i+s
            windows = [((lo - s + 1) // 2 * chains, (hi - s + 1) // 2 * chains) for s in (0, 1)]
            views = [
                (halves[1 - s][a + s * chains : b + s * chains],
                 buffers[1 - s][a + (s + 1) * chains : b + (s + 1) * chains],
                 halves[s][a:b], buffers[1 - s][a + s * chains : b + s * chains], buffers[s][a + chains : b + chains],
                 scratch[a:b])
                for s, (a, b) in enumerate(windows)
            ]
            yield first, last, windows, views

    return terms, blocks()


def _chebyshev_terms(bonds: np.ndarray, site: int, n_terms: int, row=None):
    """Yield (k, s, term): T_k(H/bound) e_site on sublattice s (``_chebyshev_blocks``), for k = 0 .. n_terms-1.

    A term is overwritten two steps later.
    """
    c = site & 1
    terms, blocks = _chebyshev_blocks(bonds, site, n_terms, row)
    yield from ((0, c, terms[c]), (1, 1 - c, terms[1 - c]))[:n_terms]
    for first, last, _, views in blocks:
        for k in range(first, last):
            s = (c + k + 1) & 1
            right, cur_right, left, cur_left, prev, tmp = views[s]
            np.multiply(right, cur_right, tmp)
            np.subtract(tmp, prev, prev)
            np.multiply(left, cur_left, tmp)
            np.add(prev, tmp, prev)
            yield k + 1, s, terms[s]


def _chebyshev_weights(bessel: np.ndarray) -> np.ndarray:
    """Real weights w_k with c_k J_k = w_k (-i)^(k mod 2), where c_0 = 1, c_k = 2 (-i)^k, along the last axis.

    (-i)^k is (-1)^(k//2) for even k and -i (-1)^(k//2) for odd k.
    """
    orders = np.arange(bessel.shape[-1])
    return np.where(orders == 0, 1.0, 2.0) * (-1.0) ** (orders // 2) * bessel


def _chebyshev_states(off: np.ndarray, site: int, t: float, bounds: np.ndarray, n_terms: list[int]) -> np.ndarray:
    """sum_k c_k J_k(Lambda t) T_k(H/Lambda) e_site for each chain of ``off``, one row per chain.

    Every chain runs to the block's largest K in one recurrence
    (``_chebyshev_blocks``), with its own bound Lambda and Bessel row and
    weight 0 from its own K on.  The even-k terms live on the site's
    sublattice and the odd-k terms on the other, so each sublattice
    holds one sum.  Each step multiplies its term, over the entries of
    its block's window, by the weights w_k into the next row of that
    sublattice's products, and at the end of the block the products are
    added to the sum in order k with one sequential ``np.add.reduce`` of
    the sum and the products.  So the sum is (((0 + w_0 T_0) + w_2 T_2)
    + ...) per entry, a product and an add rounded apart, whatever the
    blocks, the windows and the chains around it.  The reduction takes one site past the
    window, where every product is a zero, so it always runs across
    entries and never along k, where numpy would sum pairwise.  The odd
    sum is multiplied by -i once at the end.
    """
    chains, n = off.shape[0], off.shape[1] + 1
    table = _chebyshev_weights(_bessel_rows(bounds * t, n_terms)).T  # [k][chain]
    # one chain's weights as 0-d arrays over flat terms: numpy multiplies by a (1,) weight
    # in a broadcast loop, which made a readout at N = 4001 about 12 % slower; np.nditer
    # makes the K 0-d views in a third of the time that indexing each row takes
    shape, weights = ((-1,), list(np.nditer(table[:, 0], order="C"))) if chains == 1 else ((-1, chains), list(table))
    sums = np.zeros((2, ((n + 1) // 2 + 1) * chains))  # a sublattice and one site past it
    c = site & 1
    terms, blocks = _chebyshev_blocks(_doubled_bonds(off, bounds), site, max(n_terms))
    for k, s in ((0, c), (1, 1 - c))[: max(n_terms)]:
        sums[s, : terms[s].size] += (terms[s].reshape(shape) * weights[k]).ravel()
    store = np.empty((2, (min(_CONE_CHUNK, max(n_terms)) + 1) // 2 + 1, sums.shape[1]))  # a sum and a block's products
    for first, last, windows, views in blocks:
        lead = (c + first + 1) & 1  # the sublattice of step first; the steps alternate
        counts = [(last - first + (s == lead)) // 2 for s in (0, 1)]
        rows = [store[s, : counts[s] + 1, : b - a + chains] for s, (a, b) in enumerate(windows)]
        targets = [None] * (last - first)  # step k's product row
        for s, (a, b) in enumerate(windows):
            if counts[s]:
                rows[s][1:, b - a :] = 0.0  # the products one site past the window
                targets[s != lead :: 2] = rows[s][1:, : b - a].reshape(counts[s], *shape)
        steps = zip(
            itertools.cycle([(*views[s], views[s][4].reshape(shape)) for s in (lead, 1 - lead)]),
            weights[first + 1 : last + 1],
            targets,
        )
        for (right, cur_right, left, cur_left, prev, tmp, term), w, product in steps:
            np.multiply(right, cur_right, tmp)
            np.subtract(tmp, prev, prev)
            np.multiply(left, cur_left, tmp)
            np.add(prev, tmp, prev)
            np.multiply(term, w, product)
        for s, (a, b) in enumerate(windows):
            if counts[s]:
                rows[s][0] = sums[s, a : b + chains]
                np.add.reduce(rows[s], axis=0, out=sums[s, a : b + chains])
    sums = sums.reshape(2, -1, chains)
    even, odd = np.zeros((2, chains, n))
    even[:, c::2] = sums[c, : (n + 1 - c) // 2].T
    odd[:, 1 - c :: 2] = sums[1 - c, : (n + c) // 2].T
    return even - 1j * odd


def states_at(hamiltonians, site: int, t: float) -> np.ndarray:
    """exp(-iHt) applied to the excitation on ``site`` (0-based), one row of amplitudes per H of ``hamiltonians``.

    The chains share one length.  Those whose Chebyshev series needs
    fewer terms K than 8N share one recurrence (``_chebyshev_states``: O(N)
    memory per chain, K light-cone steps), or run one each on chains
    longer than ``_SHARED_SITES``; the others take ``eigendecompose`` +
    ``evolve``.  A row's path and bits depend only on its own chain.  Each
    row must be normalized.
    """
    off = np.array([h.off_diagonal for h in hamiltonians], dtype=float)
    n = off.shape[1] + 1
    _check_site(site, n)
    plans = [_chebyshev_plan(h, [t], 8 * n) for h in hamiltonians]
    series = [b for b, plan in enumerate(plans) if plan is not None]
    amplitudes = np.empty((len(plans), n), dtype=complex)
    for block in [series] if n <= _SHARED_SITES else [[b] for b in series]:
        if block:
            bounds, n_terms = zip(*(plans[b] for b in block))
            amplitudes[block] = _chebyshev_states(off[block], site, t, np.array(bounds), list(n_terms))
    for h, plan, amps in zip(hamiltonians, plans, amplitudes):
        if plan is None:
            amps[:] = evolve(eigendecompose(h), site, t).amplitudes
    for norm_sq in np.sum(np.abs(amplitudes) ** 2, axis=1).tolist():
        _check_normalized(norm_sq, "state")
    return amplitudes


def state_at(h: TridiagonalHamiltonian, site: int, t: float) -> SiteAmplitudeState:
    """exp(-iHt) applied to the excitation on ``site`` (0-based): ``states_at`` of one chain.

    The Chebyshev series when it needs fewer than 8N terms, as at the
    readout time pi/mu of every chain whose couplings the engineered ones
    bound, else ``eigendecompose`` + ``evolve``.
    """
    return SiteAmplitudeState(states_at([h], site, t)[0])


def grid_amplitudes(h: TridiagonalHamiltonian, row: int, column: int, times) -> np.ndarray:
    """<row| exp(-iHt) |column> over the grid ``times`` (0-based sites).

    When the Chebyshev series needs K terms (taken at the largest |t|)
    with K < N, or with K < 8N and T*K <= 2^20 over the T times of the
    grid, one recurrence from e_column keeps the moments
    m_k = [T_k(H/Lambda) e_column]_row, and every time is the
    sum_k c_k J_k(Lambda t) m_k.  That costs K steps over the sites inside
    both light cones and O(N) memory, and then one folded Bessel
    quadrature (``_bessel_sums``): M/4 + 1 <= K + 1 real cosines and as
    many sines per time.  Otherwise ``eigendecompose`` + ``transition_amplitudes``.
    A row or column outside the chain is a ValueError on both paths.
    """
    n = h.dimension
    _check_site(row, n)
    _check_site(column, n)
    times = np.asarray(times, dtype=float)
    # K < max_terms: K < N, or K < 8N with T*K <= _GRID_TERM_ENTRIES
    max_terms = max(n, min(8 * n, _GRID_TERM_ENTRIES // max(times.size, 1) + 1))
    plan = _chebyshev_plan(h, times, max_terms)
    if plan is None:
        (amps,) = transition_amplitudes(eigendecompose(h), [row], column, times)
        return amps
    bound, n_terms = plan
    bonds = _doubled_bonds(np.array([h.off_diagonal]), np.array([bound]))
    moments = np.zeros(n_terms)  # the moments of k on the column's other sublattice stay +0
    for k, s, term in _chebyshev_terms(bonds, column, n_terms, row):
        if s == row % 2:
            moments[k] = term[row // 2]
    return _bessel_sums(_chebyshev_weights(moments), bound * times)


def _spectral_sums(eigenvalues: np.ndarray, weights, times: np.ndarray) -> list[np.ndarray]:
    """sum_k exp(-i lambda_k t) w_k at each t of the 1-D float array ``times``, one array per weight row w.

    The one place the dense path forms the phases exp(-i lambda t): one
    (times x eigenvalues) block, then one matrix-vector product per row.
    The rows come complex, cast once by the caller: the product would
    otherwise cast a real row on every call, to the same bits.
    """
    phases = np.exp(-1j * (times[:, np.newaxis] * eigenvalues))
    return [phases @ w for w in weights]


def transition_amplitudes(
    eig: EigenSystem, rows, column: int, times
) -> list[np.ndarray]:
    """<i| exp(-iHt) |column> over the grid ``times``, one array per row i.

    Sites are 0-based and must lie on the chain.  The sum over eigenstates
    is ``_spectral_sums`` with the complex weights u_i * u_column; grids longer
    than one phase block are evaluated block by block.
    """
    n = eig.dimension
    for site in (*rows, column):
        _check_site(site, n)
    times = np.asarray(times, dtype=float).ravel()
    u = eig.eigenvectors
    weights = [(u[i] * u[column]).astype(complex) for i in rows]
    block = _PHASE_BLOCK_ENTRIES // n or 1
    if len(times) <= block:
        return _spectral_sums(eig.eigenvalues, weights, times)
    pieces = [
        _spectral_sums(eig.eigenvalues, weights, times[start : start + block])
        for start in range(0, len(times), block)
    ]
    return [np.concatenate(row) for row in zip(*pieces)]


def center_to_end_amplitude(eig: EigenSystem, t: float) -> complex:
    """<1| exp(-iHt) |center> for an odd chain."""
    _check_odd(eig.dimension)
    return complex(transition_amplitudes(eig, [0], (eig.dimension - 1) // 2, [t])[0][0])


def analytic_center_to_end(n_sites: int, mu: float, t: float) -> complex:
    """Closed-form center-to-end amplitude of the engineered N-site chain.

    (-i sin(mu t/2))^m with m = (N-1)/2 is sin^m as a real power times
    (-i)^m from m mod 4, so the phase is exact: a complex power goes
    through the polar form and is off by about m ulp.
    """
    _check_odd(n_sites)
    m = (n_sites - 1) // 2
    return (1 + 0j, -1j, -1 + 0j, 1j)[m % 4] * (math.sin(0.5 * mu * t) ** m / math.sqrt(2.0))


def bell_time(mu: float) -> float:
    """Time pi/mu at which the end pair is maximally entangled; N-independent."""
    _check_mu(mu)
    t0 = math.pi / mu
    if not math.isfinite(t0):
        raise ValueError(f"readout time pi/mu is not finite for mu = {mu!r}")
    return t0


def bell_decomposition(state: SiteAmplitudeState) -> BellDecomposition:
    """Split a state into end-site amplitudes plus orthogonal remainder (``end_pair_readout``)."""
    first, last, concurrence, residual = end_pair_readout(state.amplitudes[np.newaxis])
    return BellDecomposition(float(concurrence[0]), complex(first[0]), complex(last[0]), float(residual[0]))


def end_pair_readout(amplitudes: np.ndarray):
    """End amplitudes, concurrence 2 |a_1| |a_N| and residual_norm of each row of ``amplitudes``.

    ``np.hypot`` rounds like abs() of one complex number (``np.abs`` over
    a complex array does not).  residual_norm sums the interior directly:
    1 - |a_1|^2 - |a_N|^2 would swamp a residual near zero with rounding.
    """
    first, last = amplitudes[:, 0], amplitudes[:, -1]
    concurrence = 2.0 * np.hypot(first.real, first.imag) * np.hypot(last.real, last.imag)
    residual = np.sqrt(np.sum(np.abs(amplitudes[:, 1:-1]) ** 2, axis=1))
    return first, last, concurrence, residual
