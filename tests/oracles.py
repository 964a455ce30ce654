"""Independent reference implementations used only by the tests.

Everything here is built from first principles with numpy/scipy and no
imports from the package under test, so agreement is evidence rather
than tautology: Wootters concurrence from the spin-flipped density
matrix, the dense one-excitation block (``dense_tridiagonal``), a
site's basis amplitudes (``basis_amplitudes``), evolution through a
dense matrix exponential, the Chebyshev recurrence from one site over
the whole chain in real arithmetic, the series length that ``jv``
itself gives and Kapteyn's bound on |J_k|, the chain Hamiltonian on the full
2^N register, the mirror parity of each eigenvector
(``parity_labels``), the closed form of the folded chain's transfer
amplitude, and a monolithic matrix-product teleportation pipeline.

The sweep references are the one exception: ``sweep_row``,
``noise_sweep`` and ``adjacent_swap_sweep`` build a ``CouplingProfile``
per trial, draw its noise one coupling at a time, and score it through
the package's ``state_at`` (or, with ``dense``, its eigensolve and
``evolve``) and ``teleport`` and a scalar end-pair readout.  They check
how the sweeps draw, batch and assemble their rows, not those kernels.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.special

_SY = np.array([[0.0, -1j], [1j, 0.0]])
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

# Largest register the dense full-Hilbert oracle will build.
MAX_ORACLE_SITES = 12


def full_hilbert_hamiltonian(profile) -> np.ndarray:
    """Dense 2^N x 2^N form of the chain Hamiltonian of a coupling profile.

    Built as sum_j D_j (raise_j lower_{j+1} + lower_j raise_{j+1}), which
    reproduces the one-excitation off-diagonals D_j exactly.  Site j
    (1-based) occupies bit N-j of the basis index, so site 1 is the most
    significant bit and the one-excitation basis state |j> has index
    2^(N-j).  Reads only ``profile.n_sites`` and ``profile.couplings``.
    """
    n = profile.n_sites
    if n > MAX_ORACLE_SITES:
        raise ValueError(f"dense oracle capped at {MAX_ORACLE_SITES} sites, got {n}")
    dim = 1 << n
    h = np.zeros((dim, dim))
    for j, d in enumerate(profile.couplings):
        hi = n - 1 - j
        lo = n - 2 - j
        mask = (1 << hi) | (1 << lo)
        for s in range(dim):
            # hop |..10..> -> |..01..> on the (j+1, j+2) bond
            if (s >> hi) & 1 and not (s >> lo) & 1:
                s2 = s ^ mask
                h[s2, s] += d
                h[s, s2] += d
    return h


def dense_tridiagonal(off_diagonal) -> np.ndarray:
    """Dense symmetric matrix with zero diagonal and ``off_diagonal`` beside it."""
    n = len(off_diagonal) + 1
    h = np.zeros((n, n))
    for i, d in enumerate(off_diagonal):
        h[i, i + 1] = h[i + 1, i] = d
    return h


def excitation_number_operator(n_sites: int) -> np.ndarray:
    """Diagonal operator counting excited sites, in the oracle basis."""
    counts = [bin(s).count("1") for s in range(1 << n_sites)]
    return np.diag(np.asarray(counts, dtype=float))


def one_excitation_indices(n_sites: int) -> list[int]:
    """Oracle-basis indices of |1> ... |N>, in site order."""
    return [1 << (n_sites - j) for j in range(1, n_sites + 1)]


def analytic_halved_transfer(m_sites: int, mu: float, t: float) -> complex:
    """Closed-form end-to-end amplitude of the M-site folded chain.

    (-i sin(mu t/2))^(M-1) is (-i)^((M-1) mod 4) times sin^(M-1) as a
    real power, so the phase is exact.  Has modulus 1 at mu*t = pi:
    perfect state transfer.
    """
    if m_sites < 2:
        raise ValueError(f"m_sites must be >= 2, got {m_sites}")
    return (1 + 0j, -1j, -1 + 0j, 1j)[(m_sites - 1) % 4] * math.sin(0.5 * mu * t) ** (m_sites - 1)


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


def basis_amplitudes(n_sites: int, site: int) -> np.ndarray:
    """Complex amplitudes of the excitation on ``site`` (0-based): e_site."""
    amplitudes = np.zeros(n_sites, dtype=complex)
    amplitudes[site] = 1.0
    return amplitudes


def chebyshev_terms(off_diagonal, site: int, bound: float, n_terms: int):
    """Yield T_k(H/bound) e_site for k = 0 .. n_terms-1.

    H is the zero-diagonal tridiagonal matrix with ``off_diagonal`` as
    its couplings.  Runs T_{k+1} = 2 (H/bound) T_k - T_{k-1} in real
    arithmetic on every site at every step.  The yielded array is a
    work buffer that the next step overwrites.
    """
    double = 2.0 * np.asarray(off_diagonal) / bound
    prev = np.zeros(len(double) + 1)
    prev[site] = 1.0
    cur = np.zeros_like(prev)
    scratch = np.empty(len(double))

    # cur = T_1 e_site = (H/bound) e_site
    np.multiply(0.5 * double, prev[1:], out=cur[:-1])
    np.multiply(0.5 * double, prev[:-1], out=scratch)
    cur[1:] += scratch
    yield prev
    for k in range(1, n_terms):
        yield cur
        if k + 1 < n_terms:
            # prev <- 2 (H/bound) cur - prev = T_{k+1} e_site, then swap names
            np.multiply(double, cur[1:], out=scratch)
            np.subtract(scratch, prev[:-1], out=prev[:-1])
            prev[-1] *= -1.0
            np.multiply(double, cur[:-1], out=scratch)
            prev[1:] += scratch
            prev, cur = cur, prev


def chebyshev_state(off_diagonal, site: int, bound: float, weights) -> np.ndarray:
    """sum_k w_k (-i)^(k mod 2) T_k(H/bound) e_site from the whole-chain recurrence.

    Each term times its real weight is added, in order k, to an even-k or
    an odd-k sum over every site: a product and a sum, each rounded.  The
    odd sum is multiplied by -i at the end.
    """
    sums = np.zeros((2, len(off_diagonal) + 1))  # even-k and odd-k terms
    for k, term in enumerate(chebyshev_terms(off_diagonal, site, bound, len(weights))):
        sums[k & 1] += weights[k] * term
    return sums[0] - 1j * sums[1]


def chebyshev_moments(off_diagonal, row: int, column: int, bound: float, n_terms: int) -> np.ndarray:
    """m_k = [T_k(H/bound) e_column]_row for k < n_terms, from the whole-chain recurrence."""
    return np.array([term[row] for term in chebyshev_terms(off_diagonal, column, bound, n_terms)])


def jv_series_length(x: float, max_terms: int, tol: float) -> int | None:
    """First order k above |x| with |J_k(x)| <= ``tol`` by ``scipy.special.jv``, or None if it is >= ``max_terms``.

    Past |x| the Bessel values decay monotonically, so the order is found
    by bisection on single values.
    """

    def negligible(k: int) -> bool:
        return k > abs(x) and abs(scipy.special.jv(k, x)) <= tol

    lo, hi = math.floor(abs(x)), max_terms - 1
    if not negligible(hi):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if negligible(mid) else (mid, hi)
    return hi


def kapteyn_bound(k: int, x: float) -> float:
    """An upper bound on |J_k(x)| for an order k >= 0.

    Past |x| it is Kapteyn's (z e^s / (1 + s))^k with z = |x|/k and
    s = sqrt(1 - z^2) (DLMF 10.14.8), taken as a power; up to |x| it is
    |J_k| <= 1.
    """
    if k <= abs(x):
        return 1.0
    z = abs(x) / k
    s = math.sqrt(1.0 - z * z)
    return (z * math.exp(s) / (1.0 + s)) ** k


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


def noise_couplings(couplings, sigma: float, seed: int) -> list[float]:
    """Each coupling times 1 + eps, eps ~ Gaussian(0, sigma), drawn one at a
    time from ``default_rng(seed)`` and redrawn while 1 + eps <= 0."""
    rng = np.random.default_rng(seed)
    out = list(couplings)
    for k in range(len(out)):
        eps = rng.normal(0.0, sigma)
        while 1.0 + eps <= 0.0:
            eps = rng.normal(0.0, sigma)
        out[k] *= 1.0 + eps
    return out


def end_pair_resource(first: complex, last: complex) -> tuple[complex, complex]:
    """(alpha01, alpha10) = (last, first) / sqrt(|first|^2 + |last|^2), one pair in scalar arithmetic."""
    scale = 1.0 / math.sqrt(abs(first) ** 2 + abs(last) ** 2)
    return last * scale, first * scale


def sweep_row(n_sites: int, mu: float, couplings, trial: int, param: float, dense: bool = False) -> tuple:
    """(trial, param, concurrence, residual_norm, expected_fidelity) of one profile at pi/mu.

    The state comes from the package's ``state_at``, or with ``dense`` from
    ``evolve(eigendecompose(h))``, the path the sweeps took before they ran
    short chains on the recurrence.
    """
    from bellchain.chain import CouplingProfile, one_excitation_hamiltonian
    from bellchain.dynamics import eigendecompose, evolve, state_at
    from bellchain.teleport import EntangledResource, expected_fidelity, teleport

    profile = CouplingProfile(mu, tuple(couplings))
    h, site, t = one_excitation_hamiltonian(profile), n_sites // 2, math.pi / mu
    amps = (evolve(eigendecompose(h), site, t) if dense else state_at(h, site, t)).amplitudes
    concurrence = 2.0 * abs(amps[0]) * abs(amps[-1])
    residual = float(np.sqrt(np.sum(np.abs(amps[1:-1]) ** 2)))
    alpha01, alpha10 = end_pair_resource(complex(amps[0]), complex(amps[-1]))
    resource = EntangledResource(alpha01=alpha01, alpha10=alpha10)
    s = 1.0 / math.sqrt(2.0)
    return trial, param, concurrence, residual, expected_fidelity(teleport(s, s, resource))


def noise_sweep(profile, sigma: float, trials: int, seed: int, dense: bool = False) -> list[tuple]:
    """One ``sweep_row`` per trial; trial k draws with word k of the master seed's stream."""
    seeds = np.random.SeedSequence(seed).generate_state(trials)
    return [
        sweep_row(
            profile.n_sites, profile.mu,
            noise_couplings(profile.couplings, sigma, int(seeds[k])), k, sigma, dense,
        )
        for k in range(trials)
    ]


def adjacent_swap_sweep(profile, dense: bool = False) -> list[tuple]:
    """The unperturbed row, then one ``sweep_row`` per swap of couplings i and i+1."""
    rows = [sweep_row(profile.n_sites, profile.mu, profile.couplings, 0, 0.0, dense)]
    for i in range(1, len(profile.couplings)):
        couplings = list(profile.couplings)
        couplings[i - 1], couplings[i] = couplings[i], couplings[i - 1]
        rows.append(sweep_row(profile.n_sites, profile.mu, couplings, i, float(i), dense))
    return rows
