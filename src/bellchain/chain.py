"""Coupling profiles and Hamiltonians for the engineered XX chain.

An odd-length chain of N spin-1/2 sites with nearest-neighbor XX coupling
conserves the total excitation number, so its one-excitation block is the
real symmetric tridiagonal matrix with zero diagonal and off-diagonal
entries D_1 ... D_{N-1}.

The engineered profile is mirror symmetric about the chain center,
palindromic over the interior of each half, and ties the two central
"bridge" couplings to the end coupling by D_{(N-1)/2} = D_1 / sqrt(2).
With that structure the symmetric-parity sector of the N-site chain maps
onto an (N+1)/2-site chain that performs perfect end-to-end state
transfer, which is what produces the Bell pair between sites 1 and N.

Index conventions: couplings are stored 0-indexed (``couplings[0]`` is the
bond between sites 1 and 2); user-facing indices in validation reports and
swap operations are 1-based to match the usual D_1 ... D_{N-1} labeling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative tolerance for the exact coupling symmetries of engineered profiles.
SYMMETRY_RTOL = 1e-12

# Largest register the dense full-Hilbert oracle will build.
MAX_ORACLE_SITES = 12


class ResourceLimitError(RuntimeError):
    """Raised when a dense oracle construction would exceed its size cap."""


def _check_mu(mu: float) -> None:
    if not 0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")


@dataclass(frozen=True)
class CouplingProfile:
    """Ordered nearest-neighbor couplings of an odd N-site chain.

    Attributes
    ----------
    n_sites:
        Number of chain sites N, odd and >= 3.
    mu:
        Positive, finite frequency scale; the Bell time of the engineered
        design is pi/mu.
    couplings:
        The N-1 bond strengths D_1 ... D_{N-1}, all positive and finite,
        stored 0-indexed.
    """

    n_sites: int
    mu: float
    couplings: tuple[float, ...]

    def __post_init__(self) -> None:
        n = self.n_sites
        if n < 3 or n % 2 == 0:
            raise ValueError(f"n_sites must be odd and >= 3, got {n}")
        _check_mu(self.mu)
        couplings = tuple(float(d) for d in self.couplings)
        if len(couplings) != n - 1:
            raise ValueError(
                f"expected {n - 1} couplings for {n} sites, got {len(couplings)}"
            )
        for i, d in enumerate(couplings, start=1):
            if not 0 < d < math.inf:
                raise ValueError(f"coupling D_{i} must be positive and finite, got {d}")
        object.__setattr__(self, "couplings", couplings)

    def coupling(self, i: int) -> float:
        """Return D_i with 1-based index i."""
        if not 1 <= i <= self.n_sites - 1:
            raise ValueError(f"coupling index {i} outside 1..{self.n_sites - 1}")
        return self.couplings[i - 1]


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """Real symmetric tridiagonal matrix with identically zero diagonal."""

    dimension: int
    off_diagonal: tuple[float, ...]

    def __post_init__(self) -> None:
        off = tuple(float(d) for d in self.off_diagonal)
        if len(off) != self.dimension - 1:
            raise ValueError(
                f"dimension {self.dimension} needs {self.dimension - 1} "
                f"off-diagonal entries, got {len(off)}"
            )
        object.__setattr__(self, "off_diagonal", off)

    def to_dense(self) -> np.ndarray:
        off = np.asarray(self.off_diagonal)
        h = np.zeros((self.dimension, self.dimension))
        idx = np.arange(self.dimension - 1)
        h[idx, idx + 1] = off
        h[idx + 1, idx] = off
        return h


@dataclass(frozen=True)
class ProfileViolation:
    """One violated coupling constraint: which rule, which bonds, how far off."""

    constraint: str  # "mirror" | "half_palindrome" | "bridge"
    indices: tuple[int, ...]  # 1-based bond indices involved
    residual: float  # absolute discrepancy

    def __str__(self) -> str:
        where = ", ".join(f"D_{i}" for i in self.indices)
        return f"{self.constraint} violated at {where} (residual {self.residual:.3e})"


def engineered_couplings(n_sites: int, mu: float = 1.0) -> CouplingProfile:
    """Build the engineered profile that creates the end-to-end Bell pair.

    The first half of the chain carries D_k = (mu/2) sqrt(k (M - k)) for
    k = 1 .. (N-3)/2 with M = (N+1)/2, followed by the bridge value
    D_{(N-1)/2} = mu sqrt((N-1)/2) / (2 sqrt(2)); the second half mirrors
    the first.  For N = 3 the bridge is the only independent coupling.
    """
    if n_sites < 3 or n_sites % 2 == 0:
        raise ValueError(f"n_sites must be odd and >= 3, got {n_sites}")
    _check_mu(mu)
    m = (n_sites + 1) // 2
    half = [0.5 * mu * math.sqrt(k * (m - k)) for k in range(1, (n_sites - 3) // 2 + 1)]
    half.append(mu / (2.0 * math.sqrt(2.0)) * math.sqrt((n_sites - 1) / 2.0))
    return CouplingProfile(n_sites, mu, tuple(half + half[::-1]))


def engineered_max_coupling(n_sites: int, mu: float = 1.0) -> float:
    """Largest bond strength of the engineered profile, in closed form.

    The interior values k(M-k) peak at k = floor(M/2); for N = 3 the only
    bond is the bridge.  Grows like mu*N/8 for long chains.
    """
    if n_sites < 3 or n_sites % 2 == 0:
        raise ValueError(f"n_sites must be odd and >= 3, got {n_sites}")
    if n_sites == 3:
        return mu / (2.0 * math.sqrt(2.0))
    m = (n_sites + 1) // 2
    k = m // 2
    return 0.5 * mu * math.sqrt(k * (m - k))


def _relative_residual(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def validate_profile(profile: CouplingProfile) -> list[ProfileViolation]:
    """Check the engineered-profile symmetries; empty list means all hold.

    Three rules are checked within SYMMETRY_RTOL (relative): mirror
    symmetry D_{N-i} = D_i, the palindrome D_{(N-1)/2-k+1} = D_k over the
    interior of the first half, and the bridge ratio D_{(N-1)/2} =
    D_1/sqrt(2).  The bridge rule is skipped for N = 3, where the bridge
    and D_1 are the same bond.  Reported residuals are absolute.
    """
    n = profile.n_sites
    d = profile.coupling
    violations = []
    for i in range(1, (n - 1) // 2 + 1):
        if _relative_residual(d(n - i), d(i)) > SYMMETRY_RTOL:
            violations.append(
                ProfileViolation("mirror", (n - i, i), abs(d(n - i) - d(i)))
            )
    for k in range(2, (n - 1) // 4 + 1):
        j = (n - 1) // 2 - k + 1
        if _relative_residual(d(j), d(k)) > SYMMETRY_RTOL:
            violations.append(
                ProfileViolation("half_palindrome", (j, k), abs(d(j) - d(k)))
            )
    if n >= 5:
        bridge = (n - 1) // 2
        target = d(1) / math.sqrt(2.0)
        if _relative_residual(d(bridge), target) > SYMMETRY_RTOL:
            violations.append(
                ProfileViolation("bridge", (bridge, 1), abs(d(bridge) - target))
            )
    return violations


def one_excitation_hamiltonian(profile: CouplingProfile) -> TridiagonalHamiltonian:
    """One-excitation block of the chain Hamiltonian: off-diagonals D_j."""
    return TridiagonalHamiltonian(profile.n_sites, profile.couplings)


def halved_hamiltonian(profile: CouplingProfile) -> TridiagonalHamiltonian:
    """Fold a mirror-symmetric chain about its center.

    The symmetric-parity sector of the N-site chain is unitarily
    equivalent to an M = (N+1)/2 site chain whose bonds are
    D_1 ... D_{M-2} followed by sqrt(2) * D_{M-1}; the sqrt(2) comes from
    rescaling the center component of the folded eigenvectors.  When the
    bridge rule holds the last bond equals D_1.

    Raises ValueError if the profile is not engineered-symmetric.
    """
    violations = validate_profile(profile)
    if violations:
        raise ValueError(
            "halved_hamiltonian requires an engineered-symmetric profile; "
            + "; ".join(str(v) for v in violations)
        )
    m = (profile.n_sites + 1) // 2
    off = profile.couplings[: m - 2] + (math.sqrt(2.0) * profile.couplings[m - 2],)
    return TridiagonalHamiltonian(m, off)


def full_hilbert_hamiltonian(profile: CouplingProfile) -> np.ndarray:
    """Dense 2^N x 2^N oracle form of the chain Hamiltonian.

    Built as sum_j D_j (raise_j lower_{j+1} + lower_j raise_{j+1}), which
    reproduces the one-excitation off-diagonals D_j exactly.  Site j
    (1-based) occupies bit N-j of the basis index, so site 1 is the most
    significant bit and the one-excitation basis state |j> has index
    2^(N-j).
    """
    n = profile.n_sites
    if n > MAX_ORACLE_SITES:
        raise ResourceLimitError(
            f"dense oracle capped at {MAX_ORACLE_SITES} sites, got {n}"
        )
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


def excitation_number_operator(n_sites: int) -> np.ndarray:
    """Diagonal operator counting excited sites, in the oracle basis."""
    counts = [bin(s).count("1") for s in range(1 << n_sites)]
    return np.diag(np.asarray(counts, dtype=float))


def one_excitation_indices(n_sites: int) -> list[int]:
    """Oracle-basis indices of |1> ... |N>, in site order."""
    return [1 << (n_sites - j) for j in range(1, n_sites + 1)]
