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
from dataclasses import dataclass, field

# Relative tolerance for the exact coupling symmetries of engineered profiles.
SYMMETRY_RTOL = 1e-12


class ResourceLimitError(RuntimeError):
    """Raised when a chain is too long for the memory a computation needs."""


def _check_mu(mu: float) -> None:
    if not 0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")


def _check_odd(n_sites: int) -> None:
    if n_sites < 3 or n_sites % 2 == 0:
        raise ValueError(f"n_sites must be odd and >= 3, got {n_sites}")


def _positive_couplings(values) -> tuple[float, ...]:
    """The bond strengths D_1, D_2, ... as floats; each must be positive and finite."""
    couplings = tuple(map(float, values))
    # A positive min and a finite sum fail on any NaN, inf or non-positive entry; then the
    # loop names the bad bond (finite couplings whose sum overflows pass it).
    if not (min(couplings, default=1.0) > 0 and math.isfinite(sum(couplings))):
        for i, d in enumerate(couplings, start=1):
            if not 0 < d < math.inf:  # NaN fails too
                raise ValueError(f"coupling D_{i} must be positive and finite, got {d}")
    return couplings


@dataclass(frozen=True)
class CouplingProfile:
    """Ordered nearest-neighbor couplings of an odd N-site chain.

    Attributes
    ----------
    n_sites:
        Number of chain sites N = len(couplings) + 1, odd and >= 3.
    mu:
        Positive, finite frequency scale; the Bell time of the engineered
        design is pi/mu.
    couplings:
        The N-1 bond strengths D_1 ... D_{N-1}, all positive and finite,
        stored 0-indexed.
    hamiltonian:
        The one-excitation block, built once from ``couplings``; building
        it is their check.  Not compared, hashed, shown or serialized.
    """

    n_sites: int = field(init=False)
    mu: float
    couplings: tuple[float, ...]
    hamiltonian: TridiagonalHamiltonian = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        _check_odd(len(self.couplings) + 1)
        _check_mu(self.mu)
        h = TridiagonalHamiltonian(self.couplings)
        object.__setattr__(self, "n_sites", h.dimension)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "couplings", h.off_diagonal)

    def coupling(self, i: int) -> float:
        """Return D_i with 1-based index i."""
        if not 1 <= i <= self.n_sites - 1:
            raise ValueError(f"coupling index {i} outside 1..{self.n_sites - 1}")
        return self.couplings[i - 1]


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """Real symmetric tridiagonal matrix with identically zero diagonal.

    Its off-diagonals must be positive and finite, as a ``CouplingProfile``'s
    couplings: every ``dynamics`` kernel takes this type, bounds the spectrum
    by Gershgorin sums of them and relies on a simple spectrum.  Its
    ``dimension`` is len(off_diagonal) + 1.
    """

    off_diagonal: tuple[float, ...]
    dimension: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "off_diagonal", _positive_couplings(self.off_diagonal))
        object.__setattr__(self, "dimension", len(self.off_diagonal) + 1)


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
    _check_odd(n_sites)
    _check_mu(mu)
    m = (n_sites + 1) // 2
    half = [0.5 * mu * math.sqrt(k * (m - k)) for k in range(1, (n_sites - 3) // 2 + 1)]
    half.append(mu / (2.0 * math.sqrt(2.0)) * math.sqrt((n_sites - 1) / 2.0))
    return CouplingProfile(mu, tuple(half + half[::-1]))


def engineered_max_coupling(n_sites: int, mu: float = 1.0) -> float:
    """Largest bond strength of the engineered profile, in closed form.

    The interior values k(M-k) peak at k = floor(M/2); for N = 3 the only
    bond is the bridge.  Grows like mu*N/8 for long chains.
    """
    _check_odd(n_sites)
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
    """One-excitation block of the chain Hamiltonian: off-diagonals D_j, built with the profile."""
    return profile.hamiltonian


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
    return TridiagonalHamiltonian(off)
