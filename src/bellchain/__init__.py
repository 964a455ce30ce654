"""End-to-end Bell pairs on engineered spin chains.

A chain of an odd number of XX-coupled spins, excited once at its
center, concentrates the excitation on the two end sites at the
length-independent time pi/mu when the couplings follow the engineered
profile; the ends then hold a maximally entangled pair usable as a
teleportation resource.  The package builds and validates such chains,
evolves them in the one-excitation subspace, runs the teleportation
protocol (including with degraded resources), evaluates a hardware
feasibility bound, and searches for alternative entangling profiles.
"""

from ._version import __version__
from .chain import (
    CouplingProfile,
    ProfileViolation,
    ResourceLimitError,
    TridiagonalHamiltonian,
    engineered_couplings,
    engineered_max_coupling,
    halved_hamiltonian,
    one_excitation_hamiltonian,
    validate_profile,
)
from .dynamics import (
    BellDecomposition,
    EigenSystem,
    NumericFailure,
    SiteAmplitudeState,
    analytic_center_to_end,
    bell_decomposition,
    bell_time,
    center_to_end_amplitude,
    eigendecompose,
    evolve,
    grid_amplitudes,
    state_at,
    transition_amplitudes,
)
from .robustness import (
    FeasibilityReport,
    NoisePerturbation,
    SwapPerturbation,
    SweepRow,
    adjacent_swap_sweep,
    entanglement_at_t0,
    feasibility,
    noise_sweep,
    perturb,
    resource_from_profile,
    resource_from_report,
    sweep_row,
)
from .search import (
    CONVERGED_TOL,
    SearchProblem,
    SearchResult,
    minimize,
    mirror_profile,
)
from .teleport import (
    EntangledResource,
    TeleportRecord,
    correction_for,
    expected_fidelity,
    teleport,
)

__all__ = [
    "__version__",
    "CONVERGED_TOL",
    "BellDecomposition",
    "CouplingProfile",
    "EigenSystem",
    "EntangledResource",
    "FeasibilityReport",
    "NoisePerturbation",
    "NumericFailure",
    "ProfileViolation",
    "ResourceLimitError",
    "SearchProblem",
    "SearchResult",
    "SiteAmplitudeState",
    "SwapPerturbation",
    "SweepRow",
    "TeleportRecord",
    "TridiagonalHamiltonian",
    "adjacent_swap_sweep",
    "analytic_center_to_end",
    "bell_decomposition",
    "bell_time",
    "center_to_end_amplitude",
    "correction_for",
    "eigendecompose",
    "engineered_couplings",
    "engineered_max_coupling",
    "entanglement_at_t0",
    "evolve",
    "expected_fidelity",
    "feasibility",
    "grid_amplitudes",
    "halved_hamiltonian",
    "minimize",
    "mirror_profile",
    "noise_sweep",
    "one_excitation_hamiltonian",
    "perturb",
    "resource_from_profile",
    "resource_from_report",
    "state_at",
    "sweep_row",
    "teleport",
    "transition_amplitudes",
    "validate_profile",
]
