"""In-memory spans around the public functions of the bellchain modules.

``Tracer.install`` swaps each target function for a wrapper that records
a span (name, start, end, parent span, op id) and ``uninstall`` puts the
originals back.  Modules bind names with ``from .dynamics import
eigendecompose``, so the wrapper replaces the name in every loaded
``bellchain`` module that holds the original object, not only in the
module that defines it.
"""

from __future__ import annotations

import sys
from time import perf_counter

TARGETS = (
    "cli.run",
    "chain.engineered_couplings",
    "chain.validate_profile",
    "chain.one_excitation_hamiltonian",
    "dynamics.eigendecompose",
    "dynamics.evolve",
    "dynamics.center_to_end_amplitude",
    "dynamics.bell_decomposition",
    "teleport.teleport",
    "teleport.expected_fidelity",
    "robustness.perturb",
    "robustness.entanglement_at_t0",
    "robustness.resource_from_report",
    "robustness.noise_sweep",
    "search.minimize",
    "serialize.write_csv",
    "serialize.write_json",
    "serialize.write_manifest",
)

# Chain length N of the call, for the computed-bytes counters.
_SIZE_OF = {
    "dynamics.eigendecompose": lambda h, *a, **k: h.dimension,
    "dynamics.evolve": lambda eig, *a, **k: eig.dimension,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1, op, n)
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches = []  # (module, attribute, original, wrapper)
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "bellchain"]
        for name in TARGETS:
            module_name, func = name.split(".")
            original = getattr(sys.modules[f"bellchain.{module_name}"], func)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def _wrap(self, name, fn):
        spans, stack, size_of = self.spans, self._stack, _SIZE_OF.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                n = size_of(*args, **kwargs) if size_of else None
                spans[index] = (name, start, end, parent, self.op, n)

        return wrapper

    def install(self, op: int) -> None:
        self.op = op
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        self.op = None


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children of a span never overlap and
    their summed durations are the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, *_), c in zip(spans, covered)]


def has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def summarize(spans) -> dict:
    """Per-target calls and self time, plus the computed-bytes counters."""
    layers = {name: {"calls": 0, "self_s": 0.0} for name in TARGETS}
    bytes_computed = {"dynamics.eigendecompose": 0, "dynamics.evolve": 0}
    evaluations = 0
    for index, (span, own) in enumerate(zip(spans, self_times(spans))):
        name, n = span[0], span[5]
        layers[name]["calls"] += 1
        layers[name]["self_s"] += own
        if name == "dynamics.eigendecompose":
            # The dense N x N float64 eigenvector matrix the call produces.
            bytes_computed[name] += 8 * n * n
            evaluations += has_ancestor(spans, index, "search.minimize")
        elif name == "dynamics.evolve":
            # Two passes over that matrix: U^T psi, then U (phases * coeffs).
            bytes_computed[name] += 16 * n * n
    return {"layers": layers, "bytes_computed": bytes_computed, "search_evaluations": evaluations}
