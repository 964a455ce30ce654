"""Deterministic file formats: canonical JSON, CSV, and run manifests.

All floats are printed with 17 significant digits so values round-trip
exactly; the same canonical JSON text doubles as the input to the
manifest's configuration digest.  The CLI digests a run's parsed flags
without ``--out`` and ``--config``, with each input file as the sha256
of its bytes, so the digest depends only on the inputs and never on
the platform or on where the payload went.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from ._version import __version__
from .chain import CouplingProfile, engineered_max_coupling
from .robustness import FeasibilityReport, SweepRow
from .search import SearchProblem, SearchResult
from .teleport import EntangledResource, TeleportRecord, expected_fidelity


def format_float(value: float) -> str:
    """17-significant-digit decimal form; exact for binary doubles."""
    f = float(value)
    if not math.isfinite(f):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    return "%.17g" % f


def canonical_json(value) -> str:
    """Deterministic JSON text: dict order preserved, floats via format_float."""
    # floats first: a profile's digest is mostly floats, and no float is a bool or an int
    if isinstance(value, float):
        return format_float(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = ",".join(
            f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in value.items()
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(canonical_json, value)) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__} canonically")


def json_digest(value) -> str:
    """sha256 hex digest of the canonical JSON text."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def write_text(path: Path | str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def write_json(path: Path | str, value) -> None:
    write_text(path, canonical_json(value) + "\n")


def write_csv(path: Path | str, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row width {len(row)} != header width {len(header)}")
        lines.append(",".join(row))
    write_text(path, "\n".join(lines) + "\n")


def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _json_number(value, what: str) -> float:
    """A JSON number (not a bool or a string) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} {value} is out of the float range") from None


def _as_complex(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"expected [re, im], got {pair!r}")
    return complex(_json_number(pair[0], "real part"), _json_number(pair[1], "imaginary part"))


def profile_to_dict(profile: CouplingProfile) -> dict:
    return {
        "n_sites": profile.n_sites,
        "mu": profile.mu,
        "couplings": list(profile.couplings),
    }


def profile_from_dict(data: dict) -> CouplingProfile:
    """The profile of ``data``: n_sites a JSON integer, mu and each coupling a JSON number."""
    try:
        n_sites, mu, couplings = data["n_sites"], data["mu"], data["couplings"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed profile data: {exc}") from exc
    if isinstance(n_sites, bool) or not isinstance(n_sites, int):
        raise ValueError(f"n_sites must be a JSON integer, got {n_sites!r}")
    if not isinstance(couplings, list):
        raise ValueError(f"couplings must be a JSON list, got {couplings!r}")
    # the one input that states a length beside the couplings that fix it
    if len(couplings) != n_sites - 1:
        raise ValueError(f"expected {n_sites - 1} couplings for {n_sites} sites, got {len(couplings)}")
    return CouplingProfile(
        mu=_json_number(mu, "mu"),
        couplings=tuple(_json_number(d, "coupling") for d in couplings),
    )


def read_json(path: Path | str):
    """The JSON value in the file at ``path``; nesting too deep to parse is a ValueError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def read_profile(path: Path | str) -> CouplingProfile:
    return profile_from_dict(read_json(path))


def resource_to_dict(resource: EntangledResource) -> dict:
    return {
        "alpha01": complex_pair(resource.alpha01),
        "alpha10": complex_pair(resource.alpha10),
    }


def read_resource(path: Path | str) -> EntangledResource:
    data = read_json(path)
    try:
        return EntangledResource(
            alpha01=_as_complex(data["alpha01"]),
            alpha10=_as_complex(data["alpha10"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed resource data: {exc}") from exc


def teleport_report(
    a: complex,
    b: complex,
    resource: EntangledResource,
    records: list[TeleportRecord],
    seed: int | None,
    branches: list[TeleportRecord],
) -> dict:
    """``expected_fidelity`` weighs all four ``branches``, so a
    sample-mode report listing only the drawn record carries the same
    expectation as the enumerate report."""
    return {
        "a": complex_pair(a),
        "b": complex_pair(b),
        "resource": resource_to_dict(resource),
        "records": [
            {
                "outcome": r.outcome,
                "probability": r.probability,
                "correction": r.correction,
                "fidelity": r.fidelity,
            }
            for r in records
        ],
        "expected_fidelity": expected_fidelity(branches),
        "seed": seed,
    }


def feasibility_to_dict(report: FeasibilityReport) -> dict:
    return {
        "mu": report.mu,
        "g_max": report.g_max,
        "t0": report.t0,
        "n_max": report.n_max,
        "n_max_exact": report.n_max_exact,
        "degenerate": report.degenerate,
        "d_max_at_n_max": (
            engineered_max_coupling(
                report.n_max if report.n_max % 2 == 1 else report.n_max - 1, report.mu
            )
            if not report.degenerate
            else None
        ),
    }


def search_result_to_dict(
    problem: SearchProblem, result: SearchResult, seed: int
) -> dict:
    return {
        "problem": {
            "n_sites": problem.n_sites,
            "t_window": list(problem.t_window),
            "bounds": list(problem.bounds),
        },
        "seed": seed,
        "profile": profile_to_dict(result.profile),
        "best_time": result.best_time,
        "objective": result.objective,
        "iterations": result.iterations,
        "converged": result.converged,
    }


def sweep_rows_to_csv(path: Path | str, rows: list[SweepRow]) -> None:
    header = ["trial", "param", "concurrence", "residual_norm", "expected_fidelity"]
    body = [
        [
            str(r.trial),
            format_float(r.param),
            format_float(r.concurrence),
            format_float(r.residual_norm),
            format_float(r.expected_fidelity),
        ]
        for r in rows
    ]
    write_csv(path, header, body)


def manifest_path(out_path: Path | str) -> Path:
    return Path(str(out_path) + ".manifest.json")


def write_manifest(
    out_path: Path | str,
    command_line: list[str],
    digest_params: dict,
    master_seed: int | None,
    wall_time_s: float,
) -> None:
    manifest = {
        "command_line": list(command_line),
        "config_digest": json_digest(digest_params),
        "master_seed": master_seed,
        "tool_version": __version__,
        "wall_time_s": wall_time_s,
    }
    write_json(manifest_path(out_path), manifest)
