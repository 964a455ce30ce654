"""Deterministic file formats: canonical JSON, CSV, and run manifests.

Every number in a payload, JSON or CSV, is written by ``canonical_json``:
a float with 17 significant digits, so it round-trips exactly, an int
in decimal and a complex number as the pair ``[re, im]``.  A dataclass
instance, such as a library result, is the JSON object of its fields
that are shown in its ``repr``, in declaration order; so a result's
type fixes its payload, and this module computes nothing of its own.
A CSV cell is the canonical JSON of its value; a ``None`` cell, no
value, is left empty.  The same canonical JSON text doubles as the
input to the manifest's configuration digest.  The CLI digests a run's
parsed flags without ``--out`` and ``--config``, with each input file
as the sha256 of its bytes, so the digest depends only on the inputs
and never on the platform or on where the payload went.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import fields, is_dataclass
from pathlib import Path

from ._version import __version__
from .chain import CouplingProfile
from .robustness import SweepRow
from .teleport import EntangledResource


def format_float(value: float) -> str:
    """17-significant-digit decimal form; exact for binary doubles."""
    f = float(value)
    if not math.isfinite(f):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    return "%.17g" % f


def canonical_json(value) -> str:
    """Deterministic JSON text: dict order preserved, floats via format_float, complex as
    [re, im], a dataclass instance as the object of its repr fields in declaration order."""
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
    if isinstance(value, complex):
        return canonical_json([value.real, value.imag])
    if is_dataclass(value) and not isinstance(value, type):
        # one level at a time, so no field value is copied
        return canonical_json({f.name: getattr(value, f.name) for f in fields(value) if f.repr})
    raise TypeError(f"cannot serialize {type(value).__name__} canonically")


def json_digest(value) -> str:
    """sha256 hex digest of the canonical JSON text."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def write_text(path: Path | str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def write_json(path: Path | str, value) -> None:
    write_text(path, canonical_json(value) + "\n")


def write_csv(path: Path | str, header: list[str], rows: Iterable[Sequence]) -> None:
    """One line per row of values, each cell its canonical JSON; a None cell is empty."""
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row width {len(row)} != header width {len(header)}")
        lines.append(",".join("" if v is None else canonical_json(v) for v in row))
    write_text(path, "\n".join(lines) + "\n")


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


def read_resource(path: Path | str) -> EntangledResource:
    data = read_json(path)
    try:
        return EntangledResource(
            alpha01=_as_complex(data["alpha01"]),
            alpha10=_as_complex(data["alpha10"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed resource data: {exc}") from exc


def sweep_rows_to_csv(path: Path | str, rows: list[SweepRow]) -> None:
    header = ["trial", "param", "concurrence", "residual_norm", "expected_fidelity"]
    body = [(r.trial, r.param, r.concurrence, r.residual_norm, r.expected_fidelity) for r in rows]
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
