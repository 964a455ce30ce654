"""Output checks for one op.

Each check returns ``None`` when the payload is right and a one-line
reason when it is not; the harness counts a reason as a failed op and
carries on.  Standard library only.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

from workloads import EVOLVE_POINTS

TOL = 1e-9


def parse_payload(text: str, fmt: str):
    """JSON payloads as parsed; CSV payloads as [header, rows of floats]."""
    if fmt == "json":
        return json.loads(text)
    header, *rows = csv.reader(io.StringIO(text))
    return [header, [[float(c) if c else None for c in row] for row in rows]]


def close(value, ref, tol: float = TOL) -> bool:
    """Same structure; numbers within ``tol``, everything else equal."""
    if isinstance(ref, bool) or isinstance(value, bool):
        return value is ref
    if isinstance(ref, (int, float)) and isinstance(value, (int, float)):
        return math.isfinite(value) and abs(value - ref) <= tol
    if isinstance(ref, list) and isinstance(value, list):
        return len(value) == len(ref) and all(close(v, r, tol) for v, r in zip(value, ref))
    if isinstance(ref, dict) and isinstance(value, dict):
        return value.keys() == ref.keys() and all(close(value[k], ref[k], tol) for k in ref)
    return value == ref


def check_evolve(payload) -> str | None:
    header, rows = payload
    if len(rows) != EVOLVE_POINTS:
        return f"evolve: {len(rows)} rows, expected {EVOLVE_POINTS}"
    valid, err = header.index("analytic_valid"), header.index("abs_err")
    for row in rows:
        if row[valid] != 1:
            return f"evolve: analytic_valid != 1 at t={row[0]!r}"
        if not row[err] <= TOL:
            return f"evolve: abs_err {row[err]!r} > {TOL} at t={row[0]!r}"
    return None


def check_teleport(payload) -> str | None:
    fidelity = payload["expected_fidelity"]
    if not abs(fidelity - 1.0) <= TOL:
        return f"teleport: expected_fidelity {fidelity!r} not within {TOL} of 1"
    return None


def check_reference(payload, ref) -> str | None:
    if ref is None:
        return "no reference payload for this op"
    if not close(payload, ref["values"]):
        return f"payload values differ from the reference by more than {TOL}"
    return None


def payload_format(kind: str) -> str:
    return "csv" if kind in ("evolve", "perturb") else "json"


def check_op(kind: str, out: Path, manifest: Path, ref) -> tuple[str | None, bool]:
    """(failure reason or None, payload sha256 equals the reference's)."""
    if not out.is_file():
        return "no payload written", False
    if not manifest.is_file():
        return "no manifest written", False
    data = out.read_bytes()
    identical = ref is not None and hashlib.sha256(data).hexdigest() == ref["sha256"]
    try:
        payload = parse_payload(data.decode("utf-8"), payload_format(kind))
        reason = None
        if kind == "evolve":
            reason = check_evolve(payload)
        elif kind == "teleport":
            reason = check_teleport(payload)
        reason = reason or check_reference(payload, ref)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        reason = f"malformed payload: {exc}"
    return reason, identical
