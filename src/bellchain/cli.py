"""Command-line front end.

Subcommands wrap the library one-to-one and write machine-readable
payloads (canonical JSON or CSV) plus a ``<out>.manifest.json`` sidecar
recording the command line, a digest of the resolved parameters, the
master seed, the tool version and the wall time.  Payload bytes are a
pure function of parameters and seed; only the manifest's wall time
varies between identical runs.

Exit codes: 0 success, 2 argument error (including a chain too long
for the dense eigensolve to fit in physical memory, and any run that
exhausts memory), 3 I/O error, 4 numeric failure.  A JSON config file
(``--config``) supplies defaults for any flag of the invoked subcommand;
explicit flags win.  When the ``BELLCHAIN_OUT_DIR`` environment
variable is set, relative ``--out`` paths are resolved against it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import serialize
from .chain import (
    CouplingProfile,
    ResourceLimitError,
    engineered_couplings,
    one_excitation_hamiltonian,
    validate_profile,
)
from .dynamics import (
    NumericFailure,
    analytic_center_to_end,
    eigendecompose,  # noqa: F401  bench/selftest.py checks the tracer patches it here
    grid_amplitudes,
)
from .robustness import (
    SwapPerturbation,
    adjacent_swap_sweep,
    feasibility,
    noise_sweep,
    perturb,
    resource_from_profile,
    sweep_row,
)
from .search import SearchProblem, minimize
from .teleport import teleport

OUT_DIR_ENV = "BELLCHAIN_OUT_DIR"

# Longest --t-grid accepted; the whole grid is evaluated in one call.
MAX_GRID_POINTS = 100_000


def _odd_n(value) -> int:
    n = int(value)
    if n < 3 or n % 2 != 1:
        raise ValueError("n must be odd and >= 3")
    return n


def _resolve_out(raw: str) -> Path:
    path = Path(raw)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _parse_grid(text: str) -> np.ndarray:
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ValueError(f"t-grid must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"t-grid must be numeric lo:hi:step, got {text!r}") from None
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError(f"t-grid bounds and step must be finite, got {text!r}")
    if step <= 0:
        raise ValueError(f"t-grid step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"t-grid must have hi >= lo, got {text!r}")
    steps = (hi - lo) / step + 1e-9  # inf when hi - lo overflows
    if not steps < MAX_GRID_POINTS:
        raise ValueError(f"t-grid {text!r} has more than {MAX_GRID_POINTS} points")
    return lo + np.arange(math.floor(steps) + 1) * step


def _profile_from_args(args) -> CouplingProfile:
    if getattr(args, "profile", None):
        return serialize.read_profile(args.profile)
    if getattr(args, "n", None) is None:
        raise ValueError("need either --profile or --n")
    return engineered_couplings(_odd_n(args.n), float(args.mu))


def _extract_config_path(argv: list[str]) -> str | None:
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 >= len(argv):
                raise ValueError("--config needs a file path")
            return argv[i + 1]
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def _load_config(path: str) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _config_default(dest: str, value, kwargs: dict):
    """Convert a config value the way argparse converts the flag's text.

    argparse passes non-string defaults through unchecked, so a value of
    the wrong JSON type would otherwise fail deep inside a handler, or
    (for an on/off flag) count as set whenever it is truthy.
    """
    if kwargs.get("action") == "store_true":
        if not isinstance(value, bool):
            raise ValueError(f"config value for {dest} must be a bool, got {value!r}")
        return value
    nargs, choices = kwargs.get("nargs"), kwargs.get("choices")
    convert = kwargs.get("type", str)
    items = value if nargs and isinstance(value, list) else [value]
    try:
        # str() of a null, bool, list or object could pass as flag text
        if len(items) != (nargs or 1) or any(
            isinstance(v, (type(None), bool, list, dict)) for v in items
        ):
            raise ValueError
        converted = [convert(str(v)) for v in items]
        if choices and any(v not in choices for v in converted):
            raise ValueError
    except ValueError:
        expected = f"one of {choices}" if choices else convert.__name__
        expected = f"a list of {nargs} x {expected}" if nargs else expected
        raise ValueError(f"config value for {dest} must be {expected}, got {value!r}") from None
    return converted if nargs else converted[0]


def _build_parser(config: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellchain",
        description="Engineered-chain Bell pairs, teleportation and robustness tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(p, *flags, dest=None, required=False, **kwargs):
        dest = dest or flags[0].lstrip("-").replace("-", "_")
        if dest in config:
            kwargs["default"] = _config_default(dest, config[dest], kwargs)
            required = False
        p.add_argument(*flags, dest=dest, required=required, **kwargs)

    p = sub.add_parser("couplings", help="write the engineered coupling profile")
    add(p, "--n", type=int, required=True, help="odd chain length")
    add(p, "--mu", type=float, default=1.0, help="coupling scale")
    add(p, "--format", choices=["json", "csv"], default="json")
    add(p, "--out", required=True)

    p = sub.add_parser("evolve", help="center-to-end amplitude over a time grid")
    add(p, "--profile", help="profile JSON (overrides --n/--mu)")
    add(p, "--n", type=int)
    add(p, "--mu", type=float, default=1.0)
    add(p, "--t-grid", required=True, help="lo:hi:step")
    add(p, "--out", required=True, help="CSV output path")

    p = sub.add_parser("teleport", help="run the teleportation protocol")
    add(p, "--a-re", type=float, default=1.0)
    add(p, "--a-im", type=float, default=0.0)
    add(p, "--b-re", type=float, default=0.0)
    add(p, "--b-im", type=float, default=0.0)
    add(p, "--n", type=int, help="build the resource from this engineered chain")
    add(p, "--mu", type=float, default=1.0)
    add(p, "--resource", help="resource JSON (overrides --n/--mu)")
    add(p, "--mode", choices=["enumerate", "sample"], default="enumerate")
    add(p, "--seed", type=int, default=None)
    add(p, "--out", required=True, help="report JSON path")

    p = sub.add_parser("feasibility", help="chain-length bound for a coupling ceiling")
    add(p, "--mu", type=float, required=True)
    add(p, "--gmax", type=float, required=True)
    add(p, "--out", required=True, help="report JSON path")

    p = sub.add_parser("perturb", help="score perturbed profiles at the readout time")
    add(p, "--profile", help="profile JSON (overrides --n/--mu)")
    add(p, "--n", type=int)
    add(p, "--mu", type=float, default=1.0)
    add(p, "--swap", type=int, nargs=2, metavar=("I", "J"))
    add(p, "--sigma", type=float)
    add(p, "--trials", type=int, default=100)
    add(p, "--seed", type=int, default=0)
    add(p, "--adjacent", action="store_true", help="baseline plus every adjacent swap")
    add(p, "--out", required=True, help="CSV output path")

    p = sub.add_parser("search", help="search for alternative entangling profiles")
    add(p, "--n", type=int, required=True)
    add(p, "--seed", type=int, default=0)
    add(p, "--restarts", type=int, default=8)
    add(p, "--max-iters", type=int, default=400)
    add(p, "--t-min", type=float, default=0.1)
    add(p, "--t-max", type=float, default=10.0)
    add(p, "--d-lo", type=float, default=0.05)
    add(p, "--d-hi", type=float, default=4.0)
    add(p, "--out", required=True, help="result JSON path")

    for p in sub.choices.values():
        p.add_argument("--config", help="JSON file with flag defaults")
    return parser


def _cmd_couplings(args) -> tuple[dict, Path, int | None]:
    n = _odd_n(args.n)
    mu = float(args.mu)
    fmt = str(args.format)
    profile = engineered_couplings(n, mu)
    out = _resolve_out(args.out)
    if fmt == "json":
        serialize.write_json(out, serialize.profile_to_dict(profile))
    else:
        serialize.write_csv(
            out,
            ["index", "coupling"],
            [
                [str(i + 1), serialize.format_float(d)]
                for i, d in enumerate(profile.couplings)
            ],
        )
    params = {"command": "couplings", "n": n, "mu": mu, "format": fmt}
    return params, out, None


def _cmd_evolve(args) -> tuple[dict, Path, int | None]:
    profile = _profile_from_args(args)
    t_grid = _parse_grid(args.t_grid)
    engineered = len(validate_profile(profile)) == 0
    h = one_excitation_hamiltonian(profile)
    amps = grid_amplitudes(h, 0, (profile.n_sites - 1) // 2, t_grid)

    rows = []
    for t, amp in zip(t_grid.tolist(), amps.tolist()):
        cells = [
            serialize.format_float(t),
            serialize.format_float(amp.real),
            serialize.format_float(amp.imag),
            serialize.format_float(abs(amp) ** 2),
        ]
        if engineered:
            ref = analytic_center_to_end(profile.n_sites, profile.mu, t)
            cells += [
                serialize.format_float(abs(ref) ** 2),
                serialize.format_float(abs(amp - ref)),
                "1",
            ]
        else:
            cells += ["", "", "0"]
        rows.append(cells)

    out = _resolve_out(args.out)
    serialize.write_csv(
        out,
        ["t", "re_amp", "im_amp", "prob", "analytic_prob", "abs_err", "analytic_valid"],
        rows,
    )
    params = {
        "command": "evolve",
        "profile": serialize.profile_to_dict(profile),
        "t_grid": str(args.t_grid),
    }
    return params, out, None


def _cmd_teleport(args) -> tuple[dict, Path, int | None]:
    a = complex(float(args.a_re), float(args.a_im))
    b = complex(float(args.b_re), float(args.b_im))
    if getattr(args, "resource", None):
        resource = serialize.read_resource(args.resource)
    else:
        if args.n is None:
            raise ValueError("need either --resource or --n")
        profile = _profile_from_args(args)
        resource = resource_from_profile(profile)

    mode = str(args.mode)
    seed = None if args.seed is None else int(args.seed)
    if mode == "sample" and seed is None:
        raise ValueError("sample mode needs --seed")
    branches = teleport(a, b, resource)
    records = branches if mode == "enumerate" else teleport(a, b, resource, mode, seed)
    master_seed = seed if mode == "sample" else None

    out = _resolve_out(args.out)
    serialize.write_json(
        out, serialize.teleport_report(a, b, resource, records, master_seed, branches)
    )
    params = {
        "command": "teleport",
        "a": serialize.complex_pair(a),
        "b": serialize.complex_pair(b),
        "resource": serialize.resource_to_dict(resource),
        "mode": mode,
        "seed": master_seed,
    }
    return params, out, master_seed


def _cmd_feasibility(args) -> tuple[dict, Path, int | None]:
    report = feasibility(float(args.mu), float(args.gmax))
    out = _resolve_out(args.out)
    serialize.write_json(out, serialize.feasibility_to_dict(report))
    params = {"command": "feasibility", "mu": report.mu, "g_max": report.g_max}
    return params, out, None


def _cmd_perturb(args) -> tuple[dict, Path, int | None]:
    profile = _profile_from_args(args)
    modes = [args.swap is not None, args.sigma is not None, bool(args.adjacent)]
    if sum(modes) != 1:
        raise ValueError("choose exactly one of --swap, --sigma, --adjacent")

    master_seed: int | None = None
    if args.swap is not None:
        i, j = (int(v) for v in args.swap)
        swapped = perturb(profile, SwapPerturbation(i, j))
        rows = [sweep_row(swapped, trial=0, param=float(i))]
        mode_params = {"mode": "swap", "i": i, "j": j}
    elif args.sigma is not None:
        sigma = float(args.sigma)
        trials = int(args.trials)
        master_seed = int(args.seed)
        rows = noise_sweep(profile, sigma, trials, master_seed)
        mode_params = {
            "mode": "noise",
            "sigma": sigma,
            "trials": trials,
            "seed": master_seed,
        }
    else:
        rows = adjacent_swap_sweep(profile)
        mode_params = {"mode": "adjacent"}

    out = _resolve_out(args.out)
    serialize.sweep_rows_to_csv(out, rows)
    params = {
        "command": "perturb",
        "profile": serialize.profile_to_dict(profile),
        **mode_params,
    }
    return params, out, master_seed


def _cmd_search(args) -> tuple[dict, Path, int | None]:
    problem = SearchProblem(
        n_sites=_odd_n(args.n),
        t_window=(float(args.t_min), float(args.t_max)),
        bounds=(float(args.d_lo), float(args.d_hi)),
    )
    seed = int(args.seed)
    result = minimize(
        problem,
        seed=seed,
        max_iters=int(args.max_iters),
        restarts=int(args.restarts),
    )
    out = _resolve_out(args.out)
    serialize.write_json(out, serialize.search_result_to_dict(problem, result, seed))
    params = {
        "command": "search",
        "n": problem.n_sites,
        "seed": seed,
        "restarts": int(args.restarts),
        "max_iters": int(args.max_iters),
        "t_window": list(problem.t_window),
        "bounds": list(problem.bounds),
    }
    return params, out, seed


_HANDLERS = {
    "couplings": _cmd_couplings,
    "evolve": _cmd_evolve,
    "teleport": _cmd_teleport,
    "feasibility": _cmd_feasibility,
    "perturb": _cmd_perturb,
    "search": _cmd_search,
}


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        config_path = _extract_config_path(argv)
        parser = _build_parser(_load_config(config_path) if config_path else {})
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 0 if exc.code is None else 2

    started = time.perf_counter()
    try:
        params, out_path, master_seed = _HANDLERS[args.command](args)
        wall = time.perf_counter() - started
        serialize.write_manifest(out_path, argv, params, master_seed, wall)
    except (ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0
