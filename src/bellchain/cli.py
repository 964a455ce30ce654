"""Command-line front end.

Subcommands wrap the library one-to-one and write machine-readable
payloads (canonical JSON or CSV) plus a ``<out>.manifest.json`` sidecar
recording the command line, a config digest, the master seed, the tool
version and the wall time.  Payload bytes are a pure function of
parameters and seed; only the manifest's wall time varies between
identical runs.  ``run`` resolves ``--out`` once, calls the subcommand's
handler as ``handler(args, out)``, which returns the master seed or
None, and writes the manifest itself.  The config digest is the
``serialize.json_digest`` of the parsed flags, config-file defaults
applied, without ``--out`` and ``--config``; an input file
(``--profile``, ``--resource``) enters as the sha256 of its bytes.  So
the digest names the inputs, never where the payload went.

Exit codes: 0 success, 2 argument error (including a chain too long
for the dense eigensolve to fit in memory, and any run that exhausts
memory), 3 I/O error, 4 numeric failure.  A JSON config file
(``--config``) supplies defaults for any flag of the invoked subcommand;
explicit flags win.  A config key that names no flag of any subcommand
is an argument error.  So, as a flag or from the config file, is a flag
the run would not read: ``--n`` or ``--mu`` beside the ``--profile`` or
``--resource`` file that replaces them, and ``perturb --trials`` or
``--seed`` without ``--sigma``.  ``teleport --seed`` draws one
measurement branch; without it the report lists all four.  When the
``BELLCHAIN_OUT_DIR`` environment variable is set, relative ``--out``
paths are resolved against it.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import serialize
from .chain import (
    SYMMETRY_RTOL,
    CouplingProfile,
    ResourceLimitError,
    engineered_couplings,
    one_excitation_hamiltonian,
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
from .teleport import expected_fidelity, teleport

OUT_DIR_ENV = "BELLCHAIN_OUT_DIR"

# Longest --t-grid accepted; the whole grid is evaluated in one call.
MAX_GRID_POINTS = 100_000

# Longest chain accepted, from --n or a --profile file: at this length on
# a 2-core host a whole run at the engineered time takes about 7 s for the
# end pair of ``teleport`` and 18 s for the full state of ``perturb --swap``.
MAX_SITES = 100_001

# Longest chain ``perturb --adjacent`` accepts: it runs one readout per
# bond, so its cost grows like N^3: about 1.3 minutes at this length on a 2-core host.
MAX_ADJACENT_SITES = 4_001


def _check_sites(n: int) -> int:
    if n > MAX_SITES:
        raise ValueError(f"chain of {n} sites exceeds the limit of {MAX_SITES}")
    return n


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
        profile = serialize.read_profile(args.profile)
        _check_sites(profile.n_sites)
        return profile
    if args.n is None:
        raise ValueError(f"need either --{_INPUT_FILE[args.command]} or --n")
    return engineered_couplings(_check_sites(args.n), args.mu)


def _load_config(path: str) -> dict:
    data = serialize.read_json(path)
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


def _build_parser(config: dict, command: str | None) -> argparse.ArgumentParser:
    """The parser of every subcommand, with flags only on ``command``'s.

    Every config key is checked against the flags of all subcommands,
    so a bad key fails whichever subcommand runs.
    """
    parser = argparse.ArgumentParser(
        prog="bellchain",
        description="Engineered-chain Bell pairs, teleportation and robustness tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    dests = set()

    def add_parser(name, help):
        p = sub.add_parser(name, help=help)
        return p if name == command else None

    def add(p, *flags, dest=None, required=False, **kwargs):
        dest = dest or flags[0].lstrip("-").replace("-", "_")
        dests.add(dest)
        if dest in config:
            kwargs["default"] = _config_default(dest, config[dest], kwargs)
            required = False
        if p is not None:
            p.add_argument(*flags, dest=dest, required=required, **kwargs)

    p = add_parser("couplings", help="write the engineered coupling profile")
    add(p, "--n", type=int, required=True, help="odd chain length")
    add(p, "--mu", type=float, default=1.0, help="coupling scale")
    add(p, "--format", choices=["json", "csv"], default="json")
    add(p, "--out", required=True)

    p = add_parser("evolve", help="center-to-end amplitude over a time grid")
    add(p, "--profile", help="profile JSON, in place of --n/--mu")
    add(p, "--n", type=int)
    add(p, "--mu", type=float, help="coupling scale (default 1.0)")
    add(p, "--t-grid", required=True, help="lo:hi:step")
    add(p, "--out", required=True, help="CSV output path")

    p = add_parser("teleport", help="run the teleportation protocol")
    add(p, "--a-re", type=float, default=1.0)
    add(p, "--a-im", type=float, default=0.0)
    add(p, "--b-re", type=float, default=0.0)
    add(p, "--b-im", type=float, default=0.0)
    add(p, "--n", type=int, help="build the resource from this engineered chain")
    add(p, "--mu", type=float, help="coupling scale (default 1.0)")
    add(p, "--resource", help="resource JSON, in place of --n/--mu")
    add(p, "--seed", type=int, help="draw one measurement branch instead of listing all four")
    add(p, "--out", required=True, help="report JSON path")

    p = add_parser("feasibility", help="chain-length bound for a coupling ceiling")
    add(p, "--mu", type=float, required=True)
    add(p, "--gmax", type=float, required=True)
    add(p, "--out", required=True, help="report JSON path")

    p = add_parser("perturb", help="score perturbed profiles at the readout time")
    add(p, "--profile", help="profile JSON, in place of --n/--mu")
    add(p, "--n", type=int)
    add(p, "--mu", type=float, help="coupling scale (default 1.0)")
    add(p, "--swap", type=int, nargs=2, metavar=("I", "J"))
    add(p, "--sigma", type=float)
    add(p, "--trials", type=int, help="noise trials, with --sigma (default 100)")
    add(p, "--seed", type=int, help="noise seed, with --sigma (default 0)")
    add(p, "--adjacent", action="store_true", help="baseline plus every adjacent swap")
    add(p, "--out", required=True, help="CSV output path")

    p = add_parser("search", help="search for alternative entangling profiles")
    add(p, "--n", type=int, required=True)
    add(p, "--seed", type=int, default=0)
    add(p, "--restarts", type=int, default=8)
    add(p, "--max-iters", type=int, default=400)
    add(p, "--t-min", type=float, default=0.1)
    add(p, "--t-max", type=float, default=10.0)
    add(p, "--d-lo", type=float, default=0.05)
    add(p, "--d-hi", type=float, default=4.0)
    add(p, "--out", required=True, help="result JSON path")

    unknown = sorted(set(config) - dests)
    if unknown:
        raise ValueError(f"config keys naming no flag: {', '.join(unknown)}")
    if command in sub.choices:
        sub.choices[command].add_argument("--config", help="JSON file with flag defaults")
    return parser


def _cmd_couplings(args, out: Path) -> None:
    profile = _profile_from_args(args)
    if args.format == "json":
        serialize.write_json(out, profile)
    else:
        serialize.write_csv(out, ["index", "coupling"], enumerate(profile.couplings, 1))


def _cmd_evolve(args, out: Path) -> None:
    profile = _profile_from_args(args)
    t_grid = _parse_grid(args.t_grid)
    # a --n chain is engineered by construction; the closed form holds only for the engineered
    # couplings, not for every chain with their symmetries, and math.isclose finds no finite
    # bond close to an overflowed mu * D_i
    engineered = not args.profile or all(
        math.isclose(d, profile.mu * e, rel_tol=SYMMETRY_RTOL)
        for d, e in zip(profile.couplings, engineered_couplings(profile.n_sites).couplings)
    )
    h = one_excitation_hamiltonian(profile)
    amps = grid_amplitudes(h, 0, (profile.n_sites - 1) // 2, t_grid)

    rows = []
    for t, amp in zip(t_grid.tolist(), amps.tolist()):
        if engineered:
            ref = analytic_center_to_end(profile.n_sites, profile.mu, t)
            rows.append([t, amp.real, amp.imag, abs(amp) ** 2, abs(ref) ** 2, abs(amp - ref), 1])
        else:
            rows.append([t, amp.real, amp.imag, abs(amp) ** 2, None, None, 0])

    serialize.write_csv(
        out,
        ["t", "re_amp", "im_amp", "prob", "analytic_prob", "abs_err", "analytic_valid"],
        rows,
    )


def _cmd_teleport(args, out: Path) -> int | None:
    a = complex(args.a_re, args.a_im)
    b = complex(args.b_re, args.b_im)
    if args.resource:
        resource = serialize.read_resource(args.resource)
    else:
        resource = resource_from_profile(_profile_from_args(args))

    branches = records = teleport(a, b, resource)
    if args.seed is not None:
        probs = np.array([r.probability for r in branches])
        records = [branches[np.random.default_rng(args.seed).choice(4, p=probs / probs.sum())]]
    # expected_fidelity weighs all four branches, so a seeded report listing only the
    # drawn record carries the same expectation as the report that lists all four
    report = {"a": a, "b": b, "resource": resource, "records": records,
              "expected_fidelity": expected_fidelity(branches), "seed": args.seed}
    serialize.write_json(out, report)
    return args.seed


def _cmd_feasibility(args, out: Path) -> None:
    serialize.write_json(out, feasibility(args.mu, args.gmax))


def _cmd_perturb(args, out: Path) -> int | None:
    profile = _profile_from_args(args)
    modes = [args.swap is not None, args.sigma is not None, bool(args.adjacent)]
    if sum(modes) != 1:
        raise ValueError("choose exactly one of --swap, --sigma, --adjacent")

    master_seed: int | None = None
    if args.swap is not None:
        i, j = args.swap
        rows = [sweep_row(perturb(profile, SwapPerturbation(i, j)), trial=0, param=float(i))]
    elif args.sigma is not None:
        master_seed = args.seed
        rows = noise_sweep(profile, args.sigma, args.trials, master_seed)
    else:
        if profile.n_sites > MAX_ADJACENT_SITES:
            raise ValueError(
                f"--adjacent on {profile.n_sites} sites exceeds the limit of {MAX_ADJACENT_SITES}"
            )
        rows = adjacent_swap_sweep(profile)
    serialize.sweep_rows_to_csv(out, rows)
    return master_seed


def _cmd_search(args, out: Path) -> int:
    problem = SearchProblem(
        n_sites=_check_sites(args.n),
        t_window=(args.t_min, args.t_max),
        bounds=(args.d_lo, args.d_hi),
    )
    serialize.write_json(
        out, minimize(problem, seed=args.seed, max_iters=args.max_iters, restarts=args.restarts)
    )
    return args.seed


_HANDLERS = {
    "couplings": _cmd_couplings,
    "evolve": _cmd_evolve,
    "teleport": _cmd_teleport,
    "feasibility": _cmd_feasibility,
    "perturb": _cmd_perturb,
    "search": _cmd_search,
}


# The input file that stands in for --n and --mu, per subcommand that has one.
_INPUT_FILE = {"evolve": "profile", "perturb": "profile", "teleport": "resource"}


def _check_chain_flags(args) -> None:
    """Refuse flags the handler would not read, then fill their defaults.

    --n or --mu beside the input file that replaces them, and perturb's
    --trials or --seed without --sigma: the handler would ignore them,
    and the digest would still cover them.  The parser leaves these
    flags at None so that a value given on the command line or in the
    config file shows, whatever it is.
    """
    source = _INPUT_FILE.get(args.command)
    if source is None:
        return
    given = [f"--{flag}" for flag in ("n", "mu") if getattr(args, flag) is not None]
    if getattr(args, source) and given:
        raise ValueError(f"--{source} replaces {' and '.join(given)}; give one or the other")
    if args.mu is None:
        args.mu = 1.0
    if args.command == "perturb":
        given = [f"--{flag}" for flag in ("trials", "seed") if getattr(args, flag) is not None]
        if args.sigma is None and given:
            raise ValueError(f"only --sigma reads {' and '.join(given)}")
        args.trials = 100 if args.trials is None else args.trials
        args.seed = 0 if args.seed is None else args.seed


def _digest_inputs(args) -> dict:
    """The parsed flags but --out and --config, by name: what the manifest's digest covers.

    An input file enters as the sha256 of its bytes.  A non-finite float,
    which canonical JSON refuses, enters as its repr: the digest is taken
    before the handler checks its flags, so the handler's message names it.
    """
    inputs = {}
    for key, value in sorted(vars(args).items()):
        if key in ("out", "config"):
            continue
        if key in ("profile", "resource") and value:
            value = hashlib.sha256(Path(value).read_bytes()).hexdigest()
        elif isinstance(value, float) and not math.isfinite(value):
            value = repr(value)
        inputs[key] = value
    return inputs


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # --config as the subcommand's parser reads it, abbreviations and repeats included;
    # a malformed one is left for that parser to report
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        config_path = pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        config_path = None
    try:
        # the first token not starting with "-" is the subcommand argparse will pick, if any
        command = next((token for token in argv if not token.startswith("-")), None)
        parser = _build_parser(_load_config(config_path) if config_path else {}, command)
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
    out = Path(args.out)
    if os.environ.get(OUT_DIR_ENV) and not out.is_absolute():
        out = Path(os.environ[OUT_DIR_ENV]) / out
    try:
        _check_chain_flags(args)
        inputs = _digest_inputs(args)  # before the handler, which may write over an input file
        master_seed = _HANDLERS[args.command](args, out)
        wall = time.perf_counter() - started
        serialize.write_manifest(out, argv, inputs, master_seed, wall)
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
