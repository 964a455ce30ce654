"""Fuzzed command lines: every input ends in a documented exit code.

Each example draws a subcommand, which of its flags to pass (so also
combinations that clash, such as ``--n`` beside ``--profile``), a value
for each (valid small values, wrong types, negative, zero, non-finite
and huge ones) and moves some flags into a ``--config`` file as JSON
values of any type.
Sizes that really run stay small; every huge size drawn is one that a
cap or guard rejects before anything is allocated, except a subnormal
``--mu`` on the huge chain, whose Chebyshev series has a single term.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellchain import dynamics
from bellchain.chain import engineered_couplings
from bellchain.cli import run
from bellchain.serialize import write_json

SQRT_HALF = 1.0 / math.sqrt(2.0)
BAD_INT = ["", "x", "5.0", "nan", "-3", "0", "1", "4"]
BAD_FLOAT = ["", "x", "nan", "inf", "-inf", "-1", "0", "1e-310", "1e308", "1e309"]
# Above the trial cap, the restart cap or both; never run.
HUGE_COUNT = [str(10**6 + 1), str(10**4 + 1), str(10**9), str(10**30)]


def pick(valid, *bad):
    """A valid value half of the time, else one of the bad ones."""
    return st.one_of(st.sampled_from(valid), st.sampled_from([b for group in bad for b in group]))


SEEDS = pick(["0", "3", "20260816", str(10**30)], ["-1", "x"])
AMPLITUDE = pick(["0", "1", "0.6", "0.8", "-0.6", "0.7071067811865476"], ["1e200", "nan", "x"])
ODD_N = pick(["3", "5", "9", "41"], BAD_INT)
MU = pick(["1", "0.5", "2.5"], BAD_FLOAT)
BAD_GRIDS = ["0:inf:1", "0:1e12:1e-3", "a:b:c", "0:1", "1:0:0.1", "0:1:0", "0:1:-1", "0:1e308:1e-308"]
GRIDS = pick(["0:3.2:0.1", "0:0:1", "1:2:0.5"], BAD_GRIDS)
# 100001 sites: the dense eigenvectors exceed the memory limit the test
# sets, so the guard refuses them before the eigensolve.  That holds only
# on a grid whose Chebyshev series is too long for the recurrence: K >= N,
# and K >= 8N or T K > 2^20 over its T times.  On 0:10:1 K is 1.3N to 6.3N
# for the valid --mu values, and T K is 1.4e6 to 6.9e6; a shorter grid
# would run the eigenvector-free path on that size.
HUGE_N = "100001"
HUGE_N_GRIDS = pick(["0:10:1"], BAD_GRIDS)
# Input files: one the test writes (a 5-site engineered profile, a Bell
# resource) and one that does not exist.
PROFILE = st.sampled_from(["PROFILE", "no-such-profile.json"])
RESOURCE = st.sampled_from(["RESOURCE", "no-such-resource.json"])
# The input file that stands in for --n and --mu.
SOURCE = {"evolve": "--profile", "perturb": "--profile", "teleport": "--resource"}
SWAP = st.lists(pick(["1", "2", "3", "4", "8"], ["0", "-1", "100", "x"]), min_size=2, max_size=2)
PRESENT = st.just(None)  # a store_true flag
TRIALS = pick(["1", "2", "5"], HUGE_COUNT, BAD_INT)

# (flags always passed, flags passed or not) per subcommand.  Flags whose
# default would run a large size (--restarts, --max-iters) are always
# passed; perturb's --trials always goes with --sigma.
FLAGS = {
    "couplings": (
        {"--n": ODD_N},
        {"--mu": MU, "--format": pick(["json", "csv"], ["xml"])},
    ),
    "evolve": (
        {"--t-grid": GRIDS},
        {"--n": pick(["3", "9", "41", HUGE_N], BAD_INT), "--mu": MU, "--profile": PROFILE},
    ),
    "teleport": (
        {},
        {
            "--n": ODD_N,
            "--a-re": AMPLITUDE,
            "--a-im": AMPLITUDE,
            "--b-re": AMPLITUDE,
            "--b-im": AMPLITUDE,
            "--mu": MU,
            "--seed": SEEDS,
            "--resource": RESOURCE,
        },
    ),
    "feasibility": (
        {"--mu": pick(["1", "1e4", "1e-300", "1e300"], BAD_FLOAT)},
        {"--gmax": pick(["1.125", "7.3e8", "1e300", "1e-10"], BAD_FLOAT)},
    ),
    "perturb": (
        {},
        {
            "--n": ODD_N,
            "--profile": PROFILE,
            "--mu": MU,
            "--swap": SWAP,
            "--sigma": pick(["0", "1e-3", "0.5", "3"], BAD_FLOAT),
            "--seed": SEEDS,
            "--adjacent": PRESENT,
        },
    ),
    "search": (
        {
            "--n": ODD_N,
            "--restarts": pick(["1"], HUGE_COUNT, ["0", "-1", "x"]),
            "--max-iters": pick(["1", "3", "5"], ["0", "-1", "x", "2.5"]),
        },
        {
            "--seed": SEEDS,
            "--t-min": pick(["0.5", "1"], ["0", "1e-310", "-1", "nan", "inf", "x"]),
            "--t-max": pick(["6"], ["1e-9", "1e-300", "nan", "inf", "x"]),
            "--d-lo": pick(["0.05", "1"], BAD_FLOAT),
            "--d-hi": pick(["3", "4"], BAD_FLOAT),
        },
    ),
}


def json_forms(text):
    """The flag value as JSON of the right type, the wrong type, or none."""
    if text is None:
        return pick([True, False], ["yes", None, 1])
    if isinstance(text, list):
        return pick([text, [_number(t) for t in text]], [text[:1], None, " ".join(text)])
    return pick([text, _number(text)], [None, True, [text], {"value": text}])


def _number(text):
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    always, sometimes = FLAGS[command]
    flags = draw(st.fixed_dictionaries(always, optional=sometimes))
    if command == "evolve" and flags.get("--n") == HUGE_N:
        flags["--t-grid"] = draw(HUGE_N_GRIDS)
    if command == "perturb" and "--sigma" in flags:
        flags["--trials"] = draw(TRIALS)
    in_config = draw(st.sets(st.sampled_from(sorted(flags)))) if flags else set()
    config = {
        flag.lstrip("-").replace("-", "_"): draw(json_forms(flags[flag])) for flag in in_config
    }
    argv = [command]
    for flag, text in flags.items():
        if flag in in_config:
            continue
        argv.append(flag)
        if text is not None:
            argv += text if isinstance(text, list) else [text]
    where = draw(st.sampled_from(["dir"] * 6 + ["missing dir", "missing config"]))
    return argv, config, where


def run_quietly(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    return code, err.getvalue()


@given(case=invocations())
@example(
    case=(
        ["search", "--n", "5", "--restarts", "1", "--t-min", "0", "--t-max", "1e-9"],
        {},
        "dir",
    )
)
@example(case=(["perturb", "--n", "5", "--sigma", "1e-3", "--trials", "1"], {"adjacent": "no"}, "dir"))
@settings(max_examples=200, deadline=None)
def test_every_command_line_ends_in_a_documented_exit_code(case):
    argv, config, where = case
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        dynamics, "_memory_limit_bytes", lambda: 2**30
    ):
        out = Path(tmp) / ("absent" if where == "missing dir" else "") / "payload"
        files = {"PROFILE": Path(tmp) / "profile.json", "RESOURCE": Path(tmp) / "resource.json"}
        write_json(files["PROFILE"], engineered_couplings(5))
        write_json(files["RESOURCE"], {"alpha01": [SQRT_HALF, 0.0], "alpha10": [SQRT_HALF, 0.0]})
        given = {token for token in argv if token.startswith("--")}
        given |= {"--" + key.replace("_", "-") for key in config}
        argv = [str(files.get(token, token)) for token in argv] + ["--out", str(out)]
        config = {key: str(files.get(value, value)) if isinstance(value, str) else value
                  for key, value in config.items()}
        if config or where == "missing config":
            config_path = Path(tmp) / "config.json"
            if where != "missing config":
                config_path.write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(config_path)]
        code, err = run_quietly(argv)
        manifest = out.parent / (out.name + ".manifest.json")

        assert code in {0, 2, 3, 4}, err
        assert "Traceback" not in err
        if not isinstance(config.get("adjacent", False), bool) and where != "missing config":
            assert code == 2, err
        if SOURCE.get(argv[0]) in given and given & {"--n", "--mu"} and where != "missing config":
            assert code == 2, err
        if argv[0] == "perturb" and "--seed" in given and "--sigma" not in given and where != "missing config":
            assert code == 2, err
        if code == 0:
            assert out.exists() and manifest.exists()
        else:
            assert "error:" in err.strip().splitlines()[-1]
        if out.exists():
            assert manifest.exists()
