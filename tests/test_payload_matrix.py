"""``payload_matrix.py``: ``--compare`` on two small payload directories, and one listing line."""

import hashlib
import json

import pytest

import payload_matrix
from bellchain.serialize import json_digest

COMMANDS = [["couplings", "--n", "9"], ["evolve", "--n", "9", "--t-grid", "0:1:0.5"]]

PROFILE = {"n_sites": 3, "mu": 1.0, "couplings": [0.5, 0.5]}
EVOLVE = "t,re_amp,analytic_valid\n0,0.25,1\n0.5,-0.125,1\n"


def write_payloads(directory, profile=PROFILE, evolve=EVOLVE):
    directory.mkdir()
    (directory / payload_matrix.payload_name(0, COMMANDS[0])).write_text(json.dumps(profile))
    (directory / payload_matrix.payload_name(1, COMMANDS[1])).write_text(evolve)
    return directory


@pytest.fixture(autouse=True)
def two_commands(monkeypatch):
    monkeypatch.setattr(payload_matrix, "COMMANDS", COMMANDS)


def compare(a, b, capsys):
    code = payload_matrix.main(["--compare", str(a), str(b)])
    return code, capsys.readouterr().out.splitlines()


def test_identical_payloads(tmp_path, capsys):
    a, b = write_payloads(tmp_path / "a"), write_payloads(tmp_path / "b")
    assert compare(a, b, capsys) == (0, ["identical  couplings --n 9", "identical  evolve --n 9 --t-grid 0:1:0.5"])


def test_largest_numeric_difference_over_json_numbers_and_csv_cells(tmp_path, capsys):
    a = write_payloads(tmp_path / "a")
    b = write_payloads(
        tmp_path / "b",
        profile={**PROFILE, "couplings": [0.5, 0.5 + 2**-40]},
        evolve=EVOLVE.replace("-0.125", "-0.126"),
    )
    code, lines = compare(a, b, capsys)
    assert code == 0
    assert lines == [
        f"max abs diff {2**-40:.3g}  couplings --n 9",
        f"max abs diff {0.001:.3g}  evolve --n 9 --t-grid 0:1:0.5",
    ]


@pytest.mark.parametrize(
    "profile, evolve, status",
    [
        ({**PROFILE, "mu": None}, EVOLVE, "non-numeric values differ: 1.0 against None"),
        ({**PROFILE, "couplings": [0.5]}, EVOLVE, "shapes differ: 11 against 10 values"),
        (PROFILE, EVOLVE.replace("re_amp", "im_amp"), "non-numeric values differ: 're_amp' against 'im_amp'"),
    ],
)
def test_any_other_difference_fails(tmp_path, capsys, profile, evolve, status):
    a, b = write_payloads(tmp_path / "a"), write_payloads(tmp_path / "b", profile, evolve)
    code, lines = compare(a, b, capsys)
    assert code == 1 and any(line.startswith(f"{status}  ") for line in lines)


def test_missing_payload_fails(tmp_path, capsys):
    a, b = write_payloads(tmp_path / "a"), write_payloads(tmp_path / "b")
    missing = b / payload_matrix.payload_name(1, COMMANDS[1])
    missing.unlink()
    code, lines = compare(a, b, capsys)
    assert code == 1
    assert lines == ["identical  couplings --n 9", f"missing {missing}  evolve --n 9 --t-grid 0:1:0.5"]


def test_format_flag_sets_the_payload_suffix(tmp_path, capsys, monkeypatch):
    command = ["couplings", "--n", "9", "--format", "csv"]
    monkeypatch.setattr(payload_matrix, "COMMANDS", [command])
    assert payload_matrix.payload_name(0, command) == "00-couplings.csv"
    for name, cell in (("a", "0.5"), ("b", "0.625")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "00-couplings.csv").write_text(f"index,coupling\n1,{cell}\n")
    assert compare(tmp_path / "a", tmp_path / "b", capsys) == (0, ["max abs diff 0.125  couplings --n 9 --format csv"])


def test_listing_prints_the_payload_sha256_and_the_config_digest(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(payload_matrix, "COMMANDS", COMMANDS[:1])
    assert payload_matrix.main([str(tmp_path)]) == 0
    payload = (tmp_path / payload_matrix.payload_name(0, COMMANDS[0])).read_bytes()
    digest = json_digest({"command": "couplings", "format": "json", "mu": 1.0, "n": 9})
    assert capsys.readouterr().out == f"{hashlib.sha256(payload).hexdigest()}  {digest}  couplings --n 9\n"
