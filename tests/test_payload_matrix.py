"""``payload_matrix.py --compare`` on two small payload directories."""

import json

import pytest

import payload_matrix

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
