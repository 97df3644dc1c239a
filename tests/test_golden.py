"""Golden JSON reports: every command at a fixed seed, byte for byte.

The files under ``tests/golden/`` were rendered before the synthesis layer
was rewritten around its chain table; a refactor that moves any digit of
any report fails here.  Paths in argv are relative to the repository root,
because the market and qfa reports echo them back.
"""

from pathlib import Path

import pytest

from qgame.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

CASES = {
    "verify_seed0": (["verify", "--seed", "0"], 0),
    "verify_seed7_only_transfer": (["verify", "--seed", "7", "--only", "transfer"], 0),
    "verify_seed123_corrupt": (["verify", "--seed", "123", "--corrupt", "0.01"], 1),
    "newcomb": (["newcomb"], 0),
    "gamble": (["gamble"], 0),
    "walk": (["walk"], 0),
    "market_gaussian": (["market", "docs/examples/gaussian.json"], 0),
    "market_wave": (["market", "docs/examples/wave.json"], 0),
    "qfa_flip_aa": (["qfa", "docs/examples/flip_automaton.json", "--word", "aa"], 0),
}


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    argv, expected_code = CASES[name]
    monkeypatch.chdir(ROOT)
    out = tmp_path / f"{name}.json"
    code = main([*argv, "--output", "json", "--out", str(out)])
    assert code == expected_code
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
