"""Golden reports: every command at a fixed seed, byte for byte.

Each file under ``tests/golden/`` is named after its case, and its suffix
picks the rendering (``.json``, ``.csv`` or ``.txt``).  The files were
rendered before the code they pin was rewritten; a refactor that moves any
digit of any report fails here.  Paths in argv are relative to the
repository root, because the market and qfa reports echo them back.
"""

from pathlib import Path

import pytest

from qgame.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
FORMATS = {".json": "json", ".csv": "csv", ".txt": "text"}

CASES = {
    "verify_seed0": (["verify", "--seed", "0"], 0),
    "verify_seed7_only_transfer": (["verify", "--seed", "7", "--only", "transfer"], 0),
    "verify_seed123_corrupt": (["verify", "--seed", "123", "--corrupt", "0.01"], 1),
    "newcomb": (["newcomb"], 0),
    "gamble": (["gamble"], 0),
    "walk": (["walk"], 0),
    "walk_trials100000": (["walk", "--trials", "100000"], 0),
    "market_gaussian": (["market", "docs/examples/gaussian.json"], 0),
    "market_gaussian_grid64": (["market", "docs/examples/gaussian.json", "--grid", "64"], 0),
    "market_wave": (["market", "docs/examples/wave.json"], 0),
    "qfa_flip_aa": (["qfa", "docs/examples/flip_automaton.json", "--word", "aa"], 0),
}


def test_every_golden_file_has_a_case():
    files = list(GOLDEN.glob("*"))
    assert all(p.suffix in FORMATS for p in files)
    assert sorted(p.stem for p in files) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    argv, expected_code = CASES[name]
    (golden,) = GOLDEN.glob(f"{name}.*")
    monkeypatch.chdir(ROOT)
    out = tmp_path / golden.name
    code = main([*argv, "--output", FORMATS[golden.suffix], "--out", str(out)])
    assert code == expected_code
    assert out.read_bytes() == golden.read_bytes()
