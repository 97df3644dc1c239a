"""Seeded operation mixes for the three benchmark workloads.

Every workload is a closed loop with one client that runs a fixed cycle of
operations over and over.  The workload seed fixes each operation's
arguments and input files, so the same seed gives the same argv.  The
program only ever sees the argv built here and the files written by
``make_inputs``.

A cycle always holds the same mix of subcommands, whatever the seed, so
the seed moves arguments but not the share of time each layer gets.  A
run measures whole cycles, so the mix is exact in every run.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("cold_cli", "warm_exact", "bulk_arrays")

# Alphabet of docs/examples/flip_automaton.json.
_QFA_SYMBOLS = "a"
_BREAKERS = ("absent", "I", "NOT", "qutrojan")


@dataclass(frozen=True)
class Op:
    """One qgame invocation: its arguments (without ``--out``) and the exit
    code a correct program returns for them."""

    argv: tuple[str, ...]
    expected_exit: int = 0

    @property
    def output_format(self) -> str:
        return self.argv[self.argv.index("--output") + 1]


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


def _num(value: float) -> str:
    return repr(float(value))


def make_inputs(workload: str, seed: int, root: Path, work: Path) -> dict[str, str]:
    """Write the workload's input files under ``work`` and return their paths."""
    work.mkdir(parents=True, exist_ok=True)
    rng = _rng(workload, seed, "inputs")
    strategy = {
        "kind": "gaussian",
        "mean": round(rng.uniform(-1.5, 1.5), 6),
        "spread": round(rng.uniform(0.6, 1.0), 6),
        "q_min": -8.0,
        "q_max": 8.0,
        "n_points": 512,
    }
    gaussian = work / "gaussian.json"
    gaussian.write_text(json.dumps(strategy, indent=2) + "\n")
    return {"gaussian": str(gaussian),
            "automaton": str(root / "docs" / "examples" / "flip_automaton.json")}


def warmup_op(workload: str, seed: int, inputs: dict[str, str]) -> Op:
    """The untimed operation that ends set-up."""
    if workload == "cold_cli":
        return Op(("newcomb", "--output", "json"))
    if workload == "warm_exact":
        return _verify(_rng(workload, seed, "verify"))
    return Op(("market", inputs["gaussian"], "--grid", "2048", "--output", "json"))


def _verify(rng: random.Random) -> Op:
    return Op(("verify", "--seed", str(rng.randrange(10**6)), "--output", "json"))


def _newcomb(rng: random.Random) -> Op:
    return Op(("newcomb", "--control", str(rng.randrange(2)),
               "--breaker", rng.choice(_BREAKERS), "--output", "json"))


def _gamble(rng: random.Random, *extra: str) -> Op:
    return Op(("gamble", *extra, "--theta", _num(rng.uniform(0.0, math.pi / 2)),
               "--p-verify", _num(rng.uniform(0.0, 1.0)),
               "--reward", _num(rng.uniform(0.5, 3.0)),
               "--seed", str(rng.randrange(10**6)), "--output", "json"))


def _qfa(rng: random.Random, automaton: str) -> Op:
    words = []
    for _ in range(rng.randint(2, 5)):
        words += ["--word", "".join(rng.choice(_QFA_SYMBOLS)
                                    for _ in range(rng.randint(0, 12)))]
    return Op(("qfa", automaton, *words, "--output", "json"))


def cycles(workload: str, seed: int, inputs: dict[str, str]):
    """Yield the workload's cycles, each a list of operations, forever.

    Every cycle repeats the same argv except ``verify --corrupt``, whose
    phase error is drawn fresh for every operation so that its gate set
    never repeats.
    """
    rng = _rng(workload, seed, "ops")
    if workload == "cold_cli":
        # Three ledgers among eight operations, so the 75th percentile
        # falls on a verify run: the slow subcommand sets the tail.
        cycle = [_verify(rng), _newcomb(rng), _verify(rng), _gamble(rng),
                 Op(("walk", "--seed", str(rng.randrange(10**6)),
                     "--output", "json")),
                 _verify(rng), Op(("market", inputs["gaussian"], "--output", "json")),
                 _qfa(rng, inputs["automaton"])]
        while True:
            yield cycle
    elif workload == "warm_exact":
        clean = [_verify(_rng(workload, seed, "verify"))] + [_verify(rng) for _ in range(2)]
        others = [_gamble(rng, "--sweep"), _newcomb(rng), _qfa(rng, inputs["automaton"])]
        corrupt_rng = _rng(workload, seed, "corrupt")
        while True:
            corrupt = [Op(("verify", "--seed", str(corrupt_rng.randrange(10**6)),
                           "--corrupt", _num(corrupt_rng.uniform(1e-3, 0.5)),
                           "--output", "json"), expected_exit=1)
                       for _ in range(2)]
            yield [clean[0], corrupt[0], others[0], clean[1], others[1],
                   corrupt[1], clean[2], others[2]]
    elif workload == "bulk_arrays":
        cycle = [Op(("market", inputs["gaussian"], "--grid", "1024", "--output", "csv")),
                 Op(("market", inputs["gaussian"], "--grid", "2048", "--output", "json")),
                 Op(("walk", "--trials", "1000000", "--seed", str(rng.randrange(10**6)),
                     "--output", "json"))]
        while True:
            yield cycle
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
