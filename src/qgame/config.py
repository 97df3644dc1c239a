"""Shared numerical tolerances, capacity limits, and RNG helpers."""

import numpy as np

# Tolerance ladder.  Algebraic identities between constant matrices are held
# to ATOL_ALGEBRA; anything built from a chain of projections and gates gets
# ATOL_CIRCUIT.
ATOL_ALGEBRA = 1e-12
ATOL_CIRCUIT = 1e-10

# Branches (and trades) below this probability are treated as unrealizable.
PROB_EPS = 1e-14

# Widest register or operator, in qubits.  The widest chain register has 3
# wires and Pauli-word matching stops at 4.
MAX_QUBITS = 8

# Largest trial count a sampler takes, so that every count is an exact float.
MAX_TRIALS = 2**53


def seeded_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for stream ``stream`` of a run seeded by ``seed``.

    Independent subtasks of one run should each grab their own stream index;
    the (seed, stream) pair fully determines the draw sequence.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), int(stream)]))
