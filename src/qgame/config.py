"""Shared numerical tolerances, capacity limits, and RNG helpers."""

import os

import numpy as np

from .errors import ValidationError

# Tolerance ladder.  Algebraic identities between constant matrices are held
# to ATOL_ALGEBRA; anything built from a chain of projections and gates gets
# ATOL_CIRCUIT; quadrature on sampled grids gets ATOL_QUAD.
ATOL_ALGEBRA = 1e-12
ATOL_CIRCUIT = 1e-10
ATOL_QUAD = 1e-6

# Branches (and trades) below this probability are treated as unrealizable.
PROB_EPS = 1e-14

DEFAULT_MAX_QUBITS = 8
_MAX_QUBITS_ENV = "QGAME_MAX_QUBITS"


def max_qubits() -> int:
    """Current qubit budget, read from QGAME_MAX_QUBITS if set.

    A value that is not a positive integer raises ValidationError, which is
    also a ValueError.
    """
    raw = os.environ.get(_MAX_QUBITS_ENV)
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{_MAX_QUBITS_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValidationError(f"{_MAX_QUBITS_ENV} must be positive, got {value}")
    return value


def seeded_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for stream ``stream`` of a run seeded by ``seed``.

    Independent subtasks of one run should each grab their own stream index;
    the (seed, stream) pair fully determines the draw sequence.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), int(stream)]))
