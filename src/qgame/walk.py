"""Random walk that lands on a requested Pauli correction.

Each step draws one of the four letters uniformly and composes it onto the
running word (phases ignored: corrections only matter mod i**k).  Since
composition mod phase is a group translation, the running word is itself
uniform, so the walk hits any fixed target with chance 1/4 per step and the
survival probability decays as (3/4)**n.  The batch sampler carries many
walks as counts per running code, so its memory does not depend on their
number.
"""

from __future__ import annotations

import numpy as np

from .config import MAX_TRIALS
from .errors import QGameError, ValidationError
from .pauli import LETTERS

DEFAULT_STEP_CAP = 10_000

_CODES = np.arange(len(LETTERS))
_LETTER_LAW = np.full(len(LETTERS), 1.0 / len(LETTERS))


def walk_steps_batch(target, rng: np.random.Generator, trials: int, *,
                     step_cap: int = DEFAULT_STEP_CAP) -> np.ndarray:
    """Step-count histogram of many independent walks, drawn with one generator.

    Entry n of the returned int64 array, of length ``step_cap + 1``, counts
    the walks that hit the target after exactly n steps.  Composition mod
    phase is XOR on the letters' 2-bit codes, their indices in ``LETTERS``,
    so every pending walk sits in one of four running codes and the batch is
    carried by the count of walks in each.  At each step the walks in a code
    split over the four letters by one multinomial draw (codes in ascending
    order), and each share moves to code ``code ^ letter``; the goal code's
    count is that step's hits.  The histogram has the joint law of
    independent per-walk letter draws.  The memory does not depend on
    ``trials``, and the work grows with the longest walk, about
    log(trials) / log(4/3) steps.
    """
    if target not in LETTERS:
        raise ValidationError(f"unknown walk target {target!r}")
    goal_code = LETTERS.index(target)
    if not 1 <= trials <= MAX_TRIALS:
        raise ValidationError(f"trials must be from 1 to {MAX_TRIALS}, got {trials}")
    if step_cap < 1:
        raise ValidationError("step cap must be positive")
    counts = np.zeros(step_cap + 1, dtype=np.int64)
    pending = np.zeros(len(LETTERS), dtype=np.int64)
    pending[0] = trials
    for step in range(step_cap + 1):
        counts[step] = pending[goal_code]
        pending[goal_code] = 0
        if not pending.any() or step == step_cap:
            break
        moved = np.zeros_like(pending)
        for code in np.flatnonzero(pending):
            moved += rng.multinomial(pending[code], _LETTER_LAW)[_CODES ^ code]
        pending = moved
    left = int(pending.sum())
    if left:
        raise QGameError(
            f"{left} of {trials} walks missed the target within {step_cap} steps")
    return counts


def survival_model(n_max: int) -> np.ndarray:
    """Model survival curve: probability of still walking after n steps."""
    if n_max < 0:
        raise ValidationError("n_max must be nonnegative")
    return (3.0 / 4.0) ** np.arange(n_max + 1)


def survival_empirical(counts: np.ndarray, n_max: int) -> np.ndarray:
    """Fraction of walks still unfinished after each n up to n_max.

    ``counts`` is a step-count histogram of at least n_max + 1 entries, as
    ``walk_steps_batch`` returns.  The count of walks past n is exact, and
    dividing it by the trial count gives the same float as the mean of
    ``steps > n`` over the walks.
    """
    counts = np.asarray(counts)
    trials = counts.sum()
    return (trials - np.cumsum(counts[:n_max + 1])) / trials
