"""Random walk that lands on a requested Pauli correction.

Each step draws one of the four letters uniformly and composes it onto the
running word (phases ignored: corrections only matter mod i**k).  Since
composition mod phase is a group translation, the running word is itself
uniform, so the walk hits any fixed target with chance 1/4 per step and the
survival probability decays as (3/4)**n.
"""

from __future__ import annotations

import numpy as np

from .errors import StepCapError, ValidationError
from .pauli import LETTERS

DEFAULT_STEP_CAP = 10_000
# The batch sampler's trial cap.  It bounds a run's time, not its memory:
# beside one block of draws the sampler keeps one byte per walk that outlives
# a window, about a tenth of the walks.
MAX_TRIALS = 10_000_000

# The batch sampler draws windows of _WINDOW steps for at most _BLOCK pending
# walks at a time.  Consecutive block draws continue one generator stream, so
# the step counts do not depend on _BLOCK, and the draw buffers stay bounded
# whatever the trial count.  A walk hits in 4 steps on average and outlives a
# window of 8 with chance (3/4)**8 = 0.1, so it draws about 8.9 letters; a
# wider window draws letters that no walk reads, a narrower one adds passes.
_WINDOW = 8
_BLOCK = 1 << 15


def walk_steps_batch(target, rng: np.random.Generator, trials: int, *,
                     step_cap: int = DEFAULT_STEP_CAP) -> np.ndarray:
    """Step-count histogram of many independent walks, drawn with one generator.

    Entry n of the returned int64 array, of length ``step_cap + 1``, counts
    the walks that hit the target after exactly n steps.  The letter draws
    are honest (each walk composes uniform letters until it hits);
    composition mod phase reduces to XOR on the letters' 2-bit codes, their
    indices in ``LETTERS``, which is what lets the whole batch run as array
    operations.  Between windows only the running codes of the walks still
    pending are kept, one byte each, and the draws are bounded by one block
    of ``_BLOCK`` walks.
    """
    if target not in LETTERS:
        raise ValidationError(f"unknown walk target {target!r}")
    goal_code = LETTERS.index(target)
    if not 1 <= trials <= MAX_TRIALS:
        raise ValidationError(f"trials must be from 1 to {MAX_TRIALS}, got {trials}")
    if step_cap < 1:
        raise ValidationError("step cap must be positive")
    counts = np.zeros(step_cap + 1, dtype=np.int64)
    if goal_code == 0:
        counts[0] = trials
        return counts
    # The first window starts every walk from code 0; later ones resume the
    # pending walks, in trial order, from their running codes.
    pending, carry = trials, None
    offset = 0
    while pending and offset < step_cap:
        width = min(_WINDOW, step_cap - offset)
        survivors = []
        for start in range(0, pending, _BLOCK):
            size = min(_BLOCK, pending - start)
            running = rng.integers(4, size=(size, width))
            np.bitwise_xor.accumulate(running, axis=1, out=running)
            if carry is not None:
                running ^= carry[start:start + size, None]
            hits = running == goal_code
            any_hit = hits.any(axis=1)
            first = np.argmax(hits[any_hit], axis=1)
            counts[offset + 1:offset + 1 + width] += np.bincount(first, minlength=width)
            survivors.append(running[~any_hit, -1].astype(np.uint8))
        carry = np.concatenate(survivors)
        pending = carry.size
        offset += width
    if pending:
        raise StepCapError(
            f"{pending} of {trials} walks missed the target within {step_cap} steps",
            steps=step_cap,
        )
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
