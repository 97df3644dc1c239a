"""Random walk that lands on a requested Pauli correction.

Each step draws one of the four letters uniformly and composes it onto the
running word (phases ignored: corrections only matter mod i**k).  Since
composition mod phase is a group translation, the running word is itself
uniform, so the walk hits any fixed target with chance 1/4 per step and the
survival probability decays as (3/4)**n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StepCapError, ValidationError
from .pauli import LETTERS, PauliTag

DEFAULT_STEP_CAP = 10_000

# Letters as 2-bit codes in LETTERS order: composition mod phase is bitwise XOR.
_CODE = {letter: code for code, letter in enumerate(LETTERS)}


def _as_target(target) -> str:
    if isinstance(target, PauliTag):
        if target.n_qubits != 1:
            raise ValidationError("walk targets are single-letter words")
        return target.letters[0]
    if target in LETTERS:
        return str(target)
    raise ValidationError(f"unknown walk target {target!r}")


@dataclass(frozen=True)
class WalkResult:
    """Trace of one walk: the letters drawn and the step count."""

    target: str
    steps: int
    trace: tuple[str, ...]


def pauli_walk(target, rng: np.random.Generator, *, initial: str = "I",
               step_cap: int = DEFAULT_STEP_CAP) -> WalkResult:
    """Draw letters until the accumulated word equals ``target`` mod phase.

    Starting already on target counts as zero steps.  A walk that survives
    ``step_cap`` draws raises :class:`StepCapError`.
    """
    goal = _as_target(target)
    start = _as_target(initial)
    if step_cap < 1:
        raise ValidationError("step cap must be positive")
    accumulated = PauliTag.single(start)
    if accumulated.same_mod_phase(PauliTag.single(goal)):
        return WalkResult(target=goal, steps=0, trace=())
    trace = []
    for step in range(1, step_cap + 1):
        letter = LETTERS[int(rng.integers(4))]
        trace.append(letter)
        accumulated = PauliTag.single(letter).compose(accumulated)
        if accumulated.same_mod_phase(PauliTag.single(goal)):
            return WalkResult(target=goal, steps=step, trace=tuple(trace))
    raise StepCapError(f"no hit on {goal!r} within {step_cap} steps", steps=step_cap)


def walk_steps_batch(target, rng: np.random.Generator, trials: int, *,
                     step_cap: int = DEFAULT_STEP_CAP) -> np.ndarray:
    """Step counts of many independent walks, drawn with one generator.

    The letter draws are honest (each walk composes uniform letters until it
    hits); composition mod phase reduces to XOR on 2-bit codes, which is what
    lets the whole batch run as array operations.
    """
    goal_code = _CODE[_as_target(target)]
    if trials < 1:
        raise ValidationError("need at least one trial")
    if goal_code == 0:
        return np.zeros(trials, dtype=np.int64)
    steps = np.zeros(trials, dtype=np.int64)
    pending = np.arange(trials)
    carry = np.zeros(trials, dtype=np.int64)
    window = 64
    offset = 0
    while pending.size and offset < step_cap:
        width = min(window, step_cap - offset)
        draws = rng.integers(4, size=(pending.size, width))
        running = carry[pending, None] ^ np.bitwise_xor.accumulate(draws, axis=1)
        hits = running == goal_code
        any_hit = hits.any(axis=1)
        first = np.argmax(hits, axis=1)
        steps[pending[any_hit]] = offset + first[any_hit] + 1
        carry[pending] = running[:, -1]
        pending = pending[~any_hit]
        offset += width
    if pending.size:
        raise StepCapError(
            f"{pending.size} of {trials} walks missed the target within {step_cap} steps",
            steps=step_cap,
        )
    return steps


def survival_model(n_max: int) -> np.ndarray:
    """Model survival curve: probability of still walking after n steps."""
    if n_max < 0:
        raise ValidationError("n_max must be nonnegative")
    return (3.0 / 4.0) ** np.arange(n_max + 1)


def survival_empirical(steps: np.ndarray, n_max: int) -> np.ndarray:
    """Fraction of walks still unfinished after each n up to n_max."""
    steps = np.asarray(steps)
    return np.array([np.mean(steps > n) for n in range(n_max + 1)])
