"""Random-walk correction draws against the geometric model."""

import tracemalloc

import numpy as np
import pytest

from qgame import StepCapError, ValidationError
from qgame import walk as walk_module
from qgame.pauli import LETTERS, PauliTag
from qgame.walk import (
    DEFAULT_STEP_CAP,
    MAX_TRIALS,
    survival_empirical,
    survival_model,
    walk_steps_batch,
)

TRIALS = 100_000


@pytest.fixture(scope="module")
def batch_counts():
    rng = np.random.default_rng(314159)
    return walk_steps_batch("X'", rng, TRIALS)


def _mean_steps(counts):
    return float(np.arange(counts.size) @ counts) / counts.sum()


def _reference_steps(target, rng):
    """Steps of one walk that composes a uniform letter per draw until it
    equals the target mod phase."""
    word, steps = PauliTag(("I",)), 0
    while word.letters != (target,):
        word = PauliTag((LETTERS[int(rng.integers(4))],)).compose(word)
        steps += 1
    return steps


def test_histogram_counts_every_walk_once(batch_counts):
    assert batch_counts.dtype == np.int64
    assert batch_counts.shape == (DEFAULT_STEP_CAP + 1,)
    assert batch_counts.sum() == TRIALS
    assert batch_counts[0] == 0


def test_first_step_hit_rate_is_a_quarter(batch_counts):
    rate = float(batch_counts[1]) / TRIALS
    sigma = np.sqrt(0.25 * 0.75 / TRIALS)
    assert abs(rate - 0.25) < 4 * sigma


def test_mean_steps_is_four(batch_counts):
    # Geometric with p = 1/4: mean 4, variance 12.
    mean = _mean_steps(batch_counts)
    sigma = np.sqrt(12.0 / TRIALS)
    assert abs(mean - 4.0) < 4 * sigma


def test_survival_curve_tracks_three_quarters_power(batch_counts):
    n_max = 20
    empirical = survival_empirical(batch_counts, n_max)
    model = survival_model(n_max)
    for n in range(n_max + 1):
        sigma = np.sqrt(max(model[n] * (1 - model[n]), 1e-12) / TRIALS)
        assert abs(empirical[n] - model[n]) <= 4 * sigma + 1e-12, f"n={n}"


def test_walking_to_identity_takes_no_steps():
    counts = walk_steps_batch("I", np.random.default_rng(1), 100)
    assert counts[0] == 100 and not counts[1:].any()


@pytest.mark.parametrize("left", LETTERS)
@pytest.mark.parametrize("right", LETTERS)
def test_xor_of_codes_is_tag_composition_mod_phase(left, right):
    # The batch walker composes running words by XOR on LETTERS indices.
    composed = PauliTag((left,)).compose(PauliTag((right,)))
    assert LETTERS[LETTERS.index(left) ^ LETTERS.index(right)] == composed.letters[0]


def test_single_and_batch_walkers_agree_in_distribution():
    rng = np.random.default_rng(11)
    singles = np.array([_reference_steps("X", rng) for _ in range(4000)])
    batch = walk_steps_batch("X", np.random.default_rng(12), 4000)
    # Same geometric law: compare means within joint 4-sigma.
    sigma = np.sqrt(12.0 / 4000)
    assert abs(singles.mean() - _mean_steps(batch)) < 4 * sigma * np.sqrt(2)


def test_step_cap_raises_a_structured_error():
    # Seed 2's first letter is not X, so a single walk capped at one step
    # misses; seed 1's first letter is X.
    with pytest.raises(StepCapError) as excinfo:
        walk_steps_batch("X", np.random.default_rng(2), 1, step_cap=1)
    assert excinfo.value.steps == 1
    counts = walk_steps_batch("X", np.random.default_rng(1), 1, step_cap=1)
    assert counts.tolist() == [0, 1]


def test_batch_step_cap_raises_when_exhausted():
    with pytest.raises(StepCapError) as excinfo:
        # Cap of 1 with many trials: some walk always needs a second draw.
        walk_steps_batch("X", np.random.default_rng(3), 1000, step_cap=1)
    assert excinfo.value.steps == 1


def _batch_with_block(monkeypatch, block, window, step_cap):
    """Step histogram (or the cap error) and the generator state after one batch."""
    monkeypatch.setattr(walk_module, "_BLOCK", block)
    monkeypatch.setattr(walk_module, "_WINDOW", window)
    rng = np.random.default_rng(2718)
    try:
        result = walk_steps_batch("X", rng, TRIALS, step_cap=step_cap)
    except StepCapError as exc:
        result = (str(exc), exc.steps)
    return result, rng.bit_generator.state


@pytest.mark.parametrize("window, step_cap, capped", [
    pytest.param(walk_module._WINDOW, DEFAULT_STEP_CAP, False, id="uncapped"),
    pytest.param(walk_module._WINDOW, 5, True, id="cap5"),
    # Windows of 7 steps: several windows, a last one 2 steps wide, then the cap.
    pytest.param(7, 30, True, id="window7-cap30"),
])
def test_batch_does_not_depend_on_the_block_size(monkeypatch, window, step_cap, capped):
    # Block draws continue one stream, so only the window fixes the draw order.
    runs = [_batch_with_block(monkeypatch, block, window, step_cap)
            for block in (3, 1000, walk_module._BLOCK)]
    (first, state), rest = runs[0], runs[1:]
    assert isinstance(first, tuple) == capped
    for result, other_state in rest:
        if capped:
            assert result == first
        else:
            np.testing.assert_array_equal(result, first)
        assert other_state == state


def _per_trial_reference(goal_code, rng, trials, step_cap):
    """The step count of every walk, kept by trial index: the same windows of
    draws, block by block over the pending walks in trial order."""
    steps = np.zeros(trials, dtype=np.int64)
    pending = np.arange(trials)
    carry = np.zeros(trials, dtype=np.int64)
    offset = 0
    while pending.size and offset < step_cap:
        width = min(walk_module._WINDOW, step_cap - offset)
        survivors = []
        for start in range(0, pending.size, walk_module._BLOCK):
            rows = pending[start:start + walk_module._BLOCK]
            running = rng.integers(4, size=(rows.size, width))
            running = np.bitwise_xor.accumulate(running, axis=1) ^ carry[rows, None]
            hits = running == goal_code
            any_hit = hits.any(axis=1)
            steps[rows[any_hit]] = offset + np.argmax(hits, axis=1)[any_hit] + 1
            carry[rows] = running[:, -1]
            survivors.append(rows[~any_hit])
        pending = np.concatenate(survivors)
        offset += width
    return steps, pending.size


@pytest.mark.parametrize("trials, block, window, step_cap", [
    (1, walk_module._BLOCK, walk_module._WINDOW, DEFAULT_STEP_CAP),
    (1000, 7, walk_module._WINDOW, DEFAULT_STEP_CAP),
    (TRIALS, walk_module._BLOCK, walk_module._WINDOW, DEFAULT_STEP_CAP),
    (TRIALS, 1000, 3, 40),
    (TRIALS, walk_module._BLOCK, walk_module._WINDOW, 20),
])
def test_histogram_is_the_per_trial_walk_binned(monkeypatch, trials, block, window,
                                                step_cap):
    # The pending walks' codes, kept in trial order without their indices,
    # continue the same draws: the same histogram and generator end state.
    monkeypatch.setattr(walk_module, "_BLOCK", block)
    monkeypatch.setattr(walk_module, "_WINDOW", window)
    rng, reference_rng = np.random.default_rng(99), np.random.default_rng(99)
    steps, missed = _per_trial_reference(LETTERS.index("X"), reference_rng,
                                         trials, step_cap)
    try:
        counts = walk_steps_batch("X", rng, trials, step_cap=step_cap)
    except StepCapError as exc:
        assert str(exc).startswith(f"{missed} of {trials} walks missed")
    else:
        assert missed == 0
        np.testing.assert_array_equal(
            counts, np.bincount(steps, minlength=step_cap + 1))
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def _traced_peak(trials):
    tracemalloc.start()
    try:
        walk_steps_batch("X", np.random.default_rng(5), trials)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_memory_does_not_grow_with_trials():
    # One block of draws plus one byte per walk that outlives a window, about
    # 10**5 bytes at 10**6 trials; per-trial bookkeeping would add megabytes.
    assert abs(_traced_peak(10**6) - _traced_peak(10**5)) < 10**6


def test_bad_targets_and_caps_are_rejected():
    rng = np.random.default_rng(4)
    with pytest.raises(ValidationError):
        walk_steps_batch("Z", rng, 10)
    with pytest.raises(ValidationError):
        walk_steps_batch("X", rng, 0)
    with pytest.raises(ValidationError):
        walk_steps_batch("X", rng, 10, step_cap=0)


def test_trials_past_the_cap_are_refused_before_any_work():
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    for trials in (MAX_TRIALS + 1, 10**19):
        with pytest.raises(ValidationError, match="trials"):
            walk_steps_batch("X", rng, trials)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("n_max", [0, 1, 20, 200])
def test_survival_histogram_equals_the_mean_per_horizon(batch_counts, n_max):
    # The per-horizon means of the step counts themselves: the same floats.
    batch_steps = np.repeat(np.arange(batch_counts.size), batch_counts)
    for steps in (batch_steps, np.array([0, 0, 3, 7, 10_000]), np.array([5])):
        expected = np.array([np.mean(steps > n) for n in range(n_max + 1)])
        counts = np.bincount(steps, minlength=n_max + 1)
        assert survival_empirical(counts, n_max).tobytes() == expected.tobytes()


def test_survival_model_inputs():
    assert survival_model(0)[0] == 1.0
    assert survival_model(1)[1] == pytest.approx(0.75, abs=1e-15)
    with pytest.raises(ValidationError):
        survival_model(-1)
