"""Random-walk correction draws against the geometric model."""

import tracemalloc

import numpy as np
import pytest

from qgame import StepCapError, ValidationError
from qgame import walk as walk_module
from qgame.pauli import PauliTag
from qgame.walk import (
    DEFAULT_STEP_CAP,
    pauli_walk,
    survival_empirical,
    survival_model,
    walk_steps_batch,
)

TRIALS = 100_000


@pytest.fixture(scope="module")
def batch_steps():
    rng = np.random.default_rng(314159)
    return walk_steps_batch("X'", rng, TRIALS)


def test_first_step_hit_rate_is_a_quarter(batch_steps):
    rate = float(np.mean(batch_steps == 1))
    sigma = np.sqrt(0.25 * 0.75 / TRIALS)
    assert abs(rate - 0.25) < 4 * sigma


def test_mean_steps_is_four(batch_steps):
    # Geometric with p = 1/4: mean 4, variance 12.
    mean = float(batch_steps.mean())
    sigma = np.sqrt(12.0 / TRIALS)
    assert abs(mean - 4.0) < 4 * sigma


def test_survival_curve_tracks_three_quarters_power(batch_steps):
    n_max = 20
    empirical = survival_empirical(batch_steps, n_max)
    model = survival_model(n_max)
    for n in range(n_max + 1):
        sigma = np.sqrt(max(model[n] * (1 - model[n]), 1e-12) / TRIALS)
        assert abs(empirical[n] - model[n]) <= 4 * sigma + 1e-12, f"n={n}"


def test_walking_to_identity_takes_no_steps():
    rng = np.random.default_rng(1)
    result = pauli_walk("I", rng)
    assert result.steps == 0 and result.trace == ()
    assert np.all(walk_steps_batch("I", rng, 100) == 0)
    started_there = pauli_walk("X''", rng, initial="X''")
    assert started_there.steps == 0


def test_single_walk_trace_composes_to_the_target():
    rng = np.random.default_rng(77)
    for target in ("X", "X'", "X''"):
        result = pauli_walk(target, rng)
        accumulated = PauliTag.single("I")
        for letter in result.trace:
            accumulated = PauliTag.single(letter).compose(accumulated)
        assert accumulated.same_mod_phase(PauliTag.single(target))
        assert result.steps == len(result.trace)


def test_single_and_batch_walkers_agree_in_distribution():
    rng = np.random.default_rng(11)
    singles = np.array([pauli_walk("X", rng).steps for _ in range(4000)])
    batch = walk_steps_batch("X", np.random.default_rng(12), 4000)
    # Same geometric law: compare means within joint 4-sigma.
    sigma = np.sqrt(12.0 / 4000)
    assert abs(singles.mean() - batch.mean()) < 4 * sigma * np.sqrt(2)


def test_step_cap_raises_a_structured_error():
    # Seed 2 opens with letter code 3, so a cap of one step cannot reach X.
    with pytest.raises(StepCapError) as excinfo:
        pauli_walk("X", np.random.default_rng(2), step_cap=1)
    assert excinfo.value.steps == 1


def test_batch_step_cap_raises_when_exhausted():
    with pytest.raises(StepCapError):
        # Cap of 1 with many trials: some walk always needs a second draw.
        walk_steps_batch("X", np.random.default_rng(3), 1000, step_cap=1)


def _batch_with_block(monkeypatch, block, window, step_cap):
    """Step counts (or the cap error) and the generator state after one batch."""
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


def test_batch_memory_does_not_grow_with_trials():
    # One block of draws plus O(trials) bookkeeping; a single trials x 64
    # window of int64 draws would be 512 MB here.
    tracemalloc.start()
    try:
        walk_steps_batch("X", np.random.default_rng(5), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 10**6


def test_bad_targets_and_caps_are_rejected():
    rng = np.random.default_rng(4)
    with pytest.raises(ValidationError):
        pauli_walk("Z", rng)
    with pytest.raises(ValidationError):
        pauli_walk(PauliTag(("X", "X")), rng)
    with pytest.raises(ValidationError):
        pauli_walk("X", rng, step_cap=0)
    with pytest.raises(ValidationError):
        walk_steps_batch("X", rng, 0)


def test_survival_model_inputs():
    assert survival_model(0)[0] == 1.0
    assert survival_model(1)[1] == pytest.approx(0.75, abs=1e-15)
    with pytest.raises(ValidationError):
        survival_model(-1)
