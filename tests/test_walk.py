"""Random-walk correction draws against the geometric model."""

import functools
import tracemalloc

import numpy as np
import pytest

from qgame import QGameError, ValidationError
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


# Two-sample chi-square of step counts in bins 1, 2, ..., 8 and 9 or more:
# 8 degrees of freedom, whose 0.999 quantile is 26.12.
_CHI2_BINS = 9
_CHI2_BOUND = 26.12


def _binned(steps_histogram):
    binned = steps_histogram[1:_CHI2_BINS + 1].astype(float)
    binned[-1] = steps_histogram[_CHI2_BINS:].sum()
    return binned


def _two_sample_chi2(first, second):
    n, m = first.sum(), second.sum()
    scale_first, scale_second = np.sqrt(m / n), np.sqrt(n / m)
    return float(np.sum((scale_first * first - scale_second * second) ** 2
                        / (first + second)))


@functools.lru_cache(maxsize=None)
def _reference_histogram(target):
    rng = np.random.default_rng(27182)
    return np.bincount([_reference_steps(target, rng) for _ in range(20_000)])


@pytest.mark.parametrize("target", ["X", "X'", "X''"])
@pytest.mark.parametrize("layout", ["one_batch", "single_walk_per_seed"])
def test_histogram_matches_the_reference_walk_in_distribution(target, layout):
    # _reference_steps composes PauliTags one letter at a time, with no XOR
    # codes and no counts, so it checks the sampler's law independently.
    if layout == "one_batch":
        samples = 20_000
        counts = walk_steps_batch(target, np.random.default_rng(31415), samples)
    else:
        samples = 4000
        counts = sum(walk_steps_batch(target, np.random.default_rng(seed), 1)
                     for seed in range(samples))
    assert counts[0] == 0 and counts.sum() == samples
    statistic = _two_sample_chi2(_binned(counts), _binned(_reference_histogram(target)))
    assert statistic < _CHI2_BOUND


def test_step_cap_raises_an_error():
    # Seed 2's first letter is not X, so a single walk capped at one step
    # misses; seed 1's first letter is X.
    with pytest.raises(QGameError, match="^1 of 1 walks missed the target within 1 steps$"):
        walk_steps_batch("X", np.random.default_rng(2), 1, step_cap=1)
    counts = walk_steps_batch("X", np.random.default_rng(1), 1, step_cap=1)
    assert counts.tolist() == [0, 1]


def test_batch_step_cap_raises_when_exhausted():
    # Cap of 1 with many trials: some walk always needs a second draw.
    with pytest.raises(QGameError, match=r"^\d+ of 1000 walks missed the target within 1 steps$"):
        walk_steps_batch("X", np.random.default_rng(3), 1000, step_cap=1)


def _traced_peak(trials):
    tracemalloc.start()
    try:
        walk_steps_batch("X", np.random.default_rng(5), trials)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_memory_does_not_grow_with_trials():
    # The sampler holds four per-code counts and the histogram, whatever the
    # trial count; one byte per walk would be 9 PB at 2**53 trials.
    assert abs(_traced_peak(2**53) - _traced_peak(10**6)) < 10**6


@pytest.mark.parametrize("trials", [1, 10**6, 2**53])
def test_histogram_sums_to_the_trial_count(trials):
    counts = walk_steps_batch("X''", np.random.default_rng(6), trials)
    assert counts.dtype == np.int64
    assert int(counts.sum()) == trials


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
