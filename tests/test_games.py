"""Prediction circuit, verified gambling, and automaton runner."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame import ValidationError
from qgame.config import seeded_rng
from qgame.gates import H, NOT
from qgame.games import (
    GambleParams,
    NewcombConfig,
    QFA,
    gvw_audit_response,
    gvw_best_response,
    gvw_expected_payoffs,
    gvw_fair_point,
    gvw_simulate,
    newcomb_run,
    qfa_run,
)
from qgame.inputs import qfa_from_dict

from random_matrices import random_unitary


class TestNewcomb:
    @pytest.mark.parametrize("control,breaker,winner", [
        (1, "absent", 1),   # alliance copies the opening onto the watcher
        (1, "I", 1),
        (1, "NOT", 0),      # pre-flip cancels the alliance flip up to sign
        (0, "absent", 0),
        (0, "I", 0),
        (0, "NOT", 1),
        (0, "qutrojan", 0),  # sandwiched alliance acts diagonally
        (1, "qutrojan", 0),
    ])
    def test_deterministic_outcomes(self, control, breaker, winner):
        law = newcomb_run(NewcombConfig(control=control, breaker=breaker))
        assert law[winner] == pytest.approx(1.0, abs=1e-12)
        assert law[1 - winner] == pytest.approx(0.0, abs=1e-12)

    def test_laws_are_normalized(self):
        for control in (0, 1):
            for breaker in ("absent", "I", "NOT", "qutrojan"):
                law = newcomb_run(NewcombConfig(control, breaker))
                assert law[0] + law[1] == pytest.approx(1.0, abs=1e-12)

    def test_trojan_statistics_hide_the_control_bit(self):
        # The sandwiched wiring makes the watcher's law identical for both
        # openings: zero total-variation distance.
        law0 = newcomb_run(NewcombConfig(0, "qutrojan"))
        law1 = newcomb_run(NewcombConfig(1, "qutrojan"))
        tv = 0.5 * sum(abs(law0[b] - law1[b]) for b in (0, 1))
        assert tv <= 1e-12

    def test_plain_wiring_exposes_the_control_bit(self):
        law0 = newcomb_run(NewcombConfig(0, "absent"))
        law1 = newcomb_run(NewcombConfig(1, "absent"))
        tv = 0.5 * sum(abs(law0[b] - law1[b]) for b in (0, 1))
        assert tv == pytest.approx(1.0, abs=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            NewcombConfig(control=2, breaker="absent")
        with pytest.raises(ValidationError):
            NewcombConfig(control=0, breaker="H")


def _closed_form(theta, p_verify, reward):
    # Independent derivation: E(theta) = -(a cos 2t + b sin 2t) + c with
    # a = 1-pv, b = pv(R+1)/2, c = pv((R+1)/2 - 1).
    a = 1.0 - p_verify
    b = p_verify * (reward + 1.0) / 2.0
    c = p_verify * ((reward + 1.0) / 2.0 - 1.0)
    return -(a * math.cos(2 * theta) + b * math.sin(2 * theta)) + c


def _closed_form_argmin(p_verify, reward):
    a = 1.0 - p_verify
    b = p_verify * (reward + 1.0) / 2.0
    c = p_verify * ((reward + 1.0) / 2.0 - 1.0)
    return 0.5 * math.atan2(b, a), c - math.hypot(a, b)


class TestGamblePayoffs:
    def test_param_validation(self):
        with pytest.raises(ValidationError):
            GambleParams(theta=0.1, p_verify=-0.01, reward=1.0)
        with pytest.raises(ValidationError):
            GambleParams(theta=0.1, p_verify=1.01, reward=1.0)
        with pytest.raises(ValidationError):
            GambleParams(theta=0.1, p_verify=0.5, reward=0.0)
        with pytest.raises(ValidationError):
            GambleParams(theta=float("nan"), p_verify=0.5, reward=1.0)

    def test_honest_and_never_verified_is_even_money(self):
        e_bob, e_alice = gvw_expected_payoffs(
            GambleParams(theta=math.pi / 4, p_verify=0.0, reward=1.0))
        assert e_bob == pytest.approx(0.0, abs=1e-15)
        assert e_alice == pytest.approx(0.0, abs=1e-15)

    def test_full_cheat_always_verified_unit_reward_is_even(self):
        # Emptying one box makes the returned state overlap the honest one
        # with probability 1/2, so reward 1 exactly cancels the risk.
        e_bob, _ = gvw_expected_payoffs(GambleParams(0.0, 1.0, 1.0))
        assert e_bob == pytest.approx(0.0, abs=1e-15)

    def test_honest_play_loses_exactly_the_audit_rate(self):
        for p_verify in (0.0, 0.3, 0.9, 1.0):
            e_bob, _ = gvw_expected_payoffs(
                GambleParams(math.pi / 4, p_verify, 5.0))
            assert e_bob == pytest.approx(-p_verify, abs=1e-12)

    def test_zero_sum_holds_exactly(self):
        rng = seeded_rng(11)
        for _ in range(50):
            params = GambleParams(theta=rng.uniform(0, math.pi / 2),
                                  p_verify=rng.uniform(0, 1),
                                  reward=rng.uniform(0.1, 20))
            e_bob, e_alice = gvw_expected_payoffs(params)
            assert e_alice == -e_bob

    def test_matches_independent_closed_form(self):
        rng = seeded_rng(12)
        for _ in range(200):
            theta = rng.uniform(0, math.pi / 2)
            p_verify = rng.uniform(0, 1)
            reward = rng.uniform(0.1, 50)
            e_bob, _ = gvw_expected_payoffs(GambleParams(theta, p_verify, reward))
            assert e_bob == pytest.approx(
                _closed_form(theta, p_verify, reward), abs=1e-12)

    def test_continuity_in_preparation_angle(self):
        for reward in (0.5, 1.0, 2.0, 10.0):
            for p_verify in (0.0, 0.5, 1.0):
                for theta in np.linspace(0, math.pi / 2, 21):
                    lhs, _ = gvw_expected_payoffs(
                        GambleParams(theta, p_verify, reward))
                    rhs, _ = gvw_expected_payoffs(
                        GambleParams(theta + 1e-6, p_verify, reward))
                    assert abs(lhs - rhs) < 1e-4


class TestBestResponses:
    def test_never_verified_invites_the_full_cheat(self):
        theta_star, e_star = gvw_best_response(0.0, 1.0)
        assert abs(theta_star) < 1e-5
        assert e_star == pytest.approx(-1.0, abs=1e-8)

    def test_always_verified_with_large_reward_forces_honesty(self):
        theta_star, e_star = gvw_best_response(1.0, 1e6)
        assert theta_star == pytest.approx(math.pi / 4, abs=1e-6)
        assert e_star >= -1.0 - 1e-12

    @pytest.mark.parametrize("p_verify,reward,theta_exp,e_exp", [
        (0.3, 2.0, 0.285668739916813, -0.682165848854662),
        (0.7, 1.0, 0.582952270254907, -0.761577310586391),
        (0.05, 10.0, 0.140885933636676, -0.764002022242624),
    ])
    def test_matches_frozen_analytic_minimum(self, p_verify, reward,
                                             theta_exp, e_exp):
        theta_star, e_star = gvw_best_response(p_verify, reward)
        assert theta_star == pytest.approx(theta_exp, abs=1e-6)
        assert e_star == pytest.approx(e_exp, abs=1e-10)

    def test_matches_analytic_argmin_on_random_params(self):
        rng = seeded_rng(13)
        for _ in range(40):
            p_verify = rng.uniform(0.0, 1.0)
            reward = rng.uniform(0.1, 30.0)
            theta_star, e_star = gvw_best_response(p_verify, reward)
            theta_ref, e_ref = _closed_form_argmin(p_verify, reward)
            assert theta_star == pytest.approx(theta_ref, abs=1e-5)
            assert e_star == pytest.approx(e_ref, abs=1e-9)

    def test_audit_response_sits_at_an_endpoint(self):
        # Expected payoff is linear in the audit rate.
        p_star, e_star = gvw_audit_response(0.0, 1.0)
        assert (p_star, e_star) == (1.0, pytest.approx(0.0, abs=1e-15))
        p_star, e_star = gvw_audit_response(math.pi / 4, 1.0)
        assert p_star == 0.0
        assert e_star == pytest.approx(0.0, abs=1e-15)

    def test_fair_point_certificate(self):
        p_star, value = gvw_fair_point(1e7)
        assert p_star == pytest.approx(3.162223881352e-04, abs=1e-5)
        assert value == pytest.approx(-6.322555002498e-04, abs=1e-6)
        assert abs(value) < 1e-3
        # smaller rewards sit further from fair
        _, value_small = gvw_fair_point(100.0)
        assert value_small == pytest.approx(-1.795271803495e-01, abs=1e-6)


_RATES = st.floats(0.0, 1.0)
# Rewards log-uniform from 1e-6 to 1e300, far past where c^2 = ((R+1)/2)^2
# overflows.
_REWARDS = st.floats(-6.0, 300.0).map(lambda exponent: 10.0 ** exponent)


def _bob(theta, p_verify, reward):
    return gvw_expected_payoffs(GambleParams(theta, p_verify, reward))[0]


@settings(max_examples=100, deadline=None)
@given(_RATES, _REWARDS)
def test_best_response_is_the_exact_minimizer(p_verify, reward):
    theta_star, e_star = gvw_best_response(p_verify, reward)
    assert math.isfinite(theta_star) and 0.0 <= theta_star <= math.pi / 2
    assert e_star == _bob(theta_star, p_verify, reward)
    grid = min(_bob(float(theta), p_verify, reward)
               for theta in np.linspace(0.0, math.pi / 2, 2001))
    assert e_star <= grid + 1e-12


@settings(max_examples=100, deadline=None)
@given(_REWARDS)
def test_fair_point_is_the_exact_maximizer(reward):
    p_star, value = gvw_fair_point(reward)
    assert math.isfinite(p_star) and 0.0 < p_star < 1.0
    assert math.isfinite(value)

    def floor(p_verify):
        return gvw_best_response(p_verify, reward)[1]

    rivals = [floor(p_star * (1.0 + 1e-6)), floor(p_star * (1.0 - 1e-6))]
    rivals += [floor(float(p)) for p in np.linspace(0.0, 1.0, 1001)]
    assert value >= max(rivals) - 1e-12


class TestGambleSimulation:
    def test_single_round_support(self):
        params = GambleParams(0.3, 0.5, 2.5)
        seen = set()
        for seed in range(40):
            sample = gvw_simulate(params, 1, seeded_rng(seed))
            assert sample.trials == 1
            seen.add(sample.mean_bob)
        assert seen <= {1.0, -1.0, 2.5}
        assert len(seen) == 3

    def test_counts_reconstruct_the_mean(self):
        params = GambleParams(0.4, 0.3, 3.0)
        sample = gvw_simulate(params, 5000, seeded_rng(21))
        c = sample.counts
        assert sum(c.values()) == 5000
        total = (c["found"] - c["empty"] + 3.0 * c["detected"] - c["clean"])
        assert sample.mean_bob == pytest.approx(total / 5000, abs=1e-12)

    def test_honest_unverified_long_run_is_near_zero(self):
        params = GambleParams(math.pi / 4, 0.0, 1.0)
        sample = gvw_simulate(params, 100_000, seeded_rng(5))
        assert abs(sample.mean_bob) < sample.half_width

    def test_empirical_tracks_exact_engine(self):
        rng = seeded_rng(31)
        hits = 0
        for trial in range(25):
            params = GambleParams(theta=rng.uniform(0, math.pi / 2),
                                  p_verify=rng.uniform(0, 1),
                                  reward=rng.uniform(0.5, 4))
            exact, _ = gvw_expected_payoffs(params)
            sample = gvw_simulate(params, 4000, rng)
            if abs(sample.mean_bob - exact) <= sample.half_width:
                hits += 1
        assert hits >= 24

    def test_honest_half_width_does_not_depend_on_the_reward(self):
        # An honest preparation is never flagged, so the reward is never paid
        # and the spread is that of the +-1 rounds alone, at any reward.
        widths = [gvw_simulate(GambleParams(math.pi / 4, 0.5, reward), 2000,
                               seeded_rng(3)).half_width
                  for reward in (1.0, 1e170, 1e308)]
        assert math.isfinite(widths[0]) and widths[0] > 0.0
        assert widths == [widths[0]] * 3

    def test_deterministic_for_a_fixed_seed(self):
        params = GambleParams(0.8, 0.25, 2.0)
        first = gvw_simulate(params, 1000, seeded_rng(9))
        second = gvw_simulate(params, 1000, seeded_rng(9))
        assert first == second

    def test_rejects_empty_run(self):
        with pytest.raises(ValidationError):
            gvw_simulate(GambleParams(0.1, 0.1, 1.0), 0, seeded_rng(0))


@settings(max_examples=200, deadline=None)
@given(theta=st.floats(0.0, math.pi / 2), p_verify=st.floats(0.0, 1.0),
       reward=st.floats(1e-3, 1e100), trials=st.integers(1, 60),
       seed=st.integers(0, 2**32 - 1))
def test_counts_give_the_moments_of_their_payoff_array(theta, p_verify, reward, trials, seed):
    sample = gvw_simulate(GambleParams(theta, p_verify, reward), trials, seeded_rng(seed))
    c = sample.counts
    assert min(c.values()) >= 0 and sum(c.values()) == trials
    payoffs = np.repeat([1.0, -1.0, reward, -1.0],
                        [c["found"], c["empty"], c["detected"], c["clean"]])
    # The absolute floor only covers moments that cancel to (near) zero, where
    # the array's own summation error is all that is left.
    floor = 1e-12 * max(1.0, reward)
    assert sample.mean_bob == pytest.approx(payoffs.mean(), rel=1e-12, abs=floor)
    if trials == 1:
        assert sample.half_width == math.inf
    else:
        assert sample.half_width == pytest.approx(
            4.0 * payoffs.std(ddof=1) / math.sqrt(trials), rel=1e-12, abs=floor)


class TestAutomaton:
    def _projector_one(self):
        return np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)

    def test_single_flip_accepts(self):
        qfa = QFA([1, 0], {"a": NOT}, self._projector_one())
        assert qfa_run(qfa, ["a"]) == pytest.approx(1.0, abs=1e-12)

    def test_double_switch_rejects(self):
        # Two applications of the basis switch give minus the identity, so
        # the walker is back in the start state up to sign.
        qfa = QFA([1, 0], {"h": H}, self._projector_one())
        assert qfa_run(qfa, ["h", "h"]) == pytest.approx(0.0, abs=1e-24)
        assert qfa_run(qfa, ["h"]) == pytest.approx(0.5, abs=1e-12)

    def test_empty_word_reads_the_start_state(self):
        qfa = QFA([0, 1], {"a": NOT}, self._projector_one())
        assert qfa_run(qfa, []) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_symbol_is_refused(self):
        qfa = QFA([1, 0], {"a": NOT}, self._projector_one())
        with pytest.raises(ValidationError):
            qfa_run(qfa, ["a", "b"])

    def test_transitions_must_be_unitary(self):
        shrink = np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            QFA([1, 0], {"a": shrink}, self._projector_one())

    def test_accept_must_be_a_projector(self):
        tilted = np.array([[0.5, 0.5], [0.5, 0.6]], dtype=complex)
        with pytest.raises(ValidationError):
            QFA([1, 0], {"a": NOT}, tilted)

    @pytest.mark.parametrize("initial, transition, accept, named", [
        pytest.param([math.nan, 0.0], np.eye(2), np.diag([1.0, 0.0]), "initial",
                     id="initial"),
        pytest.param([1.0, 0.0], np.diag([1.0, math.nan]), np.diag([1.0, 0.0]),
                     "transition 'a'", id="transition"),
        pytest.param([1.0, 0.0], np.eye(2), np.diag([math.inf, 0.0]), "accept",
                     id="accept"),
    ])
    def test_non_finite_entries_are_refused_by_name(self, initial, transition, accept,
                                                    named):
        with pytest.raises(ValidationError, match=f"^{named} holds NaN or infinity$"):
            QFA(initial, {"a": transition}, accept)

    def test_acceptance_probability_stays_in_range(self):
        rng = seeded_rng(17)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            alphabet = {s: random_unitary(dim, rng).matrix for s in "abc"}
            basis = np.eye(dim, dtype=complex)
            keep = basis[:, : dim // 2 + 1]
            accept = keep @ keep.conj().T
            start = np.zeros(dim, dtype=complex)
            start[0] = 1.0
            qfa = QFA(start, alphabet, accept)
            word = list(rng.choice(list("abc"), size=6))
            p = qfa_run(qfa, word)
            assert -1e-12 <= p <= 1.0 + 1e-12

    def test_from_dict_round_trip(self):
        payload = {
            "initial": [[0.0, 0.0], [1.0, 0.0]],
            "transitions": {"x": [[[0.0, 0.0], [0.0, 1.0]],
                                  [[0.0, 1.0], [0.0, 0.0]]]},
            "accept": [[1.0, 0.0], [0.0, 0.0]],
        }
        qfa = qfa_from_dict(payload)
        assert qfa_run(qfa, ["x"]) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValidationError):
            qfa_from_dict({"initial": [1.0, 0.0]})
