"""Two-player protocols built on small registers.

Three self-contained games live here: the Newcomb prediction circuit in its
plain and measurement-hiding wirings, a verified gambling protocol with an
exact payoff engine next to its Monte-Carlo mirror, and a one-way quantum
finite automaton runner.  Everything is deterministic given a seed; exact
engines take no randomness at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .config import MAX_TRIALS
from .errors import ValidationError
from .gates import CNOT_ALLIANCE, H, I2, NOT
from .measure import apply_gate
from .states import QState

BREAKERS = ("absent", "I", "NOT", "qutrojan")


@dataclass(frozen=True)
class NewcombConfig:
    """Wiring of the two-wire prediction circuit.

    ``control`` is the bit carried by the upper wire; ``breaker`` selects
    what happens to the lower wire before (or around) the controlled flip:
    nothing, an explicit identity, a pre-flip, or the switch sandwich that
    hides the control bit from the final readout.
    """

    control: int
    breaker: str = "absent"

    def __post_init__(self) -> None:
        if self.control not in (0, 1):
            raise ValidationError(f"control must be 0 or 1, got {self.control!r}")
        if self.breaker not in BREAKERS:
            raise ValidationError(
                f"breaker must be one of {BREAKERS}, got {self.breaker!r}")


def newcomb_run(cfg: NewcombConfig) -> dict[int, float]:
    """Exact readout law of the lower wire for the configured circuit.

    The plain wiring lets the controlled flip copy the control bit onto the
    lower wire, so reading it reveals the upper wire's choice.  The
    sandwich wiring conjugates the controlled flip by the basis switch; the
    result acts diagonally, and the readout law is the same for both
    control values.
    """
    state = QState.basis(2, cfg.control << 1)
    if cfg.breaker == "qutrojan":
        state = apply_gate(state, H, [1])
        state = apply_gate(state, CNOT_ALLIANCE, [0, 1])
        state = apply_gate(state, H, [1])
    else:
        if cfg.breaker in ("I", "NOT"):
            state = apply_gate(state, I2 if cfg.breaker == "I" else NOT, [1])
        state = apply_gate(state, CNOT_ALLIANCE, [0, 1])
    return {0: state.prob_of_bit(1, 0), 1: state.prob_of_bit(1, 1)}


@dataclass(frozen=True)
class GambleParams:
    """One parameterization of the verified gambling round.

    Alice splits a particle over two boxes as cos(theta)|a> + sin(theta)|b>;
    theta = pi/4 is the honest split.  Bob opens box B with probability
    1 - p_verify and otherwise demands the state back for a verification
    test that pays him ``reward`` when it flags a deviation.
    """

    theta: float
    p_verify: float
    reward: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise ValidationError(f"theta must be finite, got {self.theta!r}")
        if not 0.0 <= self.p_verify <= 1.0:
            raise ValidationError(
                f"p_verify must lie in [0, 1], got {self.p_verify!r}")
        if not (math.isfinite(self.reward) and self.reward > 0.0):
            raise ValidationError(f"reward must be positive, got {self.reward!r}")

    @property
    def found_probability(self) -> float:
        """Chance that opening box B reveals the particle."""
        return math.sin(self.theta) ** 2

    @property
    def detection_probability(self) -> float:
        """Chance that the verification test flags the returned state.

        The test projects onto the honest split, so only the orthogonal
        component is ever flagged: 1 - |<honest|prepared>|^2, which is
        sin^2(theta - pi/4) and 0 exactly at theta = pi/4.  The sine form
        keeps full relative precision near the honest split, where a large
        reward multiplies it.
        """
        return math.sin(self.theta - math.pi / 4) ** 2


def gvw_expected_payoffs(params: GambleParams) -> tuple[float, float]:
    """Exact (Bob, Alice) expectations by enumerating the four round events.

    Opening box B pays Bob +1 on a find and -1 on a miss; a verification
    pays him +reward on a flag and -1 otherwise.  The game is zero-sum by
    construction, so Alice's expectation is returned as the exact negative.
    """
    p_found = params.found_probability
    p_flag = params.detection_probability
    open_branch = p_found * 1.0 + (1.0 - p_found) * -1.0
    audit_branch = p_flag * params.reward + (1.0 - p_flag) * -1.0
    e_bob = (1.0 - params.p_verify) * open_branch + params.p_verify * audit_branch
    return e_bob, -e_bob


@dataclass(frozen=True)
class GambleSample:
    """Monte-Carlo summary of repeated rounds at fixed parameters."""

    mean_bob: float
    half_width: float
    trials: int
    counts: dict[str, int] = field(compare=True, default_factory=dict)


def gvw_simulate(params: GambleParams, trials: int,
                 rng: np.random.Generator) -> GambleSample:
    """Sample ``trials`` independent rounds and report Bob's mean payoff.

    The rounds are drawn as event counts (audits, then finds among the opened
    rounds and flags among the audited ones), which have the joint law of
    ``trials`` separate rounds at a cost that does not depend on ``trials``.
    The half-width is four standard errors, wide enough that the exact
    expectation falls inside it essentially always; a single round reports
    an infinite half-width since one draw carries no spread estimate.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValidationError(f"trials must be from 1 to {MAX_TRIALS}, got {trials}")
    n_audit = int(rng.binomial(trials, params.p_verify))
    found = int(rng.binomial(trials - n_audit, params.found_probability))
    flagged = int(rng.binomial(n_audit, params.detection_probability))
    counts = {"found": found, "empty": trials - n_audit - found,
              "detected": flagged, "clean": n_audit - flagged}

    losses = trials - found - flagged  # the rounds that pay Bob -1
    mean = (found - losses) / trials + params.reward * (flagged / trials)
    if trials > 1:
        # hypot takes the root of the sum of squares without squaring, so
        # neither the +-1 payoffs underflow nor a huge reward overflows.
        spread = math.hypot(*(math.sqrt(n) * (x - mean) for n, x in (
            (found, 1.0), (losses, -1.0), (flagged, params.reward))))
        half_width = 4.0 * spread / math.sqrt(trials - 1) / math.sqrt(trials)
    else:
        half_width = float("inf")
    return GambleSample(mean, half_width, trials, counts)


def gvw_best_response(p_verify: float, reward: float) -> tuple[float, float]:
    """Alice's payoff-minimizing preparation against a known audit rate.

    Returns (theta, Bob's expectation there).  Bob's expectation is
    E(theta) = p(R-1)/2 - (1-p) cos 2theta - p(R+1)/2 sin 2theta, so the
    exact minimizer over [0, pi/2] is theta* = atan2(p(R+1)/2, 1-p) / 2:
    the full cheat 0 when never audited, the honest pi/4 when always.
    """
    GambleParams(0.0, p_verify, reward)  # reuse the field validation
    theta_star = 0.5 * math.atan2(p_verify * (reward + 1.0) / 2.0,
                                  1.0 - p_verify)
    return theta_star, gvw_expected_payoffs(
        GambleParams(theta_star, p_verify, reward))[0]


def gvw_audit_response(theta: float, reward: float) -> tuple[float, float]:
    """Bob's payoff-maximizing audit rate against a known preparation.

    His expectation is linear in the audit rate, so the optimum sits at an
    endpoint; ties resolve to never auditing.
    """
    never = gvw_expected_payoffs(GambleParams(theta, 0.0, reward))[0]
    always = gvw_expected_payoffs(GambleParams(theta, 1.0, reward))[0]
    if always > never:
        return 1.0, always
    return 0.0, never


def gvw_fair_point(reward: float) -> tuple[float, float]:
    """Audit rate maximizing Bob's guaranteed expectation, and that value.

    Alice replies with her best cheat at every rate p, which leaves Bob
    the floor f(p) = k p - hypot(1-p, c p) with c = (R+1)/2, k = (R-1)/2.
    The floor is concave with f'(0) > 0 and f'(1) = -1, so its maximum is
    the interior root of f'(p) = 0:
    p* = (1 + c k / sqrt(1+R)) / (1 + c^2), evaluated divided through by c
    so that c^2 cannot overflow.  The value is read through the payoff
    engine at Alice's best reply.  As the reward grows the floor approaches
    zero and the round approaches a fair bet.
    """
    if not (math.isfinite(reward) and reward > 0.0):
        raise ValidationError(f"reward must be positive, got {reward!r}")
    c = (reward + 1.0) / 2.0
    k = (reward - 1.0) / 2.0
    p_star = (1.0 / c + k / math.sqrt(1.0 + reward)) / (1.0 / c + c)
    return p_star, gvw_best_response(p_star, reward)[1]


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} holds NaN or infinity")
    return arr


def _as_complex_matrix(value, dim: int, what: str) -> np.ndarray:
    mat = np.asarray(value, dtype=complex)
    if mat.shape != (dim, dim):
        raise ValidationError(f"{what} must be {dim}x{dim}, got shape {mat.shape}")
    return _finite(mat, what)


class QFA:
    """Measure-once quantum finite automaton.

    Holds a start vector, one unitary per input symbol, and an accepting
    projector.  The state space is any finite dimension, not only qubit
    registers.
    """

    __slots__ = ("initial", "transitions", "accept")

    def __init__(self, initial, transitions: Mapping[str, object], accept) -> None:
        vec = _finite(np.asarray(initial, dtype=complex).reshape(-1), "initial")
        dim = vec.size
        # Finite entries near the float limit overflow these checks to inf or
        # NaN; each test is written so that NaN fails it, so they are refused.
        with np.errstate(over="ignore", invalid="ignore"):
            norm = float(np.linalg.norm(vec))
            if not abs(norm - 1.0) <= 1e-9:
                raise ValidationError(f"start vector norm {norm} is not 1")
            table: dict[str, np.ndarray] = {}
            for symbol, raw in transitions.items():
                mat = _as_complex_matrix(raw, dim, f"transition {symbol!r}")
                drift = np.max(np.abs(mat.conj().T @ mat - np.eye(dim)))
                if not drift <= 1e-12:
                    raise ValidationError(
                        f"transition {symbol!r} is not unitary (defect {drift:.2e})")
                table[symbol] = mat
            proj = _as_complex_matrix(accept, dim, "accept")
            if not np.max(np.abs(proj - proj.conj().T)) <= 1e-12:
                raise ValidationError("accept operator is not Hermitian")
            if not np.max(np.abs(proj @ proj - proj)) <= 1e-12:
                raise ValidationError("accept operator is not idempotent")
        self.initial = vec
        self.transitions = table
        self.accept = proj

    @property
    def dim(self) -> int:
        return self.initial.size


def qfa_run(qfa: QFA, word: Sequence[str]) -> float:
    """Acceptance probability of ``word``: ||accept . U_w ... U_1 start||^2."""
    vec = qfa.initial
    for symbol in word:
        mat = qfa.transitions.get(symbol)
        if mat is None:
            raise ValidationError(f"symbol {symbol!r} is not in the alphabet")
        vec = mat @ vec
    kept = qfa.accept @ vec
    return float(np.vdot(kept, kept).real)
