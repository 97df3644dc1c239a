"""Acceptance suite: the package's top-level guarantees, one test each.

Every test prints a single PASS/FAIL verdict line straight to the terminal
(bypassing capture) so a full run reads as a ten-line scorecard.  Tolerances
here are contractual; loosening one is a behavior change, not a tweak.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from qgame.cli import main as cli_main
from qgame.config import seeded_rng
from qgame.games import (
    GambleParams,
    NewcombConfig,
    gvw_expected_payoffs,
    gvw_fair_point,
    gvw_simulate,
    newcomb_run,
)
from qgame.gates import (
    CNOT,
    H,
    NOT,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    T,
)
from qgame.market import (
    GridSpec,
    demand_cdf,
    from_momentum,
    make_gaussian_strategy,
    momentum_density_at,
    to_momentum,
    wigner,
)
from qgame.measure import interface_yes_no
from qgame.states import QState, fidelity
from qgame.transfer import (
    mbqc_cnot,
    state_transfer_sigma_h,
    transfer_phase_t,
)
from qgame.walk import survival_empirical, survival_model, walk_steps_batch

from random_matrices import random_density, random_hermitian

SEED = 20260822


def _verdict(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    line = f"acceptance {number:02d} {name}: {'PASS' if ok else 'FAIL'} [{detail}]"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _entrywise(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _with_fresh(pair: np.ndarray) -> QState:
    """Lay a control/target pair on wires 0 and 2 with a fresh wire 1."""
    amps = np.zeros(8, dtype=complex)
    for c in range(2):
        for t in range(2):
            amps[c * 4 + t] = pair[c * 2 + t]
    return QState(amps)


def _branch_deviation(outcomes, expected_core: np.ndarray, vec: np.ndarray) -> float:
    """Worst infidelity across branches against byproduct . core . input."""
    worst = 0.0
    total = 0.0
    for outcome in outcomes:
        total += outcome.probability
        target = outcome.byproduct.matrix() @ expected_core @ vec
        target = target / np.linalg.norm(target)
        worst = max(worst, 1.0 - fidelity(QState(target), outcome.state))
    worst = max(worst, abs(total - 1.0))
    return worst


def test_01_single_wire_identities(capsys):
    hdag = H.conj().T
    gap = max(
        _entrywise(H @ NOT @ H, np.diag([-1j, 1j])),
        _entrywise(H @ SIGMA_X @ hdag, SIGMA_Z),
        _entrywise(np.linalg.inv(T) @ SIGMA_X @ T, (SIGMA_X - SIGMA_Y) / math.sqrt(2)),
        _entrywise(H @ ((SIGMA_X - SIGMA_Y) / math.sqrt(2)) @ hdag,
                   (SIGMA_Z + SIGMA_Y) / math.sqrt(2)),
        _entrywise(H @ H, -np.eye(2)),
    )
    _verdict(capsys, 1, "single-wire identities", gap <= 1e-15,
             f"max entrywise gap {gap:.3e}, tol 1e-15")


def test_02_state_transfer_branches(capsys):
    rng = seeded_rng(SEED, 2)
    worst = 0.0
    for _ in range(100):
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec /= np.linalg.norm(vec)
        start = QState(np.kron(vec, [1.0, 0.0]))
        for swapped in (False, True):
            outcomes = state_transfer_sigma_h(start, 0, 1, swapped=swapped)
            worst = max(worst, _branch_deviation(outcomes, H, vec))
    _verdict(capsys, 2, "measured basis-switch transfer", worst <= 1e-10,
             f"worst branch infidelity {worst:.3e}, tol 1e-10; "
             "plain and swapped chains over 100 random inputs")


def test_03_measured_cnot_branches(capsys):
    rng = seeded_rng(SEED, 3)
    pairs = [np.eye(4, dtype=complex)[k] for k in range(4)]
    for _ in range(20):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        pairs.append(vec / np.linalg.norm(vec))
    worst = 0.0
    branch_counts = set()
    for pair in pairs:
        outcomes = mbqc_cnot(_with_fresh(pair), 0, 2, 1)
        branch_counts.add(len(outcomes))
        worst = max(worst, _branch_deviation(outcomes, CNOT, pair))
    ok = worst <= 1e-10 and branch_counts == {16}
    _verdict(capsys, 3, "measured controlled flip", ok,
             f"worst branch infidelity {worst:.3e}, tol 1e-10; "
             f"branch counts {sorted(branch_counts)}")


def test_04_measured_phase_gate_branches(capsys):
    rng = seeded_rng(SEED, 4)
    worst = 0.0
    for _ in range(100):
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec /= np.linalg.norm(vec)
        start = QState(np.kron(vec, [1.0, 0.0]))
        for conjugated in (False, True):
            outcomes = transfer_phase_t(start, 0, 1, conjugated=conjugated)
            worst = max(worst, _branch_deviation(outcomes, T, vec))
    _verdict(capsys, 4, "measured eighth-turn phase gate", worst <= 1e-10,
             f"worst branch infidelity {worst:.3e}, tol 1e-10; both chain layouts")


def test_05_correction_walk_statistics(capsys):
    trials = 100_000
    counts = walk_steps_batch("X", seeded_rng(SEED, 5), trials)
    first = float(counts[1]) / trials
    first_gap = abs(first - 0.25)
    first_band = 4 * math.sqrt(0.25 * 0.75 / trials)
    model = survival_model(20)
    empirical = survival_empirical(counts, 20)
    worst_sigma = 0.0
    for n in range(1, 21):
        sigma = math.sqrt(model[n] * (1.0 - model[n]) / trials)
        worst_sigma = max(worst_sigma, abs(empirical[n] - model[n]) / sigma)
    ok = first_gap <= first_band and worst_sigma <= 4.0
    _verdict(capsys, 5, "correction walk statistics", ok,
             f"first-step gap {first_gap:.4f} vs band {first_band:.4f}; "
             f"survival curve worst {worst_sigma:.2f} sigma, limit 4")


def test_06_yes_no_interface_completeness(capsys):
    rng = seeded_rng(SEED, 6)
    worst_total = 0.0
    branches_ok = True
    for k in range(100):
        dim = 2 + k % 7
        g = random_hermitian(dim, rng)
        rho = random_density(dim, rng)
        coupling = float(0.1 + 3.0 * rng.random())
        result = interface_yes_no(rho, g, coupling)
        worst_total = max(worst_total, abs(result.p_plus + result.p_minus - 1.0))
        for branch in (result.rho_plus, result.rho_minus):
            if branch is None:
                continue
            mat = branch.matrix
            branches_ok &= bool(np.allclose(mat, mat.conj().T, atol=1e-9))
            branches_ok &= abs(float(np.trace(mat).real) - 1.0) <= 1e-9
            branches_ok &= float(np.linalg.eigvalsh(mat).min()) >= -1e-9
    ok = worst_total <= 1e-12 and branches_ok
    _verdict(capsys, 6, "yes/no interface completeness", ok,
             f"worst |p+ + p- - 1| = {worst_total:.3e}, tol 1e-12; "
             f"branch states valid: {branches_ok}")


def test_07_prediction_circuit_outcomes(capsys):
    gap = 0.0
    cases = [
        (NewcombConfig(control=1, breaker="absent"), 1),
        (NewcombConfig(control=1, breaker="NOT"), 0),
        (NewcombConfig(control=0, breaker="qutrojan"), 0),
        (NewcombConfig(control=1, breaker="qutrojan"), 0),
    ]
    for config, winner in cases:
        law = newcomb_run(config)
        gap = max(gap, abs(law[winner] - 1.0), abs(law[1 - winner]))
    _verdict(capsys, 7, "prediction circuit outcomes", gap <= 1e-12,
             f"max deviation from certainty {gap:.3e}, tol 1e-12")


def test_08_gambling_grid_and_fair_point(capsys):
    thetas = [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]
    rates = [0.0, 0.25, 0.5, 0.75, 1.0]
    rewards = [0.5, 1.0, 2.0]
    cells = [GambleParams(t, v, r) for t in thetas for v in rates for r in rewards]
    zero_sum_exact = all(
        gvw_expected_payoffs(p)[0] == -gvw_expected_payoffs(p)[1] for p in cells
    )
    hits = 0
    total = 0
    for run in range(100):
        for index, params in enumerate(cells):
            exact = gvw_expected_payoffs(params)[0]
            sample = gvw_simulate(params, 2000, seeded_rng(SEED, 8_000 + run * 100 + index))
            total += 1
            if abs(sample.mean_bob - exact) <= sample.half_width:
                hits += 1
    coverage = hits / total
    fair_rate, fair_floor = gvw_fair_point(1e7)
    ok = coverage >= 0.99 and zero_sum_exact and abs(fair_floor) < 1e-3
    _verdict(capsys, 8, "gambling grid and fair point", ok,
             f"coverage {coverage:.4f} over {total} runs, floor 0.99; "
             f"zero-sum exact: {zero_sum_exact}; "
             f"|floor| at audit rate {fair_rate:.3e} is {abs(fair_floor):.3e} < 1e-3")


def test_09_market_phase_space(capsys):
    grid = GridSpec(-8.0, 8.0, 512)
    psi = make_gaussian_strategy(0.0, 1.0, grid)
    view = wigner(psi)
    pp, qq = np.meshgrid(view.p_nodes, view.q_nodes, indexing="ij")
    analytic = np.exp(-(qq**2) - pp**2) / math.pi
    w_gap = float(np.max(np.abs(view.values - analytic)))
    q_gap = float(np.max(np.abs(view.marginal_q() - psi.density())))
    p_density = momentum_density_at(psi, view.p_nodes)
    p_gap = float(np.max(np.abs(view.marginal_p() - p_density)))
    norm_gap = abs(view.normalization() - 1.0)
    demand_gap = abs(demand_cdf(psi, 1.0) - 0.5)
    round_trip = from_momentum(to_momentum(psi), grid)
    rt_gap = float(np.max(np.abs(round_trip.samples - psi.samples)))
    ok = (w_gap <= 1e-6 and q_gap <= 1e-6 and p_gap <= 1e-6
          and norm_gap <= 1e-8 and demand_gap <= 1e-8 and rt_gap <= 1e-10)
    _verdict(capsys, 9, "market phase space", ok,
             f"wigner gap {w_gap:.2e} (1e-6), marginals {q_gap:.2e}/{p_gap:.2e} "
             f"(1e-6), norm {norm_gap:.2e} (1e-8), unit-price demand "
             f"{demand_gap:.2e} (1e-8), round trip {rt_gap:.2e} (1e-10)")


def test_10_report_determinism(capsys):
    renders = {}
    for argv in (["walk", "--trials", "20000", "--seed", "5", "--output", "json"],
                 ["gamble", "--trials", "5000", "--seed", "5", "--output", "csv"]):
        pair = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(list(argv))
            assert code == 0
            pair.append(buf.getvalue())
        renders[argv[0]] = pair
    identical = all(first == second for first, second in renders.values())
    payload = json.loads(renders["walk"][0])
    _verdict(capsys, 10, "report determinism", identical and payload["config"]["seed"] == 5,
             "walk json and gamble csv byte-identical across repeated runs")
