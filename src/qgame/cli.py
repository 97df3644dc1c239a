"""Command-line front end: identity ledgers, game runs, market tables.

Every subcommand assembles a Report and streams it as text, JSON, or CSV
to standard output or the ``--out`` file; ``market`` and ``qfa`` read
their input files through ``qgame.inputs``.
Sampling commands derive all randomness from one ``--seed`` through
sequential stream counters (seed stays the first entropy word, the
sub-task counter the second), so a fixed seed yields byte-identical
output no matter how the work is scheduled.  ``verify`` draws nothing at
random: it still accepts ``--seed`` and records it in its config, so
existing invocations keep working, but no check reads it.  Wall-clock
time is only recorded under ``--timing`` since it would break that
guarantee.

Exit codes: 0 when every check passes, 1 when any check fails, 2 for
usage errors, unreadable input files and a report that could not be
written.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

import numpy as np

from .config import MAX_TRIALS, seeded_rng
from .errors import QGameError, ValidationError
from .games import (
    BREAKERS,
    GambleParams,
    NewcombConfig,
    gvw_audit_response,
    gvw_best_response,
    gvw_expected_payoffs,
    gvw_fair_point,
    gvw_simulate,
    newcomb_run,
    qfa_run,
)
from .gates import GateSet, H
from .inputs import named, read_automaton, read_strategy
from .market import (
    demand_cdf,
    supply_cdf,
    to_momentum,
    wigner,
    wigner_summary,
    wigner_to_csv,  # noqa: F401  (perfbench/tracer.py wraps this name)
)
from .report import CheckRecord, Report, Table
from .transfer import transfer_byproduct_distribution, verify_universality
from .walk import DEFAULT_STEP_CAP, survival_empirical, survival_model, walk_steps_batch


def cmd_verify(args) -> Report:
    gates = GateSet()
    if args.corrupt:
        gates = GateSet(hadamard=H * np.exp(1j * args.corrupt))
    records = verify_universality(gates)
    if args.only is not None:
        known = {r.name for r in records}
        if args.only not in known:
            raise ValidationError(
                f"unknown check {args.only!r}; available: {sorted(known)}")
        records = [r for r in records if r.name == args.only]
    law = transfer_byproduct_distribution()
    tables = {"byproduct_law": Table(
        columns=["word", "probability"],
        rows=[[word, law[word]] for word in sorted(law)])}
    config = {"seed": args.seed, "corrupt": args.corrupt or 0.0}
    if args.only is not None:
        config["only"] = args.only
    return Report("verify", config, records, tables)


def cmd_newcomb(args) -> Report:
    law = newcomb_run(NewcombConfig(control=args.control, breaker=args.breaker))
    table = Table(columns=["bit", "probability"],
                  rows=[[0, law[0]], [1, law[1]]])
    return Report("newcomb",
                  {"control": args.control, "breaker": args.breaker},
                  [], {"readout": table})


def _check_trials(trials: int) -> None:
    if not 1 <= trials <= MAX_TRIALS:
        raise ValidationError(f"--trials must be from 1 to {MAX_TRIALS} (2**53), the "
                              f"sampler's cap, got {trials}")


def cmd_gamble(args) -> Report:
    _check_trials(args.trials)
    params = GambleParams(theta=args.theta, p_verify=args.p_verify,
                          reward=args.reward)
    exact_bob, exact_alice = gvw_expected_payoffs(params)
    sample = gvw_simulate(params, args.trials, seeded_rng(args.seed, 0))
    checks = [
        CheckRecord("zero_sum", abs(exact_bob + exact_alice), 0.0,
                    "exact engine returns an exactly antisymmetric pair"),
        CheckRecord("empirical_within_half_width",
                    abs(sample.mean_bob - exact_bob), sample.half_width,
                    f"{args.trials} rounds at seed {args.seed}"),
    ]
    tables = {
        "payoff": Table(
            columns=["theta", "p_verify", "reward", "exact_bob", "exact_alice",
                     "empirical_bob", "half_width", "trials"],
            rows=[[params.theta, params.p_verify, params.reward, exact_bob,
                   exact_alice, sample.mean_bob, sample.half_width,
                   sample.trials]]),
    }
    theta_star, floor_at_rate = gvw_best_response(params.p_verify, params.reward)
    audit_rate, audit_payoff = gvw_audit_response(params.theta, params.reward)
    fair_rate, fair_floor = gvw_fair_point(params.reward)
    tables["response"] = Table(
        columns=["quantity", "value", "bob_payoff"],
        rows=[["alice_theta_star", theta_star, floor_at_rate],
              ["bob_p_verify_star", audit_rate, audit_payoff],
              ["fair_p_verify", fair_rate, fair_floor]])
    if args.sweep:
        rows = []
        misses = 0
        worst = 0.0
        for index, theta in enumerate(np.linspace(0.0, math.pi / 2, 101)):
            row_params = GambleParams(float(theta), params.p_verify,
                                      params.reward)
            row_exact = gvw_expected_payoffs(row_params)[0]
            row_sample = gvw_simulate(row_params, args.trials,
                                      seeded_rng(args.seed, 1 + index))
            gap = abs(row_sample.mean_bob - row_exact)
            worst = max(worst, gap - row_sample.half_width)
            if gap > row_sample.half_width:
                misses += 1
            rows.append([float(theta), row_exact, row_sample.mean_bob,
                         row_sample.half_width])
        tables["sweep"] = Table(
            columns=["theta", "exact_bob", "empirical_bob", "half_width"],
            rows=rows)
        checks.append(CheckRecord("sweep_within_half_width", max(worst, 0.0), 0.0,
                                  f"{misses} of 101 rows out of band"))
    config = {"theta": params.theta, "p_verify": params.p_verify,
              "reward": params.reward, "trials": args.trials,
              "seed": args.seed, "sweep": bool(args.sweep)}
    return Report("gamble", config, checks, tables)


def cmd_walk(args) -> Report:
    _check_trials(args.trials)
    if not 1 <= args.n_max <= DEFAULT_STEP_CAP:
        raise ValidationError(f"--n-max must be from 1 to {DEFAULT_STEP_CAP}, the walk's "
                              f"step cap, got {args.n_max}")
    counts = walk_steps_batch("X", seeded_rng(args.seed, 0), args.trials)
    model = survival_model(args.n_max)
    empirical = survival_empirical(counts, args.n_max)
    rows = []
    worst_sigma = 0.0
    for n in range(args.n_max + 1):
        sigma = math.sqrt(max(model[n] * (1.0 - model[n]), 1e-300) / args.trials)
        gap = abs(empirical[n] - model[n])
        worst_sigma = max(worst_sigma, gap / sigma)
        rows.append([n, float(model[n]), float(empirical[n]),
                     float(empirical[n] - model[n])])
    first_step = float(counts[1]) / args.trials
    first_sigma = math.sqrt(0.25 * 0.75 / args.trials)
    checks = [
        CheckRecord("first_step_quarter", abs(first_step - 0.25), 4 * first_sigma,
                    f"observed rate {first_step}"),
        CheckRecord("survival_within_band", worst_sigma, 4.0,
                    "worst deviation across the curve, in sigma units"),
    ]
    table = Table(columns=["steps", "model", "empirical", "diff"], rows=rows)
    config = {"n_max": args.n_max, "trials": args.trials, "seed": args.seed,
              "target": "X"}
    return Report("walk", config, checks, {"survival": table})


def cmd_market(args) -> Report:
    psi = read_strategy(args.strategy, args.grid)
    prices = [float(c) for c in np.exp(np.linspace(-2.0, 2.0, 9))]
    momentum = to_momentum(psi)
    cdf_rows = [[price, demand_cdf(psi, price),
                 supply_cdf(momentum, price)]
                for price in prices]
    # Only the CSV report prints the grid; the others need its reductions.
    grid_view = wigner(psi) if args.output == "csv" else None
    summary = grid_view.summary if grid_view is not None else wigner_summary(psi)
    norm_gap = abs(summary.normalization - 1.0)
    checks = [
        CheckRecord("wigner_normalization", norm_gap, 1e-8,
                    "phase-space mass against 1"),
        CheckRecord("aliasing", 1.0 if summary.aliased else 0.0, None,
                    "1 when visible mass reaches the grid edge"),
    ]
    tables = {
        "cdf": Table(columns=["price", "demand", "supply"], rows=cdf_rows),
        "wigner_summary": Table(
            columns=["normalization", "min_value", "p_step", "q_step"],
            rows=[[summary.normalization, summary.min_value,
                   summary.p_step, summary.q_step]]),
    }
    report = Report("market",
                    {"strategy": args.strategy,
                     "n_points": psi.grid.n_points}, checks, tables)
    if grid_view is not None:
        # Rows follow p, columns follow q: the grid's [p | values] table.
        report.tables["wigner_grid"] = Table(
            columns=["p\\q", *map(repr, grid_view.q_nodes.tolist())],
            rows=grid_view.table)
    return report


def cmd_qfa(args) -> Report:
    automaton = read_automaton(args.automaton)
    words = args.word if args.word else [""]
    rows = []
    for word in words:
        with named(f"{args.automaton}: --word {word!r}"):
            rows.append([word, qfa_run(automaton, list(word))])
    return Report("qfa",
                  {"automaton": args.automaton, "dim": automaton.dim},
                  [], {"acceptance": Table(columns=["word", "probability"],
                                           rows=rows)})


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, as seeded_rng needs."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _finite(text: str) -> float:
    """A ``--corrupt`` value: a NaN or infinite phase makes no gate set."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


@functools.lru_cache(maxsize=None)  # every default is a constant, so one parser serves all calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgame",
        description="Quantum game toolbox: identity ledgers, game runs, "
                    "market tables.")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_seed, default=0,
                      help="base seed for sampling (default 0); verify samples "
                           "nothing and only records it in config")
    trials = argparse.ArgumentParser(add_help=False)
    trials.add_argument("--trials", type=int, default=10_000,
                        help="Monte-Carlo round count (default 10000)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("text", "json", "csv"),
                        default="text", help="report rendering (default text)")
    common.add_argument("--out", metavar="PATH",
                        help="write the report to PATH instead of stdout")
    common.add_argument("--timing", action="store_true",
                        help="record wall time (breaks byte-stability)")

    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[seed, common],
                              help="run the full identity and synthesis ledger")
    p_verify.add_argument("--only", metavar="CHECK",
                          help="keep a single named check in the report")
    p_verify.add_argument("--corrupt", type=_finite, default=0.0, metavar="EPS",
                          help="rotate the switch gate's phase by EPS radians "
                               "(negative control)")

    p_newcomb = sub.add_parser("newcomb", parents=[common],
                               help="exact readout law of the prediction circuit")
    p_newcomb.add_argument("--control", type=int, choices=(0, 1), default=1,
                           help="upper-wire bit (default 1)")
    p_newcomb.add_argument("--breaker", choices=BREAKERS,
                           default="absent",
                           help="lower-wire insert (default absent)")

    p_gamble = sub.add_parser("gamble", parents=[seed, trials, common],
                              help="verified gambling payoffs, exact and sampled")
    p_gamble.add_argument("--theta", type=float, default=math.pi / 4,
                          help="preparation angle (default pi/4, honest)")
    p_gamble.add_argument("--p-verify", type=float, default=0.5,
                          dest="p_verify", help="audit probability (default 0.5)")
    p_gamble.add_argument("--reward", type=float, default=1.0,
                          help="payout for a flagged audit (default 1)")
    p_gamble.add_argument("--sweep", action="store_true",
                          help="add a 101-point preparation-angle sweep table")

    p_walk = sub.add_parser("walk", parents=[seed, trials, common],
                            help="correction walk survival curve vs the model")
    p_walk.add_argument("--n-max", type=int, default=20, dest="n_max",
                        help="largest survival horizon reported (default 20)")

    p_market = sub.add_parser("market", parents=[common],
                              help="demand/supply table and phase-space grid")
    p_market.add_argument("strategy", help="strategy description JSON file")
    p_market.add_argument("--grid", type=int, metavar="N",
                          help="override the grid point count")

    p_qfa = sub.add_parser("qfa", parents=[common],
                           help="acceptance probabilities of a finite automaton")
    p_qfa.add_argument("automaton", help="automaton description JSON file")
    p_qfa.add_argument("--word", action="append", metavar="SYMBOLS",
                       help="input word, one symbol per character "
                            "(repeatable; default: the empty word)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        # Looked up by name on every call, not bound into the shared parser,
        # so a wrapper installed on a cmd_* function later still runs.
        report = globals()[f"cmd_{args.command}"](args)
    except QGameError as exc:
        print(f"qgame {args.command}: {exc}", file=sys.stderr)
        return 2
    if args.timing:
        report.wall_time_s = time.perf_counter() - started
    # The file is opened only once the report exists, so an input error
    # leaves no file.  A write that fails part way leaves what was written;
    # exit code 2 says the report is incomplete.
    try:
        if args.out:
            with open(args.out, "w") as out:
                report.render(args.output, out)
        else:
            report.render(args.output, sys.stdout)
            sys.stdout.flush()
    except OSError as exc:
        if not args.out:
            # Standard output is gone (a closed pipe, a full disk): point it
            # at the null device, so the flush at exit does not fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"qgame {args.command}: cannot write report to "
              f"{args.out or 'standard output'}: {exc}", file=sys.stderr)
        return 2
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
