"""Command-line front end: identity ledgers, game runs, market tables.

Every subcommand assembles a Report and renders it as text, JSON, or CSV.
Sampling commands derive all randomness from one ``--seed`` through
sequential stream counters (seed stays the first entropy word, the
sub-task counter the second), so a fixed seed yields byte-identical
output no matter how the work is scheduled.  Wall-clock time is only
recorded under ``--timing`` since it would break that guarantee.

Exit codes: 0 when every check passes, 1 when any check fails, 2 for
usage errors, unreadable input files and an unwritable ``--out`` path.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .config import seeded_rng
from .errors import QGameError, ValidationError
from .games import (
    GambleParams,
    NewcombConfig,
    gvw_audit_response,
    gvw_best_response,
    gvw_expected_payoffs,
    gvw_fair_point,
    gvw_simulate,
    newcomb_run,
    qfa_from_dict,
    qfa_run,
)
from .gates import GateSet, H
from .market import (
    MAX_WIGNER_POINTS,
    GridSpec,
    WaveFunction1D,
    demand_cdf,
    make_gaussian_strategy,
    supply_cdf,
    wigner,
    wigner_to_csv,  # noqa: F401  (perfbench/tracer.py wraps this name)
)
from .report import CheckRecord, Report, Table
from .transfer import transfer_byproduct_distribution, verify_universality
from .walk import survival_empirical, survival_model, walk_steps_batch

_BREAKER_CHOICES = ("absent", "I", "NOT", "qutrojan")


def cmd_verify(args) -> Report:
    gates = GateSet()
    if args.corrupt:
        gates = GateSet(hadamard=H * np.exp(1j * args.corrupt))
    records = verify_universality(gates, seed=args.seed)
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


def cmd_gamble(args) -> Report:
    params = GambleParams(theta=args.theta, p_verify=args.p_verify,
                          reward=args.reward)
    exact_bob, exact_alice = gvw_expected_payoffs(params)
    sample = gvw_simulate(params, args.trials, seeded_rng(args.seed, 0))
    checks = [
        CheckRecord("zero_sum", "pass", abs(exact_bob + exact_alice), 0.0,
                    "exact engine returns an exactly antisymmetric pair"),
        CheckRecord(
            "empirical_within_half_width",
            "pass" if abs(sample.mean_bob - exact_bob) <= sample.half_width
            else "fail",
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
        checks.append(CheckRecord(
            "sweep_within_half_width", "pass" if misses == 0 else "fail",
            max(worst, 0.0), 0.0, f"{misses} of 101 rows out of band"))
    config = {"theta": params.theta, "p_verify": params.p_verify,
              "reward": params.reward, "trials": args.trials,
              "seed": args.seed, "sweep": bool(args.sweep)}
    return Report("gamble", config, checks, tables)


def cmd_walk(args) -> Report:
    if args.trials < 1:
        raise ValidationError(f"trials must be at least 1, got {args.trials}")
    if args.n_max < 1:
        raise ValidationError(f"n-max must be at least 1, got {args.n_max}")
    steps = walk_steps_batch("X", seeded_rng(args.seed, 0), args.trials)
    model = survival_model(args.n_max)
    empirical = survival_empirical(steps, args.n_max)
    rows = []
    worst_sigma = 0.0
    for n in range(args.n_max + 1):
        sigma = math.sqrt(max(model[n] * (1.0 - model[n]), 1e-300) / args.trials)
        gap = abs(empirical[n] - model[n])
        if sigma > 0:
            worst_sigma = max(worst_sigma, gap / sigma)
        rows.append([n, float(model[n]), float(empirical[n]),
                     float(empirical[n] - model[n])])
    first_step = float(np.count_nonzero(steps == 1)) / args.trials
    first_sigma = math.sqrt(0.25 * 0.75 / args.trials)
    checks = [
        CheckRecord("first_step_quarter",
                    "pass" if abs(first_step - 0.25) <= 4 * first_sigma
                    else "fail",
                    abs(first_step - 0.25), 4 * first_sigma,
                    f"observed rate {first_step}"),
        CheckRecord("survival_within_band",
                    "pass" if worst_sigma <= 4.0 else "fail",
                    worst_sigma, 4.0,
                    "worst deviation across the curve, in sigma units"),
    ]
    table = Table(columns=["steps", "model", "empirical", "diff"], rows=rows)
    config = {"n_max": args.n_max, "trials": args.trials, "seed": args.seed,
              "target": "X"}
    return Report("walk", config, checks, {"survival": table})


def _number(payload: dict, key: str, path: str, default=None) -> float:
    """One numeric field of a strategy file; a bad value names the file and field.

    JSON strings and booleans are refused, although ``float`` would accept
    ``"8"`` and ``true``.
    """
    value = payload.get(key, default)
    if not isinstance(value, (str, bool)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValidationError(f"{path}: field {key!r} must be a number, got {value!r}")


def _point_count(value: int | float, source: str) -> int:
    """A grid point count read from ``source``, a file field or a flag.

    The count is checked here, before any array is built, so a fractional
    or oversized count is refused by name instead of being truncated or
    allocated.
    """
    whole = isinstance(value, int) or value.is_integer()
    if not (whole and 64 <= value <= MAX_WIGNER_POINTS
            and int(value) & (int(value) - 1) == 0):
        raise ValidationError(
            f"{source} must be a power of two from 64 to "
            f"{MAX_WIGNER_POINTS}, got {value!r}")
    return int(value)


def _read_json_object(path: str, what: str) -> dict:
    """Parse the ``what`` file at ``path``, which must hold a JSON object."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: JSON parse error at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path}: unreadable JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: {what} file must hold a JSON object")
    return payload


def _load_strategy(path: str, grid_override: int | None):
    """A Gaussian descriptor or an explicit-sample wave, with the same field checks."""
    payload = _read_json_object(path, "strategy")
    explicit = "samples" in payload
    if not explicit and payload.get("kind") != "gaussian":
        raise ValidationError(
            f"{path}: expected kind 'gaussian' or explicit samples")
    for key in ("q_min", "q_max", "n_points"):
        if key not in payload:
            raise ValidationError(f"{path}: missing grid field {key!r}")
    if grid_override is not None:
        if explicit:
            raise ValidationError(
                f"{path}: --grid applies only to Gaussian descriptors")
        n_points = _point_count(grid_override, "--grid")
    else:
        n_points = _point_count(_number(payload, "n_points", path),
                                f"{path}: field 'n_points'")
    grid = GridSpec(_number(payload, "q_min", path), _number(payload, "q_max", path),
                    n_points)
    if explicit:
        try:
            pairs = np.asarray(payload["samples"], dtype=float)
        except (TypeError, ValueError, OverflowError):
            pairs = None
        if pairs is None or pairs.shape != (n_points, 2):
            raise ValidationError(
                f"{path}: field 'samples' must be {n_points} [re, im] pairs")
        return WaveFunction1D(grid, pairs[:, 0] + 1j * pairs[:, 1])
    center = payload.get("center", True)
    if not isinstance(center, bool):
        raise ValidationError(
            f"{path}: field 'center' must be true or false, got {center!r}")
    return make_gaussian_strategy(_number(payload, "mean", path, default=0.0),
                                  _number(payload, "spread", path, default=1.0), grid,
                                  center=center)


def cmd_market(args) -> Report:
    psi = _load_strategy(args.strategy, args.grid)
    prices = [float(c) for c in np.exp(np.linspace(-2.0, 2.0, 9))]
    cdf_rows = [[price, demand_cdf(psi, price), supply_cdf(psi, price)]
                for price in prices]
    grid_view = wigner(psi)
    norm_gap = abs(grid_view.normalization() - 1.0)
    checks = [
        CheckRecord("wigner_normalization",
                    "pass" if norm_gap <= 1e-8 else "fail", norm_gap, 1e-8,
                    "phase-space mass against 1"),
        CheckRecord("wigner_real",
                    "pass" if grid_view.max_imag <= 1e-10 else "fail",
                    grid_view.max_imag, 1e-10,
                    "largest imaginary residue before taking the real part"),
        CheckRecord("aliasing", "info",
                    1.0 if grid_view.aliased else 0.0, None,
                    "1 when visible mass reaches the grid edge"),
    ]
    tables = {
        "cdf": Table(columns=["price", "demand", "supply"], rows=cdf_rows),
        "wigner_summary": Table(
            columns=["normalization", "max_imag", "min_value", "p_step",
                     "q_step"],
            rows=[[grid_view.normalization(), grid_view.max_imag,
                   float(grid_view.values.min()), grid_view.p_step,
                   grid_view.q_step]]),
    }
    report = Report("market",
                    {"strategy": args.strategy,
                     "n_points": psi.grid.n_points}, checks, tables)
    if args.output == "csv":
        report.tables["wigner_grid"] = _wigner_as_table(grid_view)
    return report


def _wigner_as_table(grid_view) -> Table:
    """The grid as a table of Python floats: rows follow p, columns follow q."""
    return Table(columns=["p\\q", *map(repr, grid_view.q_nodes.tolist())],
                 rows=[[p, *row] for p, row in zip(grid_view.p_nodes.tolist(),
                                                   grid_view.values.tolist())])


def cmd_qfa(args) -> Report:
    payload = _read_json_object(args.automaton, "automaton")
    try:
        automaton = qfa_from_dict(payload)
    except ValidationError as exc:
        raise ValidationError(f"{args.automaton}: {exc}") from None
    words = args.word if args.word else [""]
    rows = [[word, qfa_run(automaton, list(word))] for word in words]
    return Report("qfa",
                  {"automaton": args.automaton, "dim": automaton.dim},
                  [], {"acceptance": Table(columns=["word", "probability"],
                                           rows=rows)})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgame",
        description="Quantum game toolbox: identity ledgers, game runs, "
                    "market tables.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="base seed for all sampling (default 0)")
    common.add_argument("--trials", type=int, default=10_000,
                        help="Monte-Carlo round count (default 10000)")
    common.add_argument("--output", choices=("text", "json", "csv"),
                        default="text", help="report rendering (default text)")
    common.add_argument("--out", metavar="PATH",
                        help="write the report to PATH instead of stdout")
    common.add_argument("--timing", action="store_true",
                        help="record wall time (breaks byte-stability)")

    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the full identity and synthesis ledger")
    p_verify.add_argument("--only", metavar="CHECK",
                          help="keep a single named check in the report")
    p_verify.add_argument("--corrupt", type=float, default=0.0, metavar="EPS",
                          help="rotate the switch gate's phase by EPS radians "
                               "(negative control)")
    p_verify.set_defaults(run=cmd_verify)

    p_newcomb = sub.add_parser("newcomb", parents=[common],
                               help="exact readout law of the prediction circuit")
    p_newcomb.add_argument("--control", type=int, choices=(0, 1), default=1,
                           help="upper-wire bit (default 1)")
    p_newcomb.add_argument("--breaker", choices=_BREAKER_CHOICES,
                           default="absent",
                           help="lower-wire insert (default absent)")
    p_newcomb.set_defaults(run=cmd_newcomb)

    p_gamble = sub.add_parser("gamble", parents=[common],
                              help="verified gambling payoffs, exact and sampled")
    p_gamble.add_argument("--theta", type=float, default=math.pi / 4,
                          help="preparation angle (default pi/4, honest)")
    p_gamble.add_argument("--p-verify", type=float, default=0.5,
                          dest="p_verify", help="audit probability (default 0.5)")
    p_gamble.add_argument("--reward", type=float, default=1.0,
                          help="payout for a flagged audit (default 1)")
    p_gamble.add_argument("--sweep", action="store_true",
                          help="add a 101-point preparation-angle sweep table")
    p_gamble.set_defaults(run=cmd_gamble)

    p_walk = sub.add_parser("walk", parents=[common],
                            help="correction walk survival curve vs the model")
    p_walk.add_argument("--n-max", type=int, default=20, dest="n_max",
                        help="largest survival horizon reported (default 20)")
    p_walk.set_defaults(run=cmd_walk)

    p_market = sub.add_parser("market", parents=[common],
                              help="demand/supply table and phase-space grid")
    p_market.add_argument("strategy", help="strategy description JSON file")
    p_market.add_argument("--grid", type=int, metavar="N",
                          help="override the grid point count")
    p_market.set_defaults(run=cmd_market)

    p_qfa = sub.add_parser("qfa", parents=[common],
                           help="acceptance probabilities of a finite automaton")
    p_qfa.add_argument("automaton", help="automaton description JSON file")
    p_qfa.add_argument("--word", action="append", metavar="SYMBOLS",
                       help="input word, one symbol per character "
                            "(repeatable; default: the empty word)")
    p_qfa.set_defaults(run=cmd_qfa)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        report = args.run(args)
    except QGameError as exc:
        print(f"qgame {args.command}: {exc}", file=sys.stderr)
        return 2
    if args.timing:
        report.wall_time_s = time.perf_counter() - started
    rendered = report.render(args.output)
    if args.out:
        try:
            Path(args.out).write_text(rendered)
        except OSError as exc:
            print(f"qgame {args.command}: cannot write report to {args.out}: "
                  f"{exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
