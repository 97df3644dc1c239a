"""Span recorder that wraps qgame's public functions from outside the package.

``Tracer.install`` replaces module attributes with timing wrappers.  It
patches the names that callers actually look up: ``qgame.transfer`` calls
``apply_matrix`` and ``match_pauli_word`` through its own imported names,
and ``qgame.cli`` calls the game, market and walk functions through the
names it imported, so those are the attributes wrapped.  Spans (name,
start, end, parent) stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

COMMANDS = ("verify", "newcomb", "gamble", "walk", "market", "qfa")
CHAIN_ENTRY_POINTS = ("state_transfer_sigma_h", "transfer_identity",
                      "transfer_phase_t", "mbqc_cnot", "implicit_readout",
                      "measure_composite")

# (module, attribute, span name).  A function reached through two names gets
# one span name per name, marked with the module that holds the name.
PATCHES = (
    ("qgame.cli", "main", "cli.main"),
    *(("qgame.cli", f"cmd_{name}", f"cli.cmd_{name}") for name in COMMANDS),
    ("qgame.cli", "verify_universality", "transfer.verify_universality"),
    *(("qgame.transfer", name, f"transfer.chain.{name}") for name in CHAIN_ENTRY_POINTS),
    ("qgame.transfer", "apply_matrix", "measure.apply_matrix[transfer]"),
    ("qgame.measure", "apply_matrix", "measure.apply_matrix[measure]"),
    ("qgame.transfer", "match_pauli_word", "pauli.match_pauli_word[transfer]"),
    ("qgame.pauli", "match_pauli_word", "pauli.match_pauli_word[pauli]"),
    ("qgame.cli", "gvw_fair_point", "games.gvw_fair_point"),
    ("qgame.cli", "gvw_best_response", "games.gvw_best_response"),
    ("qgame.cli", "gvw_simulate", "games.gvw_simulate"),
    ("qgame.cli", "newcomb_run", "games.newcomb_run"),
    ("qgame.cli", "qfa_run", "games.qfa_run"),
    ("qgame.cli", "wigner", "market.wigner"),
    ("qgame.cli", "wigner_to_csv", "market.wigner_to_csv"),
    ("qgame.cli", "walk_steps_batch", "walk.walk_steps_batch"),
)


def _wigner_bytes(counters, args, kwargs):
    # A complex128 n x n grid; computed from the grid size, not measured.
    n = args[0].grid.n_points
    counters["market.wigner.bytes_computed"] += 16 * n * n


def _walk_bytes(counters, args, kwargs):
    # The first window of int64 letter draws, trials x 64 x 8 bytes;
    # computed from the trial count, not measured.
    trials = args[2] if len(args) > 2 else kwargs["trials"]
    counters["walk.draw_bytes_computed"] += trials * 64 * 8


SCOPES = ("transfer.verify_universality",)

_COUNTERS = {"market.wigner": _wigner_bytes, "walk.walk_steps_batch": _walk_bytes}


class Tracer:
    """Collects nested spans and byte counters for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, label=None, count=None):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(counters, args, kwargs)
            index = len(spans)
            spans.append([label(args) if label else name, perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()

        return traced

    def install(self) -> None:
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr),
                                            count=_COUNTERS.get(name)))
        report = importlib.import_module("qgame.report").Report
        report.render = self.wrap("report.render", report.render,
                                  label=lambda args: f"report.render.{args[1]}")

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds; calls per scope.

        A span's self time is its duration minus the time its child spans
        cover.  A scope is a ``cli.cmd_*`` or ``verify_universality`` span:
        ``calls_by_scope`` counts the calls made inside each, so that calls
        per ``verify`` op can be read off.  Parents precede their children
        in ``spans``, so one pass finds every span's enclosing scopes.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        scopes: list[tuple] = [()] * len(spans)
        for index, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                scopes[index] = scopes[parent]
            if name in SCOPES or name.startswith("cli.cmd_"):
                scopes[index] = scopes[index] + (name,)
        layers: dict[str, list] = {}
        by_scope: dict[str, Counter] = {}
        for (name, start, end, _), inner, enclosing in zip(spans, child_time, scopes):
            row = layers.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
            for scope in enclosing:
                by_scope.setdefault(scope, Counter())[name] += 1
        return {"layers": layers, "counters": dict(self.counters),
                "calls_by_scope": {k: dict(v) for k, v in by_scope.items()}}


def merge(summaries) -> dict:
    """Sum per-process summaries into one."""
    layers: dict[str, list] = {}
    counters: Counter = Counter()
    by_scope: dict[str, Counter] = {}
    for summary in summaries:
        for name, (calls, total, own) in summary["layers"].items():
            row = layers.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        counters.update(summary["counters"])
        for scope, calls in summary["calls_by_scope"].items():
            by_scope.setdefault(scope, Counter()).update(calls)
    return {"layers": layers, "counters": dict(counters),
            "calls_by_scope": {k: dict(v) for k, v in by_scope.items()}}
