"""qgame benchmark: three workloads, end-to-end metrics and a traced run.

One run measures one workload::

    python3 perfbench/run.py --workload cold_cli --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` repeats the same
workload with span wrappers installed and reports the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the same
figures for people.  ``--all`` runs every workload untraced and traced,
prints the tracing overhead and writes ``perfbench/out/results.json``.

The benchmark needs ``src/qgame`` and ``docs/report.schema.json`` next to
its own directory and uses only the standard library plus ``jsonschema``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import tomllib
from pathlib import Path
from time import perf_counter

import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
TAIL_PERCENTILE = 75
OP_TIMEOUT_S = 60.0
WORKER_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The program could not be benchmarked at all (missing or broken set-up)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    # The program sees only the generated argv and files, not a qubit cap
    # that happens to be set in the caller's environment.
    env.pop("QGAME_MAX_QUBITS", None)
    return env


def spawn(op: workloads.Op, stem: Path, trace: bool) -> dict:
    """Run one op in a fresh process; time it and read its rusage."""
    out, err, spans = (stem.with_suffix(s) for s in (".out", ".err", ".spans"))
    if trace:
        command = [sys.executable, "-X", "importtime", str(HERE / "child.py"), str(spans)]
    else:
        command = [sys.executable, "-m", "qgame.cli"]
    command += [*op.argv, "--out", str(out)]
    with err.open("w") as stderr:
        start = perf_counter()
        proc = subprocess.Popen(command, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=stderr,
                                cwd=ROOT, env=child_env())
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        latency = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"op": op, "exit": proc.returncode, "latency": latency, "out": str(out),
              "stderr": err.read_text(), "peak_rss_kb": usage.ru_maxrss}
    if trace and spans.is_file():
        record["trace"] = json.loads(spans.read_text())
    return record


def import_times(stderr: str) -> tuple[float, float]:
    """(import qgame.cli, outermost scipy imports) in seconds from -X importtime."""
    rows = []
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line.split("|")
            if cumulative.strip().isdigit():
                depth = (len(name) - len(name.lstrip()) - 1) // 2
                rows.append((depth, name.strip(), int(cumulative) * 1e-6))
    cli = sum(c for d, n, c in rows if d == 0 and n == "qgame.cli")
    # Output is post-order: a module's line follows its children's lines, so
    # walking backwards meets each parent before its children.
    scipy, stack = 0.0, []
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not (stack and stack[-1][2]):
            scipy += cumulative
        stack.append((depth, name, is_scipy or bool(stack and stack[-1][2])))
    return cli, scipy


def run_processes(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """cold_cli and bulk_arrays: a fresh qgame process per op."""
    setups = []
    for index in range(SETUP_REPEATS):
        start = perf_counter()
        inputs = workloads.make_inputs(name, seed, ROOT, work / f"setup{index}")
        warm = spawn(workloads.warmup_op(name, seed, inputs), work / f"setup{index}" / "warmup",
                     trace=False)
        setups.append(perf_counter() - start)
        if warm["exit"] != 0:
            raise BenchError(f"warm-up op failed with exit {warm['exit']}: {warm['stderr'][-2000:]}")
    records, busy = [], 0.0
    for cycle in workloads.cycles(name, seed, inputs):
        for op in cycle:
            record = spawn(op, work / f"op{len(records)}", trace)
            record["timed"] = True
            busy += record["latency"]
            records.append(record)
        if busy >= seconds:
            break
    timed = list(records)
    for index, op in enumerate(check.needing_repeat([r["op"] for r in timed])):
        record = spawn(op, work / f"repeat{index}", trace=False)
        record["timed"] = False
        records.append(record)
    result = {"setups": setups, "records": records,
              "peak_rss_kb": max(r["peak_rss_kb"] for r in timed)}
    if trace:
        traces = [r.get("trace") or {"spans": [], "layers": {}, "counters": {},
                                     "calls_by_scope": {}} for r in timed]
        result["summary"] = tracer.merge(traces)
        result["imports"] = [import_times(r["stderr"]) for r in timed]
        result["spans_file"] = work / "spans.jsonl"
        with result["spans_file"].open("w") as handle:
            for record, trace_data in zip(timed, traces):
                handle.write(json.dumps({"process": " ".join(record["op"].argv),
                                         "spans": trace_data["spans"]}) + "\n")
    return result


def run_warm(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """warm_exact: one long-lived worker calling qgame.cli.main per op."""
    def worker(*extra: str) -> dict:
        command = [sys.executable, str(HERE / "warm.py"), "--seed", str(seed),
                   "--seconds", repr(seconds), "--trace", str(int(trace)),
                   "--work", str(work / f"worker{len(setups)}"), *extra]
        proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"warm_exact worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    setups: list[float] = []
    for _ in range(SETUP_REPEATS - 1):
        setups.append(worker("--setup-only")["setup_s"])
    result = worker()
    setups.append(result["setup_s"])
    records = []
    for raw in result["records"]:
        op = workloads.Op(tuple(raw.pop("argv")), raw.pop("expected_exit"))
        records.append({"op": op, **raw})
    out = {"setups": setups, "records": records, "peak_rss_kb": result["peak_rss_kb"]}
    if trace:
        out["summary"] = {k: result[k] for k in ("layers", "counters", "calls_by_scope")}
        probe = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qgame.cli"],
                               capture_output=True, text=True, cwd=ROOT, env=child_env(),
                               timeout=OP_TIMEOUT_S)
        out["imports"] = [import_times(probe.stderr)]
        out["spans_file"] = result["spans_path"]
    return out


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    return sorted_values[max(math.ceil(percentile / 100 * len(sorted_values)) - 1, 0)]


def end_to_end(run: dict) -> dict:
    latencies = sorted(r["latency"] for r in run["records"] if r["timed"])
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_s": (nearest_rank(latencies, 50), "s"),
        "latency_tail_s": (nearest_rank(latencies, TAIL_PERCENTILE), "s"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(run["setups"]), "s"),
    }


def package_size() -> tuple[int, int]:
    """Non-blank, non-comment source lines of src/qgame; runtime dependencies."""
    lines = 0
    for path in sorted((ROOT / "src" / "qgame").rglob("*.py")):
        for line in path.read_text().splitlines():
            stripped = line.strip()
            lines += bool(stripped) and not stripped.startswith("#")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return lines, len(project.get("dependencies", []))


# Compute layers are reported as their self time's share of traced op time.
# Every workload prints every metric, and a layer that a workload bypasses
# would read a constant 0.0 s there; the traced table prints the seconds.
SHARE_LAYERS = {
    "measure.apply_matrix.self_pct": "measure.apply_matrix*",
    "pauli.match_pauli_word.self_pct": "pauli.match_pauli_word*",
    "transfer.self_pct": "transfer.*",
    "games.self_pct": "games.*",
    "market.wigner.self_pct": "market.wigner",
    "market.wigner_to_csv.self_pct": "market.wigner_to_csv",
    "walk.walk_steps_batch.self_pct": "walk.walk_steps_batch",
}
COUNT_LAYERS = {
    "measure.apply_matrix.calls": "measure.apply_matrix*",
    "pauli.match_pauli_word.calls": "pauli.match_pauli_word*",
    "transfer.chain_calls": "transfer.chain.*",
}


def _select(layers: dict, pattern: str, column: int) -> float:
    """Sum one column over span names equal to ``pattern``, or starting
    with it when it ends in ``*``."""
    if pattern.endswith("*"):
        return sum(row[column] for name, row in layers.items()
                   if name.startswith(pattern[:-1]))
    return layers.get(pattern, [0, 0.0, 0.0])[column]


def per_layer(run: dict) -> dict:
    timed = [r for r in run["records"] if r["timed"]]
    n = len(timed)
    busy = sum(r["latency"] for r in timed)
    layers = run["summary"]["layers"]
    counters = run["summary"]["counters"]
    cli_s = statistics.median(c for c, _ in run["imports"])
    scipy_s = statistics.median(s for _, s in run["imports"])
    src_lines, deps = package_size()
    metrics = {
        "import.qgame_cli_s": (cli_s, "s"),
        "import.scipy_pct": (100 * scipy_s / cli_s, "%"),
        "cli.main.self_s": (_select(layers, "cli.main", 2) / n, "s"),
        "cli.cmd.s": (_select(layers, "cli.cmd_*", 1) / n, "s"),
        "report.render.s": (_select(layers, "report.render.*", 1) / n, "s"),
        "trace.ops_per_s": (n / busy, "1/s"),
    }
    for metric, pattern in SHARE_LAYERS.items():
        metrics[metric] = (100 * _select(layers, pattern, 2) / busy, "%")
    for metric, pattern in COUNT_LAYERS.items():
        metrics[metric] = (_select(layers, pattern, 0) / n, "count")
    metrics["market.wigner.bytes_computed"] = (
        counters.get("market.wigner.bytes_computed", 0) / n, "B")
    metrics["walk.draw_bytes_computed"] = (counters.get("walk.draw_bytes_computed", 0) / n, "B")
    metrics["report.output_bytes"] = (
        sum(Path(r["out"]).stat().st_size for r in timed if Path(r["out"]).is_file()) / n, "B")
    metrics["package.src_lines"] = (src_lines, "count")
    metrics["package.runtime_deps"] = (deps, "count")
    return metrics


def layer_table(run: dict) -> list[str]:
    """Every traced span name with calls, self and inclusive seconds per op."""
    timed = [r for r in run["records"] if r["timed"]]
    n = len(timed)
    lines = [f"  {'span':42} {'calls/op':>10} {'self_s/op':>11} {'incl_s/op':>11}"]
    for name, (calls, total, own) in sorted(run["summary"]["layers"].items()):
        lines.append(f"  {name:42} {calls / n:10.2f} {own / n:11.6f} {total / n:11.6f}")
    for scope, calls in sorted(run["summary"]["calls_by_scope"].items()):
        entries = run["summary"]["layers"][scope][0]
        for layer in sorted(calls):
            if layer.startswith(("measure.apply_matrix", "pauli.match_pauli_word")):
                lines.append(f"  {layer} calls per {scope} call: {calls[layer] / entries:g}")
    cli_s = [c for c, _ in run["imports"]]
    scipy_s = [s for _, s in run["imports"]]
    lines.append(f"  import.qgame_cli_s {statistics.median(cli_s):.4f}, import.scipy_s "
                 f"{statistics.median(scipy_s):.4f} (median of {len(cli_s)} -X importtime runs)")
    lines.append("  market.wigner.bytes_computed and walk.draw_bytes_computed are computed "
                 "from array sizes, not measured")
    lines.append("  package.src_lines and package.runtime_deps are informational; "
                 "no change is gated on them")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    validator = check.load_schema(ROOT)
    work = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if name == "warm_exact":
            run = run_warm(seed, seconds, trace, work)
        else:
            run = run_processes(name, seed, seconds, trace, work)
        verdict = check.gate(run["records"], validator)
        metrics = per_layer(run) if trace else end_to_end(run)
        if trace:
            shutil.move(run["spans_file"], OUT / f"spans-{name}.jsonl")
            verdict["table"] = layer_table(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    verdict["metrics"] = metrics
    return verdict


def print_run(name: str, seed: int, trace: bool, verdict: dict) -> None:
    n = verdict["attempted"]
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"ops {n}  failed {verdict['failed']}")
    for metric, (value, unit) in verdict["metrics"].items():
        note = ""
        if metric == "latency_tail_s":
            beyond = n - math.ceil(TAIL_PERCENTILE / 100 * n)
            note = f"  (p{TAIL_PERCENTILE} of {n} samples, {beyond} beyond it)"
        print(f"  {metric:36} {value:14.6g} {unit}{note}")
    print(f"  {'error_rate':36} {verdict['failed'] / n:14.6g} ratio  "
          f"({verdict['failed']} of {n} ops)")
    if verdict["chance_misses"]:
        print(f"  {verdict['chance_misses']} ops missed a 4-sigma sampling band by chance "
              f"(within 5 sigma; not counted as failures)")
    for line in verdict.get("table", []):
        print(line)
    for problem in verdict["problems"]:
        print(f"  FAIL {problem}")


def result_line(verdict: dict) -> str:
    return json.dumps({
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in verdict["metrics"].items()},
    })


def run_all(seed: int, seconds: float) -> int:
    results = {}
    for name in workloads.WORKLOADS:
        plain = run_workload(name, seed, seconds, trace=False)
        print_run(name, seed, False, plain)
        traced = run_workload(name, seed, seconds, trace=True)
        print_run(name, seed, True, traced)
        overhead = plain["metrics"]["ops_per_s"][0] / traced["metrics"]["trace.ops_per_s"][0]
        print(f"  tracing overhead: untraced ops_per_s / traced ops_per_s = {overhead:.4f}")
        results[name] = {"end_to_end": json.loads(result_line(plain)),
                         "per_layer": json.loads(result_line(traced)),
                         "tracing_overhead": overhead}
    OUT.mkdir(exist_ok=True)
    (OUT / "results.json").write_text(json.dumps(
        {"seed": seed, "seconds": seconds, "workloads": results}, indent=2) + "\n")
    print(f"wrote {OUT / 'results.json'}")
    failed = sum(r["end_to_end"]["failed"] + r["per_layer"]["failed"] for r in results.values())
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="busy seconds to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("src/qgame/cli.py", "docs/report.schema.json", "pyproject.toml")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"qgame benchmark: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        if args.workload is None:
            parser.error("give --workload or --all")
        verdict = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"qgame benchmark: {exc}", file=sys.stderr)
        return 1
    print_run(args.workload, args.seed, bool(args.trace), verdict)
    print(result_line(verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
