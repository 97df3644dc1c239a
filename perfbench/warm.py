"""Long-lived worker for the ``warm_exact`` workload.

Run as ``python warm.py --seed N --seconds S --trace 0|1 --work DIR
[--setup-only]``.  Set-up is timed from the top of this file: importing
qgame, building the operations and one untimed warm-up op.  The worker then
calls ``qgame.cli.main(argv)`` in a closed loop over whole cycles until the
op latencies sum to at least S seconds, repeats once, untimed, every argv
that ran only once, and prints one JSON line for the parent benchmark.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOAD = "warm_exact"


def run_op(op, out: Path) -> dict:
    import qgame.cli

    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = qgame.cli.main([*op.argv, "--out", str(out)])
    except Exception:
        code = -1
        err.write(traceback.format_exc())
    latency = time.perf_counter() - start
    return {"argv": op.argv, "expected_exit": op.expected_exit, "exit": code,
            "latency": latency, "out": str(out), "stderr": err.getvalue()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import qgame.cli  # noqa: F401

    root = Path(__file__).resolve().parent.parent
    inputs = workloads.make_inputs(WORKLOAD, args.seed, root, args.work)
    stream = workloads.cycles(WORKLOAD, args.seed, inputs)
    warm = run_op(workloads.warmup_op(WORKLOAD, args.seed, inputs), args.work / "warmup.out")
    setup_s = time.perf_counter() - _STARTED
    if warm["exit"] != 0:
        print(f"warm-up op failed: {warm}", file=sys.stderr)
        return 1
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    records, busy = [], 0.0
    for cycle in stream:
        for op in cycle:
            record = run_op(op, args.work / f"op{len(records)}.out")
            record["timed"] = True
            busy += record["latency"]
            records.append(record)
        if busy >= args.seconds:
            break
    if tracer is not None:
        result.update(tracer.summary())
        timed_spans = len(tracer.spans)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    ops = [workloads.Op(tuple(r["argv"]), r["expected_exit"]) for r in records]
    for index, op in enumerate(check.needing_repeat(ops)):
        record = run_op(op, args.work / f"repeat{index}.out")
        record["timed"] = False
        records.append(record)
    if tracer is not None:
        spans_path = args.work / "spans.jsonl"
        spans_path.write_text(json.dumps({"process": "warm_exact worker",
                                          "spans": tracer.spans[:timed_spans]}) + "\n")
        result["spans_path"] = str(spans_path)
    result["records"] = records
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
