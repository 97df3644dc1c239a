"""Correctness gate applied to every operation after the timed loop.

An operation fails when its exit code differs from the expected one, its
stderr holds a traceback, its output is not a valid report, or another run
of the same argv wrote different bytes.  Nothing here runs while an
operation is being timed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

TRACEBACK = "Traceback (most recent call last)"

# Sampling checks with a four-standard-error band.  A correct program misses
# such a band by chance (about 6e-5 per band); a miss by more than a quarter
# of the band (five standard errors) is treated as an error.
_BANDS = ("empirical_within_half_width", "first_step_quarter", "survival_within_band")
_CHANCE_SLACK = 1.25


def load_schema(root: Path):
    import jsonschema

    schema = json.loads((root / "docs" / "report.schema.json").read_text())
    return jsonschema.Draft7Validator(schema)


def digest(path: Path) -> str | None:
    if not path.is_file():
        return None
    sha = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def _chance_miss(payload: dict, failing: list[dict]) -> bool:
    """True when every failed check is a sampling band missed by under 5 sigma."""
    for check in failing:
        if check["name"] == "sweep_within_half_width":
            rows = payload["tables"]["sweep"]["rows"]  # theta, exact, empirical, half width
            if any(abs(emp - exact) > _CHANCE_SLACK * half
                   for _, exact, emp, half in rows):
                return False
        elif check["name"] not in _BANDS or check["deviation"] is None or \
                check["deviation"] > _CHANCE_SLACK * check["tolerance"]:
            return False
    return True


def _json_problem(text: str, command: str, validator) -> tuple[str | None, list, dict]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}", [], {}
    error = next(iter(validator.iter_errors(payload)), None)
    if error is not None:
        return f"schema: {error.message}", [], payload
    if payload["command"] != command:
        return f"report names command {payload['command']!r}", [], payload
    return None, [c for c in payload["checks"] if c["status"] == "fail"], payload


def _csv_problem(text: str, command: str) -> tuple[str | None, list]:
    rows = csv.reader(text.splitlines())
    if next(rows, [])[:1] != ["# qgame"] or "\n# table " not in text:
        return "CSV report lacks its header or tables", []
    failing = []
    for row in rows:
        if row and row[0].startswith("# table"):
            break
        if len(row) == 5 and row[1] == "fail":
            failing.append({"name": row[0], "status": "fail"})
    if command == "market" and "\n# table wigner_grid\n" not in text:
        return "market CSV report lacks the wigner_grid table", failing
    return None, failing


def content_problem(op, exit_code: int, out: Path, validator) -> tuple[str | None, bool]:
    """Check one output file against its op; return (problem, chance_miss)."""
    if not out.is_file():
        return f"no report written (exit {exit_code})", False
    text = out.read_text()
    command = op.argv[0]
    payload: dict = {}
    if op.output_format == "json":
        problem, failing, payload = _json_problem(text, command, validator)
    else:
        problem, failing = _csv_problem(text, command)
    if problem:
        return problem, False
    if exit_code != (1 if failing else 0):
        return f"exit {exit_code} disagrees with {len(failing)} failed checks", False
    if exit_code == op.expected_exit:
        return None, False
    if op.expected_exit == 0 and payload and _chance_miss(payload, failing):
        return None, True
    names = ", ".join(c["name"] for c in failing) or "none"
    return f"exit {exit_code}, expected {op.expected_exit} (failed: {names})", False


def gate(records: list[dict], validator) -> dict:
    """Mark each record's ``problem``; return failure counts for timed ops.

    ``records`` hold ``op``, ``exit``, ``out`` (a path), ``stderr`` and
    ``timed``.  Untimed records are the repeats that give every argv a
    second run to compare against.
    """
    by_argv: dict[tuple, set] = {}
    for record in records:
        record["digest"] = digest(Path(record["out"]))
        by_argv.setdefault(record["op"].argv, set()).add(record["digest"])
    checked: dict[tuple, tuple] = {}
    chance = 0
    for record in records:
        op = record["op"]
        if TRACEBACK in record["stderr"]:
            record["problem"] = "traceback on stderr"
        elif len(by_argv[op.argv]) > 1:
            record["problem"] = "repeat of the same argv wrote different bytes"
        else:
            key = (op.argv, record["exit"], record["digest"])
            if key not in checked:
                checked[key] = content_problem(op, record["exit"], Path(record["out"]),
                                               validator)
            record["problem"], missed = checked[key]
            chance += missed and record["timed"]
    timed = [r for r in records if r["timed"]]
    failed = [r for r in timed if r["problem"]]
    return {"attempted": len(timed), "failed": len(failed), "chance_misses": chance,
            "problems": sorted({f"{' '.join(r['op'].argv)}: {r['problem']}"
                                for r in records if r["problem"]})}


def needing_repeat(ops: list) -> list:
    """Ops whose argv ran only once, in first-seen order."""
    seen: dict[tuple, list] = {}
    for op in ops:
        seen.setdefault(op.argv, []).append(op)
    return [runs[0] for runs in seen.values() if len(runs) == 1]
