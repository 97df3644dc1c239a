"""Report assembly and rendering for the command-line front end.

A report is the single source of truth for one command run: an echo of the
effective configuration, a list of named checks, and named tables.  JSON is
the canonical rendering; CSV and text are derived views with stable column
and section order.  Nothing here consults the clock unless a wall time was
explicitly recorded, so renderings are byte-stable for a fixed seed.

CSV is written row by row into a stream, so a large table (the market's
Wigner grid, one 2-D float array ``[p | values]``) is never held as one
string.  A float array's rows are formatted in one contiguous range per
available CPU, each range but the first in a spawned child process that
imports only the standard library, and the ranges are written in order,
so the output is what one process would write.  JSON and text reports are
small and built whole.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import shutil
import sys
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from . import __version__

@dataclass(frozen=True)
class CheckRecord:
    """One pass/fail/info line of a report."""

    name: str
    deviation: float | None
    tolerance: float | None
    detail: str = ""

    @property
    def status(self) -> str:
        """``info`` without a tolerance; otherwise ``pass`` exactly when the
        deviation is within it, so a NaN deviation fails."""
        if self.tolerance is None:
            return "info"
        return "pass" if self.deviation <= self.tolerance else "fail"

    @property
    def passed(self) -> bool:
        """Whether the check counts as passing; info rows never fail."""
        return self.status != "fail"


@dataclass(frozen=True)
class Table:
    """Named columns plus rows of plain scalars.

    ``rows`` is either a list of scalar lists, or a C-contiguous 2-D float64
    array, which the CSV writer splits into row ranges.
    """

    columns: list[str]
    rows: Sequence


def _json_scalar(value):
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    return value


@dataclass
class Report:
    command: str
    config: dict
    checks: list[CheckRecord] = field(default_factory=list)
    tables: dict[str, Table] = field(default_factory=dict)
    wall_time_s: float | None = None

    def exit_code(self) -> int:
        return 0 if all(c.passed for c in self.checks) else 1

    def to_payload(self) -> dict:
        payload = {
            "tool": "qgame",
            "version": __version__,
            "command": self.command,
            "config": {k: _json_scalar(v) for k, v in self.config.items()},
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "deviation": _json_scalar(c.deviation),
                    "tolerance": _json_scalar(c.tolerance),
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "tables": {
                name: {
                    "columns": list(table.columns),
                    "rows": [[_json_scalar(v) for v in row] for row in table.rows],
                }
                for name, table in self.tables.items()
            },
        }
        if self.wall_time_s is not None:
            payload["wall_time_s"] = self.wall_time_s
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2) + "\n"

    def _write_csv(self, out: TextIO) -> None:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["# qgame", __version__, self.command])
        if self.checks:
            writer.writerow(["# checks"])
            writer.writerow(["name", "status", "deviation", "tolerance", "detail"])
            for c in self.checks:
                writer.writerow([c.name, c.status, _format(c.deviation),
                                 _format(c.tolerance), c.detail])
        for name, table in self.tables.items():
            writer.writerow([f"# table {name}"])
            writer.writerow(table.columns)
            if isinstance(table.rows, np.ndarray):
                write_float_rows(out, table.rows)
            else:
                writer.writerows(map(_format, row) for row in table.rows)

    def to_text(self) -> str:
        lines = [f"qgame {__version__} :: {self.command}"]
        if self.config:
            settings = ", ".join(f"{k}={v}" for k, v in self.config.items())
            lines.append(f"config: {settings}")
        for c in self.checks:
            mark = {"pass": "ok ", "fail": "FAIL", "info": "info"}[c.status]
            tol = "" if c.tolerance is None else f" (tol {c.tolerance:g})"
            dev = "" if c.deviation is None else f" deviation {c.deviation:.3g}"
            lines.append(f"[{mark}] {c.name}{dev}{tol}")
            if c.status == "fail" and c.detail:
                lines.append(f"       {c.detail}")
        for name, table in self.tables.items():
            lines.append("")
            lines.append(f"table {name}:")
            widths = [max(len(str(col)), *(len(_format(r[i])) for r in table.rows))
                      if table.rows else len(str(col))
                      for i, col in enumerate(table.columns)]
            header = "  ".join(str(c).ljust(w) for c, w in zip(table.columns, widths))
            lines.append("  " + header)
            for row in table.rows:
                lines.append("  " + "  ".join(
                    _format(v).ljust(w) for v, w in zip(row, widths)))
        if self.wall_time_s is not None:
            lines.append("")
            lines.append(f"wall time: {self.wall_time_s:.3f} s")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str, out: TextIO) -> None:
        """Write the report in ``fmt`` (json, csv or text) into the text stream ``out``."""
        if fmt not in ("json", "csv", "text"):
            raise ValueError(f"unknown output format {fmt!r}")
        if fmt == "csv":
            self._write_csv(out)
        else:
            out.write(self.to_json() if fmt == "json" else self.to_text())


def _format(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def csv_float_line(row: np.ndarray) -> str:
    """One CSV line of a 1-D float array.

    Byte for byte what ``csv.writer`` writes for the same values through
    ``_format``: no float repr (nan, inf and exponents included) needs quoting.
    """
    return ",".join(map(repr, row.tolist())) + "\n"


# The program of a child that formats one row range: raw float64 rows of
# argv[1] values each on stdin, one csv_float_line per row on stdout.  It
# imports only the standard library and holds one row at a time; repr of a
# double is the text that csv_float_line writes for it.
_FORMAT_ROWS = """\
import sys
from array import array
width = int(sys.argv[1])
while row := sys.stdin.buffer.read(8 * width):
    sys.stdout.write(",".join(map(repr, array("d", row))) + "\\n")
"""


def write_float_rows(out: TextIO, rows: np.ndarray) -> None:
    """Write ``csv_float_line`` of every row of a C-contiguous 2-D float64
    array into ``out``, in order.

    The rows are split into one contiguous range per available CPU.  The
    first range is written here; each other range is handed to a spawned
    child as raw bytes in an unlinked temporary file, and the child's text
    goes to another, which is appended to ``out`` once every child has
    exited.  Raises ``OSError`` if a child cannot be started or fails.
    """
    # Imported here, not at module level: it would add ~8 ms to every
    # ``import qgame.cli``, and only a CSV float table needs it.
    import subprocess

    spawns = hasattr(os, "sched_getaffinity") and sys.executable
    cpus = len(os.sched_getaffinity(0)) if spawns else 1
    k = max(1, min(cpus, len(rows)))
    ends = [len(rows) * i // k for i in range(k + 1)]
    with contextlib.ExitStack() as stack:
        children = []
        for start, stop in zip(ends[1:-1], ends[2:]):
            spool = stack.enter_context(tempfile.TemporaryFile("w+"))
            with tempfile.TemporaryFile() as source:
                rows[start:stop].tofile(source)
                source.seek(0)
                # Entered into the stack, so every child is waited for even
                # when writing the first range raises; stderr is dropped, so
                # a failing child prints nothing.
                child = stack.enter_context(subprocess.Popen(
                    [sys.executable, "-I", "-S", "-c", _FORMAT_ROWS, str(rows.shape[1])],
                    stdin=source, stdout=spool, stderr=subprocess.DEVNULL))
            children.append((child, spool))
        out.writelines(map(csv_float_line, rows[ends[0]:ends[1]]))
        failed = sum(child.wait() != 0 for child, _ in children)
        if failed:
            raise OSError(f"{failed} of {k} row writers failed")
        for _, spool in children:
            spool.seek(0)
            shutil.copyfileobj(spool, out)
