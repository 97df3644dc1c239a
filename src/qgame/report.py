"""Report assembly and rendering for the command-line front end.

A report is the single source of truth for one command run: an echo of the
effective configuration, a list of named checks, and named tables.  JSON is
the canonical rendering; CSV and text are derived views with stable column
and section order.  Nothing here consults the clock unless a wall time was
explicitly recorded, so renderings are byte-stable for a fixed seed.

CSV is written row by row into a stream, so a table whose rows are made on
demand (the market's Wigner grid, one float array per row) is never held
as one string.  JSON and text reports are small and built whole.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable
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

    ``rows`` is any iterable that can be read more than once.  A row is a
    list of scalars or a 1-D float array.
    """

    columns: list[str]
    rows: Iterable


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
            for row in table.rows:
                if isinstance(row, np.ndarray):
                    out.write(csv_float_line(row))
                else:
                    writer.writerow(map(_format, row))

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
