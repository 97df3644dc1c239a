"""Report assembly and rendering for the command-line front end.

A report is the single source of truth for one command run: an echo of the
effective configuration, a list of named checks, and named tables.  JSON is
the canonical rendering; CSV and text are derived views with stable column
and section order.  Nothing here consults the clock unless a wall time was
explicitly recorded, so renderings are byte-stable for a fixed seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

from . import __version__

_STATUSES = ("pass", "fail", "info")


@dataclass(frozen=True)
class CheckRecord:
    """One pass/fail/info line of a report."""

    name: str
    status: str
    deviation: float | None
    tolerance: float | None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}, got {self.status!r}")

    @property
    def passed(self) -> bool:
        """Whether the check counts as passing; info rows never fail."""
        return self.status != "fail"


@dataclass(frozen=True)
class Table:
    """Named columns plus rows of plain scalars."""

    columns: list[str]
    rows: list[list]


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

    def to_csv(self) -> str:
        out = io.StringIO()
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
            writer.writerows(map(_format, row) for row in table.rows)
        return out.getvalue()

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

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "text":
            return self.to_text()
        raise ValueError(f"unknown output format {fmt!r}")


def _format(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)
