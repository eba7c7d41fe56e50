"""Deterministic result reporting for scenario runs.

Reports hold three things: the parameters a scenario ran with, tabular rows
of computed numbers, and named pass/fail checks with their tolerances.
Emission is byte-reproducible: floats are written with repr (shortest
round-trip form), JSON keys are sorted, and nothing time- or host-dependent
ever goes into an output file.  Wall-clock timings belong on stderr, not in
the artifacts.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np


def format_value(value) -> str:
    """Shortest round-trip text for a cell value."""
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@dataclass(frozen=True)
class CheckResult:
    """One named tolerance check inside a scenario run."""

    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""


@dataclass
class RunReport:
    """Everything a scenario run produced, ready to emit."""

    scenario: str
    name: str
    parameters: dict
    rows: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def add_check(self, name: str, passed: bool, value, tolerance, detail: str = "") -> None:
        self.checks.append(
            CheckResult(
                name=name,
                passed=bool(passed),
                value=float(value),
                tolerance=float(tolerance),
                detail=detail,
            )
        )

    def add_bound(self, name: str, value, tolerance, detail: str = "") -> None:
        """A check that passes while value stays at or below tolerance."""
        self.add_check(name, value <= tolerance, value, tolerance, detail)

    def summary_lines(self) -> list:
        lines = [f"[{self.scenario}] {self.name}: {len(self.rows)} rows"]
        for check in self.checks:
            verdict = "PASS" if check.passed else "FAIL"
            line = (
                f"  {verdict} {check.name}: value={format_value(check.value)} "
                f"tolerance={format_value(check.tolerance)}"
            )
            if check.detail:
                line += f" ({check.detail})"
            lines.append(line)
        for note in self.notes:
            lines.append(f"  note: {note}")
        return lines

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "scenario": self.scenario,
            "name": self.name,
            "parameters": self.parameters,
            "rows": self.rows,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "value": c.value,
                    "tolerance": c.tolerance,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "notes": list(self.notes),
            "passed": self.passed,
        }

    def write_json(self, path) -> None:
        text = json.dumps(self.to_json_dict(), sort_keys=True, indent=2)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text + "\n")

    def write_csv(self, path) -> None:
        """Emit the tabular rows; column order follows the first row."""
        columns = list(self.rows[0].keys()) if self.rows else []
        for row in self.rows:
            if list(row.keys()) != columns:
                raise ValueError("all report rows must share one column layout")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(columns)
            for row in self.rows:
                writer.writerow([format_value(row[c]) for c in columns])
