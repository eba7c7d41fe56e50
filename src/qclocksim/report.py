"""Deterministic result reporting for scenario runs.

Reports hold three things: the parameters a scenario ran with, tabular rows
of computed numbers, and named pass/fail checks with their tolerances.
Emission is byte-reproducible: floats are written with repr (shortest
round-trip form), JSON keys are sorted, and nothing time- or host-dependent
ever goes into an output file.  Wall-clock timings belong on stderr, not in
the artifacts.

Each file is rendered whole and written as its UTF-8 bytes in one binary
write.  json.dumps with indent=2 bypasses the C encoder, so `_json` writes
the same bytes with it: one C encoder per indent depth, built once, renders
each container that holds no non-empty container in one call.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np


def _write_file(path, text: str) -> None:
    with open(path, "wb") as handle:
        handle.write(text.encode("utf-8"))


@functools.lru_cache(maxsize=None)
def _encoder(depth: int):
    """The C JSON encoder, keys sorted, items on new lines indented to depth."""
    return c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None,
                          ": ", ",\n" + "  " * depth, True, False, True)


def _json(value, depth: int = 1) -> str:
    """json.dumps(value, sort_keys=True, indent=2) for data with string keys."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        return "".join(_encoder(depth)(value, 0))
    items = value.values() if isinstance(value, dict) else value
    pad = "  " * depth
    if not any(isinstance(item, (dict, list, tuple)) and item for item in items):
        inner = "".join(_encoder(depth)(value, 0))[1:-1]
    elif isinstance(value, dict):
        inner = f",\n{pad}".join(f"{encode_basestring_ascii(key)}: {_json(item, depth + 1)}"
                                 for key, item in sorted(value.items()))
    else:
        inner = f",\n{pad}".join(_json(item, depth + 1) for item in value)
    left, right = "{}" if isinstance(value, dict) else "[]"
    return f"{left}\n{pad}{inner}\n{pad[2:]}{right}"


def format_value(value) -> str:
    """Shortest round-trip text for a cell value."""
    if type(value) in (float, int, str):
        return str(value)
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
        self.checks.append(CheckResult(name, bool(passed), float(value), float(tolerance), detail))

    def add_bound(self, name: str, value, tolerance, detail: str = "") -> None:
        """A check that passes while value stays at or below tolerance."""
        self.add_check(name, value <= tolerance, value, tolerance, detail)

    def add_range(self, name: str, values, low, high, detail: str = "") -> None:
        """A check that passes while every value lies in [low, high]; reports the minimum."""
        lowest = np.min(values)
        self.add_check(name, low <= lowest and np.max(values) <= high, lowest, low, detail)

    def summary_lines(self) -> list:
        lines = [f"[{self.scenario}] {self.name}: {len(self.rows)} rows"]
        for check in self.checks:
            verdict = "PASS" if check.passed else "FAIL"
            detail = f" ({check.detail})" if check.detail else ""
            lines.append(f"  {verdict} {check.name}: value={format_value(check.value)} "
                         f"tolerance={format_value(check.tolerance)}{detail}")
        return lines + [f"  note: {note}" for note in self.notes]

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "scenario": self.scenario,
            "name": self.name,
            "parameters": self.parameters,
            "rows": self.rows,
            "checks": [dict(vars(check)) for check in self.checks],
            "notes": list(self.notes),
            "passed": self.passed,
        }

    def write_json(self, path) -> None:
        _write_file(path, _json(self.to_json_dict()) + "\n")

    def write_csv(self, path) -> None:
        """Emit the tabular rows; column order follows the first row."""
        columns = list(self.rows[0].keys()) if self.rows else []
        for row in self.rows:
            if list(row.keys()) != columns:
                raise ValueError("all report rows must share one column layout")
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([format_value(row[c]) for c in columns] for row in self.rows)
        _write_file(path, buffer.getvalue())
