"""Deterministic result reporting for scenario runs.

Reports hold three things: the parameters a scenario ran with, tabular rows
of computed numbers, and named pass/fail checks with their tolerances.
Emission is byte-reproducible: floats are written with repr (shortest
round-trip form), JSON keys are sorted, and nothing time- or host-dependent
ever goes into an output file.  Wall-clock timings belong on stderr, not in
the artifacts.

Each file is rendered whole, by `RunReport.csv_text` or `json_text`, and
the writers take that text and write its UTF-8 bytes with os.write, so a
caller can render many files first and then write them back to back; each
file is whole when its writer returns.
json.dumps with indent=2 bypasses the C encoder, so `_json` writes the same
bytes with it: one C encoder per indent depth, built once, renders each
container that holds no non-empty container in one call, and each list of
flat records (rows, checks) in one call too.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np


@functools.lru_cache(maxsize=None)
def _encoder(depth: int):
    """The C JSON encoder, keys sorted, items on new lines indented to depth."""
    return c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None,
                          ": ", ",\n" + "  " * depth, True, False, True)


def _is_record(item) -> bool:
    """A non-empty dict that holds no non-empty container."""
    return isinstance(item, dict) and bool(item) and not any(
        isinstance(v, (dict, list, tuple)) and v for v in item.values()
    )


def _json(value, depth: int = 1) -> str:
    """json.dumps(value, sort_keys=True, indent=2) for data with string keys."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        return "".join(_encoder(depth)(value, 0))
    items = value.values() if isinstance(value, dict) else value
    pad = "  " * depth
    if not any(isinstance(item, (dict, list, tuple)) and item for item in items):
        inner = "".join(_encoder(depth)(value, 0))[1:-1]
    elif not isinstance(value, dict) and all(map(_is_record, value)):
        # One call renders every record, with the records' own item break
        # between them too.  The encoder escapes each newline inside a
        # string, so "}," + break + "{" occurs only between two records.
        field = "\n" + pad + "  "
        opening, closing = "{" + field, f"\n{pad}}}"
        records = "".join(_encoder(depth + 1)(value, 0))[2:-2]
        inner = opening + records.replace("}," + field + "{", f"{closing},\n{pad}{opening}") + closing
    elif isinstance(value, dict):
        inner = f",\n{pad}".join(f"{encode_basestring_ascii(key)}: {_json(item, depth + 1)}"
                                 for key, item in sorted(value.items()))
    else:
        inner = f",\n{pad}".join(_json(item, depth + 1) for item in value)
    left, right = "{}" if isinstance(value, dict) else "[]"
    return f"{left}\n{pad}{inner}\n{pad[2:]}{right}"


_PLAIN_TYPES = frozenset({float, int, str})


def format_value(value) -> str:
    """Shortest round-trip text for a cell value."""
    if type(value) in _PLAIN_TYPES:
        return str(value)
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@dataclass
class RunReport:
    """Everything a scenario run produced, ready to emit.  Each check is the
    dict its JSON file holds: name, passed, value, tolerance and detail."""

    scenario: str
    name: str
    parameters: dict
    rows: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check["passed"] for check in self.checks)

    def add_rows(self, **columns) -> None:
        """One row per index of the equally long columns, keyed in argument order."""
        for values in zip(*columns.values(), strict=True):
            self.rows.append(dict(zip(columns, values)))

    def add_check(self, name: str, passed: bool, value, tolerance, detail: str = "") -> None:
        self.checks.append({"name": name, "passed": bool(passed), "value": float(value),
                            "tolerance": float(tolerance), "detail": detail})

    def add_bound(self, name: str, value, tolerance, detail: str = "") -> None:
        """A check that passes while value stays at or below tolerance."""
        self.add_check(name, value <= tolerance, value, tolerance, detail)

    def add_range(self, name: str, values, low, high, detail: str = "") -> None:
        """A check that passes while every value lies in [low, high]; reports the
        maximum against high when it breaks high, else the minimum against low."""
        lowest, highest = np.min(values), np.max(values)
        value, bound = (highest, high) if highest > high else (lowest, low)
        self.add_check(name, low <= lowest and highest <= high, value, bound, detail)

    def summary_lines(self) -> list:
        lines = [f"[{self.scenario}] {self.name}: {len(self.rows)} rows"]
        for check in self.checks:
            verdict = "PASS" if check["passed"] else "FAIL"
            detail = f" ({check['detail']})" if check["detail"] else ""
            lines.append(f"  {verdict} {check['name']}: value={format_value(check['value'])} "
                         f"tolerance={format_value(check['tolerance'])}{detail}")
        return lines + [f"  note: {note}" for note in self.notes]

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "scenario": self.scenario,
            "name": self.name,
            "parameters": self.parameters,
            "rows": self.rows,
            "checks": self.checks,
            "notes": list(self.notes),
            "passed": self.passed,
        }

    def json_text(self) -> str:
        """json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + newline."""
        return _json(self.to_json_dict()) + "\n"

    def csv_text(self) -> str:
        """The tabular rows as CSV; column order follows the first row."""
        columns = list(self.rows[0]) if self.rows else []
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in self.rows:
            if list(row) != columns:
                raise ValueError("all report rows must share one column layout")
            cells = list(row.values())
            # csv renders float, int and str cells as format_value does.
            writer.writerow(cells if _PLAIN_TYPES.issuperset(map(type, cells))
                            else map(format_value, cells))
        return buffer.getvalue()

    def write_json(self, path, text: str) -> None:
        """Write text as UTF-8, replacing the file; mode bits as open(path, "w") gives them."""
        data = memoryview(text.encode("utf-8"))
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)

    # One body under two names, so that a timer can tell JSON from CSV writes.
    write_csv = write_json
