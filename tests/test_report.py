"""Result writers: the bytes each file holds."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qclocksim.cli import main
from qclocksim.report import RunReport, _json, format_value

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Text that holds what a renderer splicing records by their breaks could
# confuse: braces, commas, quotes, raw and Unicode line breaks, non-ASCII.
_TEXT = st.text(st.sampled_from('}{,"\n\u2028 :aé∆') | st.characters(codec="utf-8"), max_size=8)
_SCALARS = (
    st.none() | st.booleans() | st.integers() | _TEXT
    | st.floats() | st.floats().map(np.float64)
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, np.float64(-0.0)])
)
_CELLS = _SCALARS | st.sampled_from([[], {}, ()])
# Lists of flat records: non-empty dicts of scalars and empty containers.
_RECORDS = st.lists(st.dictionaries(_TEXT, _CELLS, min_size=1, max_size=5), min_size=1, max_size=4)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4) | _RECORDS
    | st.lists(_RECORDS | inner, max_size=3),
    max_leaves=30,
)


@st.composite
def _report_documents(draw):
    """A report whose rows share one column layout, with tricky keys, text and values."""
    columns = draw(st.lists(_TEXT, min_size=1, max_size=5, unique=True))
    report = RunReport(
        scenario=draw(_TEXT), name="hypothesis", parameters=draw(st.dictionaries(_TEXT, _CELLS))
    )
    for _ in range(draw(st.integers(0, 4))):
        report.rows.append({column: draw(_CELLS) for column in columns})
    for _ in range(draw(st.integers(0, 3))):
        report.add_check(draw(_TEXT), draw(st.booleans()), draw(st.floats()),
                         draw(st.floats()), draw(_TEXT))
    report.notes.extend(draw(st.lists(_TEXT, max_size=3)))
    return report


def _text_file_json(report, path):
    """JSON written through a text file object: the reference bytes."""
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text + "\n")


def _text_file_csv(report, path):
    """CSV written through a text file object: the reference bytes."""
    columns = list(report.rows[0].keys()) if report.rows else []
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in report.rows:
            writer.writerow([format_value(row[c]) for c in columns])


def _reports():
    mixed = RunReport(scenario="swp", name="mixed", parameters={"label": "Δτ ≈ 0.1", "dim": 8})
    mixed.rows.append({"stage": "before, \"quoted\"", "value": 0.1, "count": 3, "ok": True})
    mixed.rows.append({"stage": "après — ω₀", "value": np.float64(1e-300), "count": -4, "ok": False})
    mixed.add_bound("residual", 2.5e-17, 1e-12, "µ-level")
    mixed.notes.append("τ note")
    empty = RunReport(scenario="swp", name="empty", parameters={})
    return [mixed, empty]


def test_json_text_renders_to_json_dict(monkeypatch):
    # One layout: a key that to_json_dict gains is in the text, in sorted place.
    report = _reports()[0]
    to_json_dict = RunReport.to_json_dict
    monkeypatch.setattr(RunReport, "to_json_dict",
                        lambda self: {**to_json_dict(self), "extra": [1.5, "x"]})
    text = report.json_text()
    assert '"extra": [' in text
    assert text == json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"


def test_writers_give_the_bytes_of_a_text_file_object(tmp_path):
    for report in _reports():
        for write, render, old_write, suffix in (
            (report.write_json, report.json_text, _text_file_json, "json"),
            (report.write_csv, report.csv_text, _text_file_csv, "csv"),
        ):
            new, old = tmp_path / f"new-{report.name}.{suffix}", tmp_path / f"old-{report.name}.{suffix}"
            old_write(report, old)
            new.write_bytes(b"stale bytes that are longer than the report itself " * 200)
            write(new, render())
            assert new.read_bytes() == old.read_bytes()


def test_format_value_fast_path_matches_the_general_forms():
    for value, text in ((0.1, "0.1"), (np.float64(0.1), "0.1"), (-3, "-3"), (np.int32(-3), "-3"),
                        (True, "true"), (np.bool_(False), "false"), ("ω", "ω"), (1e-300, "1e-300")):
        assert format_value(value) == text


@settings(max_examples=200, deadline=None)
@given(_DOCUMENTS)
def test_json_renderer_gives_the_bytes_of_json_dumps(document):
    assert _json(document) == json.dumps(document, sort_keys=True, indent=2)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_report_documents())
def test_writers_give_the_reference_bytes_over_longer_files(tmp_path, report):
    for write, render, reference, suffix in (
        (report.write_json, report.json_text, _text_file_json, "json"),
        (report.write_csv, report.csv_text, _text_file_csv, "csv"),
    ):
        new, old = tmp_path / f"new.{suffix}", tmp_path / f"old.{suffix}"
        reference(report, old)
        new.write_bytes(b"stale bytes longer than the report " + old.read_bytes() * 2)
        write(new, render())
        assert new.read_bytes() == old.read_bytes()


def test_a_failing_range_check_reports_the_bound_it_broke():
    report = RunReport(scenario="s", name="r", parameters={})
    report.add_range("high", [1.9, 2.5], 1.6, 2.4)
    report.add_range("low", [1.5, 2.0], 1.6, 2.4)
    report.add_range("inside", [1.9, 2.0], 1.6, 2.4)
    assert [(c["name"], c["passed"], c["value"], c["tolerance"]) for c in report.checks] == [
        ("high", False, 2.5, 2.4), ("low", False, 1.5, 1.6), ("inside", True, 1.9, 1.6)]
    assert "  FAIL high: value=2.5 tolerance=2.4" in report.summary_lines()


@pytest.mark.parametrize("config", ["boost-sweep", "full-suite"])
def test_every_written_result_json_is_the_bytes_of_json_dumps_and_holds_a_check(
    tmp_path, capsys, config
):
    assert main(["run", str(CONFIGS / f"{config}.json"), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    paths = sorted(tmp_path.glob("*.json"))
    assert paths
    for path in paths:
        data = path.read_bytes()
        document = json.loads(data)
        assert data == (json.dumps(document, sort_keys=True, indent=2) + "\n").encode()
        # A report with no check records "passed": true whatever it computed.
        assert document["checks"], f"{path.name} holds no check"
