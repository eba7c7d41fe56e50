"""The package names that perfbench/tracer.py wraps still exist.

The tracer replaces these names at run time to time each layer.  A rename
in the package would otherwise show only when the benchmark itself runs.
"""

import ast
import inspect
import os
from pathlib import Path

import pytest

from qclocksim import cli, runners, sequences, swp
from qclocksim.report import RunReport

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _runner_targets() -> dict:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "_RUNNER_TARGETS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no _RUNNER_TARGETS")


def test_every_runner_target_resolves_on_runners():
    targets = _runner_targets()
    assert targets
    missing = [name for name in targets if not callable(getattr(runners, name, None))]
    assert missing == []


@pytest.mark.parametrize(
    "module, name",
    [(cli, "load_config"), (cli, "run_config"), (swp, "read_pointer"),
     (sequences, "build_sequence"), (RunReport, "summary_lines")],
)
def test_wrapped_function_exists(module, name):
    assert callable(getattr(module, name, None))


@pytest.mark.parametrize("method", ["write_json", "write_csv"])
def test_report_writers_take_a_path(method):
    assert "path" in inspect.signature(getattr(RunReport, method)).parameters


@pytest.mark.parametrize("prerendered", [False, True])
@pytest.mark.parametrize("method, render", [("write_json", "json_text"), ("write_csv", "csv_text")])
def test_each_writer_has_written_its_whole_file_when_it_returns(tmp_path, method, render,
                                                                 prerendered):
    # The tracer reads os.path.getsize(path) right after each writer call.
    report = RunReport(scenario="swp", name="r", parameters={"label": "\u00b5-clock"})
    for i in range(5000):
        report.rows.append({"index": i, "label": "\u00e9t\u00e9", "value": i / 7})
    report.add_bound("bound", 0.5, 1.0, "d\u00e9tail")
    report.notes.append("\u00fc" * 100)
    text = getattr(report, render)()
    path = tmp_path / f"r.{render}"
    if prerendered:
        getattr(report, method)(path, text)
    else:
        getattr(report, method)(path)
    assert os.path.getsize(path) == len(text.encode()) > 100_000
