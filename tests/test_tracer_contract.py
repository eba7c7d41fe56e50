"""The package names that perfbench/tracer.py wraps still exist.

The tracer replaces these names at run time to time each layer.  A rename
in the package would otherwise show only when the benchmark itself runs.
"""

import ast
import inspect
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
