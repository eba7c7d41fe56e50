"""The package names that perfbench/tracer.py wraps, and what its hooks
read from their arguments and results, still exist, and every engine entry
point it wraps on qclocksim.runners is called by a run.

The tracer replaces these names at run time to time each layer, and its
`_after_*` hooks count work from what the wrapped calls took and returned.
A rename or deletion in the package would otherwise show only when the
benchmark itself runs.
"""

import ast
import inspect
import json
import os
from pathlib import Path

import pytest

from qclocksim import (
    accelerated_frame_trotter,
    cli,
    entanglement_frame_demo,
    gaussian_grid_state,
    ladder_spectrum,
    load_config,
    parse_config,
    run_config,
    runners,
    sequences,
    swp,
)
from qclocksim.report import RunReport

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


def test_every_run_scenario_call_names_its_runs_as_a_list_of_str(monkeypatch):
    # The tracer stores the second argument of run_scenario as each span's
    # run id and writes the spans with json.dump.
    run_ids = []
    run_scenario = runners.run_scenario

    def recorded(kind, names, *args):
        run_ids.append(names)
        return run_scenario(kind, names, *args)

    monkeypatch.setattr(runners, "run_scenario", recorded)
    config = load_config(CONFIGS / "full-suite.json")
    sweep = {"parameter": "boost", "start": 0.05, "stop": 0.1, "count": 3}
    config.scenarios += parse_config({"schema_version": 1, "scenarios": [
        {"kind": "swp", "name": "swept", "sweep": sweep}]}).scenarios
    reports = run_config(config)
    assert len(run_ids) == len(config.scenarios) + 2
    for names in run_ids:
        assert isinstance(names, list) and names
        assert all(isinstance(name, str) for name in names)
        json.dumps(names)
    assert [name for names in run_ids for name in names] == [report.name for report in reports]


def test_every_runner_target_is_called_by_a_run(tmp_path, monkeypatch):
    # A target imported into runners but never called would time nothing, and
    # its work would count elsewhere.
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    targets = _runner_targets()
    for name in targets:
        monkeypatch.setattr(runners, name, counted(name, getattr(runners, name)))
    config = json.loads((CONFIGS / "full-suite.json").read_text(encoding="utf-8"))
    config["scenarios"].append({"kind": "twin-velocity", "name": "explicit-levels",
                                "params": {"epsilons": [0.0, 0.05, 0.12]}})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    run_config(load_config(path))
    assert [name for name in targets if name not in calls] == []


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


@pytest.mark.parametrize("method, render", [("write_json", "json_text"), ("write_csv", "csv_text")])
def test_each_writer_has_written_its_whole_file_when_it_returns(tmp_path, method, render):
    # The tracer reads os.path.getsize(path) right after each writer call.
    report = RunReport(scenario="swp", name="r", parameters={"label": "\u00b5-clock"})
    for i in range(5000):
        report.rows.append({"index": i, "label": "\u00e9t\u00e9", "value": i / 7})
    report.add_bound("bound", 0.5, 1.0, "d\u00e9tail")
    report.notes.append("\u00fc" * 100)
    text = getattr(report, render)()
    path = tmp_path / f"r.{render}"
    getattr(report, method)(path, text)
    assert os.path.getsize(path) == len(text.encode()) > 100_000


def _hook_argument_keys(hook: str) -> set:
    """The keys a tracer hook reads from its bound arguments, as args["key"]
    or args.get("key")."""
    [node] = [n for n in ast.walk(ast.parse(TRACER.read_text(encoding="utf-8")))
              if isinstance(n, ast.FunctionDef) and n.name == hook]
    keys = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Subscript) and getattr(n.value, "id", None) == "args":
            keys.add(n.slice.value)
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
              and getattr(n.func.value, "id", None) == "args" and n.func.attr == "get"):
            keys.add(n.args[0].value)
    return keys


def test_the_run_sequence_arguments_the_tracer_reads_are_its_parameters():
    pinned = {"kind", "spectrum", "boost", "duration", "probe", "translation_level",
              "state_dependent_translation"}
    assert _hook_argument_keys("_after_run_sequence") <= pinned
    assert pinned <= set(inspect.signature(sequences.run_sequence).parameters)


def test_the_trotter_report_holds_the_step_counts():
    state = gaussian_grid_state(ladder_spectrum(2, 0.1), size=128, box_length=48.0, sigma=3.0)
    report = accelerated_frame_trotter(state, 0.02, 1.0, steps=(4, 8))
    # The tracer adds up the steps of every product as split steps.
    assert int(sum(int(n) for n in report.steps)) == 12


@pytest.mark.parametrize("boost", [0.01, [0.01, 0.02]])
def test_the_entanglement_demo_holds_the_unboosted_state(boost):
    demo = entanglement_frame_demo(ladder_spectrum(3, 0.05), 0.1, boost)
    # The tracer counts the components of the state the boost acts on.
    assert len(demo.state_before.levels) == 3


def test_a_loaded_config_expands_each_scenario_into_its_runs(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema_version": 1, "scenarios": [
        {"kind": "twin-velocity", "name": "one"},
        {"kind": "swp", "name": "many",
         "sweep": {"parameter": "boost", "start": 0.01, "stop": 0.02, "count": 3}},
    ]}))
    config = load_config(path)
    # The tracer counts a loaded config's runs this way.
    assert [[name for name, _ in spec.expand()] for spec in config.scenarios] == [
        ["one"], ["many-0", "many-1", "many-2"]]
