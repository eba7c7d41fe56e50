"""The engine modules measure, `oracles` predicts, and reports, verdicts,
configs and the command line sit above them both.

No engine module imports from `report`, `runners`, `config` or `cli`, so
an engine cannot make a report or pass a verdict of its own.  Neither does
`oracles`.  No engine imports `oracles` either, so an engine cannot grade
itself against its own closed form; the one exception is listed in
ENGINES_READING_ORACLES with its reason.  Checked on the source with `ast`,
so a lazy import inside a function counts too.

A job's engine objects are built once, by its plan at load: no runner in
`runners` calls a constructor that the plans call.  A twin or entanglement
job is measured once too, by its plan through the engine's entry point, so
no runner calls a sequence engine and a loaded config runs with those entry
points gone.  `runners` owns the job: `config` calls no plan and reads no
kind's `batches` or parameter `check`, and `run_config` runs the stored jobs
without expanding any run.
"""

import ast
from pathlib import Path

import pytest

from qclocksim import load_config, run_config, runners

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qclocksim"
ENGINES = ("units", "errors", "spectrum", "states", "operators", "sequences", "grid",
           "gridops", "swp", "ionclock")
ORACLES = "oracles"
ABOVE = {"report", "runners", "config", "cli"}
# What a plan builds: a runner that called one would build it again.
PLAN_TIME = {"stack_spectra", "default_probe", "ladder_spectrum", "make_spectrum",
             "internal_superposition", "gaussian_grid_state", "TrapModel", "SWPClock",
             "DilationProfile"}
# What a twin or entanglement plan measures with: a runner that called one
# would trace the job again.
SEQUENCE_ENGINE = {"run_sequence", "entanglement_frame_demo", "build_sequence", "trace_chain",
                   "apply_operator"}
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
ENGINES_READING_ORACLES = {
    "ionclock": "the scan grid is centred on the predicted carrier shift",
}


def _imported_modules(stem: str) -> set:
    """The package modules a module's imports name, at any depth."""
    tree = ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("qclocksim"):
                continue
            # `from . import report` names the module as an alias.
            names = [module.removeprefix("qclocksim").lstrip(".") or alias.name
                     for alias in node.names]
        else:
            continue
        for name in names:
            found.add(name.removeprefix("qclocksim.").split(".")[0])
    return found


@pytest.mark.parametrize("engine", ENGINES)
def test_an_engine_module_imports_nothing_from_the_layers_above(engine):
    assert _imported_modules(engine) & ABOVE == set()


def test_the_oracles_import_nothing_from_the_layers_above():
    assert _imported_modules(ORACLES) & ABOVE == set()


@pytest.mark.parametrize("engine", [e for e in ENGINES if e not in ENGINES_READING_ORACLES])
def test_an_engine_module_does_not_read_the_oracles(engine):
    assert ORACLES not in _imported_modules(engine)


@pytest.mark.parametrize("engine", sorted(ENGINES_READING_ORACLES))
def test_an_engine_listed_as_reading_the_oracles_does(engine):
    # An exception that no longer holds is dropped from the list.
    assert ORACLES in _imported_modules(engine)


def _runner_calls() -> set:
    """(runner, called name) for each call in a `_run_*` function of `runners`."""
    tree = ast.parse((PACKAGE / "runners.py").read_text(encoding="utf-8"))
    functions = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name.startswith("_run_")]
    assert len(functions) == 6
    return {(runner.name, getattr(node.func, "id", getattr(node.func, "attr", None)))
            for runner in functions for node in ast.walk(runner) if isinstance(node, ast.Call)}


def test_no_runner_calls_a_plan_time_constructor():
    assert {(runner, name) for runner, name in _runner_calls() if name in PLAN_TIME} == set()


def test_no_runner_calls_a_sequence_engine():
    assert {(runner, name) for runner, name in _runner_calls() if name in SEQUENCE_ENGINE} == set()


def test_runners_import_nothing_from_the_operators():
    assert "operators" not in _imported_modules("runners")


@pytest.mark.parametrize("config_name", ["full-suite", "boost-sweep"])
def test_a_loaded_config_runs_without_the_sequence_engines(monkeypatch, config_name):
    # The load measured every twin and entanglement job; the runs only grade.
    config = load_config(CONFIGS / f"{config_name}.json")
    expected = [report.json_text() for report in run_config(load_config(
        CONFIGS / f"{config_name}.json"))]

    def gone(*args, **kwargs):
        raise AssertionError("a run called a sequence engine")

    for name in ("run_sequence", "entanglement_frame_demo"):
        monkeypatch.setattr(runners, name, gone)
    assert [report.json_text() for report in run_config(config)] == expected


def _calls_and_reads(node) -> tuple:
    """The names that node calls, and the attributes it reads."""
    called = {getattr(n.func, "id", getattr(n.func, "attr", None))
              for n in ast.walk(node) if isinstance(n, ast.Call)}
    return called, {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_the_config_layer_reads_only_each_kinds_schema_and_tolerances():
    called, read = _calls_and_reads(ast.parse((PACKAGE / "config.py").read_text(encoding="utf-8")))
    assert "plan_jobs" in called
    assert "plan" not in called
    assert read & {"plan", "batches", "check"} == set()


def test_run_config_runs_the_stored_jobs_without_expanding_runs():
    tree = ast.parse((PACKAGE / "runners.py").read_text(encoding="utf-8"))
    [run_config] = [node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "run_config"]
    called, read = _calls_and_reads(run_config)
    assert "run_scenario" in called and "jobs" in read
    assert called & {"expand", "jobs"} == set()


def test_every_module_of_the_package_is_an_engine_the_oracles_or_above_them():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(ENGINES) | {ORACLES} | ABOVE
