"""The engine modules measure, `oracles` predicts, and reports, verdicts,
configs and the command line sit above them both.

No engine module imports from `report`, `runners`, `config` or `cli`, so
an engine cannot make a report or pass a verdict of its own.  Neither does
`oracles`.  No engine imports `oracles` either, so an engine cannot grade
itself against its own closed form; the one exception is listed in
ENGINES_READING_ORACLES with its reason.  Checked on the source with `ast`,
so a lazy import inside a function counts too.

A job's engine objects are built once, by its plan at load: no runner in
`runners` calls a constructor that the plans call.  `runners` owns the
job: `config` calls no plan and reads no kind's `batches` or parameter
`check`, and `run_config` runs the stored jobs without expanding any run.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qclocksim"
ENGINES = ("units", "errors", "spectrum", "states", "operators", "sequences", "grid",
           "gridops", "swp", "ionclock")
ORACLES = "oracles"
ABOVE = {"report", "runners", "config", "cli"}
# What a plan builds: a runner that called one would build it again.
PLAN_TIME = {"stack_spectra", "default_probe", "ladder_spectrum", "make_spectrum",
             "internal_superposition", "gaussian_grid_state", "TrapModel", "SWPClock",
             "DilationProfile"}
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


def test_no_runner_calls_a_plan_time_constructor():
    tree = ast.parse((PACKAGE / "runners.py").read_text(encoding="utf-8"))
    runners = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_run_")]
    called = {(runner.name, getattr(node.func, "id", getattr(node.func, "attr", None)))
              for runner in runners for node in ast.walk(runner) if isinstance(node, ast.Call)}
    assert len(runners) == 6
    assert {(runner, name) for runner, name in called if name in PLAN_TIME} == set()


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
