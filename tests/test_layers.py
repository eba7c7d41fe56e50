"""The engine modules measure, `oracles` predicts, and reports, verdicts,
configs and the command line sit above them both.

No engine module imports from `report`, `runners`, `config` or `cli`, so
an engine cannot make a report or pass a verdict of its own.  Neither does
`oracles`.  No engine imports `oracles` either, so an engine cannot grade
itself against its own closed form: where an engine needs a prediction, such
as the centre of the ion scan grid, its caller passes it in.  Checked on the
source with `ast`, so a lazy import inside a function counts too.

A job's engine objects are built once, by its plan at load: no runner in
`runners` calls a constructor that the plans call.  A twin or entanglement
job is measured once too, by its plan through the engine's entry point, so
no runner calls a sequence engine and a loaded config runs with those entry
points gone.  Every runner makes its rows through `RunReport.add_rows`.
`runners` owns the job: `config` calls no plan and reads no kind's `batches`
or parameter `check`, and `run_config` runs the stored jobs without
expanding any run.  Which momenta a grid run reaches is the grid
engines' rule, so `runners` does no grid-kick arithmetic of its own.  Which
momenta are one plane wave is one rule too, `states.plane_waves`.

Nothing in `src/` is dead: an imported name is used in its module, a
module-level private name is read by another top-level statement, no module
imports another's private name, and every class member is read outside its
own definition unless KEPT names it with the reason it stays.
"""

import ast
from pathlib import Path

import pytest

from qclocksim import load_config, parse_config, run_config, runners

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qclocksim"
ENGINES = ("units", "errors", "spectrum", "states", "operators", "sequences", "grid",
           "gridops", "swp", "ionclock")
ORACLES = "oracles"
ABOVE = {"report", "runners", "config", "cli"}
# What a plan builds: a runner that called one would build it again.
PLAN_TIME = {"stack_spectra", "default_probe", "ladder_spectrum", "make_spectrum",
             "internal_superposition", "gaussian_grid_state", "TrapModel", "SWPClock",
             "DilationProfile", "branch_spectrum_oracle"}
# What a twin or entanglement plan measures with: a runner that called one
# would trace the job again.
SEQUENCE_ENGINE = {"run_sequence", "entanglement_frame_demo", "build_sequence", "trace_chain",
                   "apply_operator"}
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


@pytest.mark.parametrize("engine", ENGINES)
def test_an_engine_module_does_not_read_the_oracles(engine):
    assert ORACLES not in _imported_modules(engine)


def _runners() -> list:
    """The `_run_*` functions of `runners`."""
    tree = ast.parse((PACKAGE / "runners.py").read_text(encoding="utf-8"))
    functions = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name.startswith("_run_")]
    assert len(functions) == 6
    return functions


def _runner_calls() -> set:
    """(runner, called name) for each call in a `_run_*` function of `runners`."""
    return {(runner.name, getattr(node.func, "id", getattr(node.func, "attr", None)))
            for runner in _runners() for node in ast.walk(runner) if isinstance(node, ast.Call)}


def test_no_runner_calls_a_plan_time_constructor():
    assert {(runner, name) for runner, name in _runner_calls() if name in PLAN_TIME} == set()


def test_no_runner_calls_a_sequence_engine():
    assert {(runner, name) for runner, name in _runner_calls() if name in SEQUENCE_ENGINE} == set()


def test_every_runner_fills_its_rows_through_the_one_row_builder():
    # `RunReport.add_rows` makes one row per index of equally long columns,
    # keyed in argument order; no runner appends or extends `report.rows`.
    functions = _runners()
    assert {runner.name for runner in functions for node in ast.walk(runner)
            if isinstance(node, ast.Attribute) and node.attr == "rows"} == set()
    assert {runner for runner, name in _runner_calls() if name == "add_rows"} == {
        runner.name for runner in functions}


@pytest.mark.parametrize("kind", ["twin-momentum", "twin-velocity", "twin-observer"])
def test_a_twin_job_evaluates_each_per_level_closed_form_once(monkeypatch, kind):
    # Three runs of four levels: the factor and gamma columns of every run and
    # level come from one call each, not one per level.
    sweep = {"parameter": "boost", "start": 0.01, "stop": 0.02, "count": 3}
    config = parse_config({"schema_version": 1, "scenarios": [
        {"kind": kind, "params": {"levels": 4, "spacing": 0.05}, "sweep": sweep}]})
    calls = []
    for name in ("closed_dilation_factor", "lorentz_gamma"):
        def counted(*args, _name=name, _form=getattr(runners, name), **kwargs):
            calls.append(_name)
            return _form(*args, **kwargs)
        monkeypatch.setattr(runners, name, counted)
    reports = run_config(config)
    assert [len(report.rows) for report in reports] == [3, 3, 3]
    assert sorted(calls) == ["closed_dilation_factor", "lorentz_gamma"]


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


def test_runners_hold_no_grid_kick_arithmetic():
    # Which momenta a grid run reaches is the grid engines' own rule, which
    # the grid plan checks as it is: KINDS holds no lambda, and `check_kicks`
    # is named only by `_plan_swp`, whose clock has no engine kick (its
    # factors come from `oracles`), and by `_plan_grid`, which does no
    # arithmetic of its own on what it checks.
    tree = ast.parse((PACKAGE / "runners.py").read_text(encoding="utf-8"))
    [kinds] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [target.id for target in node.targets] == ["KINDS"]]
    assert not any(isinstance(node, ast.Lambda) for node in ast.walk(kinds))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {name for name, function in functions.items() if any(
        isinstance(node, ast.Name) and node.id == "check_kicks" for node in ast.walk(function)
    )} == {"_plan_swp", "_plan_grid"}
    assert not any(isinstance(node, (ast.BinOp, ast.UnaryOp))
                   for node in ast.walk(functions["_plan_grid"]))


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


def test_one_rule_decides_which_momenta_are_one_plane_wave():
    # `states.plane_waves` groups components into plane waves for every state
    # operation; the only other reader of MERGE_TOL is run_sequence's check
    # that the round trip returned the momenta.
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for read in (n for n in ast.walk(tree) if isinstance(n, ast.Name)
                     and n.id == "MERGE_TOL" and isinstance(n.ctx, ast.Load)):
            # ast.walk is breadth first, so the innermost function comes last.
            owners = [f.name for f in functions if any(n is read for n in ast.walk(f))]
            readers.add(f"{path.stem}.{owners[-1] if owners else '<module>'}")
    assert readers == {"states.plane_waves", "sequences.run_sequence"}


def test_every_module_of_the_package_is_an_engine_the_oracles_or_above_them():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(ENGINES) | {ORACLES} | ABOVE


# Class members that nothing in src/ reads, each with the reason it stays.
KEPT = {
    "SequenceResult.level_phase_spread_max": "test_sequences checks that each round trip closes",
    "FrameEntanglement.state_before": "perfbench/tracer.py counts its components",
}


def _uses(node) -> set:
    """Names that node reads, takes as attributes or imports by name."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            found.update(alias.name for alias in n.names)
    return found


def _unused_names_and_members() -> tuple:
    """(findings, modules, class members) of the dead-code rules over src/."""
    errors, statements = [], []  # statements: (path, top-level statement, the names it uses)
    members, reads = {}, []  # members: "Class.name" -> (path, node); reads: (attribute, node)
    paths = sorted(PACKAGE.glob("*.py"))
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        statements += [(path, stmt, _uses(stmt)) for stmt in tree.body]
        reads += [(n.attr, n) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    members[f"{cls.name}.{name}"] = (path, node)
        loads = {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                errors += [f"{path}:{node.lineno}: {alias.name!r} is private to module "
                           f"{node.module!r}" for alias in node.names
                           if alias.name.startswith("_") and not alias.name.startswith("__")]
            if (isinstance(node, (ast.Import, ast.ImportFrom)) and path.name != "__init__.py"
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in loads:
                        errors.append(f"{path}:{node.lineno}: {name!r} is imported and never used")
    for path, stmt, _ in statements:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in defined:
            if name.startswith("_") and not name.startswith("__") and not any(
                    name in used for _, other, used in statements if other is not stmt):
                errors.append(f"{path}:{stmt.lineno}: private {name!r} is used nowhere else in src/")
            # A public name must be read by another statement too; the
            # re-exports of __init__.py are not reads.
            if not name.startswith("_") and not any(
                    name in used for where, other, used in statements
                    if other is not stmt and where.name != "__init__.py"):
                errors.append(f"{path}:{stmt.lineno}: public {name!r} is read nowhere else in src/")
    for member, (path, node) in members.items():
        name, own = member.split(".")[1], {id(n) for n in ast.walk(node)}
        read = any(attr == name and id(n) not in own for attr, n in reads)
        if not read and member not in KEPT:
            errors.append(f"{path}:{node.lineno}: member {member!r} is read nowhere else in src/")
        elif read and member in KEPT:
            errors.append(f"{path}:{node.lineno}: member {member!r} is read in src/; "
                          "drop it from KEPT")
    errors += [f"KEPT names {member!r}, which is no member of a class in src/"
               for member in sorted(set(KEPT) - set(members))]
    return errors, paths, members


def test_src_has_no_unused_imports_private_names_or_class_members():
    errors, paths, members = _unused_names_and_members()
    assert paths and members
    assert errors == []
