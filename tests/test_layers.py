"""The engine modules measure; reports, verdicts, configs and the command
line sit above them.

No engine module imports from `report`, `runners`, `config` or `cli`, so
an engine cannot make a report or pass a verdict of its own.  Checked on
the source with `ast`, so a lazy import inside a function counts too.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qclocksim"
ENGINES = ("units", "errors", "spectrum", "states", "operators", "sequences", "grid",
           "gridops", "swp", "ionclock")
ABOVE = {"report", "runners", "config", "cli"}


def _imported_modules(tree: ast.AST) -> set:
    """The package modules a module's imports name, at any depth."""
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
    tree = ast.parse((PACKAGE / f"{engine}.py").read_text(encoding="utf-8"))
    assert _imported_modules(tree) & ABOVE == set()


def test_every_module_of_the_package_is_an_engine_or_above_them():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(ENGINES) | ABOVE
