"""README.md agrees with the package: its library quick start runs as written,
its kind table names the kinds that `qclocksim kinds` lists, and its run
usage, like the one in cli.py, lists the options of `qclocksim run --help`."""

import json
import re
from pathlib import Path

import pytest

from qclocksim.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
CLI = ROOT / "src" / "qclocksim" / "cli.py"


def test_the_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    [block] = re.findall(r"\A\s*```python\n(.*?)```", section, re.S)
    exec(compile(block, f"{README}: Quick start (library)", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == block.count("print(")


def test_the_kind_table_names_the_kinds_that_qclocksim_kinds_lists(capsys):
    assert main(["kinds"]) == 0
    listed = set(json.loads(capsys.readouterr().out))
    section = README.read_text(encoding="utf-8").split("### Scenario kinds")[1]
    table = set(re.findall(r"^\| `([^`]+)` \|", section.split("\n#")[0], re.M))
    errors = [f"kind {kind!r} is only in the "
              f"{'README.md table' if kind in table else 'qclocksim kinds'}"
              for kind in sorted(table ^ listed)]
    assert listed
    assert errors == []


def _options(text: str) -> set:
    return set(re.findall(r"--[a-z][a-z-]*", text)) - {"--help"}


@pytest.mark.parametrize("path", [README, CLI], ids=["README.md", "cli.py"])
def test_the_run_usage_lists_the_options_of_qclocksim_run_help(capsys, path):
    with pytest.raises(SystemExit) as exited:
        main(["run", "--help"])
    assert exited.value.code == 0
    helped = _options(capsys.readouterr().out)
    # The usage line and the indented "[" lines that continue it.
    name, text = path.relative_to(ROOT).as_posix(), path.read_text(encoding="utf-8")
    blocks = re.findall(r"^( *)(qclocksim run CONFIG .*(?:\n\1 +\[.*)*)", text, re.M)
    assert len(blocks) == 1, f"{name}: {len(blocks)} 'qclocksim run CONFIG' usage blocks, not 1"
    documented = _options(blocks[0][1])
    errors = [f"{name}: {flag} is in run --help, not in the usage"
              for flag in sorted(helped - documented)]
    errors += [f"{name}: {flag} is in the usage, not in run --help"
               for flag in sorted(documented - helped)]
    assert helped
    assert errors == []
