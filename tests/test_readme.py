"""The library quick start of README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    [block] = re.findall(r"\A\s*```python\n(.*?)```", section, re.S)
    exec(compile(block, f"{README}: Quick start (library)", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == block.count("print(")
