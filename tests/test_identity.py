"""tools/identity.py: a parent revision against the working tree, or against
a second revision, byte for byte.

The parent here is a commit of this tree without its edge_mass checks, and
the working tree puts them back, as a change that adds a check does; or the
parent is this tree, and the working tree moves one closed form by one ulp.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EDGE_MASS_CALL = "    _add_edge_mass(report, result.edge_mass)\n"
# Every caller of the closed global phase, closed_form_phase too, reads it one ulp up.
ULP_UP = """
_exact_global_phase = closed_global_phase


def closed_global_phase(*args):
    return _exact_global_phase(*args) * (1.0 + 2.0 ** -52)
"""


def _repo(tmp_path, module: str, parent: str, change: str):
    """A copy of src/, the tool and quick-demo.json, committed with the module
    `module` of src/qclocksim reading `parent`, and reading `change` in the
    working tree."""
    repo = tmp_path / "repo"
    shutil.copytree(ROOT / "src", repo / "src", ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("tools/identity.py", "configs/quick-demo.json"):
        (repo / name).parent.mkdir(exist_ok=True)
        shutil.copy(ROOT / name, repo / name)
    path = repo / "src" / "qclocksim" / f"{module}.py"
    path.write_text(parent, encoding="utf-8")
    git = ["git", "-C", str(repo), "-c", "user.name=qclocksim", "-c", "user.email=qclocksim@test"]
    for command in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "parent"]):
        subprocess.run(git + command, check=True)
    path.write_text(change, encoding="utf-8")
    return repo


def _source(module: str) -> str:
    return (ROOT / "src" / "qclocksim" / f"{module}.py").read_text(encoding="utf-8")


@pytest.fixture()
def repo(tmp_path):
    text = _source("runners")
    assert text.count(EDGE_MASS_CALL) == 2
    return _repo(tmp_path, "runners", text.replace(EDGE_MASS_CALL, ""), text)


def _identity(repo, *flags):
    proc = subprocess.run(
        [sys.executable, str(repo / "tools" / "identity.py"), "--parent", "HEAD",
         "--config", str(repo / "configs" / "quick-demo.json"), *flags],
        capture_output=True, text=True, check=False,
    )
    return proc.returncode, proc.stdout.splitlines()


def test_identity_shows_an_added_check_and_that_nothing_else_changed(repo):
    code, lines = _identity(repo)
    assert code == 1
    assert lines[0] == "same quick-demo.json validate"
    assert lines[1].startswith("DIFF quick-demo.json run --threads 1: stdout, line ")
    assert lines[2].startswith("  parent: '  note: limit converges to the velocity boost")
    assert lines[3].startswith("  change: '  PASS edge_mass: value=")
    code, lines = _identity(repo, "--without-check", "edge_mass")
    assert code == 0
    assert lines == ["same quick-demo.json validate",
                     "same quick-demo.json run --threads 1 (2 check rows dropped)",
                     "same quick-demo.json run --threads 2 (2 check rows dropped)"]


def test_identity_compares_a_second_revision_in_place_of_the_working_tree(repo):
    # HEAD against HEAD: the working tree's edge_mass checks take no part.
    code, lines = _identity(repo, "--change", "HEAD")
    assert code == 0
    assert lines == ["same quick-demo.json validate",
                     "same quick-demo.json run --threads 1",
                     "same quick-demo.json run --threads 2"]


def test_identity_finds_a_closed_form_moved_by_one_ulp(tmp_path):
    text = _source("oracles")
    code, lines = _identity(_repo(tmp_path, "oracles", text, text + ULP_UP))
    assert code == 1
    assert lines[0] == "same quick-demo.json validate"
    # The first twin's residual against closed_form_phase moves first.
    assert lines[1] == "DIFF quick-demo.json run --threads 1: stdout, line 2:"
    parent, change = (line.partition("PASS identity_residual: value=") for line in lines[2:])
    assert parent[0] == "  parent: '  " and change[0] == "  change: '  "
    assert parent[2] != change[2]
    assert len(lines) == 4
