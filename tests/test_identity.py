"""tools/identity.py: a parent revision against the working tree, or against
a second revision, byte for byte.

The parent here is a commit of this tree without its edge_mass checks, and
the working tree puts them back, as a change that adds a check does.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EDGE_MASS_CALL = "    _add_edge_mass(report, result.edge_mass)\n"


@pytest.fixture()
def repo(tmp_path):
    repo = tmp_path / "repo"
    shutil.copytree(ROOT / "src", repo / "src", ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("tools/identity.py", "configs/quick-demo.json"):
        (repo / name).parent.mkdir(exist_ok=True)
        shutil.copy(ROOT / name, repo / name)
    runners = repo / "src" / "qclocksim" / "runners.py"
    text = runners.read_text(encoding="utf-8")
    assert text.count(EDGE_MASS_CALL) == 2
    runners.write_text(text.replace(EDGE_MASS_CALL, ""), encoding="utf-8")
    git = ["git", "-C", str(repo), "-c", "user.name=qclocksim", "-c", "user.email=qclocksim@test"]
    for command in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "parent"]):
        subprocess.run(git + command, check=True)
    runners.write_text(text, encoding="utf-8")
    return repo


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
