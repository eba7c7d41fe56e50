"""Every engine entry point that perfbench/tracer.py wraps on qclocksim.runners
is called by a run.

The tracer times a layer by replacing these names; a name that is imported
but never called would time nothing, and its work would count elsewhere.
"""

import ast
import json
from pathlib import Path

from qclocksim import load_config, run_config, runners

ROOT = Path(__file__).resolve().parents[1]


def _runner_targets() -> dict:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["_RUNNER_TARGETS"]]
    return ast.literal_eval(value)


def test_every_runner_target_is_called_by_a_run(tmp_path, monkeypatch):
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    targets = _runner_targets()
    for name in targets:
        monkeypatch.setattr(runners, name, counted(name, getattr(runners, name)))
    config = json.loads((ROOT / "configs" / "full-suite.json").read_text(encoding="utf-8"))
    config["scenarios"].append({"kind": "twin-velocity", "name": "explicit-levels",
                                "params": {"epsilons": [0.0, 0.05, 0.12]}})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    run_config(load_config(path))
    assert [name for name in targets if name not in calls] == []
