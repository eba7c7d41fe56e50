"""Boundary values of every scalar numeric parameter, derived from the schema.

Each float or int parameter of each kind in `runners.KINDS` is set, alone, to
each edge in turn: 0, the negated default (when the default is a nonzero
number), NaN, Infinity and -Infinity.  The one-scenario config is run through
`qclocksim run`.  tests/data/param_edges.json gives every case's outcome:
exit 2 with the JSON path and a fragment of the refusal, or exit 0 or 1 with
the check that decides it.  This is boundary-value analysis (Myers, The Art
of Software Testing, 1979) driven from the schema: a parameter added to a
kind has no row until someone states what its edges do.
"""

import json
import re
from pathlib import Path

import pytest

from qclocksim.cli import main
from qclocksim.runners import KINDS

TABLE = json.loads((Path(__file__).resolve().parent / "data" / "param_edges.json")
                   .read_text(encoding="utf-8"))


def _cases() -> list:
    """(kind, parameter, edge name, value) for every scalar numeric parameter."""
    cases = []
    for kind, record in sorted(KINDS.items()):
        for key, spec in record.params.items():
            if spec.type not in (float, int):
                continue
            edges = {"0": spec.type(0)}
            if spec.default:
                edges["-default"] = -spec.default
            edges.update({"NaN": float("nan"), "Infinity": float("inf"),
                          "-Infinity": float("-inf")})
            cases += [(kind, key, edge, value) for edge, value in edges.items()]
    return cases


CASES = _cases()


def test_the_table_has_one_row_per_case_and_no_other():
    rows = {(kind, key, edge) for kind, params in TABLE.items()
            for key, edges in params.items() for edge in edges}
    cases = {(kind, key, edge) for kind, key, edge, _ in CASES}
    assert sorted(cases - rows) == [], "cases with no row in the table"
    assert sorted(rows - cases) == [], "rows of the table that name no case"


@pytest.mark.parametrize("kind, key, edge, value", CASES,
                         ids=[f"{kind}-{key}-{edge}" for kind, key, edge, _ in CASES])
def test_an_edge_value_has_the_outcome_its_row_gives(tmp_path, capsys, kind, key, edge, value):
    expected = TABLE.get(kind, {}).get(key, {}).get(edge)
    assert expected is not None, f"no row for {kind} {key} {edge}"
    scenario = {"kind": kind, "name": "edge", "params": {key: value}}
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"schema_version": 1, "scenarios": [scenario]}), encoding="utf-8")
    code = main(["run", str(path)])
    out, err = capsys.readouterr()
    assert code == expected["exit"], err or out
    if code == 2:
        # A refusal names the parameter's own path, never the bare scenario.
        where = re.escape(f"scenarios[0].{expected['path']}")
        assert re.match(rf"config error: {where}( \(run 'edge'\))?: ", err), err
        assert expected["message"] in err
    else:
        verdict = "PASS" if code == 0 else "FAIL"
        assert f"  {verdict} {expected['check']}: " in out, out
