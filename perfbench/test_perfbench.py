"""Self-test of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

The generator tests take milliseconds; the smoke test runs
`perfbench/run.py --smoke`, which takes about half a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from qclocksim import parse_config  # noqa: E402

SEEDS = range(1, 9)


def _structure(config):
    """Everything but the drawn physical values."""
    fixed = ("levels", "dim", "profile", "fock_index", "omega0")
    return [
        (
            s["name"],
            s["kind"],
            sorted(s.get("params", {})),
            {k: v for k, v in s.get("params", {}).items() if k in fixed},
            len(s.get("params", {}).get("probe_momenta", ())),
            s.get("sweep", {}).get("count"),
        )
        for s in config["scenarios"]
    ]


def test_same_seed_gives_the_same_config():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate("suite", 7) != workloads.generate("suite", 8)


def test_suite_parallel_shares_the_suite_inputs():
    for seed in SEEDS:
        assert workloads.generate("suite-parallel", seed) == workloads.generate("suite", seed)


def test_structure_and_run_count_do_not_depend_on_the_seed():
    for workload in workloads.WORKLOADS:
        first = workloads.generate(workload, 1)
        for seed in SEEDS:
            config = workloads.generate(workload, seed)
            assert _structure(config) == _structure(first)
            assert workloads.expected_runs(config) == workloads.expected_runs(first)
    assert workloads.expected_runs(workloads.generate("suite", 1)) == 10
    assert workloads.expected_runs(workloads.generate("fanout", 1)) == 1203


def test_generated_values_stay_inside_the_readme_regime():
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            config = workloads.generate(workload, seed)
            parse_config(config)  # the package's own validation accepts it
            for s in config["scenarios"]:
                p = s.get("params", {})
                boosts = [p.get("boost", 0.0)]
                if "sweep" in s:
                    boosts += [s["sweep"]["start"], s["sweep"]["stop"]]
                assert max(boosts) <= 0.1
                top = max(p.get("levels", 2), p.get("dim", 2)) - 1
                assert top * p.get("spacing", 0.0) < 0.2
                assert p.get("transition_energy", 0.0) < 0.2
                for momentum in p.get("probe_momenta", ()):
                    assert (momentum + max(boosts)) ** 2 < 0.1


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    pct, value = run.tail(list(range(20)))
    assert (pct, value) == (50, 9)
    assert sum(1 for v in range(20) if v > value) == 10


def test_union_length_counts_overlaps_once():
    assert tracer._union_length([]) == 0.0
    assert tracer._union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert tracer._union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_benchmark_declares_what_the_code_emits():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in declared["end_to_end"]] == list(run.E2E_UNITS)
    assert [m["name"] for m in declared["per_layer"]] == list(run.LAYER_UNITS)
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_smoke_mode_emits_every_metric_and_counts_every_layer():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke ok")
