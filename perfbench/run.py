"""Benchmark of `qclocksim run` on seeded, generated configs.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --smoke

Each repetition is a fresh interpreter (`perfbench/child.py`) that imports
qclocksim from `src/`, loads the workload config and runs it through the
CLI with CSV and JSON results written.  Repetitions run back to back for
`--seconds`, after one untimed reference run at the other thread count.
With `--trace 0` the last stdout line reports the end-to-end metrics; with
`--trace 1` traced and untraced repetitions alternate and it reports the
per-layer metrics.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".perfbench_out"
REP_TIMEOUT_S = 60

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "ionclock.scans": "count",
    "ionclock.scan_s": "s",
    "ionclock.eigh_calls": "count",
    "ionclock.eigh_n3": "count",
    "gridops.trotter_s": "s",
    "gridops.split_steps": "count",
    "gridops.eigh_evolutions": "count",
    "gridops.eigh_evolution_s": "s",
    "gridops.impulse_s": "s",
    "sequences.calls": "count",
    "sequences.busy_s": "s",
    "sequences.component_ops": "count",
    "swp.scans": "count",
    "swp.scan_s": "s",
    "swp.pointer_reads": "count",
    "report.files": "count",
    "report.bytes": "bytes",
    "report.emit_s": "s",
    "config.load_s": "s",
    "config.runs_expanded": "count",
    "runners.runs": "count",
    "runners.self_s": "s",
    "runners.pool_idle_s": "s",
    "trace.overhead_s": "s",
    **{
        f"{layer}.self_s": "s"
        for layer in ("config", "runners", "sequences", "gridops", "ionclock", "swp", "report", "cli")
    },
}
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
_NUMPY_PROBE = (
    "import json, platform, numpy; c = numpy.show_config(mode='dicts');"
    "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
    "'blas': c['Build Dependencies']['blas']}))"
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def steal_seconds() -> float:
    """Host steal time since boot, summed over CPUs, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def machine_context() -> dict:
    probe = subprocess.run(
        [sys.executable, "-s", "-c", _NUMPY_PROBE],
        capture_output=True, text=True, timeout=REP_TIMEOUT_S, check=True,
    )
    return {
        "nproc": nproc(),
        **json.loads(probe.stdout),
        "thread_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def inspect_outputs(out_dir: Path, since_ns: int) -> dict:
    """Digest of every result file, each run's verdict, and files not rewritten."""
    digest = hashlib.sha256()
    verdicts = {}
    stale = 0
    files = sorted(out_dir.iterdir()) if out_dir.exists() else []
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data + b"\0")
        stale += path.stat().st_mtime_ns < since_ns
        if path.suffix == ".json":
            report = json.loads(data)
            verdicts[report["name"]] = [c["name"] for c in report["checks"] if not c["passed"]]
    return {"digest": digest.hexdigest(), "files": len(files), "stale": stale, "verdicts": verdicts}


def run_rep(config_path: Path, out_dir: Path, threads: int, spans_path: Path | None = None) -> dict:
    """One fresh-interpreter run; set-up is timed from spawn to config loaded.

    Every repetition rewrites the same result files in place: deleting and
    recreating thousands of files per repetition makes ext4 slower with each
    cycle (kernel time of `fanout` grew from 0.3 s to 1.7 s over seven
    cycles), which is a property of the benchmark loop, not of qclocksim.
    The files are truncated to zero length before the repetition starts, so
    that freeing the previous repetition's blocks, and waiting for their
    writeback, happens outside the timed run: inside it, that disk work
    added up to a second of wall time to a `fanout` repetition, varying with
    the host's disk.
    """
    if out_dir.exists():
        for path in out_dir.iterdir():
            os.truncate(path, 0)
    cmd = [sys.executable, "-s", str(BENCH_DIR / "child.py"), str(ROOT), str(config_path),
           str(out_dir), str(threads)]
    if spans_path is not None:
        cmd.append(str(spans_path))
    steal0 = steal_seconds()
    spawned_ns = time.time_ns()
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded {REP_TIMEOUT_S} s: {cmd}") from exc
    steal = steal_seconds() - steal0
    if proc.returncode != 0:
        raise BenchError(f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    rep = json.loads(proc.stdout.splitlines()[-1])
    rep["setup_s"] = rep.pop("ready") - spawned
    rep["steal_s"] = steal
    rep.update(inspect_outputs(out_dir, spawned_ns))
    return rep


def check_rep(rep: dict, runs: int) -> tuple[int, list]:
    """Failed runs of one repetition, and what is wrong with its outputs."""
    code = rep["exit_code"]
    failing = sum(1 for checks in rep["verdicts"].values() if checks)
    problems = []
    if code == 3:  # engine error: the whole invocation aborts and writes nothing
        if rep["files"] != rep["stale"]:
            problems.append(f"exit 3 but {rep['files'] - rep['stale']} result files written")
        return runs, problems
    if code not in (0, 1):
        problems.append(f"exit code {code}")
    if rep["files"] != 2 * runs or len(rep["verdicts"]) != runs:
        problems.append(f"{rep['files']} files and {len(rep['verdicts'])} JSON reports for {runs} runs")
    if rep["stale"]:
        problems.append(f"{rep['stale']} result files not rewritten by the run")
    if (code == 1) != (failing > 0):
        problems.append(f"exit code {code} with {failing} failing runs")
    return failing, problems


def tail(values: list):
    """(percentile, value) of the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def measure(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run one workload for `seconds`; return metrics, samples and context."""
    base = OUT_ROOT / workload
    if base.exists():
        shutil.rmtree(base)
    base.mkdir(parents=True)
    config = workloads.generate(workload, seed, small=small)
    config_path = base / "config.json"
    config_path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    runs = workloads.expected_runs(config)
    threads, reference_threads = {"suite": (1, nproc()), "suite-parallel": (nproc(), 1)}.get(
        workload, (1, 1)
    )

    context = machine_context()
    reference = run_rep(config_path, base / "out", reference_threads)
    plain, traced = [], []
    started = time.perf_counter()
    while not plain or (trace and not traced) or time.perf_counter() - started < seconds:
        use_trace = trace and len(traced) < len(plain)
        spans = base / "spans.json" if use_trace else None
        (traced if use_trace else plain).append(run_rep(config_path, base / "out", threads, spans))
    context["steal_s"] = sum(rep["steal_s"] for rep in plain + traced)

    # Every repetition runs the same config and must write the same files,
    # so the failing runs are a property of the seed, not of the timing:
    # `attempted` and `failed` count the config's distinct runs once, and
    # do not grow with the number of repetitions that fit in `seconds`.
    problems = []
    failed_per_rep = set()
    for rep in [reference] + plain + traced:
        rep_failed, rep_problems = check_rep(rep, runs)
        problems += rep_problems
        failed_per_rep.add(rep_failed)
    if len(failed_per_rep) != 1:
        problems.append(f"failing runs differ between repetitions: {sorted(failed_per_rep)}")
    digests = {rep["digest"] for rep in [reference] + plain + traced}
    if len(digests) != 1:
        problems.append(
            f"result files differ between repetitions or between --threads "
            f"{reference_threads} and {threads}"
        )
    attempted = runs
    failed = max(failed_per_rep)
    samples = {name: [rep[name] for rep in plain] for name in (*E2E_UNITS, "steal_s")}
    result = {
        "workload": workload,
        "seed": seed,
        "threads": threads,
        "reference_threads": reference_threads,
        "runs_per_rep": runs,
        "reps": len(plain),
        "traced_reps": len(traced),
        "context": context,
        "correct": not problems,
        "problems": sorted(set(problems)),
        "attempted": attempted,
        "failed": failed,
        "failing_checks": {name: checks for name, checks in reference["verdicts"].items() if checks},
        "exit_codes": sorted({rep["exit_code"] for rep in plain + traced}),
        "samples": samples,
        "metrics": {name: statistics.median(samples[name]) for name in E2E_UNITS},
    }
    if trace:
        layers = {
            name: statistics.median(rep["layers"][name] for rep in traced)
            for name in traced[0]["layers"]
        }
        layers["trace.overhead_s"] = statistics.median(
            rep["wall_s"] for rep in traced
        ) - result["metrics"]["wall_s"]
        result["layers"] = layers
    return result


def report_lines(result: dict) -> list:
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  --threads {result['threads']}  "
        f"{result['reps']} reps + {result['traced_reps']} traced "
        f"(+1 reference at --threads {result['reference_threads']})  "
        f"{result['runs_per_rep']} runs/rep  steal {result['context']['steal_s']:.2f} s",
    ]
    for name, unit in E2E_UNITS.items():
        values = result["samples"][name]
        high = tail(values)
        extra = f"  p{high[0]} {high[1]:.4f}" if high else "  (too few samples for a tail percentile)"
        lines.append(f"  {name:<16} {result['metrics'][name]:10.4f} {unit:<8} median of {len(values)}{extra}")
    share = result["failed"] / result["attempted"]
    lines.append(
        f"  {'failed_run_share':<16} {share:10.4f} fraction  "
        f"({result['failed']} of {result['attempted']} runs, the same in each repetition; "
        f"exit codes {result['exit_codes']})"
    )
    for name, checks in sorted(result["failing_checks"].items()):
        lines.append(f"    failing: {name}: {', '.join(checks)}")
    if "layers" in result:
        for name, value in result["layers"].items():
            lines.append(f"  {name:<26} {value:14.6g} {LAYER_UNITS[name]}")
    lines.append(f"  correct: {str(result['correct']).lower()}  {'; '.join(result['problems'])}")
    lines.append("  context: " + json.dumps(result["context"], sort_keys=True))
    return lines


def final_line(result: dict, trace: bool) -> str:
    values = result["layers"] if trace else result["metrics"]
    units = LAYER_UNITS if trace else E2E_UNITS
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        }
    )


def save(result: dict, trace: bool) -> None:
    path = OUT_ROOT / f"result-{result['workload']}-seed{result['seed']}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# Layer counts that must be nonzero (or zero) on a workload for the self-test.
SMOKE_NONZERO = {
    "suite": ("ionclock.scans", "ionclock.eigh_calls", "ionclock.eigh_n3", "gridops.split_steps",
              "gridops.eigh_evolutions", "sequences.calls", "swp.scans", "report.files",
              "config.runs_expanded", "runners.runs"),
    "suite-parallel": ("ionclock.scans", "gridops.eigh_evolutions", "runners.runs"),
    "fanout": ("sequences.calls", "sequences.component_ops", "swp.scans", "swp.pointer_reads",
               "report.files", "report.bytes", "config.runs_expanded", "runners.runs"),
}
SMOKE_ZERO = {"fanout": ("ionclock.scans", "ionclock.eigh_calls", "gridops.eigh_evolutions")}


def smoke() -> list:
    """Seconds-long self-test: every metric emitted with its unit, layers counted."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in workloads.WORKLOADS:
        result = measure(workload, seed=1, seconds=0, trace=True, small=True)
        problems += [f"{workload}: {p}" for p in result["problems"]]
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            emitted = json.loads(final_line(result, trace))["metrics"]
            for metric in declared[key]:
                got = emitted.get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload}: {metric['name']} emitted as {got}")
        for name in SMOKE_NONZERO[workload]:
            if not result["layers"][name] > 0:
                problems.append(f"{workload}: {name} is {result['layers'][name]}, expected > 0")
        for name in SMOKE_ZERO.get(workload, ()):
            if result["layers"][name] != 0:
                problems.append(f"{workload}: {name} is {result['layers'][name]}, expected 0")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the self-test and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qclocksim" / "__init__.py").is_file():
        print(f"perfbench: no qclocksim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    try:
        if args.smoke:
            problems = smoke()
            print("\n".join(problems) or "smoke ok")
            return 1 if problems else 0
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        finals = {}
        for name in names:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
            save(result, bool(args.trace))
            print("\n".join(report_lines(result)), flush=True)
            finals[name] = final_line(result, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(finals) == 1:
        print(finals[args.workload])
    else:
        print(json.dumps({name: json.loads(line) for name, line in finals.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
