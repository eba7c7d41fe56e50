"""Command-line interface.

    qclocksim run CONFIG [--out-dir DIR] [--format csv|json|both] [--threads N]
    qclocksim validate CONFIG
    qclocksim kinds

Exit codes: 0 all checks passed, 1 at least one check failed (numerical
health included), 2 configuration problem (kicks out of the model's regime
included), 3 an unexpected exception.  Result files are byte-stable across
repeated runs; anything nondeterministic (wall-clock timings) goes to stderr.

Each job's reports are emitted, in config order, as soon as that job and
every job before it have finished, and then let go: WRITE_GROUP_REPORTS
reports at a time, their summaries are printed and their files rendered,
then written back to back.  A job that raises an unexpected exception writes
no file; every other job is run and written, and the exit code is then 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .config import load_config
from .errors import ConfigError
from .runners import KINDS, run_config

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_ENGINE = 3

# Reports of one job whose files are rendered before any of them is written;
# it bounds the text held in memory at once, as the job bounds the reports.
# Groups are faster too: on the 1,203 light reports of perfbench's fanout
# workload (2 shared vCPUs), writing each report's files right after rendering
# them took 0.46-0.53 s of wall time, against 0.36-0.39 s in groups of 64.
WRITE_GROUP_REPORTS = 64


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclocksim",
        description=(
            "Simulate composite particles whose internal energy gravitates "
            "into their mass: twin-paradox boost sequences, quantum time "
            "dilation, pointer-clock degradation, and trapped-ion clock shifts."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run every scenario in a JSON config")
    run.add_argument("config", help="path to the JSON run configuration")
    run.add_argument(
        "--out-dir",
        default=None,
        help="directory for per-run result files (created if missing); "
        "omit to print summaries only",
    )
    run.add_argument(
        "--format",
        choices=("csv", "json", "both"),
        default="both",
        help="which result files to write (default: both)",
    )
    run.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads for independent runs (default: 1); each twin or "
        "entanglement sweep runs as one batch, on one thread; "
        "BLAS runs on one thread per process, so each worker uses one core and "
        "result files do not depend on the thread or core count",
    )

    validate = sub.add_parser("validate", help="validate a config and exit")
    validate.add_argument("config", help="path to the JSON run configuration")

    sub.add_parser("kinds", help="list scenario kinds, parameters, and defaults")
    return parser


def _cmd_kinds() -> int:
    listing = {}
    for name, kind in sorted(KINDS.items()):
        listing[name] = {
            "parameters": {
                key: {"default": spec.default, "sweepable": spec.sweepable}
                for key, spec in sorted(kind.params.items())
            },
            "tolerances": dict(sorted(kind.tolerances.items())),
        }
    print(json.dumps(listing, sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_validate(path: str) -> int:
    config = load_config(path)
    total = sum(len(names) for spec in config.scenarios for names, _, _ in spec.jobs)
    print(f"{path}: valid ({len(config.scenarios)} scenario(s), {total} run(s))")
    return EXIT_OK


def _cmd_run(args) -> int:
    # The flags are refused before the load, which measures every twin and
    # entanglement job.
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    # The directory is made at the first write; refuse first a path that cannot become one.
    parent = args.out_dir
    while parent and not os.path.exists(parent):
        parent = os.path.dirname(parent) or "."
    if parent is not None and not os.path.isdir(parent):
        raise ConfigError(f"--out-dir {args.out_dir!r}: {parent!r} is not a directory")
    config = load_config(args.config)
    verdicts, raised = [], 0

    def emit(outcome) -> None:
        nonlocal raised
        if isinstance(outcome, Exception):
            raised += 1
            print(_engine_error(outcome), file=sys.stderr)
            return
        verdicts.extend(report.passed for report in outcome)
        for start in range(0, len(outcome), WRITE_GROUP_REPORTS):
            files = []
            for report in outcome[start:start + WRITE_GROUP_REPORTS]:
                print("\n".join(report.summary_lines()))
                if args.out_dir is not None:
                    path = os.path.join(args.out_dir, report.name)
                    if args.format in ("csv", "both"):
                        files.append((report.write_csv, f"{path}.csv", report.csv_text()))
                    if args.format in ("json", "both"):
                        files.append((report.write_json, f"{path}.json", report.json_text()))
            if files:
                os.makedirs(args.out_dir, exist_ok=True)
            for write, path, text in files:
                write(path, text)

    started = time.perf_counter()
    run_config(config, threads=args.threads, emit=emit)
    elapsed = time.perf_counter() - started
    failed = verdicts.count(False)
    print(f"{failed} of {len(verdicts)} run(s) had failing checks" if failed
          else f"all {len(verdicts)} run(s) passed")
    if raised:
        print(f"{raised} job(s) raised an engine error and wrote no files")
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return EXIT_ENGINE if raised else EXIT_CHECK_FAILED if failed else EXIT_OK


def _engine_error(exc: Exception) -> str:
    """The exception's type and text, and the failing run or batch its notes name."""
    runs = "".join(f" ({note})" for note in getattr(exc, "__notes__", ()))
    return f"engine error: {type(exc).__name__}: {exc}{runs}"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "kinds":
            return _cmd_kinds()
        if args.command == "validate":
            return _cmd_validate(args.config)
        return _cmd_run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # engine failures: report, do not traceback-spam
        print(_engine_error(exc), file=sys.stderr)
        return EXIT_ENGINE
