"""Command-line interface.

    qclocksim run CONFIG [--out-dir DIR] [--format csv|json|both]
                         [--threads N] [--tolerance KEY=VALUE ...]
    qclocksim validate CONFIG
    qclocksim kinds

Exit codes: 0 all checks passed, 1 at least one tolerance check failed,
2 configuration problem (kicks out of the model's regime included), 3
engine failure.  Result files are byte-stable across repeated runs;
anything nondeterministic (wall-clock timings) goes to stderr only.

Emission follows the runs, WRITE_GROUP_REPORTS reports at a time: their
summaries are printed and their files rendered, then written back to back.
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

# Reports whose files are rendered before any of them is written; it bounds
# the text held in memory at once.
WRITE_GROUP_REPORTS = 64


def _parse_tolerance(text: str) -> tuple:
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise ConfigError(f"--tolerance expects KEY=VALUE, got {text!r}")
    try:
        number = float(value)
    except ValueError as exc:
        raise ConfigError(f"--tolerance {key}: {value!r} is not a number") from exc
    # The rule of a config's tolerances block: no NaN, no infinity, no overflow.
    if not abs(number) <= sys.float_info.max:
        raise ConfigError(f"--tolerance {key}: expected a finite number, got {value!r}")
    return key, number


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
    run.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a named tolerance for every scenario that has it "
        "(repeatable)",
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
    total = sum(len(spec.expand()) for spec in config.scenarios)
    print(f"{path}: valid ({len(config.scenarios)} scenario(s), {total} run(s))")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    overrides = dict(_parse_tolerance(item) for item in args.tolerance)
    started = time.perf_counter()
    reports = run_config(config, threads=args.threads, tolerance_overrides=overrides)
    elapsed = time.perf_counter() - started

    out_dir = args.out_dir
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    for start in range(0, len(reports), WRITE_GROUP_REPORTS):
        files = []
        for report in reports[start:start + WRITE_GROUP_REPORTS]:
            print("\n".join(report.summary_lines()))
            if out_dir is not None:
                path = os.path.join(out_dir, report.name)
                if args.format in ("csv", "both"):
                    files.append((report.write_csv, f"{path}.csv", report.csv_text()))
                if args.format in ("json", "both"):
                    files.append((report.write_json, f"{path}.json", report.json_text()))
        for write, path, text in files:
            write(path, text)

    failed = sum(1 for r in reports if not r.passed)
    if failed:
        print(f"{failed} of {len(reports)} run(s) had failing checks")
    else:
        print(f"all {len(reports)} run(s) passed")
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


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
        runs = "".join(f" ({note})" for note in getattr(exc, "__notes__", ()))
        print(f"engine error: {type(exc).__name__}: {exc}{runs}", file=sys.stderr)
        return EXIT_ENGINE
