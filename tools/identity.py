"""Compare what a parent revision and a change print and write, byte for byte.

    python tools/identity.py --parent REV [--change REV] [--without-check NAME ...]
                             [--config PATH ...]

The change is the working tree, or with `--change` a second revision.  Each
revision is exported with `git archive` into a temporary directory, so the
repository's .git is only read.  The configs are those of the change:
`configs/*.json` and the `suite` and `fanout` benchmark configs of seeds 1 to
3, which its `perfbench/workloads.py` generates; `--config` replaces that
list.  For each config, both trees run `qclocksim validate` and `qclocksim
run --format both` at `--threads` 1 and 2, and their exit codes, stdout,
stderr without its `elapsed:` line and every result file are compared.
`--without-check NAME` drops the check rows named NAME from the change's
JSON files and stdout before the comparison, so a change that adds a check
can show that it changed nothing else.

One line is printed per comparison; the first difference is printed with its
file and line, and the tool exits 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)


def export(rev: str, dest: Path) -> None:
    """The tree of rev, unpacked into dest."""
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def generated_configs(tree: Path, dest: Path) -> list:
    """The suite and fanout configs of each seed that tree generates, written as JSON into dest."""
    dest.mkdir()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(tree / "perfbench"))
    import workloads

    paths = []
    for workload, seed in itertools.product(("suite", "fanout"), SEEDS):
        path = dest / f"{workload}-{seed}.json"
        path.write_text(json.dumps(workloads.generate(workload, seed)), encoding="utf-8")
        paths.append(path)
    return paths


def run(tree: Path, args: list, out: Path | None = None) -> tuple:
    """(exit code, stdout, stderr without its elapsed: line, {result file: text}) of
    `python -m qclocksim` run from tree's src/, writing its files into out."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-m", "qclocksim", *args,
                           *(["--out-dir", str(out)] if out else [])],
                          capture_output=True, env=env, cwd=tree)
    stderr = "".join(line for line in proc.stderr.decode().splitlines(keepends=True)
                     if not line.startswith("elapsed: "))
    files = ({path.name: path.read_bytes().decode() for path in sorted(out.iterdir())}
             if out and out.is_dir() else {})
    return proc.returncode, proc.stdout.decode(), stderr, files


def without_checks(result: tuple, names: set) -> tuple:
    """A run's result without the check rows named in names, and how many rows went."""
    code, stdout, stderr, files = result
    if not names:
        return result, 0
    row = re.compile(r"  (PASS|FAIL) (%s): " % "|".join(map(re.escape, sorted(names))))
    lines = stdout.splitlines(keepends=True)
    kept = [line for line in lines if not row.match(line)]
    dropped = len(lines) - len(kept)
    files = dict(files)
    for name, text in files.items():
        if name.endswith(".json"):
            report = json.loads(text)
            checks = [check for check in report["checks"] if check["name"] not in names]
            if len(checks) < len(report["checks"]):
                dropped += len(report["checks"]) - len(checks)
                report["checks"] = checks
                files[name] = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return (code, "".join(kept), stderr, files), dropped


def first_difference(label: str, old: str, new: str) -> str | None:
    """The first line at which two texts differ, or None if they are equal."""
    if old == new:
        return None
    pairs = itertools.zip_longest(old.splitlines(keepends=True), new.splitlines(keepends=True))
    for number, (a, b) in enumerate(pairs, 1):
        if a != b:
            return f"{label}, line {number}:\n  parent: {a!r}\n  change: {b!r}"
    return f"{label}: the texts differ"


def compare(label: str, parent: tuple, change: tuple) -> str | None:
    """The first difference between two (exit code, stdout, stderr, files) results."""
    if parent[0] != change[0]:
        return f"{label}: exit code {parent[0]} at the parent, {change[0]} in the change"
    for what, old, new in (("stdout", parent[1], change[1]), ("stderr", parent[2], change[2])):
        found = first_difference(f"{label}: {what}", old, new)
        if found:
            return found
    old_files, new_files = parent[3], change[3]
    if sorted(old_files) != sorted(new_files):
        return (f"{label}: result files differ: only at the parent "
                f"{sorted(set(old_files) - set(new_files))}, only in the change "
                f"{sorted(set(new_files) - set(old_files))}")
    for name in sorted(old_files):
        found = first_difference(f"{label}: {name}", old_files[name], new_files[name])
        if found:
            return found
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--change", metavar="REV",
                        help="compare this revision instead of the working tree")
    parser.add_argument("--without-check", action="append", default=[], metavar="NAME",
                        help="drop this check's rows from the change's results")
    parser.add_argument("--config", action="append", type=Path, metavar="PATH",
                        help="compare on this config only (repeatable)")
    args = parser.parse_args(argv)
    names = set(args.without_check)
    with tempfile.TemporaryDirectory(prefix="identity-") as scratch:
        scratch = Path(scratch)
        export(args.parent, scratch / "parent")
        tree = ROOT
        if args.change:
            tree = scratch / "change"
            export(args.change, tree)
        configs = ([path.resolve() for path in args.config] if args.config
                   else sorted((tree / "configs").glob("*.json"))
                   + generated_configs(tree, scratch / "configs"))
        for i, config in enumerate(configs):
            for threads in (None, 1, 2):
                if threads is None:
                    label, command = "validate", ["validate", str(config)]
                else:
                    label = f"run --threads {threads}"
                    command = ["run", str(config), "--threads", str(threads), "--format", "both"]
                parent_out, change_out = (threads and scratch / f"out-{side}" / f"{i}-{threads}"
                                          for side in ("parent", "change"))
                parent = run(scratch / "parent", command, parent_out)
                change, dropped = without_checks(run(tree, command, change_out), names)
                difference = compare(f"{config.name} {label}", parent, change)
                if difference:
                    print(f"DIFF {difference}")
                    return 1
                print(f"same {config.name} {label}"
                      + (f" ({dropped} check rows dropped)" if dropped else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
