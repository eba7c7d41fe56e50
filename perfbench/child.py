"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py ROOT CONFIG OUT_DIR THREADS [SPANS_FILE]

Imports qclocksim from ROOT/src, loads CONFIG (set-up), then runs it through
`qclocksim.cli.main` with both result formats written to OUT_DIR.  With
SPANS_FILE the run is traced and its spans are written there.  The last
stdout line is one JSON object: the CLOCK_MONOTONIC time set-up ended
(comparable with the parent's clock), wall and CPU seconds of the run, peak
RSS of this process, the exit code, and the per-layer metrics of a traced
run.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv) -> int:
    root, config_path, out_dir, threads = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import qclocksim
    from qclocksim import cli

    if os.path.dirname(os.path.abspath(qclocksim.__file__)) != os.path.join(src, "qclocksim"):
        raise SystemExit(f"imported qclocksim from {qclocksim.__file__}, not from {src}")
    tracer = None
    if spans_path is not None:
        from tracer import Tracer  # perfbench/ is sys.path[0]: this script's directory

        tracer = Tracer()
        tracer.install()
    qclocksim.load_config(config_path)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    run = cli.main if tracer is None else tracer.span("cli.main", "cli", cli.main)
    argv = ["run", config_path, "--out-dir", out_dir, "--format", "both", "--threads", threads]
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):  # the per-run summary lines
        code = run(argv)
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0

    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_code": code,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
