"""Span tracing for one traced `qclocksim run`, from outside the package.

`Tracer.install()` replaces the names that `qclocksim.cli` and
`qclocksim.runners` look up at call time (plus the two `RunReport` writers,
`qclocksim.swp.read_pointer` and `numpy.linalg.eigh`) with wrappers that
record spans.  A span is (name, layer, start, end, parent, run id); spans
stay in memory until `write()` dumps them.  Nothing in the package changes
on disk, and an untraced run never imports this module.

Layers are the package's modules: config, runners, sequences (with
operators, states, spectrum), gridops (with grid), ionclock, swp, report
and cli.  An `eigh` call is a span of its caller's layer, so the
diagonalisation counts as self time of the engine that asked for it.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time

import numpy

from qclocksim import cli, runners, swp
from qclocksim.report import RunReport
from qclocksim.sequences import build_sequence

LAYERS = ("config", "runners", "sequences", "gridops", "ionclock", "swp", "report", "cli")

# Engine entry points as `qclocksim.runners` names them, with their layer.
_RUNNER_TARGETS = {
    "run_scenario": "runners",
    "run_sequence": "sequences",
    "default_probe": "sequences",
    "entanglement_frame_demo": "sequences",
    "ladder_spectrum": "sequences",
    "make_spectrum": "sequences",
    "gaussian_grid_state": "gridops",
    "accelerated_frame_trotter": "gridops",
    "impulsive_boost_limit": "gridops",
    "spectroscopy_scan": "ionclock",
    "find_effective_ticks": "swp",
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "run_id")

    def __init__(self, name, layer, start, parent, run_id):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.run_id = run_id


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = threading.local()
        self._lock = threading.Lock()
        self._pool_parent = None  # open run_config span, parent of worker-thread spans
        self._threads = 1

    # -- recording -------------------------------------------------------

    def _open(self, name, layer, run_id=None):
        stack = getattr(self._stack, "spans", None)
        if stack is None:
            stack = self._stack.spans = []
        parent = stack[-1] if stack else self._pool_parent
        if layer is None:
            layer = parent.layer if parent is not None else "cli"
        if run_id is None and parent is not None:
            run_id = parent.run_id
        span = Span(name, layer, time.perf_counter(), parent, run_id)
        stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.spans.pop()
        self.spans.append(span)

    def count(self, key, amount=1):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name, layer, fn, run_id_arg=None, after=None):
        """Wrap fn so each call is one span; `after(span, result, arguments)` counts work."""
        signature = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            run_id = args[run_id_arg] if run_id_arg is not None else None
            span = self._open(name, layer, run_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(span, result, signature.bind(*args, **kwargs).arguments)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        for name, layer in _RUNNER_TARGETS.items():
            after = getattr(self, f"_after_{name}", None)
            run_id_arg = 1 if name == "run_scenario" else None
            wrapped = self.span(f"{layer}.{name}", layer, getattr(runners, name), run_id_arg, after)
            setattr(runners, name, wrapped)
        cli.load_config = self.span("config.load_config", "config", cli.load_config,
                                    after=self._after_load_config)
        cli.run_config = self.span("runners.run_config", "runners", self._pooled(cli.run_config))
        for method in ("write_json", "write_csv"):
            setattr(RunReport, method, self.span(f"report.{method}", "report",
                                                 getattr(RunReport, method),
                                                 after=self._after_write))
        RunReport.summary_lines = self.span("report.summary_lines", "report",
                                            RunReport.summary_lines)

        read_pointer = swp.read_pointer

        @functools.wraps(read_pointer)
        def counted_read_pointer(*args, **kwargs):
            self.count("swp.pointer_reads")
            return read_pointer(*args, **kwargs)

        swp.read_pointer = counted_read_pointer
        numpy.linalg.eigh = self.span("numpy.linalg.eigh", None, numpy.linalg.eigh,
                                      after=self._after_eigh)

    def _pooled(self, run_config):
        """Make the open run_config span the parent of spans in pool threads."""

        @functools.wraps(run_config)
        def wrapper(config, threads=1, **kwargs):
            self._threads = max(1, threads)
            self._pool_parent = self._stack.spans[-1]
            try:
                return run_config(config, threads=threads, **kwargs)
            finally:
                self._pool_parent = None

        return wrapper

    # -- work counts computed from arguments and results -----------------

    def _after_load_config(self, span, config, args):
        self.count("config.runs_expanded", sum(len(spec.expand()) for spec in config.scenarios))

    def _after_run_sequence(self, span, result, args):
        ops = build_sequence(
            args["kind"],
            args["boost"],
            args["duration"],
            translation_level=args.get("translation_level"),
            spectrum=args["spectrum"],
            state_dependent_translation=args.get("state_dependent_translation", False),
        )
        self.count("sequences.component_ops", len(args["probe"].levels) * len(ops))

    def _after_entanglement_frame_demo(self, span, result, args):
        self.count("sequences.component_ops", len(result.state_before.levels))

    def _after_accelerated_frame_trotter(self, span, result, args):
        self.count("gridops.split_steps", int(sum(int(n) for n in result.steps)))

    def _after_write(self, span, result, args):
        self.count("report.files")
        self.count("report.bytes", os.path.getsize(args["path"]))

    def _after_eigh(self, span, result, args):
        shape = numpy.shape(args["a"])
        self.count(f"{span.layer}.eigh_calls")
        self.count(f"{span.layer}.eigh_n3", int(numpy.prod(shape[:-2])) * shape[-1] ** 3)
        self.count(f"{span.layer}.eigh_s", span.end - span.start)

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the finished run, in seconds and counts."""
        children = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append(s)
        self_time = {layer: 0.0 for layer in LAYERS}
        busy, own, calls = {}, {}, {}
        for s in self.spans:
            duration = s.end - s.start
            own_s = duration - _union_length([(c.start, c.end) for c in children.get(id(s), ())])
            self_time[s.layer] = self_time.get(s.layer, 0.0) + own_s
            busy[s.name] = busy.get(s.name, 0.0) + duration
            own[s.name] = own.get(s.name, 0.0) + own_s
            calls[s.name] = calls.get(s.name, 0) + 1
        c = self.counts.get
        m = {
            "ionclock.scans": calls.get("ionclock.spectroscopy_scan", 0),
            "ionclock.scan_s": busy.get("ionclock.spectroscopy_scan", 0.0),
            "ionclock.eigh_calls": c("ionclock.eigh_calls", 0),
            "ionclock.eigh_n3": c("ionclock.eigh_n3", 0),
            "gridops.trotter_s": busy.get("gridops.accelerated_frame_trotter", 0.0),
            "gridops.split_steps": c("gridops.split_steps", 0),
            "gridops.eigh_evolutions": c("gridops.eigh_calls", 0),
            "gridops.eigh_evolution_s": c("gridops.eigh_s", 0.0),
            "gridops.impulse_s": busy.get("gridops.impulsive_boost_limit", 0.0),
            "sequences.calls": calls.get("sequences.run_sequence", 0)
            + calls.get("sequences.entanglement_frame_demo", 0),
            "sequences.busy_s": busy.get("sequences.run_sequence", 0.0)
            + busy.get("sequences.entanglement_frame_demo", 0.0),
            "sequences.component_ops": c("sequences.component_ops", 0),
            "swp.scans": calls.get("swp.find_effective_ticks", 0),
            "swp.scan_s": busy.get("swp.find_effective_ticks", 0.0),
            "swp.pointer_reads": c("swp.pointer_reads", 0),
            "report.files": c("report.files", 0),
            "report.bytes": c("report.bytes", 0),
            "report.emit_s": busy.get("report.write_json", 0.0) + busy.get("report.write_csv", 0.0),
            "config.load_s": busy.get("config.load_config", 0.0),
            "config.runs_expanded": c("config.runs_expanded", 0),
            "runners.runs": calls.get("runners.run_scenario", 0),
            "runners.self_s": own.get("runners.run_scenario", 0.0),
            "runners.pool_idle_s": self._threads * busy.get("runners.run_config", 0.0)
            - busy.get("runners.run_scenario", 0.0),
        }
        m.update({f"{layer}.self_s": self_time[layer] for layer in LAYERS})
        return m

    def write(self, path):
        """Dump every span as JSON: name, layer, start, end, parent index, run id."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            {
                "name": s.name,
                "layer": s.layer,
                "start": s.start,
                "end": s.end,
                "parent": index.get(id(s.parent)),
                "run_id": s.run_id,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle)


def _union_length(intervals):
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total
