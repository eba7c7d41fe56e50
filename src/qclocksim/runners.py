"""Scenario execution: from validated config entries to result reports.

Each scenario kind has one runner that builds the physical objects, runs
the engine, fills a RunReport with rows, and applies that kind's tolerance
checks.  Runners never print and never write files; the CLI layer owns all
I/O.  A twin or entanglement sweep runs as one batch, as arrays with a
leading run axis, and its runner builds one report per run from the result
arrays; other sweep points are independent runs.  Jobs may execute on a
thread pool (the heavy lifting is numpy, which releases the GIL), and
--threads N splits each batch into N contiguous chunks.  `import qclocksim`
sets BLAS to one thread per process, so N workers use N cores, and results
are bit-identical whatever N, the chunking or the core count; they are
always returned in config order regardless of thread timing.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .config import (
    RunConfig,
    grid_state_args,
    run_spectrum,
    spectrum_builder,
    swp_clock,
    trap_model,
)
from .errors import ConfigError
from .grid import gaussian_grid_state
from .gridops import accelerated_frame_trotter, impulsive_boost_limit
from .ionclock import shift_comparison, spectroscopy_scan
from .report import RunReport
from .sequences import (
    SequenceKind,
    default_probe,
    entanglement_frame_demo,
    run_sequence,
)
# Not called here; perfbench/tracer.py looks these names up in this module.
from .spectrum import ladder_spectrum, make_spectrum  # noqa: F401
from .spectrum import stack_spectra
from .swp import find_effective_ticks
from .units import DEFAULT_GUARD, RegimeGuard

_SEQUENCE_KINDS = {
    "twin-momentum": SequenceKind.MOMENTUM,
    "twin-velocity": SequenceKind.VELOCITY_CLOCK,
    "twin-observer": SequenceKind.VELOCITY_OBSERVER,
}


def _sweep_spectrum(kind: str, runs: list, guard: RegimeGuard):
    """The batch's spectrum, stacked per run; each distinct level set is built once."""
    return stack_spectra(list(map(spectrum_builder(kind, guard), runs)))


def _run_twin(kind: str, names: list, runs: list, tol: dict, guard: RegimeGuard) -> list:
    # The runs of one sweep differ only in the swept parameter.
    spectrum = _sweep_spectrum(kind, runs, guard)
    params = runs[0]
    result = run_sequence(
        _SEQUENCE_KINDS[kind],
        spectrum,
        boost=np.array([p["boost"] for p in runs]),
        duration=np.array([p["duration"] for p in runs]),
        probe=default_probe(spectrum, params["probe_momenta"], tuple(range(spectrum.dim))),
        translation_level=params.get("translation_level"),
        state_dependent_translation=params.get("state_dependent_translation", False),
        guard=guard,
        identity_tol=float("inf"),
    )
    shape = (len(runs), spectrum.dim)
    epsilons = np.broadcast_to(spectrum.epsilons, shape).tolist()
    masses = np.broadcast_to(spectrum.masses, shape).tolist()
    levels = sorted(result.level_factors)
    factors, closed, gammas = (
        {n: values[n].tolist() for n in levels}
        for values in (result.level_factors, result.level_factors_closed, result.gammas)
    )
    reports = []
    for r, name in enumerate(names):
        report = RunReport(scenario=kind, name=name, parameters=dict(runs[r]))
        for level in levels:
            report.rows.append(
                {
                    "level": level,
                    "epsilon": epsilons[r][level],
                    "mass": masses[r][level],
                    "dilation_factor": factors[level][r],
                    "closed_form_factor": closed[level][r],
                    "gamma": gammas[level][r],
                }
            )
        report.add_bound(
            "identity_residual", float(result.residual_max[r]), tol["identity_residual"],
            "max phase residual against the closed form, per component",
        )
        report.add_bound(
            "closed_form_fidelity", float(result.fidelity_deviation[r]),
            tol["closed_form_fidelity"], "|<closed form|sequence output> - 1|",
        )
        global_phase = float(result.global_phase[r])
        global_phase_closed = float(result.global_phase_closed[r])
        if kind == "twin-observer":
            report.add_check(
                "observer_global_phase_negative",
                global_phase < 0.0 and global_phase_closed < 0.0,
                global_phase,
                0.0,
                detail="moving-observer sequences must flip the global phase sign",
            )
        report.notes.append(
            f"global phase {global_phase!r} (closed form {global_phase_closed!r})"
        )
        reports.append(report)
    return reports


def _run_swp(name: str, params: dict, tol: dict, guard: RegimeGuard) -> RunReport:
    clock, profile = swp_clock(params, run_spectrum("swp", params, guard))
    tau = clock.tau
    window = tuple(w * tau for w in params["window_in_tau"])
    scan = find_effective_ticks(
        clock, profile, window=window, resolution=params["resolution_in_tau"] * tau
    )
    report = RunReport(scenario="swp", name=name, parameters=dict(params))
    for i, (t, v) in enumerate(zip(scan.tick_times, scan.tick_variances)):
        report.rows.append(
            {
                "tick_index": i,
                "tick_time": t,
                "tick_time_in_tau": t / tau,
                "variance_in_tau2": v / (tau * tau),
            }
        )
    report.notes.append(scan.diagnostic)
    enough = len(scan.tick_times) >= 2
    report.add_check(
        "ticks_found",
        enough,
        float(len(scan.tick_times)),
        2.0,
        detail="at least two variance minima inside the window",
    )
    if profile.is_uniform:
        worst = float(np.max(scan.tick_variances / (tau * tau))) if enough else float("inf")
        report.add_bound(
            "tick_variance_in_tau2", worst, tol["tick_variance_in_tau2"],
            "uniform dilation must rephase the pointer completely",
        )
        d = float(profile.factors[0])
        rescaled = abs(scan.mean_spacing * d / tau - 1.0) if enough else float("inf")
        report.add_bound(
            "classical_spacing_deviation", rescaled, tol["classical_spacing_deviation"],
            "tick spacing times the uniform factor must equal tau",
        )
    else:
        floor = float(np.min(scan.tick_variances / (tau * tau))) if enough else float("-inf")
        report.add_check(
            "tick_variance_positive",
            floor > 0.0,
            floor,
            0.0,
            detail="level-dependent dilation leaves residual pointer variance",
        )
        if enough:
            report.notes.append(
                f"effective tick spacing deviates from tau by {scan.spacing_deviation!r} (relative)"
            )
    return report


def _run_ion(name: str, params: dict, tol: dict, guard: RegimeGuard) -> RunReport:
    model = trap_model(params)
    scan = spectroscopy_scan(
        model, points=params["points"], span_factor=params["span_factor"]
    )
    oracle = scan.oracle
    report = RunReport(scenario="ion-spectroscopy", name=name, parameters=dict(params))
    for detuning, excitation in zip(scan.detunings, scan.excitation):
        report.rows.append({"detuning": detuning, "excitation": excitation})
    report.notes.append(
        f"oracle carrier shift {oracle.carrier_shift!r}, extracted peak {scan.peak_detuning!r}"
    )
    report.notes.append(
        f"second-order term of the relative shift: exact {oracle.second_order_term!r}, "
        f"variant {oracle.second_order_variant!r} (reported, not asserted)"
    )
    if math.isnan(oracle.relative_shift):
        report.notes.append(
            "transition energy is zero: no relative shift defined, checking the "
            "absolute peak stays at zero instead"
        )
        report.add_bound(
            "null_shift_bound", abs(scan.peak_detuning), tol["null_shift_bound"],
            "a massless internal gap must not shift the line",
        )
    else:
        budget = shift_comparison(model, scan)
        report.add_bound(
            "scan_vs_oracle", abs(budget.extracted_to_oracle_ratio - 1.0), tol["scan_vs_oracle"],
            "relative shift from the lineshape peak vs the branch oracle",
        )
        report.add_bound(
            "oracle_vs_first_order", abs(budget.oracle_to_first_order_ratio - 1.0),
            tol["oracle_vs_first_order"],
            "oracle against the leading-order shift formula",
        )
    report.add_bound(
        "cutoff_change", scan.cutoff_shift_change, tol["cutoff_change"],
        "peak movement when the Fock cutoff doubles",
    )
    return report


def _run_trotter(name: str, params: dict, tol: dict, guard: RegimeGuard) -> RunReport:
    spectrum = run_spectrum("trotter-accel", params, guard)
    state = gaussian_grid_state(spectrum, **grid_state_args(params))
    result = accelerated_frame_trotter(
        state, params["acceleration"], params["duration"], steps=params["steps"]
    )
    ratios = result.halving_ratios()
    report = RunReport(scenario="trotter-accel", name=name, parameters=dict(params))
    for i, (n, err) in enumerate(zip(result.steps, result.errors)):
        report.rows.append(
            {
                "steps": int(n),
                "error": err,
                "ratio_to_next": ratios[i] if i < len(ratios) else float("nan"),
            }
        )
    doubling = all(int(b) == 2 * int(a) for a, b in zip(result.steps[:-1], result.steps[1:]))
    if doubling:
        report.add_range(
            "halving_ratios_in_range", ratios, tol["halving_ratio_low"], tol["halving_ratio_high"],
            f"error(n)/error(2n) ratios: {[float(r) for r in ratios]}",
        )
    else:
        report.notes.append("steps are not a doubling schedule; ratio range not checked")
    report.add_bound(
        "terminal_error", result.terminal_error, tol["terminal_error"],
        f"product-formula error at {int(result.steps[-1])} steps",
    )
    return report


def _run_impulse(name: str, params: dict, tol: dict, guard: RegimeGuard) -> RunReport:
    spectrum = run_spectrum("impulse-boost", params, guard)
    state = gaussian_grid_state(spectrum, **grid_state_args(params))
    result = impulsive_boost_limit(
        state,
        params["boost"],
        dt_schedule=params["dt_schedule"],
        internal_coupled=params["internal_coupled"],
    )
    report = RunReport(scenario="impulse-boost", name=name, parameters=dict(params))
    for dt, dv, dp in zip(
        result.durations, result.deviation_velocity, result.deviation_momentum
    ):
        report.rows.append(
            {"duration": dt, "deviation_velocity": dv, "deviation_momentum": dp}
        )
    target = "velocity" if params["internal_coupled"] else "momentum"
    other = "momentum" if params["internal_coupled"] else "velocity"
    ratios = result.shrink_ratios(against=target)
    stalled = (
        result.deviation_momentum if params["internal_coupled"] else result.deviation_velocity
    )
    report.notes.append(
        f"limit converges to the {target} boost; deviation from the {other} "
        f"boost stalls at {float(stalled[-1])!r}"
    )
    decades = bool(
        np.allclose(result.durations[:-1] / result.durations[1:], 10.0, rtol=1e-9)
    )
    if decades:
        report.add_range(
            "decade_ratios_in_range", ratios, tol["decade_ratio_low"], tol["decade_ratio_high"],
            f"per-decade shrink of the {target}-boost deviation: {[float(r) for r in ratios]}",
        )
    else:
        report.notes.append("dt schedule is not decade-spaced; ratio range not checked")
    return report


def _run_entanglement(kind: str, names: list, runs: list, tol: dict, guard: RegimeGuard) -> list:
    spectrum = _sweep_spectrum(kind, runs, guard)
    demo = entanglement_frame_demo(
        spectrum,
        momentum=runs[0]["momentum"],
        v_b=np.array([p["boost"] for p in runs]),
        guard=guard,
    )
    max_entropy = math.log(spectrum.dim)
    before = demo.entropy_before
    reports = []
    for name, params, after in zip(names, runs, demo.entropy_after.tolist()):
        report = RunReport(scenario=kind, name=name, parameters=dict(params))
        report.rows.append({"stage": "before-boost", "entropy": before, "ceiling": max_entropy})
        report.rows.append({"stage": "after-boost", "entropy": after, "ceiling": max_entropy})
        report.add_bound(
            "entropy_before_zero", abs(before), tol["entropy_abs"],
            "a product state has zero internal-motional entanglement",
        )
        report.add_bound(
            "entropy_after_maximal", abs(after - max_entropy), tol["entropy_abs"],
            "a velocity boost correlates momentum with every internal level",
        )
        reports.append(report)
    return reports


# Kinds whose sweeps run as one batch.
_BATCH_RUNNERS = dict.fromkeys(_SEQUENCE_KINDS, _run_twin) | {"entanglement-demo": _run_entanglement}
# Kinds whose every run is a job of its own.
_SINGLE_RUNNERS = {"swp": _run_swp, "ion-spectroscopy": _run_ion,
                   "trotter-accel": _run_trotter, "impulse-boost": _run_impulse}


def run_scenario(kind: str, name, params, tolerances: dict, guard=None):
    """Run one expanded scenario instance and return its report.

    Twin and entanglement kinds also take a batch: lists of run names and
    params, runs of one sweep, give a list of their reports in that order.
    """
    guard = DEFAULT_GUARD if guard is None else guard
    if kind in _BATCH_RUNNERS:
        if isinstance(name, str):
            return _BATCH_RUNNERS[kind](kind, [name], [params], tolerances, guard)[0]
        return _BATCH_RUNNERS[kind](kind, name, params, tolerances, guard)
    if kind in _SINGLE_RUNNERS:
        return _SINGLE_RUNNERS[kind](name, params, tolerances, guard)
    raise ConfigError(f"unknown scenario kind {kind!r}")


def run_config(
    config: RunConfig,
    threads: int = 1,
    tolerance_overrides: dict | None = None,
    strict_regime: bool = False,
) -> list:
    """Run every scenario (sweeps expanded) and return reports in config order.

    A twin or entanglement sweep is one job, split into `threads`
    contiguous chunks; every other run is a job of its own.
    """
    overrides = dict(tolerance_overrides or {})
    known = {key for spec in config.scenarios for key in spec.tolerances}
    unknown = set(overrides) - known
    if unknown:
        raise ConfigError(
            f"tolerance overrides {sorted(unknown)} match no scenario in this "
            f"config; known keys: {sorted(known)}"
        )
    guard = RegimeGuard(strict=True) if strict_regime else DEFAULT_GUARD
    jobs = []
    for spec in config.scenarios:
        tolerances = {key: overrides.get(key, value) for key, value in spec.tolerances.items()}
        runs = spec.expand()
        if spec.kind not in _BATCH_RUNNERS:
            jobs += [(spec.kind, name, params, tolerances) for name, params in runs]
            continue
        chunks = min(max(threads, 1), len(runs))
        bounds = [len(runs) * i // chunks for i in range(chunks + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            names, params = zip(*runs[lo:hi])
            jobs.append((spec.kind, list(names), list(params), tolerances))

    def one(job):
        kind, name, params, tolerances = job
        try:
            return run_scenario(kind, name, params, tolerances, guard=guard)
        except Exception as exc:
            # A PEP 678 note (add_note is Python 3.11+): the error keeps its
            # type and text, and the CLI names the failing run from it.
            names = [name] if isinstance(name, str) else name
            runs = (f"run {names[0]!r}" if len(names) == 1
                    else f"runs {names[0]!r} to {names[-1]!r}")
            exc.__notes__ = [*getattr(exc, "__notes__", ()), runs]
            raise

    if threads <= 1 or len(jobs) <= 1:
        results = [one(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, jobs))
    return [report for result in results
            for report in (result if isinstance(result, list) else [result])]
