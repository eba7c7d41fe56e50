"""Scenario execution: from validated config entries to result reports.

Each scenario kind has one runner that builds the physical objects, runs
the engine, fills a RunReport with rows, and applies that kind's tolerance
checks.  Runners never print and never write files; the CLI layer owns all
I/O.  Sweep points are independent runs and may execute on a thread pool
(the heavy lifting is numpy linear algebra, which releases the GIL).
`import qclocksim` sets BLAS to one thread per process, so N workers use N
cores, and results are bit-identical whatever N or the core count; they are
always returned in config order regardless of thread timing.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .config import RunConfig, run_spectrum
from .errors import ConfigError
from .grid import gaussian_grid_state
from .gridops import accelerated_frame_trotter, impulsive_boost_limit
from .ionclock import TrapModel, spectroscopy_scan
from .report import RunReport
from .sequences import (
    SequenceKind,
    default_probe,
    entanglement_frame_demo,
    run_sequence,
)
# Not called here; perfbench/tracer.py looks these names up in this module.
from .spectrum import ladder_spectrum, make_spectrum  # noqa: F401
from .swp import DilationProfile, SWPClock, find_effective_ticks
from .units import DEFAULT_GUARD, RegimeGuard

_SEQUENCE_KINDS = {
    "twin-momentum": SequenceKind.MOMENTUM,
    "twin-velocity": SequenceKind.VELOCITY_CLOCK,
    "twin-observer": SequenceKind.VELOCITY_OBSERVER,
}


def _run_twin(kind: str, name: str, params: dict, tol: dict, guard: RegimeGuard) -> RunReport:
    spectrum = run_spectrum(kind, params, guard)
    probe = default_probe(
        spectrum,
        momenta=params["probe_momenta"],
        levels=tuple(range(spectrum.dim)),
    )
    result = run_sequence(
        _SEQUENCE_KINDS[kind],
        spectrum,
        boost=params["boost"],
        duration=params["duration"],
        probe=probe,
        translation_level=params.get("translation_level"),
        state_dependent_translation=params.get("state_dependent_translation", False),
        guard=guard,
        identity_tol=float("inf"),
    )
    report = RunReport(scenario=kind, name=name, parameters=dict(params))
    for level in sorted(result.level_factors):
        report.rows.append(
            {
                "level": level,
                "epsilon": spectrum.epsilons[level],
                "mass": spectrum.masses[level],
                "dilation_factor": result.level_factors[level],
                "closed_form_factor": result.level_factors_closed[level],
                "gamma": result.gammas[level],
            }
        )
    report.add_check(
        "identity_residual",
        result.residual_max <= tol["identity_residual"],
        result.residual_max,
        tol["identity_residual"],
        detail="max phase residual against the closed form, per component",
    )
    report.add_check(
        "closed_form_fidelity",
        result.fidelity_deviation <= tol["closed_form_fidelity"],
        result.fidelity_deviation,
        tol["closed_form_fidelity"],
        detail="|<closed form|sequence output> - 1|",
    )
    if kind == "twin-observer":
        report.add_check(
            "observer_global_phase_negative",
            result.global_phase < 0.0 and result.global_phase_closed < 0.0,
            result.global_phase,
            0.0,
            detail="moving-observer sequences must flip the global phase sign",
        )
    report.notes.append(
        f"global phase {result.global_phase!r} (closed form {result.global_phase_closed!r})"
    )
    return report


def _run_swp(name: str, params: dict, tol: dict, guard: RegimeGuard) -> RunReport:
    clock = SWPClock(dim=params["dim"], omega0=params["omega0"])
    profile_kind = params["profile"]
    if profile_kind == "none":
        profile = DilationProfile.none(clock.dim)
    elif profile_kind == "velocity-classical":
        profile = DilationProfile.velocity_classical(clock.dim, params["boost"])
    elif profile_kind == "observer-classical":
        profile = DilationProfile.observer_classical(clock.dim, params["boost"])
    else:
        profile = DilationProfile.momentum_nonclassical(
            params["boost"], run_spectrum("swp", params, guard)
        )
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
        report.add_check(
            "tick_variance_in_tau2",
            worst <= tol["tick_variance_in_tau2"],
            worst,
            tol["tick_variance_in_tau2"],
            detail="uniform dilation must rephase the pointer completely",
        )
        d = float(profile.factors[0])
        rescaled = abs(scan.mean_spacing * d / tau - 1.0) if enough else float("inf")
        report.add_check(
            "classical_spacing_deviation",
            rescaled <= tol["classical_spacing_deviation"],
            rescaled,
            tol["classical_spacing_deviation"],
            detail="tick spacing times the uniform factor must equal tau",
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
    model = TrapModel.with_lamb_dicke(
        transition_energy=params["transition_energy"],
        trap_frequency=params["trap_frequency"],
        lamb_dicke=params["lamb_dicke"],
        fock_index=params["fock_index"],
        rabi_frequency=params.get("rabi_frequency"),
        fock_cutoff=params.get("fock_cutoff"),
    )
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
        report.add_check(
            "null_shift_bound",
            abs(scan.peak_detuning) <= tol["null_shift_bound"],
            abs(scan.peak_detuning),
            tol["null_shift_bound"],
            detail="a massless internal gap must not shift the line",
        )
    else:
        mismatch = abs(scan.relative_shift / oracle.relative_shift - 1.0)
        report.add_check(
            "scan_vs_oracle",
            mismatch <= tol["scan_vs_oracle"],
            mismatch,
            tol["scan_vs_oracle"],
            detail="relative shift from the lineshape peak vs the branch oracle",
        )
        expansion = abs(
            oracle.relative_shift / oracle.first_order_relative - 1.0
        )
        report.add_check(
            "oracle_vs_first_order",
            expansion <= tol["oracle_vs_first_order"],
            expansion,
            tol["oracle_vs_first_order"],
            detail="oracle against the leading-order shift formula",
        )
    report.add_check(
        "cutoff_change",
        scan.cutoff_shift_change <= tol["cutoff_change"],
        scan.cutoff_shift_change,
        tol["cutoff_change"],
        detail="peak movement when the Fock cutoff doubles",
    )
    return report


def _run_trotter(name: str, params: dict, tol: dict, guard: RegimeGuard) -> RunReport:
    state = gaussian_grid_state(
        run_spectrum("trotter-accel", params, guard),
        size=params["grid_size"],
        box_length=params["box_length"],
        sigma=params["sigma"],
        momentum=params["momentum"],
    )
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
        ok = bool(
            np.all(ratios >= tol["halving_ratio_low"])
            and np.all(ratios <= tol["halving_ratio_high"])
        )
        report.add_check(
            "halving_ratios_in_range",
            ok,
            float(np.min(ratios)),
            tol["halving_ratio_low"],
            detail=f"error(n)/error(2n) ratios: {[float(r) for r in ratios]}",
        )
    else:
        report.notes.append("steps are not a doubling schedule; ratio range not checked")
    report.add_check(
        "terminal_error",
        result.terminal_error <= tol["terminal_error"],
        result.terminal_error,
        tol["terminal_error"],
        detail=f"product-formula error at {int(result.steps[-1])} steps",
    )
    return report


def _run_impulse(name: str, params: dict, tol: dict, guard: RegimeGuard) -> RunReport:
    state = gaussian_grid_state(
        run_spectrum("impulse-boost", params, guard),
        size=params["grid_size"],
        box_length=params["box_length"],
        sigma=params["sigma"],
    )
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
        ok = bool(
            np.all(ratios >= tol["decade_ratio_low"])
            and np.all(ratios <= tol["decade_ratio_high"])
        )
        report.add_check(
            "decade_ratios_in_range",
            ok,
            float(np.min(ratios)),
            tol["decade_ratio_low"],
            detail=(
                f"per-decade shrink of the {target}-boost deviation: "
                f"{[float(r) for r in ratios]}"
            ),
        )
    else:
        report.notes.append("dt schedule is not decade-spaced; ratio range not checked")
    return report


def _run_entanglement(name: str, params: dict, tol: dict, guard: RegimeGuard) -> RunReport:
    spectrum = run_spectrum("entanglement-demo", params, guard)
    demo = entanglement_frame_demo(
        spectrum, momentum=params["momentum"], v_b=params["boost"], guard=guard
    )
    max_entropy = math.log(spectrum.dim)
    report = RunReport(scenario="entanglement-demo", name=name, parameters=dict(params))
    report.rows.append(
        {"stage": "before-boost", "entropy": demo.entropy_before, "ceiling": max_entropy}
    )
    report.rows.append(
        {"stage": "after-boost", "entropy": demo.entropy_after, "ceiling": max_entropy}
    )
    report.add_check(
        "entropy_before_zero",
        abs(demo.entropy_before) <= tol["entropy_abs"],
        abs(demo.entropy_before),
        tol["entropy_abs"],
        detail="a product state has zero internal-motional entanglement",
    )
    report.add_check(
        "entropy_after_maximal",
        abs(demo.entropy_after - max_entropy) <= tol["entropy_abs"],
        abs(demo.entropy_after - max_entropy),
        tol["entropy_abs"],
        detail="a velocity boost correlates momentum with every internal level",
    )
    return report


def run_scenario(kind: str, name: str, params: dict, tolerances: dict, guard=None) -> RunReport:
    """Run one expanded scenario instance and return its report."""
    guard = DEFAULT_GUARD if guard is None else guard
    if kind in _SEQUENCE_KINDS:
        return _run_twin(kind, name, params, tolerances, guard)
    if kind == "swp":
        return _run_swp(name, params, tolerances, guard)
    if kind == "ion-spectroscopy":
        return _run_ion(name, params, tolerances, guard)
    if kind == "trotter-accel":
        return _run_trotter(name, params, tolerances, guard)
    if kind == "impulse-boost":
        return _run_impulse(name, params, tolerances, guard)
    if kind == "entanglement-demo":
        return _run_entanglement(name, params, tolerances, guard)
    raise ConfigError(f"unknown scenario kind {kind!r}")


def run_config(
    config: RunConfig,
    threads: int = 1,
    tolerance_overrides: dict | None = None,
    strict_regime: bool = False,
) -> list:
    """Run every scenario (sweeps expanded) and return reports in config order."""
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
        for run_name, run_params in spec.expand():
            jobs.append((spec.kind, run_name, run_params, tolerances))

    def one(job):
        kind, run_name, run_params, tolerances = job
        return run_scenario(kind, run_name, run_params, tolerances, guard=guard)

    if threads <= 1 or len(jobs) <= 1:
        return [one(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, jobs))
