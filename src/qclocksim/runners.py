"""Scenario kinds and their execution: from validated config entries to reports.

Each scenario kind is one `Kind` record in KINDS: its parameter schema and
default tolerances, the plan function that builds a run's engine objects
when the config is loaded, and the runner that executes them, fills a
RunReport with rows, and applies that kind's tolerance checks.  Runners
never print and never write files; the CLI layer owns all I/O.  A twin or
entanglement sweep runs as one batch, as arrays with a leading run axis,
and its runner builds one report per run from the result arrays.  Such a
sweep is one job at every thread count, every other run is a job of its
own, and --threads N runs the jobs on a pool of N threads.  Only
`eigh`-bound runs (ion lineshapes, grid evolutions) scale with N: the
Python loops of grid split steps, SWP tick refinement and report building
hold the GIL.  `import qclocksim` sets BLAS to one thread per process, and
results are bit-identical whatever N or the core count; they are always
returned in config order regardless of thread timing.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import ConfigError
from .grid import GridState, gaussian_grid_state, require_lattice_size, require_positive_length
from .gridops import (
    _require_inside,
    accelerated_frame_trotter,
    impulse_durations,
    impulsive_boost_limit,
    trotter_steps,
)
from .ionclock import (
    TrapModel,
    require_scan_points,
    require_span_factor,
    spectroscopy_scan,
)
from .operators import VelocityBoost, apply_operator, trace_chain
from .report import RunReport
from .sequences import (
    SequenceKind,
    build_sequence,
    default_probe,
    entanglement_frame_demo,
    require_positive_duration,
    require_two_levels,
    run_sequence,
)
from .spectrum import InternalSpectrum, ladder_spectrum, make_spectrum, stack_spectra
from .states import internal_superposition
from .swp import (
    DilationProfile,
    SWPClock,
    find_effective_ticks,
    require_tick_resolution,
    require_tick_window,
)
from .units import check_epsilons, check_kicks


@dataclass(frozen=True)
class ParamSpec:
    """One parameter: its type (float, int, bool, str, list[float] or
    list[int]), its default, whether a sweep may vary it, and for a string
    the values it may take."""

    type: object
    default: object
    sweepable: bool = False
    choices: tuple = ()


@dataclass(frozen=True)
class Kind:
    """Everything that defines one scenario kind.

    `plan(params, at)` builds one run's engine objects with the engine's own
    constructors and checks; `at(field, check, *args)` applies one of them,
    and a refusal becomes a ConfigError at the scenario's JSON path plus
    field.  The runs of a sweep share a plan unless the swept parameter is
    one of `plan_reads`; each (parameter, check) of `run_checks` sees the
    first run, and every run when it names the swept parameter.
    `kicks(runs, plans, at)` holds the momenta that all runs' kicks reach to
    the engine's regime check, as one batch.  `run` executes the plans; a kind
    that `batches` gets the runs of one sweep as lists, any other kind one
    run at a time.
    """

    params: dict
    tolerances: dict
    plan: Callable
    run: Callable
    plan_reads: tuple = ()
    run_checks: tuple = ()
    kicks: Callable | None = None
    batches: bool = False


def _drive_kicks(key: str, momenta: Callable, runs: list, plans: list, at) -> None:
    """The kicks of a kind with no operator chain to check: `momenta(params,
    plan)` is what the drive parameter `key` kicks one run to, per branch."""
    reached = np.array([momenta(params, plan) for params, plan in zip(runs, plans)])
    at(f".params.{key}", check_kicks, [(key, reached)])


def _require_drive(value: float) -> None:
    if value == 0.0:
        raise ValueError("must be nonzero: with no drive the run's checks have nothing to measure")


def _plan_spectrum(params: dict, at) -> InternalSpectrum:
    if params.get("epsilons") is not None:
        return at("", make_spectrum, params["epsilons"])
    return at("", ladder_spectrum, params["levels"], params["spacing"])


def _twin_kicks(sequence: SequenceKind, runs: list, spectra: list, at) -> None:
    """Build the runner's probe and the operator chains of all runs as one
    batch, and move the probe through them: `default_probe` refuses an empty
    probe, `build_sequence` a bad translation option and `trace_chain` any
    kick out of the regime."""
    spectrum = stack_spectra(spectra)
    params = runs[0]
    probe = at(".params.probe_momenta", default_probe, spectrum, params["probe_momenta"],
               tuple(range(spectrum.dim)))
    boost, duration = (np.array([[p[key]] for p in runs]) for key in ("boost", "duration"))
    ops = at(".params.translation_level", build_sequence, sequence, boost, duration,
             params.get("translation_level"), spectrum,
             params.get("state_dependent_translation", False))
    at(".params.boost", trace_chain, probe, ops)


def _run_twin(sequence: SequenceKind, kind: str, names: list, runs: list, spectra: list,
              tol: dict) -> list:
    # The runs of one sweep differ only in the swept parameter.
    spectrum = stack_spectra(spectra)
    params = runs[0]
    result = run_sequence(
        sequence,
        spectrum,
        boost=np.array([p["boost"] for p in runs]),
        duration=np.array([p["duration"] for p in runs]),
        probe=default_probe(spectrum, params["probe_momenta"], tuple(range(spectrum.dim))),
        translation_level=params.get("translation_level"),
        state_dependent_translation=params.get("state_dependent_translation", False),
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
        if sequence is SequenceKind.VELOCITY_OBSERVER:
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


def _twin(sequence: SequenceKind, boost: float, run_checks=(), **params) -> Kind:
    return Kind(
        params={
            "levels": ParamSpec(int, 2),
            "spacing": ParamSpec(float, 0.1, sweepable=True),
            "epsilons": ParamSpec(list[float], None),
            "boost": ParamSpec(float, boost, sweepable=True),
            "duration": ParamSpec(float, 2.0, sweepable=True),
            "probe_momenta": ParamSpec(list[float], (0.0, 0.1)),
            **params,
        },
        tolerances={"identity_residual": 1e-12, "closed_form_fidelity": 1e-12},
        plan=_plan_spectrum, plan_reads=("spacing",), run=partial(_run_twin, sequence),
        run_checks=(("duration", require_positive_duration), *run_checks),
        kicks=partial(_twin_kicks, sequence), batches=True,
    )


def _swp_profile(params: dict, spectrum: InternalSpectrum | None) -> DilationProfile:
    dim, profile, boost = params["dim"], params["profile"], params["boost"]
    if profile == "none":
        return DilationProfile.none(dim)
    if profile == "velocity-classical":
        return DilationProfile.velocity_classical(dim, boost)
    if profile == "observer-classical":
        return DilationProfile.observer_classical(dim, boost)
    return DilationProfile.momentum_nonclassical(boost, spectrum)


def _plan_swp(params: dict, at) -> tuple:
    """The pointer clock, its dilation profile, and the tick scan's window
    and resolution in time units."""
    spectrum = None
    if params["profile"] == "momentum-nonclassical":
        spectrum = at("", ladder_spectrum, params["dim"], params["spacing"])
    clock = at("", SWPClock, dim=params["dim"], omega0=params["omega0"])
    profile = at("", _swp_profile, params, spectrum)
    window = tuple(w * clock.tau for w in params["window_in_tau"])
    resolution = params["resolution_in_tau"] * clock.tau
    at(".params.window_in_tau", require_tick_window, window, clock.tau)
    at(".params.resolution_in_tau", require_tick_resolution, resolution, clock.tau)
    return clock, profile, window, resolution


def _run_swp(name: str, params: dict, plan: tuple, tol: dict) -> RunReport:
    clock, profile, window, resolution = plan
    tau = clock.tau
    scan = find_effective_ticks(clock, profile, window=window, resolution=resolution)
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


def _plan_ion(params: dict, at) -> TrapModel:
    at("", check_epsilons, [params["transition_energy"]])
    model = at("", TrapModel, transition_energy=params["transition_energy"],
               trap_frequency=params["trap_frequency"], lamb_dicke=params["lamb_dicke"],
               fock_index=params["fock_index"], rabi_frequency=params["rabi_frequency"],
               fock_cutoff=params["fock_cutoff"])
    at(".params.points", require_scan_points, params["points"])
    at(".params.span_factor", require_span_factor, params["span_factor"])
    return model


def _run_ion(name: str, params: dict, model, tol: dict) -> RunReport:
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
        report.add_bound(
            "scan_vs_oracle", abs(scan.extracted_to_oracle_ratio - 1.0), tol["scan_vs_oracle"],
            "relative shift from the lineshape peak vs the branch oracle",
        )
        report.add_bound(
            "oracle_vs_first_order", abs(scan.oracle_to_first_order_ratio - 1.0),
            tol["oracle_vs_first_order"],
            "oracle against the leading-order shift formula",
        )
    report.add_bound(
        "cutoff_change", scan.cutoff_shift_change, tol["cutoff_change"],
        "peak movement when the Fock cutoff doubles",
    )
    return report


def _plan_grid(schedule: str, check, params: dict, at) -> GridState:
    """The initial wavepacket of a trotter-accel or impulse-boost run; the
    engine's `check` of its `schedule` parameter."""
    at(".params.grid_size", require_lattice_size, params["grid_size"])
    for length in ("box_length", "sigma"):
        at(f".params.{length}", require_positive_length, length, params[length])
    state = at("", gaussian_grid_state, _plan_spectrum(params, at), size=params["grid_size"],
               box_length=params["box_length"], sigma=params["sigma"],
               momentum=params.get("momentum", 0.0))
    # The grid engines refuse a packet that already reaches the box edge.
    at(".params.box_length", _require_inside, state, "initial state")
    at(f".params.{schedule}", check, params[schedule])
    return state


def _run_trotter(name: str, params: dict, state, tol: dict) -> RunReport:
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
        "terminal_error", float(result.errors[-1]), tol["terminal_error"],
        f"product-formula error at {int(result.steps[-1])} steps",
    )
    return report


def _run_impulse(name: str, params: dict, state, tol: dict) -> RunReport:
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


def _grid_params(**params) -> dict:
    return {
        **params,
        "box_length": ParamSpec(float, 64.0),
        "sigma": ParamSpec(float, 3.5),
        "levels": ParamSpec(int, 2),
        "spacing": ParamSpec(float, 0.1),
    }


def _plan_entanglement(params: dict, at) -> InternalSpectrum:
    spectrum = _plan_spectrum(params, at)
    at(".params.levels", require_two_levels, spectrum)
    return spectrum


def _entanglement_kicks(runs: list, spectra: list, at) -> None:
    """The runner's velocity boost of the internal superposition, as one batch."""
    spectrum = stack_spectra(spectra)
    kick = VelocityBoost(np.array([[p["boost"]] for p in runs]))
    at(".params.boost", apply_operator, internal_superposition(spectrum, runs[0]["momentum"]),
       kick)


def _run_entanglement(kind: str, names: list, runs: list, spectra: list, tol: dict) -> list:
    spectrum = stack_spectra(spectra)
    demo = entanglement_frame_demo(
        spectrum,
        momentum=runs[0]["momentum"],
        v_b=np.array([p["boost"] for p in runs]),
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


KINDS = {
    "twin-momentum": _twin(
        SequenceKind.MOMENTUM, boost=0.1,
        translation_level=ParamSpec(int, None),
        state_dependent_translation=ParamSpec(bool, False),
    ),
    "twin-velocity": _twin(SequenceKind.VELOCITY_CLOCK, boost=0.01),
    # At zero boost the observer's global phase is zero: its sign shows nothing.
    "twin-observer": _twin(SequenceKind.VELOCITY_OBSERVER, boost=0.01,
                           run_checks=(("boost", _require_drive),)),
    "swp": Kind(
        params={
            "dim": ParamSpec(int, 8),
            "omega0": ParamSpec(float, 1.0, sweepable=True),
            "profile": ParamSpec(str, "momentum-nonclassical", choices=(
                "none", "velocity-classical", "observer-classical", "momentum-nonclassical")),
            "boost": ParamSpec(float, 0.1, sweepable=True),
            "spacing": ParamSpec(float, 0.01, sweepable=True),
            "window_in_tau": ParamSpec(list[float], (0.5, 3.5)),
            "resolution_in_tau": ParamSpec(float, 1.0 / 64.0),
        },
        tolerances={
            "tick_variance_in_tau2": 1e-20,
            # Tick locations are refined to a bracket of 1e-9 tau
            # (swp.TICK_REFINE_TOL); the nonclassical drift this check
            # discriminates against is several orders of magnitude larger.
            "classical_spacing_deviation": 1e-7,
        },
        plan=_plan_swp, plan_reads=("omega0", "boost", "spacing"), run=_run_swp,
        # The clock's engine has no operator chain: the profile's boost is its kick.
        kicks=partial(_drive_kicks, "boost",
                      lambda p, plan: [0.0 if p["profile"] == "none" else p["boost"]]),
    ),
    "ion-spectroscopy": Kind(
        params={
            "transition_energy": ParamSpec(float, 1e-3, sweepable=True),
            "trap_frequency": ParamSpec(float, 1e-5, sweepable=True),
            "fock_index": ParamSpec(int, 0),
            "points": ParamSpec(int, 61),
            "span_factor": ParamSpec(float, 4.0),
            "rabi_frequency": ParamSpec(float, None),
            "lamb_dicke": ParamSpec(float, 0.05),
            "fock_cutoff": ParamSpec(int, None),
        },
        tolerances={
            "scan_vs_oracle": 1e-2,
            "oracle_vs_first_order": 1e-3,
            "cutoff_change": 1e-10,
            "null_shift_bound": 1e-10,
        },
        plan=_plan_ion, plan_reads=("transition_energy", "trap_frequency"), run=_run_ion,
    ),
    "trotter-accel": Kind(
        params=_grid_params(
            acceleration=ParamSpec(float, 0.02, sweepable=True),
            duration=ParamSpec(float, 2.0, sweepable=True),
            steps=ParamSpec(list[int], (32, 64, 128, 256, 512)),
            grid_size=ParamSpec(int, 256),
            momentum=ParamSpec(float, 0.0),
        ),
        tolerances={"halving_ratio_low": 1.6, "halving_ratio_high": 2.4, "terminal_error": 1e-4},
        plan=partial(_plan_grid, "steps", trotter_steps), run=_run_trotter,
        # With no force the product is exact, and its halving ratios are roundoff.
        run_checks=(("duration", require_positive_duration), ("acceleration", _require_drive)),
        # The frame's kicks add up to -M_n a T on the packet's momentum.
        kicks=partial(_drive_kicks, "acceleration", lambda p, state: p["momentum"]
                      - state.spectrum.masses * p["acceleration"] * p["duration"]),
    ),
    "impulse-boost": Kind(
        params=_grid_params(
            boost=ParamSpec(float, 0.01, sweepable=True),
            dt_schedule=ParamSpec(list[float], (1e-1, 1e-2, 1e-3, 1e-4)),
            internal_coupled=ParamSpec(bool, True),
            grid_size=ParamSpec(int, 128),
        ),
        tolerances={"decade_ratio_low": 8.0, "decade_ratio_high": 12.0},
        plan=partial(_plan_grid, "dt_schedule", impulse_durations), run=_run_impulse,
        # With no boost both references are the identity: the schedule measures
        # only free evolution, whatever the coupling.
        run_checks=(("boost", _require_drive),),
        # The pulse's ideal limit is a velocity boost: branch n ends at M_n v.
        kicks=partial(_drive_kicks, "boost", lambda p, state: state.spectrum.masses * p["boost"]),
    ),
    "entanglement-demo": Kind(
        params={
            "levels": ParamSpec(int, 2),
            "spacing": ParamSpec(float, 0.1, sweepable=True),
            "momentum": ParamSpec(float, 0.1),
            "boost": ParamSpec(float, 0.01, sweepable=True),
        },
        tolerances={"entropy_abs": 1e-10},
        plan=_plan_entanglement, plan_reads=("spacing",), run=_run_entanglement, batches=True,
        # With no boost the state stays a product: nothing becomes entangled.
        run_checks=(("boost", _require_drive),), kicks=_entanglement_kicks,
    ),
}


def run_scenario(kind: str, name, params, plan, tolerances: dict):
    """Run one expanded scenario instance on its plan and return its report.

    Twin and entanglement kinds also take a batch: lists of run names,
    params and plans, runs of one sweep, give a list of their reports in
    that order.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown scenario kind {kind!r}")
    runner, batches = KINDS[kind].run, KINDS[kind].batches
    if not batches:
        return runner(name, params, plan, tolerances)
    if isinstance(name, str):
        return runner(kind, [name], [params], [plan], tolerances)[0]
    return runner(kind, name, params, plan, tolerances)


def run_config(config, threads: int = 1, tolerance_overrides: dict | None = None) -> list:
    """Run every scenario's planned runs of a loaded config and return
    reports in config order.

    A twin or entanglement sweep is one job at every thread count; every
    other run is a job of its own.  Jobs share the plans, which the engine
    only reads.
    """
    overrides = dict(tolerance_overrides or {})
    known = {key for spec in config.scenarios for key in spec.tolerances}
    unknown = set(overrides) - known
    if unknown:
        raise ConfigError(
            f"tolerance overrides {sorted(unknown)} match no scenario in this "
            f"config; known keys: {sorted(known)}"
        )
    jobs = []
    for spec in config.scenarios:
        tolerances = {key: overrides.get(key, value) for key, value in spec.tolerances.items()}
        runs = [(name, params, plan)
                for (name, params), plan in zip(spec.expand(), spec.plans, strict=True)]
        if KINDS[spec.kind].batches:
            jobs.append((spec.kind, *map(list, zip(*runs)), tolerances))
        else:
            jobs += [(spec.kind, *run, tolerances) for run in runs]

    def one(job):
        kind, name, params, plan, tolerances = job
        try:
            return run_scenario(kind, name, params, plan, tolerances)
        except Exception as exc:
            # A PEP 678 note (add_note is Python 3.11+): the error keeps its
            # type and text, and the CLI names the failing run or batch.
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
