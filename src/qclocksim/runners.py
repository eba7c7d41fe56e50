"""Scenario kinds and their jobs: from validated config entries to reports.

Each scenario kind is one `Kind` record in KINDS: its parameter schema and
default tolerances, the plan function that builds each job's engine objects
once, at load, and the runner that executes that plan.  A job is the unit of
work: a twin or entanglement sweep is one job, measured at load by
`run_sequence` or `entanglement_frame_demo` as one batch of arrays with a
leading run axis, and every other run is a job of its own.  `plan_jobs`
expands a loaded scenario's runs once, checks them and plans each job, and the
scenario keeps what it returns; `run_config` runs those jobs and no others.
The engines only measure and `oracles` predicts; this layer grades each
measurement against its closed form, makes every report and passes every
verdict.  `run_scenario` makes one RunReport per run of a job, and the kind's
runner fills them with rows and grades them against the kind's tolerances.
Runners never print or write files; the CLI layer owns all I/O.  --threads N
runs the jobs on a pool of N threads.  Only `eigh`-bound runs (ion lineshapes,
grid evolutions) scale with N: the Python loops of grid split steps, SWP tick
refinement and report building hold the GIL.  `import qclocksim` sets BLAS to
one thread per process, and results are bit-identical whatever N or the core
count; they are always returned in config order regardless of thread timing.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import ConfigError, LevelResolutionError, PhaseCapError, RegimeError, WraparoundError
from .grid import GridState, gaussian_grid_state, require_lattice_size
from .gridops import (
    accelerated_frame_trotter,
    impulse_durations,
    impulsive_boost_limit,
    require_inside,
    trotter_steps,
)
from .ionclock import TrapModel, require_scan_points, require_transition_energy, spectroscopy_scan
from .oracles import (
    BranchOracle,
    branch_spectrum_oracle,
    closed_dilation_factor,
    closed_form_phase,
    closed_global_phase,
    lorentz_gamma,
    swp_dilation_factors,
)
from .report import RunReport
from .sequences import (
    SequenceKind,
    default_probe,
    entanglement_frame_demo,
    run_sequence,
)
from .spectrum import (
    InternalSpectrum,
    ladder_spectrum,
    make_spectrum,
    require_two_levels,
    stack_spectra,
)
from .states import fidelity_deviation
from .swp import (
    DilationProfile,
    SWPClock,
    find_effective_ticks,
    require_tick_resolution,
    require_tick_window,
)
from .units import check_kicks, require_nonnegative, require_positive


@dataclass(frozen=True)
class ParamSpec:
    """One parameter: its type (float, int, bool, str, list[float] or
    list[int]), its default, whether a sweep may vary it, for a string the
    values it may take, and the rule its value alone must meet: `check(value)`
    raises ValueError for a value the engine refuses or the kind's checks
    cannot grade, and is not called on None, which asks for the engine's
    default."""

    type: object
    default: object
    sweepable: bool = False
    choices: tuple = ()
    check: Callable | None = None


@dataclass(frozen=True)
class Kind:
    """Everything that defines one scenario kind.

    Each parameter's own rule is the `check` of its ParamSpec.  `plan_jobs`
    makes a job of all runs of a sweep if the kind `batches`, else of one run,
    and any run can be planned alone.  `plan(runs, at)` builds a job's engine
    objects once, measures a twin or entanglement job, and checks the rules that
    read more than one parameter or a built object, kicks included.  `at(field,
    check, *args, run=0)` turns a refusal into a ConfigError at the scenario's
    JSON path plus field, or at the field of the first type in a {type: field}
    map that the error is an instance of, naming the job's run `run` or the one
    the error names.  `run(reports, runs, plan, tolerances)` fills the job's
    reports from that plan.
    """

    params: dict
    tolerances: dict
    plan: Callable
    run: Callable
    batches: bool = False


def _require_drive(value: float) -> None:
    """With no boost nothing dilates, the observer's global phase is 0, an SWP
    profile other than `none` is the undilated clock, both reference boosts
    of the impulse are the identity and the entanglement demo's state stays a
    product; with no acceleration the product formula is exact and its
    halving ratios are roundoff."""
    if value == 0.0:
        raise ValueError("must be nonzero: with no drive the run's checks have nothing to measure")


def _require_doubling_steps(steps) -> None:
    """The halving ratios graded are error(n) / error(2n)."""
    steps = trotter_steps(steps)
    if not all(int(b) == 2 * int(a) for a, b in zip(steps[:-1], steps[1:])):
        raise ValueError("each step count must be twice the one before, got "
                         f"{[int(n) for n in steps]}")


def _require_decade_durations(dt_schedule) -> None:
    """The shrink ratios graded are those of one decade of dt."""
    d = impulse_durations(dt_schedule)
    if not np.allclose(d[:-1] / d[1:], 10.0, rtol=1e-9):
        raise ValueError(f"each duration must be a tenth of the one before, got {d.tolist()}")


def _require_level_dependent(factors: np.ndarray) -> None:
    """A nonclassical profile whose factors round to one value is the classical clock."""
    if np.all(factors == factors[0]):
        raise ValueError(f"every level dilates by {float(factors[0])!r} in float, so the "
                         "momentum-nonclassical profile is classical; use a larger |boost| "
                         "or spacing")


def _positive(name: str) -> Callable:
    return partial(require_positive, name)


def _plan_spectrum(runs: list, at) -> InternalSpectrum:
    """A job's levels: `epsilons`, which fix every run's, or one ladder per
    distinct spacing, stacked; the top level of a ladder reads `levels` too."""
    if runs[0].get("epsilons") is not None:
        return at(".params.epsilons", make_spectrum, runs[0]["epsilons"])
    ladders = {}
    for run, params in enumerate(runs):
        if params["spacing"] not in ladders:
            ladders[params["spacing"]] = at(".params.spacing", ladder_spectrum, params["levels"],
                                            params["spacing"], run=run)
    return stack_spectra([ladders[params["spacing"]] for params in runs])


def _plan_twin(sequence: SequenceKind, runs: list, at) -> tuple:
    """The job's levels and probe, and all runs' round trips measured as one
    batch by `run_sequence`, which builds the chain once: the load refuses an
    empty probe, a phase past the cap, a factor outside (0, 2), a kick out of
    the regime and a bad translation option, each at its own field."""
    spectrum = _plan_spectrum(runs, at)
    params = runs[0]
    probe = at(".params.probe_momenta", default_probe, spectrum, params["probe_momenta"],
               tuple(range(spectrum.dim)))
    boost, duration = (np.array([p[key] for p in runs]) for key in ("boost", "duration"))
    levels = ".params.epsilons" if params.get("epsilons") is not None else ".params.spacing"
    refusals = {PhaseCapError: ".params.duration", LevelResolutionError: levels,
                RegimeError: ".params.boost", ValueError: ".params.translation_level"}
    return spectrum, probe, at(
        refusals, run_sequence, sequence, spectrum, boost=boost, duration=duration, probe=probe,
        translation_level=params.get("translation_level"),
        state_dependent_translation=params.get("state_dependent_translation", False))


def _run_twin(sequence: SequenceKind, reports: list, runs: list, plan: tuple, tol: dict) -> None:
    # The runs of one sweep differ only in the swept parameter.
    spectrum, probe, result = plan
    translation = runs[0].get("translation_level")
    branchwise = runs[0].get("state_dependent_translation", False)
    # The closed forms on the (runs, 1) boost and duration columns of the chain.
    b, t = (np.array([[p[key]] for p in runs]) for key in ("boost", "duration"))
    closed = closed_form_phase(sequence, spectrum, b, t, probe.levels, probe.momenta,
                               translation, branchwise)
    residual = np.max(np.abs(np.exp(1j * (result.phases - closed)) - 1.0), axis=-1).tolist()
    expected = probe.with_amplitudes(probe.amplitudes * np.exp(1j * closed))
    fidelity = fidelity_deviation(expected, result.final_state).tolist()
    phase_closed = np.ravel(closed_global_phase(sequence, spectrum, b, t, translation)).tolist()
    shape = (len(runs), spectrum.dim)
    epsilons = np.broadcast_to(spectrum.epsilons, shape).tolist()
    masses = np.broadcast_to(spectrum.masses, shape).tolist()
    levels = sorted(result.level_factors)
    factors = {n: result.level_factors[n].tolist() for n in levels}
    closed_factors = {n: np.ravel(closed_dilation_factor(sequence, spectrum, b, [n], branchwise))
                      .tolist() for n in levels}
    gammas = {n: np.ravel(lorentz_gamma(sequence, spectrum, b, n)).tolist() for n in levels}
    for r, report in enumerate(reports):
        for level in levels:
            report.rows.append(
                {
                    "level": level,
                    "epsilon": epsilons[r][level],
                    "mass": masses[r][level],
                    "dilation_factor": factors[level][r],
                    "closed_form_factor": closed_factors[level][r],
                    "gamma": gammas[level][r],
                }
            )
        report.add_bound(
            "identity_residual", residual[r], tol["identity_residual"],
            "max phase residual against the closed form, per component",
        )
        report.add_bound(
            "closed_form_fidelity", fidelity[r],
            tol["closed_form_fidelity"], "|<closed form|sequence output> - 1|",
        )
        global_phase = float(result.global_phase[r])
        global_phase_closed = phase_closed[r]
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


def _twin(sequence: SequenceKind, boost: float, **params) -> Kind:
    return Kind(
        params={
            "levels": ParamSpec(int, 2, check=_positive("levels")),
            "spacing": ParamSpec(float, 0.1, sweepable=True, check=_positive("spacing")),
            "epsilons": ParamSpec(list[float], None),
            "boost": ParamSpec(float, boost, sweepable=True, check=_require_drive),
            "duration": ParamSpec(float, 2.0, sweepable=True, check=_positive("duration")),
            "probe_momenta": ParamSpec(list[float], (0.0, 0.1)),
            **params,
        },
        tolerances={"identity_residual": 1e-12, "closed_form_fidelity": 1e-12},
        plan=partial(_plan_twin, sequence), run=partial(_run_twin, sequence), batches=True,
    )


def _plan_swp(runs: list, at) -> tuple:
    """The pointer clock and its dilation profile; the profile's boost is the
    clock's one kick."""
    [params] = runs
    name, spectrum = params["profile"], None
    if name != "none":
        at(".params.boost", _require_drive, params["boost"])
    if name == "momentum-nonclassical":
        spectrum = at(".params.spacing", ladder_spectrum, params["dim"], params["spacing"])
    clock = SWPClock(dim=params["dim"], omega0=params["omega0"])
    factors = swp_dilation_factors(name, params["dim"], params["boost"], spectrum)
    profile = at(".params.boost", DilationProfile, factors)
    if name == "momentum-nonclassical":
        at(".params.boost", _require_level_dependent, profile.factors)
    at(".params.boost", check_kicks, [("boost", [0.0 if name == "none" else params["boost"]])])
    return clock, profile


def _run_swp(reports: list, runs: list, plan: tuple, tol: dict) -> None:
    [report], [params], (clock, profile) = reports, runs, plan
    tau = clock.tau
    window = params["window_in_tau"]
    scan = find_effective_ticks(clock, profile, window, params["resolution_in_tau"])
    ticks = len(scan.tick_times)
    for i, (t, v) in enumerate(zip(scan.tick_times, scan.tick_variances)):
        report.rows.append(
            {
                "tick_index": i,
                "tick_time": t,
                "tick_time_in_tau": t / tau,
                "variance_in_tau2": v / (tau * tau),
            }
        )
    enough = ticks >= 2
    if enough:
        spacing = float(np.mean(np.diff(scan.tick_times)))
        report.notes.append(f"{ticks} ticks located")
    else:
        report.notes.append(
            f"only {ticks} variance minima inside ({window[0] * tau:.6g}, {window[1] * tau:.6g}); "
            "spacing undefined, widen the window or check the profile"
        )
    report.add_check(
        "ticks_found", enough, float(ticks), 2.0,
        detail="at least two variance minima inside the window",
    )
    # A classical profile claims full rephasing, the nonclassical one its loss.
    if params["profile"] != "momentum-nonclassical":
        worst = float(np.max(scan.tick_variances / (tau * tau))) if enough else float("inf")
        report.add_bound(
            "tick_variance_in_tau2", worst, tol["tick_variance_in_tau2"],
            "uniform dilation must rephase the pointer completely",
        )
        d = float(profile.factors[0])
        rescaled = abs(spacing * d / tau - 1.0) if enough else float("inf")
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
                f"effective tick spacing deviates from tau by {(spacing - tau) / tau!r} (relative)"
            )


def _require_shift(oracle: BranchOracle) -> None:
    """The ion checks divide by the relative shift, which is nan at u = 0 (the null test)."""
    if oracle.relative_shift == 0.0:
        raise ValueError("the predicted line shift rounds to 0.0; use a larger transition energy")


def _plan_ion(runs: list, at) -> tuple:
    """The trap and its branch oracle; once every parameter has met its own
    rule, only the cutoff against the Fock index is left for the constructor
    to refuse, and a predicted shift of 0.0 for the oracle."""
    [params] = runs
    model = at(".params.fock_cutoff", TrapModel, transition_energy=params["transition_energy"],
               trap_frequency=params["trap_frequency"], lamb_dicke=params["lamb_dicke"],
               fock_index=params["fock_index"], rabi_frequency=params["rabi_frequency"],
               fock_cutoff=params["fock_cutoff"])
    oracle = branch_spectrum_oracle(model)
    at(".params.transition_energy", _require_shift, oracle)
    return model, oracle


def _run_ion(reports: list, runs: list, plan: tuple, tol: dict) -> None:
    [report], [params], (model, oracle) = reports, runs, plan
    scan = spectroscopy_scan(model, oracle.carrier_shift, points=params["points"],
                             span_factor=params["span_factor"])
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
        relative, first = oracle.relative_shift, oracle.first_order_relative
        extracted = scan.peak_detuning / model.transition_energy
        report.add_bound(
            "scan_vs_oracle", abs(extracted / relative - 1.0),
            tol["scan_vs_oracle"], "relative shift from the lineshape peak vs the branch oracle",
        )
        report.add_bound(
            "oracle_vs_first_order", abs(relative / first - 1.0),
            tol["oracle_vs_first_order"],
            "oracle against the leading-order shift formula",
        )
    report.add_bound(
        "cutoff_change", scan.cutoff_shift_change, tol["cutoff_change"],
        "peak movement when the Fock cutoff doubles",
    )


def _plan_grid(key: str, momenta: Callable, runs: list, at) -> GridState:
    """The initial wavepacket of a trotter-accel or impulse-boost run; its drive
    parameter `key` kicks it to `momenta(params, state)`, per branch."""
    [params] = runs
    state = at(".params.sigma", gaussian_grid_state, _plan_spectrum(runs, at),
               size=params["grid_size"], box_length=params["box_length"], sigma=params["sigma"],
               momentum=params.get("momentum", 0.0))
    # The grid engines refuse a packet that already reaches the box edge.
    at(".params.box_length", require_inside, state, "initial state")
    at(f".params.{key}", check_kicks, [(key, momenta(params, state))])
    return state


def _run_trotter(reports: list, runs: list, state: GridState, tol: dict) -> None:
    [report], [params] = reports, runs
    result = accelerated_frame_trotter(
        state, params["acceleration"], params["duration"], steps=params["steps"]
    )
    ratios = result.errors[:-1] / result.errors[1:]
    for i, (n, err) in enumerate(zip(result.steps, result.errors)):
        report.rows.append(
            {
                "steps": int(n),
                "error": err,
                "ratio_to_next": ratios[i] if i < len(ratios) else float("nan"),
            }
        )
    report.add_range(
        "halving_ratios_in_range", ratios, tol["halving_ratio_low"], tol["halving_ratio_high"],
        f"error(n)/error(2n) ratios: {[float(r) for r in ratios]}",
    )
    report.add_bound(
        "terminal_error", float(result.errors[-1]), tol["terminal_error"],
        f"product-formula error at {int(result.steps[-1])} steps",
    )


def _run_impulse(reports: list, runs: list, state: GridState, tol: dict) -> None:
    [report], [params] = reports, runs
    result = impulsive_boost_limit(
        state,
        params["boost"],
        dt_schedule=params["dt_schedule"],
        internal_coupled=params["internal_coupled"],
    )
    for dt, dv, dp in zip(
        result.durations, result.deviation_velocity, result.deviation_momentum
    ):
        report.rows.append(
            {"duration": dt, "deviation_velocity": dv, "deviation_momentum": dp}
        )
    target, other = (("velocity", "momentum") if params["internal_coupled"]
                     else ("momentum", "velocity"))
    deviation = {"velocity": result.deviation_velocity, "momentum": result.deviation_momentum}
    ratios = deviation[target][:-1] / deviation[target][1:]
    report.notes.append(
        f"limit converges to the {target} boost; deviation from the {other} "
        f"boost stalls at {float(deviation[other][-1])!r}"
    )
    report.add_range(
        "decade_ratios_in_range", ratios, tol["decade_ratio_low"], tol["decade_ratio_high"],
        f"per-decade shrink of the {target}-boost deviation: {[float(r) for r in ratios]}",
    )


def _grid_params(**params) -> dict:
    return {
        **params,
        "box_length": ParamSpec(float, 64.0, check=_positive("box_length")),
        "sigma": ParamSpec(float, 3.5, check=_positive("sigma")),
        "levels": ParamSpec(int, 2, check=_positive("levels")),
        "spacing": ParamSpec(float, 0.1, check=_positive("spacing")),
    }


def _plan_entanglement(runs: list, at) -> tuple:
    """The job's levels, and the boost of the superposition measured for all runs as one batch."""
    spectrum = _plan_spectrum(runs, at)
    return spectrum, at(".params.boost", entanglement_frame_demo, spectrum,
                        momentum=runs[0]["momentum"], v_b=np.array([p["boost"] for p in runs]))


def _run_entanglement(reports: list, runs: list, plan: tuple, tol: dict) -> None:
    spectrum, demo = plan
    max_entropy = math.log(spectrum.dim)
    before = demo.entropy_before
    for report, after in zip(reports, demo.entropy_after.tolist()):
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


KINDS = {
    "twin-momentum": _twin(
        SequenceKind.MOMENTUM, boost=0.1,
        translation_level=ParamSpec(int, None),
        state_dependent_translation=ParamSpec(bool, False),
    ),
    "twin-velocity": _twin(SequenceKind.VELOCITY_CLOCK, boost=0.01),
    "twin-observer": _twin(SequenceKind.VELOCITY_OBSERVER, boost=0.01),
    "swp": Kind(
        params={
            "dim": ParamSpec(int, 8, check=require_two_levels),
            "omega0": ParamSpec(float, 1.0, sweepable=True, check=_positive("omega0")),
            "profile": ParamSpec(str, "momentum-nonclassical", choices=(
                "none", "velocity-classical", "observer-classical", "momentum-nonclassical")),
            "boost": ParamSpec(float, 0.1, sweepable=True),
            "spacing": ParamSpec(float, 0.01, sweepable=True, check=_positive("spacing")),
            "window_in_tau": ParamSpec(list[float], (0.5, 3.5), check=require_tick_window),
            "resolution_in_tau": ParamSpec(float, 1.0 / 64.0, check=require_tick_resolution),
        },
        tolerances={
            "tick_variance_in_tau2": 1e-20,
            # Tick locations are refined to a bracket of 1e-9 tau
            # (swp.TICK_REFINE_TOL); the nonclassical drift this check
            # discriminates against is several orders of magnitude larger.
            "classical_spacing_deviation": 1e-7,
        },
        plan=_plan_swp, run=_run_swp,
    ),
    "ion-spectroscopy": Kind(
        params={
            "transition_energy": ParamSpec(float, 1e-3, sweepable=True,
                                           check=require_transition_energy),
            "trap_frequency": ParamSpec(float, 1e-5, sweepable=True,
                                        check=_positive("trap frequency")),
            "fock_index": ParamSpec(int, 0, check=partial(require_nonnegative, "fock index")),
            "points": ParamSpec(int, 61, check=require_scan_points),
            "span_factor": ParamSpec(float, 4.0, check=_positive("span factor")),
            "rabi_frequency": ParamSpec(float, None, check=_positive("Rabi frequency")),
            "lamb_dicke": ParamSpec(float, 0.05),
            "fock_cutoff": ParamSpec(int, None),
        },
        tolerances={
            "scan_vs_oracle": 1e-2,
            "oracle_vs_first_order": 1e-3,
            "cutoff_change": 1e-10,
            "null_shift_bound": 1e-10,
        },
        plan=_plan_ion, run=_run_ion,
    ),
    "trotter-accel": Kind(
        params=_grid_params(
            acceleration=ParamSpec(float, 0.02, sweepable=True, check=_require_drive),
            duration=ParamSpec(float, 2.0, sweepable=True, check=_positive("duration")),
            steps=ParamSpec(list[int], (32, 64, 128, 256, 512), check=_require_doubling_steps),
            grid_size=ParamSpec(int, 256, check=require_lattice_size),
            momentum=ParamSpec(float, 0.0),
        ),
        tolerances={"halving_ratio_low": 1.6, "halving_ratio_high": 2.4, "terminal_error": 1e-4},
        # The frame's kicks add up to -M_n a T on the packet's momentum.
        plan=partial(_plan_grid, "acceleration", lambda p, state: p["momentum"]
                     - state.spectrum.masses * p["acceleration"] * p["duration"]),
        run=_run_trotter,
    ),
    "impulse-boost": Kind(
        params=_grid_params(
            boost=ParamSpec(float, 0.01, sweepable=True, check=_require_drive),
            dt_schedule=ParamSpec(list[float], (1e-1, 1e-2, 1e-3, 1e-4),
                                  check=_require_decade_durations),
            internal_coupled=ParamSpec(bool, True),
            grid_size=ParamSpec(int, 128, check=require_lattice_size),
        ),
        tolerances={"decade_ratio_low": 8.0, "decade_ratio_high": 12.0},
        # The pulse's ideal limit is a velocity boost: branch n ends at M_n v.
        plan=partial(_plan_grid, "boost", lambda p, state: state.spectrum.masses * p["boost"]),
        run=_run_impulse,
    ),
    "entanglement-demo": Kind(
        params={
            "levels": ParamSpec(int, 2, check=require_two_levels),
            "spacing": ParamSpec(float, 0.1, sweepable=True, check=_positive("spacing")),
            "momentum": ParamSpec(float, 0.1),
            "boost": ParamSpec(float, 0.01, sweepable=True, check=_require_drive),
        },
        tolerances={"entropy_abs": 1e-10},
        plan=_plan_entanglement, run=_run_entanglement, batches=True,
    ),
}


def plan_jobs(spec, where: str, aliases: dict) -> list:
    """(run names, run params, plan) per job of a scenario, its runs expanded
    once.  The runs of a sweep differ only in the swept parameter, so each
    parameter's own check sees the first run, and every run only for the
    swept parameter; it refuses a value at `.params.<key>`, or at the path
    `aliases` gives for it.  A job's runs meet their own rules before its
    plan: a per-run kind's sweep stops at its first run that breaks any rule."""
    kind = KINDS[spec.kind]
    swept = spec.sweep and spec.sweep.parameter

    def at(names, field, check, *args, run=0, **kwargs):
        fields = {ValueError: field, WraparoundError: field} if isinstance(field, str) else field
        try:
            return check(*args, **kwargs)
        except tuple(fields) as exc:
            field = next(path for kind, path in fields.items() if isinstance(exc, kind))
            # A batched RegimeError says which run left the regime.
            name = names[run if getattr(exc, "run", None) is None else exc.run]
            raise ConfigError(f"{where}{aliases.get(field, field)} (run {name!r}): {exc}") from exc

    runs = spec.expand()
    size = len(runs) if kind.batches else 1
    jobs, keys = [], kind.params  # after the first run, only the swept key
    for start in range(0, len(runs), size):
        names, job = map(list, zip(*runs[start:start + size]))
        for run, params in enumerate(job):
            for key in keys:
                check = kind.params[key].check
                if check is not None and params[key] is not None:
                    at(names, f".params.{key}", check, params[key], run=run)
            keys = (swept,)
        jobs.append((names, job, kind.plan(job, partial(at, names))))
    return jobs


def run_scenario(kind: str, names: list, runs: list, plan, tolerances: dict) -> list:
    """Run one job, named runs of one scenario, from its plan; reports in run order."""
    if kind not in KINDS:
        raise ConfigError(f"unknown scenario kind {kind!r}")
    reports = [RunReport(scenario=kind, name=name, parameters=dict(params))
               for name, params in zip(names, runs, strict=True)]
    KINDS[kind].run(reports, runs, plan, tolerances)
    return reports


def run_config(config, threads: int = 1, tolerance_overrides: dict | None = None) -> list:
    """Run the jobs that the load planned, each from its plan, which the
    engine only reads, and return reports in config order."""
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
        jobs += [(spec.kind, names, runs, plan, tolerances) for names, runs, plan in spec.jobs]

    def one(job):
        try:
            return run_scenario(*job)
        except Exception as exc:
            # A PEP 678 note (add_note is Python 3.11+): the error keeps its
            # type and text, and the CLI names the failing run or batch.
            names = job[1]
            runs = (f"run {names[0]!r}" if len(names) == 1
                    else f"runs {names[0]!r} to {names[-1]!r}")
            exc.__notes__ = [*getattr(exc, "__notes__", ()), runs]
            raise

    if threads <= 1 or len(jobs) <= 1:
        results = [one(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, jobs))
    return [report for reports in results for report in reports]
