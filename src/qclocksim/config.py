"""Scenario configuration: JSON schema, defaults, and static validation.

A run config is a JSON object with schema_version 1 and a list of
scenarios.  Each scenario names one of the built-in kinds, optionally
overrides that kind's default parameters and tolerances, and may attach a
one-parameter sweep.  Validation is strict and front-loaded: unknown keys,
wrong types, and physically out-of-regime parameters are all rejected here
with the offending JSON path in the message.

Loading also plans every run: it builds the run's engine objects (spectrum,
SWP clock and profile, trap, grid packet) with the engine's own constructors
and checks, and the runners execute those objects.  A run can still fail at
runtime, as with an SWP tick window too narrow for the tick finder.

SI inputs are supported through a scenario-level "si" block; they are
converted to the dimensionless ratios the engine uses and override the
corresponding parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, RegimeError, WraparoundError
from .grid import GridState, gaussian_grid_state
from .gridops import _require_inside
from .ionclock import TrapModel
from .sequences import SequenceKind, build_sequence, require_two_levels
from .spectrum import InternalSpectrum, ladder_spectrum, make_spectrum
from .swp import DilationProfile, SWPClock
from .units import (
    DEFAULT_GUARD,
    beta_from_velocity,
    epsilon_from_energy,
    epsilon_from_frequency,
)

SCHEMA_VERSION = 1

_FLOAT = "float"
_INT = "int"
_BOOL = "bool"
_STR = "str"
_FLOAT_LIST = "float_list"
_INT_LIST = "int_list"


@dataclass(frozen=True)
class ParamSpec:
    kind: str
    default: object
    sweepable: bool = False
    choices: tuple = ()


_NUMBER = ParamSpec(_FLOAT, None)


def _twin_schema(boost: float) -> dict:
    return {
        "levels": ParamSpec(_INT, 2),
        "spacing": ParamSpec(_FLOAT, 0.1, sweepable=True),
        "epsilons": ParamSpec(_FLOAT_LIST, None),
        "boost": ParamSpec(_FLOAT, boost, sweepable=True),
        "duration": ParamSpec(_FLOAT, 2.0, sweepable=True),
        "probe_momenta": ParamSpec(_FLOAT_LIST, (0.0, 0.1)),
    }


PARAM_SCHEMAS = {
    "twin-momentum": {
        **_twin_schema(boost=0.1),
        "translation_level": ParamSpec(_INT, None),
        "state_dependent_translation": ParamSpec(_BOOL, False),
    },
    "twin-velocity": _twin_schema(boost=0.01),
    "twin-observer": _twin_schema(boost=0.01),
    "swp": {
        "dim": ParamSpec(_INT, 8),
        "omega0": ParamSpec(_FLOAT, 1.0, sweepable=True),
        "profile": ParamSpec(
            _STR,
            "momentum-nonclassical",
            choices=(
                "none",
                "velocity-classical",
                "observer-classical",
                "momentum-nonclassical",
            ),
        ),
        "boost": ParamSpec(_FLOAT, 0.1, sweepable=True),
        "spacing": ParamSpec(_FLOAT, 0.01, sweepable=True),
        "window_in_tau": ParamSpec(_FLOAT_LIST, (0.5, 3.5)),
        "resolution_in_tau": ParamSpec(_FLOAT, 1.0 / 64.0),
    },
    "ion-spectroscopy": {
        "transition_energy": ParamSpec(_FLOAT, 1e-3, sweepable=True),
        "trap_frequency": ParamSpec(_FLOAT, 1e-5, sweepable=True),
        "fock_index": ParamSpec(_INT, 0),
        "points": ParamSpec(_INT, 61),
        "span_factor": ParamSpec(_FLOAT, 4.0),
        "rabi_frequency": ParamSpec(_FLOAT, None),
        "lamb_dicke": ParamSpec(_FLOAT, 0.05),
        "fock_cutoff": ParamSpec(_INT, None),
    },
    "trotter-accel": {
        "acceleration": ParamSpec(_FLOAT, 0.02, sweepable=True),
        "duration": ParamSpec(_FLOAT, 2.0, sweepable=True),
        "steps": ParamSpec(_INT_LIST, (32, 64, 128, 256, 512)),
        "grid_size": ParamSpec(_INT, 256),
        "box_length": ParamSpec(_FLOAT, 64.0),
        "sigma": ParamSpec(_FLOAT, 3.5),
        "levels": ParamSpec(_INT, 2),
        "spacing": ParamSpec(_FLOAT, 0.1),
        "momentum": ParamSpec(_FLOAT, 0.0),
    },
    "impulse-boost": {
        "boost": ParamSpec(_FLOAT, 0.01, sweepable=True),
        "dt_schedule": ParamSpec(_FLOAT_LIST, (1e-1, 1e-2, 1e-3, 1e-4)),
        "internal_coupled": ParamSpec(_BOOL, True),
        "grid_size": ParamSpec(_INT, 128),
        "box_length": ParamSpec(_FLOAT, 64.0),
        "sigma": ParamSpec(_FLOAT, 3.5),
        "levels": ParamSpec(_INT, 2),
        "spacing": ParamSpec(_FLOAT, 0.1),
    },
    "entanglement-demo": {
        "levels": ParamSpec(_INT, 2),
        "spacing": ParamSpec(_FLOAT, 0.1, sweepable=True),
        "momentum": ParamSpec(_FLOAT, 0.1),
        "boost": ParamSpec(_FLOAT, 0.01, sweepable=True),
    },
}

TOLERANCE_DEFAULTS = {
    "twin-momentum": {"identity_residual": 1e-12, "closed_form_fidelity": 1e-12},
    "twin-velocity": {"identity_residual": 1e-12, "closed_form_fidelity": 1e-12},
    "twin-observer": {"identity_residual": 1e-12, "closed_form_fidelity": 1e-12},
    "swp": {
        "tick_variance_in_tau2": 1e-20,
        # Tick locations are refined to a bracket of 1e-9 tau
        # (swp.TICK_REFINE_TOL); the nonclassical drift this check
        # discriminates against is several orders of magnitude larger.
        "classical_spacing_deviation": 1e-7,
    },
    "ion-spectroscopy": {
        "scan_vs_oracle": 1e-2,
        "oracle_vs_first_order": 1e-3,
        "cutoff_change": 1e-10,
        "null_shift_bound": 1e-10,
    },
    "trotter-accel": {
        "halving_ratio_low": 1.6,
        "halving_ratio_high": 2.4,
        "terminal_error": 1e-4,
    },
    "impulse-boost": {"decade_ratio_low": 8.0, "decade_ratio_high": 12.0},
    "entanglement-demo": {"entropy_abs": 1e-10},
}

_SI_TARGETS = {
    "velocity_m_per_s": "boost",
    "internal_energy_joule": "spacing",
    "transition_frequency_hz": "transition_energy",
    "trap_frequency_hz": "trap_frequency",
}


@dataclass(frozen=True)
class Sweep:
    parameter: str
    start: float
    stop: float
    count: int

    def values(self) -> list:
        return [float(v) for v in np.linspace(self.start, self.stop, self.count)]


@dataclass
class ScenarioSpec:
    name: str
    kind: str
    params: dict
    tolerances: dict
    sweep: Sweep | None = None
    # Each run's engine objects, in expand() order, built when the config is parsed.
    plans: list = field(default_factory=list)

    def expand(self) -> list:
        """(run_name, params) pairs: one per sweep value, or the bare run."""
        if self.sweep is None:
            return [(self.name, dict(self.params))]
        width = len(str(self.sweep.count - 1))
        return [(f"{self.name}-{i:0{width}d}", {**self.params, self.sweep.parameter: value})
                for i, value in enumerate(self.sweep.values())]


@dataclass
class RunConfig:
    scenarios: list = field(default_factory=list)


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{where}: {message}")


def _coerce(value, spec: ParamSpec, where: str):
    if spec.kind == _FLOAT:
        _require(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            where,
            f"expected a number, got {value!r}",
        )
        return float(value)
    if spec.kind == _INT:
        _require(
            isinstance(value, int) and not isinstance(value, bool),
            where,
            f"expected an integer, got {value!r}",
        )
        return int(value)
    if spec.kind == _BOOL:
        _require(isinstance(value, bool), where, f"expected true/false, got {value!r}")
        return bool(value)
    if spec.kind == _STR:
        _require(isinstance(value, str), where, f"expected a string, got {value!r}")
        _require(
            not spec.choices or value in spec.choices,
            where,
            f"must be one of {list(spec.choices)}, got {value!r}",
        )
        return value
    if spec.kind in (_FLOAT_LIST, _INT_LIST):
        _require(isinstance(value, (list, tuple)), where, f"expected a list, got {value!r}")
        item = _NUMBER if spec.kind == _FLOAT_LIST else ParamSpec(_INT, None)
        return tuple(_coerce(v, item, f"{where}[{i}]") for i, v in enumerate(value))
    raise AssertionError(f"unhandled param kind {spec.kind}")


def _apply_si(params: dict, si: dict, kind: str, where: str) -> dict:
    _require(isinstance(si, dict), where, "si block must be an object")
    unknown = set(si) - set(_SI_TARGETS) - {"mass_kg"}
    _require(not unknown, where, f"unknown si keys: {sorted(unknown)}")
    needs_mass = sorted(set(si) - {"velocity_m_per_s", "mass_kg"})
    _require(
        not needs_mass or "mass_kg" in si, where, f"mass_kg is required to convert {needs_mass}"
    )
    for key, raw in si.items():
        if key == "mass_kg":
            continue
        value = _coerce(raw, _NUMBER, f"{where}.{key}")
        target = _SI_TARGETS[key]
        _require(
            target in PARAM_SCHEMAS[kind],
            f"{where}.{key}",
            f"scenario kind {kind!r} has no parameter {target!r} to convert into",
        )
        if key == "velocity_m_per_s":
            params[target] = beta_from_velocity(value)
        elif key == "internal_energy_joule":
            params[target] = epsilon_from_energy(value, float(si["mass_kg"]))
        else:
            params[target] = epsilon_from_frequency(value, float(si["mass_kg"]))
    return params


# Each plan function builds one run's engine objects with the engine's own
# constructors and checks.  `at(field, check, *args)` applies one of them; a
# refusal becomes a ConfigError at the scenario's JSON path plus field.
def _plan_spectrum(params: dict, at) -> InternalSpectrum:
    if params.get("epsilons") is not None:
        return at("", make_spectrum, params["epsilons"])
    return at("", ladder_spectrum, params["levels"], params["spacing"])


def _plan_twin_momentum(params: dict, at) -> InternalSpectrum:
    spectrum = _plan_spectrum(params, at)
    # The sequence builder refuses a translation level outside the spectrum,
    # and one combined with the state-dependent translation; neither refusal
    # depends on the boost or the duration.
    at(".params.translation_level", build_sequence, SequenceKind.MOMENTUM, 0.0, 1.0,
       params["translation_level"], spectrum, params["state_dependent_translation"])
    return spectrum


def _plan_entanglement(params: dict, at) -> InternalSpectrum:
    spectrum = _plan_spectrum(params, at)
    at(".params.levels", require_two_levels, spectrum)
    return spectrum


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
    """The pointer clock and its dilation profile."""
    spectrum = None
    if params["profile"] == "momentum-nonclassical":
        spectrum = at("", ladder_spectrum, params["dim"], params["spacing"])
    clock = at("", SWPClock, dim=params["dim"], omega0=params["omega0"])
    return clock, at("", _swp_profile, params, spectrum)


def _plan_ion(params: dict, at) -> TrapModel:
    at("", DEFAULT_GUARD.check_epsilons, [params["transition_energy"]])
    return at("", TrapModel.with_lamb_dicke,
              transition_energy=params["transition_energy"],
              trap_frequency=params["trap_frequency"], lamb_dicke=params["lamb_dicke"],
              fock_index=params["fock_index"], rabi_frequency=params["rabi_frequency"],
              fock_cutoff=params["fock_cutoff"])


def _plan_grid(params: dict, at) -> GridState:
    """The initial wavepacket of a trotter-accel or impulse-boost run."""
    state = at("", gaussian_grid_state, _plan_spectrum(params, at), size=params["grid_size"],
               box_length=params["box_length"], sigma=params["sigma"],
               momentum=params.get("momentum", 0.0))
    # The grid engines refuse a packet that already reaches the box edge.
    at(".params.box_length", _require_inside, state, "initial state")
    return state


def _boost(params: dict) -> float:
    return abs(params["boost"])


# Per kind: its plan function; the sweepable parameters that function reads;
# and the boost magnitude of a run, held to kappa_max.
PLANS = {
    "twin-momentum": (_plan_twin_momentum, ("spacing",), _boost),
    "twin-velocity": (_plan_spectrum, ("spacing",), _boost),
    "twin-observer": (_plan_spectrum, ("spacing",), _boost),
    "swp": (_plan_swp, ("omega0", "boost", "spacing"),
            lambda p: 0.0 if p["profile"] == "none" else _boost(p)),
    "ion-spectroscopy": (_plan_ion, ("transition_energy", "trap_frequency"), lambda p: 0.0),
    "trotter-accel": (_plan_grid, (), lambda p: abs(p["acceleration"]) * p["duration"]),
    "impulse-boost": (_plan_grid, (), _boost),
    "entanglement-demo": (_plan_entanglement, ("spacing",), _boost),
}


def _plan_runs(spec: ScenarioSpec, where: str) -> list:
    """Each run's plan, in expand() order.  The runs of a sweep differ only in
    the swept parameter, so runs share a plan unless the plan reads it."""
    build, reads, max_boost = PLANS[spec.kind]
    swept = spec.sweep.parameter if spec.sweep and spec.sweep.parameter in reads else None
    built, plans = {}, []
    for run_name, params in spec.expand():

        def at(field, check, *args, **kwargs):
            try:
                return check(*args, **kwargs)
            except RegimeError as exc:
                raise ConfigError(f"{where}{field} (run {run_name!r}): RegimeGuard: {exc}") from exc
            except (ValueError, WraparoundError) as exc:
                raise ConfigError(f"{where}{field} (run {run_name!r}): {exc}") from exc

        key = params[swept] if swept else None
        if key not in built:
            built[key] = build(params, at)
        plans.append(built[key])
        boost = max_boost(params)
        if boost > DEFAULT_GUARD.kappa_max:
            raise ConfigError(
                f"{where} (run {run_name!r}): boost magnitude {boost!r} exceeds the RegimeGuard "
                f"limit kappa_max={DEFAULT_GUARD.kappa_max!r}; the weak-relativistic model "
                "does not apply"
            )
    return plans


def _parse_scenario(data: dict, index: int) -> ScenarioSpec:
    where = f"scenarios[{index}]"
    _require(isinstance(data, dict), where, "scenario must be an object")
    allowed = {"name", "kind", "params", "tolerances", "sweep", "si"}
    unknown = set(data) - allowed
    _require(not unknown, where, f"unknown keys: {sorted(unknown)}")
    _require("kind" in data, where, "missing required key 'kind'")
    kind = data["kind"]
    _require(
        kind in PARAM_SCHEMAS,
        f"{where}.kind",
        f"unknown scenario kind {kind!r}; valid kinds: {sorted(PARAM_SCHEMAS)}",
    )
    name = data.get("name", f"{kind}-{index}")
    _require(isinstance(name, str) and name != "", f"{where}.name", "must be a nonempty string")
    # Result files are named after the runs, inside --out-dir.
    _require(
        not name.startswith(".") and not {"/", "\\", "\0"} & set(name),
        f"{where}.name",
        f"must be a plain file name without '/', '\\', NUL or a leading '.', got {name!r}",
    )

    schema = PARAM_SCHEMAS[kind]
    params = {key: spec.default for key, spec in schema.items()}
    raw_params = data.get("params", {})
    _require(isinstance(raw_params, dict), f"{where}.params", "must be an object")
    for key, value in raw_params.items():
        _require(
            key in schema,
            f"{where}.params.{key}",
            f"unknown parameter for kind {kind!r}; valid: {sorted(schema)}",
        )
        params[key] = _coerce(value, schema[key], f"{where}.params.{key}")
    if "si" in data:
        params = _apply_si(params, data["si"], kind, f"{where}.si")

    tolerances = dict(TOLERANCE_DEFAULTS[kind])
    raw_tol = data.get("tolerances", {})
    _require(isinstance(raw_tol, dict), f"{where}.tolerances", "must be an object")
    for key, value in raw_tol.items():
        _require(
            key in tolerances,
            f"{where}.tolerances.{key}",
            f"unknown tolerance for kind {kind!r}; valid: {sorted(tolerances)}",
        )
        tolerances[key] = _coerce(value, _NUMBER, f"{where}.tolerances.{key}")

    sweep = None
    if "sweep" in data:
        raw = data["sweep"]
        _require(isinstance(raw, dict), f"{where}.sweep", "must be an object")
        missing = {"parameter", "start", "stop", "count"} - set(raw)
        _require(not missing, f"{where}.sweep", f"missing keys: {sorted(missing)}")
        extra = set(raw) - {"parameter", "start", "stop", "count"}
        _require(not extra, f"{where}.sweep", f"unknown keys: {sorted(extra)}")
        parameter = raw["parameter"]
        _require(
            parameter in schema and schema[parameter].sweepable,
            f"{where}.sweep.parameter",
            f"{parameter!r} is not a sweepable parameter of kind {kind!r}; "
            f"sweepable: {sorted(k for k, s in schema.items() if s.sweepable)}",
        )
        count = raw["count"]
        _require(
            isinstance(count, int) and not isinstance(count, bool) and count >= 2,
            f"{where}.sweep.count",
            f"expected an integer >= 2, got {count!r}",
        )
        start, stop = (_coerce(raw[b], _NUMBER, f"{where}.sweep.{b}") for b in ("start", "stop"))
        sweep = Sweep(parameter=parameter, start=start, stop=stop, count=count)

    spec = ScenarioSpec(name=name, kind=kind, params=params, tolerances=tolerances, sweep=sweep)
    spec.plans = _plan_runs(spec, where)
    return spec


def parse_config(data: dict) -> RunConfig:
    """Validate a decoded JSON object and return the run configuration, planned."""
    _require(isinstance(data, dict), "config", "top level must be a JSON object")
    unknown = set(data) - {"schema_version", "scenarios"}
    _require(not unknown, "config", f"unknown keys: {sorted(unknown)}")
    _require("schema_version" in data, "config", "missing required key 'schema_version'")
    _require(
        data["schema_version"] == SCHEMA_VERSION,
        "config.schema_version",
        f"expected {SCHEMA_VERSION}, got {data['schema_version']!r}",
    )
    scenarios = data.get("scenarios")
    _require(
        isinstance(scenarios, list) and len(scenarios) > 0,
        "config.scenarios",
        "must be a nonempty list",
    )
    specs = [_parse_scenario(s, i) for i, s in enumerate(scenarios)]
    names = [s.name for s in specs]
    _require(
        len(set(names)) == len(names),
        "config.scenarios",
        f"scenario names must be unique, got {names}",
    )
    owner = {}  # run name -> index of the scenario it belongs to
    for i, spec in enumerate(specs):
        for run_name, _ in spec.expand():
            _require(owner.setdefault(run_name, i) == i, f"scenarios[{i}].name",
                     f"run name {run_name!r} is already a run of scenarios[{owner[run_name]}]; "
                     "each run writes result files named after it")
    return RunConfig(scenarios=specs)


def load_config(path) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return parse_config(data)
