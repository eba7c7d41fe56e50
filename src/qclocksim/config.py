"""Scenario configuration: JSON schema, defaults, and static validation.

A run config is a JSON object with schema_version 1 and a list of
scenarios.  Each scenario names one of the built-in kinds, optionally
overrides that kind's default parameters and tolerances, and may attach a
one-parameter sweep.  Validation is strict and front-loaded: unknown keys,
wrong types, and physically out-of-regime parameters are all rejected here
with the offending JSON path in the message, so the engine never starts on
a config that cannot finish.

SI inputs are supported through a scenario-level "si" block; they are
converted to the dimensionless ratios the engine uses and override the
corresponding parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, RegimeError, WraparoundError
from .grid import gaussian_grid_state
from .gridops import _require_inside
from .ionclock import TrapModel
from .sequences import SequenceKind, build_sequence, require_two_levels
from .spectrum import InternalSpectrum, ladder_spectrum, make_spectrum
from .swp import DilationProfile, SWPClock
from .units import (
    DEFAULT_GUARD,
    RegimeGuard,
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

    def expand(self) -> list:
        """(run_name, params) pairs: one per sweep value, or the bare run."""
        if self.sweep is None:
            return [(self.name, dict(self.params))]
        runs = []
        width = len(str(self.sweep.count - 1))
        for i, value in enumerate(self.sweep.values()):
            params = dict(self.params)
            params[self.sweep.parameter] = value
            runs.append((f"{self.name}-{i:0{width}d}", params))
        return runs


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


def run_spectrum(
    kind: str, params: dict, guard: RegimeGuard = DEFAULT_GUARD
) -> InternalSpectrum | None:
    """The internal spectrum one expanded run evolves.

    None for runs without one: ion spectroscopy (a single transition energy)
    and SWP scans with a classical dilation profile.
    """
    if kind == "ion-spectroscopy":
        return None
    if kind == "swp":
        if params["profile"] != "momentum-nonclassical":
            return None
        return ladder_spectrum(params["dim"], params["spacing"], guard=guard)
    if params.get("epsilons") is not None:
        return make_spectrum(params["epsilons"], guard=guard)
    return ladder_spectrum(params["levels"], params["spacing"], guard=guard)


# Every parameter run_spectrum reads.
_SPECTRUM_PARAMS = ("profile", "dim", "levels", "spacing", "epsilons")


def spectrum_builder(kind: str, guard: RegimeGuard = DEFAULT_GUARD):
    """run_spectrum for the runs of one scenario; runs that read the same
    parameters share one spectrum, built once."""
    built = {}

    def spectrum(params: dict) -> InternalSpectrum | None:
        key = tuple(map(params.get, _SPECTRUM_PARAMS))
        if key not in built:
            built[key] = run_spectrum(kind, params, guard)
        return built[key]

    return spectrum


def swp_clock(params: dict, spectrum: InternalSpectrum | None) -> tuple:
    """The pointer clock and dilation profile of an SWP run, given its run_spectrum."""
    clock = SWPClock(dim=params["dim"], omega0=params["omega0"])
    profile = params["profile"]
    if profile == "none":
        return clock, DilationProfile.none(clock.dim)
    if profile == "velocity-classical":
        return clock, DilationProfile.velocity_classical(clock.dim, params["boost"])
    if profile == "observer-classical":
        return clock, DilationProfile.observer_classical(clock.dim, params["boost"])
    return clock, DilationProfile.momentum_nonclassical(params["boost"], spectrum)


def trap_model(params: dict) -> TrapModel:
    """The trapped ion of an ion-spectroscopy run."""
    return TrapModel.with_lamb_dicke(
        transition_energy=params["transition_energy"],
        trap_frequency=params["trap_frequency"],
        lamb_dicke=params["lamb_dicke"],
        fock_index=params["fock_index"],
        rabi_frequency=params.get("rabi_frequency"),
        fock_cutoff=params.get("fock_cutoff"),
    )


def grid_state_args(params: dict) -> dict:
    """gaussian_grid_state's keywords for a trotter-accel or impulse-boost run's packet."""
    return {"size": params["grid_size"], "box_length": params["box_length"],
            "sigma": params["sigma"], "momentum": params.get("momentum", 0.0)}


def _max_boost(kind: str, params: dict) -> float:
    if kind == "trotter-accel":
        return abs(params["acceleration"]) * params["duration"]
    if kind == "swp" and params["profile"] == "none":
        return 0.0
    if "boost" in params:
        return abs(params["boost"])
    return 0.0


def _engine_check(where: str, run_name: str, check, *args, **kwargs):
    """Apply one of the engine's own checks; a refusal names the JSON path and run."""
    try:
        return check(*args, **kwargs)
    except RegimeError as exc:
        raise ConfigError(f"{where} (run {run_name!r}): RegimeGuard: {exc}") from exc
    except (ValueError, WraparoundError) as exc:
        raise ConfigError(f"{where} (run {run_name!r}): {exc}") from exc


def _static_regime_check(kind: str, params: dict, where: str, run_name: str, spectrum_of) -> None:
    guard = DEFAULT_GUARD
    # Every rule below is the one the engine applies, so validation refuses
    # exactly what the run would refuse.
    if kind == "ion-spectroscopy":
        _engine_check(where, run_name, guard.check_epsilons, [params["transition_energy"]])
        _engine_check(where, run_name, trap_model, params)
    spectrum = _engine_check(where, run_name, spectrum_of, params)
    if kind == "swp":
        _engine_check(where, run_name, swp_clock, params, spectrum)
    if kind == "twin-momentum":
        # The sequence builder refuses a translation level outside the
        # spectrum, and one combined with the state-dependent translation.
        _engine_check(
            f"{where}.params.translation_level", run_name, build_sequence, SequenceKind.MOMENTUM,
            params["boost"], params["duration"], params["translation_level"], spectrum,
            params["state_dependent_translation"],
        )
    if kind == "entanglement-demo":
        _engine_check(f"{where}.params.levels", run_name, require_two_levels, spectrum)
    if kind in ("trotter-accel", "impulse-boost"):
        # The grid engines refuse a packet that already reaches the box edge.
        state = _engine_check(
            where, run_name, gaussian_grid_state, spectrum, **grid_state_args(params)
        )
        _engine_check(f"{where}.params.box_length", run_name, _require_inside, state,
                      "initial state")
    boost = _max_boost(kind, params)
    if boost > guard.kappa_max:
        raise ConfigError(
            f"{where} (run {run_name!r}): boost magnitude {boost!r} exceeds the RegimeGuard "
            f"limit kappa_max={guard.kappa_max!r}; the weak-relativistic model does not apply"
        )


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
    spectrum_of = spectrum_builder(kind)
    for run_name, run_params in spec.expand():
        _static_regime_check(kind, run_params, where, run_name, spectrum_of)
    return spec


def parse_config(data: dict) -> RunConfig:
    """Validate a decoded JSON object and return the run configuration."""
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
