"""Scenario configuration: JSON parsing, types, sweeps and static validation.

A run config is a JSON object with schema_version 1 and a list of
scenarios.  Each scenario names one of the built-in kinds, optionally
overrides that kind's default parameters and tolerances, and may attach a
one-parameter sweep.  This module reads only each kind's parameter schema
and tolerances from its record in runners.KINDS, and holds only what every
kind shares.  Validation is strict and front-loaded: unknown keys, wrong
types, and physically out-of-regime parameters are all rejected at load
with the offending JSON path in the message.

A parsed scenario is handed to runners.plan_jobs, which expands its runs
once, checks them and plans each job; the scenario keeps the returned
jobs, each job's runs beside its plan, and run_config runs exactly those,
so changing a loaded scenario does not change what runs.  At run time a
packet that reaches the box edge fails a check, as every measured limit does.

SI inputs are supported through a scenario-level "si" block; they are
converted to the dimensionless ratios the engine uses and override the
corresponding parameters.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .runners import KINDS, ParamSpec, plan_jobs
from .units import (
    beta_from_velocity,
    epsilon_from_energy,
    epsilon_from_frequency,
)

SCHEMA_VERSION = 1
# A sweep expands every run at load; a million runs already take about 1 GB.
MAX_SWEEP_COUNT = 1_000_000

_NUMBER = ParamSpec(float, None)

# Each si key: the parameter it writes, and its converter from the value and mass_kg.
_SI = {
    "velocity_m_per_s": ("boost", lambda velocity, mass: beta_from_velocity(velocity)),
    "internal_energy_joule": ("spacing", epsilon_from_energy),
    "transition_frequency_hz": ("transition_energy", epsilon_from_frequency),
    "trap_frequency_hz": ("trap_frequency", epsilon_from_frequency),
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
    # (run names, run params, plan) per job, as runners.plan_jobs made them at load.
    jobs: list = field(default_factory=list)

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
    if spec.type is float:
        _require(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            where,
            f"expected a number, got {value!r}",
        )
        # Refuses NaN, the infinities and an integer too large for a float.
        _require(abs(value) <= sys.float_info.max, where,
                 f"expected a finite number, got {value!r}")
        return float(value)
    if spec.type is int:
        _require(
            isinstance(value, int) and not isinstance(value, bool),
            where,
            f"expected an integer, got {value!r}",
        )
        # numpy takes every count, size and index as a 64-bit integer.
        _require(-2**63 <= value < 2**63, where, f"expected a 64-bit integer, got {value!r}")
        return int(value)
    if spec.type is bool:
        _require(isinstance(value, bool), where, f"expected true/false, got {value!r}")
        return bool(value)
    if spec.type is str:
        _require(isinstance(value, str), where, f"expected a string, got {value!r}")
        _require(
            not spec.choices or value in spec.choices,
            where,
            f"must be one of {list(spec.choices)}, got {value!r}",
        )
        return value
    # list[float] or list[int]
    _require(isinstance(value, (list, tuple)), where, f"expected a list, got {value!r}")
    item = ParamSpec(spec.type.__args__[0], None)
    return tuple(_coerce(v, item, f"{where}[{i}]") for i, v in enumerate(value))


def _apply_si(params: dict, si: dict, kind: str, where: str) -> dict:
    _require(isinstance(si, dict), where, "si block must be an object")
    unknown = set(si) - set(_SI) - {"mass_kg"}
    _require(not unknown, where, f"unknown si keys: {sorted(unknown)}")
    needs_mass = sorted(set(si) - {"velocity_m_per_s", "mass_kg"})
    _require(
        not needs_mass or "mass_kg" in si, where, f"mass_kg is required to convert {needs_mass}"
    )
    values = {key: _coerce(raw, _NUMBER, f"{where}.{key}") for key, raw in si.items()}
    mass = values.pop("mass_kg", None)
    _require(mass is None or mass > 0.0, f"{where}.mass_kg", f"must be positive, got {mass!r}")
    for key, value in values.items():
        target, convert = _SI[key]
        _require(
            target in KINDS[kind].params,
            f"{where}.{key}",
            f"scenario kind {kind!r} has no parameter {target!r} to convert into",
        )
        params[target] = convert(value, mass)
    return params


def _parse_scenario(data: dict, index: int) -> ScenarioSpec:
    where = f"scenarios[{index}]"
    _require(isinstance(data, dict), where, "scenario must be an object")
    allowed = {"name", "kind", "params", "tolerances", "sweep", "si"}
    unknown = set(data) - allowed
    _require(not unknown, where, f"unknown keys: {sorted(unknown)}")
    _require("kind" in data, where, "missing required key 'kind'")
    kind = data["kind"]
    _require(
        kind in KINDS,
        f"{where}.kind",
        f"unknown scenario kind {kind!r}; valid kinds: {sorted(KINDS)}",
    )
    name = data.get("name", f"{kind}-{index}")
    _require(isinstance(name, str) and name != "", f"{where}.name", "must be a nonempty string")
    # Result files are named after the runs, inside --out-dir.
    _require(
        not name.startswith(".") and not {"/", "\\", "\0"} & set(name),
        f"{where}.name",
        f"must be a plain file name without '/', '\\', NUL or a leading '.', got {name!r}",
    )
    # A \uXXXX escape can leave a lone surrogate, which UTF-8 cannot encode.
    _require(not any("\ud800" <= c <= "\udfff" for c in name), f"{where}.name",
             f"must encode as UTF-8 to name result files, got {name!r}")

    schema = KINDS[kind].params
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

    tolerances = dict(KINDS[kind].tolerances)
    raw_tol = data.get("tolerances", {})
    _require(isinstance(raw_tol, dict), f"{where}.tolerances", "must be an object")
    for key, value in raw_tol.items():
        _require(
            key in tolerances,
            f"{where}.tolerances.{key}",
            f"unknown tolerance for kind {kind!r}; valid: {sorted(tolerances)}",
        )
        # Every check bounds a quantity that is never negative.
        tolerances[key] = _coerce(value, _NUMBER, f"{where}.tolerances.{key}")
        _require(tolerances[key] >= 0.0, f"{where}.tolerances.{key}",
                 f"must not be negative, got {value!r}")

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
        count = _coerce(count, ParamSpec(int, None), f"{where}.sweep.count")
        _require(count <= MAX_SWEEP_COUNT, f"{where}.sweep.count",
                 f"expected at most {MAX_SWEEP_COUNT} runs, got {count!r}")
        start, stop = (_coerce(raw[b], _NUMBER, f"{where}.sweep.{b}") for b in ("start", "stop"))
        sweep = Sweep(parameter=parameter, start=start, stop=stop, count=count)
    if "epsilons" in raw_params:
        # epsilons fixes every level, so nothing else may set them.
        si = data.get("si", {})
        for path, given in ((".params.levels", "levels" in raw_params),
                            (".params.spacing", "spacing" in raw_params),
                            (".sweep.parameter", sweep and sweep.parameter == "spacing"),
                            (".si.internal_energy_joule", "internal_energy_joule" in si)):
            _require(not given, f"{where}{path}", "cannot be set together with params.epsilons")

    spec = ScenarioSpec(name=name, kind=kind, params=params, tolerances=tolerances, sweep=sweep)
    # A parameter the si block wrote is refused at the si key, unless swept.
    aliases = {f".params.{_SI[key][0]}": f".si.{key}" for key in data.get("si", {})
               if key in _SI and _SI[key][0] != (sweep and sweep.parameter)}
    spec.jobs = plan_jobs(spec, where, aliases)
    return spec


def parse_config(data: dict) -> RunConfig:
    """Validate a decoded JSON object and return the run configuration, planned."""
    _require(isinstance(data, dict), "config", "top level must be a JSON object")
    unknown = set(data) - {"schema_version", "scenarios"}
    _require(not unknown, "config", f"unknown keys: {sorted(unknown)}")
    _require("schema_version" in data, "config", "missing required key 'schema_version'")
    version = data["schema_version"]
    _require(
        type(version) is int and version == SCHEMA_VERSION,
        "config.schema_version",
        f"expected {SCHEMA_VERSION}, got {version!r}",
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
        for run_name in (name for names, _, _ in spec.jobs for name in names):
            _require(owner.setdefault(run_name, i) == i, f"scenarios[{i}].name",
                     f"run name {run_name!r} is already a run of scenarios[{owner[run_name]}]; "
                     "each run writes result files named after it")
            _require(len(f"{run_name}.json".encode("utf-8")) <= 255,
                     f"scenarios[{i}].name", f"run name {run_name!r} is too long for a file "
                     "name: <run>.json must fit in the 255 bytes common file systems allow")
    return RunConfig(scenarios=specs)


def load_config(path) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return parse_config(data)
