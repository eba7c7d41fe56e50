"""Command-line interface: exit codes, file output, and determinism."""

import gc
import hashlib
import importlib.util
import json
import os
import pickle
import subprocess
import sys
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qclocksim
from qclocksim import cli as cli_module
from qclocksim import runners as runners_module
from qclocksim import sequences as sequences_module
from qclocksim import (
    SequenceKind,
    closed_form_phase,
    default_probe,
    ladder_spectrum,
    load_config,
    parse_config,
    run_config,
    run_scenario,
    run_sequence,
)
from qclocksim.cli import main
from qclocksim.report import RunReport
from qclocksim.units import beta_from_velocity, epsilon_from_energy, epsilon_from_frequency

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DATA = Path(__file__).resolve().parent / "data"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env_without_blas_settings(**extra):
    """The current environment without BLAS thread variables, so that only the
    child's own `import qclocksim` can set them."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(extra)
    return env


# Level factors and trotter errors that configs/full-suite.json produces,
# pinned so that any engine change that moves them shows.  The trotter errors
# are those of one BLAS thread, the setting `import qclocksim` makes, and of
# the real symmetric grid eigenproblem, which tests/test_gridops.py holds to
# a complex Hermitian reference amplitude by amplitude.
FROZEN_FULL_SUITE = {
    "twin-momentum": ("dilation_factor", [0.9954545454545455]),
    "twin-velocity": ("dilation_factor", [0.99995]),
    "twin-observer": ("dilation_factor", [1.00005]),
    "trotter": (
        "error",
        [
            0.00018053487971972593,
            9.025739967123136e-05,
            4.512619927584027e-05,
            2.2562475686580724e-05,
            1.1281082007840437e-05,
        ],
    ),
    "impulse": (
        "deviation_velocity",
        [
            0.007883859902479699,
            0.0007883901618143808,
            7.883902035304246e-05,
            7.883902039467627e-06,
        ],
    ),
}

BASE_CONFIG = {
    "schema_version": 1,
    "scenarios": [
        {
            "kind": "twin-momentum",
            "name": "round-trip",
            "params": {"boost": 0.1, "duration": 2.0},
        },
        {
            "kind": "entanglement-demo",
            "name": "boost-entangles",
            "params": {"boost": 0.01},
        },
    ],
}


def _write_config(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def base_config(tmp_path):
    return _write_config(tmp_path / "run.json", BASE_CONFIG)


def test_run_writes_both_result_files(tmp_path, base_config, capsys):
    out = tmp_path / "out"
    assert main(["run", base_config, "--out-dir", str(out)]) == 0
    for stem in ("round-trip", "boost-entangles"):
        assert (out / f"{stem}.csv").exists()
        assert (out / f"{stem}.json").exists()
    payload = json.loads((out / "round-trip.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["passed"] is True
    assert all(check["passed"] for check in payload["checks"])
    stdout = capsys.readouterr().out
    assert "all 2 run(s) passed" in stdout


def test_run_without_out_dir_prints_summaries_only(tmp_path, base_config, capsys):
    assert main(["run", base_config]) == 0
    stdout = capsys.readouterr().out
    assert "round-trip" in stdout
    assert "PASS" in stdout
    assert list(tmp_path.iterdir()) == [tmp_path / "run.json"]
    # Byte for byte what printing every summary line on its own gives.
    reports = run_config(load_config(base_config))
    lines = [line for report in reports for line in report.summary_lines()]
    assert stdout == "".join(f"{line}\n" for line in lines) + "all 2 run(s) passed\n"


def test_result_files_are_byte_identical_across_runs_and_threads(tmp_path, base_config):
    dirs = [tmp_path / f"out{i}" for i in range(3)]
    assert main(["run", base_config, "--out-dir", str(dirs[0])]) == 0
    assert main(["run", base_config, "--out-dir", str(dirs[1])]) == 0
    assert main(["run", base_config, "--out-dir", str(dirs[2]), "--threads", "2"]) == 0
    for name in ("round-trip.csv", "round-trip.json", "boost-entangles.csv", "boost-entangles.json"):
        first = (dirs[0] / name).read_bytes()
        assert (dirs[1] / name).read_bytes() == first
        assert (dirs[2] / name).read_bytes() == first


MANY_GROUPS_CONFIG = {
    "schema_version": 1,
    "scenarios": [
        {
            "kind": "twin-velocity",
            "name": "many",
            "params": {"probe_momenta": [0.0, 0.05]},
            "sweep": {"parameter": "boost", "start": 0.001, "stop": 0.05, "count": 150},
        },
        {"kind": "swp", "name": "swp", "params": {}},
        {"kind": "entanglement-demo", "name": "entangle", "params": {"boost": 0.01}},
    ],
}


@pytest.mark.parametrize("fmt", ["csv", "json", "both"])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_emission_across_many_write_groups_matches_writing_report_by_report(
    tmp_path, capsys, threads, fmt
):
    path = _write_config(tmp_path / "many.json", MANY_GROUPS_CONFIG)
    reports = run_config(load_config(path))
    # Two full groups and a partial last one.
    assert 2 * cli_module.WRITE_GROUP_REPORTS < len(reports) < 3 * cli_module.WRITE_GROUP_REPORTS
    expected = tmp_path / "expected"
    expected.mkdir()
    for report in reports:
        if fmt in ("csv", "both"):
            report.write_csv(expected / f"{report.name}.csv", report.csv_text())
        if fmt in ("json", "both"):
            report.write_json(expected / f"{report.name}.json", report.json_text())
    lines = [line for report in reports for line in report.summary_lines()]

    out = tmp_path / "out"
    assert main(["run", path, "--out-dir", str(out), "--threads", threads, "--format", fmt]) == 0
    assert capsys.readouterr().out == "".join(f"{line}\n" for line in lines) + (
        f"all {len(reports)} run(s) passed\n"
    )
    names = sorted(p.name for p in expected.iterdir())
    assert len(names) == len(reports) * (2 if fmt == "both" else 1)
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name


JOBS_CONFIG = {
    "schema_version": 1,
    "scenarios": [
        {"kind": "twin-velocity", "name": "twins",
         "sweep": {"parameter": "boost", "start": 0.01, "stop": 0.03, "count": 3}},
        {"kind": "swp", "name": "clock"},
        {"kind": "entanglement-demo", "name": "entangle",
         "sweep": {"parameter": "boost", "start": 0.01, "stop": 0.02, "count": 2}},
        {"kind": "swp", "name": "ticks",
         "sweep": {"parameter": "boost", "start": 0.05, "stop": 0.1, "count": 2}},
    ],
}


@pytest.mark.parametrize("threads", [1, 2])
def test_the_cli_holds_the_reports_of_one_job_at_a_time(monkeypatch, tmp_path, threads):
    # Every report made is registered; at each file write, after a collection,
    # the reports still alive are those of the job being written and, on a
    # pool, of the `threads` jobs after it that may already be running.
    alive = weakref.WeakSet()

    class Tracked(RunReport):
        __hash__ = object.__hash__

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            alive.add(self)

    path = _write_config(tmp_path / "jobs.json", JOBS_CONFIG)
    jobs = [names for spec in load_config(path).scenarios for names, _, _ in spec.jobs]
    job_of = {name: k for k, names in enumerate(jobs) for name in names}
    held = []

    def recorded(self, path, text):
        gc.collect()
        held.append((job_of[self.name], sorted(report.name for report in alive)))
        RunReport.write_json(self, path, text)

    monkeypatch.setattr(runners_module, "RunReport", Tracked)
    monkeypatch.setattr(Tracked, "write_json", recorded)
    out = tmp_path / "out"
    assert main(["run", path, "--out-dir", str(out), "--threads", str(threads),
                 "--format", "json"]) == 0
    assert [k for k, _ in held] == [job_of[name] for names in jobs for name in names]
    window = 1 if threads == 1 else threads + 1
    for k, names in held:
        assert set(jobs[k]) <= set(names), (k, names)
        assert {job_of[name] for name in names} <= set(range(k, k + window)), (k, names)


def test_timings_stay_out_of_stdout_and_files(tmp_path, base_config, capsys):
    out = tmp_path / "out"
    assert main(["run", base_config, "--out-dir", str(out)]) == 0
    captured = capsys.readouterr()
    assert "elapsed" in captured.err
    assert "elapsed" not in captured.out
    assert "elapsed" not in (out / "round-trip.json").read_text()


def test_csv_carries_the_per_level_columns(tmp_path, base_config):
    out = tmp_path / "out"
    assert main(["run", base_config, "--out-dir", str(out)]) == 0
    header = (out / "round-trip.csv").read_text().splitlines()[0]
    assert header == "level,epsilon,mass,dilation_factor,closed_form_factor,gamma"


def test_sweep_expands_into_numbered_runs(tmp_path):
    config = {
        "schema_version": 1,
        "scenarios": [
            {
                "kind": "twin-momentum",
                "name": "boost-sweep",
                "params": {},
                "sweep": {"parameter": "boost", "start": 0.02, "stop": 0.08, "count": 3},
            }
        ],
    }
    path = _write_config(tmp_path / "sweep.json", config)
    out = tmp_path / "out"
    assert main(["run", path, "--out-dir", str(out), "--format", "json"]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["boost-sweep-0.json", "boost-sweep-1.json", "boost-sweep-2.json"]
    boosts = [
        json.loads((out / name).read_text())["parameters"]["boost"] for name in names
    ]
    assert boosts == [0.02, 0.05, 0.08]


def test_format_flag_limits_output_files(tmp_path, base_config):
    out = tmp_path / "csv-only"
    assert main(["run", base_config, "--out-dir", str(out), "--format", "csv"]) == 0
    suffixes = {p.suffix for p in out.iterdir()}
    assert suffixes == {".csv"}


def test_regime_violation_is_a_config_error(tmp_path, capsys):
    config = {
        "schema_version": 1,
        "scenarios": [
            {
                "kind": "twin-momentum",
                "name": "too-fast",
                "params": {"boost": 0.8},
            }
        ],
    }
    path = _write_config(tmp_path / "fast.json", config)
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert ("config error: scenarios[0].params.boost (run 'too-fast'): MomentumBoost: "
            "squared momentum ratio 0.81 >= kappa_max = 0.1; results are outside the "
            "model's validity regime") in err


def test_epsilon_at_the_guard_limit_is_refused_at_validation(tmp_path, capsys):
    # The engine refuses eps >= eps_max = 0.2 with a RegimeError, so validation
    # must refuse exactly 0.2 too rather than let the run abort later.
    config = {
        "schema_version": 1,
        "scenarios": [
            {
                "kind": "twin-momentum",
                "name": "at-limit",
                "params": {"epsilons": [0.0, 0.2]},
            }
        ],
    }
    path = _write_config(tmp_path / "limit.json", config)
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert ("config error: scenarios[0].params.epsilons (run 'at-limit'): internal energy "
            "ratio 0.2 >= eps_max = 0.2") in err
    assert main(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "params, key, message",
    [({"epsilons": [0.0, 0.1, 0.05]}, "epsilons", "levels must increase strictly"),
     ({"spacing": -0.1}, "spacing", "spacing must be positive, got -0.1"),
     ({"levels": 0}, "levels", "at least two levels are needed, got 0"),
     ({"levels": 1, "spacing": 0.0}, "levels", "at least two levels are needed, got 1"),
     ({"levels": 3, "spacing": 0.1}, "spacing", "internal energy ratio 0.2 >= eps_max")],
    ids=["unsorted-epsilons", "negative-spacing", "no-levels", "one-level-no-spacing",
         "ladder-at-the-guard-limit"],
)
def test_a_spectrum_the_engine_refuses_is_refused_at_validation(
    tmp_path, capsys, params, key, message
):
    # A twin grades the dilation of every level above the ground level, so a
    # one-level ladder is refused at its level count before its spacing is read.
    config = {
        "schema_version": 1,
        "scenarios": [{"kind": "twin-momentum", "name": "bad", "params": params}],
    }
    path = _write_config(tmp_path / "bad.json", config)
    assert main(["validate", path]) == 2
    assert f"scenarios[0].params.{key} (run 'bad'): {message}" in capsys.readouterr().err
    assert main(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["twin-momentum", "twin-velocity", "twin-observer"])
@pytest.mark.parametrize(
    "scenario, path",
    [
        ({"params": {"levels": 2}}, "params.levels"),
        ({"params": {"spacing": 0.15}}, "params.spacing"),
        ({"sweep": {"parameter": "spacing", "start": 0.01, "stop": 0.1, "count": 3}},
         "sweep.parameter"),
        # 1e-10 J on 1e-25 kg is a spacing of about 0.011.
        ({"si": {"internal_energy_joule": 1e-10, "mass_kg": 1e-25}}, "si.internal_energy_joule"),
    ],
)
def test_levels_set_besides_epsilons_are_refused_at_their_json_path(
    tmp_path, capsys, kind, scenario, path
):
    # epsilons fixes every level, so a spacing or level count given as well
    # could only be ignored, while the result files record it.
    scenario = {"kind": kind, "name": "both", **scenario}
    params = scenario["params"] = {"epsilons": [0.0, 0.05], **scenario.get("params", {})}
    config = {"schema_version": 1, "scenarios": [scenario]}
    path_ = _write_config(tmp_path / "both.json", config)
    for command in (["validate"], ["run", "--out-dir", str(tmp_path / "out")]):
        assert main([command[0], path_, *command[1:]]) == 2
        assert (f"scenarios[0].{path}: cannot be set together with params.epsilons"
                in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()
    del params["epsilons"]
    assert main(["validate", _write_config(tmp_path / "alone.json", config)]) == 0


@pytest.mark.parametrize("kind", ["twin-momentum", "twin-velocity", "twin-observer"])
@pytest.mark.parametrize(
    "scenario, path, run",
    [
        ({"params": {"spacing": 1e-300}}, "params.spacing", "tiny"),
        ({"params": {"epsilons": [0.0, 1e-300]}}, "params.epsilons", "tiny"),
        # 1e-30 J on 1e-25 kg is a spacing of about 1.1e-22.
        ({"si": {"internal_energy_joule": 1e-30, "mass_kg": 1e-25}}, "si.internal_energy_joule",
         "tiny"),
        ({"sweep": {"parameter": "spacing", "start": 0.1, "stop": 1e-300, "count": 3}},
         "params.spacing", "tiny-2"),
        ({"params": {"levels": 3, "spacing": 1e-300},
          "sweep": {"parameter": "boost", "start": 0.01, "stop": 0.02, "count": 2}},
         "params.spacing", "tiny-0"),
    ],
    ids=["spacing", "epsilons", "si-energy", "spacing-sweep", "boost-sweep"],
)
def test_a_dilation_factor_outside_its_range_is_refused_at_the_levels(
    tmp_path, capsys, kind, scenario, path, run
):
    # With levels this close, 2 t epsilon_n d_n is lost to rounding in the
    # phases it is read from, and the factor extracted from them leaves
    # (0, 2).  The load measures every round trip, so validate refuses the
    # levels, naming the first run whose factor leaves the range.
    scenario = {"kind": kind, "name": "tiny", **scenario}
    config_path = _write_config(tmp_path / "tiny.json", {"schema_version": 1,
                                                         "scenarios": [scenario]})
    for command in (["validate"], ["run", "--out-dir", str(tmp_path / "out")]):
        assert main([command[0], config_path, *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"config error: scenarios[0].{path} (run {run!r}): extracted dilation factor "
                in captured.err)
        assert "outside (0, 2)" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, params, path",
    [
        ("twin-momentum", {"translation_level": 5}, "scenarios[0].params.translation_level"),
        ("twin-momentum", {"translation_level": -1}, "scenarios[0].params.translation_level"),
        ("entanglement-demo", {"levels": 1}, "scenarios[0].params.levels"),
    ],
    ids=["translation-level-above", "translation-level-negative", "entanglement-one-level"],
)
def test_a_level_choice_the_engine_refuses_is_refused_at_validation(
    tmp_path, capsys, kind, params, path
):
    config = {"schema_version": 1, "scenarios": [{"kind": kind, "name": "bad", "params": params}]}
    config_path = _write_config(tmp_path / "bad.json", config)
    assert main(["validate", config_path]) == 2
    assert path in capsys.readouterr().err
    assert main(["run", config_path, "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("swp", {"dim": 1}, "at least two levels are needed, got 1"),
        ("swp", {"omega0": 0.0}, "omega0 must be positive, got 0.0"),
        ("ion-spectroscopy", {"fock_cutoff": 5}, "fock cutoff must exceed"),
        ("ion-spectroscopy", {"trap_frequency": -1e-5}, "trap frequency must be positive"),
        ("ion-spectroscopy", {"fock_index": -1}, "fock index must be nonnegative, got -1"),
        ("ion-spectroscopy", {"rabi_frequency": 0.0}, "Rabi frequency must be positive"),
        ("ion-spectroscopy", {"transition_energy": -1e-3}, "transition energy must be nonneg"),
        ("ion-spectroscopy", {"transition_energy": 0.2}, "internal energy ratio 0.2 >= eps_max"),
    ],
    ids=["swp-one-level", "swp-zero-omega0", "ion-low-cutoff", "ion-negative-trap",
         "ion-negative-fock-index", "ion-zero-rabi", "ion-negative-energy", "ion-energy-at-limit"],
)
def test_a_clock_the_engine_refuses_is_refused_at_validation(
    tmp_path, capsys, kind, params, message
):
    # Loading the config checks each parameter with the rule its constructor
    # applies, and then builds the clock and the trap that the runners
    # execute; every refusal stops the run before it starts, at the parameter.
    [key] = params
    config = {"schema_version": 1, "scenarios": [{"kind": kind, "name": "bad", "params": params}]}
    config_path = _write_config(tmp_path / "bad.json", config)
    assert main(["validate", config_path]) == 2
    assert f"scenarios[0].params.{key} (run 'bad'): {message}" in capsys.readouterr().err
    assert main(["run", config_path, "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_exclusive_translation_options_are_refused_at_validation(tmp_path, capsys):
    # The sequence builder refuses a translation level together with the
    # state-dependent translation; validation must refuse the pair too.
    params = {"translation_level": 1, "state_dependent_translation": True}
    scenario = {"kind": "twin-momentum", "name": "both", "params": params}
    config = {"schema_version": 1, "scenarios": [scenario]}
    config_path = _write_config(tmp_path / "both.json", config)
    assert main(["validate", config_path]) == 2
    err = capsys.readouterr().err
    assert "scenarios[0].params" in err
    assert "state-dependent" in err
    assert main(["run", config_path, "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["trotter-accel", "impulse-boost"])
def test_a_box_too_small_for_the_packet_is_refused_at_validation(tmp_path, capsys, kind):
    # The grid engines refuse an initial packet with mass at the box edge;
    # validation must refuse it too, naming the box length.
    scenarios = [
        {"kind": "twin-velocity", "name": "fine"},
        {"kind": kind, "name": "small-box", "params": {"box_length": 8}},
    ]
    config = {"schema_version": 1, "scenarios": scenarios}
    config_path = _write_config(tmp_path / "box.json", config)
    assert main(["validate", config_path]) == 2
    err = capsys.readouterr().err
    assert "scenarios[1].params.box_length (run 'small-box')" in err
    assert "box edge" in err
    assert main(["run", config_path, "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, params, key, message",
    [
        ("trotter-accel", {"steps": [64, 32]}, "steps", "strictly increasing"),
        ("trotter-accel", {"steps": [0, 32]}, "steps", "positive"),
        ("trotter-accel", {"steps": []}, "steps", "at least two"),
        ("trotter-accel", {"steps": [64]}, "steps", "at least two"),
        ("trotter-accel", {"sigma": 0.0}, "sigma", "sigma must be positive"),
        ("trotter-accel", {"box_length": -64.0}, "box_length", "box_length must be positive"),
        ("impulse-boost", {"sigma": 0.0}, "sigma", "sigma must be positive"),
        ("impulse-boost", {"sigma": -3.5}, "sigma", "sigma must be positive"),
        ("impulse-boost", {"dt_schedule": [0.001, 0.01]}, "dt_schedule", "strictly decreasing"),
        ("impulse-boost", {"dt_schedule": []}, "dt_schedule", "at least two"),
        ("impulse-boost", {"dt_schedule": [0.01]}, "dt_schedule", "at least two"),
        ("swp", {"window_in_tau": [0.5, 2.5]}, "window_in_tau", "at least 3 tau"),
        ("swp", {"window_in_tau": [0.5]}, "window_in_tau", "(start, stop) pair"),
        ("swp", {"window_in_tau": [0.5, 3.5, 9.0]}, "window_in_tau", "(start, stop) pair"),
        ("swp", {"resolution_in_tau": 0.1}, "resolution_in_tau", "at most tau / 50"),
        ("swp", {"window_in_tau": [0.5, 1e300]}, "window_in_tau",
         "tick scan grid has 6.4e+301 points, more than the limit of 1,000,000"),
        ("swp", {"resolution_in_tau": 1e-300}, "window_in_tau",
         "tick scan grid has 3e+300 points, more than the limit of 1,000,000"),
        ("ion-spectroscopy", {"points": 3}, "points", "at least 5 scan points"),
        ("ion-spectroscopy", {"span_factor": 0.0}, "span_factor", "must be positive"),
        ("ion-spectroscopy", {"span_factor": -4.0}, "span_factor", "must be positive"),
        ("twin-momentum", {"probe_momenta": []}, "probe_momenta", "at least one component"),
        ("twin-velocity", {"probe_momenta": []}, "probe_momenta", "at least one component"),
        ("twin-observer", {"probe_momenta": []}, "probe_momenta", "at least one component"),
        ("twin-velocity", {"duration": -1.0}, "duration", "duration must be positive"),
        ("trotter-accel", {"duration": -2.0}, "duration", "duration must be positive"),
        ("trotter-accel", {"duration": 0.0}, "duration", "duration must be positive"),
        ("impulse-boost", {"grid_size": 0}, "grid_size", "lattice size 0 must be"),
        ("impulse-boost", {"grid_size": 100}, "grid_size", "lattice size 100 must be"),
        ("impulse-boost", {"grid_size": -4}, "grid_size", "lattice size -4 must be"),
        ("twin-velocity", {"duration": 1e9}, "duration",
         "accumulated phase exceeds the mod-2pi safety cap"),
    ],
)
def test_an_input_the_engine_refuses_at_run_time_is_refused_at_validation(
    tmp_path, capsys, kind, params, key, message
):
    # Each plan calls the check its engine entry point makes, so the run is
    # refused before anything runs, at the parameter's JSON path.
    scenarios = [{"kind": "twin-velocity", "name": "fine"},
                 {"kind": kind, "name": "bad", "params": params}]
    config_path = _write_config(tmp_path / "bad.json", {"schema_version": 1,
                                                        "scenarios": scenarios})
    assert main(["validate", config_path]) == 2
    err = capsys.readouterr().err
    assert f"scenarios[1].params.{key} (run 'bad'): " in err
    assert message in err
    assert main(["run", config_path, "--out-dir", str(tmp_path / "out")]) == 2
    assert f"scenarios[1].params.{key} (run 'bad'): " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "params, sweep",
    [({"dim": 15}, None),
     ({"dim": 8}, {"parameter": "omega0", "start": 1.0, "stop": 1.1, "count": 3}),
     ({"dim": 7, "resolution_in_tau": 0.02}, None)],
    ids=["dim-15", "omega0-sweep", "dim-7-limit-resolution"],
)
def test_a_tick_scan_within_its_limits_in_tau_validates_and_runs(tmp_path, capsys, params,
                                                                    sweep):
    # The window and the resolution are compared with their limits in units
    # of tau; their products with tau may round below 3 tau and tau / 50.
    scenario = {"kind": "swp", "name": "scan", "params": params}
    if sweep is not None:
        scenario["sweep"] = sweep
    path = _write_config(tmp_path / "scan.json", {"schema_version": 1, "scenarios": [scenario]})
    runs = 3 if sweep else 1
    assert main(["validate", path]) == 0
    assert f"valid (1 scenario(s), {runs} run(s))" in capsys.readouterr().out
    assert main(["run", path, "--out-dir", str(tmp_path / "out")]) == 0
    assert len(list((tmp_path / "out").iterdir())) == 2 * runs


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 2048), omega0=st.floats(1e-4, 10.0))
def test_the_default_tick_window_is_accepted_for_every_clock(dim, omega0):
    scenario = {"kind": "swp", "name": "scan",
                "params": {"profile": "none", "dim": dim, "omega0": omega0}}
    [spec] = parse_config({"schema_version": 1, "scenarios": [scenario]}).scenarios
    assert spec.jobs[0][1][0]["window_in_tau"] == (0.5, 3.5)


@pytest.mark.parametrize(
    "kind", ["twin-momentum", "twin-velocity", "twin-observer", "trotter-accel"]
)
def test_a_duration_sweep_that_reaches_zero_is_refused_at_the_run(tmp_path, capsys, kind):
    # Each run's duration meets its own rule before the sweep's plan reads
    # it; run 'sweep-1' has duration 0.
    sweep = {"parameter": "duration", "start": 1.0, "stop": -1.0, "count": 3}
    scenarios = [{"kind": kind, "name": "sweep", "sweep": sweep}]
    config_path = _write_config(tmp_path / "sweep.json", {"schema_version": 1,
                                                          "scenarios": scenarios})
    for command in (["validate"], ["run", "--out-dir", str(tmp_path / "out")]):
        assert main([command[0], config_path, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert "scenarios[0].params.duration (run 'sweep-1'): duration must be positive" in err
    assert not (tmp_path / "out").exists()


def test_a_parameter_check_sees_every_run_only_when_the_sweep_varies_its_parameter(
    monkeypatch
):
    # On the benchmark's fanout layout the four plane-wave sweeps vary the
    # boost: each swept boost is checked run by run, while every other
    # checked parameter is checked once per scenario, swept or not.
    calls = {}

    def counted(kind, name, check):
        def wrapper(value):
            calls[kind, name] = calls.get((kind, name), 0) + 1
            return check(value)
        return wrapper

    for kind, record in runners_module.KINDS.items():
        params = {name: replace(spec, check=counted(kind, name, spec.check))
                  if spec.check is not None else spec for name, spec in record.params.items()}
        monkeypatch.setitem(runners_module.KINDS, kind, replace(record, params=params))
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    parse_config(workloads.generate("fanout", 1))
    twins = ("twin-momentum", "twin-velocity", "twin-observer")
    assert calls == {
        **{(kind, name): 1 for kind in twins for name in ("levels", "spacing", "duration")},
        **{(kind, "boost"): workloads.FANOUT_SWEEP_COUNT for kind in (*twins, "entanglement-demo")},
        ("entanglement-demo", "levels"): 1,
        ("entanglement-demo", "spacing"): 1,
        ("entanglement-demo", "momentum"): 1,
        **{("swp", name): len(workloads.FANOUT_SWP_DIMS)
           for name in ("dim", "omega0", "spacing", "window_in_tau", "resolution_in_tau")},
    }


@pytest.mark.parametrize(
    "kind, key, sweep",
    [("twin-momentum", "boost", None), ("twin-velocity", "boost", None),
     ("twin-observer", "boost", None), ("trotter-accel", "acceleration", None),
     ("impulse-boost", "boost", None), ("entanglement-demo", "boost", None),
     ("twin-momentum", "boost", (0.05, -0.05)), ("twin-velocity", "boost", (-0.01, 0.01)),
     ("twin-observer", "boost", (-0.01, 0.01)), ("trotter-accel", "acceleration", (0.02, -0.02)),
     ("impulse-boost", "boost", (0.01, -0.01)), ("entanglement-demo", "boost", (-0.01, 0.01))],
    ids=["momentum", "velocity", "observer", "trotter", "impulse", "entanglement",
         "momentum-sweep", "velocity-sweep", "observer-sweep", "trotter-sweep", "impulse-sweep",
         "entanglement-sweep"],
)
def test_a_run_with_no_drive_is_refused_at_its_parameter(tmp_path, capsys, kind, key, sweep):
    # With no boost no twin dilates, the observer's global phase is 0 and its
    # sign shows nothing, the impulse's two reference boosts are the
    # identity, and the entanglement demo's state stays a product; with no
    # acceleration the product formula is exact and its halving ratios are
    # roundoff.  A sweep through 0 is refused at that run.
    scenario = {"kind": kind, "name": "idle", "params": {key: 0.0}}
    run = "idle"
    if sweep is not None:
        start, stop = sweep
        scenario = {"kind": kind, "name": "idle",
                    "sweep": {"parameter": key, "start": start, "stop": stop, "count": 3}}
        run = "idle-1"
    config_path = _write_config(tmp_path / "idle.json", {"schema_version": 1,
                                                         "scenarios": [scenario]})
    for command in (["validate"], ["run", "--out-dir", str(tmp_path / "out")]):
        assert main([command[0], config_path, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert f"scenarios[0].params.{key} (run {run!r}): must be nonzero" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "profile, sweep",
    [("velocity-classical", None), ("observer-classical", None),
     ("momentum-nonclassical", None), ("momentum-nonclassical", (-0.1, 0.1))],
    ids=["velocity", "observer", "momentum", "momentum-sweep"],
)
def test_an_swp_profile_that_reads_its_boost_refuses_a_zero_one(tmp_path, capsys, profile,
                                                                  sweep):
    # With no boost the profile is the undilated clock: the classical checks
    # pass on a run that measures nothing.  Profile `none` reads no boost.
    scenario = {"kind": "swp", "name": "idle", "params": {"profile": profile, "boost": 0.0}}
    run = "idle"
    if sweep is not None:
        scenario["sweep"] = {"parameter": "boost", "start": sweep[0], "stop": sweep[1],
                             "count": 3}
        run = "idle-1"
    none = {"kind": "swp", "name": "none", "params": {"profile": "none", "boost": 0.0}}
    config_path = _write_config(tmp_path / "idle.json", {"schema_version": 1,
                                                         "scenarios": [none, scenario]})
    assert main(["validate", config_path]) == 2
    assert (f"scenarios[1].params.boost (run {run!r}): must be nonzero"
            in capsys.readouterr().err)
    assert main(["validate", _write_config(tmp_path / "none.json", {
        "schema_version": 1, "scenarios": [none]})]) == 0


@pytest.mark.parametrize(
    "kind, params, sweep, key, run, message",
    [("trotter-accel", {"steps": [32, 48, 96]}, None, "steps", "bad",
      "each step count must be twice the one before"),
     ("impulse-boost", {"dt_schedule": [0.1, 0.05, 0.02]}, None, "dt_schedule", "bad",
      "each duration must be a tenth of the one before"),
     ("swp", {"boost": 1e-8}, None, "boost", "bad", "every level dilates by 1.0 in float"),
     ("swp", {"spacing": 1e-20}, None, "boost", "bad", "every level dilates by 0.995 in float"),
     ("swp", {}, {"parameter": "boost", "start": 0.1, "stop": 1e-8, "count": 2}, "boost",
      "bad-1", "every level dilates by 1.0 in float"),
     ("ion-spectroscopy", {"transition_energy": 1e-20}, None, "transition_energy", "bad",
      "the predicted line shift rounds to 0.0"),
     ("twin-velocity", {"levels": 1}, None, "levels", "bad",
      "at least two levels are needed, got 1"),
     ("twin-momentum", {"epsilons": [0.0]}, None, "epsilons", "bad",
      "at least two levels are needed, got 1"),
     ("impulse-boost", {"levels": 1}, None, "levels", "bad",
      "at least two levels are needed, got 1")],
    ids=["steps-not-doubling", "dt-not-decades", "swp-boost", "swp-spacing", "swp-boost-sweep",
         "ion-shift-rounds-to-zero", "twin-one-level", "twin-one-epsilon",
         "impulse-one-level"],
)
def test_an_input_whose_claim_cannot_be_graded_is_refused_at_validation(
    tmp_path, capsys, kind, params, sweep, key, run, message
):
    # Each runner grades its kind's claim on every run: the halving ratios of
    # a doubling schedule, the shrink per decade of dt, for a
    # momentum-nonclassical clock the residual variance of factors that
    # differ, for an ion with a transition energy the line shift relative to
    # the oracle's, for a twin the dilation of each level above the ground
    # level, and for an impulse the gap between the velocity and momentum
    # boosts, which coincide on one level of mass 1.  An input that the claim
    # cannot be graded on is refused.
    scenario = {"kind": kind, "name": "bad", "params": params}
    if sweep is not None:
        scenario["sweep"] = sweep
    scenarios = [{"kind": "twin-velocity", "name": "fine"}, scenario]
    config_path = _write_config(tmp_path / "bad.json", {"schema_version": 1,
                                                        "scenarios": scenarios})
    for command in (["validate"], ["run", "--out-dir", str(tmp_path / "out")]):
        assert main([command[0], config_path, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert f"scenarios[1].params.{key} (run {run!r}): {message}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", [*sorted(runners_module.KINDS),
                                    *sorted(path.name for path in CONFIGS.glob("*.json"))])
def test_every_run_is_graded_by_at_least_one_check(source):
    # A report with no check counts as passed, so a run graded by nothing
    # would pass whatever it computed.
    if source.endswith(".json"):
        config = load_config(CONFIGS / source)
    else:
        config = parse_config({"schema_version": 1, "scenarios": [{"kind": source}]})
    reports = run_config(config)
    assert reports
    assert [report.name for report in reports if not report.checks] == []


@pytest.mark.parametrize("kind", ["trotter-accel", "impulse-boost"])
@pytest.mark.parametrize("sigma", [1e-200, 0.01, 65.0, 1e200],
                         ids=["underflow", "below-step", "above-box", "overflow"])
def test_a_packet_the_lattice_cannot_hold_is_refused_at_its_width(tmp_path, capsys, kind,
                                                                   sigma):
    # Default lattice: a step of 0.25 or 0.5 in a box of 64.  Past the ends,
    # sigma**2 underflows to a NaN packet or overflows; the refusal comes
    # before numpy computes either, so no RuntimeWarning is raised, whether
    # warnings are errors (as pytest makes them) or only recorded.
    scenario = {"kind": kind, "name": "packet", "params": {"sigma": sigma}}
    config_path = _write_config(tmp_path / "packet.json", {"schema_version": 1,
                                                           "scenarios": [scenario]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["validate", config_path]) == 2
    assert caught == []
    assert main(["run", config_path, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("scenarios[0].params.sigma (run 'packet'): sigma must lie between") == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, si, message",
    [("ion-spectroscopy", {"trap_frequency_hz": 0.0, "mass_kg": 1e-25},
      "trap_frequency_hz (run 'x'): trap frequency must be positive, got 0.0"),
     ("ion-spectroscopy", {"transition_frequency_hz": -4e14, "mass_kg": 1e-25},
      "transition_frequency_hz (run 'x'): transition energy must be nonnegative"),
     ("ion-spectroscopy", {"transition_frequency_hz": 1e-6, "mass_kg": 1e-25},
      "transition_frequency_hz (run 'x'): the predicted line shift rounds to 0.0"),
     ("twin-velocity", {"velocity_m_per_s": 0.0}, "velocity_m_per_s (run 'x'): must be nonzero"),
     ("twin-velocity", {"velocity_m_per_s": 1.5e8},
      "velocity_m_per_s (run 'x'): VelocityBoost: squared momentum ratio"),
     ("twin-velocity", {"internal_energy_joule": -1e-30, "mass_kg": 1e-25},
      "internal_energy_joule (run 'x'): spacing must be positive"),
     ("twin-velocity", {"internal_energy_joule": 3e-9, "mass_kg": 1e-25},
      "internal_energy_joule (run 'x'): internal energy ratio")],
    ids=["trap-frequency", "transition-frequency", "unshifted-line", "zero-velocity",
         "fast-velocity", "negative-energy", "top-level-energy"],
)
def test_a_converted_si_value_is_refused_at_the_si_key(tmp_path, capsys, kind, si, message):
    # The config wrote the si key; the parameter it converts into is not in
    # it.  That holds for a parameter's own rule, a plan's rule and the kicks.
    scenario = {"kind": kind, "name": "x", "si": si}
    config_path = _write_config(tmp_path / "si.json", {"schema_version": 1,
                                                       "scenarios": [scenario]})
    assert main(["validate", config_path]) == 2
    err = capsys.readouterr().err
    assert f"config error: scenarios[0].si.{message}" in err
    assert ".params." not in err


@pytest.mark.parametrize(
    "kind, si, target, expected",
    [("twin-velocity", {"velocity_m_per_s": 2997924.58}, "boost",
      beta_from_velocity(2997924.58)),
     ("twin-velocity", {"internal_energy_joule": 4.5e-10, "mass_kg": 1e-25}, "spacing",
      epsilon_from_energy(4.5e-10, 1e-25)),
     ("ion-spectroscopy", {"transition_frequency_hz": 1.36e22, "mass_kg": 1e-25},
      "transition_energy", epsilon_from_frequency(1.36e22, 1e-25)),
     ("ion-spectroscopy", {"trap_frequency_hz": 1.36e20, "mass_kg": 1e-25}, "trap_frequency",
      epsilon_from_frequency(1.36e20, 1e-25))],
    ids=["velocity", "internal-energy", "transition-frequency", "trap-frequency"],
)
def test_an_si_key_writes_its_units_converter_value_bit_for_bit(kind, si, target, expected):
    [spec] = parse_config({"schema_version": 1,
                           "scenarios": [{"kind": kind, "si": si}]}).scenarios
    assert spec.params[target].hex() == expected.hex()
    assert [runs[0][target].hex() for _, runs, _ in spec.jobs] == [expected.hex()]


def test_a_swept_parameter_is_refused_at_its_own_path_over_an_si_value(tmp_path, capsys):
    # The sweep sets every run's boost, so its refusal is no si value's.
    scenario = {"kind": "twin-velocity", "name": "x", "si": {"velocity_m_per_s": 3e6},
                "sweep": {"parameter": "boost", "start": -0.01, "stop": 0.01, "count": 3}}
    config_path = _write_config(tmp_path / "si.json", {"schema_version": 1,
                                                       "scenarios": [scenario]})
    assert main(["validate", config_path]) == 2
    assert "scenarios[0].params.boost (run 'x-1'): must be nonzero" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")
HUGE = 10 ** 400  # a JSON integer too large for a float
# The rows below whose value is an integer too wide for numpy's 64 bits.
INTEGER_PATHS = {"params.dim", "params.grid_size", "params.fock_index", "params.steps[1]",
                 "params.translation_level", "sweep.count"}


@pytest.mark.parametrize(
    "scenario, path",
    [
        ({"params": {"boost": NAN}}, "params.boost"),
        ({"params": {"duration": -INF}}, "params.duration"),
        ({"params": {"probe_momenta": [0.0, INF]}}, "params.probe_momenta[1]"),
        ({"tolerances": {"identity_residual": INF}}, "tolerances.identity_residual"),
        ({"sweep": {"parameter": "boost", "start": NAN, "stop": 0.01, "count": 3}}, "sweep.start"),
        ({"sweep": {"parameter": "boost", "start": 0.0, "stop": NAN, "count": 3}}, "sweep.stop"),
        ({"si": {"velocity_m_per_s": INF}}, "si.velocity_m_per_s"),
        ({"si": {"velocity_m_per_s": 1e6, "mass_kg": NAN}}, "si.mass_kg"),
        ({"params": {"boost": HUGE}}, "params.boost"),
        ({"params": {"probe_momenta": [0.0, -HUGE]}}, "params.probe_momenta[1]"),
        ({"tolerances": {"identity_residual": HUGE}}, "tolerances.identity_residual"),
        ({"sweep": {"parameter": "boost", "start": HUGE, "stop": 0.01, "count": 3}}, "sweep.start"),
        ({"sweep": {"parameter": "boost", "start": 0.0, "stop": HUGE, "count": 3}}, "sweep.stop"),
        ({"si": {"velocity_m_per_s": HUGE}}, "si.velocity_m_per_s"),
        ({"si": {"velocity_m_per_s": 1e6, "mass_kg": HUGE}}, "si.mass_kg"),
        ({"tolerances": {"identity_residual": -1.0}}, "tolerances.identity_residual"),
        ({"tolerances": {"closed_form_fidelity": -5e-324}}, "tolerances.closed_form_fidelity"),
        ({"tolerances": {"identity_residual": NAN}}, "tolerances.identity_residual"),
        ({"kind": "swp", "params": {"dim": HUGE}}, "params.dim"),
        ({"kind": "impulse-boost", "params": {"grid_size": 2 ** 100}}, "params.grid_size"),
        ({"kind": "ion-spectroscopy", "params": {"fock_index": 10 ** 30}}, "params.fock_index"),
        ({"kind": "trotter-accel", "params": {"steps": [32, 2 ** 63]}}, "params.steps[1]"),
        ({"kind": "twin-momentum", "params": {"translation_level": -2 ** 63 - 1}},
         "params.translation_level"),
        ({"sweep": {"parameter": "boost", "start": 0.0, "stop": 0.01, "count": HUGE}},
         "sweep.count"),
    ],
)
def test_a_non_finite_number_is_refused_at_its_json_path(tmp_path, capsys, scenario, path):
    # JSON's NaN and Infinity parse to floats, and an integer may be too
    # large for one; no parameter, tolerance, sweep bound or si value may
    # hold either.  Every tolerance bounds a quantity that is never
    # negative, so a negative one is refused too.  numpy takes an integer
    # parameter, list entry or sweep count as a 64-bit integer, so a wider
    # one is refused where it stands, not by the engine that gets it.
    negative = [value for value in scenario.get("tolerances", {}).values() if value < 0]
    message = (f"must not be negative, got {negative[0]!r}" if negative
               else "expected a 64-bit integer, got " if path in INTEGER_PATHS
               else "expected a finite number, got ")
    scenarios = [{"kind": "twin-velocity", "name": "fine"},
                 {"kind": "twin-velocity", "name": "bad", **scenario}]
    config_path = _write_config(tmp_path / "bad.json", {"schema_version": 1,
                                                        "scenarios": scenarios})
    for command in (["validate"], ["run", "--out-dir", str(tmp_path / "out")]):
        assert main([command[0], config_path, *command[1:]]) == 2
        assert f"scenarios[1].{path}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "count, message",
    [(10**6 + 1, "expected at most 1000000 runs, got 1000001"),
     (10**12, "expected at most 1000000 runs, got 1000000000000"),
     (1, "expected an integer >= 2, got 1"), ("3", "expected an integer >= 2, got '3'")],
    ids=["million-and-one", "trillion", "one", "string"],
)
def test_a_sweep_count_outside_two_to_a_million_runs_is_refused(tmp_path, capsys, count,
                                                                 message):
    # A sweep's runs are all expanded at load, so a count that numpy could
    # hold would still try to allocate every run; the refusal states the limit.
    sweep = {"parameter": "boost", "start": 0.0, "stop": 0.01, "count": count}
    scenarios = [{"kind": "twin-velocity", "name": "fine"},
                 {"kind": "twin-velocity", "name": "bad", "sweep": sweep}]
    config_path = _write_config(tmp_path / "bad.json", {"schema_version": 1,
                                                        "scenarios": scenarios})
    for command in (["validate"], ["run", "--out-dir", str(tmp_path / "out")]):
        assert main([command[0], config_path, *command[1:]]) == 2
        assert f"scenarios[1].sweep.count: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "mass, message",
    [(0.0, "must be positive, got 0.0"), (-1e-25, "must be positive"),
     ("heavy", "expected a number, got 'heavy'")],
)
def test_an_si_mass_that_converts_to_no_ratio_is_refused_at_its_json_path(
    tmp_path, capsys, mass, message
):
    si = {"transition_frequency_hz": 4e14, "mass_kg": mass}
    scenarios = [{"kind": "ion-spectroscopy", "name": "ion", "si": si}]
    config_path = _write_config(tmp_path / "si.json", {"schema_version": 1,
                                                       "scenarios": scenarios})
    assert main(["validate", config_path]) == 2
    assert f"scenarios[0].si.mass_kg: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name",
    ["../escaped", "ABSOLUTE", ".hidden", "back\\slash", "nul\0byte"],
    ids=["parent-dir", "absolute", "leading-dot", "backslash", "nul"],
)
def test_a_scenario_name_that_is_not_a_plain_file_name_is_refused(tmp_path, capsys, name):
    # Result files are written to --out-dir/<run name>.csv and .json, so a
    # name with a path in it would write outside the output directory.
    if name == "ABSOLUTE":
        name = str(tmp_path / "escaped")
    config = {"schema_version": 1, "scenarios": [{"kind": "twin-velocity", "name": name}]}
    config_path = _write_config(tmp_path / "names.json", config)
    assert main(["validate", config_path]) == 2
    assert "scenarios[0].name" in capsys.readouterr().err
    assert main(["run", config_path, "--out-dir", str(tmp_path / "out")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["names.json"]


@pytest.mark.parametrize(
    "second, path",
    [({"kind": "twin-observer", "name": "a-0"}, "scenarios[1].name"),
     ({"kind": "twin-observer", "name": "a"}, "config.scenarios")],
    ids=["run-name", "scenario-name"],
)
def test_colliding_run_names_are_refused(tmp_path, capsys, second, path):
    # Each run writes <run name>.csv and .json, so a second run of the same
    # name would overwrite the first one's files.
    sweep = {"parameter": "boost", "start": 0.01, "stop": 0.02, "count": 2}
    scenarios = [{"kind": "twin-velocity", "name": "a", "sweep": sweep}, second]
    config_path = _write_config(tmp_path / "names.json", {"schema_version": 1,
                                                          "scenarios": scenarios})
    assert main(["validate", config_path]) == 2
    assert path in capsys.readouterr().err
    assert main(["run", config_path, "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name, sweep",
    [("x" * 251, False), ("é" * 126, False), ("x" * 249, True)],
    ids=["ascii", "multi-byte", "sweep-suffix"],
)
def test_a_run_name_too_long_for_a_file_name_is_refused_before_any_run(
    tmp_path, capsys, name, sweep
):
    # <run>.json must fit in a 255-byte file name; a run refused only when its
    # file is opened would leave the files of the runs written before it.
    second = {"kind": "twin-velocity", "name": name}
    if sweep:
        second["sweep"] = {"parameter": "boost", "start": 0.01, "stop": 0.02, "count": 2}
    scenarios = [{"kind": "twin-velocity", "name": "a"}, second]
    config_path = _write_config(tmp_path / "names.json", {"schema_version": 1,
                                                          "scenarios": scenarios})
    assert main(["validate", config_path]) == 2
    assert "scenarios[1].name: run name" in capsys.readouterr().err
    assert main(["run", config_path, "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_a_scenario_name_with_a_lone_surrogate_is_refused_before_any_run(tmp_path, capsys):
    # JSON's "\ud800" escape decodes to a lone surrogate, which has no UTF-8
    # encoding: a run refused only when its summary is printed or its file
    # opened would stop the invocation after the runs before it.
    scenarios = [{"kind": "twin-velocity", "name": "a"},
                 {"kind": "twin-velocity", "name": "b\ud800"}]
    config_path = _write_config(tmp_path / "names.json", {"schema_version": 1,
                                                          "scenarios": scenarios})
    assert main(["validate", config_path]) == 2
    assert ("scenarios[1].name: must encode as UTF-8 to name result files, got 'b\\ud800'"
            in capsys.readouterr().err)
    assert main(["run", config_path, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name, sweep",
    [("x" * 250, False), ("é" * 125, False), ("x" * 248, True)],
    ids=["ascii", "multi-byte", "sweep-suffix"],
)
def test_a_run_name_whose_file_name_fills_255_bytes_runs(tmp_path, name, sweep):
    scenario = {"kind": "twin-velocity", "name": name}
    if sweep:
        scenario["sweep"] = {"parameter": "boost", "start": 0.01, "stop": 0.02, "count": 2}
    config_path = _write_config(tmp_path / "names.json", {"schema_version": 1,
                                                          "scenarios": [scenario]})
    assert main(["run", config_path, "--out-dir", str(tmp_path / "out")]) == 0
    runs = [f"{name}-0", f"{name}-1"] if sweep else [name]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
        f"{run}.{ext}" for run in runs for ext in ("csv", "json"))


@pytest.mark.parametrize(
    "kind, parameter",
    [(kind, key) for kind, record in runners_module.KINDS.items()
     for key, spec in record.params.items() if spec.sweepable],
)
def test_the_runs_of_a_sweep_get_the_plans_they_would_get_alone(kind, parameter):
    # A per-run kind plans each run of a sweep as a job of its own, which must
    # equal the plan the run gets alone.  A batching kind plans and measures
    # the sweep once: each run's row of the stacked levels and of what was
    # measured, and the probe, must equal what the run gets alone.
    default = runners_module.KINDS[kind].params[parameter].default
    sweep = {"parameter": parameter, "start": default, "stop": 0.5 * default, "count": 2}
    [spec] = parse_config({"schema_version": 1,
                           "scenarios": [{"kind": kind, "sweep": sweep}]}).scenarios
    alone = []
    for _, params in spec.expand():
        scenario = {"kind": kind, "params": {parameter: params[parameter]}}
        [(_, _, plan)] = parse_config({"schema_version": 1, "scenarios": [scenario]}).scenarios[0].jobs
        alone.append(plan)
    if not runners_module.KINDS[kind].batches:
        assert pickle.dumps([plan for _, _, plan in spec.jobs]) == pickle.dumps(alone)
        return
    [(_, _, plan)] = spec.jobs
    spectrum = plan[0]
    rows = np.broadcast_to(spectrum.epsilons, (len(alone), spectrum.dim)).tolist()
    for r, (row, run_plan) in enumerate(zip(rows, alone, strict=True)):
        assert tuple(row) == run_plan[0].epsilons
        assert pickle.dumps(_measured_run(plan, r)) == pickle.dumps(_measured_run(run_plan, 0))


def _measured_run(plan: tuple, r: int) -> dict:
    """Run r's part of a twin or entanglement plan: what its runner grades."""
    if len(plan) == 2:
        _, demo = plan
        return {"entropy_before": demo.entropy_before, "entropy_after": demo.entropy_after[r]}
    _, probe, result = plan
    final = result.final_state
    return {
        **{f"probe_{field}": getattr(probe, field) for field in ("levels", "momenta", "amplitudes")},
        "phases": result.phases[r],
        "final_levels": final.levels,
        "final_amplitudes": final.amplitudes[r],
        "final_momenta": final.momenta[r],
        "level_factors": {n: factor[r] for n, factor in result.level_factors.items()},
        "global_phase": result.global_phase[r],
    }


@pytest.mark.parametrize("parameter", ["boost", "spacing"])
def test_a_sweep_checks_its_translation_options_once_per_scenario(monkeypatch, parameter):
    # The translation options and the kicks of every run are checked on one
    # batched operator chain, whichever parameter the sweep varies, and the
    # sweep is one job with one plan.
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return measured(*args, **kwargs)

    measured = runners_module.run_sequence
    monkeypatch.setattr(runners_module, "run_sequence", counted)
    sweep = {"parameter": parameter, "start": 0.01, "stop": 0.05, "count": 5}
    scenario = {"kind": "twin-momentum", "params": {"translation_level": 1}, "sweep": sweep}
    config = parse_config({"schema_version": 1, "scenarios": [scenario]})
    assert len(calls) == 1
    [spec] = config.scenarios
    assert [names for names, _, _ in spec.jobs] == [[f"twin-momentum-0-{i}" for i in range(5)]]


def test_a_twin_sweep_builds_its_operator_chain_once_at_load(monkeypatch):
    # run_sequence builds the chain; the plan builds no second one of its own.
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return build_sequence(*args, **kwargs)

    build_sequence = sequences_module.build_sequence
    monkeypatch.setattr(sequences_module, "build_sequence", counted)
    monkeypatch.setattr(runners_module, "build_sequence", counted, raising=False)
    sweep = {"parameter": "boost", "start": 0.01, "stop": 0.05, "count": 5}
    scenario = {"kind": "twin-momentum", "params": {"translation_level": 1}, "sweep": sweep}
    parse_config({"schema_version": 1, "scenarios": [scenario]})
    assert len(calls) == 1


@pytest.mark.parametrize(
    "scenario, change",
    [
        # Refused at load: p^2 = 0.1936 >= kappa_max.
        ({"kind": "trotter-accel"}, lambda spec: spec.params.update(acceleration=0.2)),
        ({"kind": "impulse-boost"}, lambda spec: spec.params.update(sigma=2.0)),
        ({"kind": "twin-momentum",
          "sweep": {"parameter": "boost", "start": 0.05, "stop": 0.1, "count": 2}},
         lambda spec: setattr(spec, "sweep", replace(spec.sweep, count=3))),
    ],
    ids=["trotter-accel-params", "impulse-boost-params", "twin-momentum-sweep"],
)
def test_changing_a_loaded_scenario_does_not_change_what_runs(scenario, change):
    # The load keeps each job's runs beside its plan, and run_config runs those.
    def load():
        return parse_config({"schema_version": 1, "scenarios": [scenario]})

    expected = [report.json_text() for report in run_config(load())]
    config = load()
    change(config.scenarios[0])
    assert [report.json_text() for report in run_config(config)] == expected


@pytest.mark.parametrize("config_name", ["full-suite", "boost-sweep"])
def test_one_loaded_config_runs_twice_with_the_same_bytes(tmp_path, config_name):
    # Plans are built once at load and shared by every job and worker
    # thread; executing them must leave them as they were.
    config = load_config(str(CONFIGS / f"{config_name}.json"))
    jobs = pickle.dumps([spec.jobs for spec in config.scenarios])
    rendered = []
    for threads in (1, 2):
        out = tmp_path / f"threads-{threads}"
        out.mkdir()
        reports = run_config(config, threads=threads)
        for report in reports:
            report.write_json(out / f"{report.name}.json", report.json_text())
            report.write_csv(out / f"{report.name}.csv", report.csv_text())
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(files) == 2 * sum(len(spec.expand()) for spec in config.scenarios)
        rendered.append(([line for r in reports for line in r.summary_lines()], files))
    assert rendered[0] == rendered[1]
    assert pickle.dumps([spec.jobs for spec in config.scenarios]) == jobs


def test_unknown_kind_is_a_config_error(tmp_path, capsys):
    config = {
        "schema_version": 1,
        "scenarios": [{"kind": "warp-drive", "name": "x", "params": {}}],
    }
    path = _write_config(tmp_path / "bad.json", config)
    assert main(["run", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_an_integer_of_more_digits_than_python_converts_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "digits.json"
    path.write_text('{"schema_version": 1, "scenarios": [{"kind": "twin-velocity", '
                    '"params": {"boost": 1' + "0" * 5000 + "}}]}")
    # Python's limit on integer digits refuses it while the JSON is read.
    assert main(["validate", str(path)]) == 2
    assert "config error: " in capsys.readouterr().err


@pytest.mark.parametrize("version", [True, 1.0, "1", 2, None])
def test_a_schema_version_other_than_the_integer_1_is_refused(tmp_path, capsys, version):
    # JSON true and 1.0 compare equal to 1 in Python; only the integer is version 1.
    path = _write_config(tmp_path / "version.json", {**BASE_CONFIG, "schema_version": version})
    assert main(["validate", path]) == 2
    assert f"config.schema_version: expected 1, got {version!r}" in capsys.readouterr().err


def test_missing_file_is_a_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_the_run_command_has_no_tolerance_flag(base_config, capsys):
    # A config's tolerances block is the one way to set a tolerance, so
    # rerunning the config reproduces every verdict of the run.
    with pytest.raises(SystemExit) as exited:
        main(["run", base_config, "--tolerance", "identity_residual=1"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --tolerance identity_residual=1" in capsys.readouterr().err


@pytest.mark.parametrize("out, blocker", [("taken", "taken"), ("taken/sub", "taken"),
                                         ("taken/sub/deeper", "taken"), ("", "")])
def test_an_out_dir_that_cannot_be_a_directory_is_refused_before_any_run(
        monkeypatch, base_config, tmp_path, capsys, out, blocker):
    # A file where the directory or one of its parents would go: the runs
    # would otherwise fail only when the first result file is written.
    def never(*args, **kwargs):
        raise AssertionError("run_config was called")

    monkeypatch.setattr(cli_module, "run_config", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("a file\n")
    assert main(["run", base_config, "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert f"config error: --out-dir {out!r}: {blocker!r} is not a directory" in err
    assert (tmp_path / "taken").read_text() == "a file\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--threads", "0"], "--threads must be at least 1, got 0"),
        (["--threads", "-3"], "--threads must be at least 1, got -3"),
        (["--out-dir", "taken/sub"], "--out-dir 'taken/sub': 'taken' is not a directory"),
    ],
)
def test_a_bad_run_flag_is_refused_before_the_config_is_loaded(
        monkeypatch, base_config, tmp_path, capsys, flags, message):
    # The load measures every twin and entanglement job; a bad flag needs none of it.
    def never(*args, **kwargs):
        raise AssertionError("load_config was called")

    monkeypatch.setattr(cli_module, "load_config", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("a file\n")
    assert main(["run", base_config, *flags]) == 2
    assert f"config error: {message}\n" in capsys.readouterr().err


def test_a_missing_out_dir_is_made_with_its_parents_at_the_first_write(
        monkeypatch, base_config, tmp_path):
    out = tmp_path / "new" / "deeper"
    made = []

    def checked(*args, emit, **kwargs):
        def recorded(outcome):
            made.append(out.exists())
            emit(outcome)
            made.append(out.exists())
        return run_config(*args, emit=recorded, **kwargs)

    monkeypatch.setattr(cli_module, "run_config", checked)
    assert main(["run", base_config, "--out-dir", str(out)]) == 0
    assert made == [False, True, True, True]
    assert sorted(p.name for p in out.iterdir()) == [
        "boost-entangles.csv", "boost-entangles.json", "round-trip.csv", "round-trip.json"]


def test_a_zero_tolerance_is_allowed():
    scenario = {"kind": "twin-velocity",
                "tolerances": {"identity_residual": 0.0, "closed_form_fidelity": -0.0}}
    [spec] = parse_config({"schema_version": 1, "scenarios": [scenario]}).scenarios
    assert spec.tolerances == {"identity_residual": 0.0, "closed_form_fidelity": 0.0}


def test_tolerance_override_can_force_a_failure(tmp_path, capsys):
    # The closed-form fidelity deviation is finite (~1e-18), so an absurdly
    # tight tolerance in the config must flip the run to a failing check, exit code 1.
    scenarios = [{**scenario, "tolerances": {"closed_form_fidelity": 1e-30}}
                 if scenario["kind"] == "twin-momentum" else scenario
                 for scenario in BASE_CONFIG["scenarios"]]
    config_path = _write_config(tmp_path / "tight.json", {**BASE_CONFIG, "scenarios": scenarios})
    code = main(["run", config_path])
    assert code == 1
    stdout = capsys.readouterr().out
    assert "FAIL" in stdout
    assert "had failing checks" in stdout


def test_a_run_far_from_its_closed_form_is_graded_by_the_runner_alone(tmp_path, capsys):
    # The engine measures the phases and the oracles predict them; the one
    # verdict is the runner's identity_residual check, which this long run fails.
    spectrum = ladder_spectrum(2, 0.1)
    result = run_sequence(SequenceKind.MOMENTUM, spectrum, 0.1, 1e5)
    probe = default_probe(spectrum)
    closed = closed_form_phase(SequenceKind.MOMENTUM, spectrum, 0.1, 1e5, probe.levels,
                               probe.momenta)
    residual = float(np.max(np.abs(np.exp(1j * (result.phases - closed)) - 1.0)))
    assert residual == pytest.approx(3.64e-12, rel=1e-2)
    scenario = {"kind": "twin-momentum", "name": "long", "params": {"duration": 100000.0}}
    path = _write_config(tmp_path / "long.json", {"schema_version": 1, "scenarios": [scenario]})
    assert main(["run", path]) == 1
    assert (f"  FAIL identity_residual: value={residual!r} tolerance=1e-12"
            in capsys.readouterr().out)


def test_a_job_of_a_per_run_kind_returns_one_report_per_run_in_order():
    sweep = {"parameter": "boost", "start": 0.05, "stop": 0.1, "count": 2}
    config = parse_config({"schema_version": 1, "scenarios": [
        {"kind": "swp", "name": "s", "sweep": sweep}]})
    # Each run of an swp sweep is a job of its own, run from its own plan.
    [spec] = config.scenarios
    assert [names for names, _, _ in spec.jobs] == [["s-0"], ["s-1"]]
    reports = [report for names, runs, plan in spec.jobs
               for report in run_scenario("swp", names, runs, plan, spec.tolerances)]
    assert [report.name for report in reports] == ["s-0", "s-1"]
    assert [report.rows for report in reports] == [report.rows for report in run_config(config)]
    assert reports[0].rows != reports[1].rows


DRIFT_CONFIG = {
    "schema_version": 1,
    "scenarios": [
        {"kind": "twin-velocity", "name": "fine"},
        {
            "kind": "trotter-accel",
            "name": "drifts-out",
            "params": {"acceleration": 0.0002, "duration": 400.0, "grid_size": 128},
        },
    ],
}


def test_a_packet_that_drifts_to_the_edge_fails_edge_mass_and_every_run_is_written(
        tmp_path, capsys):
    # The accelerated packet starts well inside the box, so the config is
    # valid, but it spreads to the box edge during the evolution.  That is a
    # failed check, graded like any other: every run's files are written.
    path = _write_config(tmp_path / "drift.json", DRIFT_CONFIG)
    assert main(["validate", path]) == 0
    capsys.readouterr()
    files = {}
    for threads in (1, 2):
        out = tmp_path / f"results-{threads}"
        assert main(["run", path, "--out-dir", str(out), "--threads", str(threads)]) == 1
        stdout, err = capsys.readouterr()
        assert "engine error" not in err
        assert "1 of 2 run(s) had failing checks" in stdout
        files[threads] = {f.name: f.read_bytes() for f in out.iterdir()}
    assert sorted(files[1]) == ["drifts-out.csv", "drifts-out.json", "fine.csv", "fine.json"]
    assert files[1] == files[2]
    fine, drift = (json.loads(files[1][f"{name}.json"]) for name in ("fine", "drifts-out"))
    assert fine["passed"] and not drift["passed"]
    [edge] = [check for check in drift["checks"] if check["name"] == "edge_mass"]
    assert not edge["passed"]
    assert edge["value"] == pytest.approx(3.3e-2, rel=1e-2)
    assert edge["tolerance"] == 1e-12


def test_an_unexpected_engine_exception_exits_3_and_writes_only_the_other_runs(
        monkeypatch, tmp_path, capsys):
    # Exit 3 is left for exceptions no check anticipates.  The job that raised
    # writes no file, every other job is run and written, and stderr names the
    # run that raised, at every thread count.
    def broken(*args, **kwargs):
        raise RuntimeError("broken engine")

    monkeypatch.setattr(runners_module, "accelerated_frame_trotter", broken)
    after = {"kind": "entanglement-demo", "name": "after"}
    config = {**DRIFT_CONFIG, "scenarios": [*DRIFT_CONFIG["scenarios"], after]}
    path = _write_config(tmp_path / "drift.json", config)
    files, stdouts = {}, {}
    for threads in (1, 2):
        out = tmp_path / f"results-{threads}"
        assert main(["run", path, "--out-dir", str(out), "--threads", str(threads)]) == 3
        stdouts[threads], err = capsys.readouterr()
        assert [line for line in err.splitlines() if not line.startswith("elapsed: ")] == [
            "engine error: RuntimeError: broken engine (run 'drifts-out')"]
        files[threads] = {f.name: f.read_bytes() for f in out.iterdir()}
    assert sorted(files[1]) == ["after.csv", "after.json", "fine.csv", "fine.json"]
    assert files[1] == files[2]
    assert stdouts[1] == stdouts[2]
    assert stdouts[1].endswith("all 2 run(s) passed\n"
                               "1 job(s) raised an engine error and wrote no files\n")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_every_job_that_raises_has_its_own_engine_error_line_in_config_order(
        monkeypatch, tmp_path, capsys, threads):
    def broken(state, boost, **kwargs):
        raise RuntimeError(f"broken at boost {boost!r}")

    monkeypatch.setattr(runners_module, "impulsive_boost_limit", broken)
    sweep = {"parameter": "boost", "start": 0.01, "stop": 0.02, "count": 3}
    path = _write_config(tmp_path / "jobs.json", {"schema_version": 1, "scenarios": [
        {"kind": "impulse-boost", "name": "kick", "sweep": sweep},
        {"kind": "twin-velocity", "name": "fine"},
        {"kind": "impulse-boost", "name": "last", "params": {"boost": 0.03}}]})
    out = tmp_path / "out"
    assert main(["run", path, "--out-dir", str(out), "--threads", threads]) == 3
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if not line.startswith("elapsed: ")] == [
        "engine error: RuntimeError: broken at boost 0.01 (run 'kick-0')",
        "engine error: RuntimeError: broken at boost 0.015 (run 'kick-1')",
        "engine error: RuntimeError: broken at boost 0.02 (run 'kick-2')",
        "engine error: RuntimeError: broken at boost 0.03 (run 'last')"]
    assert sorted(p.name for p in out.iterdir()) == ["fine.csv", "fine.json"]


@pytest.mark.parametrize(("momentum", "first"), [(0.31, "strict-0"), (0.3, "strict-2")])
def test_a_batch_that_leaves_the_regime_is_refused_at_its_first_offending_run(
    tmp_path, capsys, momentum, first
):
    # A probe momentum of 0.31 leaves the regime at the first kick in every
    # run; 0.3 only in runs 2 and 3 (p^2 = 0.1003 and 0.1024).  Validation
    # checks the kicks of all runs as one batch and names the first such run
    # in config order.
    scenario = {
        "kind": "twin-momentum",
        "name": "strict",
        "params": {"probe_momenta": [0.0, momentum]},
        "sweep": {"parameter": "boost", "start": 0.01, "stop": 0.02, "count": 4},
    }
    path = _write_config(tmp_path / "strict.json", {"schema_version": 1, "scenarios": [scenario]})
    for command in (["validate"], ["run", "--out-dir", str(tmp_path / "out")]):
        assert main([command[0], path, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert (f"scenarios[0].params.boost (run {first!r}): MomentumBoost: "
                "squared momentum ratio") in err
        assert "outside the model's validity regime" in err
    assert not (tmp_path / "out").exists()


def test_validate_reports_scenario_and_run_counts(tmp_path, capsys):
    config = {
        "schema_version": 1,
        "scenarios": [
            {
                "kind": "twin-velocity",
                "name": "sweep",
                "params": {},
                "sweep": {"parameter": "boost", "start": 0.005, "stop": 0.02, "count": 4},
            }
        ],
    }
    path = _write_config(tmp_path / "cfg.json", config)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "valid" in out
    assert "1 scenario(s)" in out
    assert "4 run(s)" in out


def test_kinds_lists_every_scenario_kind(capsys):
    assert main(["kinds"]) == 0
    out = capsys.readouterr().out
    # Every kind's defaults, sweepable flags and tolerances, byte for byte.
    assert out.encode() == (DATA / "kinds.json").read_bytes()
    listing = json.loads(out)
    assert set(listing) == {
        "twin-momentum",
        "twin-velocity",
        "twin-observer",
        "swp",
        "ion-spectroscopy",
        "trotter-accel",
        "impulse-boost",
        "entanglement-demo",
    }
    assert listing["twin-momentum"]["parameters"]["boost"]["sweepable"] is True
    assert "identity_residual" in listing["twin-momentum"]["tolerances"]


def test_module_entry_point_runs(tmp_path):
    config = _write_config(tmp_path / "cfg.json", BASE_CONFIG)
    proc = subprocess.run(
        [sys.executable, "-m", "qclocksim", "run", config],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "all 2 run(s) passed" in proc.stdout
    assert "elapsed" in proc.stderr


def test_full_suite_values_match_the_frozen_fixture():
    config = load_config(str(CONFIGS / "full-suite.json"))
    checked = set()
    for spec in config.scenarios:
        if spec.name not in FROZEN_FULL_SUITE:
            continue
        column, expected = FROZEN_FULL_SUITE[spec.name]
        [(names, runs, plan)] = spec.jobs
        [report] = run_scenario(spec.kind, names, runs, plan, spec.tolerances)
        np.testing.assert_allclose([row[column] for row in report.rows], expected, rtol=1e-12)
        checked.add(spec.name)
    assert checked == set(FROZEN_FULL_SUITE)


def _cpus():
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(_cpus()) < 2,
    reason="needs sched_setaffinity and at least 2 CPUs",
)
def test_result_files_do_not_depend_on_the_cpu_count(tmp_path):
    one_cpu = {min(_cpus())}
    outs = {"one": tmp_path / "one-cpu", "all": tmp_path / "all-cpus"}
    procs = {
        label: subprocess.Popen(
            [sys.executable, "-m", "qclocksim", "run", str(CONFIGS / "full-suite.json"),
             "--out-dir", str(out), "--format", "both"],
            env=_env_without_blas_settings(),
            preexec_fn=(lambda: os.sched_setaffinity(0, one_cpu)) if label == "one" else None,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        for label, out in outs.items()
    }
    for proc in procs.values():
        _, stderr = proc.communicate()
        assert proc.returncode == 0, stderr.decode()
    names = sorted(path.name for path in outs["all"].iterdir())
    assert names == sorted(path.name for path in outs["one"].iterdir())
    assert len(names) == 20
    differing = [n for n in names if (outs["one"] / n).read_bytes() != (outs["all"] / n).read_bytes()]
    assert differing == []


@pytest.mark.parametrize(("user_setting", "expected"), [(None, "1"), ("3", "3")])
def test_import_sets_one_blas_thread_unless_the_user_set_a_count(user_setting, expected):
    extra = {} if user_setting is None else {"OPENBLAS_NUM_THREADS": user_setting}
    proc = subprocess.run(
        [sys.executable, "-c", "import os, qclocksim; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        env=_env_without_blas_settings(**extra),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == expected


def test_every_exported_name_resolves():
    missing = [name for name in qclocksim.__all__ if not hasattr(qclocksim, name)]
    assert missing == []


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_a_batched_sweep_is_one_job_at_every_thread_count(monkeypatch, threads):
    # A twin or entanglement sweep runs as one batch whatever the thread
    # count; each run of any other kind is a job of its own.
    calls = []
    run_scenario = runners_module.run_scenario

    def counted(kind, name, *args, **kwargs):
        calls.append((kind, name))
        return run_scenario(kind, name, *args, **kwargs)

    monkeypatch.setattr(runners_module, "run_scenario", counted)
    sweep = {"parameter": "boost", "start": 0.005, "stop": 0.01}
    config = parse_config({"schema_version": 1, "scenarios": [
        {"kind": "twin-velocity", "name": "t", "sweep": {**sweep, "count": 7}},
        {"kind": "entanglement-demo", "name": "e", "sweep": {**sweep, "count": 5}},
        {"kind": "swp", "name": "s", "sweep": {**sweep, "count": 2}},
    ]})
    assert len(run_config(config, threads=threads)) == 14
    assert sorted(calls, key=repr) == [
        ("entanglement-demo", [f"e-{i}" for i in range(5)]),
        ("swp", ["s-0"]),
        ("swp", ["s-1"]),
        ("twin-velocity", [f"t-{i}" for i in range(7)]),
    ]


def test_public_names_match_the_pinned_list():
    # A name added to or removed from the public API changes this file too,
    # so the change shows up in review.
    assert qclocksim.__all__ == json.loads((DATA / "public_api.json").read_text())


def _assert_frozen_digests(tmp_path, config, threads):
    expected = json.loads((DATA / f"{config.replace('-', '_')}_digests.json").read_text())
    out = tmp_path / "out"
    assert main(["run", str(CONFIGS / f"{config}.json"), "--out-dir", str(out),
                 "--threads", threads]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == expected


@pytest.mark.parametrize("threads", ["1", "3"])
def test_boost_sweep_files_match_the_frozen_digests(tmp_path, threads):
    # SHA-256 of every result file configs/boost-sweep.json wrote before its
    # sweeps ran as batches.  At --threads 3 its two 7-run sweeps share the pool.
    _assert_frozen_digests(tmp_path, "boost-sweep", threads)


@pytest.mark.parametrize("threads", ["1", "3"])
def test_swp_large_study_files_match_the_frozen_digests(tmp_path, threads):
    # SHA-256 of every result file configs/swp-large-study.json wrote while
    # the SWP scan still read one time per call and the writers used text
    # file objects.
    _assert_frozen_digests(tmp_path, "swp-large-study", threads)
