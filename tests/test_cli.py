"""Command-line interface: exit codes, file output, and determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qclocksim
from qclocksim import load_config, run_config, run_scenario
from qclocksim.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DATA = Path(__file__).resolve().parent / "data"
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
    assert "config error" in err
    assert "RegimeGuard" in err


def test_epsilon_at_the_guard_limit_is_refused_at_validation(tmp_path, capsys):
    # The engine's RegimeGuard refuses eps >= eps_max = 0.2, so validation
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
    assert "config error" in err
    assert "scenarios[0] (run 'at-limit')" in err
    assert "eps_max" in err
    assert main(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "params",
    [{"epsilons": [0.0, 0.1, 0.05]}, {"spacing": -0.1}, {"levels": 0}],
    ids=["unsorted-epsilons", "negative-spacing", "no-levels"],
)
def test_a_spectrum_the_engine_refuses_is_refused_at_validation(tmp_path, capsys, params):
    config = {
        "schema_version": 1,
        "scenarios": [{"kind": "twin-momentum", "name": "bad", "params": params}],
    }
    path = _write_config(tmp_path / "bad.json", config)
    assert main(["validate", path]) == 2
    assert "scenarios[0] (run 'bad')" in capsys.readouterr().err
    assert main(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
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
        ("swp", {"dim": 1}, "at least two levels"),
        ("swp", {"omega0": 0.0}, "omega0 must be positive"),
        ("ion-spectroscopy", {"fock_cutoff": 5}, "fock cutoff"),
        ("ion-spectroscopy", {"trap_frequency": -1e-5}, "trap frequency must be positive"),
    ],
    ids=["swp-one-level", "swp-zero-omega0", "ion-low-cutoff", "ion-negative-trap"],
)
def test_a_clock_the_engine_refuses_is_refused_at_validation(
    tmp_path, capsys, kind, params, message
):
    # The runners build these with config.swp_clock and config.trap_model;
    # validation builds them too, so the run never starts.
    config = {"schema_version": 1, "scenarios": [{"kind": kind, "name": "bad", "params": params}]}
    config_path = _write_config(tmp_path / "bad.json", config)
    assert main(["validate", config_path]) == 2
    err = capsys.readouterr().err
    assert "scenarios[0] (run 'bad')" in err
    assert message in err
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


def test_missing_file_is_a_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_tolerance_key_is_a_config_error(base_config, capsys):
    assert main(["run", base_config, "--tolerance", "no_such_check=1"]) == 2
    assert "config error" in capsys.readouterr().err


def test_tolerance_override_can_force_a_failure(base_config, capsys):
    # The closed-form fidelity deviation is finite (~1e-18), so an absurdly
    # tight override must flip the run to a failing check, exit code 1.
    code = main(["run", base_config, "--tolerance", "closed_form_fidelity=1e-30"])
    assert code == 1
    stdout = capsys.readouterr().out
    assert "FAIL" in stdout
    assert "had failing checks" in stdout


def test_runtime_failure_maps_to_engine_exit_code(tmp_path, capsys):
    # Window span below three ticks passes config validation (it is just a
    # pair of numbers) but the tick finder rejects it at runtime.
    config = {
        "schema_version": 1,
        "scenarios": [
            {
                "kind": "swp",
                "name": "narrow-window",
                "params": {"window_in_tau": [0.5, 2.5]},
            }
        ],
    }
    path = _write_config(tmp_path / "narrow.json", config)
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert "engine error: ValueError: tick window must span at least 3 resolution times" in err
    assert "(run 'narrow-window')" in err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_runtime_failure_of_a_batch_names_its_first_and_last_run(tmp_path, capsys, threads):
    # Probe momenta of 0.31 leave the regime at the first kick; --strict-regime
    # makes that an engine error of the whole sweep batch, or of each chunk.
    scenario = {
        "kind": "twin-momentum",
        "name": "strict",
        "params": {"probe_momenta": [0.0, 0.31]},
        "sweep": {"parameter": "boost", "start": 0.01, "stop": 0.02, "count": 4},
    }
    path = _write_config(tmp_path / "strict.json", {"schema_version": 1, "scenarios": [scenario]})
    assert main(["run", path, "--strict-regime", "--threads", threads]) == 3
    err = capsys.readouterr().err
    assert "engine error: RegimeError: " in err
    assert ("(runs 'strict-0' to 'strict-3')" if threads == "1"
            else "(runs 'strict-0' to 'strict-1')") in err


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
    listing = json.loads(capsys.readouterr().out)
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
        [(run_name, params)] = spec.expand()
        report = run_scenario(spec.kind, run_name, params, spec.tolerances)
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
    # sweeps ran as batches.  Two 7-run sweeps split 3 ways give uneven chunks.
    _assert_frozen_digests(tmp_path, "boost-sweep", threads)


@pytest.mark.parametrize("threads", ["1", "3"])
def test_swp_large_study_files_match_the_frozen_digests(tmp_path, threads):
    # SHA-256 of every result file configs/swp-large-study.json wrote while
    # the SWP scan still read one time per call and the writers used text
    # file objects.
    _assert_frozen_digests(tmp_path, "swp-large-study", threads)
