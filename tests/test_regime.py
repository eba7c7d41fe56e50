"""One regime policy: validation refuses exactly the kicks the engine refuses.

kappa_max bounds the squared momentum a run starts at and each kick leaves
it at.  The config loader checks every run's kicks with the engine's own
check_kicks, on the momenta the engine's own rule lists (a twin's chain, a
grid engine's impulse_kicks or trotter_kicks), so a run it accepts never
leaves the regime, and a run the engine would stop is refused at load,
naming the first such run.
"""

import json
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qclocksim import (
    ConfigError,
    SequenceKind,
    accelerated_frame_trotter,
    default_probe,
    entanglement_frame_demo,
    gaussian_grid_state,
    gridops,
    impulsive_boost_limit,
    ladder_spectrum,
    parse_config,
    run_sequence,
)
from qclocksim.cli import main
from qclocksim.config import Sweep
from qclocksim.errors import RegimeError
from qclocksim.operators import MomentumBoost, trace_chain
from qclocksim.units import KAPPA_MAX

EDGE = math.sqrt(KAPPA_MAX)  # the |p| at which p^2 reaches kappa_max
HEAVY = 1.1  # M_1 of the default two-level spectrum, spacing 0.1
TWINS = {
    "twin-momentum": SequenceKind.MOMENTUM,
    "twin-velocity": SequenceKind.VELOCITY_CLOCK,
    "twin-observer": SequenceKind.VELOCITY_OBSERVER,
}


def _write(tmp_path, *scenarios) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema_version": 1, "scenarios": list(scenarios)}))
    return str(path)


def test_a_boost_whose_kicks_stay_in_the_regime_validates_and_runs(tmp_path, capsys):
    # From rest, a momentum boost of 0.2 reaches p^2 = 0.04 at most.
    scenario = {"kind": "twin-momentum", "name": "b",
                "params": {"boost": 0.2, "probe_momenta": [0.0]}}
    path = _write(tmp_path, scenario)
    assert main(["validate", path]) == 0
    assert main(["run", path, "--out-dir", str(tmp_path / "out")]) == 0
    assert "all 1 run(s) passed" in capsys.readouterr().out


def test_a_probe_that_a_small_boost_kicks_out_of_the_regime_is_refused(tmp_path, capsys):
    # |boost| = 0.1 is small, but the probe component at 0.3 reaches
    # p^2 = 0.16 at the first kick.
    scenario = {"kind": "twin-momentum", "name": "b",
                "params": {"boost": 0.1, "probe_momenta": [0.0, 0.3]}}
    path = _write(tmp_path, scenario)
    for command in (["validate"], ["run", "--out-dir", str(tmp_path / "out")]):
        assert main([command[0], path, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert ("scenarios[0].params.boost (run 'b'): MomentumBoost: "
                "squared momentum ratio 0.16 >= kappa_max") in err
    assert not (tmp_path / "out").exists()


def test_a_spacing_sweep_is_checked_on_each_run_s_own_masses(tmp_path, capsys):
    # A velocity boost kicks branch 1 to 0.29 + (1 + spacing) 0.025, which
    # reaches sqrt(kappa_max) at spacing 0.0491: runs 2 to 4 of this sweep
    # leave the regime, and only through their heavier branch.
    scenario = {"kind": "twin-velocity", "name": "x",
                "params": {"boost": 0.025, "probe_momenta": [0.0, 0.29]},
                "sweep": {"parameter": "spacing", "start": 0.01, "stop": 0.09, "count": 5}}
    assert main(["validate", _write(tmp_path, scenario)]) == 2
    assert ("scenarios[0].params.boost (run 'x-2'): VelocityBoost: squared momentum ratio "
            in capsys.readouterr().err)
    scenario["sweep"]["stop"] = 0.04
    assert main(["validate", _write(tmp_path, scenario)]) == 0


def test_a_per_run_sweep_is_refused_at_its_first_run_out_of_the_regime(tmp_path, capsys):
    # Each swp run is planned, its kick included, before the next run: run
    # 's-0' kicks to p^2 = 0.25 before 's-1' (boost 0) could be refused.
    scenario = {"kind": "swp", "name": "s",
                "sweep": {"parameter": "boost", "start": 0.5, "stop": -0.5, "count": 3}}
    path = _write(tmp_path, scenario)
    for command in (["validate"], ["run", "--out-dir", str(tmp_path / "out")]):
        assert main([command[0], path, *command[1:]]) == 2
        assert ("scenarios[0].params.boost (run 's-0'): boost: squared momentum ratio 0.25 "
                ">= kappa_max") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_sweep_is_refused_at_its_first_run_past_the_phase_cap(tmp_path, capsys):
    # The plan traces the sweep's chains as one batch and holds their phases
    # to the cap run_sequence holds them to; durations 5.0e8 and 1e9 pass it.
    scenario = {"kind": "twin-velocity", "name": "t",
                "sweep": {"parameter": "duration", "start": 1e5, "stop": 1e9, "count": 3}}
    assert main(["validate", _write(tmp_path, scenario)]) == 2
    assert ("scenarios[0].params.duration (run 't-1'): accumulated phase exceeds the mod-2pi "
            "safety cap") in capsys.readouterr().err
    spectrum = ladder_spectrum(2, 0.1)
    run_sequence(SequenceKind.VELOCITY_CLOCK, spectrum, 0.01, 1e5)
    with pytest.raises(RegimeError, match="safety cap") as exc:
        run_sequence(SequenceKind.VELOCITY_CLOCK, spectrum, np.array([0.01] * 3),
                     np.array([1e5, 5.00005e8, 1e9]))
    assert exc.value.run == 1


def _kicked_to(kind: str, p: float) -> tuple:
    """Parameters whose largest kick reaches |p| on the default two-level
    spectrum, and the parameter a refusal names."""
    return {
        "twin-momentum": ({"boost": p, "probe_momenta": [0.0]}, "boost"),
        "twin-velocity": ({"boost": p / HEAVY, "probe_momenta": [0.0]}, "boost"),
        "twin-observer": ({"boost": p / HEAVY, "probe_momenta": [0.0]}, "boost"),
        "entanglement-demo": ({"boost": p / HEAVY, "momentum": 0.0}, "boost"),
        "swp": ({"boost": p}, "boost"),
        "impulse-boost": ({"boost": p / HEAVY}, "boost"),
        # Acceleration 0.02 for duration 2 moves branch 1 by -0.044.
        "trotter-accel": ({"momentum": HEAVY * 0.04 - p}, "acceleration"),
    }[kind]


KICKING_KINDS = ["twin-momentum", "twin-velocity", "twin-observer", "entanglement-demo", "swp",
                 "impulse-boost", "trotter-accel"]


@pytest.mark.parametrize("kind", KICKING_KINDS)
def test_a_kick_just_inside_the_regime_validates_and_runs(tmp_path, kind):
    params, _ = _kicked_to(kind, EDGE * (1.0 - 1e-6))
    path = _write(tmp_path, {"kind": kind, "name": "inside", "params": params})
    assert main(["validate", path]) == 0
    assert main(["run", path]) == 0


@pytest.mark.parametrize("kind", KICKING_KINDS)
def test_a_kick_just_outside_the_regime_is_refused_at_load(tmp_path, capsys, kind):
    params, key = _kicked_to(kind, EDGE * (1.0 + 1e-6))
    path = _write(tmp_path, {"kind": kind, "name": "outside", "params": params})
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert f"scenarios[0].params.{key} (run 'outside'): " in err
    assert ("squared momentum ratio 0.1 >= kappa_max = 0.1; results are outside the model's "
            "validity regime") in err


_MOMENTUM = st.floats(-0.4, 0.4, allow_subnormal=False)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(TWINS)),
    spacing=st.floats(0.01, 0.19),
    boosts=st.tuples(_MOMENTUM, _MOMENTUM),
    momenta=st.lists(_MOMENTUM, min_size=1, max_size=3, unique=True),
)
def test_validation_accepts_a_twin_sweep_iff_the_strict_engine_guard_runs_it(
    kind, spacing, boosts, momenta
):
    # Each run's own run_sequence either raises nothing or raises the
    # RegimeError that validation reports, at the same first run.
    count = 3
    scenario = {"kind": kind, "name": "s",
                "params": {"spacing": spacing, "probe_momenta": momenta},
                "sweep": {"parameter": "boost", "start": boosts[0], "stop": boosts[1],
                          "count": count}}
    try:
        parse_config({"schema_version": 1, "scenarios": [scenario]})
        refused = None
    except ConfigError as exc:
        assume("must be nonzero" not in str(exc))  # a run with no boost
        assert "outside the model's validity regime" in str(exc)
        refused = str(exc)
    spectrum = ladder_spectrum(2, spacing)
    probe = default_probe(spectrum, momenta, (0, 1))
    first = None
    for i, boost in enumerate(Sweep("boost", *boosts, count).values()):
        try:
            run_sequence(TWINS[kind], spectrum, boost, 2.0, probe=probe)
        except RegimeError:
            first = i
            break
    if first is None:
        assert refused is None
    else:
        assert refused is not None and f"(run 's-{first}')" in refused


class _Evolved(Exception):
    """Raised in place of a grid engine's first evolution."""


def _stop_evolution(*args, **kwargs):
    raise _Evolved


def test_a_library_run_sequence_out_of_the_regime_raises(monkeypatch):
    # The library holds a run to the same bound the loader does: no call
    # returns numbers for a kick out of the regime, and a grid engine refuses
    # it before its first evolution.
    spectrum = ladder_spectrum(2, 0.1)
    probe = default_probe(spectrum, [0.0], (0, 1))
    run_sequence(SequenceKind.MOMENTUM, spectrum, EDGE * (1.0 - 1e-6), 2.0, probe=probe)
    with pytest.raises(RegimeError, match="^MomentumBoost: squared momentum ratio 0.1 ") as exc:
        run_sequence(SequenceKind.MOMENTUM, spectrum, EDGE * (1.0 + 1e-6), 2.0, probe=probe)
    assert exc.value.run is None
    # Branch 1 of the default packet reaches 1.1 * 0.5 and 1.1 * 0.3 * 2.0.
    state = gaussian_grid_state(spectrum)
    monkeypatch.setattr(gridops, "evolve_linear_potential", _stop_evolution)
    with pytest.raises(RegimeError, match="^boost: squared momentum ratio 0.3025 >= kappa_max"):
        impulsive_boost_limit(state, 0.5)
    with pytest.raises(RegimeError,
                       match="^acceleration: squared momentum ratio 0.4356 >= kappa_max"):
        accelerated_frame_trotter(state, 0.3, 2.0)


@pytest.mark.parametrize(
    "kind, params",
    [("trotter-accel", {"momentum": 0.35, "acceleration": 0.0825, "duration": 4.0}),
     ("entanglement-demo", {"momentum": 0.35, "boost": -0.3})],
    ids=["trotter", "entanglement"],
)
def test_a_run_that_starts_outside_the_regime_is_refused_at_its_momentum(
    tmp_path, capsys, kind, params
):
    # Each kick brings the packet back inside (branch 1 ends at 0.35 - 1.1 *
    # 0.33 = -0.013 and 0.35 - 1.1 * 0.3 = 0.02), but it starts at p^2 = 0.1225.
    path = _write(tmp_path, {"kind": kind, "name": "x", "params": params})
    message = ("scenarios[0].params.momentum (run 'x'): momentum: squared momentum ratio "
               "0.1225 >= kappa_max = 0.1")
    for command in (["validate"], ["run", "--out-dir", str(tmp_path / "out")]):
        assert main([command[0], path, *command[1:]]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    spectrum = ladder_spectrum(2, 0.1)
    with pytest.raises(RegimeError, match="^momentum: squared momentum ratio 0.1225 "):
        if kind == "trotter-accel":
            accelerated_frame_trotter(gaussian_grid_state(spectrum, momentum=0.35), 0.0825, 4.0)
        else:
            entanglement_frame_demo(spectrum, momentum=0.35, v_b=-0.3)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["trotter-accel", "impulse-boost"]),
    drive=_MOMENTUM.filter(bool),
    duration=st.floats(0.01, 8.0),
    momentum=_MOMENTUM,
)
def test_validation_refuses_a_grid_run_iff_its_engine_raises_regime_error(
    kind, drive, duration, momentum
):
    # The engine, called on the packet the loader builds, either reaches its
    # first evolution or raises the RegimeError that validation reports, at
    # the field named by the error's kick.  An impulse run starts at rest.
    if kind == "trotter-accel":
        params = {"acceleration": drive, "duration": duration, "momentum": momentum,
                  "steps": [1, 2]}
        engine = partial(accelerated_frame_trotter, acceleration=drive, duration=duration,
                         steps=(1, 2))
    else:
        params, momentum = {"boost": drive, "dt_schedule": [0.1, 0.01]}, 0.0
        engine = partial(impulsive_boost_limit, v_b=drive, dt_schedule=(0.1, 0.01))
    scenario = {"kind": kind, "name": "g", "params": {**params, "grid_size": 64}}
    try:
        parse_config({"schema_version": 1, "scenarios": [scenario]})
        refused = None
    except ConfigError as exc:
        refused = str(exc)
    state = gaussian_grid_state(ladder_spectrum(2, 0.1), size=64, box_length=64.0, sigma=3.5,
                                momentum=momentum)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gridops, "evolve_linear_potential", _stop_evolution)
        try:
            engine(state)
        except RegimeError as exc:
            kick = str(exc).split(":")[0]
            assert refused == f"scenarios[0].params.{kick} (run 'g'): {exc}"
        except _Evolved:
            assert refused is None


def test_a_nan_momentum_is_out_of_the_regime_in_the_library():
    # The loader refuses NaN before any engine sees it; a library call that
    # passes one is refused by the engine's own kick check.
    spectrum = ladder_spectrum(2, 0.1)
    with pytest.raises(RegimeError, match="^momentum: squared momentum ratio nan "):
        entanglement_frame_demo(spectrum, float("nan"), 0.01)
    with pytest.raises(RegimeError, match="^VelocityBoost: squared momentum ratio nan "):
        entanglement_frame_demo(spectrum, 0.1, float("nan"))


def test_a_library_batch_out_of_the_regime_names_its_first_offending_run():
    # Runs 2 and 3 leave the regime; the error carries run 2.
    spectrum = ladder_spectrum(2, 0.1)
    velocities = np.array([0.0, 0.01, 0.3, 0.4])
    with pytest.raises(RegimeError, match="^VelocityBoost: ") as exc:
        entanglement_frame_demo(spectrum, momentum=0.0, v_b=velocities)
    assert exc.value.run == 2
    kicks = [MomentumBoost(velocities[:, None]), MomentumBoost(-velocities[:, None])]
    with pytest.raises(RegimeError, match="^MomentumBoost: ") as exc:
        trace_chain(default_probe(spectrum), kicks)
    assert exc.value.run == 2
