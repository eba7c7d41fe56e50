"""One regime policy: validation refuses exactly the kicks the engine refuses.

kappa_max bounds the squared momentum a kick leaves a run at.  The config
loader checks every run's kicks with the engine's own check_kicks, so a run
it accepts never leaves the regime, and a run the engine would stop is
refused at load, naming the first such run.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qclocksim import (
    ConfigError,
    SequenceKind,
    default_probe,
    entanglement_frame_demo,
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
        assert ("scenarios[0].params.boost (run 'b'): RegimeGuard: MomentumBoost: "
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
    assert ("scenarios[0].params.boost (run 'x-2'): RegimeGuard: VelocityBoost: "
            in capsys.readouterr().err)
    scenario["sweep"]["stop"] = 0.04
    assert main(["validate", _write(tmp_path, scenario)]) == 0


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
    assert f"scenarios[0].params.{key} (run 'outside'): RegimeGuard: " in err
    assert "squared momentum ratio 0.1 >= kappa_max = 0.1" in err


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
        assume("must be nonzero" not in str(exc))  # an observer run with no boost
        assert "RegimeGuard" in str(exc)
        refused = str(exc)
    spectrum = ladder_spectrum(2, spacing)
    probe = default_probe(spectrum, momenta, (0, 1))
    first = None
    for i, boost in enumerate(Sweep("boost", *boosts, count).values()):
        try:
            run_sequence(TWINS[kind], spectrum, boost, 2.0, probe=probe,
                         identity_tol=float("inf"))
        except RegimeError:
            first = i
            break
    if first is None:
        assert refused is None
    else:
        assert refused is not None and f"(run 's-{first}')" in refused


def test_a_library_run_sequence_out_of_the_regime_raises():
    # The library holds a run to the same bound the loader does: no call
    # returns numbers for a kick out of the regime.
    spectrum = ladder_spectrum(2, 0.1)
    probe = default_probe(spectrum, [0.0], (0, 1))
    run_sequence(SequenceKind.MOMENTUM, spectrum, EDGE * (1.0 - 1e-6), 2.0, probe=probe)
    with pytest.raises(RegimeError, match="^MomentumBoost: squared momentum ratio 0.1 ") as exc:
        run_sequence(SequenceKind.MOMENTUM, spectrum, EDGE * (1.0 + 1e-6), 2.0, probe=probe)
    assert exc.value.run is None


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
