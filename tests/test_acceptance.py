"""Acceptance criteria for the whole package, one test per criterion.

Each test states its tolerance and its wall-clock budget and runs against
the public package surface.  Everything is deterministic: random draws use
fixed seeds, and the CLI criterion compares output files byte for byte.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from qclocksim import (
    DilationProfile,
    SequenceKind,
    SWPClock,
    Translation,
    TrapModel,
    VelocityBoost,
    accelerated_frame_trotter,
    apply_operator,
    branch_spectrum_oracle,
    closed_form_phase,
    closed_global_phase,
    default_probe,
    entanglement_frame_demo,
    fidelity_deviation,
    find_effective_ticks,
    gaussian_grid_state,
    impulsive_boost_limit,
    internal_superposition,
    ladder_spectrum,
    make_spectrum,
    read_pointer,
    run_sequence,
    spectroscopy_scan,
    trace_chain,
)
from qclocksim.cli import main
from qclocksim.config import RunConfig, load_config
from qclocksim.oracles import swp_dilation_factors
from qclocksim.runners import run_config

FULL_SUITE = Path(__file__).resolve().parents[1] / "configs" / "full-suite.json"


def test_criterion_01_momentum_sequence_identity():
    started = time.perf_counter()
    for dim in (1, 2, 4):
        spectrum = ladder_spectrum(dim, 0.05)
        probe = default_probe(spectrum, levels=tuple(range(dim)))
        for boost in (0.01, 0.05, 0.1):
            for duration in (0.5, 2.0, 10.0):
                result = run_sequence(
                    SequenceKind.MOMENTUM, spectrum, boost, duration, probe=probe
                )
                closed = closed_form_phase(SequenceKind.MOMENTUM, spectrum, boost, duration,
                                           probe.levels, probe.momenta)
                assert np.max(np.abs(np.exp(1j * (result.phases - closed)) - 1.0)) < 1e-12
                expected = probe.with_amplitudes(probe.amplitudes * np.exp(1j * closed))
                assert fidelity_deviation(expected, result.final_state) < 1e-12
    assert time.perf_counter() - started < 1.0


def test_criterion_02_velocity_sequence_dilation_factor():
    started = time.perf_counter()
    spectrum = ladder_spectrum(3, 0.05)
    probe = default_probe(spectrum, levels=(0, 1, 2))
    for v in (0.01, 0.02, 0.05):
        result = run_sequence(SequenceKind.VELOCITY_CLOCK, spectrum, v, 2.0, probe=probe)
        expected = 1.0 - 0.5 * v * v
        for factor in result.level_factors.values():
            assert factor == pytest.approx(expected, rel=1e-12)
    slow = run_sequence(SequenceKind.VELOCITY_CLOCK, spectrum, 0.01, 2.0, probe=probe)
    for factor in slow.level_factors.values():
        assert factor == pytest.approx(0.99995, rel=1e-12)
    assert time.perf_counter() - started < 1.0


def test_criterion_03_observer_sequence_speeds_the_clock_up():
    started = time.perf_counter()
    spectrum = ladder_spectrum(3, 0.05)
    probe = default_probe(spectrum, levels=(0, 1, 2))
    for v in (0.01, 0.02):
        result = run_sequence(
            SequenceKind.VELOCITY_OBSERVER, spectrum, v, 2.0, probe=probe
        )
        expected = 1.0 + 0.5 * v * v
        for factor in result.level_factors.values():
            assert factor == pytest.approx(expected, rel=1e-12)
        assert result.global_phase < 0.0
        assert closed_global_phase(SequenceKind.VELOCITY_OBSERVER, spectrum, v, 2.0) < 0.0
    assert time.perf_counter() - started < 1.0


def test_criterion_04_pairwise_factors_lie_strictly_between_single_branch():
    started = time.perf_counter()
    rng = np.random.default_rng(20260815)
    for _ in range(1000):
        dim = int(rng.integers(2, 6))
        gaps = rng.uniform(1e-4, 0.04, size=dim - 1)
        spectrum = make_spectrum([0.0, *np.cumsum(gaps)])
        boost = float(rng.uniform(1e-3, 0.1))
        # F[n, m] = 1 - p_b^2 / (2 M_n M_m), the relative-phase dilation.
        factors = 1.0 - boost * boost / (2.0 * np.outer(spectrum.masses, spectrum.masses))
        diag = np.diag(factors)
        for n in range(dim):
            for m in range(n + 1, dim):
                low, high = sorted((diag[n], diag[m]))
                assert low < factors[n, m] < high
    assert time.perf_counter() - started < 1.0


def test_criterion_05_translation_conjugation_of_velocity_boosts():
    started = time.perf_counter()
    spectrum = ladder_spectrum(3, 0.05)
    state = internal_superposition(spectrum, momentum=0.1)
    rng = np.random.default_rng(42)
    shifts = rng.uniform(-100.0, 100.0, size=250)
    masses = spectrum.masses[state.levels]
    for v in (0.005, 0.02):
        boosted = apply_operator(state, VelocityBoost(v)).amplitudes
        for shift in shifts:
            # T(-s) B_v T(s) is B_v with branch n rephased by e^{i M_n v s}.
            chain = [Translation(float(shift)), VelocityBoost(v), Translation(-float(shift))]
            conjugated = trace_chain(state, chain)[0].amplitudes
            predicted = boosted * np.exp(1j * masses * v * shift)
            assert np.max(np.abs(conjugated - predicted)) <= 1e-12
    assert time.perf_counter() - started < 1.0


def test_criterion_06_velocity_boost_entangles_the_internal_state():
    started = time.perf_counter()
    demo = entanglement_frame_demo(ladder_spectrum(2, 0.1), momentum=0.1, v_b=0.01)
    assert abs(demo.entropy_before) < 1e-10
    assert abs(demo.entropy_after - np.log(2.0)) < 1e-10
    assert time.perf_counter() - started < 1.0


def test_criterion_07_accelerated_frame_product_converges_first_order():
    started = time.perf_counter()
    state = gaussian_grid_state(
        ladder_spectrum(2, 0.1), size=256, box_length=64.0, sigma=3.5
    )
    report = accelerated_frame_trotter(
        state, 0.02, 2.0, steps=(32, 64, 128, 256, 512)
    )
    halving = report.errors[:-1] / report.errors[1:]
    for ratio in halving[:3]:  # err(n)/err(2n) at n = 32, 64, 128
        assert 1.6 < ratio < 2.4
    assert report.errors[-1] < 1e-4
    assert time.perf_counter() - started < 60.0


def test_criterion_08_impulsive_limit_shrinks_linearly_per_decade():
    started = time.perf_counter()
    state = gaussian_grid_state(
        ladder_spectrum(2, 0.1), size=128, box_length=64.0, sigma=3.5
    )
    report = impulsive_boost_limit(
        state, 0.01, dt_schedule=(1e-1, 1e-2, 1e-3, 1e-4), internal_coupled=True
    )
    dev = report.deviation_velocity
    ratios = dev[:-1] / dev[1:]
    assert ratios.shape == (3,)
    for ratio in ratios:
        assert 8.0 < ratio < 12.0
    assert time.perf_counter() - started < 30.0


def test_criterion_09_undilated_clock_rephasing_and_reparametrization():
    started = time.perf_counter()
    for dim in (4, 16, 64):
        clock = SWPClock(dim=dim, omega0=1.0)
        profile = DilationProfile(swp_dilation_factors("none", dim, 0.0))
        for k in (1, 2, 3):
            mean, variance = read_pointer(clock, profile, k * clock.tau)
            assert variance < 1e-20 * clock.tau**2
            assert mean == pytest.approx(k * clock.tau, rel=1e-10)
    clock = SWPClock(dim=16, omega0=1.0)
    slowed = DilationProfile(swp_dilation_factors("velocity-classical", 16, 0.01))
    d = float(slowed.factors[0])
    times = np.linspace(0.0, 3.0 * clock.tau, 301)
    _, dilated = read_pointer(clock, slowed, times)
    undilated = DilationProfile(swp_dilation_factors("none", 16, 0.0))
    _, reference = read_pointer(clock, undilated, d * times)
    deviation = np.max(np.abs(dilated - reference)) / clock.tau**2
    assert deviation < 1e-12
    assert time.perf_counter() - started < 5.0


def test_criterion_10_nonclassical_dilation_degrades_the_ticks():
    started = time.perf_counter()
    clock = SWPClock(dim=8, omega0=1.0)
    profile = DilationProfile(swp_dilation_factors("momentum-nonclassical", 8, 0.1,
                                                   ladder_spectrum(8, 0.01)))
    scan = find_effective_ticks(clock, profile)
    # Rephasing never completes: every tick keeps strictly positive variance.
    assert scan.tick_variances.min() > 1e-8 * clock.tau**2
    # Ticks drift late by a nonclassical amount, pinned to the frozen values.
    deviation = (float(np.mean(np.diff(scan.tick_times))) - clock.tau) / clock.tau
    assert deviation > 1e-3
    assert deviation == pytest.approx(0.0046950439065795305, abs=1e-6)
    np.testing.assert_allclose(
        scan.tick_times / clock.tau,
        [1.0046954190507142, 2.009390732427306, 3.014085506863873],
        atol=1e-6,
    )
    np.testing.assert_allclose(
        scan.tick_variances / clock.tau**2,
        [5.290804461210996e-08, 1.301828511657277e-07, 2.83682185298062e-07],
        rtol=1e-6,
    )
    assert time.perf_counter() - started < 10.0


def test_criterion_11_ion_clock_shift_matches_the_branch_oracle():
    started = time.perf_counter()
    extracted = {}
    for n in (0, 1, 2):
        model = TrapModel(transition_energy=1e-3, trap_frequency=1e-5, fock_index=n)
        oracle = branch_spectrum_oracle(model)
        scan = spectroscopy_scan(model, oracle.carrier_shift)
        extracted[n] = scan.peak_detuning / model.transition_energy
        assert abs(extracted[n] / oracle.relative_shift - 1.0) <= 1e-2
        assert abs(oracle.relative_shift / oracle.first_order_relative - 1.0) <= 1e-3
        assert scan.cutoff_shift_change < 1e-10
    # The shift grows linearly in (n + 1/2): ratios 3 and 5 within 1%.
    assert extracted[1] / extracted[0] == pytest.approx(3.0, rel=1e-2)
    assert extracted[2] / extracted[0] == pytest.approx(5.0, rel=1e-2)
    assert time.perf_counter() - started < 120.0


def test_criterion_12_cli_output_is_byte_deterministic(tmp_path):
    started = time.perf_counter()
    config = {
        "schema_version": 1,
        "scenarios": [
            {
                "name": "twin",
                "kind": "twin-momentum",
                "params": {"levels": 4, "spacing": 0.05, "boost": 0.1},
            },
            {
                "name": "ticks",
                "kind": "swp",
                "params": {"dim": 8, "profile": "momentum-nonclassical"},
            },
            {
                "name": "frames",
                "kind": "entanglement-demo",
                "params": {},
            },
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_dirs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
    assert main(["run", str(path), "--out-dir", str(out_dirs[0])]) == 0
    assert main(["run", str(path), "--out-dir", str(out_dirs[1])]) == 0
    assert main(["run", str(path), "--out-dir", str(out_dirs[2]), "--threads", "2"]) == 0
    names = sorted(p.name for p in out_dirs[0].iterdir())
    assert len(names) == 6  # three runs, csv + json each
    for name in names:
        reference = (out_dirs[0] / name).read_bytes()
        assert (out_dirs[1] / name).read_bytes() == reference
        assert (out_dirs[2] / name).read_bytes() == reference
    assert time.perf_counter() - started < 10.0


def test_criterion_13_momentum_boosts_miss_classical_time_dilation():
    # The abstract's first claim, read from the twin rows of full-suite.json:
    # a clock that moves at Lorentz factor gamma ticks at 1/gamma of the rest
    # rate, and a clock at rest seen from the moving frame at gamma.
    # Velocity and observer round trips show it up to fourth order:
    # 1/gamma - d = 3 v^4 / 8 and gamma - d = -v^4 / 8, bounded here by v^4 / 2
    # and v^4 / 4.  A momentum kick p gives branch n the speed p / M_n, and
    # 1/gamma_n - d_n = p^2 eps_n / (2 M_n^2) + 3 (p / M_n)^4 / 8: a
    # second-order gap that no classical speed gives, matched here to p^4 / 2.
    started = time.perf_counter()
    config = load_config(FULL_SUITE)
    twins = [spec for spec in config.scenarios if spec.kind.startswith("twin-")]
    reports = run_config(RunConfig(scenarios=twins))
    assert sorted(report.scenario for report in reports) == [
        "twin-momentum", "twin-observer", "twin-velocity"]
    for report in reports:
        boost = report.parameters["boost"]
        assert report.rows
        for row in report.rows:
            d, gamma = row["dilation_factor"], row["gamma"]
            if report.scenario == "twin-momentum":
                gap = row["epsilon"] * boost ** 2 / (2.0 * row["mass"] ** 2)
                assert gap > boost ** 4
                assert abs(1.0 / gamma - d - gap) <= boost ** 4 / 2
            elif report.scenario == "twin-velocity":
                assert abs(1.0 / gamma - d) <= boost ** 4 / 2
            else:
                assert abs(gamma - d) <= boost ** 4 / 4
    assert time.perf_counter() - started < 1.0
