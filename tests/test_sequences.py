"""Round-trip boost sequences against closed forms and an extended-precision
oracle.

The oracle recomputes every component phase with 50-digit mpmath arithmetic
from the energy bookkeeping alone (kick momenta through the chain, sum the
phase increments), so agreement is evidence the double-precision engine and
the closed-form algebra both implement the same physics.
"""

import json
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qclocksim import sequences as sequences_module
from qclocksim.cli import main
from qclocksim.errors import SequencingError
from qclocksim.oracles import (
    closed_dilation_factor,
    closed_form_phase,
    closed_global_phase,
    lorentz_gamma,
)
from qclocksim.sequences import (
    SequenceKind,
    build_sequence,
    default_probe,
    entanglement_frame_demo,
    run_sequence,
)
from qclocksim.operators import (
    BranchTranslation,
    FreeEvolution,
    MomentumBoost,
    Translation,
    VelocityBoost,
    total_energy,
)
from qclocksim.spectrum import ladder_spectrum, make_spectrum, stack_spectra
from qclocksim.states import PlaneWaveState, fidelity_deviation, reduced_internal_entropy
from qclocksim.units import EPS_MAX

mp.mp.dps = 50


def _mp_energy(eps, p):
    half = p * p / 2
    return half + eps * (1 - half / (1 + eps))


def _mp_chain_phase(ops, eps, p0):
    """Walk the operator chain in 50-digit arithmetic."""
    eps = mp.mpf(repr(eps))
    p = mp.mpf(repr(p0))
    phase = mp.mpf(0)
    for op in ops:
        if isinstance(op, MomentumBoost):
            p = p + mp.mpf(repr(op.magnitude))
        elif isinstance(op, VelocityBoost):
            p = p + (1 + eps) * mp.mpf(repr(op.magnitude))
        elif isinstance(op, Translation):
            phase -= p * mp.mpf(repr(op.shift))
        elif isinstance(op, BranchTranslation):
            phase -= p * mp.mpf(repr(op.shift)) / (1 + eps)
        elif isinstance(op, FreeEvolution):
            phase -= mp.mpf(repr(op.duration)) * _mp_energy(eps, p)
        else:
            raise AssertionError(op)
    return phase


KINDS = (SequenceKind.MOMENTUM, SequenceKind.VELOCITY_CLOCK, SequenceKind.VELOCITY_OBSERVER)


def _distance(result, kind, spec, boost, duration, probe=None, **options):
    """The run's worst per-component |exp(i dphi) - 1| against the closed form,
    and |<closed form|sequence output> - 1|, as the twin runner grades them."""
    probe = probe if probe is not None else default_probe(spec)
    closed = closed_form_phase(kind, spec, boost, duration, probe.levels, probe.momenta,
                               **options)
    residual = np.max(np.abs(np.exp(1j * (result.phases - closed)) - 1.0))
    expected = probe.with_amplitudes(probe.amplitudes * np.exp(1j * closed))
    return residual, fidelity_deviation(expected, result.final_state)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("boost,duration", [(0.01, 0.5), (0.05, 2.0), (0.1, 10.0)])
def test_sequence_phases_match_extended_precision_oracle(kind, boost, duration):
    if kind is not SequenceKind.MOMENTUM:
        boost = boost / 5.0  # velocities stay small
    spec = ladder_spectrum(3, 0.06)
    probe = default_probe(spec, momenta=(0.0, 0.1), levels=(0, 1, 2))
    result = run_sequence(kind, spec, boost=boost, duration=duration, probe=probe)
    ops = build_sequence(kind, boost, duration)
    for n, p, phase in zip(probe.levels, probe.momenta, result.phases):
        oracle = float(_mp_chain_phase(ops, spec.epsilons[int(n)], float(p)))
        assert phase == pytest.approx(oracle, abs=1e-13 * (1.0 + abs(oracle)))


@pytest.mark.parametrize("kind", KINDS)
def test_sequences_close_exactly_on_their_identity(kind):
    spec = ladder_spectrum(2, 0.1)
    result = run_sequence(kind, spec, boost=0.05, duration=2.0)
    residual, fidelity = _distance(result, kind, spec, 0.05, 2.0)
    assert residual <= 1e-12
    assert fidelity <= 1e-12
    assert result.level_phase_spread_max <= 1e-12


@pytest.mark.parametrize("boost", [0.1, np.array([0.05, 0.1])], ids=["single", "batch"])
def test_a_chain_that_does_not_return_the_momenta_is_refused(monkeypatch, boost):
    # The raise is the one guard on the momentum return: drop the chain's
    # last kick and the probe ends one boost away from where it began.
    chain = sequences_module.build_sequence
    monkeypatch.setattr(sequences_module, "build_sequence",
                        lambda *args, **kwargs: chain(*args, **kwargs)[:-1])
    with pytest.raises(SequencingError) as refused:
        run_sequence(SequenceKind.MOMENTUM, ladder_spectrum(2, 0.1), boost, 2.0)
    assert str(refused.value) == "sequence did not return momenta (max error 1.000e-01)"


def test_a_round_trip_reads_its_levels_in_memory_linear_in_their_count(tmp_path, capsys):
    # Each level is read from its own block of components, so the memory a
    # round trip needs grows with its component count, not with its square.
    spec = ladder_spectrum(1000, 1e-8)
    probe = default_probe(spec, momenta=(0.0, 0.1), levels=tuple(range(1000)))
    tracemalloc.start()
    try:
        run_sequence(SequenceKind.VELOCITY_CLOCK, spec, 0.01, 2.0, probe=probe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # The load measures every twin job, so a wide ladder must load as quickly.
    scenario = {"kind": "twin-velocity", "name": "wide", "params": {"levels": 2000,
                                                                    "spacing": 1e-8}}
    config = tmp_path / "wide.json"
    config.write_text(json.dumps({"schema_version": 1, "scenarios": [scenario]}))
    assert main(["validate", str(config)]) == 0
    capsys.readouterr()


def test_a_round_trip_is_graded_in_memory_linear_in_its_components(tmp_path, capsys):
    # The overlap matches components through their plane waves, one id per
    # component, not through a components x components table (65 MiB here).
    spec = ladder_spectrum(1000, 1e-8)
    probe = default_probe(spec, momenta=(0.0, 0.1), levels=tuple(range(1000)))
    result = run_sequence(SequenceKind.VELOCITY_CLOCK, spec, 0.01, 2.0, probe=probe)
    tracemalloc.start()
    try:
        fidelity_deviation(probe, result.final_state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # The runner grades every twin run by that overlap, so a wide ladder runs.
    scenario = {"kind": "twin-velocity", "name": "wide", "params": {"levels": 2000,
                                                                    "spacing": 1e-8}}
    config = tmp_path / "wide.json"
    config.write_text(json.dumps({"schema_version": 1, "scenarios": [scenario]}))
    assert main(["run", str(config), "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()


def test_momentum_kick_dilation_factor_is_mass_dependent():
    spec = ladder_spectrum(2, 0.1)
    result = run_sequence(SequenceKind.MOMENTUM, spec, boost=0.1, duration=2.0)
    assert result.level_factors[1] == pytest.approx(1.0 - 0.01 / 2.2, abs=1e-13)
    assert result.global_phase == pytest.approx(2.0 * 0.01, abs=1e-13)
    # A heavier branch dilates less: factors approach 1 from below.
    spec3 = ladder_spectrum(3, 0.05)
    res3 = run_sequence(
        SequenceKind.MOMENTUM, spec3, boost=0.1, duration=2.0,
        probe=default_probe(spec3, levels=(0, 1, 2)),
    )
    assert res3.level_factors[1] < res3.level_factors[2] < 1.0


def test_velocity_clock_dilation_factor_is_level_independent():
    spec = ladder_spectrum(3, 0.05)
    result = run_sequence(
        SequenceKind.VELOCITY_CLOCK, spec, boost=0.01, duration=2.0,
        probe=default_probe(spec, levels=(0, 1, 2)),
    )
    for factor in result.level_factors.values():
        assert factor == pytest.approx(0.99995, abs=1e-14)
    assert result.global_phase == pytest.approx(2.0 * 1e-4, abs=1e-13)


def test_observer_sequence_speeds_clocks_up_and_flips_global_sign():
    spec = ladder_spectrum(2, 0.1)
    result = run_sequence(SequenceKind.VELOCITY_OBSERVER, spec, boost=0.01, duration=2.0)
    assert result.level_factors[1] == pytest.approx(1.0 + 0.5e-4, abs=1e-14)
    assert result.global_phase == pytest.approx(-2.0 * 1e-4, abs=1e-13)
    assert result.global_phase < 0.0 < closed_global_phase(
        SequenceKind.VELOCITY_CLOCK, spec, 0.01, 2.0
    )


def test_dilation_factors_are_invariant_under_boost_sign():
    spec = ladder_spectrum(2, 0.1)
    plus = run_sequence(SequenceKind.MOMENTUM, spec, boost=0.1, duration=2.0)
    minus = run_sequence(SequenceKind.MOMENTUM, spec, boost=-0.1, duration=2.0)
    assert plus.level_factors[1] == pytest.approx(minus.level_factors[1], abs=1e-15)
    assert plus.global_phase == pytest.approx(minus.global_phase, abs=1e-15)


def test_single_level_particle_still_closes_with_global_phase_only():
    spec = make_spectrum([0.0])
    probe = default_probe(spec, momenta=(0.0, 0.1))
    result = run_sequence(SequenceKind.MOMENTUM, spec, boost=0.1, duration=2.0, probe=probe)
    assert result.level_factors == {}
    assert result.global_phase == pytest.approx(2.0 * 0.01, abs=1e-13)
    assert _distance(result, SequenceKind.MOMENTUM, spec, 0.1, 2.0, probe)[0] <= 1e-12


def test_translation_centered_on_excited_branch_reweights_global_phase():
    spec = ladder_spectrum(2, 0.1)
    result = run_sequence(
        SequenceKind.MOMENTUM, spec, boost=0.1, duration=2.0, translation_level=1
    )
    expected_g = 2.0 * 0.01 * (2.0 / 1.1 - 1.0)
    assert result.global_phase == pytest.approx(expected_g, abs=1e-13)
    # The dilation factors themselves do not move.
    assert result.level_factors[1] == pytest.approx(1.0 - 0.01 / 2.2, abs=1e-13)
    residual, _ = _distance(result, SequenceKind.MOMENTUM, spec, 0.1, 2.0, translation_level=1)
    assert residual <= 1e-12


def test_state_dependent_translation_flips_the_correction_sign():
    spec = ladder_spectrum(2, 0.1)
    result = run_sequence(
        SequenceKind.MOMENTUM, spec, boost=0.1, duration=2.0,
        state_dependent_translation=True,
    )
    assert result.level_factors[1] == pytest.approx(1.0 + 0.01 / 2.2, abs=1e-13)
    assert result.global_phase == pytest.approx(2.0 * 0.01, abs=1e-13)
    residual, _ = _distance(result, SequenceKind.MOMENTUM, spec, 0.1, 2.0,
                            state_dependent_translation=True)
    assert residual <= 1e-12


def test_translation_options_are_momentum_only_and_exclusive():
    spec = ladder_spectrum(2, 0.1)
    with pytest.raises(ValueError):
        run_sequence(SequenceKind.VELOCITY_CLOCK, spec, 0.01, 2.0, translation_level=1)
    with pytest.raises(ValueError):
        run_sequence(
            SequenceKind.MOMENTUM, spec, 0.1, 2.0,
            translation_level=1, state_dependent_translation=True,
        )


def test_probe_must_anchor_on_the_ground_level():
    spec = ladder_spectrum(2, 0.1)
    probe = PlaneWaveState.from_components(spec, [(1, 0.0, 1.0), (1, 0.1, 1.0)])
    with pytest.raises(ValueError):
        run_sequence(SequenceKind.MOMENTUM, spec, 0.1, 2.0, probe=probe)


@pytest.mark.parametrize("duration", [0.0, -2.0, float("nan"), [2.0, float("nan")]])
def test_duration_must_be_positive(duration):
    # NaN compares false both ways: the rule asks for > 0, so a NaN anywhere
    # in a batch is refused too.
    spec = ladder_spectrum(2, 0.1)
    with pytest.raises(ValueError, match="duration must be positive"):
        run_sequence(SequenceKind.MOMENTUM, spec, 0.1, duration)


def test_runaway_phase_accumulation_is_capped():
    spec = ladder_spectrum(2, 0.1)
    with pytest.raises(ValueError):
        run_sequence(SequenceKind.MOMENTUM, spec, 0.1, 1.0e8)


def test_closed_form_helpers_agree_with_each_other():
    spec = ladder_spectrum(2, 0.1)
    phi = closed_form_phase(SequenceKind.MOMENTUM, spec, 0.1, 2.0, 1, 0.1)
    g = closed_global_phase(SequenceKind.MOMENTUM, spec, 0.1, 2.0)
    d = closed_dilation_factor(SequenceKind.MOMENTUM, spec, 0.1, 1)
    from qclocksim.operators import kinetic_energy

    assert phi == pytest.approx(
        -4.0 * kinetic_energy(spec, 1, 0.1) + g - 0.4 * d, abs=1e-15
    )


def pairwise_factors(spec, boost):
    """F[n, m] = 1 - p_b^2 / (2 M_n M_m): the closed-form dilation of the
    relative phase between branches n and m after a momentum kick."""
    return 1.0 - boost * boost / (2.0 * np.outer(spec.masses, spec.masses))


def test_pairwise_factor_matches_energy_difference_oracle():
    spec = make_spectrum([0.0, 0.04, 0.11, 0.19])
    boost = 0.1
    factors = pairwise_factors(spec, boost)
    for n in range(4):
        for m in range(4):
            if n == m:
                continue
            gap = spec.epsilons[n] - spec.epsilons[m]
            oracle = (total_energy(spec, n, boost) - total_energy(spec, m, boost)) / gap
            assert factors[n, m] == pytest.approx(oracle, abs=1e-14)


@pytest.mark.parametrize("boost", [0.02, 0.1])
@pytest.mark.parametrize(
    "spec",
    [ladder_spectrum(4, 0.05), make_spectrum([0.0, 0.03, 0.11, 0.189])],
    ids=["ladder", "uneven"],
)
def test_measured_pair_factors_equal_the_pairwise_closed_form(spec, boost):
    # A pair's factor follows from the level factors the run reads off the
    # executed chain's phases, F(n, m) = (eps_m d_m - eps_n d_n) / (eps_m - eps_n);
    # the closed form 1 - p_b^2 / (2 M_n M_m) never sees those phases.
    levels = tuple(range(spec.dim))
    probe = default_probe(spec, momenta=(0.0, 0.05, 0.1), levels=levels)
    result = run_sequence(SequenceKind.MOMENTUM, spec, boost, 2.0, probe=probe)
    assert sorted(result.level_factors) == list(levels[1:])
    # eps_0 = 0, so level 0's term is 0 whatever its factor.
    eps_d = {0: 0.0, **{n: spec.epsilons[n] * d for n, d in result.level_factors.items()}}
    closed = pairwise_factors(spec, boost)
    for n in levels:
        for m in levels[n + 1:]:
            factor = (eps_d[m] - eps_d[n]) / (spec.epsilons[m] - spec.epsilons[n])
            assert factor == pytest.approx(closed[n, m], rel=0, abs=1e-12)


# Four gaps of at most this size keep the top level below eps_max, which
# make_spectrum (correctly) refuses to reach.
MAX_GAP = EPS_MAX / 4 - 1e-4


@settings(max_examples=300)
@given(
    st.lists(st.floats(min_value=1e-4, max_value=MAX_GAP), min_size=1, max_size=4),
    st.floats(min_value=1e-3, max_value=0.1),
)
def test_pairwise_factors_interpolate_strictly_between_branch_values(gaps, boost):
    eps, total = [0.0], 0.0
    for g in gaps:
        total += g
        eps.append(total)
    spec = make_spectrum(eps)
    factors = pairwise_factors(spec, boost)
    diag = np.diag(factors)
    for n in range(spec.dim):
        for m in range(n + 1, spec.dim):
            lo, hi = min(diag[n], diag[m]), max(diag[n], diag[m])
            assert lo < factors[n, m] < hi


def test_boost_entangles_an_internal_superposition():
    spec = ladder_spectrum(2, 0.1)
    demo = entanglement_frame_demo(spec, momentum=0.1, v_b=0.01)
    assert abs(demo.entropy_before) <= 1e-10
    assert demo.entropy_after == pytest.approx(math.log(2), abs=1e-10)


def test_entanglement_demo_needs_two_levels():
    with pytest.raises(ValueError):
        entanglement_frame_demo(make_spectrum([0.0]), momentum=0.0, v_b=0.01)


def _same_bits(batch_value, single_value, single_index):
    """A batch entry against one run's value; a scalar call has no run axis."""
    return np.array_equal(np.asarray(batch_value), np.asarray(single_value)[single_index])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(KINDS),
    st.sampled_from([None, "translation_level", "state_dependent_translation"]),
    st.lists(
        st.tuples(
            st.floats(min_value=-0.1, max_value=0.1),
            st.floats(min_value=0.1, max_value=5.0),
            st.floats(min_value=0.01, max_value=0.06),
        ),
        min_size=1,
        max_size=7,
    ),
    st.booleans(),
)
def test_a_batch_equals_its_runs_one_by_one_bit_for_bit(kind, translation, runs, sweep_spacing):
    # A sweep runs as one batch; each of its runs must come out exactly as
    # that run alone (a batch of one) and as a plain scalar call.  With
    # sweep_spacing every run has its own spectrum, stacked along the batch.
    spectra = [ladder_spectrum(3, s if sweep_spacing else 0.05) for _, _, s in runs]
    options = {}
    if kind is SequenceKind.MOMENTUM and translation == "translation_level":
        options["translation_level"] = 1
    elif kind is SequenceKind.MOMENTUM and translation is not None:
        options["state_dependent_translation"] = True
    if kind is not SequenceKind.MOMENTUM:
        runs = [(b / 5.0, t, s) for b, t, s in runs]  # velocities stay small

    def probe(spectrum):
        return default_probe(spectrum, momenta=(0.0, 0.03, 0.05), levels=(0, 1, 2))

    stack = stack_spectra(spectra)
    boosts = np.array([b for b, _, _ in runs])
    durations = np.array([t for _, t, _ in runs])
    batch = run_sequence(kind, stack, boosts, durations, probe=probe(stack), **options)
    # The closed forms the twin runner grades a batch with, on (runs, 1) columns.
    closed = _closed_forms(kind, stack, boosts[:, None], durations[:, None], probe(stack),
                           **options)
    for r, spec in enumerate(spectra):
        one = run_sequence(kind, spec, boosts[r:r + 1], durations[r:r + 1],
                           probe=probe(spec), **options)
        scalar = run_sequence(kind, spec, float(boosts[r]), float(durations[r]),
                              probe=probe(spec), **options)
        for single, i in ((one, 0), (scalar, ())):
            for field in ("phases", "global_phase", "level_phase_spread_max"):
                assert _same_bits(getattr(batch, field)[r], getattr(single, field), i), field
            assert _same_bits(batch.final_state.amplitudes[r], single.final_state.amplitudes, i)
            assert batch.level_factors.keys() == single.level_factors.keys()
            for n, factor in batch.level_factors.items():
                assert _same_bits(factor[r], single.level_factors[n], i), n
        alone = _closed_forms(kind, spec, float(boosts[r]), float(durations[r]), probe(spec),
                              **options)
        for name, values in closed.items():
            assert np.array_equal(np.ravel(values[r]), np.ravel(alone[name])), name


def _closed_forms(kind, spec, boost, duration, probe, translation_level=None,
                  state_dependent_translation=False):
    """Every closed form the twin runner reads, by name."""
    forms = {
        "phase": closed_form_phase(kind, spec, boost, duration, probe.levels, probe.momenta,
                                   translation_level, state_dependent_translation),
        "global_phase": closed_global_phase(kind, spec, boost, duration, translation_level),
    }
    # Each per-level closed form once, over the levels the probe measures.
    forms["factors"] = closed_dilation_factor(kind, spec, boost, [1, 2],
                                              state_dependent_translation)
    forms["gammas"] = lorentz_gamma(kind, spec, boost, [1, 2])
    return forms


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.floats(min_value=-0.05, max_value=0.05)),
            st.floats(min_value=0.01, max_value=0.06),
        ),
        min_size=1,
        max_size=7,
    ),
    st.integers(min_value=2, max_value=4),
    st.booleans(),
)
def test_batched_entanglement_entropies_equal_the_runs_one_by_one(runs, levels, sweep_spacing):
    # A zero boost leaves one momentum cluster where the others have one per
    # level, so a batch can mix cluster counts.
    spectra = [ladder_spectrum(levels, s if sweep_spacing else 0.04) for _, s in runs]
    boosts = np.array([b for b, _ in runs])
    batch = entanglement_frame_demo(stack_spectra(spectra), momentum=0.05, v_b=boosts)
    for r, spec in enumerate(spectra):
        one = entanglement_frame_demo(spec, momentum=0.05, v_b=boosts[r:r + 1])
        scalar = entanglement_frame_demo(spec, momentum=0.05, v_b=float(boosts[r]))
        assert _same_bits(batch.entropy_before, one.entropy_before, ())
        assert _same_bits(batch.entropy_after[r], one.entropy_after, 0)
        assert _same_bits(batch.entropy_after[r], scalar.entropy_after, ())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=6),
)
def test_batched_entropy_equals_the_entropy_of_each_run_alone(seed, distinct_momenta):
    # Random complex amplitudes, one component per level, each run on its own
    # number of distinct momenta: the runs of one batch differ in cluster
    # count (one cluster rounds differently from padded ones) and in how
    # many of the five eigenvalues clear the cutoff.
    rng = np.random.default_rng(seed)
    runs = len(distinct_momenta)
    spec = ladder_spectrum(5, 0.04)
    levels = np.arange(5)
    momenta = np.array([rng.choice([0.0, 0.01, 0.02][:m], size=5) for m in distinct_momenta])
    amps = rng.normal(size=(runs, 5)) + 1j * rng.normal(size=(runs, 5))
    amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
    batch = reduced_internal_entropy(PlaneWaveState(spec, levels, momenta, amps))
    for r in range(runs):
        alone = reduced_internal_entropy(PlaneWaveState(spec, levels, momenta[r], amps[r]))
        assert _same_bits(batch[r], alone, ())
