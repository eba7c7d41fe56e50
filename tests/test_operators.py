"""Single operators: energies, phases, momentum maps, group laws."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qclocksim.errors import RegimeError
from qclocksim.operators import (
    BranchTranslation,
    FreeEvolution,
    MomentumBoost,
    Translation,
    VelocityBoost,
    apply_operator,
    kinetic_energy,
    momentum_after,
    phase_increment,
    total_energy,
    trace_chain,
)
from qclocksim.spectrum import ladder_spectrum
from qclocksim.states import PlaneWaveState

SPEC = ladder_spectrum(2, 0.1)

finite_momenta = st.floats(min_value=-0.15, max_value=0.15)
small_eps = st.floats(min_value=0.0, max_value=0.19)


def plane_wave(spectrum, level, momentum):
    """The single component |level> |momentum>."""
    return PlaneWaveState.from_components(spectrum, [(level, momentum, 1.0)])


def test_free_evolution_phase_on_resting_excited_branch():
    # At p = 0 the only energy is the internal one: E = eps.
    out = apply_operator(plane_wave(SPEC, 1, 0.0), FreeEvolution(2.0))
    assert out.amplitudes[0] == pytest.approx(cmath.exp(-0.2j), abs=1e-15)


def test_free_evolution_phase_on_moving_ground_branch():
    # Ground branch has no mass correction: E = p^2 / 2.
    out = apply_operator(plane_wave(SPEC, 0, 0.1), FreeEvolution(2.0))
    assert out.amplitudes[0] == pytest.approx(cmath.exp(-0.01j), abs=1e-15)


def test_free_evolution_phase_on_moving_excited_branch():
    p, t = 0.1, 2.0
    e = 0.5 * p * p + 0.1 * (1.0 - 0.5 * p * p / 1.1)
    out = apply_operator(plane_wave(SPEC, 1, p), FreeEvolution(t))
    assert out.amplitudes[0] == pytest.approx(cmath.exp(-1j * t * e), abs=1e-15)


def test_translation_phase():
    out = apply_operator(plane_wave(SPEC, 0, 0.1), Translation(5.0))
    assert out.amplitudes[0] == pytest.approx(cmath.exp(-0.5j), abs=1e-15)


def test_branch_translation_divides_by_the_branch_mass():
    state = plane_wave(SPEC, 1, 0.11)
    out = apply_operator(state, BranchTranslation(5.0))
    assert out.amplitudes[0] == pytest.approx(cmath.exp(-0.5j), abs=1e-14)


def test_momentum_boost_shifts_every_branch_equally():
    state = PlaneWaveState.from_components(SPEC, [(0, 0.0, 1.0), (1, 0.0, 1.0)])
    out = apply_operator(state, MomentumBoost(0.05))
    np.testing.assert_allclose(out.momenta, [0.05, 0.05], atol=1e-16)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-16)


def test_velocity_boost_kick_scales_with_branch_mass():
    state = PlaneWaveState.from_components(SPEC, [(0, 0.0, 1.0), (1, 0.0, 1.0)])
    out = apply_operator(state, VelocityBoost(0.01))
    np.testing.assert_allclose(out.momenta, [0.01, 0.011], atol=1e-17)


def kinetic_energy_naive(level, p):
    """Direct p^2 / (2 M_n): the plain form the refactored one must match."""
    return 0.5 * p * p / (1.0 + SPEC.epsilons[level])


def test_refactored_kinetic_energy_equals_plain_form():
    # p^2/2 - eps (p^2/2)/M is algebraically p^2/(2M); the refactoring only
    # changes rounding, never the value.
    for level in (0, 1):
        for p in (0.0, 0.03, 0.1, -0.25):
            a = kinetic_energy(SPEC, level, p)
            b = kinetic_energy_naive(level, p)
            assert a == pytest.approx(b, rel=1e-13, abs=1e-18)


def test_total_energy_decomposes_both_ways():
    p = 0.1
    # Mass-corrected kinetic plus the bare internal energy...
    assert total_energy(SPEC, 1, p) == pytest.approx(
        kinetic_energy(SPEC, 1, p) + 0.1, rel=1e-15
    )
    # ...equals bare kinetic plus the slowed internal evolution.
    rate = 1.0 - 0.5 * p * p / 1.1
    assert total_energy(SPEC, 1, p) == pytest.approx(0.5 * p * p + 0.1 * rate, rel=1e-15)


@given(finite_momenta, finite_momenta)
def test_momentum_boosts_compose_additively(a, b):
    state = plane_wave(SPEC, 1, 0.0)
    one = trace_chain(state, [MomentumBoost(a), MomentumBoost(b)])[0]
    both = apply_operator(state, MomentumBoost(a + b))
    assert one.momenta[0] == pytest.approx(both.momenta[0], abs=1e-15)


@given(st.floats(min_value=-5.0, max_value=5.0), st.floats(min_value=-5.0, max_value=5.0))
def test_translations_compose_additively(s1, s2):
    state = plane_wave(SPEC, 0, 0.1)
    one = trace_chain(state, [Translation(s1), Translation(s2)])[0]
    both = apply_operator(state, Translation(s1 + s2))
    assert one.amplitudes[0] == pytest.approx(both.amplitudes[0], abs=1e-12)


@given(st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=0.1, max_value=10.0))
def test_free_evolutions_compose_additively(t1, t2):
    state = plane_wave(SPEC, 1, 0.1)
    one = trace_chain(state, [FreeEvolution(t1), FreeEvolution(t2)])[0]
    both = apply_operator(state, FreeEvolution(t1 + t2))
    assert one.amplitudes[0] == pytest.approx(both.amplitudes[0], abs=1e-12)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


SPEC4 = ladder_spectrum(4, 0.05)
any_operator = st.one_of(
    st.builds(MomentumBoost, finite_momenta),
    st.builds(VelocityBoost, finite_momenta),
    st.builds(Translation, st.floats(min_value=-5.0, max_value=5.0)),
    st.builds(BranchTranslation, st.floats(min_value=-5.0, max_value=5.0)),
    st.builds(FreeEvolution, st.floats(min_value=0.1, max_value=20.0)),
)


@given(
    any_operator,
    st.lists(st.tuples(st.integers(min_value=0, max_value=3), finite_momenta), min_size=1, max_size=8),
)
def test_array_maps_equal_per_component_scalar_calls_bit_for_bit(op, components):
    levels = np.array([n for n, _ in components])
    momenta = np.array([p for _, p in components])
    for fn in (momentum_after, phase_increment):
        scalar = [fn(op, SPEC4, n, p) for n, p in components]
        assert _bits(fn(op, SPEC4, levels, momenta)) == _bits(scalar)
    scalar = [total_energy(SPEC4, n, p) for n, p in components]
    assert _bits(total_energy(SPEC4, levels, momenta)) == _bits(scalar)


def test_phase_increment_matches_applied_phases():
    state = plane_wave(SPEC, 1, 0.07)
    for op in (Translation(3.0), BranchTranslation(3.0), FreeEvolution(1.7)):
        applied = apply_operator(state, op)
        phi = phase_increment(op, SPEC, 1, 0.07)
        assert applied.amplitudes[0] == pytest.approx(cmath.exp(1j * phi), abs=1e-14)
    for op in (MomentumBoost(0.05), VelocityBoost(0.02)):
        assert phase_increment(op, SPEC, 1, 0.07) == 0.0
        assert momentum_after(op, SPEC, 1, 0.07) != 0.07


def test_trace_chain_accumulates_unwrapped_phases():
    # Phases must come out unwrapped: a long free evolution exceeds 2 pi by
    # far, and the trace keeps the full winding.
    state = plane_wave(SPEC, 1, 0.0)
    t = 500.0
    final, phases = trace_chain(state, [FreeEvolution(t)])
    assert phases[0] == pytest.approx(-t * 0.1, rel=1e-14)
    assert abs(phases[0]) > 2.0 * math.pi
    assert final.amplitudes[0] == pytest.approx(cmath.exp(1j * phases[0]), abs=1e-12)


def test_trace_chain_uses_pre_operator_momenta():
    # The translation lands after the kick, so its phase sees p + p_b.
    state = plane_wave(SPEC, 0, 0.1)
    _, phases = trace_chain(state, [MomentumBoost(0.05), Translation(2.0)])
    assert phases[0] == pytest.approx(-(0.1 + 0.05) * 2.0, rel=1e-15)


def test_conjugated_boost_gains_mass_weighted_phase():
    v, s = 0.01, 2.0
    for level, mass in ((0, 1.0), (1, 1.1)):
        state = plane_wave(SPEC, level, 0.0)
        out = trace_chain(state, [Translation(s), VelocityBoost(v), Translation(-s)])[0]
        boosted = apply_operator(state, VelocityBoost(v))
        expected = boosted.amplitudes[0] * cmath.exp(1j * mass * v * s)
        assert out.amplitudes[0] == pytest.approx(expected, abs=1e-14)


def test_a_boost_out_of_the_regime_raises():
    state = plane_wave(SPEC, 0, 0.0)
    with pytest.raises(RegimeError, match="^MomentumBoost: squared momentum ratio 0.81 "):
        apply_operator(state, MomentumBoost(0.9))


@settings(max_examples=200)
@given(small_eps, finite_momenta, st.floats(min_value=0.1, max_value=20.0))
def test_energy_phase_consistency_across_parameters(eps, p, t):
    spec = ladder_spectrum(2, eps) if eps > 0 else ladder_spectrum(1, 0.1)
    level = 1 if eps > 0 else 0
    state = plane_wave(spec, level, p)
    out = apply_operator(state, FreeEvolution(t))
    expected = cmath.exp(-1j * t * total_energy(spec, level, p))
    assert out.amplitudes[0] == pytest.approx(expected, abs=1e-12)
