"""Plane-wave superposition states: algebra, inner products, entanglement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qclocksim.operators import VelocityBoost, apply_operator
from qclocksim.spectrum import ladder_spectrum, make_spectrum
from qclocksim.states import (
    PlaneWaveState,
    fidelity_deviation,
    inner_product,
    internal_superposition,
    reduced_internal_entropy,
)

SPEC2 = ladder_spectrum(2, 0.1)
SPEC4 = ladder_spectrum(4, 0.04)


def plane_wave(spectrum, level, momentum):
    """The single component |level> |momentum>."""
    return PlaneWaveState.from_components(spectrum, [(level, momentum, 1.0)])


def components(state):
    """The (level, momentum, amplitude) triples of a state, in order."""
    return list(zip(state.levels.tolist(), state.momenta.tolist(), state.amplitudes.tolist()))


def level_weights(state):
    """Probability of each internal level, summed over momenta."""
    return np.bincount(state.levels, np.abs(state.amplitudes) ** 2, state.spectrum.dim)


def test_plane_wave_is_a_single_unit_component():
    state = plane_wave(SPEC2, 1, 0.05)
    assert state.norm() == pytest.approx(1.0, abs=1e-15)
    assert components(state) == [(1, 0.05, (1 + 0j))]


def test_duplicate_components_merge():
    state = PlaneWaveState.from_components(
        SPEC2, [(0, 0.1, 0.5), (0, 0.1, 0.5), (1, 0.0, 1.0)]
    )
    # Two identical components became one with the summed amplitude.
    assert len(state.levels) == 2
    weights = level_weights(state)
    assert weights[0] == pytest.approx(0.5, abs=1e-15)
    assert weights[1] == pytest.approx(0.5, abs=1e-15)


def test_components_sort_by_level_then_momentum():
    state = PlaneWaveState.from_components(
        SPEC2, [(1, -0.1, 1.0), (0, 0.2, 1.0), (0, -0.2, 1.0), (1, 0.1, 1.0)]
    )
    keys = [(n, p) for n, p, _ in components(state)]
    assert keys == sorted(keys)


def test_total_cancellation_is_an_error():
    with pytest.raises(ValueError):
        PlaneWaveState.from_components(SPEC2, [(0, 0.0, 1.0), (0, 0.0, -1.0)])


def test_from_components_normalizes_and_the_constructor_requires_unit_norm():
    state = PlaneWaveState.from_components(SPEC2, [(0, 0.0, 0.5)])
    assert components(state) == [(0, 0.0, (1 + 0j))]
    with pytest.raises(ValueError, match="state norm 0.5 deviates from 1"):
        PlaneWaveState(SPEC2, np.array([0]), np.array([0.0]), np.array([0.5 + 0j]))


def test_level_bounds_are_checked():
    with pytest.raises(ValueError):
        plane_wave(SPEC2, 2, 0.0)


def test_amplitudes_are_read_only():
    state = internal_superposition(SPEC2, 0.0)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_internal_superposition_defaults_to_equal_weights():
    state = internal_superposition(SPEC4, 0.3)
    np.testing.assert_allclose(level_weights(state), 0.25, atol=1e-15)
    np.testing.assert_allclose(state.momenta, 0.3)


def test_inner_product_matches_and_orthogonality():
    a = plane_wave(SPEC2, 0, 0.0)
    b = plane_wave(SPEC2, 0, 0.2)
    assert inner_product(a, a) == pytest.approx(1.0, abs=1e-15)
    assert inner_product(a, b) == 0.0  # distinct momenta never overlap
    c = plane_wave(SPEC2, 1, 0.0)
    assert inner_product(a, c) == 0.0  # distinct levels never overlap


def test_inner_product_rejects_mismatched_spectra():
    with pytest.raises(ValueError):
        inner_product(plane_wave(SPEC2, 0, 0.0), plane_wave(SPEC4, 0, 0.0))


def test_fidelity_deviation_vanishes_on_itself():
    state = internal_superposition(SPEC4, 0.1)
    assert fidelity_deviation(state, state) <= 1e-15


def test_product_state_has_zero_entropy():
    state = internal_superposition(SPEC4, 0.2)
    assert abs(reduced_internal_entropy(state)) <= 1e-12


@pytest.mark.parametrize("dim,spacing", [(2, 0.1), (4, 0.04)])
def test_boosted_equal_superposition_is_maximally_entangled(dim, spacing):
    spec = ladder_spectrum(dim, spacing)
    state = apply_operator(internal_superposition(spec, 0.0), VelocityBoost(0.01))
    assert reduced_internal_entropy(state) == pytest.approx(math.log(dim), abs=1e-10)


def test_entropy_of_unbalanced_boosted_state_matches_eigenvalue_oracle():
    # Boost separates the two branches into orthogonal momenta, so the
    # reduced internal state is diagonal with the level weights as
    # eigenvalues.  Recompute that directly as an oracle.
    amps = [math.sqrt(0.9), math.sqrt(0.1)]
    state = apply_operator(
        PlaneWaveState.from_components(SPEC2, [(n, 0.0, a) for n, a in enumerate(amps)]),
        VelocityBoost(0.02),
    )
    # Oracle: build the reduced density matrix by hand from the components.
    rho = np.zeros((2, 2), dtype=complex)
    comps = components(state)
    momenta = sorted(set(p for _, p, _ in comps))
    for p in momenta:
        vec = np.zeros(2, dtype=complex)
        for n, q, a in comps:
            if q == p:
                vec[n] = a
        rho += np.outer(vec, vec.conj())
    eigs = np.linalg.eigvalsh(rho)
    expected = -sum(float(v) * math.log(float(v)) for v in eigs if v > 1e-18)
    assert reduced_internal_entropy(state) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-(0.9 * math.log(0.9) + 0.1 * math.log(0.1)), abs=1e-12)


def test_entropy_is_basis_independent_for_unboosted_states():
    # Unequal amplitudes alone do not entangle anything.
    state = PlaneWaveState.from_components(
        SPEC4, [(n, 0.1, a) for n, a in enumerate([1.0, 2.0, 0.5, 1.5])]
    )
    assert abs(reduced_internal_entropy(state)) <= 1e-12


def _loop_inner_product(bra, ket):
    """Reference: merge the sorted component lists one pair at a time."""
    total = 0.0 + 0.0j
    i = j = 0
    while i < len(bra.levels) and j < len(ket.levels):
        key_b = (int(bra.levels[i]), float(bra.momenta[i]))
        key_k = (int(ket.levels[j]), float(ket.momenta[j]))
        if key_b[0] == key_k[0] and abs(key_b[1] - key_k[1]) <= 1e-12:
            total += np.conj(bra.amplitudes[i]) * ket.amplitudes[j]
            i += 1
            j += 1
        elif key_b < key_k:
            i += 1
        else:
            j += 1
    return complex(total)


def _loop_entropy(state):
    """Reference: one run's reduced density matrix, built and diagonalized alone."""
    order = np.argsort(state.momenta)
    ids = np.empty(len(state.momenta), dtype=np.int64)
    ids[order] = np.concatenate(([0], np.cumsum(np.diff(state.momenta[order]) > 1e-12)))
    amp = np.zeros((state.spectrum.dim, int(ids.max()) + 1), dtype=complex)
    amp[state.levels, ids] = state.amplitudes
    eigs = np.linalg.eigvalsh(amp @ amp.conj().T)
    eigs = eigs[eigs > 1e-18]
    return float(-np.sum(eigs * np.log(eigs)))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=5))
def test_batched_inner_product_and_entropy_equal_the_loop_references_bit_for_bit(seed, runs):
    # Nine components over four levels, sorted and distinct within a level as
    # from_components leaves them.  The ket moves some components off the
    # bra's momenta, so they find no partner, and runs differ in how many
    # momenta coincide across levels, hence in cluster count.
    rng = np.random.default_rng(seed)
    levels = np.repeat(np.arange(4), [3, 2, 2, 2])
    grid = np.arange(6) * 0.01
    bra_momenta = np.array([
        np.concatenate([np.sort(rng.choice(grid, size=k, replace=False)) for k in (3, 2, 2, 2)])
        for _ in range(runs)
    ])
    ket_momenta = bra_momenta + 0.005 * rng.integers(0, 2, size=bra_momenta.shape)
    amps = rng.normal(size=(2, runs, 9)) + 1j * rng.normal(size=(2, runs, 9))
    amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
    products = inner_product(
        PlaneWaveState(SPEC4, levels, bra_momenta, amps[0]),
        PlaneWaveState(SPEC4, levels, ket_momenta, amps[1]),
    )
    entropies = reduced_internal_entropy(PlaneWaveState(SPEC4, levels, ket_momenta, amps[1]))
    for r in range(runs):
        bra = PlaneWaveState(SPEC4, levels, bra_momenta[r], amps[0, r])
        ket = PlaneWaveState(SPEC4, levels, ket_momenta[r], amps[1, r])
        assert complex(products[r]) == _loop_inner_product(bra, ket)
        assert entropies[r] == _loop_entropy(ket)
