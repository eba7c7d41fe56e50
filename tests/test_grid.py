"""Lattice wavepackets and their momentum amplitudes."""

import numpy as np
import pytest

from qclocksim.grid import GridState, gaussian_grid_state
from qclocksim.spectrum import ladder_spectrum, make_spectrum

SPEC = ladder_spectrum(2, 0.1)


def test_grid_size_must_be_a_power_of_two():
    amps = np.ones((2, 48), dtype=complex)
    amps /= np.linalg.norm(amps)
    with pytest.raises(ValueError, match="lattice size 48 must be a positive power of two"):
        GridState(spectrum=SPEC, box_length=32.0, amplitudes=amps)


@pytest.mark.parametrize("size", [0, -4, 100])
def test_a_packet_on_a_lattice_size_that_is_not_a_power_of_two_is_refused(size):
    # Refused before the lattice spacing box_length / size is formed.
    with pytest.raises(ValueError, match=f"lattice size {size} must be a positive power of two"):
        gaussian_grid_state(SPEC, size=size, box_length=32.0, sigma=2.0)


def test_grid_state_must_be_normalized():
    with pytest.raises(ValueError):
        GridState(spectrum=SPEC, box_length=32.0, amplitudes=np.ones((2, 64), dtype=complex))


def test_lattice_geometry():
    state = gaussian_grid_state(SPEC, size=128, box_length=32.0, sigma=2.0)
    assert state.size == 128
    assert state.positions[0] == -16.0
    assert state.positions[1] - state.positions[0] == pytest.approx(0.25)
    # Momentum lattice is in FFT order with spacing 2 pi / L.
    spacing = 2.0 * np.pi / 32.0
    assert state.momenta[0] == 0.0
    assert state.momenta[1] == pytest.approx(spacing, rel=1e-15)
    assert state.momenta[64] == pytest.approx(-64 * spacing, rel=1e-15)


def test_momentum_amplitudes_match_the_explicit_dft():
    # psi~(p) = (1/sqrt D) sum_j e^{-i p x_j} psi(x_j), summed term by term.
    state = gaussian_grid_state(SPEC, size=128, box_length=32.0, sigma=2.0, momentum=0.2)
    kernel = np.exp(-1j * np.outer(state.momenta, state.positions)) / np.sqrt(state.size)
    np.testing.assert_allclose(
        state.momentum_amplitudes(), state.amplitudes @ kernel.T, atol=1e-12
    )


def test_transform_preserves_norm():
    state = gaussian_grid_state(SPEC, size=256, box_length=64.0, sigma=3.5, momentum=0.1)
    tilde = state.momentum_amplitudes()
    assert np.linalg.norm(tilde) == pytest.approx(1.0, abs=1e-13)


def test_position_delta_spreads_flat_over_momentum():
    spec1 = make_spectrum([0.0])
    amps = np.zeros((1, 64), dtype=complex)
    amps[0, 0] = 1.0  # delta sitting exactly on the box edge
    state = GridState(spectrum=spec1, box_length=32.0, amplitudes=amps)
    tilde = state.momentum_amplitudes()
    np.testing.assert_allclose(np.abs(tilde[0]), 1.0 / 8.0, atol=1e-14)
    # A delta at the edge is all edge mass: wraparound would corrupt any evolution.
    assert state.edge_mass() == 1.0


def test_gaussian_moments():
    sigma = 3.0
    state = gaussian_grid_state(SPEC, size=256, box_length=64.0, sigma=sigma, momentum=0.25)
    prob_x = np.sum(np.abs(state.amplitudes) ** 2, axis=0)
    x = state.positions
    mean_x = float(prob_x @ x)
    var_x = float(prob_x @ (x - mean_x) ** 2)
    assert mean_x == pytest.approx(0.0, abs=1e-10)
    assert np.sqrt(var_x) == pytest.approx(sigma, rel=1e-6)

    prob_p = np.sum(np.abs(state.momentum_amplitudes()) ** 2, axis=0)
    p = state.momenta
    mean_p = float(prob_p @ p)
    var_p = float(prob_p @ (p - mean_p) ** 2)
    assert mean_p == pytest.approx(0.25, rel=1e-8)
    # Minimum-uncertainty packet: sigma_x sigma_p = 1/2.
    assert np.sqrt(var_x * var_p) == pytest.approx(0.5, rel=1e-4)


def test_edge_mass_sees_an_offcenter_packet():
    centered = gaussian_grid_state(SPEC, size=128, box_length=32.0, sigma=2.0)
    shifted = gaussian_grid_state(SPEC, size=128, box_length=32.0, sigma=2.0, center=14.0)
    assert centered.edge_mass() < 1e-12
    assert shifted.edge_mass() > 1e-3


def test_the_packet_is_the_same_on_every_level():
    state = gaussian_grid_state(SPEC, size=64, box_length=32.0, sigma=2.0, momentum=0.1)
    assert np.array_equal(state.amplitudes[0], state.amplitudes[1])
    assert np.sum(np.abs(state.amplitudes[0]) ** 2) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize(
    "box_length, sigma, name",
    [(32.0, 0.0, "sigma"), (32.0, -2.0, "sigma"), (-32.0, 2.0, "box_length")],
)
def test_a_packet_width_or_box_that_is_not_positive_is_refused(box_length, sigma, name):
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        gaussian_grid_state(SPEC, size=64, box_length=box_length, sigma=sigma)
