"""Unit conversions and regime policing."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qclocksim.errors import RegimeError
from qclocksim.units import (
    EPS_MAX,
    KAPPA_MAX,
    PLANCK,
    SPEED_OF_LIGHT,
    beta_from_velocity,
    check_epsilons,
    check_kicks,
    epsilon_from_energy,
    epsilon_from_frequency,
)


def test_light_speed_converts_to_unit_beta():
    assert beta_from_velocity(SPEED_OF_LIGHT) == 1.0
    assert beta_from_velocity(0.0) == 0.0


def test_rest_energy_converts_to_unit_epsilon():
    mass = 2.5e-26
    assert epsilon_from_energy(mass * SPEED_OF_LIGHT**2, mass) == pytest.approx(1.0, rel=1e-15)


def test_frequency_conversion_uses_planck():
    mass = 1.0e-25
    f = 4.0e14
    expected = PLANCK * f / (mass * SPEED_OF_LIGHT**2)
    assert epsilon_from_frequency(f, mass) == expected


@given(st.floats(min_value=1e-30, max_value=1e30), st.floats(min_value=2.0, max_value=10.0))
def test_energy_conversion_is_linear(energy, scale):
    mass = 1e-25
    assert epsilon_from_energy(scale * energy, mass) == pytest.approx(
        scale * epsilon_from_energy(energy, mass), rel=1e-12
    )


def test_check_epsilons_rejects_large_internal_energies():
    check_epsilons([0.0, 0.1, 0.19])
    with pytest.raises(RegimeError):
        check_epsilons([0.0, 0.25])
    with pytest.raises(RegimeError):
        check_epsilons([0.2])  # the bound itself is excluded


def test_check_kicks_raises_for_the_first_run_out_of_regime():
    check_kicks([("state", [0.0, 0.1, -0.3])])
    with pytest.raises(RegimeError, match="state: squared momentum ratio 0.16 >= kappa_max") as exc:
        check_kicks([("state", [0.4])])
    assert exc.value.run is None
    # Runs 1 and 2 leave the regime, run 2 at the first kick, run 1 only at
    # the second: the error names run 1, the first in run order.
    first = np.array([[0.0], [0.1], [0.5]])
    second = np.array([[0.0], [0.4], [0.6]])
    with pytest.raises(RegimeError, match="^second: squared momentum ratio 0.16 ") as exc:
        check_kicks([("first", first), ("second", second)])
    assert exc.value.run == 1
    with pytest.raises(RegimeError):
        check_kicks([("edge", [math.sqrt(KAPPA_MAX)])])  # the bound itself is excluded


def test_regime_bounds():
    assert EPS_MAX == 0.2
    assert KAPPA_MAX == 0.1

