"""Unit conversions and regime policing."""

import math

import pytest
from hypothesis import given, strategies as st

from qclocksim.errors import RegimeError, RegimeWarning
from qclocksim.units import (
    DEFAULT_GUARD,
    PLANCK,
    SPEED_OF_LIGHT,
    RegimeGuard,
    beta_from_velocity,
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


def test_guard_rejects_large_internal_energies():
    guard = RegimeGuard(eps_max=0.2)
    guard.check_epsilons([0.0, 0.1, 0.19])
    with pytest.raises(RegimeError):
        guard.check_epsilons([0.0, 0.25])
    with pytest.raises(RegimeError):
        guard.check_epsilons([0.2])  # the bound itself is excluded


def test_guard_warns_on_large_momenta_by_default():
    guard = RegimeGuard(kappa_max=0.1)
    assert guard.check_kicks([("state", [0.0, 0.1, -0.3])]) is True
    with pytest.warns(RegimeWarning):
        ok = guard.check_kicks([("state", [0.4])])
    assert ok is False


def test_strict_guard_escalates_momentum_warning():
    guard = RegimeGuard(kappa_max=0.1, strict=True)
    with pytest.raises(RegimeError):
        guard.check_kicks([("test", [0.5])])


def test_default_guard_bounds():
    assert DEFAULT_GUARD.eps_max == 0.2
    assert DEFAULT_GUARD.kappa_max == 0.1
    assert DEFAULT_GUARD.strict is False

