"""Internal spectra: construction, masses, validation."""

import numpy as np
import pytest

from qclocksim.errors import RegimeError
from qclocksim.spectrum import InternalSpectrum, ladder_spectrum, make_spectrum


def test_ladder_spectrum_values():
    spec = ladder_spectrum(4, 0.05)
    assert spec.dim == 4
    assert spec.epsilons == (0.0, 0.05, 0.1, 0.15000000000000002)
    np.testing.assert_allclose(spec.masses, [1.0, 1.05, 1.1, 1.15], rtol=1e-15)
    assert spec.mass(2) == 1.0 + spec.epsilons[2]


@pytest.mark.parametrize("level", [-1, 4])
def test_mass_refuses_a_level_outside_the_spectrum(level):
    # A negative index must not alias the top level.
    with pytest.raises(ValueError, match="outside"):
        ladder_spectrum(4, 0.05).mass(level)


def test_ground_level_must_sit_at_zero():
    with pytest.raises(ValueError):
        make_spectrum([0.1, 0.2])


def test_levels_must_strictly_increase():
    with pytest.raises(ValueError):
        make_spectrum([0.0, 0.1, 0.1])
    with pytest.raises(ValueError):
        make_spectrum([0.0, 0.2, 0.1])


def test_guard_rejects_out_of_regime_spectrum():
    with pytest.raises(RegimeError):
        make_spectrum([0.0, 0.3])


def test_spectra_compare_by_levels():
    a = make_spectrum([0.0, 0.1])
    b = make_spectrum([0.0, 0.1])
    c = make_spectrum([0.0, 0.12])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_single_level_spectrum_is_allowed():
    spec = make_spectrum([0.0])
    assert spec.dim == 1
    assert spec.mass(0) == 1.0


def test_spectrum_is_immutable():
    spec = ladder_spectrum(2, 0.1)
    with pytest.raises(AttributeError):
        spec.epsilons = (0.0, 0.2)
    assert isinstance(spec, InternalSpectrum)
