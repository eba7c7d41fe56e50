"""Internal level structure of a composite particle.

A particle with internal Hamiltonian eigenvalues E_n carries a different
inertial mass on every internal branch: M_n = m + E_n / c^2.  In natural
units (m = c = 1) that is M_n = 1 + epsilon_n.  The ground level defines the
mass scale, so epsilon_0 = 0 always.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .units import check_epsilons


@dataclass(frozen=True)
class InternalSpectrum:
    """Sorted internal energies (as fractions of the rest-mass energy); a stack
    (``stack_spectra``) holds one tuple per run, and masses gain a run axis."""

    epsilons: tuple

    @property
    def dim(self) -> int:
        return np.shape(self.epsilons)[-1]

    @property
    def masses(self) -> np.ndarray:
        """Per-branch masses M_n = 1 + epsilon_n (ground-state mass = 1)."""
        return 1.0 + np.asarray(self.epsilons, dtype=float)

    def mass(self, level: int):
        """M_level; for a stack, one per run as a column that broadcasts per component."""
        if not 0 <= level < self.dim:
            raise ValueError(f"level {level} is outside the spectrum (levels 0..{self.dim - 1})")
        return self.masses[level] if np.ndim(self.epsilons) == 1 else self.masses[:, level, None]


def stack_spectra(spectra) -> InternalSpectrum:
    """One spectrum for a batch of runs: shared when every run has the same levels."""
    if all(s == spectra[0] for s in spectra):
        return spectra[0]
    return InternalSpectrum(tuple(s.epsilons for s in spectra))


def make_spectrum(epsilons) -> InternalSpectrum:
    """Validate a list of dimensionless level energies into a spectrum.

    Levels must start at exactly 0, increase strictly, and stay below the
    regime bound units.EPS_MAX (hard error: the expansion is a precondition, not
    a diagnostic).
    """
    eps = tuple(float(e) for e in epsilons)
    if not eps:
        raise ValueError("spectrum needs at least one level")
    if eps[0] != 0.0:
        raise ValueError(f"lowest level must sit at 0 (got {eps[0]}); it defines the mass scale")
    for a, b in zip(eps, eps[1:]):
        if not b > a:
            raise ValueError(f"levels must increase strictly (got {a} then {b})")
    check_epsilons(eps)
    return InternalSpectrum(eps)


def ladder_spectrum(dim: int, spacing: float) -> InternalSpectrum:
    """Equally spaced levels epsilon_n = n * spacing, n = 0 .. dim-1."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if spacing <= 0.0 and dim > 1:
        raise ValueError("spacing must be positive")
    return make_spectrum([n * spacing for n in range(dim)])
