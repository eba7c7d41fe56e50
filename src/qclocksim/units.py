"""Unit conventions and validity-regime policing.

Everything in this package is computed in natural units: hbar = c = 1 and the
ground-branch rest mass m = 1.  All user-facing numbers are therefore
dimensionless ratios

    epsilon_n = E_n / (m c^2)     internal level energy
    beta      = v / c             boost velocity
    pi        = p / (m c)         momentum
    theta     = t m c^2 / hbar    evolution time

The model expands kinetic terms to first order in p^2/(m M c^2), so it is only
trustworthy while internal energies and momenta stay small.  RegimeGuard
enforces that: epsilon bounds are hard errors (they are preconditions of the
spectrum), momentum bounds warn by default and raise in strict mode.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import RegimeError, RegimeWarning

# CODATA SI constants, used only to convert user input into ratios.
SPEED_OF_LIGHT = 299_792_458.0  # m / s
HBAR = 1.054_571_817e-34  # J s
PLANCK = 2.0 * math.pi * HBAR  # J s

# Phase arithmetic is done in doubles; beyond ~1e6 rad the sub-radian part of
# a phase carries fewer than 10 significant digits and mod-2pi comparisons
# stop being meaningful.
MAX_TOTAL_PHASE = 1.0e6


@dataclass(frozen=True)
class RegimeGuard:
    """Validity bounds for the low-energy expansion.

    eps_max bounds internal energies (epsilon_n < eps_max), kappa_max bounds
    squared momenta including boost kicks (|pi + (1+eps) beta|^2 < kappa_max).
    Both defaults are engineering choices, not physics constants.
    """

    eps_max: float = 0.2
    kappa_max: float = 0.1
    strict: bool = False

    def check_epsilons(self, epsilons) -> None:
        worst = max(epsilons)
        if worst >= self.eps_max:
            raise RegimeError(
                f"internal energy ratio {worst} >= eps_max = {self.eps_max}; "
                "the first-order mass-energy expansion is not valid there"
            )

    def check_kicks(self, kicks) -> bool:
        """Warn (or raise when strict) if the momenta after any kick leave the regime.

        kicks holds one (context, momenta) pair per kick of a chain.  momenta
        may carry a leading run axis: each run that leaves the regime is
        reported once per such kick, in run order, then chain order; in
        strict mode the error carries the first such run's index.
        Returns True when everything is in regime.
        """
        worst = np.stack(np.broadcast_arrays(*(
            np.max(np.square(np.asarray(m, dtype=float)), axis=-1, initial=0.0) for _, m in kicks
        )), axis=-1)
        offending = np.argwhere(worst >= self.kappa_max)
        for index in offending:
            msg = (
                f"{kicks[index[-1]][0]}: squared momentum ratio {worst[tuple(index)]:.6g} >= "
                f"kappa_max = {self.kappa_max}; results are outside the model's validity regime"
            )
            if self.strict:
                raise RegimeError(msg, run=int(index[0]) if worst.ndim > 1 else None)
            warnings.warn(msg, RegimeWarning, stacklevel=3)
        return len(offending) == 0


DEFAULT_GUARD = RegimeGuard()


def epsilon_from_energy(energy_joule: float, mass_kg: float) -> float:
    """Internal energy in joules -> epsilon = E / (m c^2)."""
    return energy_joule / (mass_kg * SPEED_OF_LIGHT**2)


def epsilon_from_frequency(freq_hz: float, mass_kg: float) -> float:
    """Transition frequency in Hz -> epsilon = h f / (m c^2)."""
    return PLANCK * freq_hz / (mass_kg * SPEED_OF_LIGHT**2)


def beta_from_velocity(velocity_mps: float) -> float:
    return velocity_mps / SPEED_OF_LIGHT

