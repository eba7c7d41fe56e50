"""Unit conventions and validity-regime policing.

Everything in this package is computed in natural units: hbar = c = 1 and the
ground-branch rest mass m = 1.  All user-facing numbers are therefore
dimensionless ratios

    epsilon_n = E_n / (m c^2)     internal level energy
    beta      = v / c             boost velocity
    pi        = p / (m c)         momentum
    theta     = t m c^2 / hbar    evolution time

The model expands kinetic terms to first order in p^2/(m M c^2), so it is only
trustworthy while internal energies and momenta stay small.  check_epsilons,
check_kicks and check_momentum enforce that, and check_phases the phase cap
(PhaseCapError): every value out of bounds raises RegimeError, at run and at
load alike.  Each engine lists the momenta its runs reach, the operator chain
in trace_chain and the grid engines in impulse_kicks and trotter_kicks, and the
loader checks those same lists.
require_positive and require_nonnegative are the sign rules of every positive
or nonnegative input, NaN refused.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PhaseCapError, RegimeError

# CODATA SI constants, used only to convert user input into ratios.
SPEED_OF_LIGHT = 299_792_458.0  # m / s
HBAR = 1.054_571_817e-34  # J s
PLANCK = 2.0 * math.pi * HBAR  # J s

# Phase arithmetic is done in doubles; beyond ~1e6 rad the sub-radian part of
# a phase carries fewer than 10 significant digits and mod-2pi comparisons
# stop being meaningful.
MAX_TOTAL_PHASE = 1.0e6

# Validity bounds of the low-energy expansion: internal energies stay below
# EPS_MAX (epsilon_n < EPS_MAX) and squared momenta, boost kicks included,
# below KAPPA_MAX (|pi + (1+eps) beta|^2 < KAPPA_MAX).  Both are engineering
# choices, not physics constants.
EPS_MAX = 0.2
KAPPA_MAX = 0.1


def require_positive(name: str, value) -> None:
    """Refuse a value, or an array with an entry, that is not positive (NaN included)."""
    if not np.all(np.asarray(value) > 0.0):
        raise ValueError(f"{name} must be positive, got {value!r}")


def require_nonnegative(name: str, value) -> None:
    if not value >= 0.0:
        raise ValueError(f"{name} must be nonnegative, got {value!r}")


def check_epsilons(epsilons) -> None:
    worst = np.max(epsilons)
    # NaN compares false both ways, so a level passes only below the bound.
    if not worst < EPS_MAX:
        raise RegimeError(
            f"internal energy ratio {worst} >= eps_max = {EPS_MAX}; "
            "the first-order mass-energy expansion is not valid there"
        )


def check_kicks(kicks) -> None:
    """Raise RegimeError if the momenta after any kick leave the regime.

    kicks holds one (context, momenta) pair per kick of a chain.  momenta
    may carry a leading run axis: the error names the first run that leaves
    the regime (in run order, then chain order) and carries its index.
    """
    worst = np.stack(np.broadcast_arrays(*(
        np.max(np.square(np.asarray(m, dtype=float)), axis=-1, initial=0.0) for _, m in kicks
    )), axis=-1)
    # NaN compares false both ways, so a kick passes only below the bound.
    offending = np.argwhere(~(worst < KAPPA_MAX))
    if len(offending):
        index = offending[0]
        raise RegimeError(
            f"{kicks[index[-1]][0]}: squared momentum ratio {worst[tuple(index)]:.6g} >= "
            f"kappa_max = {KAPPA_MAX}; results are outside the model's validity regime",
            run=int(index[0]) if worst.ndim > 1 else None,
        )


def check_momentum(momentum: float) -> None:
    """Raise RegimeError for a state that starts outside the regime, before any kick."""
    check_kicks([("momentum", [momentum])])


def check_phases(phases) -> None:
    """Raise PhaseCapError past MAX_TOTAL_PHASE, carrying the first such run of a run axis."""
    over = np.flatnonzero(np.max(np.abs(phases), axis=-1) > MAX_TOTAL_PHASE)
    if len(over):
        raise PhaseCapError("accumulated phase exceeds the mod-2pi safety cap; shorten the run",
                            run=int(over[0]) if np.ndim(phases) > 1 else None)


def epsilon_from_energy(energy_joule: float, mass_kg: float) -> float:
    """Internal energy in joules -> epsilon = E / (m c^2)."""
    return energy_joule / (mass_kg * SPEED_OF_LIGHT**2)


def epsilon_from_frequency(freq_hz: float, mass_kg: float) -> float:
    """Transition frequency in Hz -> epsilon = h f / (m c^2)."""
    return PLANCK * freq_hz / (mass_kg * SPEED_OF_LIGHT**2)


def beta_from_velocity(velocity_mps: float) -> float:
    return velocity_mps / SPEED_OF_LIGHT

