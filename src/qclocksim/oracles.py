"""The paper's closed forms: what the engines' measurements should come to.

The engines measure and return what they measured; this module predicts,
and the runners grade the one against the other.  An engine that knew its
own closed form could grade itself, so no engine imports this module; the
runner passes the ion scan its centre, the predicted carrier shift.

Every twin round trip collapses to a per-component phase

    Phi(n, p) = -2 t K(n, p) + G - 2 t epsilon_n d_n

with K the mass-corrected kinetic energy (unchanged motional evolution), G a
level-independent global phase, and d_n the internal dilation factor.  The
three sequence kinds differ only in G and d_n:

    momentum kick p_b    d_n = 1 - p_b^2 / (2 M_n)    G = + t p_b^2
    velocity kick v_b    d_n = 1 - v_b^2 / 2          G = + t v_b^2
    observer moves v_b   d_n = 1 + v_b^2 / 2          G = - t v_b^2

A kick of fixed momentum dilates each internal branch differently (the factor
depends on the branch mass M_n): that is the nonclassical fingerprint.  A
kick of fixed velocity dilates all branches equally, reproducing classical
time dilation.  When the observer moves instead of the clock, the internal
state runs fast rather than slow and the global phase flips sign.  An SWP
pointer clock takes the same factors as its dilation profile.

A trapped ion's excited branch is heavier by its transition energy u, so it
oscillates at w_e = w / sqrt(1 + u), and the clock line of motional level n
shifts by

    absolute shift   (n + 1/2) (w_e - w)
    relative shift   (n + 1/2) (w/u) (1/sqrt(1+u) - 1)
                   = -(n + 1/2) w/2 [1 - 3u/4 + ...]
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import kinetic_energy
from .sequences import SequenceKind
from .spectrum import InternalSpectrum


def closed_dilation_factor(kind: SequenceKind, spectrum: InternalSpectrum, boost: float, level,
                           state_dependent_translation: bool = False):
    """Internal dilation factor d_n predicted for a level or an array of levels."""
    if kind is SequenceKind.MOMENTUM:
        correction = boost * boost / (2.0 * spectrum.masses[..., level])
        return 1.0 + correction if state_dependent_translation else 1.0 - correction
    if kind is SequenceKind.VELOCITY_CLOCK:
        return 1.0 - 0.5 * boost * boost
    return 1.0 + 0.5 * boost * boost


def closed_global_phase(kind: SequenceKind, spectrum: InternalSpectrum, boost: float,
                        duration: float, translation_level: int | None = None) -> float:
    """Level-independent phase term G predicted for the sequence."""
    if kind is SequenceKind.MOMENTUM:
        if translation_level is None:
            return duration * boost * boost
        # Returning along the drift of a chosen branch mass only re-weights G.
        return duration * boost * boost * (2.0 / spectrum.mass(translation_level) - 1.0)
    if kind is SequenceKind.VELOCITY_CLOCK:
        return duration * boost * boost
    return -duration * boost * boost


def closed_form_phase(kind: SequenceKind, spectrum: InternalSpectrum, boost: float,
                      duration: float, level, momentum, translation_level: int | None = None,
                      state_dependent_translation: bool = False):
    """Unwrapped phase |level, momentum> acquires; level and momentum broadcast."""
    motional = -2.0 * duration * kinetic_energy(spectrum, level, momentum)
    g = closed_global_phase(kind, spectrum, boost, duration, translation_level)
    d = closed_dilation_factor(kind, spectrum, boost, level, state_dependent_translation)
    return motional + g - 2.0 * duration * np.asarray(spectrum.epsilons)[..., level] * d


def lorentz_gamma(kind: SequenceKind, spectrum: InternalSpectrum, boost, level):
    """Lorentz factor of a branch, or an array of branches, after the
    sequence's first kick: a velocity kick gives every branch the same speed,
    a momentum kick gives branch n the speed p_b / M_n."""
    # float_power is libm pow, as a float's ** is; numpy's ** 2 squares.
    return np.sqrt(1.0 + np.float_power(boost, 2) / (
        np.float_power(spectrum.masses[..., level], 2) if kind is SequenceKind.MOMENTUM else 1.0
    ))


def swp_dilation_factors(profile: str, dim: int, boost: float,
                         spectrum: InternalSpectrum | None = None) -> np.ndarray:
    """The factors d_n of an SWP profile over `dim` clock levels: none, the
    velocity or observer round trip's uniform factor, or the momentum round
    trip's level-dependent factor on `spectrum`, which makes it nonclassical."""
    if profile == "none":
        return np.ones(dim)
    if profile == "momentum-nonclassical":
        return closed_dilation_factor(SequenceKind.MOMENTUM, spectrum, boost, np.arange(dim))
    kind = {"velocity-classical": SequenceKind.VELOCITY_CLOCK,
            "observer-classical": SequenceKind.VELOCITY_OBSERVER}[profile]
    return np.full(dim, closed_dilation_factor(kind, None, boost, None))


@dataclass(frozen=True)
class BranchOracle:
    """Closed-form clock-shift predictions for one motional level."""

    carrier_shift: float  # (n + 1/2)(w_e - w) with w_e = w / sqrt(1 + u), absolute
    relative_shift: float  # carrier_shift / u; nan when u = 0
    first_order_relative: float  # -(n + 1/2) w / 2
    second_order_term: float  # exact next Taylor term, +(3/8) u w (n + 1/2)
    second_order_variant: float  # alternative coefficient, +(1/2) u w (n + 1/2)


def branch_spectrum_oracle(model) -> BranchOracle:
    """Predict the clock shift of an `ionclock.TrapModel` from the exact branch spectra.

    Both candidate second-order coefficients of the relative shift are
    reported: the exact Taylor expansion of (w/u)(1/sqrt(1+u) - 1) gives
    +(3/8) u w per (n + 1/2), while a variant form, first order times
    (1 - u), gives +(1/2) u w.  Nothing here asserts either; the comparison
    report carries both so the reader can see which the oracle supports.
    """
    u = model.transition_energy
    w = model.trap_frequency
    n_half = model.fock_index + 0.5
    w_e = float(w / np.sqrt(1.0 + u))
    carrier = n_half * (w_e - w)
    relative = carrier / u if u > 0.0 else float("nan")
    return BranchOracle(
        carrier_shift=carrier,
        relative_shift=relative,
        first_order_relative=-n_half * w / 2.0,
        second_order_term=0.375 * u * w * n_half,
        second_order_variant=0.5 * u * w * n_half,
    )
