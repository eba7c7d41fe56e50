"""Exact operators on plane-wave states of a composite particle.

The free Hamiltonian of a particle whose internal energy contributes to its
inertia is, per internal branch n (natural units, M_n = 1 + epsilon_n):

    E(n, p) = p^2 / (2 M_n) + epsilon_n
            = p^2 / 2 + epsilon_n (1 - p^2 / (2 M_n))

The second form is how we evaluate it: the branch-independent p^2/2 is split
from the small mass-energy correction, so the inter-branch phase differences
that carry the time-dilation signal are not lost to rounding in the large
common term.

Every operator here maps one component to one component:

    momentum boost   |n, p> -> |n, p + p_b>              (no internal coupling)
    velocity boost   |n, p> -> |n, p + M_n v_b>          (internal-state kick)
    translation      |n, p> -> e^{-i p s}   |n, p>
    free evolution   |n, p> -> e^{-i t E(n,p)} |n, p>

Operators are described by small frozen dataclasses so sequences can be built,
inspected and replayed as data.  Each operator acts on whole component arrays:
``momentum_after`` and ``phase_increment`` take level and momentum arrays
(scalars broadcast) and return the new momenta and the real phase increments,
which lets sequence runners accumulate unwrapped phase without ever touching
mod-2pi arithmetic.  A batch of runs adds a leading run axis: operator
parameters become (runs, 1) columns and momenta (runs, components) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import InternalSpectrum
from .states import PlaneWaveState
from .units import check_kicks


@dataclass(frozen=True)
class MomentumBoost:
    """e^{i p_b x}: shifts every component's momentum by the same p_b."""

    magnitude: float


@dataclass(frozen=True)
class VelocityBoost:
    """e^{i M v_b x}: shifts branch n by M_n v_b (mass operator in the kick)."""

    magnitude: float


@dataclass(frozen=True)
class Translation:
    """e^{-i p s}: pure momentum-dependent phase, shift by s in position."""

    shift: float


@dataclass(frozen=True)
class BranchTranslation:
    """Translation by a branch-dependent distance shift / M_n.

    This is the (experimental) internal-state-dependent return translation:
    it moves each branch by its own classical drift distance.
    """

    shift: float


@dataclass(frozen=True)
class FreeEvolution:
    """e^{-i t E(n, p)} with the mass-corrected kinetic term."""

    duration: float


OperatorSpec = MomentumBoost | VelocityBoost | Translation | BranchTranslation | FreeEvolution


def kinetic_energy(spectrum: InternalSpectrum, level, p):
    """p^2 / (2 M_n), evaluated as p^2/2 minus the mass-energy correction.

    level and p may be arrays of equal or broadcastable shape.
    """
    half_psq = 0.5 * np.asarray(p) * p
    eps = np.asarray(spectrum.epsilons)[..., level]
    return half_psq - eps * (half_psq / (1.0 + eps))


def total_energy(spectrum: InternalSpectrum, level, p):
    """Kinetic plus internal energy, with the dilation factor kept grouped.

    E = p^2/2 + epsilon_n (1 - p^2 / (2 M_n)): the internal term is the level
    energy times its motional dilation factor.  level and p broadcast.
    """
    half_psq = 0.5 * np.asarray(p) * p
    eps = np.asarray(spectrum.epsilons)[..., level]
    return half_psq + eps * (1.0 - half_psq / (1.0 + eps))


def momentum_after(op: OperatorSpec, spectrum: InternalSpectrum, level, p):
    """Momentum label of |level, p> after applying op (level and p broadcast)."""
    if isinstance(op, MomentumBoost):
        return p + op.magnitude
    if isinstance(op, VelocityBoost):
        return p + spectrum.masses[..., level] * op.magnitude
    return p


def phase_increment(op: OperatorSpec, spectrum: InternalSpectrum, level, p):
    """Real phase added to |level, p> by op (amplitude gains e^{i phase})."""
    p = np.asarray(p, dtype=float)
    if isinstance(op, Translation):
        return -p * op.shift
    if isinstance(op, BranchTranslation):
        return -p * (op.shift / spectrum.masses[..., level])
    if isinstance(op, FreeEvolution):
        return -op.duration * total_energy(spectrum, level, p)
    return np.zeros_like(p)


def trace_chain(state: PlaneWaveState, ops) -> tuple[PlaneWaveState, np.ndarray]:
    """Apply a chain and also return per-component unwrapped phase totals.

    Each operator is one array map on (levels, momenta, amplitudes), for all
    runs of a batch.  The phase array sums the same ``phase_increment``
    values the amplitudes are rotated by, as plain real numbers, so it is
    free of mod-2pi ambiguity and can be differenced across components
    safely.  The regime check of the kicks and the output state's validation
    run once, at the end.
    """
    spectrum = state.spectrum
    levels = state.levels
    momenta = state.momenta
    amps = state.amplitudes
    phases = np.zeros(len(levels))
    kicks = []
    for op in ops:
        increment = phase_increment(op, spectrum, levels, momenta)
        phases = phases + increment
        # One rotation per operator, as the operators act; a single
        # exp(1j * phases) at the end rounds differently in the last bits.
        amps = amps * np.exp(1j * increment)
        momenta = momentum_after(op, spectrum, levels, momenta)
        if isinstance(op, (MomentumBoost, VelocityBoost)):
            kicks.append((type(op).__name__, momenta))
    if kicks:
        check_kicks(kicks)
    return state.with_amplitudes(amps, momenta=momenta), phases


def apply_operator(state: PlaneWaveState, op: OperatorSpec) -> PlaneWaveState:
    """Apply one operator, returning a new state (input never mutated)."""
    return trace_chain(state, [op])[0]
