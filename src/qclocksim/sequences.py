"""Out-and-back boost sequences, executed and measured.

Each sequence boosts a composite particle away, lets it evolve freely, brings
it back, and evolves again for the same duration.  Because boosts, internal
evolution and translations all act diagonally on (level, momentum) components,
the whole round trip collapses to a per-component phase

    Phi(n, p) = -2 t K(n, p) + G - 2 t epsilon_n d_n

with K the mass-corrected kinetic energy, G a level-independent global phase
and d_n the internal dilation factor of level n.

``run_sequence`` executes the operator chain step by step and reads G and
d_n off the accumulated phases.  It only measures: the closed forms that
predict G and d_n live in ``oracles``, and the runners grade the one against
the other.  A sweep runs as one batch: boost, duration and the levels carry
a leading run axis, and every run goes through the same array passes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import LevelResolutionError, SequencingError
from .operators import (
    BranchTranslation,
    FreeEvolution,
    MomentumBoost,
    OperatorSpec,
    Translation,
    VelocityBoost,
    apply_operator,
    kinetic_energy,
    trace_chain,
)
from .spectrum import InternalSpectrum, require_two_levels
from .states import (
    MERGE_TOL,
    PlaneWaveState,
    internal_superposition,
    reduced_internal_entropy,
)
from .units import check_momentum, check_phases, require_positive


class SequenceKind(enum.Enum):
    MOMENTUM = "momentum"
    VELOCITY_CLOCK = "velocity-clock"
    VELOCITY_OBSERVER = "velocity-observer"


def default_probe(
    spectrum: InternalSpectrum,
    momenta=(0.0, 0.1),
    levels=None,
) -> PlaneWaveState:
    """Equal-amplitude probe over two levels and two momenta (where available)."""
    if levels is None:
        levels = (0, 1) if spectrum.dim >= 2 else (0,)
    return PlaneWaveState.from_components(
        spectrum, [(n, p, 1.0) for n in levels for p in momenta]
    )


def build_sequence(
    kind: SequenceKind,
    boost: float,
    duration: float,
    translation_level: int | None = None,
    spectrum: InternalSpectrum | None = None,
    state_dependent_translation: bool = False,
) -> list[OperatorSpec]:
    """Operator chain for one round trip, in application order (per run for columns)."""
    if translation_level is not None and state_dependent_translation:
        raise ValueError("choose either a translation level or the state-dependent variant")
    t = duration
    if kind is SequenceKind.MOMENTUM:
        drift = boost * t
        if state_dependent_translation:
            out_move: OperatorSpec = BranchTranslation(-drift)
            back_move: OperatorSpec = BranchTranslation(drift)
        else:
            if translation_level is not None:
                if spectrum is None:
                    raise ValueError("translation_level needs the spectrum")
                drift = boost * t / spectrum.mass(translation_level)
            out_move = Translation(-drift)
            back_move = Translation(drift)
        return [
            MomentumBoost(boost), FreeEvolution(t), out_move,
            MomentumBoost(-2.0 * boost), back_move,
            FreeEvolution(t), MomentumBoost(boost),
        ]
    if translation_level is not None or state_dependent_translation:
        raise ValueError("translation options only apply to the momentum-kick sequence")
    if kind is SequenceKind.VELOCITY_CLOCK:
        drift = boost * t
        return [
            VelocityBoost(boost), FreeEvolution(t), Translation(-drift),
            VelocityBoost(-2.0 * boost), Translation(drift),
            FreeEvolution(t), VelocityBoost(boost),
        ]
    if kind is SequenceKind.VELOCITY_OBSERVER:
        return [
            VelocityBoost(-boost), FreeEvolution(t),
            VelocityBoost(2.0 * boost),
            FreeEvolution(t), VelocityBoost(-boost),
        ]
    raise ValueError(f"unknown sequence kind {kind!r}")


@dataclass(frozen=True)
class SequenceResult:
    """What executed round trips measured: the phases and final state, and
    per-run fields that are floats for a single run and arrays along the run
    axis for a batch."""

    phases: np.ndarray
    final_state: PlaneWaveState
    global_phase: float
    level_factors: dict[int, float]
    level_phase_spread_max: float

    def __post_init__(self):
        """Refuse a factor outside (0, 2); `run` is the first run (in run order) with one."""
        d = np.reshape(list(self.level_factors.values()), (-1, np.size(self.global_phase))).T
        outside = np.argwhere(~((0.0 < d) & (d < 2.0)))
        if len(outside):
            run, i = outside[0]
            raise LevelResolutionError(f"extracted dilation factor {d[run, i]} for level "
                                       f"{list(self.level_factors)[i]} outside (0, 2)",
                                       run=int(run))


def _run_columns(spectrum: InternalSpectrum, *values):
    """The run shape, and per-run values as (runs, 1) columns (as given if there are no runs)."""
    runs = np.broadcast_shapes(*(np.shape(v) for v in values), spectrum.masses.shape[:-1])
    if runs:
        values = tuple(np.broadcast_to(np.asarray(v, float), runs)[..., None] for v in values)
    return runs, values


def run_sequence(
    kind: SequenceKind,
    spectrum: InternalSpectrum,
    boost,
    duration,
    probe: PlaneWaveState | None = None,
    translation_level: int | None = None,
    state_dependent_translation: bool = False,
) -> SequenceResult:
    """Execute round-trip sequences and measure their phases.

    boost and duration may hold one value per run and spectrum may be a stack
    (``stack_spectra``): the runs then share the probe's levels and momenta
    and go through the chain as one batch.

    The probe must occupy level 0: the ground branch carries no internal
    phase and anchors the global-phase extraction.  Dilation factors are read
    off the unwrapped per-component phases.
    """
    require_positive("duration", duration)
    probe = probe if probe is not None else default_probe(spectrum)
    if probe.spectrum != spectrum:
        raise ValueError("probe was built on a different spectrum")
    if 0 not in probe.levels:
        raise ValueError("probe must occupy level 0 to anchor phase extraction")
    runs, (b, t) = _run_columns(spectrum, boost, duration)

    def per_run(x):
        return np.reshape(x, runs) if runs else float(np.reshape(x, ()))

    ops = build_sequence(kind, b, t, translation_level=translation_level, spectrum=spectrum,
                         state_dependent_translation=state_dependent_translation)
    final, phases = trace_chain(probe, ops)

    momentum_err = np.max(np.abs(final.momenta - probe.momenta))
    if momentum_err > MERGE_TOL:
        raise SequencingError(f"sequence did not return momenta (max error {momentum_err:.3e})")
    check_phases(phases)

    # Strip the motional part; what is left must be momentum-independent
    # within each level: G - 2 t epsilon_n d_n.
    internal = phases + 2.0 * t * kinetic_energy(spectrum, probe.levels, probe.momenta)
    epsilons = np.asarray(spectrum.epsilons)
    # One stable sort cuts the components into per-level blocks in probe
    # order, so each level is read in one pass.  Level 0 comes first and
    # anchors G; every level above it has epsilon_n > 0, and any two levels
    # differ in energy (make_spectrum).
    order = np.argsort(probe.levels, kind="stable")
    occupied, starts = np.unique(probe.levels[order], return_index=True)
    blocks = np.split(internal[..., order], starts[1:], axis=-1)
    level_phase = [np.mean(vals, axis=-1, keepdims=True) for vals in blocks]
    spread_max = np.max([np.max(vals, axis=-1, keepdims=True)
                         - np.min(vals, axis=-1, keepdims=True) for vals in blocks], axis=0)
    factors = {n: (level_phase[0] - phase) / (2.0 * t * epsilons[..., [n]])
               for n, phase in zip(occupied.tolist()[1:], level_phase[1:])}
    return SequenceResult(
        phases=phases,
        final_state=final,
        global_phase=per_run(level_phase[0]),
        level_factors={n: per_run(d) for n, d in factors.items()},
        level_phase_spread_max=per_run(spread_max),
    )


@dataclass(frozen=True)
class FrameEntanglement:
    """Internal-motional entanglement before and after a velocity boost.

    entropy_after has one entry per run for a batch; the runs share the
    unboosted state and so its entropy.
    """

    entropy_before: float
    entropy_after: float
    state_before: PlaneWaveState = field(repr=False)


def entanglement_frame_demo(
    spectrum: InternalSpectrum,
    momentum: float,
    v_b,
) -> FrameEntanglement:
    """Boost a product state and watch entanglement appear with the frame.

    A single plane wave times an internal superposition is a product state
    (entropy 0).  A velocity boost sends each branch to its own momentum
    M_n v_b, so the same state seen from a moving frame is entangled: with
    k equally weighted levels the entropy lands on ln k.  v_b may hold one
    boost per run and spectrum may be a stack, as in ``run_sequence``.
    A momentum outside the regime raises RegimeError before the boost does.
    """
    require_two_levels(spectrum.dim)
    check_momentum(momentum)
    _, (v_b,) = _run_columns(spectrum, v_b)
    before = internal_superposition(spectrum, momentum)
    after = apply_operator(before, VelocityBoost(v_b))
    return FrameEntanglement(
        entropy_before=reduced_internal_entropy(before),
        entropy_after=reduced_internal_entropy(after),
        state_before=before,
    )
