"""Out-and-back boost sequences and their closed-form time-dilation factors.

Each sequence boosts a composite particle away, lets it evolve freely, brings
it back, and evolves again for the same duration.  Because boosts, internal
evolution and translations all act diagonally on (level, momentum) components,
the whole round trip collapses to a per-component phase

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
state runs fast rather than slow and the global phase flips sign.

``run_sequence`` executes the operator chain step by step and extracts
G and d_n from the accumulated phases; the closed forms above are evaluated
independently and used as the oracle the run must reproduce.  A sweep runs
as one batch: boost, duration and the levels carry a leading run axis, and
every run goes through the same array passes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import IdentityViolationError, SequencingError
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
from .spectrum import InternalSpectrum
from .states import (
    MERGE_TOL,
    PlaneWaveState,
    fidelity_deviation,
    internal_superposition,
    reduced_internal_entropy,
)
from .units import MAX_TOTAL_PHASE


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


def closed_dilation_factor(
    kind: SequenceKind,
    spectrum: InternalSpectrum,
    boost: float,
    level,
    state_dependent_translation: bool = False,
):
    """Internal dilation factor d_n predicted for a level or an array of levels."""
    if kind is SequenceKind.MOMENTUM:
        correction = boost * boost / (2.0 * spectrum.masses[..., level])
        return 1.0 + correction if state_dependent_translation else 1.0 - correction
    if kind is SequenceKind.VELOCITY_CLOCK:
        return 1.0 - 0.5 * boost * boost
    return 1.0 + 0.5 * boost * boost


def closed_global_phase(
    kind: SequenceKind,
    spectrum: InternalSpectrum,
    boost: float,
    duration: float,
    translation_level: int | None = None,
) -> float:
    """Level-independent phase term G predicted for the sequence."""
    if kind is SequenceKind.MOMENTUM:
        if translation_level is None:
            return duration * boost * boost
        # Returning along the drift of a chosen branch mass only re-weights G.
        return duration * boost * boost * (2.0 / spectrum.mass(translation_level) - 1.0)
    if kind is SequenceKind.VELOCITY_CLOCK:
        return duration * boost * boost
    return -duration * boost * boost


def closed_form_phase(
    kind: SequenceKind,
    spectrum: InternalSpectrum,
    boost: float,
    duration: float,
    level,
    momentum,
    translation_level: int | None = None,
    state_dependent_translation: bool = False,
):
    """Unwrapped phase |level, momentum> acquires; level and momentum broadcast."""
    motional = -2.0 * duration * kinetic_energy(spectrum, level, momentum)
    g = closed_global_phase(kind, spectrum, boost, duration, translation_level)
    d = closed_dilation_factor(kind, spectrum, boost, level, state_dependent_translation)
    return motional + g - 2.0 * duration * np.asarray(spectrum.epsilons)[..., level] * d


@dataclass(frozen=True)
class SequenceResult:
    """Everything extracted from executed round trips: per-run fields are
    floats for a single run and arrays along the run axis for a batch."""

    phases: np.ndarray
    residual_max: float
    fidelity_deviation: float
    global_phase: float
    global_phase_closed: float
    level_factors: dict[int, float]
    level_factors_closed: dict[int, float]
    pair_factors: dict[tuple[int, int], float]
    gammas: dict[int, float]
    momentum_error_max: float
    level_phase_spread_max: float

    def __post_init__(self):
        for n, d in self.level_factors.items():
            d = np.ravel(d)[~((0.0 < np.ravel(d)) & (np.ravel(d) < 2.0))]
            if len(d):
                raise ValueError(f"extracted dilation factor {d[0]} for level {n} outside (0, 2)")


def _run_columns(spectrum: InternalSpectrum, *values):
    """The run shape, and per-run values as (runs, 1) columns (as given if there are no runs)."""
    runs = np.broadcast_shapes(*(np.shape(v) for v in values), spectrum.masses.shape[:-1])
    if runs:
        values = tuple(np.broadcast_to(np.asarray(v, float), runs)[..., None] for v in values)
    return runs, values


def require_positive_duration(duration) -> None:
    if np.any(np.asarray(duration) <= 0.0):
        raise ValueError("duration must be positive")


def run_sequence(
    kind: SequenceKind,
    spectrum: InternalSpectrum,
    boost,
    duration,
    probe: PlaneWaveState | None = None,
    translation_level: int | None = None,
    state_dependent_translation: bool = False,
    identity_tol: float = 1e-12,
) -> SequenceResult:
    """Execute round-trip sequences and verify them against their closed form.

    boost and duration may hold one value per run and spectrum may be a stack
    (``stack_spectra``): the runs then share the probe's levels and momenta
    and go through the chain, and each check, as one batch.

    The probe must occupy level 0: the ground branch carries no internal
    phase and anchors the global-phase extraction.  Dilation factors are read
    off the unwrapped per-component phases; the closed-form prediction is
    evaluated independently and any component whose phase disagrees beyond
    identity_tol raises IdentityViolationError.
    """
    require_positive_duration(duration)
    probe = probe if probe is not None else default_probe(spectrum)
    if probe.spectrum != spectrum:
        raise ValueError("probe was built on a different spectrum")
    if 0 not in probe.levels:
        raise ValueError("probe must occupy level 0 to anchor phase extraction")
    runs, (b, t) = _run_columns(spectrum, boost, duration)

    def per_run(x):
        return np.reshape(x, runs) if runs else float(np.reshape(x, ()))

    ops = build_sequence(
        kind, b, t,
        translation_level=translation_level,
        spectrum=spectrum,
        state_dependent_translation=state_dependent_translation,
    )
    final, phases = trace_chain(probe, ops)

    momentum_err = np.max(np.abs(final.momenta - probe.momenta), axis=-1, keepdims=True)
    if np.max(momentum_err) > MERGE_TOL:
        raise SequencingError(
            f"sequence did not return momenta (max error {np.max(momentum_err):.3e})"
        )
    if float(np.max(np.abs(phases))) > MAX_TOTAL_PHASE:
        raise ValueError("accumulated phase exceeds the mod-2pi safety cap; shorten the run")

    closed = closed_form_phase(
        kind, spectrum, b, t, probe.levels, probe.momenta,
        translation_level, state_dependent_translation,
    )
    residual_max = np.max(np.abs(np.exp(1j * (phases - closed)) - 1.0), axis=-1, keepdims=True)
    rhs_state = probe.with_amplitudes(probe.amplitudes * np.exp(1j * closed))
    fid_dev = fidelity_deviation(rhs_state, final)
    if np.max(residual_max) > identity_tol:
        raise IdentityViolationError(
            f"sequence disagrees with closed form: max residual {np.max(residual_max):.3e} "
            f"(tol {identity_tol:.1e})"
        )

    # Strip the motional part; what is left must be momentum-independent
    # within each level: G - 2 t epsilon_n d_n.
    internal = phases + 2.0 * t * kinetic_energy(spectrum, probe.levels, probe.momenta)
    epsilons = np.asarray(spectrum.epsilons)
    occupied = sorted(set(probe.levels.tolist()))
    level_phase = {}
    spread_max = 0.0
    for n in occupied:
        vals = internal[..., probe.levels == n]
        level_phase[n] = np.mean(vals, axis=-1, keepdims=True)
        spread_max = np.maximum(
            spread_max,
            np.max(vals, axis=-1, keepdims=True) - np.min(vals, axis=-1, keepdims=True),
        )

    # Level 0 anchors G; every level above it has epsilon_n > 0, and any two
    # levels differ in energy (make_spectrum).
    g_extracted = level_phase[0]
    factors = {n: (g_extracted - level_phase[n]) / (2.0 * t * epsilons[..., [n]])
               for n in occupied[1:]}
    pair_factors = {
        (n, m): (level_phase[n] - level_phase[m])
        / (2.0 * t * (epsilons[..., [m]] - epsilons[..., [n]]))
        for i, n in enumerate(occupied) for m in occupied[i + 1:]
    }
    # A velocity kick gives branch n momentum M_n v, i.e. the same speed.
    # float_power is libm pow, as a float's ** is; numpy's ** 2 squares.
    gammas = {
        n: np.sqrt(1.0 + np.float_power(b, 2) / (
            np.float_power(spectrum.mass(n), 2) if kind is SequenceKind.MOMENTUM else 1.0
        ))
        for n in occupied
    }

    return SequenceResult(
        phases=phases,
        residual_max=per_run(residual_max),
        fidelity_deviation=per_run(fid_dev),
        global_phase=per_run(g_extracted),
        global_phase_closed=per_run(
            closed_global_phase(kind, spectrum, b, t, translation_level)
        ),
        level_factors={n: per_run(d) for n, d in factors.items()},
        level_factors_closed={
            n: per_run(closed_dilation_factor(kind, spectrum, b, [n], state_dependent_translation))
            for n in factors
        },
        pair_factors={pair: per_run(f) for pair, f in pair_factors.items()},
        gammas={n: per_run(g) for n, g in gammas.items()},
        momentum_error_max=per_run(momentum_err),
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


def require_two_levels(spectrum: InternalSpectrum) -> None:
    if spectrum.dim < 2:
        raise ValueError("frame-dependent entanglement needs at least two levels")


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
    """
    require_two_levels(spectrum)
    _, (v_b,) = _run_columns(spectrum, v_b)
    before = internal_superposition(spectrum, momentum)
    after = apply_operator(before, VelocityBoost(v_b))
    return FrameEntanglement(
        entropy_before=reduced_internal_entropy(before),
        entropy_after=reduced_internal_entropy(after),
        state_before=before,
    )
