"""Simulation toolkit for composite quantum particles with gravitating
internal energy.

The model: a particle's internal energy contributes to its inertial and
gravitational mass, so each internal level n moves with its own mass
M_n = 1 + eps_n (natural units, rest mass 1).  That single assumption
couples internal clocks to motion and makes proper time a quantum operator
whose dilation can differ branch by branch.  This package simulates the
consequences: closed twin-paradox boost sequences, nonclassical time
dilation factors, frame-dependent entanglement, accelerated frames as
boost-evolution products, pointer-clock degradation, and motional clock
shifts in trapped ions.
"""

import os
import types

# One BLAS thread per process, set before any submodule imports numpy.  Every
# matrix here is at most a few hundred rows, so a BLAS pool only spins,
# oversubscribes the cores under `--threads N`, and makes the last digits of
# results depend on the core count.  A value the user has set is kept.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from .config import RunConfig, ScenarioSpec, Sweep, load_config, parse_config
from .errors import (
    ConfigError,
    GridTooNarrowError,
    IdentityViolationError,
    IntegrationError,
    RegimeError,
    SequencingError,
    WraparoundError,
)
from .grid import GridState, gaussian_grid_state
from .gridops import (
    ImpulseReport,
    TrotterReport,
    accelerated_frame_trotter,
    evolve_linear_potential,
    impulsive_boost_limit,
    momentum_boost_grid,
    velocity_boost_grid,
)
from .ionclock import (
    BranchOracle,
    SpectroscopyResult,
    TrapModel,
    branch_spectrum_oracle,
    displacement_operator,
    spectroscopy_scan,
    static_hamiltonians,
)
from .operators import (
    BranchTranslation,
    FreeEvolution,
    MomentumBoost,
    Translation,
    VelocityBoost,
    apply_operator,
    kinetic_energy,
    momentum_after,
    phase_increment,
    total_energy,
    trace_chain,
)
from .report import RunReport
from .runners import run_config, run_scenario
from .sequences import (
    FrameEntanglement,
    SequenceKind,
    SequenceResult,
    build_sequence,
    closed_dilation_factor,
    closed_form_phase,
    closed_global_phase,
    default_probe,
    entanglement_frame_demo,
    run_sequence,
)
from .spectrum import InternalSpectrum, ladder_spectrum, make_spectrum
from .states import (
    PlaneWaveState,
    fidelity_deviation,
    inner_product,
    internal_superposition,
    reduced_internal_entropy,
)
from .swp import (
    DilationProfile,
    SWPClock,
    TickScan,
    find_effective_ticks,
    pointer_probabilities,
    read_pointer,
)
from .units import (
    beta_from_velocity,
    epsilon_from_energy,
    epsilon_from_frequency,
)

__version__ = "0.1.0"

# Every public name imported above, so the list cannot drift from the imports.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
