"""Grid evolutions: impulsive-boost limits and the accelerated-frame product.

Two claims about boosts need position-dependent Hamiltonians, so they run on
GridState wavepackets rather than plane-wave components.  Both Hamiltonians
are one linear potential coupled to the mass operator,
    H = p^2/2M + H_0 + slope (m + H_0/c^2) x,
and one function, evolve_linear_potential, evolves both:

* A velocity boost is the impulsive limit, slope -alpha: evolving for a
  duration dt with alpha dt = v_b held fixed converges to B_v(v_b) as
  dt -> 0, with the deviation shrinking linearly in dt.  If the potential
  couples only to the bare mass (-alpha m x), the limit is the plain momentum
  kick B_p(m v_b) instead, and the deviation from B_v stalls at a floor set
  by the internal energies.

* Free evolution interleaved with small velocity kicks, (U(dt) B_v(-a dt))^n,
  converges to evolution under the static accelerated-frame Hamiltonian,
  slope a: H_acc = p^2/2M + H_0 + a M x,
  with first-order product-formula error (halves when n doubles).  Note the
  per-step kick is -a dt: the frame accelerates one way, so everything in it
  is kicked the other way.

Evolution under a static H on the grid is done exactly (up to the lattice)
by eigendecomposition, never by further splitting, so the measured
deviations contain nothing but the operator difference under test.  Each
branch H is real symmetric: on a uniform periodic grid the kinetic operator
is a real symmetric circulant, as in the Fourier grid Hamiltonian (Marston &
Balint-Kurti, J. Chem. Phys. 91, 3571 (1989)), because E(n, p) is even in p
and the unpaired Nyquist momentum adds the real term (-1)^(j - j').
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import EDGE_SITES, GridState
from .operators import total_energy
from .units import check_kicks, require_positive

# Probability near the box edge that a grid run may reach, at load and after.
ABORT_EDGE_MASS = 1e-12


def require_inside(state: GridState, context: str) -> None:
    mass = state.edge_mass()
    if not mass <= ABORT_EDGE_MASS:
        raise ValueError(
            f"{context}: probability {mass:.3e} within {EDGE_SITES} sites of the "
            "box edge; enlarge the box or shrink the state"
        )


def _mean_momenta(state: GridState) -> np.ndarray:
    """Per branch, <p> read off the amplitudes; 0 on a branch with none."""
    weights = np.abs(np.fft.fft(state.amplitudes, axis=1)) ** 2
    norms = np.sum(weights, axis=1)
    return np.divide(weights @ state.momenta, norms, out=np.zeros_like(norms), where=norms > 0.0)


def impulse_kicks(state: GridState, boost: float) -> list:
    """The momenta an impulse run reaches, as check_kicks takes them: each
    branch starts at its <p>, and the velocity boost the run is compared
    against sends branch n to <p> + M_n boost."""
    start = _mean_momenta(state)
    return [("momentum", start), ("boost", start + state.spectrum.masses * boost)]


def trotter_kicks(state: GridState, acceleration: float, duration: float) -> list:
    """The momenta a trotter run reaches, as check_kicks takes them: each
    branch starts at its <p>, and the frame's kicks add up to -M_n a T."""
    start = _mean_momenta(state)
    return [("momentum", start),
            ("acceleration", start - state.spectrum.masses * acceleration * duration)]


def _coupled_masses(state: GridState, internal_coupled: bool) -> np.ndarray:
    """Per branch, the full mass M_n if internal_coupled, else the bare mass 1."""
    return state.spectrum.masses if internal_coupled else np.ones(state.spectrum.dim)


def _kick_table(state: GridState, v_b: float, internal_coupled: bool = True) -> np.ndarray:
    """Rows e^{i m_n v_b x} on every branch at once: on the full masses the
    velocity boost, on the bare masses the momentum kick."""
    return np.exp(1j * _coupled_masses(state, internal_coupled)[:, None] * v_b * state.positions)


def _drift_table(state: GridState, duration: float) -> np.ndarray:
    """Rows e^{-i t E(n, p)} on the momentum lattice: exact free evolution."""
    levels = np.arange(state.spectrum.dim)[:, None]
    return np.exp(-1j * duration * total_energy(state.spectrum, levels, state.momenta))


def velocity_boost_grid(state: GridState, v_b: float) -> GridState:
    """Multiply branch n by e^{i M_n v_b x}: the kick on the full mass."""
    return state.with_amplitudes(state.amplitudes * _kick_table(state, v_b))


def momentum_boost_grid(state: GridState, p_b: float) -> GridState:
    """Multiply every branch by e^{i p_b x}: the kick on the bare mass."""
    return state.with_amplitudes(state.amplitudes * _kick_table(state, p_b, False))


def _branch_hamiltonian(state: GridState, level: int, potential: np.ndarray) -> np.ndarray:
    """Dense real symmetric H_n = kinetic(level) + diag(potential) on the position grid."""
    d = state.size
    kin = total_energy(state.spectrum, level, state.momenta) - state.spectrum.epsilons[level]
    # Circulant c[j - j']: kin is even in p, so c = ifft(kin) is real with
    # c[k] = c[d - k], and indexing by min(k, d - k) keeps h symmetric to the bit.
    c = np.fft.ifft(kin).real
    j = np.arange(d)
    k = np.abs(j[:, None] - j)
    h = c[np.minimum(k, d - k)]
    h[j, j] += potential + state.spectrum.epsilons[level]
    return h


def evolve_linear_potential(
    state: GridState, slope: float, duration: float, internal_coupled: bool = True
) -> GridState:
    """Exact evolution for `duration` under the potential slope m_n x, with m_n the
    full mass M_n of branch n when internal_coupled (velocity-boost and
    accelerated-frame physics), else the bare mass 1 (momentum-kick physics).

    Each branch is evolved by one eigh of its static H_n, which is real
    symmetric, so its eigenvectors are real and v.T inverts v.
    """
    amps = np.empty_like(state.amplitudes)
    for n, m in enumerate(_coupled_masses(state, internal_coupled)):
        w, v = np.linalg.eigh(_branch_hamiltonian(state, n, slope * m * state.positions))
        amps[n] = v @ (np.exp(-1j * w * duration) * (v.T @ state.amplitudes[n]))
    return state.with_amplitudes(amps)


@dataclass(frozen=True)
class ImpulseReport:
    """Deviation of a hard linear-potential kick from the ideal boosts."""

    durations: np.ndarray
    deviation_velocity: np.ndarray  # || U_impulse psi - B_v(v_b) psi ||
    deviation_momentum: np.ndarray  # || U_impulse psi - B_p(m v_b) psi ||
    edge_mass: float  # largest over the initial and every evolved state


def impulse_durations(dt_schedule) -> np.ndarray:
    """The pulse durations of an impulse schedule; a shrink ratio needs two."""
    durations = np.asarray([float(dt) for dt in dt_schedule])
    if len(durations) < 2 or np.any(durations <= 0.0) or np.any(np.diff(durations) >= 0.0):
        raise ValueError("dt_schedule must hold at least two durations, positive and "
                         "strictly decreasing")
    return durations


def impulsive_boost_limit(
    state: GridState,
    v_b: float,
    dt_schedule=(1e-1, 1e-2, 1e-3, 1e-4),
    internal_coupled: bool = True,
) -> ImpulseReport:
    """Drive alpha -> infinity at fixed alpha dt = v_b and watch B_v emerge.

    For each duration dt the state is evolved exactly under the linear
    potential Hamiltonian with slope -alpha = -v_b / dt and compared against
    the ideal velocity boost and the ideal momentum kick.  A run that
    impulse_kicks takes out of the regime raises RegimeError first.
    """
    durations = impulse_durations(dt_schedule)
    check_kicks(impulse_kicks(state, v_b))
    reference_v = velocity_boost_grid(state, v_b)
    reference_p = momentum_boost_grid(state, v_b)
    dev_v = np.empty(len(durations))
    dev_p = np.empty(len(durations))
    edges = [state.edge_mass()]
    for i, dt in enumerate(durations):
        evolved = evolve_linear_potential(state, -v_b / dt, dt, internal_coupled)
        edges.append(evolved.edge_mass())
        dev_v[i] = float(np.linalg.norm(evolved.amplitudes - reference_v.amplitudes))
        dev_p[i] = float(np.linalg.norm(evolved.amplitudes - reference_p.amplitudes))
    return ImpulseReport(
        durations=durations,
        deviation_velocity=dev_v,
        deviation_momentum=dev_p,
        edge_mass=float(np.max(edges)),
    )


@dataclass(frozen=True)
class TrotterReport:
    """Convergence of the kick-and-evolve product to the static H_acc."""

    steps: np.ndarray
    errors: np.ndarray
    edge_mass: float  # largest over the exact evolution's two ends and every product


def trotter_steps(steps) -> np.ndarray:
    """The step counts of a trotter schedule; a halving ratio needs two."""
    steps = np.asarray([int(n) for n in steps])
    if len(steps) < 2 or np.any(steps <= 0) or np.any(np.diff(steps) <= 0):
        raise ValueError("steps must hold at least two counts, positive and strictly increasing")
    return steps


def accelerated_frame_trotter(
    state: GridState,
    acceleration: float,
    duration: float,
    steps=(32, 64, 128, 256, 512),
) -> TrotterReport:
    """Compare (U(dt) B_v(-a dt))^n against the static accelerated-frame H.

    The returned errors should fall like 1/n (first-order product formula),
    so error(n)/error(2n) is ideally 2.  A run that trotter_kicks takes out
    of the regime raises RegimeError before any evolution.

    The products for all n run in lockstep, one row block per n in one array.
    The steps increase, so after n rounds the leading block is finished and
    leaves; each row sees the same operations as a product run on its own.
    """
    require_positive("duration", duration)
    steps = trotter_steps(steps)
    check_kicks(trotter_kicks(state, acceleration, duration))
    exact = evolve_linear_potential(state, acceleration, duration)
    levels = state.spectrum.dim
    kicks = np.concatenate([_kick_table(state, -acceleration * (duration / n)) for n in steps])
    drifts = np.concatenate([_drift_table(state, duration / n) for n in steps])
    live = np.tile(state.amplitudes, (len(steps), 1))
    products, rounds = [], 0
    for n in steps:
        for _ in range(n - rounds):
            live *= kicks
            tilde = np.fft.fft(live, axis=1)
            tilde *= drifts
            live = np.fft.ifft(tilde, axis=1)
        products.append(live[:levels])
        live, kicks, drifts, rounds = live[levels:], kicks[levels:], drifts[levels:], n
    errors = np.empty(len(steps))
    edges = [state.edge_mass(), exact.edge_mass()]
    for i, amps in enumerate(products):
        current = state.with_amplitudes(amps)
        edges.append(current.edge_mass())
        errors[i] = float(np.linalg.norm(current.amplitudes - exact.amplitudes))
    return TrotterReport(steps=steps, errors=errors, edge_mass=float(np.max(edges)))
