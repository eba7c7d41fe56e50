"""Trapped-ion clock shifts from internal energy gravitating into the mass.

A two-level ion sits in a harmonic trap.  Promoting the internal state adds
its transition energy u to the ion's mass, so the excited branch oscillates
with a lower trap frequency, and the clock transition picked from motional
level n is dragged by the motional zero-point and excitation energy
(hbar = c = m = 1, every energy a fraction of the rest energy).  The closed
form of that shift lives in ``oracles``; this module only measures it.

Everything here is exact in the oscillator algebra (matrix elements of x^2
and p^2 are closed-form), so the only approximations are the Fock-space
cutoff and the laser-drive dynamics themselves.  The spectroscopy scan
simulates an actual pi-pulse lineshape in the rotating frame of the laser
and extracts the peak on a grid the caller centres: the runner passes the
oracle's carrier shift and compares the peak with it.

The drive Hamiltonian is time independent in that frame, so each detuning
costs one eigendecomposition and the pulse is applied spectrally; the
decomposition is checked against the matrix it came from.  That matrix is
real symmetric in the gauge |n> -> i^n |n> on both branch blocks: the Fock
elements of the recoil e^{ikx} are i^|m-n| times real numbers (Wineland et
al., J. Res. NIST 103, 259 (1998)), so the gauged recoil is real orthogonal,
and the gauge only flips the sign of the x^2 and p^2 elements at n +- 2.
It changes phases only, so the excited-branch population is unchanged.  The
peak is the vertex of the parabola through the three samples around the
maximum, so the cutoff check recomputes only those three at twice the Fock
cutoff, and rescans the whole grid only if they no longer bracket a maximum
there.

Physical clock parameters put the shift twenty orders of magnitude below
double-precision resolution, so simulations must run with exaggerated u and
w; the defaults used in tests are u = 1e-3, w = 1e-5.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import GridTooNarrowError, IntegrationError
from .units import check_epsilons, require_nonnegative, require_positive

# Bound on the relative eigendecomposition residual |H V - V Lambda| / |H|
# and on the norm defect of the propagated state; both sit near 1e-15.
UNITARITY_TOL = 1e-12


def require_transition_energy(energy: float) -> None:
    """The internal gap u must be non-negative and inside the regime bound."""
    require_nonnegative("transition energy", energy)
    check_epsilons([energy])


@dataclass(frozen=True)
class TrapModel:
    """A two-level ion in a harmonic trap, driven on its clock transition.

    All frequencies are energy ratios (natural units).  transition_energy
    is the internal gap u, trap_frequency the bare motional frequency w.
    Omitted drive parameters get conventional defaults: Rabi frequency
    0.03 w (strong enough to resolve the line, weak enough to keep probe
    shifts small), Lamb-Dicke parameter 0.05.
    """

    transition_energy: float
    trap_frequency: float
    fock_index: int = 0
    rabi_frequency: float | None = None
    lamb_dicke: float = 0.05
    fock_cutoff: int | None = None

    def __post_init__(self) -> None:
        require_transition_energy(self.transition_energy)
        require_positive("trap frequency", self.trap_frequency)
        require_nonnegative("fock index", self.fock_index)
        if self.rabi_frequency is None:
            object.__setattr__(self, "rabi_frequency", 0.03 * self.trap_frequency)
        require_positive("Rabi frequency", self.rabi_frequency)
        if self.fock_cutoff is None:
            object.__setattr__(self, "fock_cutoff", max(self.fock_index + 10, 32))
        if self.fock_cutoff < self.fock_index + 10:
            raise ValueError(
                "fock cutoff must exceed the occupied level by at least 10"
            )

    @property
    def pulse_time(self) -> float:
        """The pi pulse: pi / Rabi frequency."""
        return np.pi / self.rabi_frequency

    @property
    def wavevector(self) -> float:
        """Recoil wavevector k = eta sqrt(2 w), eta the Lamb-Dicke parameter."""
        return self.lamb_dicke * np.sqrt(2.0 * self.trap_frequency)


def _band(diagonal: np.ndarray, k: int, off: np.ndarray) -> np.ndarray:
    """Symmetric matrix with the given diagonal and off at n, n +- k."""
    mat = np.diag(diagonal)
    n = np.arange(off.size)
    mat[n, n + k] = off
    mat[n + k, n] = off
    return mat


def _x_squared(dim: int, w: float) -> np.ndarray:
    """Exact Fock matrix of x^2 for a unit-mass oscillator of frequency w."""
    n = np.arange(dim)
    return _band((2.0 * n + 1.0) / (2.0 * w), 2,
                 np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0)) / (2.0 * w))


def _p_squared(dim: int, w: float) -> np.ndarray:
    """Exact Fock matrix of p^2 for a unit-mass oscillator of frequency w."""
    n = np.arange(dim)
    return _band(w * (2.0 * n + 1.0) / 2.0, 2,
                 -w * np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0)) / 2.0)


def _x_operator(dim: int, w: float) -> np.ndarray:
    return _band(np.zeros(dim), 1, np.sqrt((np.arange(dim - 1) + 1.0) / (2.0 * w)))


def displacement_operator(dim: int, w: float, wavevector: float) -> np.ndarray:
    """Photon-recoil kick e^{i k x} on the truncated Fock space."""
    vals, vecs = np.linalg.eigh(_x_operator(dim, w))
    return vecs @ (np.exp(1j * wavevector * vals)[:, None] * vecs.conj().T)


def static_hamiltonians(model: TrapModel) -> tuple[np.ndarray, np.ndarray]:
    """Motional Hamiltonians of the ground and excited internal branches.

    The ground branch is the bare oscillator, w (n + 1/2), exact even after
    truncation.  The excited branch keeps the same trap potential but moves
    the heavier mass 1 + u, built from the exact x^2 and p^2 matrices.
    """
    dim = model.fock_cutoff
    w = model.trap_frequency
    u = model.transition_energy
    h_ground = np.diag(w * (np.arange(dim) + 0.5))
    h_excited = (
        u * np.eye(dim)
        + _p_squared(dim, w) / (2.0 * (1.0 + u))
        + 0.5 * w * w * _x_squared(dim, w)
    )
    return h_ground, h_excited


def _fock_gauge(dim: int) -> np.ndarray:
    """Exact elements i^(n - m) that conjugate a Fock matrix by |n> -> i^n |n>."""
    return np.array([1, 1j, -1, -1j])[(np.arange(dim) - np.arange(dim)[:, None]) % 4]


def _excitation_probabilities(
    model: TrapModel, detunings: np.ndarray, dim: int
) -> np.ndarray:
    """Excited-branch population after the pulse, one value per detuning.

    Basis: ground-branch Fock block first, excited-branch block second, both
    gauged by |n> -> i^n |n>.  The laser frequency is u + detuning; the
    optical rotating-wave approximation leaves the recoil displacement
    e^{i k x} on the raised coupling.  Only the excited-block diagonal depends
    on the detuning, so the real block matrix H0 is built once per call.
    """
    u = model.transition_energy
    half_rabi = 0.5 * model.rabi_frequency
    h_ground, h_excited = static_hamiltonians(replace(model, fock_cutoff=dim))
    gauge = _fock_gauge(dim)
    recoil = (gauge * displacement_operator(dim, model.trap_frequency, model.wavevector)).real
    h0 = np.zeros((2 * dim, 2 * dim))
    h0[:dim, :dim] = h_ground
    h0[dim:, dim:] = (gauge * h_excited).real
    h0[dim:, :dim] = half_rabi * recoil
    h0[:dim, dim:] = half_rabi * recoil.T
    excited = np.arange(dim, 2 * dim)
    probabilities = np.empty(len(detunings))
    for i, detuning in enumerate(detunings):
        h = h0.copy()
        h[excited, excited] -= u + detuning
        vals, vecs = np.linalg.eigh(h)
        # A wrong decomposition fails here even when it is still unitary.
        eig_defect = float(np.linalg.norm(h @ vecs - vecs * vals) / np.linalg.norm(h))
        if eig_defect > UNITARITY_TOL:
            raise IntegrationError(
                f"eigendecomposition residual {eig_defect:.3e} at detuning {detuning!r}"
            )
        psi = vecs @ (np.exp(-1j * vals * model.pulse_time) * vecs[model.fock_index])
        norm_defect = abs(np.linalg.norm(psi) - 1.0)
        if norm_defect > UNITARITY_TOL:
            raise IntegrationError(
                f"propagation lost unitarity by {norm_defect:.3e} at detuning {detuning!r}"
            )
        probabilities[i] = np.linalg.norm(psi[dim:]) ** 2
    return probabilities


@dataclass(frozen=True)
class SpectroscopyResult:
    """Measured lineshape and the peak extracted from it."""

    detunings: np.ndarray
    excitation: np.ndarray
    peak_detuning: float  # quadratic-vertex estimate of the line center
    cutoff_shift_change: float  # |peak at N_F - peak at 2 N_F|


def _parabola_vertex(d: np.ndarray, p: np.ndarray) -> float:
    """Abscissa of the parabola through three equally spaced samples."""
    denom = p[0] - 2.0 * p[1] + p[2]
    if denom == 0.0:
        return float(d[1])
    return float(d[1] + 0.5 * (d[1] - d[0]) * (p[0] - p[2]) / denom)


def _scan_peak(model: TrapModel, detunings: np.ndarray, dim: int) -> tuple[float, int, np.ndarray]:
    """Lineshape at cutoff dim: vertex, peak index, samples."""
    excitation = _excitation_probabilities(model, detunings, dim)
    idx = int(np.argmax(excitation))
    if idx == 0 or idx == len(detunings) - 1:
        raise GridTooNarrowError(
            f"lineshape peak sits on the scan edge (index {idx}); widen the "
            "detuning grid"
        )
    triplet = slice(idx - 1, idx + 2)
    return _parabola_vertex(detunings[triplet], excitation[triplet]), idx, excitation


def _doubled_cutoff_vertex(model: TrapModel, detunings: np.ndarray, idx: int) -> float:
    """Line-center vertex at twice the Fock cutoff, from the peak triplet
    alone unless that triplet has no interior maximum there."""
    dim = 2 * model.fock_cutoff
    triplet = detunings[idx - 1 : idx + 2]
    p = _excitation_probabilities(model, triplet, dim)
    if p[1] >= p[0] and p[1] >= p[2]:
        return _parabola_vertex(triplet, p)
    return _scan_peak(model, detunings, dim)[0]


def require_scan_points(points: int) -> None:
    if points < 5:
        raise ValueError("a peak extraction needs at least 5 scan points")


def spectroscopy_scan(
    model: TrapModel,
    center: float,
    points: int = 61,
    span_factor: float = 4.0,
) -> SpectroscopyResult:
    """Scan the drive detuning across the line and locate the peak.

    The grid is centered on the caller's expected detuning `center` with
    half-width span_factor times its magnitude (floored at 1e-3 Rabi
    frequencies so a null shift still gets a usable grid).  The extraction
    reads `center` only to place the grid, so a peak that lands on a
    predicted center is a genuine check of the prediction.
    """
    require_scan_points(points)
    require_positive("span factor", span_factor)
    half_span = span_factor * max(abs(center), 1e-3 * model.rabi_frequency)
    detunings = np.linspace(center - half_span, center + half_span, points)
    vertex, idx, excitation = _scan_peak(model, detunings, model.fock_cutoff)
    cutoff_change = abs(_doubled_cutoff_vertex(model, detunings, idx) - vertex)
    return SpectroscopyResult(
        detunings=detunings,
        excitation=excitation,
        peak_detuning=vertex,
        cutoff_shift_change=cutoff_change,
    )
