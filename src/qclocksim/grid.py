"""Periodic-grid wavepacket states for operators with position dependence.

Plane-wave components handle everything diagonal, but linear potentials and
accelerated frames need a position representation.  A GridState stores one
complex amplitude array per internal level over D lattice sites (D a power of
two) in a periodic box of length L centered on the origin:

    x_j = (j - D/2) L / D            p_k = 2 pi k / L  (signed FFT order)

States always hold position amplitudes.  Momentum amplitudes are a
measurement on the state, not a second representation of it: the unitary
DFT with the physical origin phases included, so they mean what they say:

    psi~(p) = (1/sqrt D) sum_j e^{-i p x_j} psi(x_j)

Natural units as everywhere else: hbar = c = m = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import InternalSpectrum

# Lattice sites on each side of the box whose probability counts as edge mass.
EDGE_SITES = 4


@dataclass(frozen=True, eq=False)
class GridState:
    """Per-level position amplitudes over a periodic lattice."""

    spectrum: InternalSpectrum
    box_length: float
    amplitudes: np.ndarray  # shape (levels, D), unit total norm

    def __post_init__(self):
        self.amplitudes.flags.writeable = False
        require_lattice_size(self.amplitudes.shape[1])
        if self.amplitudes.shape[0] != self.spectrum.dim:
            raise ValueError("amplitude rows must match the spectrum dimension")
        n = float(np.linalg.norm(self.amplitudes))
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"grid state norm {n} deviates from 1 beyond 1e-12")

    @property
    def size(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def positions(self) -> np.ndarray:
        d = self.size
        step = self.box_length / d
        return (np.arange(d) - d // 2) * step

    @property
    def momenta(self) -> np.ndarray:
        """Momentum lattice in FFT order, spacing 2 pi / L."""
        d = self.size
        return 2.0 * np.pi * np.fft.fftfreq(d, d=self.box_length / d)

    def momentum_amplitudes(self) -> np.ndarray:
        """Per-level amplitudes on the momentum lattice, in FFT order."""
        phases = np.exp(-1j * self.momenta * self.positions[0])
        return np.fft.fft(self.amplitudes, axis=1) / np.sqrt(self.size) * phases[None, :]

    def edge_mass(self) -> float:
        """Probability within EDGE_SITES of the box edge."""
        band = np.r_[0:EDGE_SITES, self.size - EDGE_SITES:self.size]
        return float(np.sum(np.abs(self.amplitudes[:, band]) ** 2))

    def with_amplitudes(self, amplitudes: np.ndarray) -> "GridState":
        return GridState(
            spectrum=self.spectrum,
            box_length=self.box_length,
            amplitudes=np.ascontiguousarray(amplitudes, dtype=complex),
        )


def require_lattice_size(size: int) -> None:
    if size <= 0 or size & (size - 1):
        raise ValueError(f"lattice size {size!r} must be a positive power of two")


def require_positive_length(name: str, value: float) -> None:
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def gaussian_grid_state(
    spectrum: InternalSpectrum,
    size: int = 256,
    box_length: float = 64.0,
    sigma: float = 4.0,
    center: float = 0.0,
    momentum: float = 0.0,
) -> GridState:
    """Normalized Gaussian wavepacket, identical on every level.

    Defaults put the packet's momentum support (width 1/2 sigma) on roughly
    a twelfth of the momentum lattice and its position support well inside
    the box, leaving room for boost kicks and drifts.
    """
    require_lattice_size(size)
    require_positive_length("box_length", box_length)
    require_positive_length("sigma", sigma)
    x = (np.arange(size) - size // 2) * (box_length / size)
    packet = np.exp(-((x - center) ** 2) / (4.0 * sigma**2) + 1j * momentum * x)
    amps = np.ones(spectrum.dim, dtype=complex)[:, None] * packet[None, :]
    amps = amps / np.linalg.norm(amps)
    return GridState(spectrum=spectrum, box_length=float(box_length), amplitudes=amps)
