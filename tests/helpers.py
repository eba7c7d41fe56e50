"""Reference quantities that only the tests read, so the package does not carry them."""

import numpy as np


def momentum_amplitudes(state) -> np.ndarray:
    """A GridState's per-level amplitudes on its momentum lattice, in FFT order: the
    unitary DFT with the physical origin phases, psi~(p) = (1/sqrt D) sum_j e^{-i p x_j} psi(x_j)."""
    phases = np.exp(-1j * state.momenta * state.positions[0])
    return np.fft.fft(state.amplitudes, axis=1) / np.sqrt(state.size) * phases[None, :]


def pointer_states(clock) -> np.ndarray:
    """Matrix whose row k is an SWPClock's pointer state w_k in the energy basis."""
    n = np.arange(clock.dim)
    return np.exp(-2j * np.pi * np.outer(n, n) / clock.dim) / np.sqrt(clock.dim)


def excited_trap_frequency(model, oracle) -> float:
    """w_e = w / sqrt(1 + u), read back from a BranchOracle's carrier shift (n + 1/2)(w_e - w)."""
    return model.trap_frequency + oracle.carrier_shift / (model.fock_index + 0.5)
