"""Sparse plane-wave states of a composite particle.

A state is a finite superposition of components |n> |p> with exact momentum
labels -- no grid, no truncation.  Every operator in this package maps a
component to a single component (momenta shift, amplitudes pick up phases),
so sparse components stay sparse and all closed-form identities can be
checked to machine precision.

States are immutable and every constructor returns a fresh object, which
makes them safe to share across threads in parameter sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import InternalSpectrum

# Components whose momenta differ by less than this are the same plane wave.
MERGE_TOL = 1e-12

# Squared amplitude below which a merged component is dropped as cancelled.
_DROP_TOL = 1e-30


@dataclass(frozen=True, eq=False)
class PlaneWaveState:
    """Normalized superposition of (level, momentum) plane-wave components."""

    spectrum: InternalSpectrum
    levels: np.ndarray
    momenta: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        for arr in (self.levels, self.momenta, self.amplitudes):
            arr.flags.writeable = False
        if not (len(self.levels) == len(self.momenta) == len(self.amplitudes)):
            raise ValueError("component arrays must have equal length")
        if len(self.levels) == 0:
            raise ValueError("state needs at least one component")
        if self.levels.min() < 0 or self.levels.max() >= self.spectrum.dim:
            raise ValueError("component level outside the spectrum")
        n = self.norm()
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"state norm {n} deviates from 1 beyond 1e-12")

    @classmethod
    def from_components(
        cls,
        spectrum: InternalSpectrum,
        components,
        normalize: bool = True,
    ) -> "PlaneWaveState":
        """Build a state from (level, momentum, amplitude) triples.

        Duplicate components (same level, momenta within MERGE_TOL) are
        summed; the result is sorted by (level, momentum) and, unless
        normalize=False, rescaled to unit norm.
        """
        triples = [(int(n), float(p), complex(a)) for n, p, a in components]
        if not triples:
            raise ValueError("state needs at least one component")
        triples.sort(key=lambda c: (c[0], c[1]))
        merged: list[list] = []
        for n, p, a in triples:
            if merged and merged[-1][0] == n and p - merged[-1][1] <= MERGE_TOL:
                merged[-1][2] += a
            else:
                merged.append([n, p, a])
        merged = [c for c in merged if abs(c[2]) ** 2 > _DROP_TOL]
        if not merged:
            raise ValueError("all components cancelled")
        levels = np.array([c[0] for c in merged], dtype=np.int64)
        momenta = np.array([c[1] for c in merged], dtype=float)
        amps = np.array([c[2] for c in merged], dtype=complex)
        if normalize:
            amps = amps / np.linalg.norm(amps)
        return cls(spectrum, levels, momenta, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def components(self):
        """Iterate (level, momentum, amplitude) triples."""
        return zip(self.levels.tolist(), self.momenta.tolist(), self.amplitudes.tolist())

    def level_weights(self) -> np.ndarray:
        """Probability of finding each internal level, summed over momenta."""
        w = np.zeros(self.spectrum.dim)
        np.add.at(w, self.levels, np.abs(self.amplitudes) ** 2)
        return w

    def with_amplitudes(self, amplitudes: np.ndarray, momenta: np.ndarray | None = None) -> "PlaneWaveState":
        momenta = self.momenta if momenta is None else np.asarray(momenta, dtype=float)
        return PlaneWaveState(
            self.spectrum, self.levels.copy(), momenta.copy(),
            np.asarray(amplitudes, dtype=complex).copy(),
        )


def plane_wave(spectrum: InternalSpectrum, level: int, momentum: float) -> PlaneWaveState:
    """Single component |level> |momentum>."""
    return PlaneWaveState.from_components(spectrum, [(level, momentum, 1.0)])


def internal_superposition(
    spectrum: InternalSpectrum,
    momentum: float,
    levels=None,
    amplitudes=None,
) -> PlaneWaveState:
    """|momentum> times an internal superposition (equal weights by default)."""
    levels = list(range(spectrum.dim)) if levels is None else list(levels)
    if amplitudes is None:
        amplitudes = [1.0] * len(levels)
    return PlaneWaveState.from_components(
        spectrum, [(n, momentum, a) for n, a in zip(levels, amplitudes)]
    )


def inner_product(bra: PlaneWaveState, ket: PlaneWaveState) -> complex:
    """<bra|ket> with components matched by (level, momentum within tolerance).

    Distinct momenta are exactly orthogonal, so unmatched components simply
    contribute nothing.
    """
    if bra.spectrum != ket.spectrum:
        raise ValueError("states live on different internal spectra")
    total = 0.0 + 0.0j
    i = j = 0
    while i < len(bra.levels) and j < len(ket.levels):
        key_b = (int(bra.levels[i]), float(bra.momenta[i]))
        key_k = (int(ket.levels[j]), float(ket.momenta[j]))
        if key_b[0] == key_k[0] and abs(key_b[1] - key_k[1]) <= MERGE_TOL:
            total += np.conj(bra.amplitudes[i]) * ket.amplitudes[j]
            i += 1
            j += 1
        elif key_b < key_k:
            i += 1
        else:
            j += 1
    return complex(total)


def fidelity_deviation(reference: PlaneWaveState, state: PlaneWaveState) -> float:
    """|<reference|state> - 1|: zero iff the states agree including phase."""
    return abs(inner_product(reference, state) - 1.0)


def _momentum_clusters(momenta: np.ndarray) -> np.ndarray:
    """Cluster id per momentum: a sorted gap above MERGE_TOL starts a new id."""
    order = np.argsort(momenta)
    ids = np.empty(len(momenta), dtype=np.int64)
    ids[order] = np.concatenate(([0], np.cumsum(np.diff(momenta[order]) > MERGE_TOL)))
    return ids


def reduced_internal_entropy(state: PlaneWaveState) -> float:
    """Von Neumann entropy (nats) of the internal state after tracing momentum.

    Momentum values act as orthogonal flags: components are grouped by
    momentum (within the merge tolerance, across levels), the reduced density
    matrix rho[n, m] = sum_p a_np conj(a_mp) is assembled and diagonalized.
    """
    ids = _momentum_clusters(state.momenta)
    n_clusters = int(ids.max()) + 1
    amp = np.zeros((state.spectrum.dim, n_clusters), dtype=complex)
    amp[state.levels, ids] = state.amplitudes
    rho = amp @ amp.conj().T
    eigs = np.linalg.eigvalsh(rho)
    eigs = eigs[eigs > 1e-18]
    return float(-np.sum(eigs * np.log(eigs)))
