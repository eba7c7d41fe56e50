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
    """Normalized superposition of (level, momentum) plane-wave components;
    momenta and amplitudes may carry a leading run axis (runs share levels)."""

    spectrum: InternalSpectrum
    levels: np.ndarray
    momenta: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        for arr in (self.levels, self.momenta, self.amplitudes):
            arr.flags.writeable = False
        if not (self.levels.ndim == 1
                and self.momenta.shape[-1] == self.amplitudes.shape[-1] == len(self.levels)):
            raise ValueError("component arrays must have equal length")
        if len(self.levels) == 0:
            raise ValueError("state needs at least one component")
        if self.levels.min() < 0 or self.levels.max() >= self.spectrum.dim:
            raise ValueError("component level outside the spectrum")
        norms = np.ravel(self.norm())
        worst = norms[np.argmax(np.abs(norms - 1.0))]
        if abs(worst - 1.0) > 1e-12:
            raise ValueError(f"state norm {worst} deviates from 1 beyond 1e-12")

    @classmethod
    def from_components(cls, spectrum: InternalSpectrum, components) -> "PlaneWaveState":
        """Build a state from (level, momentum, amplitude) triples.

        Duplicate components (same level, momenta within MERGE_TOL) are
        summed; the result is sorted by (level, momentum) and rescaled to
        unit norm.
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
        return cls(spectrum, levels, momenta, amps / np.linalg.norm(amps))

    def norm(self):
        return np.linalg.norm(self.amplitudes, axis=-1)

    def with_amplitudes(self, amplitudes: np.ndarray, momenta: np.ndarray | None = None) -> "PlaneWaveState":
        momenta = self.momenta if momenta is None else np.asarray(momenta, dtype=float)
        return PlaneWaveState(
            self.spectrum, self.levels.copy(), momenta.copy(),
            np.asarray(amplitudes, dtype=complex).copy(),
        )


def internal_superposition(spectrum: InternalSpectrum, momentum: float) -> PlaneWaveState:
    """|momentum> times an equal-weight superposition of every level."""
    return PlaneWaveState.from_components(
        spectrum, [(n, momentum, 1.0) for n in range(spectrum.dim)]
    )


def inner_product(bra: PlaneWaveState, ket: PlaneWaveState):
    """<bra|ket> with components matched by (level, momentum within tolerance).

    Distinct momenta are exactly orthogonal, so unmatched components simply
    contribute nothing.  States with a run axis give one product per run,
    each rounded as the scalar sum 0 + c_0 + c_1 + ... in component order.
    """
    if bra.spectrum != ket.spectrum:
        raise ValueError("states live on different internal spectra")
    match = (bra.levels[:, None] == ket.levels) & (
        np.abs(bra.momenta[..., :, None] - ket.momenta[..., None, :]) <= MERGE_TOL
    )
    # A bra component meets at most one ket component, its first match.  The
    # product is written out, as numpy's complex array multiply rounds otherwise.
    a = np.conj(bra.amplitudes)
    ket_amps = np.broadcast_to(ket.amplitudes, match.shape[:-2] + ket.amplitudes.shape[-1:])
    b = np.take_along_axis(ket_amps, np.argmax(match, axis=-1), axis=-1)
    found = match.any(axis=-1)
    real = np.add.accumulate(np.where(found, a.real * b.real - a.imag * b.imag, 0.0), axis=-1)
    imag = np.add.accumulate(np.where(found, a.real * b.imag + a.imag * b.real, 0.0), axis=-1)
    return real[..., -1] + 1j * imag[..., -1]


def fidelity_deviation(reference: PlaneWaveState, state: PlaneWaveState):
    """|<reference|state> - 1|, one per run: zero iff the states agree including phase."""
    overlap = inner_product(reference, state) - 1.0
    return np.hypot(overlap.real, overlap.imag)


def _momentum_clusters(momenta: np.ndarray) -> np.ndarray:
    """Cluster id per momentum, per run: a sorted gap above MERGE_TOL starts a new id."""
    order = np.argsort(momenta, axis=-1)
    gaps = np.diff(np.take_along_axis(momenta, order, axis=-1), axis=-1) > MERGE_TOL
    ids = np.empty(momenta.shape, dtype=np.int64)
    np.put_along_axis(ids, order, np.cumsum(np.insert(gaps, 0, False, axis=-1), axis=-1), -1)
    return ids


def reduced_internal_entropy(state: PlaneWaveState):
    """Von Neumann entropy (nats) of the internal state after tracing momentum.

    Momentum values act as orthogonal flags: components are grouped by
    momentum (within the merge tolerance, across levels), the reduced density
    matrix rho[n, m] = sum_p a_np conj(a_mp) is assembled and diagonalized.
    A state with a run axis gives one entropy per run, from one batched
    eigvalsh per cluster count.
    """
    momenta, amps = np.broadcast_arrays(state.momenta, state.amplitudes)
    runs = momenta.shape[:-1]
    momenta, amps = momenta.reshape(-1, len(state.levels)), amps.reshape(-1, len(state.levels))
    ids = _momentum_clusters(momenta)
    n_clusters = ids.max(axis=-1) + 1
    dim = state.spectrum.dim
    entropy = np.empty(len(ids))
    for k in set(n_clusters.tolist()):
        group = np.flatnonzero(n_clusters == k)
        amp = np.zeros((len(group), dim, k), dtype=complex)
        amp[np.arange(len(group))[:, None], state.levels, ids[group]] = amps[group]
        eigs = np.linalg.eigvalsh(amp @ amp.conj().swapaxes(-1, -2))
        # Ascending eigenvalues: those above the cutoff are a tail of each
        # row, summed as one contiguous row of their own length.
        kept = np.count_nonzero(eigs > 1e-18, axis=-1)
        for n in set(kept.tolist()):
            tail = eigs[kept == n, dim - n:]
            entropy[group[kept == n]] = -np.sum(tail * np.log(tail), axis=-1)
    return entropy.reshape(runs) if runs else float(entropy[0])
