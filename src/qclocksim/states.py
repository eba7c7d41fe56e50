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

# Sorted momenta of one level this close to the one before are one plane wave.
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
        """Build a state from (level, momentum, amplitude) triples, sorted by
        (level, momentum): the components of one plane wave are summed in that
        order at its first momentum, and the state is rescaled to unit norm."""
        columns = list(zip(*components, strict=True))
        if not columns:
            raise ValueError("state needs at least one component")
        levels, momenta, amps = (np.array(column, dtype=dtype) for column, dtype
                                 in zip(columns, (np.int64, float, complex), strict=True))
        order = np.lexsort((momenta, levels))
        levels, momenta, amps = levels[order], momenta[order], amps[order]
        ids = plane_waves(levels, momenta)
        first = np.insert(np.diff(ids) != 0, 0, True)
        summed = amps[first]
        np.add.at(summed, ids[~first], amps[~first])  # in index order, as a_0 + a_1 + ... adds
        kept = np.abs(summed) ** 2 > _DROP_TOL
        if not kept.any():
            raise ValueError("all components cancelled")
        amps = summed[kept]
        return cls(spectrum, levels[first][kept], momenta[first][kept], amps / np.linalg.norm(amps))

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


def plane_waves(levels: np.ndarray, momenta: np.ndarray) -> np.ndarray:
    """Plane-wave id per component, per run, numbered in (level, momentum)
    order: within one level, a sorted momentum within MERGE_TOL of the one
    before it belongs to the same plane wave."""
    levels = np.broadcast_to(levels, momenta.shape)
    order = np.lexsort((momenta, levels), axis=-1)
    n, p = (np.take_along_axis(x, order, axis=-1) for x in (levels, momenta))
    new = (np.diff(n, axis=-1) != 0) | (np.diff(p, axis=-1) > MERGE_TOL)
    ids = np.empty(momenta.shape, dtype=np.int64)
    np.put_along_axis(ids, order, np.cumsum(np.insert(new, 0, False, axis=-1), axis=-1), -1)
    return ids


def inner_product(bra: PlaneWaveState, ket: PlaneWaveState):
    """<bra|ket>: a bra component meets the first ket component of its plane
    wave; distinct plane waves are exactly orthogonal.  A run axis gives one
    product per run, rounded as the scalar sum 0 + c_0 + c_1 + ... in bra order."""
    if bra.spectrum != ket.spectrum:
        raise ValueError("states live on different internal spectra")
    nb, nk = len(bra.levels), len(ket.levels)
    runs = np.broadcast_shapes(bra.momenta.shape[:-1], ket.momenta.shape[:-1])
    momenta = np.concatenate([np.broadcast_to(bra.momenta, runs + (nb,)),
                              np.broadcast_to(ket.momenta, runs + (nk,))], axis=-1)
    ids = plane_waves(np.concatenate([bra.levels, ket.levels]), momenta).reshape(-1, nb + nk)
    first = np.full(ids.shape, nk)  # nk: the ket holds no component of that plane wave
    np.minimum.at(first, (np.arange(len(ids))[:, None], ids[:, nb:]), np.arange(nk))
    match = np.take_along_axis(first, ids[:, :nb], axis=-1).reshape(runs + (nb,))
    # The product is written out, as numpy's complex array multiply rounds otherwise.
    a, found = np.conj(bra.amplitudes), match < nk
    b = np.take_along_axis(np.broadcast_to(ket.amplitudes, runs + (nk,)),
                           np.minimum(match, nk - 1), axis=-1)
    real = np.add.accumulate(np.where(found, a.real * b.real - a.imag * b.imag, 0.0), axis=-1)
    imag = np.add.accumulate(np.where(found, a.real * b.imag + a.imag * b.real, 0.0), axis=-1)
    return real[..., -1] + 1j * imag[..., -1]


def fidelity_deviation(reference: PlaneWaveState, state: PlaneWaveState):
    """|<reference|state> - 1|, one per run: zero iff the states agree including phase."""
    overlap = inner_product(reference, state) - 1.0
    return np.hypot(overlap.real, overlap.imag)


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
    ids = plane_waves(np.zeros(len(state.levels), dtype=np.int64), momenta)
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
