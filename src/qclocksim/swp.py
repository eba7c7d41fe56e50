"""Finite-dimensional pointer clocks and their degradation under dilation.

A pointer clock with N levels and level spacing omega0 carries a conjugate
basis of pointer states w_k (discrete Fourier transform of the energy basis).
Started in w_0, free evolution marches the state through w_1, w_2, ... at
intervals of the resolution time tau = 2 pi / (N omega0), so the pointer
index k is a clock hand.

Time dilation multiplies the level-n frequency by a factor d_n, which a
DilationProfile holds; the closed-form profiles of the twin round trips live
in ``oracles``, and this module only measures the clock they drive.  A uniform
factor (classical dilation, d_n identical for every n) only reparametrizes
the hand: the pointer variance at laboratory time t equals the undilated
variance at d t, and the hand still sharpens fully once per rescaled tick.
A level-dependent factor (nonclassical dilation, d_n varying with n because
internal energy gravitates) destroys the rephasing: the pointer variance at
the would-be ticks is strictly positive and the effective tick spacing
drifts away from tau.

Pointer probabilities are read with the inverse FFT, so clocks up to a few
thousand levels stay cheap.  read_pointer, the one reader, reads a batch of
times: exp(rate t) with rate = -i n omega0 d_n, the inverse FFT and |.|^2
run on a (times, levels) array in chunks of SCAN_CHUNK_AMPLITUDES (4,096)
amplitudes, which keeps a large clock's memory flat.  Moments stay one dot
per row: a batched gemv, einsum or sum differs in the last bit from a read
of one time.  The tick scan reads its grid in one call of read_pointer, then
refines every bracketed minimum in lockstep, one more call per round.  It
takes its window and grid step in units of tau, as a config gives them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import require_two_levels
from .units import require_positive

# Relative bracket width at which tick refinement stops, in units of tau.
TICK_REFINE_TOL = 1e-9

# Most amplitudes one batched pointer read holds at once.
SCAN_CHUNK_AMPLITUDES = 4096


@dataclass(frozen=True)
class SWPClock:
    """An N-level pointer clock with uniform level spacing omega0."""

    dim: int
    omega0: float

    def __post_init__(self) -> None:
        require_two_levels(self.dim)
        require_positive("omega0", self.omega0)

    @property
    def tau(self) -> float:
        """Resolution time: the hand advances one pointer state per tau."""
        return 2.0 * np.pi / (self.dim * self.omega0)


@dataclass(frozen=True)
class DilationProfile:
    """Per-level frequency multipliers d_n applied to the clock spectrum."""

    factors: np.ndarray

    def __post_init__(self) -> None:
        factors = np.asarray(self.factors, dtype=float)
        factors.setflags(write=False)
        object.__setattr__(self, "factors", factors)
        if factors.ndim != 1 or factors.size < 2:
            raise ValueError("factors must be a 1-d array over clock levels")
        if np.any(factors <= 0.0) or np.any(factors >= 2.0):
            raise ValueError("dilation factors must lie strictly inside (0, 2)")


def pointer_probabilities(clock: SWPClock, amplitudes: np.ndarray) -> np.ndarray:
    """P_k = |<w_k|state>|^2 for every pointer state at once (one row per state)."""
    overlaps = np.sqrt(clock.dim) * np.fft.ifft(amplitudes)
    return np.abs(overlaps) ** 2


def read_pointer(clock: SWPClock, profile: DilationProfile, t):
    """(mean, variance) of the pointer time at time t: floats for a float t,
    arrays for a 1-D array of times.  Level n evolves as e^{rate_n t}, rate_n =
    -i n omega0 d_n, and SCAN_CHUNK_AMPLITUDES amplitudes are read at a time."""
    if profile.factors.size != clock.dim:
        raise ValueError(
            f"profile has {profile.factors.size} factors but the clock has "
            f"{clock.dim} levels"
        )
    rates = -1j * np.arange(clock.dim) * clock.omega0 * profile.factors
    times = np.asarray(t, dtype=float)
    k = np.arange(clock.dim, dtype=float)
    step = max(1, SCAN_CHUNK_AMPLITUDES // clock.dim)
    moments = np.zeros((times.size, 2))
    for lo in range(0, times.size, step):
        amplitudes = np.exp(rates * times.reshape(-1, 1)[lo:lo + step]) / np.sqrt(clock.dim)
        for row, out in zip(pointer_probabilities(clock, amplitudes), moments[lo:]):
            out[0] = mean = row @ k
            # Two-pass variance: E[k^2] - E[k]^2 cancels to one ulp of E[k^2] when
            # the pointer sits on a single k, which is exactly the state at a tick.
            out[1] = row @ (k - mean) ** 2
    mean, var = moments.T if times.ndim else moments[0].tolist()
    return clock.tau * mean, clock.tau * clock.tau * var


@dataclass(frozen=True)
class TickScan:
    """Local variance minima found inside a scan window."""

    tick_times: np.ndarray
    tick_variances: np.ndarray


def _refine_minima(f, a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """The minimiser inside every bracket [a, b] at once, narrowing a and b in
    place: golden-section descent until each bracket is narrower than tol, then
    one parabolic interpolation through (a, mid, b) that falls back to mid.  f
    reads an array of times; each round reads one new time per open bracket."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(np.concatenate([c, d])).reshape(2, -1)
    while (live := np.flatnonzero(b - a > tol)).size:
        left = fc[live] < fd[live]
        lo, hi = live[left], live[~left]
        b[lo], d[lo], fd[lo] = d[lo], c[lo], fc[lo]
        a[hi], c[hi], fc[hi] = c[hi], d[hi], fd[hi]
        c[lo] = b[lo] - invphi * (b[lo] - a[lo])
        d[hi] = a[hi] + invphi * (b[hi] - a[hi])
        values = f(np.concatenate([c[lo], d[hi]]))
        fc[lo], fd[hi] = values[:lo.size], values[lo.size:]
    mid = 0.5 * (a + b)
    f_lo, f_mid, f_hi = f(np.concatenate([a, mid, b])).reshape(3, -1)
    num = (mid - a) ** 2 * (f_mid - f_hi) - (mid - b) ** 2 * (f_mid - f_lo)
    den = (mid - a) * (f_mid - f_hi) - (mid - b) * (f_mid - f_lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = mid - 0.5 * num / den
    return np.where((den != 0.0) & (a <= vertex) & (vertex <= b), vertex, mid)


def require_tick_window(window) -> None:
    if len(window) != 2:
        raise ValueError(f"tick window must be a (start, stop) pair, got {len(window)} entries")
    if not window[1] - window[0] >= 3.0:
        raise ValueError("tick window must span at least 3 tau")


def require_tick_resolution(resolution: float) -> None:
    if not 0.0 < resolution <= 1.0 / 50.0:
        raise ValueError("tick scan resolution must be positive and at most tau / 50")


def require_tick_grid(window, resolution: float) -> None:
    # An input bound, not a setting: the defaults scan 192 points.
    points = (window[1] - window[0]) / resolution
    if points > 1_000_000:
        raise ValueError(f"tick scan grid has {points:.7g} points, more than the limit of 1,000,000")


def find_effective_ticks(
    clock: SWPClock,
    profile: DilationProfile,
    window_in_tau=(0.5, 3.5),
    resolution_in_tau: float = 1.0 / 64.0,
) -> TickScan:
    """Locate the times where the pointer variance dips (the actual ticks).

    Scans the window on a uniform grid, brackets every interior local
    minimum, then refines all of them together with golden-section search
    followed by one parabolic polish.  The window and the grid step are in
    units of tau: the window must span at least 3 and the step be at most
    1/50, otherwise minima can slip between grid points, and the grid may
    hold at most 1,000,000 points.
    """
    require_tick_window(window_in_tau)
    require_tick_resolution(resolution_in_tau)
    require_tick_grid(window_in_tau, resolution_in_tau)
    tau = clock.tau
    lo, hi = (w * tau for w in window_in_tau)
    resolution = resolution_in_tau * tau

    def variance_at(t: np.ndarray) -> np.ndarray:
        return read_pointer(clock, profile, t)[1]

    grid = np.arange(lo, hi + 0.5 * resolution, resolution)
    values = variance_at(grid)
    dips = np.flatnonzero((values[1:-1] < values[:-2]) & (values[1:-1] <= values[2:]))
    tick_times = _refine_minima(variance_at, grid[dips], grid[dips + 2], tau * TICK_REFINE_TOL)
    return TickScan(tick_times=tick_times, tick_variances=variance_at(tick_times))
