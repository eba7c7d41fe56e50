"""Cyclic pointer clock: readings, rephasing, and effective tick drift.

The exact values asserted here were derived by hand from the N = 4 pointer
algebra (closed forms in sqrt(2)) and checked at 50-digit precision before
being frozen.  The nonclassical-tick fixture block was generated once with
the shipped defaults and is pinned against regressions.
"""

import numpy as np
import pytest

from helpers import pointer_states
from qclocksim import run_scenario, swp
from qclocksim.oracles import closed_dilation_factor, swp_dilation_factors
from qclocksim.runners import KINDS
from qclocksim.sequences import SequenceKind
from qclocksim.spectrum import ladder_spectrum
from qclocksim.swp import (
    SCAN_CHUNK_AMPLITUDES,
    TICK_REFINE_TOL,
    DilationProfile,
    SWPClock,
    find_effective_ticks,
    pointer_probabilities,
    read_pointer,
    require_tick_grid,
)


def _profile(name, dim, boost=0.0, spectrum=None):
    """The profile a config run plans: its closed-form factors from the oracles."""
    return DilationProfile(swp_dilation_factors(name, dim, boost, spectrum))


def _uniform(profile):
    return bool(np.all(profile.factors == profile.factors[0]))


def _spacing_deviation(scan, clock):
    """(mean tick spacing - tau) / tau, as the swp runner notes it."""
    return (float(np.mean(np.diff(scan.tick_times))) - clock.tau) / clock.tau


def _state_at(clock, profile, t):
    """Energy-basis amplitudes at time t, started in pointer state w_0."""
    n = np.arange(clock.dim)
    return np.exp(-1j * n * clock.omega0 * profile.factors * t) / np.sqrt(clock.dim)


def test_clock_starts_in_the_zeroth_pointer_state():
    clock = SWPClock(dim=8, omega0=1.0)
    state = _state_at(clock, _profile("none", 8), 0.0)
    np.testing.assert_allclose(state, pointer_states(clock)[0], atol=1e-15)
    assert read_pointer(clock, _profile("none", 8), 0.0) == (0.0, 0.0)


@pytest.mark.parametrize("dim", [4, 16, 64])
def test_undilated_clock_rephases_at_every_tick(dim):
    clock = SWPClock(dim=dim, omega0=1.0)
    profile = _profile("none", dim)
    for k in (1, 2, 3):
        mean, variance = read_pointer(clock, profile, k * clock.tau)
        assert variance < 1e-20 * clock.tau**2
        assert mean == pytest.approx(k * clock.tau, rel=1e-10)


def test_half_tick_reading_matches_the_closed_form():
    # At t = tau/2 with N = 4 the pointer distribution is exactly
    # [(2+sqrt2)/8, (2+sqrt2)/8, (2-sqrt2)/8, (2-sqrt2)/8], which gives
    # mean = tau (3 - sqrt2)/2 and variance = 0.75 tau^2.
    clock = SWPClock(dim=4, omega0=1.0)
    profile = _profile("none", 4)
    probs = pointer_probabilities(clock, _state_at(clock, profile, clock.tau / 2))
    hi = (2.0 + np.sqrt(2.0)) / 8.0
    lo = (2.0 - np.sqrt(2.0)) / 8.0
    np.testing.assert_allclose(probs, [hi, hi, lo, lo], atol=1e-14)
    mean, variance = read_pointer(clock, profile, clock.tau / 2)
    assert variance == pytest.approx(0.75 * clock.tau**2, abs=1e-13)
    assert mean == pytest.approx(clock.tau * (3.0 - np.sqrt(2.0)) / 2.0, abs=1e-13)


def test_fft_projection_matches_explicit_overlaps():
    clock = SWPClock(dim=16, omega0=1.0)
    rng = np.random.default_rng(7)
    state = rng.normal(size=16) + 1j * rng.normal(size=16)
    state /= np.linalg.norm(state)
    via_fft = pointer_probabilities(clock, state)
    w = pointer_states(clock)
    np.testing.assert_allclose(w @ w.conj().T, np.eye(16), atol=1e-12)
    explicit = np.abs(w.conj() @ state) ** 2
    np.testing.assert_allclose(via_fft, explicit, atol=1e-14)
    assert via_fft.sum() == pytest.approx(1.0, abs=1e-13)


def test_uniform_dilation_is_a_time_reparametrization():
    clock = SWPClock(dim=8, omega0=1.0)
    slowed = _profile("velocity-classical", 8, 0.2)
    d = float(slowed.factors[0])
    times = np.linspace(0.0, 3.0 * clock.tau, 97)
    dilated_mean, dilated_variance = read_pointer(clock, slowed, times)
    mean, variance = read_pointer(clock, _profile("none", 8), d * times)
    np.testing.assert_allclose(dilated_variance, variance, atol=1e-12 * clock.tau**2)
    np.testing.assert_allclose(dilated_mean, mean, atol=1e-12 * clock.tau)


def test_profile_factors_are_the_twin_closed_forms():
    assert _uniform(_profile("none", 4))
    np.testing.assert_allclose(_profile("none", 4).factors, 1.0)

    # Each profile is, bit for bit, the twin sequences' closed-form factor.
    slowed = _profile("velocity-classical", 4, 0.1)
    assert _uniform(slowed)
    np.testing.assert_allclose(slowed.factors, 1.0 - 0.005, rtol=1e-15)
    closed = closed_dilation_factor(SequenceKind.VELOCITY_CLOCK, None, 0.1, None)
    assert np.array_equal(slowed.factors, np.full(4, closed))

    sped = _profile("observer-classical", 4, 0.1)
    np.testing.assert_allclose(sped.factors, 1.0 + 0.005, rtol=1e-15)
    closed = closed_dilation_factor(SequenceKind.VELOCITY_OBSERVER, None, 0.1, None)
    assert np.array_equal(sped.factors, np.full(4, closed))

    spectrum = ladder_spectrum(4, 0.05)
    branchy = _profile("momentum-nonclassical", 4, 0.2, spectrum)
    expected = 1.0 - 0.5 * 0.2**2 / np.asarray(spectrum.masses)
    np.testing.assert_allclose(branchy.factors, expected, rtol=1e-15)
    closed = closed_dilation_factor(SequenceKind.MOMENTUM, spectrum, 0.2, np.arange(4))
    assert np.array_equal(branchy.factors, closed)
    assert not _uniform(branchy)
    with pytest.raises(KeyError):
        swp_dilation_factors("velocity", 4, 0.1)


def test_profile_validation():
    with pytest.raises(ValueError):
        DilationProfile(np.array([0.9]))  # a single level is not a clock
    with pytest.raises(ValueError):
        DilationProfile(np.array([1.0, 2.0]))  # factor at the open boundary
    with pytest.raises(ValueError):
        DilationProfile(np.array([1.0, -0.1]))
    with pytest.raises(ValueError):
        DilationProfile(np.ones((2, 2)))


def test_clock_validation():
    with pytest.raises(ValueError):
        SWPClock(dim=1, omega0=1.0)
    with pytest.raises(ValueError):
        SWPClock(dim=4, omega0=0.0)
    clock = SWPClock(dim=8, omega0=1.0)
    with pytest.raises(ValueError):
        read_pointer(clock, _profile("none", 4), 0.0)


# Spans of 3 and steps of 1/50 are compared in units of tau, so a clock whose
# window or step times tau rounds below 3 tau or above tau / 50 still scans.
@pytest.mark.parametrize("dim, omega0, options", [
    (16, 1.0, {}), (15, 1.0, {}), (8, 1.05, {}), (7, 1.0, {"resolution_in_tau": 0.02})])
def test_tick_finder_recovers_the_undilated_ticks(dim, omega0, options):
    clock = SWPClock(dim=dim, omega0=omega0)
    scan = find_effective_ticks(clock, _profile("none", dim), **options)
    assert scan.tick_times.shape == (3,)
    np.testing.assert_allclose(scan.tick_times / clock.tau, [1.0, 2.0, 3.0], atol=1e-7)
    assert np.all(scan.tick_variances < 1e-12 * clock.tau**2)
    assert abs(_spacing_deviation(scan, clock)) < 1e-7


@pytest.mark.parametrize("boost", [0.014718, 0.007685])
def test_uniform_dilation_ticks_carry_no_roundoff_variance(boost):
    # At a tick the pointer sits on a single k, where E[k^2] - E[k]^2 leaves
    # one ulp of E[k^2] (1.8e-15 tau^2 at these boosts) instead of zero.
    clock = SWPClock(dim=16, omega0=1.0)
    scan = find_effective_ticks(clock, _profile("velocity-classical", 16, boost))
    assert scan.tick_times.shape == (3,)
    assert np.all(scan.tick_variances <= 1e-20 * clock.tau**2)


def test_tick_finder_window_and_resolution_validation():
    clock = SWPClock(dim=8, omega0=1.0)
    profile = _profile("none", 8)
    with pytest.raises(ValueError, match="at least 3 tau"):
        find_effective_ticks(clock, profile, window_in_tau=(0.5, 2.5))
    with pytest.raises(ValueError, match="at most tau / 50"):
        find_effective_ticks(clock, profile, resolution_in_tau=0.1)
    with pytest.raises(ValueError, match="at most tau / 50"):
        find_effective_ticks(clock, profile, resolution_in_tau=0.0)
    for window in ((0.5,), (0.5, 3.5, 9.0)):
        with pytest.raises(ValueError, match="pair"):
            find_effective_ticks(clock, profile, window_in_tau=window)
    # A grid too large to allocate is refused by its point count; the
    # defaults scan (3.5 - 0.5) * 64 = 192 points, and 1,000,000 is the limit.
    with pytest.raises(ValueError, match=r"grid has 6\.4e\+301 points, more than the limit"):
        find_effective_ticks(clock, profile, window_in_tau=(0.5, 1e300))
    with pytest.raises(ValueError, match=r"grid has 1562500 points"):
        find_effective_ticks(clock, profile, window_in_tau=(0.5, 3.5), resolution_in_tau=1.92e-6)
    step = 2.0 ** -18  # exact spans: 1,000,000 steps pass, one more does not
    require_tick_grid((0.0, 1_000_000 * step), step)
    with pytest.raises(ValueError, match=r"grid has 1000001 points"):
        require_tick_grid((0.0, 1_000_001 * step), step)
    # The scan takes its window in units of tau: a window in time units is
    # refused by name, never read as one in tau.
    with pytest.raises(TypeError, match="window"):
        find_effective_ticks(clock, profile, window=(0.5 * clock.tau, 3.5 * clock.tau))


def test_tick_finder_reports_when_ticks_are_missing():
    # A clock running at half rate ticks every 2 tau; the default window
    # contains just one such tick, so no spacing can be formed.
    clock = SWPClock(dim=8, omega0=1.0)
    halved = DilationProfile(np.full(8, 0.5))
    scan = find_effective_ticks(clock, halved)
    assert scan.tick_times.shape[0] < 2
    # The swp runner notes it and fails the run, with no spacing to grade.
    params = {"profile": "none", "window_in_tau": (0.5, 3.5), "resolution_in_tau": 1.0 / 64.0}
    [report] = run_scenario("swp", ["halved"], [params], (clock, halved), KINDS["swp"].tolerances)
    assert report.notes == [
        f"only 1 variance minima inside ({0.5 * clock.tau:.6g}, {3.5 * clock.tau:.6g}); "
        "spacing undefined, widen the window or check the profile"
    ]
    assert [(c["name"], c["passed"]) for c in report.checks] == [
        ("ticks_found", False), ("tick_variance_in_tau2", False),
        ("classical_spacing_deviation", False)]
    assert report.checks[2]["value"] == float("inf")


# Frozen regression block: eight levels spaced 0.01 apart, boost 0.1,
# shipped window and resolution defaults.  Values recorded from the first
# verified run; tolerances sit two orders above the tick-location noise
# floor and four below the physical drift being pinned.
FROZEN_FACTORS = [
    0.995,
    0.995049504950495,
    0.9950980392156863,
    0.9951456310679612,
    0.9951923076923077,
    0.9952380952380953,
    0.9952830188679245,
    0.9953271028037383,
]
FROZEN_TICKS_IN_TAU = [1.0046954190507142, 2.009390732427306, 3.014085506863873]
FROZEN_VARS_IN_TAU2 = [5.290804461210996e-08, 1.301828511657277e-07, 2.83682185298062e-07]
FROZEN_SPACING_DEVIATION = 0.0046950439065795305


def test_nonclassical_ticks_match_the_frozen_fixture():
    spectrum = ladder_spectrum(8, 0.01)
    clock = SWPClock(dim=8, omega0=1.0)
    profile = _profile("momentum-nonclassical", spectrum.dim, 0.1, spectrum)
    np.testing.assert_allclose(profile.factors, FROZEN_FACTORS, rtol=1e-12)

    scan = find_effective_ticks(clock, profile)
    np.testing.assert_allclose(scan.tick_times / clock.tau, FROZEN_TICKS_IN_TAU, atol=1e-6)
    np.testing.assert_allclose(
        scan.tick_variances / clock.tau**2, FROZEN_VARS_IN_TAU2, rtol=1e-6
    )
    assert _spacing_deviation(scan, clock) == pytest.approx(FROZEN_SPACING_DEVIATION, abs=1e-6)
    # Rephasing is genuinely imperfect: every minimum keeps strictly
    # positive variance, far above anything a uniform profile leaves.
    assert scan.tick_variances.min() > 1e-8 * clock.tau**2


def _reference_reading(clock, profile, t):
    """(mean, variance) read at one time, as the scan did before it read its
    grid in batches."""
    n = np.arange(clock.dim)
    probs = np.abs(np.sqrt(clock.dim) * np.fft.ifft(_state_at(clock, profile, t))) ** 2
    mean_k = float(probs @ n)
    var_k = float(probs @ (n - mean_k) ** 2)
    return clock.tau * mean_k, clock.tau * clock.tau * var_k


def _golden_bracket(f, a, b, tol):
    """Scalar golden-section descent on [a, b]; returns the final bracket."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return a, b


def _parabola_vertex(f, a, b):
    """Vertex of the parabola through (a, mid, b), or mid if there is none
    inside [a, b]."""
    mid = 0.5 * (a + b)
    f_a, f_mid, f_b = f(a), f(mid), f(b)
    num = (mid - a) ** 2 * (f_mid - f_b) - (mid - b) ** 2 * (f_mid - f_a)
    den = (mid - a) * (f_mid - f_b) - (mid - b) * (f_mid - f_a)
    if den == 0.0:
        return mid
    vertex = mid - 0.5 * num / den
    return vertex if a <= vertex <= b else mid


def _reference_ticks(clock, profile):
    """The per-point tick scan over the default window: one read per grid
    point, then a scalar golden-section and parabolic refinement of each
    minimum, one after the other."""
    tau = clock.tau

    def variance_at(t):
        return _reference_reading(clock, profile, t)[1]

    resolution = tau / 64.0
    grid = np.arange(0.5 * tau, 3.5 * tau + 0.5 * resolution, resolution)
    values = [variance_at(t) for t in grid]
    ticks = []
    for i in range(1, len(grid) - 1):
        if values[i] < values[i - 1] and values[i] <= values[i + 1]:
            a, b = _golden_bracket(variance_at, grid[i - 1], grid[i + 1], tau * TICK_REFINE_TOL)
            ticks.append(_parabola_vertex(variance_at, a, b))
    return len(grid), np.asarray(ticks), np.asarray([variance_at(t) for t in ticks])


def _profiles(dim):
    return [
        _profile("velocity-classical", dim, 0.1),
        _profile("momentum-nonclassical", dim, 0.1, ladder_spectrum(dim, 0.1 / dim)),
    ]


@pytest.mark.parametrize("dim", [8, 16, 256, 1024])
def test_batched_tick_scan_equals_the_per_point_scan_bit_for_bit(dim):
    clock = SWPClock(dim=dim, omega0=0.0005 if dim > 16 else 1.0)
    for profile in _profiles(dim):
        points, ticks, variances = _reference_ticks(clock, profile)
        if dim == 1024:
            assert points > 48 * (SCAN_CHUNK_AMPLITUDES // dim)  # the grid spans 49 chunks
        scan = find_effective_ticks(clock, profile)
        assert len(ticks) == 3
        assert np.array_equal(scan.tick_times, ticks)
        assert np.array_equal(scan.tick_variances, variances)


@pytest.mark.parametrize("dim", [8, 16, 256, 1024])
def test_batched_readings_equal_the_per_point_reads_bit_for_bit(dim):
    clock = SWPClock(dim=dim, omega0=0.0005 if dim > 16 else 1.0)
    times = np.linspace(0.0, 4.0 * clock.tau, 41)
    for profile in _profiles(dim):
        mean, variance = read_pointer(clock, profile, times)
        reference = np.array([_reference_reading(clock, profile, t) for t in times])
        assert np.array_equal(mean, reference[:, 0])
        assert np.array_equal(variance, reference[:, 1])
        assert read_pointer(clock, profile, times[7]) == tuple(reference[7])


def test_tick_refinement_reads_through_the_module_read_pointer(monkeypatch):
    # The benchmark tracer counts pointer reads by wrapping swp.read_pointer:
    # every read goes through it, the grid scan first, then one time per open
    # bracket.
    calls = []
    read = swp.read_pointer
    monkeypatch.setattr(swp, "read_pointer", lambda *args: calls.append(args) or read(*args))
    clock = SWPClock(dim=16, omega0=1.0)
    scan = find_effective_ticks(clock, _profiles(16)[1])
    assert len(scan.tick_times) == 3
    sizes = [np.size(times) for _, _, times in calls]
    # The 193 grid points of the default window, the first two golden points of
    # each bracket, the rounds, the three points of the parabola and the final
    # read of each tick.
    assert sizes[:2] == [193, 6] and sizes[-2:] == [9, 3]
    rounds = sizes[2:-2]
    assert len(rounds) >= 36 and all(1 <= n <= 3 for n in rounds)
    assert rounds[0] == 3 and rounds == sorted(rounds, reverse=True)


def test_read_pointer_reads_a_batch_of_times_as_the_single_reads():
    clock = SWPClock(dim=16, omega0=1.0)
    profile = _profiles(16)[1]
    times = np.linspace(0.0, 3.0 * clock.tau, 7)
    mean, variance = read_pointer(clock, profile, times)
    for i, t in enumerate(times):
        single = read_pointer(clock, profile, t)
        assert all(isinstance(value, float) for value in single)
        assert (mean[i], variance[i]) == single
