"""Grid evolutions: kicks, linear potentials, impulsive and accelerated limits.

Oracles used here are independent of the implementation paths they check:
plane-wave eigenphases against the closed-form dispersion, the Fourier shift
theorem for boosts, Ehrenfest trajectories for the accelerated frame, the
FFT free-evolution path against the dense eigendecomposition path, and the
real symmetric branch Hamiltonians against a term-by-term DFT sum and a dense
complex Hermitian construction of the same evolutions.
"""

from pathlib import Path

import numpy as np
import pytest

from qclocksim import load_config
from qclocksim.errors import WraparoundError
from qclocksim.grid import GridState, gaussian_grid_state
from qclocksim.gridops import (
    ABORT_EDGE_MASS,
    _branch_hamiltonian,
    accelerated_frame_trotter,
    evolve_linear_potential,
    impulsive_boost_limit,
    momentum_boost_grid,
    velocity_boost_grid,
)
from qclocksim.operators import total_energy
from qclocksim.spectrum import ladder_spectrum

SPEC = ladder_spectrum(2, 0.1)


def _plane_wave_state(indices, size=64, box_length=32.0):
    """One exact lattice plane wave per level, equal weights."""
    dim = SPEC.dim
    dp = 2.0 * np.pi / box_length
    j = np.arange(size)
    x = (j - size // 2) * box_length / size
    amps = np.zeros((dim, size), dtype=complex)
    for n, k in enumerate(indices):
        amps[n] = np.exp(1j * k * dp * x) / np.sqrt(dim * size)
    return GridState(spectrum=SPEC, box_length=box_length, amplitudes=amps)


def _free_evolution_fft(state, t):
    """Reference free evolution: each lattice momentum p of level n picks up
    the phase e^{-i t E(n, p)} between a forward and an inverse FFT."""
    levels = np.arange(state.spectrum.dim)[:, None]
    phases = np.exp(-1j * t * total_energy(state.spectrum, levels, state.momenta))
    return np.fft.ifft(np.fft.fft(state.amplitudes, axis=1) * phases, axis=1)


def _level_moments(state, which):
    """Per-level mean of x or p, from the normalized level distribution."""
    if which == "x":
        grid, amps = state.positions, state.amplitudes
    else:
        grid, amps = state.momenta, state.momentum_amplitudes()
    prob = np.abs(amps) ** 2
    weights = prob.sum(axis=1)
    return (prob @ grid) / weights


def test_free_evolution_phases_plane_waves_by_the_dispersion():
    state = _plane_wave_state([3, -5])
    dp = 2.0 * np.pi / state.box_length
    t = 1.7
    out = _free_evolution_fft(state, t)
    for n, k in enumerate([3, -5]):
        expected = np.exp(-1j * t * total_energy(SPEC, n, k * dp))
        np.testing.assert_allclose(
            out[n], expected * state.amplitudes[n], atol=1e-13
        )


def test_velocity_boost_shifts_each_level_by_its_mass():
    # v chosen so M_n v lands exactly on the momentum lattice: with masses
    # 1.0 and 1.1 and v = 10 dp, level 0 shifts 10 sites and level 1 shifts 11.
    size, length = 64, 64.0
    dp = 2.0 * np.pi / length
    state = gaussian_grid_state(SPEC, size=size, box_length=length, sigma=3.0)
    boosted = velocity_boost_grid(state, 10.0 * dp)
    tilde = np.fft.fft(state.amplitudes, axis=1)
    tilde_boosted = np.fft.fft(boosted.amplitudes, axis=1)
    # The lattice origin sits at -L/2, so a K-site spectral shift also carries
    # the global phase e^{-i pi K} = (-1)^K.
    np.testing.assert_allclose(tilde_boosted[0], np.roll(tilde[0], 10), atol=1e-10)
    np.testing.assert_allclose(tilde_boosted[1], -np.roll(tilde[1], 11), atol=1e-10)


def test_momentum_boost_shifts_all_levels_equally():
    size, length = 64, 64.0
    dp = 2.0 * np.pi / length
    state = gaussian_grid_state(SPEC, size=size, box_length=length, sigma=3.0)
    kicked = momentum_boost_grid(state, 7.0 * dp)
    tilde = np.fft.fft(state.amplitudes, axis=1)
    tilde_kicked = np.fft.fft(kicked.amplitudes, axis=1)
    for n in range(SPEC.dim):
        # Same (-1)^K origin phase as in the velocity-boost test, K = 7.
        np.testing.assert_allclose(tilde_kicked[n], -np.roll(tilde[n], 7), atol=1e-10)


def test_zero_slope_potential_matches_fft_free_evolution():
    # Cross-validates the dense eigendecomposition path against the FFT path.
    state = gaussian_grid_state(SPEC, size=128, box_length=48.0, sigma=3.0, momentum=0.15)
    via_eigh = evolve_linear_potential(state, 0.0, 1.5)
    via_fft = _free_evolution_fft(state, 1.5)
    np.testing.assert_allclose(via_eigh.amplitudes, via_fft, atol=1e-12)


def test_accelerated_evolution_follows_ehrenfest_trajectories():
    # Linear potential, quadratic kinetic term: the centroid equations are
    # exact, with level-dependent inertia.  <p>_n(t) = p0 - a M_n t and
    # <x>_n(t) = x0 + p0 t / M_n - a t^2 / 2.
    a, t, p0 = 0.02, 2.0, 0.2
    state = gaussian_grid_state(SPEC, size=256, box_length=64.0, sigma=3.5, momentum=p0)
    x0 = _level_moments(state, "x")
    p_init = _level_moments(state, "p")
    out = evolve_linear_potential(state, a, t)
    x_mean = _level_moments(out, "x")
    p_mean = _level_moments(out, "p")
    for n in range(SPEC.dim):
        mass = SPEC.mass(n)
        assert p_mean[n] == pytest.approx(p_init[n] - a * mass * t, abs=1e-8)
        expected_x = x0[n] + p_init[n] * t / mass - 0.5 * a * t * t
        assert x_mean[n] == pytest.approx(expected_x, abs=1e-8)


def test_coupled_impulse_converges_to_velocity_boost():
    state = gaussian_grid_state(SPEC, size=128, box_length=48.0, sigma=3.0)
    report = impulsive_boost_limit(
        state, 0.01, dt_schedule=(1e-1, 1e-2, 1e-3, 1e-4), internal_coupled=True
    )
    ratios = report.shrink_ratios(against="velocity")
    assert np.all(ratios > 8.0) and np.all(ratios < 12.0)
    # The deviation from the bare momentum kick stalls at the floor set by
    # the internal-energy phase difference; it does not follow dt down.
    stall = report.deviation_momentum
    assert stall[-1] > 1e-4
    assert abs(stall[-1] / stall[-2] - 1.0) < 0.5
    assert stall[-1] > 100.0 * report.deviation_velocity[-1]


def test_uncoupled_impulse_converges_to_momentum_kick_instead():
    state = gaussian_grid_state(SPEC, size=128, box_length=48.0, sigma=3.0)
    report = impulsive_boost_limit(
        state, 0.01, dt_schedule=(1e-1, 1e-2, 1e-3, 1e-4), internal_coupled=False
    )
    ratios = report.shrink_ratios(against="momentum")
    assert np.all(ratios > 8.0) and np.all(ratios < 12.0)
    assert report.deviation_velocity[-1] > 100.0 * report.deviation_momentum[-1]


def test_impulse_schedule_validation():
    state = gaussian_grid_state(SPEC, size=128, box_length=48.0, sigma=3.0)
    with pytest.raises(ValueError):
        impulsive_boost_limit(state, 0.01, dt_schedule=(1e-2, 1e-2))
    with pytest.raises(ValueError):
        impulsive_boost_limit(state, 0.01, dt_schedule=(1e-2, -1.0))
    # A shrink ratio compares two durations.
    for schedule in ((), (1e-2,)):
        with pytest.raises(ValueError, match="at least two"):
            impulsive_boost_limit(state, 0.01, dt_schedule=schedule)


def test_trotter_error_halves_when_steps_double():
    state = gaussian_grid_state(SPEC, size=128, box_length=48.0, sigma=3.0)
    report = accelerated_frame_trotter(state, 0.02, 1.0, steps=(8, 16, 32))
    ratios = report.halving_ratios()
    assert ratios.shape == (2,)
    assert np.all(ratios > 1.6) and np.all(ratios < 2.4)
    assert np.all(np.diff(report.errors) < 0.0)


def test_trotter_with_zero_acceleration_is_exact():
    state = gaussian_grid_state(SPEC, size=128, box_length=48.0, sigma=3.0)
    report = accelerated_frame_trotter(state, 0.0, 1.0, steps=(2, 4))
    assert np.all(report.errors < 1e-12)


def test_trotter_steps_validation():
    state = gaussian_grid_state(SPEC, size=128, box_length=48.0, sigma=3.0)
    with pytest.raises(ValueError):
        accelerated_frame_trotter(state, 0.02, 1.0, steps=(8, 8))
    with pytest.raises(ValueError):
        accelerated_frame_trotter(state, 0.02, 1.0, steps=(0, 4))
    # A halving ratio compares two step counts.
    for steps in ((), (64,)):
        with pytest.raises(ValueError, match="at least two"):
            accelerated_frame_trotter(state, 0.02, 1.0, steps=steps)


@pytest.mark.parametrize("duration", [0.0, -2.0])
def test_trotter_refuses_a_duration_that_does_not_run_forward(duration):
    # A negative duration runs both the product and the exact evolution
    # backward, where every convergence check still passes.
    state = gaussian_grid_state(SPEC, size=128, box_length=48.0, sigma=3.0)
    with pytest.raises(ValueError, match="duration must be positive"):
        accelerated_frame_trotter(state, 0.02, duration, steps=(2, 4))


def _sequential_trotter_errors(state, acceleration, duration, steps):
    """One product per n, run to the end before the next starts, as
    (U(dt) B_v(-a dt))^n with its own kick and drift tables."""
    exact = evolve_linear_potential(state, acceleration, duration).amplitudes
    levels = np.arange(state.spectrum.dim)[:, None]
    errors = []
    for n in steps:
        dt = duration / n
        kick = np.exp(1j * state.spectrum.masses[:, None] * (-acceleration * dt) * state.positions)
        drift = np.exp(-1j * dt * total_energy(state.spectrum, levels, state.momenta))
        amps = state.amplitudes
        for _ in range(n):
            amps = np.fft.ifft(np.fft.fft(amps * kick, axis=1) * drift, axis=1)
        edge = state.with_amplitudes(amps).edge_mass()
        if edge > ABORT_EDGE_MASS:
            raise WraparoundError(f"trotter product (n = {n}): edge mass {edge:.3e}")
        errors.append(float(np.linalg.norm(amps - exact)))
    return errors


@pytest.mark.parametrize(
    "levels, steps, size",
    [(2, (32, 64, 128, 256, 512), 256), (2, (3, 5, 8), 128), (3, (4, 8, 16, 32), 128)],
    ids=["default-doubling", "not-doubling", "three-levels"],
)
def test_lockstep_trotter_errors_equal_the_sequential_products_bit_for_bit(levels, steps, size):
    state = gaussian_grid_state(ladder_spectrum(levels, 0.05), size=size, box_length=64.0,
                                sigma=3.5)
    report = accelerated_frame_trotter(state, 0.02, 2.0, steps=steps)
    assert report.steps.tolist() == list(steps)
    assert report.errors.tolist() == _sequential_trotter_errors(state, 0.02, 2.0, steps)


def test_a_drifting_trotter_product_names_the_first_n_that_reaches_the_edge():
    # With a = 1 over T = 2 the product with n steps overshoots the exact
    # packet by a T^2 / 2n toward the edge: the exact evolution and the n = 64
    # product stay inside, the n = 3 and n = 5 products do not.
    state = gaussian_grid_state(SPEC, size=128, box_length=48.0, sigma=3.0, center=0.75)
    with pytest.raises(WraparoundError, match=r"trotter product \(n = 3\)"):
        _sequential_trotter_errors(state, 1.0, 2.0, (3, 5, 64))
    with pytest.raises(WraparoundError, match=r"trotter product \(n = 3\)"):
        accelerated_frame_trotter(state, 1.0, 2.0, steps=(3, 5, 64))
    with pytest.raises(WraparoundError, match=r"trotter product \(n = 5\)"):
        accelerated_frame_trotter(state, 1.0, 2.0, steps=(5, 64))
    assert len(_sequential_trotter_errors(state, 1.0, 2.0, (64,))) == 1


def test_packet_near_the_edge_aborts():
    state = gaussian_grid_state(SPEC, size=128, box_length=48.0, sigma=3.0, center=12.0)
    with pytest.raises(WraparoundError):
        evolve_linear_potential(state, -0.1, 0.1)


def test_packet_driven_into_the_edge_aborts():
    # Centered and healthy at t = 0, but the potential slides it into the
    # boundary band by the end of the window.
    state = gaussian_grid_state(SPEC, size=128, box_length=48.0, sigma=3.0)
    with pytest.raises(WraparoundError):
        evolve_linear_potential(state, 2.0, 3.0)


def _full_suite_spec(kind):
    config = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "full-suite.json"))
    [spec] = [s for s in config.scenarios if s.kind == kind]
    return spec


def _full_suite_params(kind):
    [(_, params)] = _full_suite_spec(kind).expand()
    return params


def _full_suite_state(kind):
    """The initial packet the config load planned for the full-suite run."""
    [state] = _full_suite_spec(kind).plans
    return state


def _explicit_kinetic(state, level):
    """Kinetic matrix (1/D) sum_k kin(p_k) e^{i p_k (x_j - x_j')}, term by term."""
    kin = total_energy(state.spectrum, level, state.momenta) - state.spectrum.epsilons[level]
    separation = state.positions[:, None] - state.positions[None, :]
    out = np.zeros((state.size, state.size), dtype=complex)
    for p, k in zip(state.momenta, kin):
        out += k * np.exp(1j * p * separation)
    return out / state.size


def _complex_evolve_static(state, potentials, duration):
    """Per-level evolution with the complex Hermitian H_n: the kinetic part
    conjugated by the dense DFT matrix, symmetrized, one complex eigh each."""
    dft = np.exp(-1j * np.outer(state.momenta, state.positions)) / np.sqrt(state.size)
    amps = np.empty_like(state.amplitudes)
    for n, eps in enumerate(state.spectrum.epsilons):
        kin = total_energy(state.spectrum, n, state.momenta) - eps
        h = dft.conj().T @ (kin[:, None] * dft) + np.diag(potentials[n] + eps)
        w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
        amps[n] = v @ (np.exp(-1j * w * duration) * (v.conj().T @ state.amplitudes[n]))
    return amps


@pytest.mark.parametrize("kind", ["trotter-accel", "impulse-boost"])
def test_branch_hamiltonian_is_the_symmetric_fourier_grid_sum(kind):
    state = _full_suite_state(kind)
    potential = 0.01 * state.positions
    for level in range(state.spectrum.dim):
        h = _branch_hamiltonian(state, level, potential)
        assert h.dtype == np.float64
        assert np.array_equal(h, h.T)
        expected = _explicit_kinetic(state, level) + np.diag(
            potential + state.spectrum.epsilons[level]
        )
        np.testing.assert_allclose(h, expected, rtol=0.0, atol=1e-12 * np.max(np.abs(expected)))


def test_accelerated_evolution_equals_the_complex_reference():
    params = _full_suite_params("trotter-accel")
    state = _full_suite_state("trotter-accel")
    a, t = params["acceleration"], params["duration"]
    potentials = np.stack([a * m * state.positions for m in state.spectrum.masses])
    np.testing.assert_allclose(
        evolve_linear_potential(state, a, t).amplitudes,
        _complex_evolve_static(state, potentials, t),
        rtol=0.0,
        atol=1e-13,
    )


def test_linear_potential_evolutions_equal_the_complex_reference():
    params = _full_suite_params("impulse-boost")
    state = _full_suite_state("impulse-boost")
    for dt in params["dt_schedule"]:
        slope = -params["boost"] / dt
        potentials = np.stack([slope * m * state.positions for m in state.spectrum.masses])
        np.testing.assert_allclose(
            evolve_linear_potential(state, slope, dt).amplitudes,
            _complex_evolve_static(state, potentials, dt),
            rtol=0.0,
            atol=1e-13,
        )
