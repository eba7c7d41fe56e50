"""Trapped-ion clock: branch spectra, oracle shifts, and driven lineshapes.

The closed-form oracle is re-derived here at 50-digit precision with mpmath
and compared against the package's double-precision values, so any slip in
the shipped formulas shows up against an independent computation.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

from helpers import excited_trap_frequency
from qclocksim import ionclock, parse_config, run_config
from qclocksim.errors import GridTooNarrowError, IntegrationError
from qclocksim.ionclock import (
    TrapModel,
    _doubled_cutoff_vertex,
    _excitation_probabilities,
    _fock_gauge,
    _p_squared,
    _scan_peak,
    _x_operator,
    _x_squared,
    displacement_operator,
    spectroscopy_scan,
    static_hamiltonians,
)
from qclocksim.oracles import branch_spectrum_oracle

U, W = 1e-3, 1e-5

# Lineshapes of the default models at fock indices 0 and 1 (the two ion runs
# of configs/full-suite.json), recorded before the spectral pulse replaced
# the stepped propagator.  The two differ by roundoff: at most 4.1e-14 in
# the excitation and 3.7e-10 relative in the vertex, which divides by the
# second difference of a flat peak top and so magnifies that roundoff.
FROZEN_LINESHAPES = json.loads(
    (Path(__file__).parent / "data" / "ion_lineshape_frozen.json").read_text()
)


def test_ground_branch_is_exactly_harmonic():
    model = TrapModel(transition_energy=U, trap_frequency=W)
    h_ground, h_excited = static_hamiltonians(model)
    n = np.arange(model.fock_cutoff)
    np.testing.assert_array_equal(h_ground, np.diag(W * (n + 0.5)))
    np.testing.assert_allclose(h_excited, h_excited.conj().T, atol=0.0)


def test_kinetic_and_potential_cancellation():
    # (1/2) w^2 X^2 + (1/2) P^2 is w (n + 1/2): the quadrature off-diagonals
    # cancel algebraically, leaving at most rounding residue in doubles.
    # This is why the shipped ground branch is built directly as a diagonal.
    h = 0.5 * W * W * _x_squared(12, W) + 0.5 * _p_squared(12, W)
    target = np.diag(W * (np.arange(12) + 0.5))
    np.testing.assert_allclose(h, target, rtol=1e-15, atol=1e-20)


def test_excited_branch_eigenvalues_follow_the_scaled_frequency():
    model = TrapModel(transition_energy=U, trap_frequency=W)
    _, h_excited = static_hamiltonians(model)
    w_e = W / np.sqrt(1.0 + U)
    levels = np.linalg.eigvalsh(h_excited)[:6]
    expected = U + w_e * (np.arange(6) + 0.5)
    np.testing.assert_allclose(levels, expected, atol=1e-12)


def test_quadrature_matrix_elements():
    x2 = _x_squared(6, W)
    p2 = _p_squared(6, W)
    x = _x_operator(6, W)
    assert x2[0, 0] == pytest.approx(1.0 / (2.0 * W), rel=1e-15)
    assert x2[2, 2] == pytest.approx(5.0 / (2.0 * W), rel=1e-15)
    assert x2[0, 2] == pytest.approx(np.sqrt(2.0) / (2.0 * W), rel=1e-15)
    assert x2[1, 3] == pytest.approx(np.sqrt(6.0) / (2.0 * W), rel=1e-15)
    assert x2[0, 1] == 0.0
    assert p2[0, 0] == pytest.approx(W / 2.0, rel=1e-15)
    assert p2[0, 2] == pytest.approx(-np.sqrt(2.0) * W / 2.0, rel=1e-15)
    assert x[0, 1] == pytest.approx(1.0 / np.sqrt(2.0 * W), rel=1e-15)
    assert x[2, 3] == pytest.approx(np.sqrt(3.0) / np.sqrt(2.0 * W), rel=1e-15)


def test_displacement_operator_is_unitary():
    d = displacement_operator(16, W, 0.3 * np.sqrt(2.0 * W))
    np.testing.assert_allclose(d @ d.conj().T, np.eye(16), atol=1e-12)
    np.testing.assert_allclose(
        displacement_operator(16, W, 0.0), np.eye(16), atol=1e-14
    )
    # Textbook overlap: |<0| e^{ikx} |0>| = e^{-eta^2 / 2}.
    assert abs(d[0, 0]) == pytest.approx(np.exp(-0.5 * 0.3**2), abs=1e-10)


def test_default_drive_parameters():
    model = TrapModel(transition_energy=U, trap_frequency=W)
    assert model.rabi_frequency == pytest.approx(0.03 * W, rel=1e-15)
    assert model.lamb_dicke == 0.05
    assert model.wavevector == 0.05 * np.sqrt(2.0 * W)
    assert model.pulse_time == pytest.approx(np.pi / model.rabi_frequency, rel=1e-15)
    assert model.fock_cutoff == 32
    custom = TrapModel(U, W, lamb_dicke=0.12)
    assert custom.wavevector == 0.12 * np.sqrt(2.0 * W)


def test_model_validation():
    with pytest.raises(ValueError):
        TrapModel(transition_energy=-1e-3, trap_frequency=W)
    with pytest.raises(ValueError):
        TrapModel(transition_energy=U, trap_frequency=0.0)
    with pytest.raises(ValueError):
        TrapModel(transition_energy=U, trap_frequency=W, fock_index=-1)
    with pytest.raises(ValueError):
        TrapModel(transition_energy=U, trap_frequency=W, fock_cutoff=5)
    with pytest.raises(ValueError):
        TrapModel(transition_energy=U, trap_frequency=W, fock_index=3, fock_cutoff=12)
    with pytest.raises(ValueError):
        TrapModel(transition_energy=U, trap_frequency=W, rabi_frequency=-1.0)


def _extended_precision_oracle(u: float, w: float, n: int):
    """Independent 50-digit evaluation of the branch-shift closed forms."""
    mp.dps = 50
    mu, mw = mp.mpf(repr(u)), mp.mpf(repr(w))
    w_e = mw / mp.sqrt(1 + mu)
    n_half = mp.mpf(2 * n + 1) / 2
    carrier = n_half * (w_e - mw)
    return w_e, carrier, carrier / mu


@pytest.mark.parametrize(
    "u, w, n", [(1e-3, 1e-5, 0), (1e-3, 1e-5, 2), (5e-3, 1e-4, 1)]
)
def test_branch_oracle_matches_extended_precision(u, w, n):
    model = TrapModel(transition_energy=u, trap_frequency=w, fock_index=n)
    oracle = branch_spectrum_oracle(model)
    w_e, carrier, relative = _extended_precision_oracle(u, w, n)
    assert excited_trap_frequency(model, oracle) == pytest.approx(float(w_e), rel=1e-14)
    # The carrier shift subtracts two nearly equal frequencies, which costs
    # roughly u worth of relative precision in doubles.
    assert oracle.carrier_shift == pytest.approx(float(carrier), rel=1e-11)
    assert oracle.relative_shift == pytest.approx(float(relative), rel=1e-11)


def test_flagship_oracle_point_digits():
    # u = 1e-3, w = 1e-5, ground motional state; values frozen from the
    # 50-digit evaluation.
    model = TrapModel(transition_energy=U, trap_frequency=W)
    oracle = branch_spectrum_oracle(model)
    assert excited_trap_frequency(model, oracle) / W == pytest.approx(
        0.99950037468777319163, rel=1e-14
    )
    assert oracle.relative_shift == pytest.approx(-2.4981265611340418e-06, rel=1e-11)
    assert oracle.first_order_relative == -2.5e-06
    assert oracle.relative_shift / oracle.first_order_relative == pytest.approx(
        0.99925062445361673675, rel=1e-11
    )


def test_second_order_expansion_separates_exact_from_variant():
    oracle = branch_spectrum_oracle(TrapModel(transition_energy=U, trap_frequency=W))
    n_half = 0.5
    assert oracle.second_order_term == pytest.approx(0.375 * U * W * n_half, rel=1e-15)
    assert oracle.second_order_variant == pytest.approx(0.5 * U * W * n_half, rel=1e-15)
    beyond_first = oracle.relative_shift - oracle.first_order_relative
    # The exact Taylor coefficient 3/8 accounts for the residual down to the
    # third order; the 1/2 variant misses it by a hundred times more.
    assert abs(beyond_first - oracle.second_order_term) < 5e-12
    assert abs(beyond_first - oracle.second_order_variant) > 1e-10


def test_null_transition_clock_has_no_shift():
    model = TrapModel(transition_energy=0.0, trap_frequency=W)
    oracle = branch_spectrum_oracle(model)
    assert np.isnan(oracle.relative_shift)
    scan = spectroscopy_scan(model, points=21)
    assert abs(scan.peak_detuning) < 1e-10
    assert scan.excitation.max() > 0.99


def test_scan_recovers_the_oracle_shift():
    model = TrapModel(transition_energy=U, trap_frequency=W)
    scan = spectroscopy_scan(model, points=31)
    relative = scan.peak_detuning / U
    assert abs(relative / branch_spectrum_oracle(model).relative_shift - 1.0) < 1e-2
    assert scan.cutoff_shift_change < 1e-10
    assert scan.excitation.max() > 0.9


def test_scan_point_count_validation():
    model = TrapModel(transition_energy=U, trap_frequency=W)
    with pytest.raises(ValueError):
        spectroscopy_scan(model, points=3)
    # Zero collapses the detuning grid to a point; a negative factor reverses it.
    for span_factor in (0.0, -4.0):
        with pytest.raises(ValueError, match="span factor must be positive"):
            spectroscopy_scan(model, span_factor=span_factor)


def test_peak_outside_oracle_window_is_refused():
    # A deep-Lamb-Dicke violation with a strong drive drags the line far
    # enough off the static prediction that it leaves the oracle-centered
    # grid; the scan must refuse rather than report the edge sample.
    model = TrapModel(U, W, lamb_dicke=0.3, rabi_frequency=5e-6)
    with pytest.raises(GridTooNarrowError):
        spectroscopy_scan(model)


def test_the_runner_grades_the_scan_by_the_oracle_ratios():
    # The scan only measures the peak; the runner divides it by the oracle.
    scenarios = [{"kind": "ion-spectroscopy", "name": "ion", "params": {"points": 31}},
                 {"kind": "ion-spectroscopy", "name": "null",
                  "params": {"points": 21, "transition_energy": 0.0}}]
    ion, null = run_config(parse_config({"schema_version": 1, "scenarios": scenarios}))
    checks = {check["name"]: check["value"] for check in ion.checks}
    assert checks["scan_vs_oracle"] == pytest.approx(0.0, abs=1e-2)
    assert checks["oracle_vs_first_order"] == pytest.approx(
        1.0 - 0.99925062445361673675, rel=1e-7
    )
    assert [check["name"] for check in null.checks] == ["null_shift_bound", "cutoff_change"]


@pytest.mark.parametrize("n", [0, 1])
def test_lineshape_matches_the_frozen_values(n):
    frozen = FROZEN_LINESHAPES[str(n)]
    scan = spectroscopy_scan(TrapModel(transition_energy=U, trap_frequency=W, fock_index=n))
    np.testing.assert_allclose(scan.excitation, frozen["excitation"], rtol=0.0, atol=1e-12)
    assert scan.peak_detuning == pytest.approx(frozen["peak_detuning"], rel=1e-8, abs=0.0)


@pytest.mark.parametrize("u, n", [(U, 0), (U, 1), (0.0, 0)])
def test_doubled_cutoff_triplet_vertex_equals_the_full_rescan(u, n):
    model = TrapModel(transition_energy=u, trap_frequency=W, fock_index=n)
    scan = spectroscopy_scan(model)
    idx = int(np.argmax(scan.excitation))
    triplet_vertex = _doubled_cutoff_vertex(model, scan.detunings, idx)
    full_vertex = _scan_peak(model, scan.detunings, 2 * model.fock_cutoff)[0]
    assert abs(triplet_vertex - full_vertex) <= 1e-17
    assert scan.cutoff_shift_change == abs(triplet_vertex - scan.peak_detuning)


def test_doubled_cutoff_rescans_when_the_triplet_has_no_interior_maximum(monkeypatch):
    real_probabilities = ionclock._excitation_probabilities
    real_scan_peak = ionclock._scan_peak
    scanned_dims = []

    def rising_triplet(model, detunings, dim):
        if len(detunings) == 3:
            return np.array([0.1, 0.2, 0.3])
        return real_probabilities(model, detunings, dim)

    def recording_scan_peak(model, detunings, dim):
        scanned_dims.append(dim)
        return real_scan_peak(model, detunings, dim)

    monkeypatch.setattr(ionclock, "_excitation_probabilities", rising_triplet)
    monkeypatch.setattr(ionclock, "_scan_peak", recording_scan_peak)
    model = TrapModel(transition_energy=U, trap_frequency=W)
    scan = spectroscopy_scan(model, points=21)
    assert scanned_dims == [32, 64]
    full_vertex = real_scan_peak(model, scan.detunings, 64)[0]
    assert scan.cutoff_shift_change == abs(full_vertex - scan.peak_detuning)


def test_wrong_eigenvectors_fail_the_decomposition_check(monkeypatch):
    # A small rotation between two eigenvectors keeps them orthonormal, so
    # the propagated state stays normalized; only the residual against the
    # decomposed matrix can see that they are wrong.
    real_eigh = np.linalg.eigh

    def rotated_eigh(matrix):
        vals, vecs = real_eigh(matrix)
        c, s = np.cos(1e-6), np.sin(1e-6)
        first, last = vecs[:, 0].copy(), vecs[:, -1].copy()
        vecs[:, 0] = c * first - s * last
        vecs[:, -1] = s * first + c * last
        return vals, vecs

    monkeypatch.setattr(ionclock.np.linalg, "eigh", rotated_eigh)
    with pytest.raises(IntegrationError, match="eigendecomposition residual"):
        spectroscopy_scan(TrapModel(transition_energy=U, trap_frequency=W), points=21)


def _complex_excitation_probabilities(model, detunings, dim):
    """The lineshape without the Fock gauge: the complex Hermitian H0 built
    from the physical blocks, one complex eigh per detuning."""
    h_ground, h_excited = static_hamiltonians(replace(model, fock_cutoff=dim))
    coupling = 0.5 * model.rabi_frequency * displacement_operator(
        dim, model.trap_frequency, model.wavevector
    )
    h0 = np.block([[h_ground, coupling.conj().T], [coupling, h_excited]])
    out = np.empty(len(detunings))
    for i, detuning in enumerate(detunings):
        h = h0.copy()
        h[range(dim, 2 * dim), range(dim, 2 * dim)] -= model.transition_energy + detuning
        vals, vecs = np.linalg.eigh(h)
        psi = vecs @ (np.exp(-1j * vals * model.pulse_time) * vecs[model.fock_index].conj())
        out[i] = np.linalg.norm(psi[dim:]) ** 2
    return out


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("cutoff_factor", [1, 2])
def test_real_gauged_lineshape_equals_the_complex_reference(n, cutoff_factor):
    model = TrapModel(transition_energy=U, trap_frequency=W, fock_index=n)
    dim = cutoff_factor * model.fock_cutoff
    detunings = spectroscopy_scan(model).detunings
    np.testing.assert_allclose(
        _excitation_probabilities(model, detunings, dim),
        _complex_excitation_probabilities(model, detunings, dim),
        rtol=0.0,
        atol=1e-13,
    )


@pytest.mark.parametrize("dim", [32, 64, 128])
def test_gauged_recoil_is_real_orthogonal(dim):
    model = TrapModel(transition_energy=U, trap_frequency=W)
    gauged = _fock_gauge(dim) * displacement_operator(dim, W, model.wavevector)
    assert np.max(np.abs(gauged.imag)) <= 1e-14
    np.testing.assert_allclose(gauged.real @ gauged.real.T, np.eye(dim), rtol=0.0, atol=1e-13)
