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
from qclocksim import ionclock, parse_config, run_config, runners
from qclocksim.errors import RegimeError
from qclocksim.ionclock import (
    UNITARITY_TOL,
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
from qclocksim.units import EPS_MAX

U, W = 1e-3, 1e-5


def _scan(model, **kwargs):
    """The lineshape scan centred on the oracle's carrier shift, as the ion runner centres it."""
    return spectroscopy_scan(model, branch_spectrum_oracle(model).carrier_shift, **kwargs)


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


def _x_squared_reference(dim, w):
    n = np.arange(dim)
    mat = np.diag((2.0 * n + 1.0) / (2.0 * w))
    off = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0)) / (2.0 * w)
    mat[n[:-2], n[:-2] + 2] = off
    mat[n[:-2] + 2, n[:-2]] = off
    return mat


def _p_squared_reference(dim, w):
    n = np.arange(dim)
    mat = np.diag(w * (2.0 * n + 1.0) / 2.0)
    off = -w * np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0)) / 2.0
    mat[n[:-2], n[:-2] + 2] = off
    mat[n[:-2] + 2, n[:-2]] = off
    return mat


def _x_operator_reference(dim, w):
    n = np.arange(dim - 1)
    off = np.sqrt((n + 1.0) / (2.0 * w))
    mat = np.zeros((dim, dim))
    mat[n, n + 1] = off
    mat[n + 1, n] = off
    return mat


@pytest.mark.parametrize("dim", [1, 2, 3, 6, 32, 64])
@pytest.mark.parametrize("w", [W, 0.37])
def test_fock_matrices_equal_the_builders_that_placed_each_band_themselves(dim, w):
    # The shipped builders share one band placement; each must still give the
    # bits of a builder that writes its own diagonal and off-diagonals.
    assert np.array_equal(_x_squared(dim, w), _x_squared_reference(dim, w))
    assert np.array_equal(_p_squared(dim, w), _p_squared_reference(dim, w))
    assert np.array_equal(_x_operator(dim, w), _x_operator_reference(dim, w))


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
    # The rule, and the message, of the levels of an internal spectrum.
    for u in (EPS_MAX, 0.5):
        with pytest.raises(RegimeError, match=f"internal energy ratio {u} >= eps_max"):
            TrapModel(transition_energy=u, trap_frequency=W)
    # The loader refuses a config's transition energy by the model's own rule.
    rule = runners.KINDS["ion-spectroscopy"].params["transition_energy"].check
    assert rule is ionclock.require_transition_energy


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
    scan = _scan(model, points=21)
    assert abs(scan.peak_detuning) < 1e-10
    assert scan.excitation.max() > 0.99


def test_scan_recovers_the_oracle_shift():
    model = TrapModel(transition_energy=U, trap_frequency=W)
    scan = _scan(model, points=31)
    relative = scan.peak_detuning / U
    assert abs(relative / branch_spectrum_oracle(model).relative_shift - 1.0) < 1e-2
    assert scan.cutoff_shift_change < 1e-10
    assert scan.excitation.max() > 0.9


def test_scan_point_count_validation():
    model = TrapModel(transition_energy=U, trap_frequency=W)
    with pytest.raises(ValueError):
        _scan(model, points=3)
    # Zero collapses the detuning grid to a point; a negative factor reverses it.
    for span_factor in (0.0, -4.0):
        with pytest.raises(ValueError, match="span factor must be positive"):
            _scan(model, span_factor=span_factor)


def _ion_checks(params):
    """Each check of one ion-spectroscopy run, by name."""
    config = {"schema_version": 1, "scenarios": [
        {"kind": "ion-spectroscopy", "name": "ion", "params": params}]}
    [report] = run_config(parse_config(config))
    return {check["name"]: check for check in report.checks}


def test_a_peak_outside_the_oracle_window_fails_peak_inside_scan():
    # A deep-Lamb-Dicke violation with a strong drive drags the line far
    # enough off the static prediction that it leaves the oracle-centered
    # grid; the scan reports the edge index, and the runner fails the run.
    # Its vertex comes from the three samples next to the edge.
    params = {"lamb_dicke": 0.3, "rabi_frequency": 5e-6}
    scan = _scan(TrapModel(U, W, **params))
    [edge] = scan.peak_indices[:1]
    assert edge in (0, 60)
    triplet = slice(0, 3) if edge == 0 else slice(58, 61)
    assert scan.peak_detuning == ionclock._parabola_vertex(scan.detunings[triplet],
                                                           scan.excitation[triplet])
    check = _ion_checks(params)["peak_inside_scan"]
    assert (check["passed"], check["value"], check["tolerance"]) == (False, 0.0, 1.0)


def test_an_interior_peak_passes_peak_inside_scan():
    scan = _scan(TrapModel(U, W), points=21)
    assert scan.peak_indices == (10,)
    check = _ion_checks({"points": 21})["peak_inside_scan"]
    assert (check["passed"], check["value"]) == (True, 10.0)


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
    assert [check["name"] for check in null.checks] == [
        "null_shift_bound", "cutoff_change", "decomposition_residual", "unitarity_defect",
        "peak_inside_scan"]


@pytest.mark.parametrize("n", [0, 1])
def test_lineshape_matches_the_frozen_values(n):
    frozen = FROZEN_LINESHAPES[str(n)]
    scan = _scan(TrapModel(transition_energy=U, trap_frequency=W, fock_index=n))
    np.testing.assert_allclose(scan.excitation, frozen["excitation"], rtol=0.0, atol=1e-12)
    assert scan.peak_detuning == pytest.approx(frozen["peak_detuning"], rel=1e-8, abs=0.0)


@pytest.mark.parametrize("u, n", [(U, 0), (U, 1), (0.0, 0)])
def test_doubled_cutoff_triplet_vertex_equals_the_full_rescan(u, n):
    model = TrapModel(transition_energy=u, trap_frequency=W, fock_index=n)
    scan = _scan(model)
    idx = int(np.argmax(scan.excitation))
    triplet_vertex, rescanned, _ = _doubled_cutoff_vertex(model, scan.detunings, idx)
    assert rescanned == () and scan.peak_indices == (idx,)
    full_vertex = _scan_peak(model, scan.detunings, 2 * model.fock_cutoff)[0]
    assert abs(triplet_vertex - full_vertex) <= 1e-17
    assert scan.cutoff_shift_change == abs(triplet_vertex - scan.peak_detuning)


def test_doubled_cutoff_rescans_when_the_triplet_has_no_interior_maximum(monkeypatch):
    real_probabilities = ionclock._excitation_probabilities
    real_scan_peak = ionclock._scan_peak
    scanned_dims = []

    def rising_triplet(model, detunings, dim):
        if len(detunings) == 3:
            return np.array([0.1, 0.2, 0.3]), np.zeros(2)
        return real_probabilities(model, detunings, dim)

    def recording_scan_peak(model, detunings, dim):
        scanned_dims.append(dim)
        return real_scan_peak(model, detunings, dim)

    monkeypatch.setattr(ionclock, "_excitation_probabilities", rising_triplet)
    monkeypatch.setattr(ionclock, "_scan_peak", recording_scan_peak)
    model = TrapModel(transition_energy=U, trap_frequency=W)
    scan = _scan(model, points=21)
    assert scanned_dims == [32, 64]
    full_vertex, full_peak = real_scan_peak(model, scan.detunings, 64)[:2]
    assert scan.cutoff_shift_change == abs(full_vertex - scan.peak_detuning)
    assert scan.peak_indices == (10, full_peak)


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
    scan = _scan(TrapModel(transition_energy=U, trap_frequency=W), points=21)
    assert scan.decomposition_residual > 1e3 * UNITARITY_TOL
    assert scan.norm_defect <= UNITARITY_TOL
    checks = _ion_checks({"points": 21})
    assert not checks["decomposition_residual"]["passed"]
    assert checks["decomposition_residual"]["value"] == scan.decomposition_residual
    assert checks["unitarity_defect"]["passed"]


def test_eigenvectors_that_are_not_normalized_fail_the_unitarity_check(monkeypatch):
    # Scaled eigenvectors still solve H V = V Lambda to roundoff, relative to
    # |H|, but the propagated state comes out with norm (1 + 1e-9)^2.
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(ionclock.np.linalg, "eigh",
                        lambda matrix: (lambda vals, vecs: (vals, (1.0 + 1e-9) * vecs))(
                            *real_eigh(matrix)))
    scan = _scan(TrapModel(transition_energy=U, trap_frequency=W), points=21)
    assert scan.norm_defect == pytest.approx(2e-9, rel=1e-3)
    assert scan.decomposition_residual <= UNITARITY_TOL
    checks = _ion_checks({"points": 21})
    assert checks["decomposition_residual"]["passed"]
    assert not checks["unitarity_defect"]["passed"]
    assert checks["unitarity_defect"]["value"] == scan.norm_defect


def test_a_healthy_scan_passes_its_health_checks_near_roundoff():
    scan = _scan(TrapModel(transition_energy=U, trap_frequency=W), points=21)
    assert 0.0 < scan.decomposition_residual < 1e-14
    assert scan.norm_defect < 1e-14


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
    detunings = _scan(model).detunings
    np.testing.assert_allclose(
        _excitation_probabilities(model, detunings, dim)[0],
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
