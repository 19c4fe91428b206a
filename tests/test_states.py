import numpy as np
import pytest

from echometry.spin import ContractViolation, EnsembleDim, PhaseGenerator, phase_generator
from echometry.states import (
    SpectralProbe,
    ThermalSpec,
    ancilla_state,
    dephase_ancilla,
    ghz_probe,
    polarized_probe,
    spectral_decompose,
    thermal_probe,
)


def test_ancilla_poles():
    np.testing.assert_allclose(ancilla_state(0.0).rho, np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(ancilla_state(np.pi).rho, np.diag([0.0, 1.0]), atol=1e-15)


def test_ancilla_equator_is_all_quarters():
    rho = ancilla_state(np.pi / 2, 0.0).rho
    np.testing.assert_allclose(rho, 0.5 * np.ones((2, 2)), atol=1e-15)


def test_ancilla_ket_matches_density():
    state = ancilla_state(0.7, 1.3)
    np.testing.assert_allclose(np.outer(state.ket, state.ket.conj()), state.rho, atol=1e-15)


def test_dephase_zero_rate_is_identity():
    state = ancilla_state(0.9, 0.4)
    np.testing.assert_array_equal(dephase_ancilla(state, 0.0).rho, state.rho)


def test_dephase_full_rate_kills_coherence():
    out = dephase_ancilla(ancilla_state(np.pi / 2), 1.0)
    np.testing.assert_allclose(out.rho, np.diag([0.5, 0.5]), atol=1e-15)


def test_dephase_half_rate_scales_coherence():
    # Kraus sum by hand: off-diagonals 1/2 -> (1 - x) / 2 = 1/4
    out = dephase_ancilla(ancilla_state(np.pi / 2), 0.5)
    np.testing.assert_allclose(out.rho, [[0.5, 0.25], [0.25, 0.5]], atol=1e-15)


def test_dephase_preserves_trace_and_hermiticity():
    state = ancilla_state(1.1, 0.6)
    out = dephase_ancilla(state, 0.3)
    assert abs(np.trace(out.rho) - 1.0) <= 1e-14
    assert np.max(np.abs(out.rho - out.rho.conj().T)) <= 1e-14
    np.testing.assert_array_equal(np.diag(out.rho), np.diag(state.rho))


def test_dephase_idempotent_at_full_rate():
    once = dephase_ancilla(ancilla_state(np.pi / 2), 1.0)
    twice = dephase_ancilla(once, 1.0)
    np.testing.assert_allclose(twice.rho, once.rho, atol=1e-15)


@pytest.mark.parametrize("x", [-0.1, 1.1])
def test_dephase_rejects_out_of_range(x):
    with pytest.raises(ContractViolation):
        dephase_ancilla(ancilla_state(0.3), x)


def test_dephased_ancilla_has_no_ket():
    out = dephase_ancilla(ancilla_state(np.pi / 2), 0.2)
    with pytest.raises(ContractViolation):
        out.ket


def test_polarized_probe_along_jz():
    dim = EnsembleDim(3)
    probe = polarized_probe(dim, PhaseGenerator(dim, (0.0, 0.0, 1.0)))
    assert probe.n_terms == 1
    np.testing.assert_allclose(probe.weights, [1.0])
    np.testing.assert_allclose(probe.vectors[:, 0], np.eye(4)[:, -1], atol=1e-12)
    flipped = polarized_probe(dim, PhaseGenerator(dim, (0.0, 0.0, -1.0)))
    np.testing.assert_allclose(flipped.vectors[:, 0], np.eye(4)[:, 0], atol=1e-12)


def test_polarized_probe_is_extremal_eigenvector():
    dim = EnsembleDim(6)
    gen = phase_generator(dim, 0.83)
    probe = polarized_probe(dim, gen)
    psi = probe.vectors[:, 0]
    assert np.linalg.norm(gen.matrix @ psi - dim.j * psi) <= 1e-10


def test_polarized_probe_reports_degenerate_generator():
    dim = EnsembleDim(3)
    with pytest.raises(ContractViolation):
        polarized_probe(dim, PhaseGenerator(dim, (0.0, 0.0, 0.0)))


def test_probe_constructors_reject_a_generator_of_another_size():
    dim = EnsembleDim(3)
    gen = phase_generator(EnsembleDim(4), 0.3)
    for build in (polarized_probe, ghz_probe, lambda d, g: thermal_probe(d, g, 1.0)):
        with pytest.raises(ContractViolation):
            build(dim, gen)


def test_ancilla_state_rejects_nonfinite_angles():
    with pytest.raises(ContractViolation):
        ancilla_state(np.nan)


def test_ghz_probe_jz():
    dim = EnsembleDim(2)
    jz = PhaseGenerator(dim, (0.0, 0.0, 1.0))
    probe = ghz_probe(dim, jz)
    np.testing.assert_allclose(probe.vectors[:, 0], np.array([1.0, 0.0, 1.0]) / np.sqrt(2), atol=1e-12)
    assert abs(np.linalg.norm(probe.vectors[:, 0]) - 1.0) <= 1e-12


def test_ghz_probe_balanced_expectation():
    dim = EnsembleDim(5)
    gen = phase_generator(dim, 1.9)
    psi = ghz_probe(dim, gen).vectors[:, 0]
    assert abs(psi.conj() @ gen.matrix @ psi) <= 1e-12


def test_thermal_probe_infinite_temperature_is_uniform():
    dim = EnsembleDim(4)
    jz = PhaseGenerator(dim, (0.0, 0.0, 1.0))
    probe = thermal_probe(dim, jz, 0.0)
    np.testing.assert_allclose(probe.weights, np.full(5, 0.2), atol=1e-14)


def test_thermal_probe_ground_state_limit():
    dim = EnsembleDim(4)
    jz = PhaseGenerator(dim, (0.0, 0.0, 1.0))
    probe = thermal_probe(dim, jz, 50.0)
    # only the m = -j term survives the spectral cutoff
    assert probe.n_terms == 1
    assert probe.weights[0] >= 1.0 - 1e-20
    np.testing.assert_allclose(probe.vectors[:, 0], np.eye(5)[:, 0], atol=1e-12)


def test_thermal_probe_two_spin_weights():
    dim = EnsembleDim(2)
    jz = PhaseGenerator(dim, (0.0, 0.0, 1.0))
    probe = thermal_probe(dim, jz, 1.0)
    raw = np.exp([1.0, 0.0, -1.0])  # e^{-m beta} for m = -1, 0, 1
    np.testing.assert_allclose(probe.weights, raw / raw.sum(), atol=1e-14)


def test_thermal_probe_weights_decrease_with_m():
    dim = EnsembleDim(7)
    jz = PhaseGenerator(dim, (0.0, 0.0, 1.0))
    probe = thermal_probe(dim, jz, 0.8)
    assert np.all(np.diff(probe.weights) < 0)


def test_thermal_probe_rejects_negative_beta():
    dim = EnsembleDim(2)
    jz = PhaseGenerator(dim, (0.0, 0.0, 1.0))
    with pytest.raises(ContractViolation):
        thermal_probe(dim, jz, -0.5)


def test_thermal_spec_partition_function():
    with pytest.raises(ContractViolation):
        ThermalSpec(EnsembleDim(2), -1.0)


def test_thermal_probe_rejects_non_spin_generator():
    dim = EnsembleDim(2)
    with pytest.raises(ContractViolation):
        thermal_probe(dim, PhaseGenerator(dim, (0.0, 0.0, 0.5)), 1.0)


def test_spectral_decompose_pure_state():
    dim = EnsembleDim(3)
    psi = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    probe = spectral_decompose(np.outer(psi, psi.conj()))
    assert probe.n_terms == 1
    np.testing.assert_allclose(probe.weights, [1.0], atol=1e-12)
    overlap = abs(psi.conj() @ probe.vectors[:, 0])
    assert abs(overlap - 1.0) <= 1e-12


def test_spectral_decompose_maximally_mixed():
    probe = spectral_decompose(np.eye(3) / 3.0)
    np.testing.assert_allclose(probe.weights, np.full(3, 1 / 3), atol=1e-12)


def test_spectral_decompose_round_trip():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    probe = spectral_decompose(rho)
    np.testing.assert_allclose(probe.density(), rho, atol=1e-10)


def test_spectral_decompose_rejects_bad_trace():
    with pytest.raises(ContractViolation):
        spectral_decompose(np.eye(3))


def test_spectral_decompose_rejects_non_hermitian():
    with pytest.raises(ContractViolation):
        spectral_decompose(np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_spectral_decompose_rejects_negative_matrix():
    rho = np.diag([1.5, -0.5])
    with pytest.raises(ContractViolation):
        spectral_decompose(rho)


def test_spectral_probe_validates_inputs():
    dim = EnsembleDim(2)
    good = np.eye(3, dtype=complex)[:, :2]
    with pytest.raises(ContractViolation):
        SpectralProbe(dim=dim, weights=np.array([0.7, 0.7]), vectors=good)
    skewed = good.copy()
    skewed[:, 1] = (good[:, 0] + good[:, 1]) / np.sqrt(2)
    with pytest.raises(ContractViolation):
        SpectralProbe(dim=dim, weights=np.array([0.5, 0.5]), vectors=skewed)


def test_spectral_probe_weights_sum_to_one():
    dim = EnsembleDim(4)
    gen = phase_generator(dim, 0.4)
    for probe in (polarized_probe(dim, gen), ghz_probe(dim, gen), thermal_probe(dim, gen, 1.3)):
        assert abs(probe.weights.sum() - 1.0) <= 1e-10
        gram = probe.vectors.conj().T @ probe.vectors
        assert np.max(np.abs(gram - np.eye(probe.n_terms))) <= 1e-10
