import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
from scipy.linalg import expm

import echometry.circuit
import echometry.fisher
import echometry.reference
import echometry.spin
import echometry.states
from echometry.circuit import (
    ModelParams,
    Schedule,
    apply_spin_axis,
    conjugate_schedule,
    encoding_axis,
    optimal_generator,
    optimal_settings,
)
from echometry.fisher import (
    EPS_PROB,
    FisherResult,
    ProbabilityTable,
    cfi,
    cfi_grid,
    measurement_probs,
    qfi_deviation,
    qfi_general,
    qfi_grid,
    qfi_sizes,
    qfi_thermal,
)
from echometry.spin import (
    KET_E,
    KET_G,
    ContractViolation,
    EnsembleDim,
    PhaseGenerator,
    spin_frame,
)
from echometry.states import (
    EPS_SPECTRUM,
    AncillaState,
    SpectralProbe,
    SpinLevels,
    ancilla_state,
    dephase_ancilla,
    polarized_probe,
    thermal_probe,
)
from echometry.reference import (
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    encoding_generator,
    hamiltonian,
    joint_embed,
    output_state_derivative,
    output_state_derivatives,
    output_states_stacked,
    probe_density,
    qfi_simplified,
    qfi_sld_oracle,
    qfi_sld_oracle_stacked,
    unitary_of_hermitian,
)
from test_states import ghz_probe

ZZ = ModelParams(omega_p=3.0, omega_a=3.0, g=1.0, kind="zz")
UNIT_XZ = ModelParams(omega_p=1.0, omega_a=1.0, g=1.0, kind="xz")
STRONG_XZ = ModelParams(omega_p=1.0, omega_a=1.0, g=2.0, kind="xz")


def optimal_setup(n, params=ZZ):
    dim = EnsembleDim(n)
    settings = optimal_settings(params)
    gen = optimal_generator(params, dim)
    probe = polarized_probe(dim, gen)
    anc = ancilla_state(settings.theta0)
    sched = conjugate_schedule(settings.t1, theta=0.2)
    return dim, gen, probe, anc, sched


def random_probe(dim, rng, max_rank=3):
    rank = int(rng.integers(1, max_rank + 1))
    raw = rng.normal(size=(dim.dim, rank)) + 1j * rng.normal(size=(dim.dim, rank))
    vectors, _ = np.linalg.qr(raw)
    weights = rng.random(rank) + 0.2
    weights /= weights.sum()
    return SpectralProbe(dim=dim, weights=weights, vectors=vectors)


# ---------------------------------------------------------------------------
# output state


def test_output_state_traces_back_at_zero_phase():
    dim, _, probe, anc, _ = optimal_setup(3)
    sched = conjugate_schedule(t1=0.7, theta=0.0)
    rho = output_state_derivative(probe, anc, ZZ, sched)[0]
    np.testing.assert_allclose(rho, np.kron(probe_density(probe), anc.rho), atol=1e-10)


def test_output_states_at_several_phases_share_one_solve_of_each_generator(monkeypatch):
    # one eigh of H and one of G serve every phase, and each phase gets the
    # bits of its own single-phase call
    rng = np.random.default_rng(8)
    for params, mode in ((ZZ, "exact_conjugate"), (UNIT_XZ, "period")):
        dim = EnsembleDim(5)
        probe, anc = random_probe(dim, rng), ancilla_state(1.2, 0.5)
        sched = Schedule(t1=0.9, t2=1.7, theta=0.0, mode=mode)
        thetas = (0.2, 1.0, -2.5)
        singles = [output_state_derivative(probe, anc, params, replace(sched, theta=theta)) for theta in thetas]
        sizes = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            sizes.append(a.shape[-1])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        shared = output_state_derivatives(probe, anc, params, sched, thetas)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert sorted(sizes) == [dim.dim, 2 * dim.dim]
        assert len(shared) == len(thetas)
        for (rho, drho), (rho1, drho1) in zip(shared, singles):
            np.testing.assert_array_equal(rho, rho1)
            np.testing.assert_array_equal(drho, drho1)


def test_stacked_reference_equals_its_stacks_of_one():
    # an instance's output state, derivative and oracle value have the bits of
    # its own stack of one, whatever else shares its stack: ZZ and XZ mixed,
    # ranks 1-3, pure and dephased ancillas, N from 1 to 20, both modes
    rng = np.random.default_rng(29)
    thetas = (0.2, 1.0)
    for group in range(12):
        dim = EnsembleDim(int(rng.integers(1, 21)))
        mode = "period" if group % 4 == 3 else "exact_conjugate"
        cases = []
        for _ in range(int(rng.integers(1, 7))):
            params = ModelParams(
                omega_p=float(rng.uniform(0.5, 5.0)),
                omega_a=float(rng.uniform(0.5, 5.0)),
                g=float(rng.uniform(0.3, 2.0)),
                kind="zz" if rng.random() < 0.5 else "xz",
            )
            anc = ancilla_state(float(rng.uniform(0.0, np.pi)), float(rng.uniform(0.0, 2 * np.pi)))
            if rng.random() < 0.4:
                anc = dephase_ancilla(anc, float(rng.uniform(0.0, 1.0)))
            sched = Schedule(t1=float(rng.uniform(1e-3, 3.0)), t2=float(rng.uniform(1e-3, 3.0)), theta=0.0, mode=mode)
            cases.append((random_probe(dim, rng, max_rank=min(3, dim.dim)), anc, params, sched))
        stacked = output_states_stacked(cases, thetas)
        oracles = [qfi_sld_oracle_stacked(rho, drho) for rho, drho in stacked]
        assert [rho.shape for rho, _ in stacked] == [(len(cases), 2 * dim.dim, 2 * dim.dim)] * len(thetas)
        for index, case in enumerate(cases):
            singles = output_state_derivatives(*case, thetas)
            for (rho, drho), (rho1, drho1), values in zip(stacked, singles, oracles):
                np.testing.assert_array_equal(rho[index], rho1)
                np.testing.assert_array_equal(drho[index], drho1)
                assert values[index] == qfi_sld_oracle(rho1, drho1).value


def test_stacked_oracle_checks_every_element():
    # each contract of the oracle holds for every element of a stack, not
    # only the first
    _, _, probe, anc, sched = optimal_setup(3)
    rho, drho = output_states_stacked([(probe, anc, ZZ, sched)] * 3, (0.2,))[0]
    assert qfi_sld_oracle_stacked(rho, drho) == [qfi_sld_oracle(rho[0], drho[0]).value] * 3
    skew = np.zeros_like(drho[0])
    skew[0, 1] = 1e-6
    bad_states = {
        "output-state derivative is not Hermitian": (rho, drho + np.array([0.0, 0.0, 1.0])[:, None, None] * skew),
        "output state is not Hermitian": (rho + np.array([0.0, 1.0, 0.0])[:, None, None] * skew, drho),
        "unit trace": (rho * np.array([1.0, 1.0, 1.1])[:, None, None], drho),
        "traceless": (rho, drho + np.array([0.0, 1e-6, 0.0])[:, None, None] * np.eye(rho.shape[-1])),
        "positive semidefinite": (
            rho + np.array([0.0, 0.0, 1e-6])[:, None, None] * np.diag([-1.0, 1.0] + [0.0] * (rho.shape[-1] - 2)),
            drho,
        ),
        "stacks of square states": (rho[0], drho[0]),
    }
    for message, (bad_rho, bad_drho) in bad_states.items():
        with pytest.raises(ContractViolation, match=message):
            qfi_sld_oracle_stacked(bad_rho, bad_drho)


def test_a_stack_of_circuits_shares_one_size_and_one_mode():
    _, _, probe, anc, sched = optimal_setup(3)
    _, _, other, _, _ = optimal_setup(4)
    with pytest.raises(ContractViolation, match="probe size"):
        output_states_stacked([(probe, anc, ZZ, sched), (other, anc, ZZ, sched)], (0.2,))
    period = Schedule(t1=sched.t1, t2=1.0, theta=0.0, mode="period")
    with pytest.raises(ContractViolation, match="reversal mode"):
        output_states_stacked([(probe, anc, ZZ, sched), (probe, anc, ZZ, period)], (0.2,))


def test_output_state_is_a_density_matrix():
    rng = np.random.default_rng(21)
    for _ in range(5):
        dim = EnsembleDim(int(rng.integers(1, 7)))
        probe = random_probe(dim, rng)
        anc = ancilla_state(float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi)))
        sched = conjugate_schedule(float(rng.uniform(0, np.pi)), float(rng.uniform(-1, 1)))
        rho = output_state_derivative(probe, anc, ZZ, sched)[0]
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-10


def test_output_state_matches_explicit_tensor_structure():
    # oracle: expand rho(theta) = sum_mm' p_mm'/2 |m><m'| (x) a_m a_m'^dag in
    # the optimal-generator basis, with a_m = (e^{i theta m}, e^{-i theta m})/sqrt(2)
    n = 1
    dim, gen, probe, anc, sched = optimal_setup(n)
    theta = sched.theta
    vals, vecs = spin_frame(dim, gen.axis)
    psi = probe.vectors[:, 0]
    expected = np.zeros((2 * dim.dim, 2 * dim.dim), dtype=complex)
    for a, m in enumerate(vals):
        for b, mp in enumerate(vals):
            coeff = (vecs[:, a].conj() @ psi) * (psi.conj() @ vecs[:, b]) / 2.0
            ket_m = np.array([np.exp(1j * theta * m), np.exp(-1j * theta * m)])
            ket_mp = np.array([np.exp(1j * theta * mp), np.exp(-1j * theta * mp)])
            expected += coeff * np.kron(np.outer(vecs[:, a], vecs[:, b].conj()), np.outer(ket_m, ket_mp.conj()))
    rho = output_state_derivative(probe, anc, ZZ, sched)[0]
    np.testing.assert_allclose(rho, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# quantum Fisher information


@pytest.mark.parametrize("n", [2, 4, 10])
def test_qfi_peak_at_optimum(n):
    _, _, probe, anc, sched = optimal_setup(n)
    value = qfi_general(probe, anc, ZZ, sched).value
    assert abs(value - n * n) <= 1e-8 * n * n


def test_qfi_ghz_probe_without_coupling():
    # with g = 0 the ancilla decouples; only a balanced superposition of the
    # extremal states keeps quadratic information
    params = ModelParams(omega_p=3.0, omega_a=3.0, g=0.0, kind="zz")
    n = 4
    dim = EnsembleDim(n)
    t1 = 0.47
    phi = -params.omega_p * t1
    probe = ghz_probe(dim, PhaseGenerator(dim, (np.cos(phi), np.sin(phi), 0.0)))
    value = qfi_general(probe, ancilla_state(np.pi / 2), params, conjugate_schedule(t1, 0.2)).value
    assert abs(value - n * n) <= 1e-8 * n * n


def test_qfi_vanishes_for_pole_ancilla():
    dim, _, probe, _, sched = optimal_setup(4)
    value = qfi_general(probe, ancilla_state(0.0), ZZ, sched).value
    assert value <= 1e-10


def test_qfi_dephased_ancilla_matches_sld_oracle():
    # off the optimum: random probe, tilted and phased ancilla, arbitrary t1
    rng = np.random.default_rng(5)
    for params in (ZZ, ModelParams(omega_p=2.0, omega_a=1.5, g=1.0, kind="xz")):
        dim = EnsembleDim(3)
        probe = random_probe(dim, rng)
        anc = dephase_ancilla(ancilla_state(1.1, 0.7), 0.3)
        sched = conjugate_schedule(0.9, theta=0.2)
        value = qfi_general(probe, anc, params, sched).value
        rho, drho = output_state_derivative(probe, anc, params, sched)
        oracle = qfi_sld_oracle(rho, drho).value
        assert abs(value - oracle) <= 1e-8 * max(1.0, oracle)


def test_qfi_invariant_under_ancilla_phase_at_optimum():
    values = []
    for phi0 in (0.0, np.pi / 3, np.pi):
        _, _, probe, _, sched = optimal_setup(5)
        anc = ancilla_state(np.pi / 2, phi0)
        values.append(qfi_general(probe, anc, ZZ, sched).value)
    assert max(values) - min(values) <= 1e-10


def test_qfi_simplified_reference_states():
    n = 6
    dim = EnsembleDim(n)
    gen = optimal_generator(ZZ, dim)
    assert abs(qfi_simplified(polarized_probe(dim, gen), gen).value - n * n) <= 1e-10
    vals, vecs = spin_frame(dim, gen.axis)
    mixture = SpectralProbe(
        dim=dim, weights=np.array([0.5, 0.5]), vectors=np.stack([vecs[:, 0], vecs[:, -1]], axis=1)
    )
    assert abs(qfi_simplified(mixture, gen).value - n * n) <= 1e-10
    middle = SpectralProbe(dim=dim, weights=np.array([1.0]), vectors=vecs[:, [n // 2]])
    assert qfi_simplified(middle, gen).value <= 1e-10


def test_sld_oracle_pure_state_specialization():
    # oracle vs the pure-state identity 4(<dpsi|dpsi> - |<psi|dpsi>|^2)
    dim, _, probe, anc, sched = optimal_setup(3)
    u1 = unitary_of_hermitian(hamiltonian(ZZ, dim), sched.t1)
    u2 = u1.conj().T
    r = joint_embed(unitary_of_hermitian(encoding_generator(ZZ, dim), sched.theta), ID2)
    g = joint_embed(encoding_generator(ZZ, dim), ID2)
    psi0 = np.kron(probe.vectors[:, 0], anc.ket)
    psi = u2 @ r @ u1 @ psi0
    dpsi = u2 @ (-1j * g) @ r @ u1 @ psi0
    pure_value = 4.0 * ((dpsi.conj() @ dpsi).real - abs(psi.conj() @ dpsi) ** 2)
    rho, drho = output_state_derivative(probe, anc, ZZ, sched)
    assert abs(qfi_sld_oracle(rho, drho).value - pure_value) <= 1e-8


def test_sld_oracle_matches_general_on_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(30):
        kind = "zz" if rng.random() < 0.5 else "xz"
        params = ModelParams(
            omega_p=float(rng.uniform(0.5, 5.0)),
            omega_a=float(rng.uniform(0.5, 5.0)),
            g=1.0,
            kind=kind,
        )
        dim = EnsembleDim(int(rng.integers(2, 13)))
        probe = random_probe(dim, rng)
        anc = ancilla_state(float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi)))
        sched = conjugate_schedule(float(rng.uniform(1e-3, np.pi)), theta=0.2)
        general = qfi_general(probe, anc, params, sched).value
        rho, drho = output_state_derivative(probe, anc, params, sched)
        oracle = qfi_sld_oracle(rho, drho).value
        assert abs(general - oracle) <= 1e-8 * max(1.0, abs(general), abs(oracle))
        assert max(general, oracle) <= dim.n_spins**2 + 1e-6


def test_sld_oracle_theta_independence():
    dim, _, probe, anc, _ = optimal_setup(4)
    values = []
    for theta in (0.1, 0.5, 1.0, 2.0):
        sched = conjugate_schedule(optimal_settings(ZZ).t1, theta)
        rho, drho = output_state_derivative(probe, anc, ZZ, sched)
        values.append(qfi_sld_oracle(rho, drho).value)
    assert (max(values) - min(values)) / max(values) <= 1e-8


def test_sld_oracle_input_contracts():
    rho = np.diag([0.6, 0.4]).astype(complex)
    with pytest.raises(ContractViolation):
        qfi_sld_oracle(rho, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ContractViolation):
        qfi_sld_oracle(rho, np.diag([0.5, 0.5]))  # not traceless
    with pytest.raises(ContractViolation):
        qfi_sld_oracle(2 * rho, np.zeros((2, 2)))


def test_thermal_ground_state_limit():
    exact, _ = qfi_thermal(EnsembleDim(10), 50.0)
    assert abs(exact.value - 100.0) <= 1e-8


def test_thermal_two_spins():
    # direct two-line summation over m = -1, 0, 1
    e = np.e
    expected = 4.0 * (e + 1.0 / e) / (e + 1.0 + 1.0 / e)
    exact, _ = qfi_thermal(EnsembleDim(2), 1.0)
    assert abs(exact.value - expected) <= 1e-12


def test_thermal_large_probe_approximation():
    exact, large_n = qfi_thermal(EnsembleDim(100), 1.0)
    assert abs(exact.value - large_n.value) / exact.value <= 1e-6


def test_thermal_rejects_nonpositive_beta():
    with pytest.raises(ContractViolation):
        qfi_thermal(EnsembleDim(4), 0.0)


def test_thermal_large_n_form_at_extreme_beta():
    # e^beta overflows at beta = 1000; written in e^-beta the correction
    # terms vanish and the form is the ground-state N^2
    for n in (2, 7, 100):
        assert qfi_thermal(EnsembleDim(n), 1000.0)[1].value == n * n
    # at beta = 1e-300, e^beta - 1 rounds to 0: the form diverges, and the
    # infinite value is rejected as a contract violation, not a ZeroDivisionError
    with pytest.raises(ContractViolation, match="Fisher information came out as inf"):
        qfi_thermal(EnsembleDim(4), 1e-300)


def test_thermal_sums_past_the_float_range_of_beta_m():
    # beta j above the float range is still the ground state: N^2 from both forms
    for n in (2, 7, 100):
        exact, large_n = qfi_thermal(EnsembleDim(n), 1e308)
        assert exact.value == large_n.value == n * n


def test_thermal_matches_general_path():
    n, beta = 20, 1.0
    dim = EnsembleDim(n)
    gen = optimal_generator(ZZ, dim)
    probe = thermal_probe(dim, gen, beta)
    sched = conjugate_schedule(optimal_settings(ZZ).t1, theta=0.2)
    general = qfi_general(probe, ancilla_state(np.pi / 2), ZZ, sched).value
    exact, _ = qfi_thermal(dim, beta)
    assert abs(general - exact.value) <= 1e-8 * exact.value


@pytest.mark.parametrize(
    "params, n", [(ZZ, 10**4), (STRONG_XZ, 10**4), (ZZ, 10**5)], ids=["zz-1e4", "strong-xz-1e4", "zz-1e5"]
)
def test_thermal_probe_reaches_the_thermal_law_at_scale(params, n):
    # the finite-temperature Heisenberg law at beta = 1: the thermal probe's
    # F_Q at the optimum equals qfi_thermal's exact sum 4 sum_m m^2 p_m
    dim = EnsembleDim(n)
    settings = optimal_settings(params)
    probe = thermal_probe(dim, optimal_generator(params, dim), 1.0)
    value = qfi_general(probe, ancilla_state(settings.theta0), params, conjugate_schedule(settings.t1, 0.2)).value
    exact, _ = qfi_thermal(dim, 1.0)
    assert abs(value / exact.value - 1.0) <= 1e-10


def test_deviation_formula_values():
    t1 = optimal_settings(ZZ).t1
    dim = EnsembleDim(4)
    assert qfi_deviation(dim, 0.0, 0.0, t1).value == 16.0
    value = qfi_deviation(dim, 0.01 / t1, 0.0, t1).value
    assert abs(value - 15.9988) <= 1e-12
    both = qfi_deviation(dim, 0.01 / t1, 0.01 / t1, t1).value
    assert abs(both - 15.9976) <= 1e-12


def test_deviation_formula_matches_perturbed_circuit():
    # third-order remainder bound: 1e-6 + 10 * (deviation magnitude * t1)^3
    t1 = optimal_settings(ZZ).t1
    for n in (4, 20):
        dim = EnsembleDim(n)
        probe = polarized_probe(dim, optimal_generator(ZZ, dim))
        for dg_t1, dwp_t1 in ((0.01, 0.0), (0.0, 0.01), (0.01, 0.01)):
            dg, dwp = dg_t1 / t1, dwp_t1 / t1
            perturbed = ModelParams(ZZ.omega_p + dwp, ZZ.omega_a, ZZ.g + dg)
            numeric = qfi_general(probe, ancilla_state(np.pi / 2), perturbed, conjugate_schedule(t1, 0.2)).value
            bound = 1e-6 + 10.0 * np.hypot(dg_t1, dwp_t1) ** 3
            assert abs(numeric - qfi_deviation(dim, dg, dwp, t1).value) <= bound


def test_deviation_formula_small_probe_tight_bound():
    # for N = 4 the single-parameter cross-check holds at 1e-6 absolute
    t1 = optimal_settings(ZZ).t1
    dim = EnsembleDim(4)
    probe = polarized_probe(dim, optimal_generator(ZZ, dim))
    dg = 0.01 / t1
    perturbed = ModelParams(ZZ.omega_p, ZZ.omega_a, ZZ.g + dg)
    numeric = qfi_general(probe, ancilla_state(np.pi / 2), perturbed, conjugate_schedule(t1, 0.2)).value
    assert abs(numeric - qfi_deviation(dim, dg, 0.0, t1).value) <= 1e-6


def test_deviation_warns_outside_trust_region():
    with pytest.warns(UserWarning):
        qfi_deviation(EnsembleDim(4), 0.5, 0.0, t1=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_deviation_rejects_non_finite_deltas(bad):
    for deltas in ((bad, 0.0), (0.0, bad)):
        with pytest.raises(ContractViolation, match="deviations must be finite"):
            qfi_deviation(EnsembleDim(4), *deltas, t1=1.0)


def dephased_qfi(probe, x, params=ZZ):
    """qfi_general with the pi/2 ancilla dephased at rate x, at the optimal conjugate schedule."""
    anc = dephase_ancilla(ancilla_state(np.pi / 2), x)
    sched = conjugate_schedule(optimal_settings(params).t1, theta=0.2)
    return qfi_general(probe, anc, params, sched).value


@pytest.mark.parametrize("x,expected_factor", [(0.0, 1.0), (0.5, 0.25), (1.0, 0.0)])
def test_dephased_polarized_probe(x, expected_factor):
    n = 4
    dim = EnsembleDim(n)
    gen = optimal_generator(ZZ, dim)
    probe = polarized_probe(dim, gen)
    value = dephased_qfi(probe, x)
    assert abs(value - expected_factor * n * n) <= 1e-10


def test_dephased_reduces_to_simplified_at_zero_rate():
    dim = EnsembleDim(6)
    gen = optimal_generator(ZZ, dim)
    probe = thermal_probe(dim, gen, 0.7)
    dephased = dephased_qfi(probe, 0.0)
    assert abs(dephased - qfi_simplified(probe, gen).value) <= 1e-10


def test_dephased_matches_sld_oracle():
    n, x = 4, 0.35
    dim = EnsembleDim(n)
    gen = optimal_generator(ZZ, dim)
    probe = thermal_probe(dim, gen, 1.0)
    sched = conjugate_schedule(optimal_settings(ZZ).t1, theta=0.2)
    anc = dephase_ancilla(ancilla_state(np.pi / 2), x)
    rho, drho = output_state_derivative(probe, anc, ZZ, sched)
    oracle = qfi_sld_oracle(rho, drho).value
    value = dephased_qfi(probe, x)
    assert abs(value - oracle) <= 1e-8 * max(1.0, oracle)


def test_dephased_input_contracts():
    dim = EnsembleDim(2)
    gen = optimal_generator(ZZ, dim)
    probe = polarized_probe(dim, gen)
    with pytest.raises(ContractViolation):
        dephased_qfi(probe, 1.2)
    # the XZ interaction follows the same (1-x)^2 N^2 law at its strong-coupling optimum
    strong = ModelParams(1.0, 1.0, 1.0, kind="xz")
    for n in (2, 7):
        dim = EnsembleDim(n)
        probe = polarized_probe(dim, optimal_generator(strong, dim))
        for x in (0.0, 0.1, 0.5, 1.0):
            assert abs(dephased_qfi(probe, x, strong) - (1.0 - x) ** 2 * n * n) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 10),
    kind=st.sampled_from(["zz", "xz"]),
    seed=st.integers(0, 2**32 - 1),
    theta0=st.floats(0.0, np.pi),
    phi0=st.floats(0.0, 2 * np.pi),
    x=st.floats(0.0, 1.0),
    t1=st.floats(0.0, np.pi),
)
def test_dephased_general_path_matches_sld_oracle(n, kind, seed, theta0, phi0, x, t1):
    params = ModelParams(omega_p=3.0, omega_a=3.0, g=1.0, kind=kind)
    dim = EnsembleDim(n)
    probe = random_probe(dim, np.random.default_rng(seed))
    anc = dephase_ancilla(ancilla_state(theta0, phi0), x)
    sched = conjugate_schedule(t1, theta=0.2)
    value = qfi_general(probe, anc, params, sched).value
    rho, drho = output_state_derivative(probe, anc, params, sched)
    oracle = qfi_sld_oracle(rho, drho).value
    assert abs(value - oracle) <= 1e-8 * max(1.0, oracle)
    assert 0.0 <= value <= n * n * (1.0 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    kind=st.sampled_from(["zz", "xz"]),
    omega_p=st.floats(0.5, 5.0),
    omega_a=st.floats(0.5, 5.0),
    polarized=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    theta0=st.floats(-2 * np.pi, 2 * np.pi),
    phi0=st.floats(-2 * np.pi, 2 * np.pi),
    x=st.floats(0.0, 1.0),
    t1=st.floats(1e-3, np.pi),
)
def test_ancilla_numbers_fix_both_information_paths(n, kind, omega_p, omega_a, polarized, seed, theta0, phi0, x, t1):
    # production reads (theta0, phi0, x), the SLD oracle the derived rho: they
    # agree within validate's tolerance, and the readout stays under the bound
    params = ModelParams(omega_p, omega_a, 1.0, kind=kind)
    dim = EnsembleDim(n)
    gen = optimal_generator(params, dim)
    probe = polarized_probe(dim, gen) if polarized else random_probe(dim, np.random.default_rng(seed), min(3, dim.dim))
    anc = AncillaState(theta0, phi0, x)
    sched = conjugate_schedule(t1, theta=0.2)
    general = qfi_general(probe, anc, params, sched).value
    rho, drho = output_state_derivative(probe, anc, params, sched)
    oracle = qfi_sld_oracle(rho, drho).value
    # _two_term_sum returns anything within 1e-12 term1 <= 1e-12 N^2 of zero
    # as exactly 0, so the absolute floor is that snap
    assert abs(general - oracle) <= 1e-8 * max(general, oracle) + 1e-12 * n * n
    assert cfi(probe, anc, params, sched, generator=gen, theta_eval=0.2).value <= oracle + 1e-8 * max(1.0, oracle)


# ---------------------------------------------------------------------------
# measurement and classical Fisher information


def test_measurement_probs_polarized_at_zero_phase():
    dim, gen, probe, anc, _ = optimal_setup(4)
    table = measurement_probs(probe, anc, ZZ, conjugate_schedule(optimal_settings(ZZ).t1, 0.0), generator=gen)
    top_plus = [row for row in table.rows if abs(row[0] - dim.j) < 1e-9 and row[1] == "+"]
    assert abs(top_plus[0][2] - 1.0) <= 1e-10
    others = [row[2] for row in table.rows if not (abs(row[0] - dim.j) < 1e-9 and row[1] == "+")]
    assert max(others) <= 1e-10


def test_measurement_probs_polarized_quarter_phase():
    # cos(2 j theta) = cos(pi/2) = 0 at theta = pi/8 for j = 2
    dim, gen, probe, anc, _ = optimal_setup(4)
    table = measurement_probs(probe, anc, ZZ, conjugate_schedule(optimal_settings(ZZ).t1, np.pi / 8), generator=gen)
    top = {row[1]: row[2] for row in table.rows if abs(row[0] - dim.j) < 1e-9}
    assert abs(top["+"] - 0.5) <= 1e-10 and abs(top["-"] - 0.5) <= 1e-10


def test_measurement_probs_ghz():
    theta = 0.43
    n = 4
    dim = EnsembleDim(n)
    gen = optimal_generator(ZZ, dim)
    probe = ghz_probe(dim, gen)
    sched = conjugate_schedule(optimal_settings(ZZ).t1, theta)
    table = measurement_probs(probe, ancilla_state(np.pi / 2), ZZ, sched, generator=gen)
    expected = {"+": (1 + np.cos(2 * dim.j * theta)) / 4, "-": (1 - np.cos(2 * dim.j * theta)) / 4}
    for row in table.rows:
        if abs(abs(row[0]) - dim.j) < 1e-9:
            assert abs(row[2] - expected[row[1]]) <= 1e-10
        else:
            assert row[2] <= 1e-10


def test_measurement_probs_sum_to_one_and_ancilla_only():
    rng = np.random.default_rng(3)
    dim = EnsembleDim(5)
    gen = optimal_generator(ZZ, dim)
    probe = random_probe(dim, rng)
    anc, sched = ancilla_state(1.0, 0.3), conjugate_schedule(0.9, 0.7)
    full = measurement_probs(probe, anc, ZZ, sched, generator=gen)
    assert abs(full.probabilities.sum() - 1.0) <= 1e-10
    reduced = measurement_probs(probe, anc, ZZ, sched, basis="ancilla_only")
    assert len(reduced.rows) == 2 and abs(reduced.probabilities.sum() - 1.0) <= 1e-10


def test_probability_table_validates():
    with pytest.raises(ContractViolation):
        ProbabilityTable(np.array([0.6, 0.6]), np.array([1.0]))
    with pytest.raises(ContractViolation):
        ProbabilityTable(np.array([1.2, -0.2]))
    with pytest.raises(ContractViolation):
        ProbabilityTable(np.array([0.5, 0.5]), np.array([-1.0, 1.0]))
    for bad in ([np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(ContractViolation, match="finite"):
            ProbabilityTable(np.array(bad))
    table = ProbabilityTable(np.array([0.25, 0.0, 0.5, 0.25]), np.array([-0.5, 0.5]))
    assert table.rows == ((-0.5, "+", 0.25), (-0.5, "-", 0.0), (0.5, "+", 0.5), (0.5, "-", 0.25))
    assert ProbabilityTable(np.array([0.75, 0.25])).rows == ((None, "+", 0.75), (None, "-", 0.25))


@pytest.mark.parametrize("kind", ["zz", "xz"])
def test_measurement_probs_default_generator_is_the_optimal_one(kind):
    # the full-system readout defaults to the generator cfi defaults to
    params = ModelParams(omega_p=1.0, omega_a=1.5, g=1.0, kind=kind)
    dim = EnsembleDim(6)
    probe = thermal_probe(dim, optimal_generator(params, dim), 0.7)
    anc, sched = ancilla_state(1.1, 0.7), conjugate_schedule(0.8, 0.3)
    default = measurement_probs(probe, anc, params, sched)
    explicit = measurement_probs(probe, anc, params, sched, generator=optimal_generator(params, dim))
    assert default.rows == explicit.rows
    np.testing.assert_array_equal(default.probabilities, explicit.probabilities)


def test_cfi_ancilla_only_heisenberg_limit():
    n = 5
    _, gen, probe, anc, sched = optimal_setup(n)
    value = cfi(probe, anc, ZZ, sched, generator=gen, theta_eval=0.2, basis="ancilla_only").value
    assert abs(value - n * n) <= 1e-8 * n * n


def test_cfi_thermal_saturates_simplified():
    n, beta = 20, 1.0
    dim = EnsembleDim(n)
    gen = optimal_generator(ZZ, dim)
    probe = thermal_probe(dim, gen, beta)
    sched = conjugate_schedule(optimal_settings(ZZ).t1, theta=0.0)
    value = cfi(probe, ancilla_state(np.pi / 2), ZZ, sched, generator=gen).value
    target = qfi_simplified(probe, gen).value
    assert abs(value - target) <= 1e-8 * target


def test_cfi_quarter_period_schedule_keeps_information():
    # gt1 = gt2 = pi/2 is not a reversal period for N = 5, yet the readout
    # still extracts the full quadratic information
    n = 5
    dim = EnsembleDim(n)
    gen = optimal_generator(ZZ, dim)
    probe = polarized_probe(dim, gen)
    sched = Schedule(t1=np.pi / 2, t2=np.pi / 2, theta=0.0, mode="period")
    value = cfi(probe, ancilla_state(np.pi / 2), ZZ, sched, generator=gen, theta_eval=0.2).value
    assert abs(value - n * n) <= 1e-8 * n * n


def test_cfi_finite_difference_agrees_with_analytic():
    rng = np.random.default_rng(31)
    dim = EnsembleDim(4)
    gen = optimal_generator(ZZ, dim)
    probe = random_probe(dim, rng)
    anc = ancilla_state(1.2, 0.4)
    sched = Schedule(t1=0.8, t2=1.1, theta=0.0, mode="period")
    analytic = cfi(probe, anc, ZZ, sched, generator=gen, theta_eval=0.2).value
    numeric = density_route_cfi(probe, anc, ZZ, sched, gen, 0.2, "finite_diff", "full_system")
    assert abs(analytic - numeric) <= 1e-5 * max(1.0, analytic)


def test_cfi_theta_independence_at_optimum():
    _, gen, probe, anc, _ = optimal_setup(5)
    sched = conjugate_schedule(optimal_settings(ZZ).t1, theta=0.0)
    values = [
        cfi(probe, anc, ZZ, sched, generator=gen, theta_eval=theta).value
        for theta in (0.1, 0.5, 1.0, 2.0)
    ]
    assert (max(values) - min(values)) / max(values) <= 1e-8


def test_cfi_never_exceeds_quantum_bound():
    rng = np.random.default_rng(8)
    for _ in range(10):
        dim = EnsembleDim(int(rng.integers(2, 9)))
        probe = random_probe(dim, rng)
        anc = ancilla_state(float(rng.uniform(0, np.pi)))
        sched = conjugate_schedule(float(rng.uniform(0.1, np.pi)), theta=0.0)
        quantum = qfi_general(probe, anc, ZZ, sched).value
        classical = cfi(probe, anc, ZZ, sched, theta_eval=0.2).value
        assert classical <= quantum + 1e-8


# The ancilla readout kets |+> and |-> as columns.
PLUS_MINUS = np.stack([KET_E + KET_G, KET_E - KET_G], axis=1) / np.sqrt(2.0)


def ancilla_reduced(rho):
    d = rho.shape[0] // 2
    return np.einsum("iaib->ab", rho.reshape(d, 2, d, 2))


def readout_diagonal(op, vecs):
    """Expectation of a dense joint operator in each readout projector.

    Full-system projector columns are |m>_gen (x) |+/-> for the generator
    eigenvectors ``vecs``; with ``vecs`` None the probe is traced out and the
    qubit projected on |+/->.
    """
    if vecs is None:
        op, columns = ancilla_reduced(op), PLUS_MINUS
    else:
        columns = np.kron(vecs, PLUS_MINUS)
    return np.einsum("ik,ik->k", columns.conj(), op @ columns).real


def density_route_cfi(probe, anc, params, sched, gen, theta_eval, mode, basis, h=1e-5):
    """Readout information from the output density matrix and its derivative.

    The reference for the amplitude route: readout diagonals of rho and
    d rho / d theta (or of rho at theta +/- h), with cfi's row mask.
    """
    vecs = spin_frame(gen.dim, gen.axis)[1] if basis == "full_system" else None

    def rho_at(theta):
        return output_state_derivative(probe, anc, params, replace(sched, theta=theta))[0]

    if mode == "analytic":
        rho, drho = output_state_derivative(probe, anc, params, replace(sched, theta=theta_eval))
        p, dp = readout_diagonal(rho, vecs), readout_diagonal(drho, vecs)
    else:
        p = readout_diagonal(rho_at(theta_eval), vecs)
        hi, lo = (readout_diagonal(rho_at(theta_eval + d), vecs) for d in (h, -h))
        dp = (hi - lo) / (2.0 * h)
    p = np.clip(p, 0.0, None)
    keep = ~((p < EPS_PROB) & (np.abs(dp) < np.sqrt(EPS_PROB)))
    return float(np.sum(dp[keep] ** 2 / p[keep]))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 30),
    kind=st.sampled_from(["zz", "xz"]),
    omega_p=st.floats(0.2, 5.0),
    omega_a=st.floats(0.2, 5.0),
    seed=st.integers(0, 2**32 - 1),
    theta0=st.floats(0.0, np.pi),
    x=st.sampled_from([0.0, 0.4, 1.0]),
    t1=st.floats(0.0, 2 * np.pi),
    t2=st.floats(0.0, 2 * np.pi),
    sched_mode=st.sampled_from(["exact_conjugate", "period"]),
    theta_eval=st.floats(0.05, 3.0),
    basis=st.sampled_from(["full_system", "ancilla_only"]),
)
def test_amplitude_cfi_matches_density_route(
    n, kind, omega_p, omega_a, seed, theta0, x, t1, t2, sched_mode, theta_eval, basis
):
    params = ModelParams(omega_p, omega_a, 1.0, kind=kind)
    dim = EnsembleDim(n)
    gen = optimal_generator(params, dim)
    probe = random_probe(dim, np.random.default_rng(seed), max_rank=min(3, dim.dim))
    anc = dephase_ancilla(ancilla_state(theta0, 0.3), x)
    sched = Schedule(t1=t1, t2=t1 if sched_mode == "exact_conjugate" else t2, theta=0.0, mode=sched_mode)
    value = cfi(probe, anc, params, sched, generator=gen, theta_eval=theta_eval, basis=basis).value
    reference = density_route_cfi(probe, anc, params, sched, gen, theta_eval, "analytic", basis)
    assert abs(value - reference) <= 1e-10 * max(1.0, reference)


# ---------------------------------------------------------------------------
# readout nodes


@pytest.mark.parametrize("theta_eval", [0.0, np.pi, 1e-9])
@pytest.mark.parametrize("n", [5, 60])
@pytest.mark.parametrize("params", [ZZ, ModelParams(omega_p=1.0, omega_a=1.0, g=1.0, kind="xz")])
def test_cfi_at_readout_nodes_keeps_the_full_information(params, n, theta_eval):
    # at theta = 0 (and pi for odd N) one branch of the top readout row has
    # p = dp = 0; it carries the whole information through its limit 4 |d a|^2
    dim, gen, probe, anc, _ = optimal_setup(n, params)
    sched = conjugate_schedule(optimal_settings(params).t1, theta=0.0)
    value = cfi(probe, anc, params, sched, generator=gen, theta_eval=theta_eval).value
    assert abs(value - n * n) <= 1e-12 * n * n


# F_c of cell gt1 = 2 (2 pi / 64), gt2 = 30 (2 pi / 64) of the default ZZ
# readout map (N = 5, theta_eval = 0.2), from the 50-digit evaluation in
# test_map_cell_reference_from_high_precision below.
MAP_CELL_FC = 1.8878967972283329


def map_cell_schedule():
    gts = np.linspace(0.0, 2 * np.pi, 65)
    return Schedule(t1=gts[2], t2=gts[30], theta=0.0, mode="period")


def test_cfi_map_cell_matches_high_precision_reference():
    # its two smallest outcomes have p ~ 7e-13, which the plain ratio
    # drops, although they carry 3.8e-9 of the information
    dim = EnsembleDim(5)
    gen = optimal_generator(ZZ, dim)
    probe = polarized_probe(dim, gen)
    value = cfi(probe, ancilla_state(np.pi / 2), ZZ, map_cell_schedule(), generator=gen, theta_eval=0.2).value
    assert abs(value - MAP_CELL_FC) <= 1e-12 * MAP_CELL_FC


def test_map_cell_reference_from_high_precision():
    """MAP_CELL_FC in 50-digit arithmetic, sharing no code with the package.

    Polarized probe along the optimal generator J(-pi) = -J_x (its top
    eigenvector is the J_x eigenvector of eigenvalue -j), ancilla at
    theta0 = pi/2, readout on the J_x eigenvectors times |+/->, and
    F_c = sum_c (2 Re(a_c^* da_c))^2 / |a_c|^2 over the output amplitudes
    a_c and their exact theta-derivatives; no outcome is dropped or replaced.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    sched = map_cell_schedule()
    n, omega_p, omega_a, g, theta = 5, 3, 3, 1, mpmath.mpf(0.2)
    with mp.workdps(50):
        j = mp.mpf(n) / 2
        m = [mp.mpf(k) - j for k in range(n + 1)]
        jx = mp.matrix(n + 1, n + 1)
        for k in range(n):
            jx[k + 1, k] = jx[k, k + 1] = mp.sqrt(j * (j + 1) - m[k] * (m[k] + 1)) / 2
        vals, vecs = mp.eigsy(jx)
        rotation = vecs * mp.diag([mp.exp(-1j * theta * v) for v in vals]) * vecs.T
        probe = vecs[:, 0]
        legs = {}
        for s in (1, -1):
            def leg(t):
                return mp.diag([mp.exp(-1j * mp.mpf(t) * ((omega_p + s * g) * mk + s * omega_a)) for mk in m])

            chi = rotation * leg(sched.t1) * probe * mp.sqrt(mp.mpf(1) / 2)
            legs[s] = (leg(sched.t2) * chi, leg(sched.t2) * (-1j * (jx * chi)))
        total = mp.mpf(0)
        for col in range(n + 1):
            v = vecs[:, col]
            for sign in (1, -1):
                a, da = (
                    sum(v[i] * (legs[1][part][i] + sign * legs[-1][part][i]) for i in range(n + 1)) / mp.sqrt(2)
                    for part in (0, 1)
                )
                total += (2 * mp.re(mp.conj(a) * da)) ** 2 / abs(a) ** 2
        assert abs(total - mp.mpf(MAP_CELL_FC)) <= mp.mpf("1e-15")


def test_qfi_cell_matches_high_precision_reference():
    """qfi_general against a 50-digit two-term sum, sharing no code with the package.

    XZ cell away from the optimum, N = 3, a rank-2 probe and a dephased
    ancilla: H_eff = U(t1)^dagger (J_z (x) I) U(t1) from mp.expm of the 8x8
    joint Hamiltonian (probe factor first, |e> first), then
    F_Q = 4 sum_k w_k <H_eff^2>_k - sum_kl 8 w_k w_l / (w_k + w_l) |<k|H_eff|l>|^2
    over the joint input eigenpairs.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    n, omega_p, omega_a, g, t1 = 3, 0.8, 1.3, 1.0, 0.9
    theta0, phi0, x = 1.1, 0.7, 0.3
    weights = (0.7, 0.3)
    with mp.workdps(50):
        j = mp.mpf(n) / 2
        m = [mp.mpf(k) - j for k in range(n + 1)]
        jz = mp.diag(m)
        jx = mp.matrix(n + 1, n + 1)
        for k in range(n):
            jx[k + 1, k] = jx[k, k + 1] = mp.sqrt(j * (j + 1) - m[k] * (m[k] + 1)) / 2
        eye2, sz = mp.eye(2), mp.diag([1, -1])

        def kron(a, b):
            out = mp.matrix(a.rows * b.rows, a.cols * b.cols)
            for i in range(a.rows):
                for k in range(a.cols):
                    for p in range(b.rows):
                        for q in range(b.cols):
                            out[i * b.rows + p, k * b.cols + q] = a[i, k] * b[p, q]
            return out

        h = omega_p * kron(jz, eye2) + omega_a * kron(mp.eye(n + 1), sz) + g * kron(jx, sz)
        u1 = mp.expm(-1j * mp.mpf(t1) * h)
        h_eff = u1.H * kron(jz, eye2) * u1
        vecs = [mp.matrix([1, 1, 0, 0]) / mp.sqrt(2), mp.matrix([0, 0, 1, 2j]) / mp.sqrt(5)]
        ket = mp.matrix([mp.cos(mp.mpf(theta0) / 2), mp.exp(-1j * mp.mpf(phi0)) * mp.sin(mp.mpf(theta0) / 2)])
        rho_a = ket * ket.H
        rho_a[0, 1] *= 1 - mp.mpf(x)
        rho_a[1, 0] *= 1 - mp.mpf(x)
        q, a = mp.eighe(rho_a)
        pairs = [
            (mp.mpf(w) * q[s], kron(v, a[:, s]))
            for w, v in zip(weights, vecs)
            for s in range(2)
        ]
        total = mp.mpf(0)
        for wk, psi_k in pairs:
            h_psi = h_eff * psi_k
            total += 4 * wk * mp.re((h_psi.H * h_psi)[0])
            for wl, psi_l in pairs:
                total -= 8 * wk * wl / (wk + wl) * abs((psi_l.H * h_psi)[0]) ** 2
        dim = EnsembleDim(n)
        vectors = np.array([[complex(v[i]) for v in vecs] for i in range(n + 1)])
        probe = SpectralProbe(dim=dim, weights=np.array(weights), vectors=vectors)
        anc = dephase_ancilla(ancilla_state(theta0, phi0), x)
        np.testing.assert_allclose(anc.rho, np.array(rho_a.tolist(), dtype=complex), rtol=0, atol=1e-15)
        params = ModelParams(omega_p=omega_p, omega_a=omega_a, g=g, kind="xz")
        value = qfi_general(probe, anc, params, conjugate_schedule(t1, theta=0.2)).value
        assert abs(mp.mpf(value) - total) <= mp.mpf("1e-12") * total


# ---------------------------------------------------------------------------
# grid kernels


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    kind=st.sampled_from(["zz", "xz"]),
    seed=st.integers(0, 2**32 - 1),
    xs=st.lists(st.sampled_from([0.0, 0.0, 0.3, 1.0]), min_size=1, max_size=4),
    t1s=st.lists(st.floats(0.0, 2 * np.pi), min_size=0, max_size=4),
    t2=st.floats(0.0, 2 * np.pi),
    sched_mode=st.sampled_from(["exact_conjugate", "period"]),
    basis=st.sampled_from(["full_system", "ancilla_only"]),
)
def test_grid_kernels_match_the_dense_references(n, kind, seed, xs, t1s, t2, sched_mode, basis):
    params = ModelParams(omega_p=3.0, omega_a=2.0, g=1.0, kind=kind)
    dim = EnsembleDim(n)
    rng = np.random.default_rng(seed)
    probe = random_probe(dim, rng, max_rank=min(3, dim.dim))
    ancillas = [dephase_ancilla(ancilla_state(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)), x) for x in xs]
    times = np.array([0.0, *t1s])
    grid = qfi_grid(probe, ancillas, params, times)
    assert grid.shape == (len(ancillas), times.size)
    for anc, row in zip(ancillas, grid):
        for t1, value in zip(times, row):
            rho, drho = output_state_derivative(probe, anc, params, conjugate_schedule(t1, 0.3))
            oracle = qfi_sld_oracle(rho, drho).value
            assert abs(value - oracle) <= 1e-8 * max(1.0, oracle)
    gen = optimal_generator(params, dim)
    t2s = times[::-1] + t2
    fc = cfi_grid(probe, ancillas[0], params, times, t2s, sched_mode, generator=gen, theta_eval=0.4, basis=basis)
    assert fc.shape == times.shape
    for t1, t2_cell, value in zip(times, t2s, fc):
        sched = Schedule(t1=t1, t2=t1 if sched_mode == "exact_conjugate" else t2_cell, theta=0.0, mode=sched_mode)
        reference = density_route_cfi(probe, ancillas[0], params, sched, gen, 0.4, "analytic", basis)
        assert abs(value - reference) <= 1e-10 * max(1.0, reference)


def test_cfi_grid_broadcasts_step_times():
    dim, gen, probe, anc, _ = optimal_setup(4)
    t1s, t2s = np.array([0.0, 0.7, 1.9]), np.array([0.2, 1.5])
    grid = cfi_grid(probe, anc, ZZ, t1s[:, None], t2s, "period", generator=gen)
    assert grid.shape == (3, 2)
    for (i, k), value in np.ndenumerate(grid):
        sched = Schedule(t1=t1s[i], t2=t2s[k], theta=0.0, mode="period")
        assert value == cfi(probe, anc, ZZ, sched, generator=gen).value
    # exact_conjugate ignores t2: the second leg is U(t1)^dagger
    conj = cfi_grid(probe, anc, ZZ, t1s, 5.0, "exact_conjugate", generator=gen)
    assert conj.shape == (3,)
    np.testing.assert_array_equal(conj, [cfi(probe, anc, ZZ, conjugate_schedule(t, 0.0), gen).value for t in t1s])


@pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
def test_grid_kernels_reject_bad_times(bad):
    dim, gen, probe, anc, _ = optimal_setup(3)
    with pytest.raises(ContractViolation, match="step durations"):
        qfi_grid(probe, [anc], ZZ, [0.1, bad])
    with pytest.raises(ContractViolation, match="step durations"):
        cfi_grid(probe, anc, ZZ, [0.1, 0.2], [0.3, bad], "period", generator=gen)
    with pytest.raises(ContractViolation, match="step times t1 \\(2,\\) and t2 \\(3,\\) do not broadcast"):
        cfi_grid(probe, anc, ZZ, np.ones(2), np.ones(3), "period", generator=gen)
    with pytest.raises(ContractViolation, match="reversal mode"):
        cfi_grid(probe, anc, ZZ, 0.1, 0.2, "forward", generator=gen)


def test_readout_rejects_bad_phase_and_foreign_generator():
    dim, gen, probe, anc, sched = optimal_setup(3)
    for bad in (np.nan, np.inf):
        with pytest.raises(ContractViolation, match="encoded phase"):
            cfi(probe, anc, ZZ, sched, generator=gen, theta_eval=bad)
    foreign = optimal_generator(ZZ, EnsembleDim(4))
    with pytest.raises(ContractViolation, match="generator is for N = 4, probe for N = 3"):
        cfi(probe, anc, ZZ, sched, generator=foreign)
    with pytest.raises(ContractViolation, match="generator is for N = 4"):
        measurement_probs(probe, anc, ZZ, sched, generator=foreign)


def test_cfi_reads_theta_eval_and_not_the_schedule_phase():
    dim, gen, probe, anc, _ = optimal_setup(4)
    t1 = 0.3
    at_default = cfi(probe, anc, ZZ, conjugate_schedule(t1, theta=0.2), generator=gen).value
    assert cfi(probe, anc, ZZ, conjugate_schedule(t1, theta=0.7), generator=gen).value == at_default
    assert cfi(probe, anc, ZZ, conjugate_schedule(t1, theta=0.2), generator=gen, theta_eval=0.7).value != at_default
    # measurement_probs, by contrast, reads sched.theta
    probs = [measurement_probs(probe, anc, ZZ, conjugate_schedule(t1, theta)).probabilities for theta in (0.2, 0.7)]
    assert not np.array_equal(*probs)


def test_ancilla_only_readout_rejects_a_foreign_generator():
    # the ancilla-only readout does not use the generator, but one for another N is still an error
    dim, gen, probe, anc, sched = optimal_setup(6)
    axis = (np.cos(1.234), np.sin(1.234), 0.0)
    foreign = PhaseGenerator(EnsembleDim(9), axis)
    with pytest.raises(ContractViolation, match="generator is for N = 9, probe for N = 6"):
        cfi(probe, anc, ZZ, sched, generator=foreign, basis="ancilla_only")
    with pytest.raises(ContractViolation, match="generator is for N = 9, probe for N = 6"):
        cfi_grid(probe, anc, ZZ, [0.1, 0.2], [0.3, 0.4], "period", generator=foreign, basis="ancilla_only")
    with pytest.raises(ContractViolation, match="generator is for N = 9, probe for N = 6"):
        measurement_probs(probe, anc, ZZ, sched, basis="ancilla_only", generator=foreign)
    # a generator of the probe's size stays accepted, and unused
    kept = cfi(probe, anc, ZZ, sched, generator=PhaseGenerator(dim, axis), basis="ancilla_only").value
    assert kept == cfi(probe, anc, ZZ, sched, basis="ancilla_only").value


def test_fisher_result_rejects_non_finite_values():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ContractViolation, match="Fisher information came out as"):
            FisherResult(value=bad)
    assert FisherResult(value=-1e-12).value == 0.0


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 40),
    kind=st.sampled_from(["zz", "xz"]),
    thermal=st.booleans(),
    beta=st.floats(0.1, 3.0),
    ancillas=st.lists(
        st.tuples(
            st.floats(-2 * np.pi, 2 * np.pi), st.floats(-2 * np.pi, 2 * np.pi), st.sampled_from([0.0, 1e-13, 0.3, 1.0])
        ),
        min_size=1,
        max_size=5,
    ),
    t1s=st.lists(st.floats(0.0, 2 * np.pi), min_size=1, max_size=5),
)
def test_qfi_grid_is_per_cell_qfi_general_bit_for_bit(n, kind, thermal, beta, ancillas, t1s):
    # pure and dephased ancillas in one list share one walk over the times;
    # each cell is still exactly the one-cell call
    params = UNIT_XZ if kind == "xz" else ModelParams(omega_p=1.0, omega_a=1.0, g=1.0, kind="zz")
    dim = EnsembleDim(n)
    gen = optimal_generator(params, dim)
    probe = thermal_probe(dim, gen, beta) if thermal else polarized_probe(dim, gen)
    states = [AncillaState(*numbers) for numbers in ancillas]
    grid = qfi_grid(probe, states, params, t1s)
    assert qfi_grid(probe, [], params, t1s).shape == (0, len(t1s))
    for anc, row in zip(states, grid):
        for t1, value in zip(t1s, row):
            assert value == qfi_general(probe, anc, params, conjugate_schedule(t1, 0.0)).value


def test_qfi_grid_checks_every_cell(monkeypatch):
    dim, _, probe, anc, _ = optimal_setup(3)
    cells = np.array([[1.0, -1e-12, 2.0]])
    monkeypatch.setattr(echometry.fisher, "_two_term_sum", lambda *args: cells.copy())
    np.testing.assert_array_equal(qfi_grid(probe, [anc], ZZ, [0.1, 0.2, 0.3]), [[1.0, 0.0, 2.0]])
    for bad in (-1e-6, np.nan, np.inf):
        cells[0, 1] = bad
        with pytest.raises(ContractViolation, match="Fisher information came out as"):
            qfi_grid(probe, [anc], ZZ, [0.1, 0.2, 0.3])


def test_grid_kernels_walk_time_slices_within_the_entry_budget(monkeypatch):
    # the QFI budget counts the banded products h_s = (c_s.J) V of a probe
    # given by its columns, 2 (N+1) k entries per time, and the A (2k)^2 joint
    # overlaps: at N = 300 a rank-1 probe (k = 1) with A = 3 ancillas takes
    # 602 + 12 = 614 per time, so a slice holds 53 times
    # (53 * 614 <= 2**15 < 54 * 614) and 81 times take two slices; the same
    # probe declared by its levels forms no column, so its 12 entries per time
    # fit all 81 times in one slice
    n = 300
    dim, gen, probe, anc, _ = optimal_setup(n)
    assert echometry.fisher._SLICE_ENTRIES == 2**15
    ancillas = [anc, dephase_ancilla(anc, 0.4), ancilla_state(0.7)]
    t1s = np.linspace(0.0, np.pi, 81)
    slices = []  # (probe columns, times) of each banded product, or (None, times) of closed-form moments
    apply_spin_axis, level_moments = echometry.fisher.apply_spin_axis, echometry.fisher._level_moments

    def recording(dim, axis, x):
        slices.append((x.shape, np.shape(axis)[0]))
        return apply_spin_axis(dim, axis, x)

    def recording_moments(levels, count, j, axes):
        slices.append((None, np.shape(axes)[0]))
        return level_moments(levels, count, j, axes)

    monkeypatch.setattr(echometry.fisher, "apply_spin_axis", recording)
    monkeypatch.setattr(echometry.fisher, "_level_moments", recording_moments)
    by_hand = SpectralProbe(dim, probe.weights, probe.vectors)
    grid = qfi_grid(by_hand, ancillas, ZZ, t1s)
    # one walk over the times serves the pure and the dephased ancillas alike
    assert slices == [((n + 1, 1), 53), ((n + 1, 1), 28)]
    slices.clear()
    declared = qfi_grid(probe, ancillas, ZZ, t1s)
    assert slices == [(None, 81)]
    np.testing.assert_allclose(declared, grid, rtol=0.0, atol=1e-12 * n * n)
    monkeypatch.setattr(echometry.fisher, "apply_spin_axis", apply_spin_axis)
    monkeypatch.setattr(echometry.fisher, "_level_moments", level_moments)
    for chosen, values in ((by_hand, grid), (probe, declared)):
        for anc_row, row in zip(ancillas, values):
            for t1, value in zip(t1s[::10], row[::10]):
                assert value == qfi_general(chosen, anc_row, ZZ, conjugate_schedule(t1, 0.0)).value


# the three regimes of the optimal axis: ZZ, XZ at strong coupling (unit axis) and at weak coupling (|n| < 1)
SIZE_MODELS = (ZZ, STRONG_XZ, ModelParams(omega_p=3.0, omega_a=1.5, g=1.0, kind="xz"))


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(range(len(SIZE_MODELS))),
    top=st.booleans(),
    sizes=st.lists(st.sampled_from([1, 2, 3, 7, 20, 101, 1000, 10**4]) | st.integers(1, 60), min_size=1, max_size=5),
    times=st.integers(0, 4),
    per_size=st.booleans(),
    theta0=st.floats(0.0, np.pi),
    rates=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=2),
    data=st.data(),
)
def test_qfi_sizes_is_the_per_size_qfi_grid_bit_for_bit(model, top, sizes, times, per_size, theta0, rates, data):
    # N as a kernel axis changes no cell's arithmetic: each size's rows are
    # qfi_grid of that size's probe, for unsorted and repeated sizes, step
    # times shared (T,) or one row per size (N, T), pure and dephased ancillas
    params = SIZE_MODELS[model]
    sizes = sizes + sizes[:1]
    axis = optimal_generator(params, EnsembleDim(1)).axis
    levels = SpinLevels(axis, top=top)
    pure = ancilla_state(theta0, 0.3)
    ancillas = [pure] + [dephase_ancilla(pure, x) for x in rates]
    times_st = st.lists(st.floats(0.0, 10.0), min_size=times, max_size=times)
    steps = np.array(data.draw(st.lists(times_st, min_size=len(sizes), max_size=len(sizes)) if per_size else times_st))
    got = qfi_sizes(levels, sizes, ancillas, params, steps)
    assert got.shape == (len(sizes), len(ancillas), times)
    for n, row, t1s in zip(sizes, got, np.broadcast_to(steps, (len(sizes), times))):
        dim = EnsembleDim(n)
        probe = polarized_probe(dim, PhaseGenerator(dim, axis)) if top else SpectralProbe(dim, [1.0], levels=levels)
        np.testing.assert_array_equal(row, qfi_grid(probe, ancillas, params, t1s))


def test_qfi_sizes_rejects_bad_sizes_and_step_times():
    levels = SpinLevels(optimal_generator(ZZ, EnsembleDim(1)).axis, top=True)
    anc = [ancilla_state(np.pi / 2)]
    for sizes in ([0], [2.5], [3, -1]):
        with pytest.raises(ContractViolation, match="positive integer"):
            qfi_sizes(levels, sizes, anc, ZZ, [0.1])
    for steps in (np.zeros((3, 2)), np.zeros((2, 2, 2)), 0.1, [[0.1, -0.1], [0.2, 0.3]]):
        with pytest.raises(ContractViolation, match="step"):
            qfi_sizes(levels, [2, 4], anc, ZZ, steps)
    assert qfi_sizes(levels, [], anc, ZZ, [0.1, 0.2]).shape == (0, 1, 2)


def test_size_sweeps_walk_cells_within_the_entry_budget(monkeypatch):
    # the size axis counts in the slice budget: the kernel walks the (size,
    # time) cells as one flat axis, size-major, at A (2k)^2 = 9 * 4 = 36 joint
    # entries per cell, so a slice holds 910 cells (910 * 36 <= 2**15 < 911 *
    # 36).  10^3 sizes x 7 step times take 8 slices, and x 6 step times 7,
    # where size 152's six cells (906-911) straddle a slice edge; in (T,) and
    # in (N, T) step times alike
    sizes = np.arange(1, 1001)
    pure = [ancilla_state(theta0) for theta0 in np.linspace(0.2, 3.0, 5)]
    ancillas = pure + [dephase_ancilla(pure[2], x) for x in (0.1, 0.3, 0.5, 1.0)]
    levels = SpinLevels(optimal_generator(ZZ, EnsembleDim(1)).axis, top=True)
    cells = []
    level_moments = echometry.fisher._level_moments

    def recording(levels, count, j, axes):
        cells.append(math.prod(np.broadcast_shapes(np.shape(j), np.shape(axes)[:-2])))
        return level_moments(levels, count, j, axes)

    monkeypatch.setattr(echometry.fisher, "_level_moments", recording)
    for times, walk in ((7, [910] * 7 + [630]), (6, [910] * 6 + [540])):
        t1s = np.linspace(0.1, 2.0, times)
        for steps in (t1s, np.add.outer(1e-3 * sizes, t1s)):
            cells.clear()
            got = qfi_sizes(levels, sizes, ancillas, ZZ, steps)
            assert cells == walk
            assert max(cells) * len(ancillas) * 4 <= echometry.fisher._SLICE_ENTRIES
            for i in (0, 151, 499, 999):
                dim = EnsembleDim(sizes[i])
                probe = polarized_probe(dim, PhaseGenerator(dim, levels.axis))
                row = np.broadcast_to(steps, (1000, times))[i]
                np.testing.assert_array_equal(got[i], qfi_grid(probe, ancillas, ZZ, row))


def test_frame_cache_keeps_read_only_frames_within_its_byte_bound(monkeypatch):
    # frames are kept per N while their bytes, 8 (N+1)^2 each, sum to at most
    # the bound, least recently used out first; a frame above the bound is
    # solved on every call and not kept
    assert echometry.fisher._FRAME_BYTES == 2**22
    monkeypatch.setattr(echometry.fisher, "_FRAME_BYTES", 3 * 8 * 21**2)  # three frames of N = 20
    monkeypatch.setattr(echometry.fisher, "_frames", {})
    solved = []
    frame_of = echometry.fisher.spin_frame
    monkeypatch.setattr(echometry.fisher, "spin_frame", lambda dim, axis: solved.append(dim.dim) or frame_of(dim, axis))
    for n in (20, 20, 5, 20, 30, 7, 20, 100, 100):
        dim = EnsembleDim(n)
        frame = echometry.fisher._x_frame(dim)
        assert not frame.flags.writeable
        assert sum(kept.nbytes for kept in echometry.fisher._frames.values()) <= echometry.fisher._FRAME_BYTES
        np.testing.assert_array_equal(frame, frame_of(dim, (1.0, 0.0, 0.0))[1])
        with pytest.raises(ValueError, match="read-only"):
            frame[0, 0] = 1.0
    assert solved == [21, 6, 31, 8, 21, 101, 101]
    assert list(echometry.fisher._frames) == [7, 20]


def test_small_grids_take_one_slice(monkeypatch):
    dim, gen, probe, anc, _ = optimal_setup(20)
    calls = []
    propagator = echometry.fisher.propagator
    monkeypatch.setattr(echometry.fisher, "propagator", lambda *args: calls.append(args[1].size) or propagator(*args))
    qfi_grid(probe, [anc], ZZ, np.linspace(0.0, np.pi, 30))
    assert calls == [30]


@pytest.mark.parametrize("params", [ZZ, UNIT_XZ], ids=["zz", "xz"])
@pytest.mark.parametrize("mode", ["exact_conjugate", "period"])
def test_cfi_grid_solves_one_propagator_per_exact_conjugate_slice(monkeypatch, params, mode):
    # exact_conjugate reads the second leg as the inverse pairs of the first,
    # u_s(-t1) = u_s(t1)^dagger with sector phase 1; period mode solves both
    # legs.  A slice of the coherent readout at N = 250 holds 8 times
    # (8 * 16 * 251 <= 2**15 < 9 * 16 * 251) and one of the thermal readout at
    # N = 30 (28 kept columns) 2 times, so 20 times take 3 and 10 slices, and
    # 5 coherent ones take the one-slice return.
    rng = np.random.default_rng(11)
    t1s, t2s = rng.uniform(0.0, 5.0, 20), rng.uniform(0.0, 5.0, 20)
    legs = 1 if mode == "exact_conjugate" else 2
    propagator = echometry.fisher.propagator
    for n, make_probe, count, slice_sizes in (
        (250, polarized_probe, 20, [8, 8, 4]),
        (250, polarized_probe, 5, [5]),
        (30, lambda dim, gen: thermal_probe(dim, gen, 1.0), 20, [2] * 10),
    ):
        dim = EnsembleDim(n)
        gen = optimal_generator(params, dim)
        probe, anc = make_probe(dim, gen), ancilla_state(1.1, 0.4)
        calls = []
        monkeypatch.setattr(
            echometry.fisher, "propagator", lambda *args: calls.append(args[1].size) or propagator(*args)
        )
        grid = cfi_grid(probe, anc, params, t1s[:count], t2s[:count], mode, generator=gen, theta_eval=0.3)
        assert calls == [size for size in slice_sizes for _ in range(legs)]
        monkeypatch.setattr(echometry.fisher, "propagator", propagator)
        cells = [
            cfi(probe, anc, params, Schedule(t1, t2, 0.0, mode), generator=gen, theta_eval=0.3).value
            for t1, t2 in zip(t1s[:count], t2s[:count])
        ]
        np.testing.assert_array_equal(grid, cells)


@pytest.mark.parametrize("n", [400, 1000, 1200])
def test_qfi_true_zero_is_exact(n):
    # a J_x thermal probe commutes with the ZZ generator J_x at t1 = 0, so F_Q = 0
    # exactly; the two-term sum cancels terms of size ~N^2 and must not leave noise
    dim = EnsembleDim(n)
    probe = thermal_probe(dim, PhaseGenerator(dim, (1.0, 0.0, 0.0)), 1.0)
    assert qfi_general(probe, ancilla_state(np.pi / 2), ZZ, conjugate_schedule(0.0, 0.2)).value == 0.0


def coherent_qfi(params, n, axis, theta0, t1):
    """F_Q of a pure ancilla and a spin-coherent probe along the unit ``axis``, from 2x2 matrices.

    In ancilla sector s the effective generator is c_s . J, with c_s the
    rotation of the encoding axis by u_s = exp(-i t1 w_s . sigma / 2); the
    coherent-state moments of c . J give F_Q = 4 (<H^2> - <H>^2).
    """
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    g_axis = (1.0, 0.0, 0.0) if params.kind == "zz" else (0.0, 0.0, 1.0)
    g_sigma = sum(gi * p for gi, p in zip(g_axis, paulis))
    j = n / 2
    mean = mean_sq = 0.0
    for s, weight in ((1.0, np.cos(theta0 / 2) ** 2), (-1.0, np.sin(theta0 / 2) ** 2)):
        if params.kind == "zz":
            w = (0.0, 0.0, params.omega_p + s * params.g)
        else:
            w = (s * params.g, 0.0, params.omega_p)
        u = expm(-0.5j * t1 * sum(wi * p for wi, p in zip(w, paulis)))
        c = np.array([0.5 * np.trace(p @ u.conj().T @ g_sigma @ u).real for p in paulis])
        cn = c @ axis
        mean += weight * j * cn
        mean_sq += weight * (j * j * cn * cn + (j / 2) * (c @ c - cn * cn))
    return 4.0 * (mean_sq - mean * mean)


@pytest.mark.parametrize("n", [100, 800])
def test_qfi_matches_coherent_oracle_at_large_n(n):
    rng = np.random.default_rng(n)
    dim = EnsembleDim(n)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    probe = polarized_probe(dim, PhaseGenerator(dim, axis))
    cases = (
        ZZ,
        ModelParams(omega_p=1.0, omega_a=1.0, g=1.0, kind="xz"),
        ModelParams(omega_p=3.0, omega_a=3.0, g=1.0, kind="xz"),
    )
    for params in cases:
        theta0, phi0, t1 = rng.uniform(0.2, 3.0), rng.uniform(0.0, 2 * np.pi), rng.uniform(0.1, 3.0)
        value = qfi_general(probe, ancilla_state(theta0, phi0), params, conjugate_schedule(t1, 0.2)).value
        oracle = coherent_qfi(params, n, axis, theta0, t1)
        assert abs(value - oracle) <= 1e-10 * max(1.0, oracle)


@pytest.mark.parametrize("n", [10**4, 10**6])
def test_qfi_matches_coherent_oracle_at_scale(n):
    dim = EnsembleDim(n)
    cases = (
        ZZ,
        ModelParams(omega_p=1.0, omega_a=1.0, g=1.0, kind="xz"),
        ModelParams(omega_p=3.0, omega_a=3.0, g=1.0, kind="xz"),
    )
    for (polar, azimuth), params in zip([(1.1, 0.8125), (2.3, -2.5), (0.6, 1.25)], cases):
        axis = np.array([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)])
        probe = polarized_probe(dim, PhaseGenerator(dim, axis))
        residual = apply_spin_axis(dim, axis, probe.vectors) - dim.j * probe.vectors
        assert np.linalg.norm(residual) <= 1e-8 * dim.j
        value = qfi_general(probe, ancilla_state(1.3, 0.4), params, conjugate_schedule(0.9, 0.2)).value
        oracle = coherent_qfi(params, n, axis, 1.3, 0.9)
        assert abs(value - oracle) <= 1e-10 * max(1.0, oracle)


def test_qfi_at_the_optimum_is_heisenberg_at_a_million_spins():
    # at the ZZ optimum (omega_p t1 = 3 pi / 2) the generator is -J_x up to
    # rounding, so its polarized (coherent) probe reaches the Heisenberg limit N^2
    dim = EnsembleDim(10**6)
    probe = polarized_probe(dim, optimal_generator(ZZ, dim))
    settings = optimal_settings(ZZ)
    value = qfi_general(probe, ancilla_state(settings.theta0), ZZ, conjugate_schedule(settings.t1, 0.0)).value
    assert abs(value / dim.n_spins**2 - 1.0) <= 1e-10


def test_qfi_reads_only_the_spin_half_propagator(monkeypatch):
    # H_eff = c_s.J needs only the closed-form SU(2) sector pairs: each QFI call
    # reads them once, for all of its step times
    dim = EnsembleDim(9)
    pure = ancilla_state(1.1, 0.7)
    t1s = np.linspace(0.0, 4.0, 13)

    def outputs():
        for params in (ZZ, ModelParams(omega_p=1.0, omega_a=1.5, g=1.0, kind="xz")):
            probe = thermal_probe(dim, optimal_generator(params, dim), 0.7)
            for anc in (pure, dephase_ancilla(pure, 0.3)):
                yield qfi_general(probe, anc, params, conjugate_schedule(0.8, 0.3)).value
            yield qfi_grid(probe, [pure, dephase_ancilla(pure, 0.6), ancilla_state(0.4)], params, t1s)

    reference = list(outputs())
    propagator = echometry.fisher.propagator
    shapes = []

    def recording(params, t):
        a, b = propagator(params, t)
        assert a.shape == b.shape
        shapes.append(a.shape)
        return a, b

    monkeypatch.setattr(echometry.fisher, "propagator", recording)
    patched = list(outputs())
    assert shapes == [(1, 2), (1, 2), (t1s.size, 2)] * 2
    assert len(patched) == len(reference) == 6
    for got, want in zip(patched, reference):
        np.testing.assert_array_equal(got, want)


def test_cfi_solves_one_frame_per_call_unless_the_probe_is_coherent(monkeypatch, clear_frames):
    # a polarized probe takes the closed coherent form and solves no frame; a
    # thermal or any other probe solves exactly one real tridiagonal frame
    # (J_x) per call with the frame cache empty, whatever the kind, mode,
    # basis, ancilla, grid size or number of calls, and none once its N is
    # cached
    dim = EnsembleDim(7)
    pure = ancilla_state(1.1, 0.7)
    rng = np.random.default_rng(3)
    vectors, _ = np.linalg.qr(rng.normal(size=(dim.dim, 3)) + 1j * rng.normal(size=(dim.dim, 3)))
    others = [
        thermal_probe(dim, PhaseGenerator(dim, (np.cos(0.4), np.sin(0.4), 0.0)), 1.0),
        SpectralProbe(dim, np.array([0.5, 0.3, 0.2]), vectors),
    ]
    assert [probe.n_terms for probe in others] == [dim.dim, 3]
    for probe in others:
        probe.vectors  # the thermal probe's columns are built on this first read
    solved = []
    eigh_tridiagonal = scipy.linalg.eigh_tridiagonal

    def counted(*args, **kwargs):
        solved.append(len(args[0]))
        return eigh_tridiagonal(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counted)
    for params in (ZZ, STRONG_XZ, ModelParams(3.0, 1.5, 1.0, kind="xz")):
        gen = optimal_generator(params, dim)
        cases = [(polarized_probe(dim, gen), [])] + [(probe, [dim.dim]) for probe in others]
        for (probe, frames), anc in itertools.product(cases, (pure, dephase_ancilla(pure, 0.4))):
            for sched in (Schedule(t1=0.8, t2=1.1, theta=0.3, mode="period"), conjugate_schedule(0.8, 0.3)):
                for basis in ("full_system", "ancilla_only"):
                    clear_frames()
                    for expected in (frames, []):  # the second call finds its N's frame cached
                        solved.clear()
                        cfi(probe, anc, params, sched, generator=gen, basis=basis)
                        assert solved == expected
                    clear_frames()
                    solved.clear()
                    measurement_probs(probe, anc, params, sched, basis=basis, generator=gen)
                    assert solved == frames
                    clear_frames()
                    solved.clear()
                    cfi_grid(probe, anc, params, np.linspace(0.0, 3.0, 40)[:, None], np.linspace(0.0, 2.0, 30),
                             sched.mode, gen, basis=basis)
                    assert solved == frames
            clear_frames()
            solved.clear()
            cfi(probe, anc, params, conjugate_schedule(0.8, 0.3))
            assert solved == frames


def test_a_thermal_probe_with_one_level_reads_out_as_the_coherent_state_along_minus_n(monkeypatch):
    # cold enough to keep one level, a thermal probe is |n; -j>, the coherent
    # state along -n: its readout takes the closed form, solves no column and
    # loads no scipy, and matches the polarized probe along -n
    def forbidden(*args, **kwargs):
        raise AssertionError("the readout solved probe columns")

    monkeypatch.setattr(echometry.spin, "lowest_spin_columns", forbidden)
    monkeypatch.setattr(echometry.states, "lowest_spin_columns", forbidden)
    settings = optimal_settings(ZZ)
    anc, sched = ancilla_state(settings.theta0), conjugate_schedule(settings.t1, 0.0)
    for n in (3, 2000):
        dim = EnsembleDim(n)
        gen = optimal_generator(ZZ, dim)
        cold = thermal_probe(dim, gen, 1e3)
        assert cold.n_terms == 1 and cold.coherent_axis == tuple(-a for a in gen.axis)
        along_minus_n = polarized_probe(dim, PhaseGenerator(dim, cold.coherent_axis))
        value, expected = (cfi(probe, anc, ZZ, sched).value for probe in (cold, along_minus_n))
        assert abs(value - expected) <= 1e-12 * expected
    assert thermal_probe(dim, gen, 1.0).coherent_axis is None
    script = (
        "import sys, echometry as em\n"
        "params = em.ModelParams(3.0, 3.0, 1.0, 'zz')\n"
        "dim = em.EnsembleDim(2000)\n"
        "settings = em.optimal_settings(params)\n"
        "probe = em.thermal_probe(dim, em.optimal_generator(params, dim), 1e3)\n"
        "em.cfi(probe, em.ancilla_state(settings.theta0), params, em.conjugate_schedule(settings.t1, 0.0))\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(echometry.fisher.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "[]"


_AXIS = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(
    lambda a: np.linalg.norm(a) > 1e-3
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 500),
    kind=st.sampled_from(["zz", "xz"]),
    omega_p=st.floats(0.2, 5.0),
    omega_a=st.floats(0.2, 5.0),
    probe_axis=st.one_of(st.none(), st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (-1.0, 0.0, 0.0)]), _AXIS),
    theta0=st.floats(0.0, np.pi),
    phi0=st.floats(0.0, 2 * np.pi),
    x=st.sampled_from([0.0, 0.4, 1.0]),
    t1s=st.lists(st.floats(0.0, 2 * np.pi), min_size=1, max_size=3),
    t2=st.floats(0.0, 2 * np.pi),
    mode=st.sampled_from(["exact_conjugate", "period"]),
    basis=st.sampled_from(["full_system", "ancilla_only"]),
    theta_eval=st.one_of(st.sampled_from([0.0, np.pi]), st.floats(-2 * np.pi, 2 * np.pi)),
)
def test_coherent_readout_matches_the_frame_route(
    n, kind, omega_p, omega_a, probe_axis, theta0, phi0, x, t1s, t2, mode, basis, theta_eval
):
    # the closed form for a polarized probe against the J_x frame route, run
    # on the same vector declared as a general probe (no coherent axis); the
    # probe is polarized along the readout generator (None) or any axis
    params = ModelParams(omega_p, omega_a, 1.0, kind=kind)
    dim = EnsembleDim(n)
    gen = optimal_generator(params, dim)
    coherent = polarized_probe(dim, gen if probe_axis is None else PhaseGenerator(dim, probe_axis))
    framed = SpectralProbe(dim, coherent.weights, coherent.vectors)
    assert coherent.coherent_axis is not None and framed.coherent_axis is None
    anc = dephase_ancilla(ancilla_state(theta0, phi0), x)
    t1s = np.array(t1s)
    t2s = t2 + t1s[::-1]
    fc, reference = (
        cfi_grid(probe, anc, params, t1s, t2s, mode, gen, theta_eval, basis) for probe in (coherent, framed)
    )
    np.testing.assert_allclose(fc, reference, rtol=1e-12, atol=1e-12)
    sched = Schedule(t1=t1s[0], t2=t1s[0] if mode == "exact_conjugate" else t2s[0], theta=theta_eval, mode=mode)
    probs, reference = (
        measurement_probs(probe, anc, params, sched, basis=basis, generator=gen).probabilities
        for probe in (coherent, framed)
    )
    np.testing.assert_allclose(probs, reference, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# declared probes: closed-form moments against their own columns


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 200),
    kind=st.sampled_from(["zz", "xz"]),
    omega_p=st.floats(0.2, 5.0),
    omega_a=st.floats(0.2, 5.0),
    axis=st.one_of(st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (-1.0, 0.0, 0.0)]), _AXIS),
    scale=st.floats(0.1, 1.0),
    beta=st.one_of(st.none(), st.floats(0.1, 5.0)),
    ancillas=st.lists(
        st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi), st.sampled_from([0.0, 0.3, 1.0])),
        min_size=1,
        max_size=2,
    ),
    t1s=st.lists(st.floats(0.0, 2 * np.pi), min_size=1, max_size=3),
)
def test_declared_levels_match_their_own_columns(n, kind, omega_p, omega_a, axis, scale, beta, ancillas, t1s):
    # the closed-form moments of a declared probe (polarized, or thermal when
    # beta is drawn) against the banded products of the same probe rebuilt by
    # hand from its vectors; both poles, pure and dephased ancillas.  The
    # bound is the two-term sum's snap scale: term 1 is at most N^2 for a
    # unit encoding axis
    params = ModelParams(omega_p, omega_a, 1.0, kind=kind)
    dim = EnsembleDim(n)
    unit = np.asarray(axis) / np.linalg.norm(axis)
    if beta is None:
        probe = polarized_probe(dim, PhaseGenerator(dim, scale * unit))
    else:
        probe = thermal_probe(dim, PhaseGenerator(dim, unit), beta)
    by_hand = SpectralProbe(dim, probe.weights, probe.vectors)
    states = [dephase_ancilla(ancilla_state(theta0, phi0), x) for theta0, phi0, x in ancillas]
    declared, banded = (qfi_grid(chosen, states, params, t1s) for chosen in (probe, by_hand))
    np.testing.assert_allclose(declared, banded, rtol=0.0, atol=1e-12 * n * n)


def thermal_qfi_50_digits(params, t1, axis, n, n_terms, beta, theta0, phi0, x):
    """F_Q of a thermal probe on its lowest ``n_terms`` levels, at 50 digits from the same float inputs.

    Independent of the production kernels: the sector axes c_s by Rodrigues'
    formula, the probe frame from an explicit orthonormal triad around the
    axis, the ancilla from mpmath's Hermitian eigensolver, each norm
    ||(c'.J)|m>||^2 summed over the three images of |m>; joint weights at or
    below the spectral cutoff are dropped, as in production.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(50):
        j = mp.mpf(n) / 2

        def cross(u, v):
            return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]

        def dot(u, v):
            return mp.fsum(a * b for a, b in zip(u, v))

        def unit(v):
            length = mp.sqrt(dot(v, v))
            return [a / length for a in v]

        encoding = [mp.mpf(c) for c in encoding_axis(params.kind)]
        frame_z = unit([mp.mpf(c) for c in axis])
        frame_x = unit(cross([mp.mpf(0), mp.mpf(0), mp.mpf(1)] if abs(frame_z[2]) < 0.9 else [mp.mpf(1), 0, 0], frame_z))
        frame_y = cross(frame_z, frame_x)
        primed = []
        for s in (1, -1):
            wp, g = mp.mpf(params.omega_p), mp.mpf(params.g)
            w = [0, 0, wp + s * g] if params.kind == "zz" else [s * g, 0, wp]
            width = mp.sqrt(dot(w, w))
            # U_s^dagger (g.J) U_s with U_s = exp(-i t1 w_s.J): g turned by -|w_s| t1 about w_s
            angle, k = -width * mp.mpf(t1), unit(w)
            kxv = cross(k, encoding)
            c = [e * mp.cos(angle) + a * mp.sin(angle) + b * dot(k, encoding) * (1 - mp.cos(angle))
                 for e, a, b in zip(encoding, kxv, k)]
            primed.append([dot(f, c) for f in (frame_x, frame_y, frame_z)])
        m = [mp.mpf(k) - j for k in range(n_terms)]
        boltzmann = [mp.exp(-mp.mpf(beta) * mk) for mk in m]
        p = [b / mp.fsum(boltzmann) for b in boltzmann]
        half, coherence = mp.mpf(theta0) / 2, 1 - mp.mpf(x)
        ket = [mp.cos(half), mp.expj(-mp.mpf(phi0)) * mp.sin(half)]
        rho = mp.matrix([[ket[a] * mp.conj(ket[b]) * (1 if a == b else coherence) for b in range(2)] for a in range(2)])
        q, alpha = mp.eighe(rho)

        def element(c, mk, ml):  # <mk|c.J|ml>
            if mk == ml:
                return c[2] * ml
            low = min(mk, ml)
            ladder = mp.sqrt(j * (j + 1) - low * (low + 1))
            return (c[0] - 1j * c[1]) / 2 * ladder if mk > ml else (c[0] + 1j * c[1]) / 2 * ladder

        def norm(c, mk):
            return mp.fsum(abs(element(c, ml, mk)) ** 2 for ml in (mk - 1, mk, mk + 1) if -j <= ml <= j)

        pairs = [(k, i) for k in range(n_terms) for i in range(2)]
        weight = {(k, i): p[k] * q[i] if p[k] * q[i] > mp.mpf(EPS_SPECTRUM) else 0 for k, i in pairs}
        term1 = 4 * mp.fsum(
            weight[k, i] * mp.fsum(abs(alpha[s, i]) ** 2 * norm(primed[s], m[k]) for s in range(2)) for k, i in pairs
        )
        term2 = mp.mpf(0)
        for k, i in pairs:
            for l, jj in pairs:
                total = weight[k, i] + weight[l, jj]
                if abs(k - l) <= 1 and total > 0:
                    overlap = mp.fsum(
                        mp.conj(alpha[s, i]) * alpha[s, jj] * element(primed[s], m[k], m[l]) for s in range(2)
                    )
                    term2 += 8 * weight[k, i] * weight[l, jj] / total * abs(overlap) ** 2
        return float(term1 - term2)


@pytest.mark.parametrize(
    "n, params, axis, beta, theta0, phi0, t1",
    [
        (110, ModelParams(1.768503841941842, 0.8525058852832823, 1.0, kind="xz"),
         (-0.17265954179076348, 0.3483733872152454, 0.9213168107164766), 0.3, 1.6343843451745452, 2.409729700376506,
         3.0593217934126593),
        (79, ModelParams(0.7048980002794301, 2.146699417648035, 1.0, kind="xz"),
         (0.4759179874629031, 0.06330905925483664, 0.8772080894665346), 0.3, 0.014789941752561707, 3.730724636456056,
         5.498715734432171),
        (48, ModelParams(2.9502553672264704, 4.673512992679599, 1.0, kind="zz"),
         (-0.59204734471493, -0.7138482676769686, -0.3740328760290889), 0.3, 3.1150476858680856, 1.3321938145922592,
         4.6379406293360805),
        (191, ModelParams(0.43299289211108327, 2.1163847335389905, 1.0, kind="zz"),
         (-0.6360592574225753, -0.7446312065402132, 0.20236844441144583), 1.0, 2.9594569946243072, 0.749747370776659,
         5.664147432075226),
        (200, ModelParams(1.0, 1.0, 1.0, kind="xz"), (1.0, 0.0, 0.0), 3.0, 1.2, 0.4, 0.7),
    ],
)
def test_declared_thermal_qfi_against_50_digits(n, params, axis, beta, theta0, phi0, t1):
    # thermal probes with a dephased ancilla, where F_Q of a few is what is left
    # of terms of order N^2: the closed-form moments stay within about 1e-12
    dim = EnsembleDim(n)
    probe = thermal_probe(dim, PhaseGenerator(dim, axis), beta)
    anc = dephase_ancilla(ancilla_state(theta0, phi0), 0.3)
    value = qfi_grid(probe, [anc], params, [t1])[0, 0]
    oracle = thermal_qfi_50_digits(params, t1, axis, n, probe.n_terms, beta, theta0, phi0, 0.3)
    assert abs(value - oracle) <= 2e-12 * max(1.0, abs(oracle))


@pytest.mark.parametrize("params", [ZZ, STRONG_XZ], ids=["zz", "strong-xz"])
def test_declared_probes_at_a_million_spins(params):
    # F_Q = N^2 for the polarized probe and qfi_thermal's exact sum for the
    # thermal one, from closed-form moments with no probe column
    dim = EnsembleDim(10**6)
    settings = optimal_settings(params)
    gen = optimal_generator(params, dim)
    anc, sched = ancilla_state(settings.theta0), conjugate_schedule(settings.t1, 0.2)
    polarized = qfi_general(polarized_probe(dim, gen), anc, params, sched).value
    assert abs(polarized / dim.n_spins**2 - 1.0) <= 1e-13
    thermal = qfi_general(thermal_probe(dim, gen, 1.0), anc, params, sched).value
    exact, _ = qfi_thermal(dim, 1.0)
    assert abs(thermal / exact.value - 1.0) <= 1e-13


def test_declared_thermal_qfi_solves_no_column(monkeypatch):
    # the thermal probe's F_Q reads its declared levels, never its vectors
    def forbidden(*args, **kwargs):
        raise AssertionError("a declared probe's F_Q solved probe columns")

    monkeypatch.setattr(echometry.states, "lowest_spin_columns", forbidden)
    dim = EnsembleDim(10**5)
    settings = optimal_settings(ZZ)
    probe = thermal_probe(dim, optimal_generator(ZZ, dim), 1.0)
    for anc in (ancilla_state(settings.theta0), dephase_ancilla(ancilla_state(1.1, 0.7), 0.3)):
        assert qfi_general(probe, anc, ZZ, conjugate_schedule(settings.t1, 0.2)).value > 0.0
    assert "vectors" not in vars(probe)


def test_qfi_grid_reads_its_ancillas_once():
    # any iterable of ancillas, a generator included, is read in one pass
    dim, _, probe, anc, _ = optimal_setup(6)
    ancillas = [anc, dephase_ancilla(anc, 0.4), ancilla_state(0.7)]
    for chosen in (probe, SpectralProbe(dim, probe.weights, probe.vectors)):
        expected = qfi_grid(chosen, ancillas, ZZ, [0.3, 0.9])
        assert expected.shape == (3, 2)
        np.testing.assert_array_equal(qfi_grid(chosen, (a for a in ancillas), ZZ, [0.3, 0.9]), expected)


@pytest.mark.parametrize("n", [10**4, 10**5, 10**6])
@pytest.mark.parametrize("params", [ZZ, STRONG_XZ, UNIT_XZ], ids=["zz", "strong-xz", "unit-xz"])
def test_cfi_is_heisenberg_at_scale(params, n):
    # F_c = F_Q = N^2 at the optimum with the polarized probe up to a million
    # spins, readout nodes (theta_eval = 0, pi) included: at theta_eval = pi
    # the information sits on a row with p ~ 1e-22 and |dp| ~ 1e-6 at N = 10^5
    dim = EnsembleDim(n)
    gen = optimal_generator(params, dim)
    probe = polarized_probe(dim, gen)
    settings = optimal_settings(params)
    anc = ancilla_state(settings.theta0)
    sched = conjugate_schedule(settings.t1, 0.0)
    for theta_eval in (0.0, 0.3, np.pi):
        value = cfi(probe, anc, params, sched, generator=gen, theta_eval=theta_eval).value
        assert abs(value / n**2 - 1.0) <= 1e-12, theta_eval


@pytest.mark.parametrize("params", [ZZ, UNIT_XZ, STRONG_XZ], ids=["zz", "unit-xz", "strong-xz"])
def test_cfi_saturates_at_large_n(params):
    # F_c = F_Q = N^2 at the optimum with the polarized probe at N = 2000, and
    # F_c <= F_Q off it
    n = 2000
    dim = EnsembleDim(n)
    gen = optimal_generator(params, dim)
    probe = polarized_probe(dim, gen)
    settings = optimal_settings(params)
    anc = ancilla_state(settings.theta0)
    value = cfi(probe, anc, params, conjugate_schedule(settings.t1, 0.0), generator=gen, theta_eval=0.3).value
    assert abs(value / n**2 - 1.0) <= 1e-12
    if params.kind == "zz":
        detuned = conjugate_schedule(0.7 * settings.t1, 0.0)
        classical = cfi(probe, anc, params, detuned, generator=gen, theta_eval=0.3).value
        quantum = qfi_general(probe, anc, params, detuned).value
        assert classical <= quantum * (1.0 + 1e-12)
        assert classical < 0.99 * quantum


@pytest.mark.parametrize("n", [500, 10**5])
@pytest.mark.parametrize("params, axis", [(ZZ, (1.0, 0.0, 0.0)), (UNIT_XZ, (0.0, 0.0, 1.0))], ids=["zz", "xz"])
def test_cfi_of_an_eigenstate_of_the_encoding_is_zero(params, axis, n):
    # with t1 = 0 a probe polarized along the encoding axis only picks up a
    # global phase, so F_c = F_Q = 0; its tail rows have p far below EPS_PROB
    # but d a = -i j a, and are no readout nodes (the node limit there
    # would give F_c = 0.96 at N = 10^5 for XZ)
    dim = EnsembleDim(n)
    gen = optimal_generator(params, dim)
    probe = polarized_probe(dim, PhaseGenerator(dim, axis))
    sched = conjugate_schedule(0.0, 0.0)
    for theta0 in (0.0, np.pi / 2):
        anc = ancilla_state(theta0)
        assert qfi_general(probe, anc, params, sched).value == 0.0
        assert cfi(probe, anc, params, sched, generator=gen, theta_eval=0.3).value <= 1e-15 * n**2


def run_at_blas_threads(script):
    """The stdout of a Python script run at 1 and at 2 OpenBLAS threads."""
    src = str(Path(echometry.fisher.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True, timeout=300
        )
        outputs.append(proc.stdout)
    return outputs


def test_rank_one_cfi_independent_of_blas_threads():
    # a polarized probe's readout is a closed form with no BLAS product, and
    # the J_x frame products that the same vector takes as a general probe
    # (at every third size) are real GEMMs that sum in a fixed order, so a
    # rank-1 probe's F_c agrees to the last bit between 1 and 2 OpenBLAS
    # threads on either route
    script = (
        "import echometry as em\n"
        "cases = [em.ModelParams(3.0, 3.0, 1.0, kind='zz')]\n"
        "cases += [em.ModelParams(1 / r, 1 / r, 1.0, kind='xz') for r in (1.0, 0.3, 0.1)]\n"
        "for params in cases:\n"
        "    t1 = em.optimal_settings(params).t1\n"
        "    scheds = [em.conjugate_schedule(t1, 0.0), em.Schedule(0.8 * t1, 1.3 * t1, 0.0, 'period')]\n"
        "    for n in range(60, 297, 16):\n"
        "        dim = em.EnsembleDim(n)\n"
        "        gen = em.optimal_generator(params, dim)\n"
        "        coherent = em.polarized_probe(dim, gen)\n"
        "        framed = [em.SpectralProbe(dim, coherent.weights, coherent.vectors)] if n % 48 == 12 else []\n"
        "        for probe in [coherent, *framed]:\n"
        "            for sched in scheds:\n"
        "                for basis in ('full_system', 'ancilla_only'):\n"
        "                    anc = em.ancilla_state(1.5707963267948966)\n"
        "                    print(repr(em.cfi(probe, anc, params, sched, gen, 0.3, basis).value))\n"
    )
    outputs = run_at_blas_threads(script)
    assert len(outputs[0].split()) == 4 * (15 + 5) * 2 * 2
    assert outputs[0] == outputs[1]


def test_rank_one_qfi_independent_of_blas_threads():
    # a rank-1 probe goes through no threaded BLAS call, so the values agree to
    # the last bit between 1 and 2 OpenBLAS threads (XZ, three coupling ratios)
    script = (
        "import echometry as em\n"
        "for ratio in (1.0, 0.3, 0.1):\n"
        "    params = em.ModelParams(omega_p=1 / ratio, omega_a=1 / ratio, g=1.0, kind='xz')\n"
        "    sched = em.conjugate_schedule(em.optimal_settings(params).t1, 0.0)\n"
        "    for n in range(60, 297, 8):\n"
        "        dim = em.EnsembleDim(n)\n"
        "        probe = em.polarized_probe(dim, em.optimal_generator(params, dim))\n"
        "        print(repr(em.qfi_general(probe, em.ancilla_state(1.5707963267948966), params, sched).value))\n"
    )
    outputs = run_at_blas_threads(script)
    assert len(outputs[0].split()) == 3 * 30
    assert outputs[0] == outputs[1]


def test_production_paths_build_no_joint_matrix(monkeypatch):
    # production works on the two (N+1)-dim ancilla-sector blocks; only the
    # dense reference path may embed operators on the 2(N+1) joint space
    dim = EnsembleDim(6)
    sched = Schedule(t1=0.8, t2=1.1, theta=0.3, mode="period")
    pure = ancilla_state(1.1, 0.7)

    def outputs():
        for params in (ZZ, ModelParams(omega_p=1.0, omega_a=1.5, g=1.0, kind="xz")):
            gen = optimal_generator(params, dim)
            probe = thermal_probe(dim, gen, 0.7)
            for anc in (pure, dephase_ancilla(pure, 0.3)):
                yield qfi_general(probe, anc, params, sched).value
            for basis in ("full_system", "ancilla_only"):
                yield cfi(probe, pure, params, sched, generator=gen, basis=basis).value
                yield measurement_probs(probe, pure, params, sched, basis=basis, generator=gen).probabilities

    reference = list(outputs())

    def forbidden(*args, **kwargs):
        raise AssertionError("a production path built a 2(N+1) joint matrix")

    for name in ("joint_embed", "hamiltonian"):
        monkeypatch.setattr(echometry.reference, name, forbidden, raising=True)
    monkeypatch.setattr(np, "kron", forbidden)
    patched = list(outputs())
    assert len(patched) == len(reference) == 12
    for got, want in zip(patched, reference):
        np.testing.assert_array_equal(got, want)


def test_production_paths_run_no_dense_eigensolver(monkeypatch):
    # every production spectrum comes from spin_frame (one real tridiagonal
    # eigensolve) or a closed form, the propagator included; a dense eigh may
    # touch only the 2x2 dephased-ancilla density matrix
    dim = EnsembleDim(6)
    sched = Schedule(t1=0.8, t2=1.1, theta=0.3, mode="period")
    pure = ancilla_state(1.1, 0.7)
    strong = ModelParams(omega_p=1.0, omega_a=np.sqrt(2.0), g=1.0, kind="xz")
    cases = (  # (params, params of the period solve)
        (ZZ, ZZ),
        # omega_a = omega_tilde: a unit generator and an analytic XZ period
        (strong, strong),
        # weak coupling gives |n| < 1 (no thermal probe); with g = 0 the ZZ period comes from the scan
        (ModelParams(omega_p=3.0, omega_a=1.5, g=1.0, kind="xz"), ModelParams(1.0, 1.0, 0.0, kind="zz")),
    )

    def outputs():
        for params, period_params in cases:
            gen = optimal_generator(params, dim)
            yield gen.axis
            probes = [polarized_probe(dim, gen), ghz_probe(dim, gen)]
            if abs(np.linalg.norm(gen.axis) - 1.0) <= 1e-12:
                probes.append(thermal_probe(dim, gen, 0.7))
            for probe in probes:
                yield probe.weights
                yield probe.vectors
            probe = probes[-1]
            yield echometry.circuit.propagator(params, 0.8)
            yield echometry.circuit.normalized_trace(params, dim, np.linspace(0.0, 5.0, 7))
            solution = echometry.circuit.reversal_period(period_params, dim, t_max=8.0)
            yield solution.period, solution.residual, solution.integers
            for anc in (pure, dephase_ancilla(pure, 0.3)):
                yield qfi_general(probe, anc, params, sched).value
            for basis in ("full_system", "ancilla_only"):
                yield cfi(probe, pure, params, sched, generator=gen, basis=basis).value
                yield measurement_probs(probe, pure, params, sched, basis=basis, generator=gen).probabilities
            yield cfi(probe, pure, params, sched).value

    reference = list(outputs())

    def forbidden(*args, **kwargs):
        raise AssertionError("a production path ran a dense eigensolver")

    dense_eigh = np.linalg.eigh

    def small_eigh(a, *args, **kwargs):
        if np.shape(a)[-1] > 2:
            forbidden()
        return dense_eigh(a, *args, **kwargs)

    monkeypatch.setattr(echometry.reference, "unitary_of_hermitian", forbidden, raising=True)
    monkeypatch.setattr(np.linalg, "eigh", small_eigh)
    patched = list(outputs())
    assert len(patched) == len(reference) == 49
    for got, want in zip(patched, reference):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("mode", ["exact_conjugate", "period"])
def test_grid_kernels_on_empty_step_times(mode):
    # an empty time axis gives an empty result of the grid's shape
    dim = EnsembleDim(3)
    gen = optimal_generator(ZZ, dim)
    probe = polarized_probe(dim, gen)
    ancillas = [ancilla_state(1.1), dephase_ancilla(ancilla_state(0.4), 0.3)]
    assert qfi_grid(probe, ancillas, ZZ, np.array([])).shape == (2, 0)
    for basis in ("full_system", "ancilla_only"):
        fc = cfi_grid(probe, ancillas[0], ZZ, np.empty((3, 0)), np.empty(0), mode, gen, basis=basis)
        assert fc.shape == (3, 0)
