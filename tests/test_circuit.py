import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echometry.circuit import (
    ModelParams,
    PeriodNotFound,
    Schedule,
    _scan_period,
    apply_encoding_generator,
    bch_coefficients,
    circuit_unitary,
    closed_form_unitary,
    conjugate_schedule,
    encoder,
    encoding_generator,
    global_phase_distance,
    hamiltonian,
    normalized_trace,
    optimal_generator,
    optimal_settings,
    period_schedule,
    propagator,
    reversal_period,
)
from echometry.spin import ContractViolation, EnsembleDim, PAULI_Z, joint_embed, unitary_of_hermitian

ZZ = ModelParams(omega_p=3.0, omega_a=3.0, g=1.0, kind="zz")


def joint_from_sectors(blocks):
    """The 2(N+1) joint matrix, basis (m, {e, g}), of a stack of ancilla-sector blocks."""
    return sum(joint_embed(block, np.diag(sector)) for block, sector in zip(blocks, np.eye(2)))


def random_params(rng, kind):
    return ModelParams(
        omega_p=float(rng.uniform(0.2, 5.0)),
        omega_a=float(rng.uniform(0.2, 5.0)),
        g=float(rng.uniform(0.2, 3.0)),
        kind=kind,
    )


def test_model_params_validation():
    with pytest.raises(ContractViolation):
        ModelParams(1.0, 1.0, -0.5)
    with pytest.raises(ContractViolation):
        ModelParams(1.0, 1.0, 1.0, kind="yy")
    assert ModelParams(3.0, 1.0, 4.0, kind="xz").omega_tilde == 5.0


def test_schedule_validation():
    with pytest.raises(ContractViolation):
        Schedule(t1=-1.0, t2=0.0, theta=0.0)
    with pytest.raises(ContractViolation):
        Schedule(t1=0.0, t2=0.0, theta=0.0, mode="reverse")
    sched = period_schedule(t1=1.0, theta=0.3, period=4.0)
    assert sched.t2 == 3.0 and sched.mode == "period"


def test_zz_hamiltonian_single_spin_diagonal():
    h = hamiltonian(ZZ, EnsembleDim(1))
    wp, wa, g = ZZ.omega_p, ZZ.omega_a, ZZ.g
    # basis (m, {e,g}) with m ascending: (-1/2,e), (-1/2,g), (+1/2,e), (+1/2,g)
    expected = [-wp / 2 + wa - g / 2, -wp / 2 - wa + g / 2, wp / 2 + wa + g / 2, wp / 2 - wa - g / 2]
    np.testing.assert_allclose(np.diag(h), expected, atol=1e-15)
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0


def test_hamiltonian_is_exactly_hermitian():
    for kind in ("zz", "xz"):
        h = hamiltonian(ModelParams(2.3, 1.7, 0.9, kind=kind), EnsembleDim(3))
        assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_xz_hamiltonian_spectrum():
    params = ModelParams(omega_p=2.0, omega_a=1.3, g=1.1, kind="xz")
    dim = EnsembleDim(2)
    wt = params.omega_tilde
    expected = sorted(m * wt + s * params.omega_a for m in (-1, 0, 1) for s in (-1, 1))
    np.testing.assert_allclose(np.linalg.eigvalsh(hamiltonian(params, dim)), expected, atol=1e-10)


def test_propagator_identity_and_inverse():
    dim = EnsembleDim(3)
    np.testing.assert_allclose(propagator(ZZ, dim, 0.0), [np.eye(4)] * 2, atol=1e-14)
    u = propagator(ZZ, dim, 0.83)
    assert u.shape == (2, 4, 4)
    np.testing.assert_allclose(u @ propagator(ZZ, dim, -0.83), [np.eye(4)] * 2, atol=1e-10)


def test_zz_propagator_is_diagonal():
    u = propagator(ZZ, EnsembleDim(2), 1.37)
    assert np.max(np.abs(u - u * np.eye(3))) <= 1e-14


sector_cases = dict(
    n=st.integers(1, 30),
    kind=st.sampled_from(["zz", "xz"]),
    omega_p=st.floats(-5.0, 5.0),
    omega_a=st.floats(-5.0, 5.0),
    g=st.floats(0.0, 3.0),
    t=st.floats(-10.0, 10.0),
)


@settings(max_examples=80, deadline=None)
@given(**sector_cases)
def test_sector_propagator_matches_dense_reference(n, kind, omega_p, omega_a, g, t):
    # the per-sector assembly against exp(-i H t) of the dense 2(N+1) Hamiltonian
    params = ModelParams(omega_p, omega_a, g, kind=kind)
    dim = EnsembleDim(n)
    dense = unitary_of_hermitian(hamiltonian(params, dim), t)
    sectors = joint_from_sectors(propagator(params, dim, t))
    assert np.max(np.abs(sectors - dense)) <= 1e-12 * max(1.0, n * abs(t))


@pytest.mark.parametrize("kind", ["zz", "xz"])
def test_propagator_on_an_array_stacks_the_scalar_calls(kind):
    params = ModelParams(omega_p=1.3, omega_a=0.7, g=1.1, kind=kind)
    dim = EnsembleDim(7)
    ts = np.array([0.0, 0.4, 2.5, 11.0, -0.3])
    stacked = propagator(params, dim, ts)
    assert stacked.shape == (ts.size, 2, dim.dim, dim.dim)
    for block, t in zip(stacked, ts):
        np.testing.assert_array_equal(block, propagator(params, dim, t))
    assert propagator(params, dim, ts[:0]).shape == (0, 2, dim.dim, dim.dim)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_propagator_rejects_non_finite_times(bad):
    dim = EnsembleDim(3)
    for t in (bad, np.array([0.1, bad, 0.2])):
        with pytest.raises(ContractViolation):
            propagator(ZZ, dim, t)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), kind=st.sampled_from(["zz", "xz"]), seed=st.integers(0, 2**32 - 1))
def test_banded_encoding_generator_matches_dense(n, kind, seed):
    params = ModelParams(omega_p=3.0, omega_a=3.0, g=1.0, kind=kind)
    dim = EnsembleDim(n)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 2, dim.dim, 2)) + 1j * rng.normal(size=(3, 2, dim.dim, 2))
    dense = encoding_generator(params, dim) @ x
    banded = apply_encoding_generator(params, dim, x)
    assert np.max(np.abs(banded - dense)) <= 1e-15 * n * np.max(np.abs(x))


@settings(max_examples=80, deadline=None)
@given(**sector_cases)
def test_normalized_trace_matches_dense_spectrum(n, kind, omega_p, omega_a, g, t):
    params = ModelParams(omega_p, omega_a, g, kind=kind)
    dim = EnsembleDim(n)
    vals = np.linalg.eigvalsh(hamiltonian(params, dim))
    dense = abs(np.exp(-1j * vals * abs(t)).sum()) / (2 * dim.dim)
    assert abs(normalized_trace(params, dim, abs(t)) - dense) <= 1e-12 * max(1.0, n * abs(t))


def test_encoder_identity_and_rz():
    dim = EnsembleDim(2)
    np.testing.assert_allclose(encoder("zz", 0.0, dim), np.eye(3), atol=1e-14)
    theta = 0.71
    rz = encoder("xz", theta, dim)
    expected = np.diag([np.exp(1j * theta), 1.0, np.exp(-1j * theta)])
    np.testing.assert_allclose(rz, expected, atol=1e-12)


def test_encoder_full_turn_sign():
    # 2*pi rotation is +1 for integer j and -1 for half-integer j
    np.testing.assert_allclose(encoder("zz", 2 * np.pi, EnsembleDim(2)), np.eye(3), atol=1e-10)
    np.testing.assert_allclose(encoder("zz", 2 * np.pi, EnsembleDim(3)), -np.eye(4), atol=1e-10)


def test_encoder_additivity():
    dim = EnsembleDim(4)
    lhs = encoder("zz", 0.31, dim) @ encoder("zz", 1.18, dim)
    np.testing.assert_allclose(lhs, encoder("zz", 0.31 + 1.18, dim), atol=1e-12)


def check_encoder(n, kind, theta):
    dim = EnsembleDim(n)
    dense = unitary_of_hermitian(encoding_generator(ModelParams(1.0, 1.0, kind=kind), dim), theta)
    assert np.max(np.abs(encoder(kind, theta, dim) - dense)) <= 1e-12 * max(1.0, n * abs(theta))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 60), kind=st.sampled_from(["zz", "xz"]), theta=st.floats(-20.0, 20.0))
def test_encoder_matches_dense_rotation(n, kind, theta):
    check_encoder(n, kind, theta)


@pytest.mark.parametrize("kind", ["zz", "xz"])
def test_encoder_matches_dense_rotation_large_probe(kind):
    for theta in (0.2, -1.3, 7.9):
        check_encoder(300, kind, theta)


def test_circuit_identity_at_zero_phase_conjugate():
    dim = EnsembleDim(4)
    sched = conjugate_schedule(t1=0.9, theta=0.0)
    np.testing.assert_allclose(circuit_unitary(ZZ, dim, sched), np.eye(10), atol=1e-10)


def test_circuit_identity_at_zero_phase_period():
    dim = EnsembleDim(4)
    period = reversal_period(ZZ, dim, 10.0).period
    sched = period_schedule(t1=0.6, theta=0.0, period=period)
    u = circuit_unitary(ZZ, dim, sched)
    assert global_phase_distance(u, np.eye(10)) <= 1e-9


def test_circuit_odd_half_turn_gives_ancilla_flip():
    # N and gT/pi both odd: the full-period evolution is I (x) sigma_z up to
    # a global phase, which breaks the reversal
    dim = EnsembleDim(5)
    sched = Schedule(t1=np.pi / 2, t2=np.pi / 2, theta=0.0, mode="period")
    u = circuit_unitary(ZZ, dim, sched)
    assert global_phase_distance(u, joint_embed(np.eye(6), PAULI_Z)) <= 1e-9


def test_normalized_trace_reference_points():
    assert abs(normalized_trace(ZZ, EnsembleDim(4), np.pi) - 1.0) <= 1e-10
    assert abs(normalized_trace(ZZ, EnsembleDim(11), 2 * np.pi) - 1.0) <= 1e-10
    assert abs(normalized_trace(ZZ, EnsembleDim(5), np.pi)) <= 1e-10


def test_normalized_trace_is_one_at_zero_and_bounded():
    dim = EnsembleDim(6)
    assert normalized_trace(ZZ, dim, 0.0) == 1.0
    ts = np.linspace(0.0, 12.0, 400)
    f = normalized_trace(ZZ, dim, ts)
    assert np.all(np.isfinite(f)) and np.all(f >= 0.0) and np.all(f <= 1.0 + 1e-12)


@pytest.mark.parametrize("t", [np.inf, np.nan, np.array([1.0, np.inf]), -1.0])
def test_normalized_trace_rejects_bad_times(t):
    with pytest.raises(ContractViolation, match="finite and nonnegative"):
        normalized_trace(ZZ, EnsembleDim(3), t)


def test_reversal_period_even_probe():
    sol = reversal_period(ZZ, EnsembleDim(4), 10.0)
    assert abs(sol.period - np.pi) <= 1e-12
    assert sol.integers == {"n1": 1, "n2": 1, "n3": 3}
    assert sol.residual < 1e-9


def test_reversal_period_odd_probe():
    sol = reversal_period(ZZ, EnsembleDim(11), 10.0)
    assert abs(sol.period - 2 * np.pi) <= 1e-12
    assert sol.integers == {"n1": 2, "n2": 2, "n4": 5}


def test_reversal_period_xz():
    params = ModelParams(omega_p=1.0, omega_a=1.0, g=np.sqrt(3.0), kind="xz")
    sol = reversal_period(params, EnsembleDim(3), 10.0)
    assert abs(sol.period - np.pi) <= 1e-9
    assert sol.integers == {"n5": 1, "n6": 1}
    assert abs(normalized_trace(params, EnsembleDim(3), sol.period) - 1.0) <= 1e-9


def test_reversal_period_scan_agrees_with_analytic():
    t_scan = _scan_period(ZZ, EnsembleDim(4), 4.0)
    assert t_scan is not None and abs(t_scan - np.pi) <= 1e-9


def test_reversal_period_not_found_for_incommensurable_rates():
    # omega_tilde/omega_a = sqrt(10)/3 is irrational, so the XZ model with
    # the default rates has no exact reversal period
    params = ModelParams(omega_p=3.0, omega_a=3.0, g=1.0, kind="xz")
    with pytest.raises(PeriodNotFound):
        reversal_period(params, EnsembleDim(2), 8.0)


@pytest.mark.parametrize("kind", ["zz", "xz"])
def test_closed_form_matches_direct_product(kind):
    rng = np.random.default_rng(42)
    for _ in range(25):
        params = random_params(rng, kind)
        dim = EnsembleDim(int(rng.integers(1, 9)))
        sched = conjugate_schedule(t1=float(rng.uniform(0.0, 2 * np.pi)), theta=float(rng.uniform(-np.pi, np.pi)))
        direct = circuit_unitary(params, dim, sched)
        closed = closed_form_unitary(params, dim, sched)
        assert global_phase_distance(direct, closed) <= 1e-10


def test_closed_form_identity_at_zero_phase():
    dim = EnsembleDim(3)
    sched = conjugate_schedule(t1=1.2, theta=0.0)
    np.testing.assert_allclose(closed_form_unitary(ZZ, dim, sched), np.eye(8), atol=1e-12)


def test_closed_form_at_optimum_is_generator_rotation():
    dim = EnsembleDim(4)
    settings = optimal_settings(ZZ)
    theta = 0.37
    closed = closed_form_unitary(ZZ, dim, conjugate_schedule(settings.t1, theta))
    gen = optimal_generator(ZZ, dim)
    from echometry.spin import unitary_of_hermitian

    expected = unitary_of_hermitian(-joint_embed(gen.matrix, PAULI_Z), theta)
    assert global_phase_distance(closed, expected) <= 1e-10


def test_closed_form_rejects_unverified_period():
    dim = EnsembleDim(4)
    sched = Schedule(t1=0.4, t2=0.5, theta=0.1, mode="period")
    with pytest.raises(ContractViolation):
        closed_form_unitary(ZZ, dim, sched)


def test_bch_coefficients_reference_points():
    params = ModelParams(omega_p=2.0, omega_a=1.0, g=2.0, kind="xz")
    np.testing.assert_allclose(bch_coefficients(params, 0.0), (0.0, 0.0, -1.0), atol=1e-15)
    np.testing.assert_allclose(
        bch_coefficients(params, np.pi / params.omega_tilde), (-1.0, 0.0, 0.0), atol=1e-12
    )
    with pytest.raises(ContractViolation):
        bch_coefficients(ZZ, 0.5)


def test_bch_coefficients_unit_norm():
    rng = np.random.default_rng(7)
    for _ in range(200):
        params = random_params(rng, "xz")
        cx, cy, cz = bch_coefficients(params, float(rng.uniform(0.0, 10.0)))
        assert abs(cx * cx + cy * cy + cz * cz - 1.0) <= 1e-12


def test_optimal_settings_zz():
    settings = optimal_settings(ZZ)
    assert settings.status == "optimal"
    assert settings.theta0 == np.pi / 2
    assert abs(settings.t1 - np.pi / 2) <= 1e-15


def test_optimal_settings_xz_strong_coupling():
    params = ModelParams(omega_p=1.0, omega_a=1.0, g=1.0, kind="xz")
    settings = optimal_settings(params)
    assert settings.status == "optimal"
    assert abs(settings.t1 * params.g - np.pi / np.sqrt(2.0)) <= 1e-12


def test_optimal_settings_xz_weak_coupling():
    params = ModelParams(omega_p=10.0, omega_a=10.0, g=1.0, kind="xz")
    settings = optimal_settings(params)
    assert settings.status == "sub_optimal"
    assert abs(settings.t1 * params.g - np.pi / np.sqrt(101.0)) <= 1e-12


def test_optimal_settings_cancel_information_leakage():
    # at the optimum the ancilla-sector projection of the conjugated encoding
    # generator vanishes identically, independent of the probe matrix element
    from echometry.circuit import encoding_generator
    from echometry.states import ancilla_state

    dim = EnsembleDim(6)
    settings = optimal_settings(ZZ)
    u1 = propagator(ZZ, dim, settings.t1)
    h_eff = u1.conj().transpose(0, 2, 1) @ encoding_generator(ZZ, dim) @ u1
    ket = ancilla_state(settings.theta0).ket
    sector = np.einsum("a,aij,a->ij", ket.conj(), h_eff, ket)
    assert np.max(np.abs(sector)) <= 1e-10


def test_global_phase_distance_ignores_phase():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert global_phase_distance(a, np.exp(1j * 0.83) * a) <= 1e-13
    assert global_phase_distance(a, 2.0 * a) > 0.1
