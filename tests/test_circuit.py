import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from echometry.circuit import (
    PERIOD_RESIDUAL_TOL,
    ModelParams,
    PeriodNotFound,
    Schedule,
    apply_spin_axis,
    apply_su2,
    axis_rotation,
    conjugate_schedule,
    encoding_axis,
    normalized_trace,
    optimal_generator,
    optimal_settings,
    period_schedule,
    propagator,
    reversal_period,
    sector_phases,
    su2_compose,
    su2_inverse,
    su2_rotate,
    su2_rotation,
)
from echometry.spin import (
    ContractViolation,
    EnsembleDim,
    spin_frame,
)
from echometry.reference import (
    ID2,
    PAULI_Z,
    bch_coefficients,
    circuit_unitary,
    closed_form_generator,
    closed_form_unitary,
    collective_ops,
    encoding_generator,
    global_phase_distance,
    hamiltonian,
    joint_embed,
    spin_matrix,
    unitary_of_hermitian,
)
from conftest import run_python

ZZ = ModelParams(omega_p=3.0, omega_a=3.0, g=1.0, kind="zz")


def joint_from_sectors(blocks):
    """The 2(N+1) joint matrix, basis (m, {e, g}), of a stack of ancilla-sector blocks."""
    return sum(joint_embed(block, np.diag(sector)) for block, sector in zip(blocks, np.eye(2)))


def sector_blocks(params, t):
    """exp(-i H t) at N = 1 as its two 2x2 ancilla-sector blocks, from the pairs and the sector phases."""
    a, b = propagator(params, t)
    u = np.stack([np.stack([a, b], axis=-1), np.stack([-b.conj(), a.conj()], axis=-1)], axis=-2)
    return sector_phases(params, np.asarray(t, dtype=float))[..., None, None] * u


def effective_axes(params, t):
    """Axes c_s of U_s(t)^dagger (g.J) U_s(t) = c_s.J, shape t.shape + (2, 3)."""
    return su2_rotate(su2_inverse(propagator(params, t)), encoding_axis(params.kind))


def wigner_matrix(dim, pair):
    """The (N+1)-dim matrix D^j(U) of a Cayley-Klein pair, column by column through apply_su2."""
    return apply_su2(dim, spin_frame(dim, (1.0, 0.0, 0.0))[1], pair, np.eye(dim.dim, dtype=complex))


def dense_rotation(dim, axis, angle):
    """exp(-i angle n.J) from the dense spin matrices."""
    return expm(-1j * angle * np.einsum("i,iab->ab", axis, np.stack(collective_ops(dim))))


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
    with pytest.raises(ContractViolation):
        Schedule(t1=np.nan, t2=0.0, theta=0.0)
    with pytest.raises(ContractViolation):
        conjugate_schedule(np.inf, 0.0)
    with pytest.raises(ContractViolation):
        period_schedule(1.0, 0.0, period=np.nan)
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
    np.testing.assert_allclose(sector_blocks(ZZ, 0.0), [np.eye(2)] * 2, atol=1e-15)
    u = sector_blocks(ZZ, 0.83)
    assert u.shape == (2, 2, 2)
    np.testing.assert_allclose(u @ sector_blocks(ZZ, -0.83), [np.eye(2)] * 2, atol=1e-15)


def test_zz_propagator_is_diagonal():
    a, b = propagator(ZZ, 1.37)
    assert a.shape == b.shape == (2,)
    assert np.max(np.abs(b)) == 0.0


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
    # the sector pairs with their phases are exp(-i H t) at N = 1, and at any N
    # the sector blocks e^{-i s omega_a t} D^j(u_s(t)) assemble the dense exp(-i H t)
    params = ModelParams(omega_p, omega_a, g, kind=kind)
    half = unitary_of_hermitian(hamiltonian(params, EnsembleDim(1)), t)
    assert np.max(np.abs(joint_from_sectors(sector_blocks(params, t)) - half)) <= 1e-13 * max(1.0, abs(t))
    dim = EnsembleDim(n)
    a, b = propagator(params, t)
    phases = sector_phases(params, t)
    blocks = [phase * wigner_matrix(dim, (a[s], b[s])) for s, phase in enumerate(phases)]
    dense = unitary_of_hermitian(hamiltonian(params, dim), t)
    assert np.max(np.abs(joint_from_sectors(blocks) - dense)) <= 1e-12 * max(1.0, n * abs(t))


@pytest.mark.parametrize("kind", ["zz", "xz"])
def test_propagator_on_an_array_stacks_the_scalar_calls(kind):
    params = ModelParams(omega_p=1.3, omega_a=0.7, g=1.1, kind=kind)
    ts = np.array([0.0, 0.4, 2.5, 11.0, -0.3])
    a, b = propagator(params, ts)
    assert a.shape == b.shape == (ts.size, 2)
    for i, t in enumerate(ts):
        np.testing.assert_array_equal((a[i], b[i]), propagator(params, t))
    assert all(c.shape == (0, 2) for c in propagator(params, ts[:0]))
    assert all(c.shape == (5, 1, 2) for c in propagator(params, ts.reshape(5, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_propagator_rejects_non_finite_times(bad):
    for t in (bad, np.array([0.1, bad, 0.2])):
        with pytest.raises(ContractViolation):
            propagator(ZZ, t)


unit_axes = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 30),
    axis=unit_axes,
    angle=st.floats(-20.0, 20.0),
    axis2=unit_axes,
    angle2=st.floats(-20.0, 20.0),
)
def test_apply_su2_matches_dense_rotation(n, axis, angle, axis2, angle2):
    # D^j of a pair through the one J_x frame against expm of the dense n.J,
    # for one element, a composition of two, and an inverse
    dim = EnsembleDim(n)
    tol = 1e-12 * max(1.0, n * (abs(angle) + abs(angle2)))
    first, second = su2_rotation(axis, angle), su2_rotation(axis2, angle2)
    dense = dense_rotation(dim, axis, angle)
    assert np.max(np.abs(wigner_matrix(dim, first) - dense)) <= tol
    composed = dense_rotation(dim, axis2, angle2) @ dense
    assert np.max(np.abs(wigner_matrix(dim, su2_compose(second, first)) - composed)) <= tol
    assert np.max(np.abs(wigner_matrix(dim, su2_inverse(first)) - dense.conj().T)) <= tol
    # the SO(3) image: D^j(U) (v.J) D^j(U)^dagger = (R v).J
    jvec = np.stack(collective_ops(dim))
    lhs = dense @ np.einsum("i,iab->ab", axis2, jvec) @ dense.conj().T
    rhs = np.einsum("i,iab->ab", su2_rotate(first, axis2), jvec)
    assert np.max(np.abs(lhs - rhs)) <= tol


def rodrigues_cross(p, v):
    """R v by Rodrigues' formula through np.cross: the form su2_rotate writes out by component."""
    a, b = (np.asarray(x) for x in p)
    q = np.stack(np.broadcast_arrays(-b.imag, b.real, a.imag), axis=-1)
    v = np.asarray(v, dtype=float)
    qv = np.cross(q, v)
    return v + 2.0 * a.real[..., None] * qv + 2.0 * np.cross(q, qv)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shapes=st.sampled_from([
        ((), ()), ((4,), ()), ((), (4,)), ((4,), (4,)), ((3, 1), (4,)), ((13, 2), ()), ((1,), (5, 2)),
    ]),
)
def test_su2_rotate_is_bitwise_the_cross_product_form(seed, shapes):
    # the component-wise cross products give the very bits of np.cross, so
    # the CFI's derivative axes (and its output bytes) do not move
    pair_shape, axes_shape = shapes
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=pair_shape + (3,))
    pair = su2_rotation(axis, rng.uniform(-20.0, 20.0, size=pair_shape))
    v = rng.normal(size=axes_shape + (3,))
    shape = np.broadcast_shapes(pair_shape, axes_shape) + (3,)
    for p in (pair, su2_inverse(pair), axis_rotation(axis.reshape(-1, 3)[0])):
        got = su2_rotate(p, v)
        assert got.shape == np.broadcast_shapes(np.shape(p[0]), axes_shape) + (3,)
        np.testing.assert_array_equal(got, rodrigues_cross(p, v))
    assert su2_rotate(pair, v).shape == shape


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["zz", "xz"]),
    omega_p=st.floats(-10.0, 10.0),
    omega_a=st.floats(-10.0, 10.0),
    g=st.floats(0.0, 10.0),
    t=st.one_of(st.floats(0.0, 100.0), st.lists(st.floats(0.0, 100.0), min_size=1, max_size=5)),
)
def test_inverse_propagator_is_the_propagator_at_minus_t(kind, omega_p, omega_a, g, t):
    # the exact-conjugate readout reads its second leg u_s(-t1) as u_s(t1)^dagger,
    # value for value, and leaves out the sector phase of t1 + (-t1) = 0, exactly 1
    params = ModelParams(omega_p=omega_p, omega_a=omega_a, g=g, kind=kind)
    t = np.asarray(t)
    for got, want in zip(su2_inverse(propagator(params, t)), propagator(params, -t)):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(sector_phases(params, t + -t), np.ones(t.shape + (2,)))


@pytest.mark.parametrize("n", [1, 2, 5, 6])
def test_apply_su2_at_the_degenerate_euler_angles(n):
    # b = 0 (beta = 0, delta = arg 0) is a turn by 2 sigma about z; a = 0
    # (beta = pi, sigma = arg 0, also of -0.0) a half turn about (-sin delta, cos delta, 0)
    dim = EnsembleDim(n)
    for sigma in (0.0, 0.45, -2.0, np.pi):
        dense = dense_rotation(dim, (0.0, 0.0, 1.0), 2.0 * sigma)
        assert np.max(np.abs(wigner_matrix(dim, (np.exp(1j * sigma), 0j)) - dense)) <= 1e-12 * n
    for delta in (0.0, 0.7, np.pi / 2, -2.5):
        dense = dense_rotation(dim, (-np.sin(delta), np.cos(delta), 0.0), np.pi)
        for a in (0j, complex(-0.0, 0.0)):
            assert np.max(np.abs(wigner_matrix(dim, (a, np.exp(1j * delta))) - dense)) <= 1e-12 * n


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
def test_apply_su2_full_turn_is_the_parity_sign(n):
    # a 2 pi turn is -I in SU(2), and D^j(-I) = (-1)^N
    dim = EnsembleDim(n)
    for axis in ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.48, 0.6, 0.64)):
        pair = su2_rotation(axis, 2 * np.pi)
        np.testing.assert_allclose(wigner_matrix(dim, pair), (-1) ** n * np.eye(dim.dim), atol=1e-12 * n)
    np.testing.assert_allclose(wigner_matrix(dim, (-1.0 + 0j, 0j)), (-1) ** n * np.eye(dim.dim), atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 30), axis=st.tuples(*[st.floats(-3.0, 3.0)] * 3))
def test_axis_rotation_turns_the_readout_basis(n, axis):
    # R_n |m> is the eigenvector of n.J for |n| m: spin_frame's column up to a phase
    dim = EnsembleDim(n)
    vals, vecs = spin_frame(dim, axis)
    columns = wigner_matrix(dim, axis_rotation(axis))
    np.testing.assert_array_equal(vals, math.hypot(*axis) * dim.m_values())
    if np.linalg.norm(axis) > 1e-6:
        overlaps = np.abs(np.einsum("ik,ik->k", vecs.conj(), columns))
        assert np.max(np.abs(overlaps - 1.0)) <= 1e-12 * n


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), kind=st.sampled_from(["zz", "xz"]), seed=st.integers(0, 2**32 - 1))
def test_banded_encoding_generator_matches_dense(n, kind, seed):
    params = ModelParams(omega_p=3.0, omega_a=3.0, g=1.0, kind=kind)
    dim = EnsembleDim(n)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 2, dim.dim, 2)) + 1j * rng.normal(size=(3, 2, dim.dim, 2))
    dense = encoding_generator(params, dim) @ x
    banded = apply_spin_axis(dim, encoding_axis(kind), x)
    assert np.max(np.abs(banded - dense)) <= 1e-15 * n * np.max(np.abs(x))
    # any real axes, one per leading index of x
    axes = rng.normal(size=(3, 2, 3))
    dense = np.einsum("...i,iab,...bk->...ak", axes, np.stack(collective_ops(dim)), x)
    banded = apply_spin_axis(dim, axes, x)
    assert np.max(np.abs(banded - dense)) <= 1e-15 * n * np.max(np.abs(axes)) * np.max(np.abs(x))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 40),
    kind=st.sampled_from(["zz", "xz"]),
    omega_p=st.floats(-5.0, 5.0),
    omega_a=st.floats(-5.0, 5.0),
    g=st.floats(0.0, 3.0),
    t=st.floats(0.0, 50.0),
)
def test_generator_axes_match_dense_effective_generator(n, kind, omega_p, omega_a, g, t):
    # c_s.J, the encoding axis turned by the inverse sector pairs, is the
    # sector-s block of the dense U(t)^dagger (G (x) I) U(t) at any N
    params = ModelParams(omega_p, omega_a, g, kind=kind)
    dim = EnsembleDim(n)
    u = unitary_of_hermitian(hamiltonian(params, dim), t)
    dense = u.conj().T @ joint_embed(encoding_generator(params, dim), ID2) @ u
    axes = effective_axes(params, np.array([t]))
    assert axes.shape == (1, 2, 3)
    bands = apply_spin_axis(dim, axes[0], np.eye(dim.dim, dtype=complex))
    assert np.max(np.abs(joint_from_sectors(bands) - dense)) <= 1e-12 * max(1.0, n * abs(t))


@settings(max_examples=80, deadline=None)
@given(**sector_cases)
def test_normalized_trace_matches_dense_spectrum(n, kind, omega_p, omega_a, g, t):
    params = ModelParams(omega_p, omega_a, g, kind=kind)
    dim = EnsembleDim(n)
    vals = np.linalg.eigvalsh(hamiltonian(params, dim))
    dense = abs(np.exp(-1j * vals * abs(t)).sum()) / (2 * dim.dim)
    assert abs(normalized_trace(params, dim, abs(t)) - dense) <= 1e-12 * max(1.0, n * abs(t))


def mp_normalized_trace(params, n, t):
    """|Tr exp(-i H T)| / 2(N+1) in 40 digits, from the float inputs taken as exact.

    The spectrum is |w_s| m + s omega_a, |w_s| = |omega_p + s g| (ZZ) or
    sqrt(omega_p^2 + g^2) (XZ).  Up to N = 400 it is summed term by term;
    above, each sector's sum over m is sin((N+1) x) / sin x, x = |w_s| T / 2.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        t, wp, wa, g = (mpmath.mpf(v) for v in (t, params.omega_p, params.omega_a, params.g))
        total = mpmath.mpc(0)
        for s in (1, -1):
            width = abs(wp + s * g) if params.kind == "zz" else mpmath.sqrt(wp * wp + g * g)
            if n <= 400:
                kernel = mpmath.fsum(mpmath.expj(-width * mpmath.mpf(2 * i - n) / 2 * t) for i in range(n + 1))
            else:
                kernel = mpmath.sin((n + 1) * width * t / 2) / mpmath.sin(width * t / 2)
            total += mpmath.expj(-s * wa * t) * kernel
        return float(abs(total) / (2 * (n + 1)))


@pytest.mark.parametrize("kind", ["zz", "xz"])
@pytest.mark.parametrize("n", [4, 11, 400, 401, 10**6, 10**6 + 1])
def test_normalized_trace_matches_40_digit_oracle(kind, n):
    # at a reversal period, 1e-9 and 1e-7 past it, and at random times in the
    # 64 pi / g window.  The bound carries roundings of at most eps x_s in
    # x_s = |w_s| T / 2 through the kernel's slope, at most (N+1)^2 / 2 per
    # unit x, over the 2(N+1) of the normalization
    params = ZZ if kind == "zz" else ModelParams(omega_p=1.0, omega_a=1.0, g=math.sqrt(3.0), kind="xz")
    period = 2 * math.pi if kind == "zz" and n % 2 else math.pi
    w_max = abs(params.omega_p) + params.g if kind == "zz" else params.omega_tilde
    window = 64 * math.pi / params.g
    times = [period, period + 1e-9, period + 1e-7, *np.random.default_rng(n).uniform(0.0, window, 4)]
    for i, t in enumerate(times):
        bound = np.finfo(float).eps * (n + 1) * max(1.0, w_max * t)
        if kind == "zz" and i < 3:
            # x_s = 2T and T exactly for these rates, and k float(pi) is exact, so
            # near a period only the last few roundings remain once delta is
            # reduced against pi itself
            bound = 8 * np.finfo(float).eps
        assert abs(normalized_trace(params, EnsembleDim(n), t) - mp_normalized_trace(params, n, t)) <= bound


def encoding_rotation(kind, theta, dim):
    """D^j of the encoding rotation exp(-i theta g.J)."""
    return wigner_matrix(dim, su2_rotation(encoding_axis(kind), theta))


def test_encoder_identity_and_rz():
    dim = EnsembleDim(2)
    np.testing.assert_allclose(encoding_rotation("zz", 0.0, dim), np.eye(3), atol=1e-14)
    theta = 0.71
    rz = encoding_rotation("xz", theta, dim)
    expected = np.diag([np.exp(1j * theta), 1.0, np.exp(-1j * theta)])
    np.testing.assert_allclose(rz, expected, atol=1e-12)


def test_encoder_full_turn_sign():
    # 2*pi rotation is +1 for integer j and -1 for half-integer j
    np.testing.assert_allclose(encoding_rotation("zz", 2 * np.pi, EnsembleDim(2)), np.eye(3), atol=1e-10)
    np.testing.assert_allclose(encoding_rotation("zz", 2 * np.pi, EnsembleDim(3)), -np.eye(4), atol=1e-10)


def test_encoder_additivity():
    dim = EnsembleDim(4)
    lhs = encoding_rotation("zz", 0.31, dim) @ encoding_rotation("zz", 1.18, dim)
    np.testing.assert_allclose(lhs, encoding_rotation("zz", 0.31 + 1.18, dim), atol=1e-12)
    pair = su2_compose(su2_rotation(encoding_axis("zz"), 0.31), su2_rotation(encoding_axis("zz"), 1.18))
    np.testing.assert_allclose(pair, su2_rotation(encoding_axis("zz"), 0.31 + 1.18), atol=1e-15)


def check_encoder(n, kind, theta):
    dim = EnsembleDim(n)
    dense = unitary_of_hermitian(encoding_generator(ModelParams(1.0, 1.0, kind=kind), dim), theta)
    assert np.max(np.abs(encoding_rotation(kind, theta, dim) - dense)) <= 1e-12 * max(1.0, n * abs(theta))


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
    # any array of times, one value per time
    np.testing.assert_array_equal(normalized_trace(ZZ, dim, ts.reshape(8, 50)), f.reshape(8, 50))


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


def test_reversal_period_at_a_narrow_recurrence():
    # at N = 10^5 the top of F at the period is about 1e-9 wide
    sol = reversal_period(ZZ, EnsembleDim(10**5), 4.0)
    assert sol.period == np.pi
    assert sol.integers == {"n1": 1, "n2": 1, "n3": 3}


@pytest.mark.parametrize(
    ("n", "omega_a", "period"), [(4, 30.0 * (1 + 1e-6), np.pi), (11, 300.0 * (1 + 1e-7), 2 * np.pi)]
)
def test_reversal_period_finds_a_near_period_beside_the_recurrence(n, omega_a, period):
    # both sectors recur at `period`, but there the sector phases miss by
    # 2 omega_a period mod 2 pi and 1 - F fails; a few micro-units away the
    # faster-turning phase agrees within the tolerance
    params = ModelParams(3.0, omega_a, 1.0)
    dim = EnsembleDim(n)
    assert 1.0 - normalized_trace(params, dim, period) >= PERIOD_RESIDUAL_TOL
    sol = reversal_period(params, dim, 8.0)
    assert 0.0 < abs(sol.period - period) <= 1e-5
    assert sol.residual == 1.0 - normalized_trace(params, dim, sol.period) < PERIOD_RESIDUAL_TOL
    assert sol.integers is None


@pytest.mark.parametrize("kind", ["zz", "xz"])
@pytest.mark.parametrize("t_max", [np.nan, np.inf, 0.0, -1.0])
def test_reversal_period_rejects_bad_windows(kind, t_max):
    params = ModelParams(omega_p=1.0, omega_a=1.0, g=math.sqrt(3.0), kind=kind)
    with pytest.raises(ContractViolation, match="search window"):
        reversal_period(params, EnsembleDim(3), t_max)


def widths(params):
    """The sector widths |w_s|: |omega_p + s g| (ZZ) or omega~ (XZ)."""
    if params.kind == "zz":
        return abs(params.omega_p + params.g), abs(params.omega_p - params.g)
    return params.omega_tilde, params.omega_tilde


def fraction_period(params, n, t_max):
    """Smallest period and its integers from the paper's commensurability
    conditions, solved in exact rational arithmetic, or None.  A period that
    rounds to t_max counts as inside the window."""
    def ratio(x):
        frac = Fraction(x).limit_denominator(10**6)
        return frac if abs(float(frac) - x) <= 1e-9 * max(1.0, abs(x)) else None

    if params.kind == "xz":
        ra = ratio(params.omega_a / params.omega_tilde)
        for n5 in range(1, math.floor(params.omega_tilde * t_max / (2 * math.pi) * (1 + 1e-12)) + 1):
            if (2 * n5 * ra).denominator == 1:
                return 2 * n5 * math.pi / params.omega_tilde, {"n5": n5, "n6": int(2 * n5 * ra)}
        return None
    rp, ra = ratio(params.omega_p / params.g), ratio(params.omega_a / params.g)
    for n1 in range(1, math.floor(params.g * t_max / math.pi * (1 + 1e-12)) + 1):
        wp_term, wa_term = rp * n1, ra * n1  # omega_p T / pi, omega_a T / pi
        if wp_term.denominator != 1 or (wp_term - n1) % 2 != 0:
            continue
        integers = {"n1": n1, "n2": int(wp_term - n1) // 2}
        if n % 2 == 0 and wa_term.denominator == 1:
            return n1 * math.pi / params.g, {**integers, "n3": int(wa_term)}
        if n % 2 == 1 and (wa_term - Fraction(n1, 2)).denominator == 1:
            return n1 * math.pi / params.g, {**integers, "n4": int(wa_term - Fraction(n1, 2))}
    return None


def dense_first_period(params, dim, t_max, h):
    """First time in (h, t_max] with 1 - F < tol / 2 on a grid of step <= h / 64, or None.

    Coarse cells are screened with |dF/dT| <= L = |omega_a| + N sum_s |w_s| / 4
    (each kernel is a trigonometric polynomial of degree N, so Bernstein's
    inequality bounds its slope by N (N + 1) per unit x_s): F stays below
    (F_i + F_{i+1} + L c) / 2 on a cell of width c, and only cells where that
    bound reaches 1 - tol / 2 are searched finely.  The cells around T = 0,
    where F starts at 1, are left out.
    """
    target = 1.0 - PERIOD_RESIDUAL_TOL / 2
    slope = abs(params.omega_a) + dim.n_spins * sum(widths(params)) / 4
    coarse = np.linspace(0.0, t_max, math.ceil(t_max * slope / 0.02) + 2)
    cell = coarse[1] - coarse[0]
    f = normalized_trace(params, dim, coarse)
    fine = np.linspace(0.0, cell, math.ceil(64 * cell / h) + 1)
    for i in np.flatnonzero((f[:-1] + f[1:] + slope * cell) / 2 >= target):
        ts = coarse[i] + fine
        ts = ts[(ts > h) & (ts <= t_max)]
        hits = ts[normalized_trace(params, dim, ts) > target]
        if hits.size:
            return hits[0]
    return None


@st.composite
def period_models(draw):
    """Models with rational rate ratios, or rates within 1e-12 to 1e-5 of them,
    omega_a up to 40 times the widest sector's width, and a window of 1 to 8
    of that sector's recurrences."""
    kind = draw(st.sampled_from(["zz", "xz"]))
    g = draw(st.sampled_from([0.5, 1.0, 2.0]))
    omega_p = g * draw(st.integers(-6, 6)) / draw(st.integers(1, 4))
    width = max(widths(ModelParams(omega_p, 0.0, g, kind=kind)))
    omega_a = width * draw(st.integers(-40 * 12, 40 * 12)) / 12
    offset = draw(st.just(0.0) | st.floats(1e-12, 1e-5))
    if draw(st.booleans()):
        omega_p *= 1 + offset
    else:
        omega_a *= 1 + offset
    params = ModelParams(omega_p, omega_a, g, kind=kind)
    t_max = 2 * math.pi / max(widths(params)) * draw(st.floats(1.0, 8.0))
    return params, offset == 0.0, t_max


@settings(max_examples=60, deadline=None)
@given(model=period_models(), n=st.integers(1, 6))
def test_reversal_period_against_brute_force(model, n):
    # sound: every accepted T passes; complete: a time the dense grid finds
    # with half the tolerance is not passed by more than the window h; and at
    # exactly rational rates, the paper's integers of the first period
    params, rational, t_max = model
    dim = EnsembleDim(n)
    h = 4 * math.sqrt(12 * PERIOD_RESIDUAL_TOL / (dim.dim**2 - 1)) / max(widths(params))
    try:
        sol = reversal_period(params, dim, t_max)
    except PeriodNotFound:
        sol = None
    if sol is not None:
        assert h < sol.period <= t_max
        assert sol.residual == 1.0 - normalized_trace(params, dim, sol.period) < PERIOD_RESIDUAL_TOL
    first = dense_first_period(params, dim, t_max, h)
    if first is not None:
        assert sol is not None and sol.period <= first + h
    if rational:
        exact = fraction_period(params, n, t_max)
        assert (sol is None) == (exact is None)
        if exact is not None:
            assert sol.integers == exact[1]
            assert abs(sol.period - exact[0]) <= 1e-12 * exact[0]


def test_reversal_period_not_found_for_incommensurable_rates():
    # omega_tilde/omega_a = sqrt(10)/3 is irrational, so the XZ model with
    # the default rates has no exact reversal period
    params = ModelParams(omega_p=3.0, omega_a=3.0, g=1.0, kind="xz")
    with pytest.raises(PeriodNotFound):
        reversal_period(params, EnsembleDim(2), 8.0)


def test_reversal_period_scan_fallback_at_large_n_in_bounded_memory():
    # omega_p = sqrt(2) g has no rational ratio, so every recurrence of the
    # widest sector in the 64 pi window is searched at N = 10^5.  The peak is
    # read in a fresh process, whose high-water mark no earlier test has set.
    script = (
        "import math, resource\n"
        "import echometry as em\n"
        "params = em.ModelParams(math.sqrt(2.0), 1.0, 1.0, kind='zz')\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "try:\n"
        "    em.reversal_period(params, em.EnsembleDim(10**5), 64 * math.pi)\n"
        "except em.PeriodNotFound:\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    proc = run_python(["-c", script], check=True, timeout=120)
    assert proc.stdout, "the scan accepted a period"
    assert 0 <= int(proc.stdout) <= 64 * 1024  # ru_maxrss is in KiB


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


def assert_generator_is_odd_part_of_closed_form(params, dim):
    # the sigma_z-odd part Tr_A[(I x sigma_z) M] / 2 of the closed-form generator
    # M at the optimal step is -G: the SO(3) route against the BCH closed form
    gen = optimal_generator(params, dim)
    blocks = closed_form_generator(params, dim, optimal_settings(params).t1).reshape(dim.dim, 2, dim.dim, 2)
    odd = 0.5 * (blocks[:, 0, :, 0] - blocks[:, 1, :, 1])
    assert gen.axis[2] == 0.0
    np.testing.assert_allclose(odd, -spin_matrix(dim, gen.axis), rtol=0.0, atol=1e-13)


def test_closed_form_at_optimum_is_generator_rotation():
    dim = EnsembleDim(4)
    theta = 0.37
    strong = ModelParams(omega_p=1.0, omega_a=1.0, g=1.0, kind="xz")
    weak = ModelParams(omega_p=10.0, omega_a=10.0, g=1.0, kind="xz")
    for params in (ZZ, strong, weak):
        assert_generator_is_odd_part_of_closed_form(params, dim)
    for params in (ZZ, strong):
        # at the optimum no sigma_z-even part is left: U_theta is generated by -G sigma_z
        closed = closed_form_unitary(params, dim, conjugate_schedule(optimal_settings(params).t1, theta))
        gen = spin_matrix(dim, optimal_generator(params, dim).axis)
        expected = unitary_of_hermitian(-joint_embed(gen, PAULI_Z), theta)
        assert global_phase_distance(closed, expected) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 5),
    kind=st.sampled_from(["zz", "xz"]),
    omega_p=st.floats(-10.0, 10.0),
    g=st.floats(0.1, 10.0),
)
def test_optimal_generator_matches_the_closed_form_everywhere(n, kind, omega_p, g):
    assert_generator_is_odd_part_of_closed_form(ModelParams(omega_p, 1.0, g, kind), EnsembleDim(n))


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


def test_optimal_settings_xz_depend_on_the_probe_frequency_squared():
    # strong coupling is g >= |omega_p|: a negative omega_p below -g is weak
    params = ModelParams(omega_p=-3.0, omega_a=1.0, g=1.0, kind="xz")
    settings = optimal_settings(params)
    assert settings == optimal_settings(ModelParams(omega_p=3.0, omega_a=1.0, g=1.0, kind="xz"))
    assert settings.status == "sub_optimal"
    assert settings.t1 == np.pi / params.omega_tilde
    strong = optimal_settings(ModelParams(omega_p=-0.5, omega_a=1.0, g=1.0, kind="xz"))
    assert strong == optimal_settings(ModelParams(omega_p=0.5, omega_a=1.0, g=1.0, kind="xz"))
    assert strong.status == "optimal"


def test_xz_optimum_without_evolution_is_a_contract_violation():
    # g = omega_p = 0 leaves omega_tilde = 0: the probe does not evolve, and
    # strong coupling 0 >= 0 must not reach acos(0 / 0)
    params = ModelParams(omega_p=0.0, omega_a=1.0, g=0.0, kind="xz")
    with pytest.raises(ContractViolation, match="XZ optimum"):
        optimal_settings(params)
    with pytest.raises(ContractViolation, match="XZ optimum"):
        optimal_generator(params, EnsembleDim(2))
    # either rate alone still has its (sub-)optimum
    assert optimal_settings(ModelParams(omega_p=0.0, omega_a=1.0, g=2.0, kind="xz")).t1 == np.pi / 4
    assert optimal_settings(ModelParams(omega_p=2.0, omega_a=1.0, g=0.0, kind="xz")).status == "sub_optimal"


def test_optimal_settings_cancel_information_leakage():
    # at the optimum the ancilla-sector projection of the conjugated encoding
    # generator vanishes identically, independent of the probe matrix element
    from echometry.states import ancilla_state

    dim = EnsembleDim(6)
    settings = optimal_settings(ZZ)
    axes = effective_axes(ZZ, settings.t1)
    ket = ancilla_state(settings.theta0).ket
    sector = np.einsum("s,si,iab->ab", np.abs(ket) ** 2, axes, np.stack(collective_ops(dim)))
    assert np.max(np.abs(sector)) <= 1e-10


def test_global_phase_distance_ignores_phase():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert global_phase_distance(a, np.exp(1j * 0.83) * a) <= 1e-13
    assert global_phase_distance(a, 2.0 * a) > 0.1
