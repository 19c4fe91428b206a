import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import echometry.spin
import echometry.states
from echometry.circuit import axis_rotation
from echometry.spin import ContractViolation, EnsembleDim, PhaseGenerator, phase_generator, spin_frame
from echometry.states import (
    AncillaState,
    SpectralProbe,
    ancilla_state,
    coherent_state,
    dephase_ancilla,
    polarized_probe,
    spectral_decompose,
    thermal_probe,
    thermal_weights,
)


def ghz_probe(dim, generator):
    """Equal superposition of the two extremal eigenvectors of a generator (a test probe)."""
    _, vecs = spin_frame(dim, generator.axis)
    psi = (vecs[:, -1] + vecs[:, 0]) / np.sqrt(2.0)
    return SpectralProbe(dim=dim, weights=np.array([1.0]), vectors=psi[:, None])


def test_ancilla_poles():
    np.testing.assert_allclose(ancilla_state(0.0).rho, np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(ancilla_state(np.pi).rho, np.diag([0.0, 1.0]), atol=1e-15)


def test_ancilla_equator_is_all_quarters():
    rho = ancilla_state(np.pi / 2, 0.0).rho
    np.testing.assert_allclose(rho, 0.5 * np.ones((2, 2)), atol=1e-15)


def test_ancilla_ket_matches_density():
    state = ancilla_state(0.7, 1.3)
    np.testing.assert_allclose(np.outer(state.ket, state.ket.conj()), state.rho, atol=1e-15)


def test_ancilla_state_is_defined_by_its_angles_and_rate():
    # rho is derived, never given: no constructor takes a second description
    with pytest.raises(TypeError):
        AncillaState(theta0=0.0, phi0=0.0, x=0.0, rho=np.diag([1.0, 0.0]))
    assert [f.name for f in dataclasses.fields(AncillaState) if f.init] == ["theta0", "phi0", "x"]
    for bad in (np.nan, np.inf, -np.inf):
        for kwargs in (dict(theta0=bad, phi0=0.0, x=0.0), dict(theta0=0.0, phi0=bad, x=0.0)):
            with pytest.raises(ContractViolation, match="angles must be finite"):
                AncillaState(**kwargs)
        with pytest.raises(ContractViolation, match="angles must be finite"):
            ancilla_state(bad)
    for x in (-1e-300, -0.1, 1.0 + 1e-15, 1.1, np.nan, np.inf):
        with pytest.raises(ContractViolation, match="dephasing rate"):
            AncillaState(theta0=0.3, phi0=0.0, x=x)
    # at x = 0, rho is the ket's projector bit for bit
    for theta0, phi0 in itertools.product(np.linspace(0.0, np.pi, 7), (0.0, 1.3, -2.9)):
        state = ancilla_state(theta0, phi0)
        assert state.rho.tolist() == (state.ket[:, None] * state.ket.conj()).tolist()
        assert not state.rho.flags.writeable
    # equal states compare and hash equal
    assert ancilla_state(1.0) == ancilla_state(1.0) == AncillaState(1.0, 0.0, 0.0)
    assert hash(ancilla_state(1.0, 0.5)) == hash(AncillaState(1.0, 0.5, 0.0))
    assert len({ancilla_state(1.0), ancilla_state(1.0), dephase_ancilla(ancilla_state(1.0), 0.5)}) == 2
    # replace derives rho again, from the new numbers
    moved = dataclasses.replace(ancilla_state(np.pi / 2), x=0.5)
    assert moved.rho.tolist() == AncillaState(np.pi / 2, 0.0, 0.5).rho.tolist()
    np.testing.assert_allclose(moved.rho, [[0.5, 0.25], [0.25, 0.5]], atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(theta0=st.floats(-10.0, 10.0), phi0=st.floats(-10.0, 10.0), x=st.floats(0.0, 1.0))
def test_derived_ancilla_density_is_a_state(theta0, phi0, x):
    state = AncillaState(theta0, phi0, x)
    rho = state.rho
    assert abs(np.trace(rho) - 1.0) <= 1e-15
    assert np.abs(rho - rho.conj().T).max() <= 1e-15
    assert np.linalg.eigvalsh(rho).min() >= -1e-15
    # populations of the ket, coherences scaled by 1 - x
    ket = ancilla_state(theta0, phi0).ket
    projector = ket[:, None] * ket.conj()
    assert np.diag(rho).tolist() == np.diag(projector).tolist()
    assert rho[0, 1] == projector[0, 1] * (1.0 - x) and rho[1, 0] == projector[1, 0] * (1.0 - x)


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
    # the poles give the exact basis vectors (no 0 log 0 NaN)
    np.testing.assert_array_equal(probe.vectors[:, 0], np.eye(4)[:, -1])
    flipped = polarized_probe(dim, PhaseGenerator(dim, (0.0, 0.0, -1.0)))
    np.testing.assert_array_equal(flipped.vectors[:, 0], np.eye(4)[:, 0])


def test_polarized_probe_is_extremal_eigenvector():
    dim = EnsembleDim(6)
    gen = phase_generator(dim, 0.83)
    probe = polarized_probe(dim, gen)
    psi = probe.vectors[:, 0]
    assert np.linalg.norm(gen.matrix @ psi - dim.j * psi) <= 1e-10


_COMPONENT = st.floats(-1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 60),
    axis=st.one_of(
        st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (-1.0, 0.0, 0.0)]),
        st.tuples(_COMPONENT, st.just(0.0), _COMPONENT),
        st.tuples(_COMPONENT, _COMPONENT, _COMPONENT),
    ).filter(lambda a: np.linalg.norm(a) > 1e-3),
    scale=st.floats(0.1, 1.0),
    beta=st.floats(0.0, 5.0),
)
def test_probe_constructors_match_the_frame_columns(n, axis, scale, beta):
    # same vectors and phases as spin_frame's columns, without any phase alignment:
    # the top one for the polarized probe (|n| < 1 included), the kept lowest
    # ones for the thermal probe
    dim = EnsembleDim(n)
    gen = PhaseGenerator(dim, scale * np.asarray(axis))
    _, vecs = spin_frame(dim, gen.axis)
    np.testing.assert_allclose(polarized_probe(dim, gen).vectors[:, 0], vecs[:, -1], rtol=0.0, atol=1e-12)
    unit = PhaseGenerator(dim, np.asarray(axis) / np.linalg.norm(axis))
    probe = thermal_probe(dim, unit, beta)
    _, vecs = spin_frame(dim, unit.axis)
    np.testing.assert_allclose(probe.vectors, vecs[:, : probe.n_terms], rtol=0.0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 300),
    axis=st.one_of(
        st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]),
        st.tuples(_COMPONENT, st.just(0.0), _COMPONENT),
        st.tuples(_COMPONENT, _COMPONENT, _COMPONENT),
    ).filter(lambda a: np.linalg.norm(a) > 1e-3),
    scale=st.floats(0.1, 1.0),
)
def test_polarized_probe_is_the_coherent_state_of_its_axis(n, axis, scale):
    # the contract the coherent readout relies on: the probe records its axis
    # and equals D^j(R_n)|j,+j> up to one global phase
    dim = EnsembleDim(n)
    gen = PhaseGenerator(dim, scale * np.asarray(axis))
    probe = polarized_probe(dim, gen)
    assert probe.coherent_axis == gen.axis
    psi = probe.vectors[:, 0]
    column = coherent_state(dim, axis_rotation(gen.axis))
    overlap = np.vdot(column, psi)
    assert abs(abs(overlap) - 1.0) <= 1e-12
    np.testing.assert_allclose(psi, overlap * column, rtol=0.0, atol=1e-12)


def test_probe_constructors_solve_no_full_frame(monkeypatch):
    # the polarized probe is a closed form; the thermal probe solves only its
    # kept columns, by inverse iteration at their known eigenvalues
    def forbidden(*args, **kwargs):
        raise AssertionError("a probe constructor solved the full frame")

    solved = []
    dstein = echometry.spin.dstein

    def counted(*args, **kwargs):
        vecs, info = dstein(*args, **kwargs)
        solved.append(vecs.shape[1])
        return vecs, info

    monkeypatch.setattr(echometry.spin, "spin_frame", forbidden)
    monkeypatch.setattr(echometry.spin, "eigh_tridiagonal", forbidden)
    monkeypatch.setattr(echometry.spin, "dstein", counted)
    dim = EnsembleDim(2000)
    gen = PhaseGenerator(dim, (0.6, -0.48, 0.64))
    assert polarized_probe(dim, gen).n_terms == 1
    assert solved == []
    probe = thermal_probe(dim, gen, 1.0)
    assert solved == [probe.n_terms] and probe.n_terms < 40


def test_polarized_probe_reports_degenerate_generator():
    dim = EnsembleDim(3)
    with pytest.raises(ContractViolation):
        polarized_probe(dim, PhaseGenerator(dim, (0.0, 0.0, 0.0)))


def test_probe_constructors_reject_a_generator_of_another_size():
    dim = EnsembleDim(3)
    gen = phase_generator(EnsembleDim(4), 0.3)
    for build in (polarized_probe, lambda d, g: thermal_probe(d, g, 1.0)):
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


def test_thermal_weights_partition_function():
    dim = EnsembleDim(4)
    beta = 0.7
    boltzmann = np.exp(-beta * dim.m_values())
    np.testing.assert_allclose(thermal_weights(dim, beta), boltzmann / boltzmann.sum(), rtol=1e-14)
    assert thermal_weights(dim, beta).sum() == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_array_equal(thermal_weights(dim, 0.0), np.full(dim.dim, 1.0 / dim.dim))
    # a large beta keeps the ground state m = -j and underflows the rest, with no overflow
    assert thermal_weights(dim, 1e4)[0] == 1.0
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ContractViolation, match="inverse temperature"):
            thermal_weights(dim, bad)


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


def test_only_polarized_probe_sets_the_coherent_axis():
    dim = EnsembleDim(2)
    one = np.eye(3, dtype=complex)[:, -1:]
    # the axis restates the vector, so no constructor takes it
    with pytest.raises(TypeError):
        SpectralProbe(dim, np.array([1.0]), one, coherent_axis=(0.0, 0.0, 1.0))
    assert [f.name for f in dataclasses.fields(SpectralProbe) if f.init] == ["dim", "weights", "vectors"]
    assert SpectralProbe(dim, np.array([1.0]), one).coherent_axis is None
    gen = phase_generator(dim, 0.4)
    assert polarized_probe(dim, gen).coherent_axis == gen.axis
    assert thermal_probe(dim, gen, 1.3).coherent_axis is None
    assert spectral_decompose(polarized_probe(dim, gen).density()).coherent_axis is None


def test_log_binomials_join_lgamma_and_stirling():
    # log k! from math.lgamma below k = 32 and from the four-term Stirling
    # series from there on, at both ends of C(N, k)
    n = 200
    exact = np.array([-0.5 * (math.lgamma(k + 1.0) + math.lgamma(n - k + 1.0)) for k in range(n + 1)])
    table = echometry.states._half_log_binomials(n)
    np.testing.assert_allclose(table, exact, rtol=4 * np.finfo(float).eps, atol=0.0)
    assert not table.flags.writeable
    np.testing.assert_array_equal(echometry.states._half_log_binomials(0), [0.0])


@pytest.mark.parametrize(
    "pair",
    [
        (0.6 * np.exp(0.7j), 0.8 * np.exp(-2.1j)),
        (math.sqrt(1.0 - 1e-12) * np.exp(0.3j), 1e-6 * np.exp(-1.1j)),
    ],
    ids=["generic", "near-pole"],
)
def test_coherent_state_matches_high_precision_binomials(pair):
    # 50-digit sqrt(C(N, k)) (a*)^k b^(N-k), normalized, at N = 1000; near the
    # pole the amplitudes fall by 1e-6 a step and underflow past k ~ N - 50
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    n = 1000
    got = coherent_state(EnsembleDim(n), pair)
    # log C(N, k) is a difference of log-factorials of size log N!, each
    # rounded to a few ulp
    rtol = 4 * np.finfo(float).eps * math.lgamma(n + 1.0)
    with mp.workdps(50):
        a, b = (mpmath.mpc(c.real, c.imag) for c in pair)
        amps = [mp.sqrt(mp.binomial(n, k)) * mp.conj(a) ** k * b ** (n - k) for k in range(n + 1)]
        norm = mp.sqrt(mp.fsum(abs(x) ** 2 for x in amps))
        for k, (value, amp) in enumerate(zip(got, amps)):
            want = amp / norm
            err = abs(mpmath.mpc(value.real, value.imag) - want)
            assert err <= rtol * abs(want) or (abs(want) < 1e-290 and err < 1e-290), k


def binomial_magnitudes_norm_form(n, abs_a, abs_b):
    """Unit binomial magnitudes normalized through np.linalg.norm: the form _binomial_magnitudes writes out."""
    k = np.arange(n + 1)
    log_a, log_b = (np.log(x, out=np.full(np.shape(x), -1e300), where=x > 0.0)[..., None] for x in (abs_a, abs_b))
    log_mag = k * log_a + (n - k) * log_b + echometry.states._half_log_binomials(n)
    mag = np.exp(log_mag - log_mag.max(axis=-1, keepdims=True))
    return mag / np.linalg.norm(mag, axis=-1, keepdims=True)


def coherent_state_angle_form(dim, p):
    """D^j(u)|j,+j> with its phases read through np.angle: the form coherent_state writes out."""
    a, b = (np.asarray(c) for c in p)
    n, k = dim.n_spins, np.arange(dim.dim)
    phase = (n - k) * np.angle(b)[..., None] - k * np.angle(a)[..., None]
    return echometry.states._binomial_magnitudes(n, np.abs(a), np.abs(b)) * np.exp(1j * phase)


# pairs on the branch cut of arg and at the poles, signed zeros included
EDGE_PAIRS = [
    (1.0 + 0j, 0j),
    (0j, complex(-1.0, 0.0)),
    (complex(-0.0, 0.0), complex(-1.0, -0.0)),
    (complex(-0.6, -0.0), complex(-0.8, 0.0)),
    (complex(-0.6, 0.0), complex(0.0, -0.8)),
]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(), (3,), (2, 4)]),
    edge=st.sampled_from([None, *EDGE_PAIRS]),
)
def test_coherent_readout_is_bitwise_the_numpy_wrapper_form(n, seed, shape, edge):
    # the sum-of-squares norm and arctan2 phases give the very bits of
    # np.linalg.norm and np.angle, so the coherent readout's bytes do not move
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if edge is not None:
        a, b = (np.full(shape, c) for c in edge)
    dim = EnsembleDim(n)
    for abs_a, abs_b in ((np.abs(a), np.abs(b)), (abs(complex(a.ravel()[0])), abs(complex(b.ravel()[0])))):
        np.testing.assert_array_equal(
            echometry.states._binomial_magnitudes(n, abs_a, abs_b), binomial_magnitudes_norm_form(n, abs_a, abs_b)
        )
    np.testing.assert_array_equal(coherent_state(dim, (a, b)), coherent_state_angle_form(dim, (a, b)))


def test_spectral_probe_weights_sum_to_one():
    dim = EnsembleDim(4)
    gen = phase_generator(dim, 0.4)
    for probe in (polarized_probe(dim, gen), ghz_probe(dim, gen), thermal_probe(dim, gen, 1.3)):
        assert abs(probe.weights.sum() - 1.0) <= 1e-10
        gram = probe.vectors.conj().T @ probe.vectors
        assert np.max(np.abs(gram - np.eye(probe.n_terms))) <= 1e-10
