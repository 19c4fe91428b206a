import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg.lapack
from scipy.linalg import eigh_tridiagonal

from echometry.circuit import apply_spin_axis
from test_fisher import run_at_blas_threads
from echometry.spin import (
    ContractViolation,
    EnsembleDim,
    PhaseGenerator,
    assert_hermitian,
    lowest_spin_columns,
    pin_frame_phases,
    spin_frame,
    spin_ladder,
    tridiagonal_axis,
)
from echometry.reference import (
    PAULI_Z,
    collective_ops,
    joint_embed,
    spin_matrix,
    unitary_of_hermitian,
)


def test_ensemble_dim_fields():
    dim = EnsembleDim(5)
    assert dim.dim == 6
    assert dim.j == 2.5
    np.testing.assert_array_equal(dim.m_values(), [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])


@pytest.mark.parametrize("bad", [0, -3, 2.5])
def test_ensemble_dim_rejects_invalid_counts(bad):
    with pytest.raises(ContractViolation):
        EnsembleDim(bad)


def test_single_spin_jz_is_half_sigma_z():
    _, _, jz = collective_ops(EnsembleDim(1))
    np.testing.assert_allclose(jz, np.diag([-0.5, 0.5]), atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 100, 150])
def test_su2_commutator(n):
    jx, jy, jz = collective_ops(EnsembleDim(n))
    comm = jx @ jy - jy @ jx
    assert np.max(np.abs(comm - 1j * jz)) <= 1e-12


def test_su2_commutator_largest_size():
    # At N=200 the entrywise residual is limited by squaring the rounded
    # ladder amplitudes; 2*eps*j(j+1) ~ 4.5e-12 is the double-precision
    # floor, so the bound here is that floor rather than 1e-12.
    n = 200
    j = n / 2
    jx, jy, jz = collective_ops(EnsembleDim(n))
    comm = jx @ jy - jy @ jx
    assert np.max(np.abs(comm - 1j * jz)) <= 2 * np.finfo(float).eps * j * (j + 1)


@pytest.mark.parametrize("n", [1, 2, 5, 20, 200])
def test_casimir_identity(n):
    dim = EnsembleDim(n)
    jx, jy, jz = collective_ops(dim)
    casimir = jx @ jx + jy @ jy + jz @ jz
    target = dim.j * (dim.j + 1)
    assert np.max(np.abs(casimir - target * np.eye(dim.dim))) / target <= 1e-12


def test_phase_generator_axes():
    dim = EnsembleDim(3)
    jx, jy, _ = collective_ops(dim)
    np.testing.assert_allclose(spin_matrix(dim, PhaseGenerator(dim, (1.0, 0.0, 0.0)).axis), jx, atol=1e-15)
    np.testing.assert_allclose(spin_matrix(dim, PhaseGenerator(dim, (0.0, 1.0, 0.0)).axis), jy, atol=1e-15)
    np.testing.assert_allclose(spin_matrix(dim, PhaseGenerator(dim, (-1.0, 0.0, 0.0)).axis), -jx, atol=1e-15)


def test_spin_frame_jz_is_standard_basis():
    vals, vecs = spin_frame(EnsembleDim(2), (0.0, 0.0, 1.0))
    np.testing.assert_allclose(vals, [-1.0, 0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(vecs, np.eye(3), atol=1e-12)


def test_spin_frame_planar_generator_has_spin_spectrum():
    # any planar generator is unitarily equivalent to J_x, so the spectrum
    # must be the integer ladder -j..+j
    vals, _ = spin_frame(EnsembleDim(4), (np.cos(np.pi / 3), np.sin(np.pi / 3), 0.0))
    np.testing.assert_allclose(vals, [-2, -1, 0, 1, 2], atol=1e-10)


def test_spin_frame_jx_single_spin_vectors():
    _, vecs = spin_frame(EnsembleDim(1), (1.0, 0.0, 0.0))
    inv_sqrt2 = 1 / np.sqrt(2)
    np.testing.assert_allclose(vecs[:, 0], [inv_sqrt2, -inv_sqrt2], atol=1e-12)
    np.testing.assert_allclose(vecs[:, 1], [inv_sqrt2, inv_sqrt2], atol=1e-12)


def test_spin_frame_phase_convention_and_determinism():
    rng = np.random.default_rng(11)
    axis = rng.normal(size=3)
    vals1, vecs1 = spin_frame(EnsembleDim(5), axis)
    vals2, vecs2 = spin_frame(EnsembleDim(5), axis)
    np.testing.assert_array_equal(vals1, vals2)
    np.testing.assert_array_equal(vecs1, vecs2)
    for k in range(6):
        pivot = vecs1[np.argmax(np.abs(vecs1[:, k])), k]
        assert abs(pivot.imag) < 1e-14 and pivot.real > 0


def check_spin_frame(n, axis):
    """spin_frame against the dense n.J: eigen-residual, orthonormality, exact
    spectrum |n| m, real frame for n_y = 0, and the pivot phase convention."""
    dim = EnsembleDim(n)
    norm = math.hypot(*axis)
    vals, vecs = spin_frame(dim, axis)
    gen = spin_matrix(dim, axis)
    residual = np.linalg.norm(gen @ vecs - vecs * vals, 2)
    assert residual <= 1e-13 * norm * max(1, n)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(dim.dim))) <= 1e-12
    np.testing.assert_array_equal(vals, norm * dim.m_values())
    assert axis[1] != 0.0 or not np.iscomplexobj(vecs)
    mag = np.abs(vecs)
    # the first entry of largest magnitude (ties within 1e-12) is real and positive
    pivot = vecs[np.argmax(mag >= (1.0 - 1e-12) * mag.max(axis=0), axis=0), np.arange(dim.dim)]
    assert np.all(np.abs(pivot.imag) <= 1e-14) and np.all(pivot.real > 0)


# components are 0 or at least 1e-3 in size, so |n| * N never underflows the bound
component = st.floats(-2.0, 2.0).filter(lambda a: a == 0.0 or abs(a) >= 1e-3)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 60), nx=component, ny=st.one_of(st.just(0.0), component), nz=component)
def test_spin_frame_diagonalizes_any_axis(n, nx, ny, nz):
    check_spin_frame(n, (nx, ny, nz))


@pytest.mark.parametrize(
    "axis",
    [
        (1.0, 0.0, 0.0),
        (-1.0, -1.2246467991473532e-16, 0.0),
        (0.3, -0.8, 0.52),
        (-1.7, 0.0, -0.4),
        (0.0, 0.0, -2.5),
        (0.0, 0.0, 0.0),
    ],
)
def test_spin_frame_diagonalizes_large_probe(axis):
    check_spin_frame(300, axis)


def check_lowest_columns(n, axis, count):
    """lowest_spin_columns against n.J applied as its tridiagonal bands:
    eigen-residual at the exact eigenvalues |n| m, and orthonormality.

    Inverse iteration's errors grow with the dimension: over random axes and
    counts the residual reached (3 + 0.27 (N+1)) eps ||n.J|| and the
    orthonormality error (4 + 0.33 (N+1)) eps, from N = 1 to 3000.  Both
    bounds are therefore 4 eps (N+1), in units of |n| max(1, j) for the
    residual: twice the largest seen at N = 1, twelve times or more at large N.
    Past 60 columns the residual's Frobenius norm stands in for its 2-norm,
    which it bounds from above: an SVD of a full frame's residual takes
    seconds at N = 2000.
    """
    dim = EnsembleDim(n)
    norm = math.hypot(*axis)
    vecs = lowest_spin_columns(dim, axis, count)
    assert vecs.shape == (dim.dim, count)
    bound = 4.0 * np.finfo(float).eps * dim.dim
    residual = apply_spin_axis(dim, axis, vecs.astype(complex)) - vecs * (norm * dim.m_values()[:count])
    assert np.linalg.norm(residual, 2 if count <= 60 else "fro") <= bound * norm * max(1.0, dim.j)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(count))) <= bound
    return dim, vecs


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 3000),
    axis=st.tuples(component, st.one_of(st.just(0.0), component), component).filter(any),
    tilt=st.sampled_from([1.0, 1e-6, 1e-12, 1e-14, 1e-15]),
    data=st.data(),
)
def test_lowest_spin_columns_solve_any_axis(n, axis, tilt, data):
    # the partial columns (inverse iteration at the known eigenvalues) are
    # eigenvectors of n.J, orthonormal, and the ones a bisecting solver of the
    # same tridiagonal matrix finds, phases pinned alike; ``tilt`` brings the
    # axis near the z pole
    axis = (tilt * axis[0], tilt * axis[1], axis[2])
    count = data.draw(st.integers(1, min(n + 1, 60)), label="count")
    dim, vecs = check_lowest_columns(n, axis, count)
    z, r, _ = tridiagonal_axis(axis)
    if abs(r) >= 1e-12 * math.hypot(*axis):
        _, oracle = eigh_tridiagonal(
            z * dim.m_values(), r * spin_ladder(dim) / 2.0, select="i", select_range=(0, count - 1)
        )
        np.testing.assert_allclose(vecs, pin_frame_phases(dim, axis, oracle), rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("n", [1, 2, 50, 500, 5000])
@pytest.mark.parametrize("nz", [1.0, -1.0])
@pytest.mark.parametrize("r", [0.0, 1e-300, 1e-100, 1e-20, 1e-16])
def test_lowest_spin_columns_at_a_pole(n, nz, r):
    # |r| <= eps |n_z|: inverse iteration on the nearly split matrix would lose
    # orthogonality; the columns are J_z basis vectors, lowest n_z m first
    count = min(n, 60)
    dim, vecs = check_lowest_columns(n, (r, 0.0, nz), count)
    if r == 0.0:
        rows = np.arange(count) if nz > 0.0 else n - np.arange(count)
        np.testing.assert_array_equal(vecs, np.eye(dim.dim)[:, rows])


@pytest.mark.parametrize("n", [40, 300, 2000])
@pytest.mark.parametrize(
    "axis",
    [(tilt, 0.0, nz) for tilt in (1.0, 1e-6, 1e-12, 1e-14, 1e-15) for nz in (1.0, -1.0)] + [(0.0, 0.0, 0.0)],
)
def test_full_frame_near_a_pole(n, axis):
    # near the z pole each sweep of the recurrence grows by about 1/tilt per
    # row, far past overflow over the whole frame, yet every column stays an
    # orthonormal eigenvector; the zero axis takes the pole rule, the J_z basis
    dim, vecs = check_lowest_columns(n, axis, n + 1)
    # at N = 2000 check_spin_frame's dense 2-norm residual takes about 4.5 s
    # an axis, and its fixed 1e-12 orthonormality bound (2.2 (N+1) eps there)
    # fails at tilt 1, where the recurrence frame reaches 3.3 (N+1) eps:
    # N = 2000 is held to check_lowest_columns' 4 eps (N+1) alone
    if n <= 300:
        check_spin_frame(n, axis)
    if axis == (0.0, 0.0, 0.0):
        np.testing.assert_array_equal(vecs, np.eye(dim.dim))


def mp_frame_columns(n, axis, columns, digits=400):
    """Columns of the exact frame of n_z J_z + r J_x (n_y = 0) for the float axis, at ``digits``.

    Each column runs the three-term recurrence up from row 0 at its exact
    eigenvalue m_k.  Above the column's allowed region that direction is
    unstable: an error of 10^-digits grows like 1/|v_i|, which stays below
    10^-100 in absolute terms while every entry of the column exceeds
    10^-(digits - 100) or so; the columns here end above 10^-270.
    """
    with mpmath.workdps(digits):
        nz, r = mpmath.mpf(axis[2]), mpmath.mpf(axis[0])
        norm = mpmath.sqrt(nz * nz + r * r)
        j = mpmath.mpf(n) / 2
        m = [mpmath.mpf(i) - j for i in range(n + 1)]
        d = [nz / norm * mi for mi in m]
        e = [r / norm * mpmath.sqrt(j * (j + 1) - mi * (mi + 1)) / 2 for mi in m[:-1]]
        out = np.empty((n + 1, len(columns)))
        for col, k in enumerate(columns):
            v = [mpmath.mpf(1), (m[k] - d[0]) / e[0]]
            for i in range(1, n):
                v.append(((m[k] - d[i]) * v[i] - e[i - 1] * v[i - 1]) / e[i])
            size = mpmath.sqrt(mpmath.fsum(x * x for x in v))
            out[:, col] = [float(x / size) for x in v]
    return out


@pytest.mark.parametrize("n", [50, 312])
@pytest.mark.parametrize("axis", [(1.0, 0.0, 0.0), (0.3, 0.0, 1.0)])
def test_full_frame_entries_match_a_400_digit_recurrence(n, axis):
    # every 7th column against the exact frame of the same float axis; the
    # bound 9 (N+1) eps is the backward error of the rounded matrix entries,
    # 4 eps each (2.9 (N+1) eps in norm), plus three roundings per recurrence
    # term (6 (N+1) eps in norm), over the unit gap between eigenvalues
    # (Davis and Kahan); the largest error seen was far smaller
    dim = EnsembleDim(n)
    columns = list(range(0, dim.dim, 7))
    vecs = spin_frame(dim, axis)[1][:, columns]
    exact = mp_frame_columns(n, axis, columns)
    exact *= np.sign(np.einsum("ij,ij->j", vecs, exact))
    assert np.abs(vecs - exact).max() <= 9.0 * dim.dim * np.finfo(float).eps


def test_full_frame_independent_of_blas_threads():
    # the recurrence calls no BLAS routine, so a frame's bytes are the same
    # at 1 and 2 OpenBLAS threads, real and complex, near a pole and up to N = 2000
    script = (
        "import hashlib, echometry as em\n"
        "for n in (1, 20, 301, 2000):\n"
        "    for axis in ((1.0, 0.0, 0.0), (0.3, -0.8, 0.52), (1e-13, 0.0, -1.0)):\n"
        "        frame = em.spin_frame(em.EnsembleDim(n), axis)[1]\n"
        "        print(n, axis, hashlib.sha256(frame.tobytes()).hexdigest())\n"
    )
    outputs = run_at_blas_threads(script)
    assert len(outputs[0].splitlines()) == 12
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("scale", [2.0**-1000, 2.0**1000])
@pytest.mark.parametrize("axis", [(1.0, 0.0, 0.0), (0.3, -0.8, 0.52), (-1.7, 0.0, -0.4)])
def test_lowest_spin_columns_do_not_depend_on_the_axis_scale(axis, scale):
    # the partial solve runs on n.J / |n|, so a power-of-two scale of the axis
    # gives the same bits, near underflow and overflow alike
    dim = EnsembleDim(400)
    expected = lowest_spin_columns(dim, axis, 30)
    np.testing.assert_array_equal(lowest_spin_columns(dim, tuple(scale * a for a in axis), 30), expected)
    if axis[1:] == (0.0, 0.0):
        np.testing.assert_array_equal(lowest_spin_columns(dim, (5e-324, 0.0, 0.0), 30), expected)


def test_lowest_spin_columns_report_failed_inverse_iteration(monkeypatch):
    # LAPACK stein's info > 0 counts vectors that did not converge
    dstein = scipy.linalg.lapack.dstein
    monkeypatch.setattr(scipy.linalg.lapack, "dstein", lambda *args: (dstein(*args)[0], 2))
    with pytest.raises(ContractViolation, match="info = 2"):
        lowest_spin_columns(EnsembleDim(20), (1.0, 0.0, 0.0), 5)


@pytest.mark.parametrize("axis", [(1.0, 0.0), (1.0, np.nan, 0.0), (0.0, np.inf, 1.0)])
def test_phase_generator_rejects_bad_axis(axis):
    with pytest.raises(ContractViolation):
        PhaseGenerator(EnsembleDim(2), axis)


def test_unitary_of_hermitian_time_zero():
    jx, _, _ = collective_ops(EnsembleDim(4))
    np.testing.assert_allclose(unitary_of_hermitian(jx, 0.0), np.eye(5), atol=1e-14)


def test_unitary_of_hermitian_diagonal_case():
    u = unitary_of_hermitian(PAULI_Z, np.pi / 2)
    np.testing.assert_allclose(u, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]), atol=1e-12)


def test_unitary_of_hermitian_group_property_and_unitarity():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    h = a + a.conj().T
    u1 = unitary_of_hermitian(h, 0.37)
    u2 = unitary_of_hermitian(h, 1.21)
    u12 = unitary_of_hermitian(h, 0.37 + 1.21)
    np.testing.assert_allclose(u1 @ u2, u12, atol=1e-10)
    assert np.max(np.abs(u1.conj().T @ u1 - np.eye(7))) <= 1e-10


def test_unitary_of_hermitian_rejects_non_hermitian():
    with pytest.raises(ContractViolation):
        unitary_of_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_advisory_tag_checks():
    jx, jy, _ = collective_ops(EnsembleDim(4))
    assert_hermitian(jx)
    assert_hermitian(jy)
    with pytest.raises(ContractViolation):
        assert_hermitian(jx + 1j * jy)

    def unitarity_gap(u):
        return np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))

    u = unitary_of_hermitian(jx, 0.9)
    assert unitarity_gap(u) < 1e-10
    assert not unitarity_gap(2.0 * u) < 1e-10


def test_joint_embed_identity():
    eye5 = np.eye(5)
    np.testing.assert_array_equal(joint_embed(eye5, np.eye(2)), np.eye(10))


def test_joint_embed_basis_order():
    _, _, jz = collective_ops(EnsembleDim(1))
    embedded = joint_embed(jz, PAULI_Z)
    np.testing.assert_allclose(np.diag(embedded), [-0.5, 0.5, 0.5, -0.5], atol=1e-15)


def test_joint_embed_kronecker_identity():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    lhs = joint_embed(a, np.eye(2)) @ joint_embed(np.eye(4), b)
    np.testing.assert_allclose(lhs, np.kron(a, b), atol=1e-14)


@pytest.mark.parametrize("n", [1, 4, 21])
def test_joint_embed_is_bitwise_the_kronecker_product(n):
    # every entry is the one product a_ij b_kl, as in np.kron, so the dense
    # reference (and validate's output) keeps its bits
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    for b in (np.eye(2), PAULI_Z, rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))):
        np.testing.assert_array_equal(joint_embed(a, b), np.kron(a, b))
        np.testing.assert_array_equal(joint_embed(a.real, b), np.kron(a.real, b))


def test_joint_embed_rejects_non_square():
    with pytest.raises(ContractViolation):
        joint_embed(np.ones((2, 3)), np.eye(2))
