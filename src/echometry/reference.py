"""Every dense operator, (N+1)- and 2(N+1)-dimensional, and the independent SLD oracle.

The spin component n.J as a matrix (:func:`spin_matrix`, the one builder of
every spin operator here), a probe's density matrix and its spectral form
from a dense ``eigh`` (:func:`spectral_decompose`), the joint Hamiltonian,
the circuit unitary from its eigendecomposition, the closed-form (BCH)
generator and unitary, the output state with its analytic theta-derivative,
and the Fisher information from the symmetric logarithmic derivative of that
state (Braunstein & Caves, PRL 72, 3439, 1994).  The XZ
:func:`bch_coefficients` are the oracle of the optimal generator.  It
imports model definitions only, never a kernel (the period check of the
closed form takes its own dense trace), so ``validate`` and the tests can
check the production kernels against it.  Tensor products put the probe
factor first, basis order (m, {e, g}).

The output state and the oracle are computed for a stack of instances that
share one probe size, as arrays with a leading instance axis
(:func:`output_states_stacked`, :func:`qfi_sld_oracle_stacked`); the
single-instance functions are their stacks of one.  numpy's stacked
``eigh`` and ``matmul`` run the same LAPACK and BLAS call on each slice, so
an instance's values do not depend on the stack it is evaluated in.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import PERIOD_RESIDUAL_TOL, ModelParams, Schedule
from .fisher import FisherResult
from .spin import ContractViolation, EnsembleDim, PhaseGenerator, assert_hermitian
from .states import EPS_SPECTRUM, AncillaState, SpectralProbe

__all__ = [
    "PAULI_X", "PAULI_Y", "PAULI_Z", "ID2", "spin_matrix", "collective_ops", "probe_density", "spectral_decompose",
    "joint_embed", "unitary_of_hermitian", "hamiltonian", "encoding_generator", "circuit_unitary", "bch_coefficients",
    "closed_form_generator", "closed_form_unitary", "global_phase_distance", "output_state_derivative",
    "output_state_derivatives", "output_states_stacked", "qfi_simplified", "qfi_sld_oracle", "qfi_sld_oracle_stacked",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def spin_matrix(dim: EnsembleDim, axis) -> np.ndarray:
    """The dense spin component n.J in the ascending-m basis.

    n_z m on the diagonal; below it (n_x - i n_y)/2 times the ladder
    amplitudes sqrt(j(j+1) - m(m+1)) of J_+ |j,m>, above it their conjugates.
    """
    nx, ny, nz = (float(a) for a in axis)
    m = dim.m_values()
    ladder = np.sqrt(dim.j * (dim.j + 1) - m[:-1] * (m[:-1] + 1))
    lower = np.diag(0.5 * complex(nx, -ny) * ladder, -1)
    return np.diag(nz * m + 0j) + lower + lower.conj().T


def collective_ops(dim: EnsembleDim) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collective spin matrices (J_x, J_y, J_z) on the symmetric subspace, from :func:`spin_matrix`."""
    return tuple(spin_matrix(dim, axis) for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))


def probe_density(probe: SpectralProbe) -> np.ndarray:
    """The probe's dense density matrix sum_i p_i |psi_i><psi_i| from its columns."""
    return (probe.vectors * probe.weights) @ probe.vectors.conj().T


def spectral_decompose(rho: np.ndarray) -> SpectralProbe:
    """Spectral form of a probe density matrix.

    Validates hermiticity, positivity and unit trace, drops eigenvalues at or
    below the spectral cutoff, and renormalizes the retained weights.
    """
    a = np.asarray(rho, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractViolation("density matrix must be square")
    dim = EnsembleDim(a.shape[0] - 1)
    assert_hermitian(a, name="probe density matrix")
    tr = np.trace(a)
    if abs(tr.real - 1.0) > 1e-10 or abs(tr.imag) > 1e-10:
        raise ContractViolation(f"probe density matrix trace {tr:.12g} is not 1")
    vals, vecs = np.linalg.eigh(a)
    if vals.min() < -1e-12:
        raise ContractViolation("probe density matrix is not positive semidefinite")
    keep = vals > EPS_SPECTRUM
    if not np.any(keep):
        raise ContractViolation("probe density matrix has no weight above the cutoff")
    weights = vals[keep] / vals[keep].sum()
    return SpectralProbe(dim=dim, weights=weights, vectors=vecs[:, keep])


def _adjoint(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each matrix in a stack (last two axes)."""
    return a.conj().swapaxes(-1, -2)


def _evolution(eigenpairs: tuple[np.ndarray, np.ndarray], t) -> np.ndarray:
    """exp(-i H t) from the eigenpairs (values, column vectors) of a Hermitian H.

    Eigenpairs stacked on leading axes give a stack of unitaries; ``t`` is a
    scalar or one time per stack element.
    """
    vals, vecs = eigenpairs
    return (vecs * np.exp(-1j * vals * np.expand_dims(t, -1))[..., None, :]) @ _adjoint(vecs)


def unitary_of_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H, via spectral decomposition."""
    a = np.asarray(h, dtype=complex)
    assert_hermitian(a, name="evolution generator")
    return _evolution(np.linalg.eigh(a), t)


def joint_embed(probe_op: np.ndarray, ancilla_op: np.ndarray) -> np.ndarray:
    """Kronecker product with the probe factor first, basis order (m, {e, g}).

    Entry ((i, k), (j, l)) is the one product a_ij b_kl, taken by broadcasting.
    Matrices stacked on leading axes give a stack of products; the leading
    axes of the two factors broadcast.
    """
    a = np.asarray(probe_op, dtype=complex)
    b = np.asarray(ancilla_op, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or b.ndim < 2 or b.shape[-1] != b.shape[-2]:
        raise ContractViolation("joint_embed needs two square matrices or stacks of them")
    size = a.shape[-1] * b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], size, size)


def _hamiltonians(params: list[ModelParams], dim: EnsembleDim) -> np.ndarray:
    """The joint Hamiltonian of each model, stacked: shape (len(params), 2(N+1), 2(N+1))."""
    jx, _, jz = collective_ops(dim)
    eye = np.eye(dim.dim, dtype=complex)
    wp, wa, g = (np.array([getattr(p, name) for p in params])[:, None, None] for name in ("omega_p", "omega_a", "g"))
    zz = np.array([p.kind == "zz" for p in params])[:, None, None]
    coupling = np.where(zz, joint_embed(jz, PAULI_Z), joint_embed(jx, PAULI_Z))
    return wp * joint_embed(jz, ID2) + wa * joint_embed(eye, PAULI_Z) + g * coupling


def hamiltonian(params: ModelParams, dim: EnsembleDim) -> np.ndarray:
    """Joint Hamiltonian on the 2(N+1)-dimensional probe-ancilla space."""
    return _hamiltonians([params], dim)[0]


def encoding_generator(params: ModelParams, dim: EnsembleDim) -> np.ndarray:
    """The generator of the encoding rotation: J_x for ZZ, J_z for XZ (dense reference)."""
    return spin_matrix(dim, (1.0, 0.0, 0.0) if params.kind == "zz" else (0.0, 0.0, 1.0))


def _legs(params: list[ModelParams], dim: EnsembleDim, scheds: list[Schedule]):
    """U(t2-leg), U(t1), G and the eigenpairs of G of each dense circuit, stacked on a leading axis.

    One stacked eigh of the Hamiltonians and one eigh per encoding generator
    serve the stack.  U(t2-leg) is U(t1)^dagger in ``exact_conjugate`` mode,
    which the stack shares; G is (N+1)-dimensional, and R(theta) =
    exp(-i theta G) follows from its eigenpairs at any theta.
    """
    modes = {sched.mode for sched in scheds}
    if len(modes) != 1:
        raise ContractViolation(f"a stack of circuits shares one reversal mode, got {sorted(modes)}")
    h_spectrum = np.linalg.eigh(_hamiltonians(params, dim))
    u1 = _evolution(h_spectrum, np.array([sched.t1 for sched in scheds]))
    if modes == {"exact_conjugate"}:
        u2 = _adjoint(u1)
    else:
        u2 = _evolution(h_spectrum, np.array([sched.t2 for sched in scheds]))
    spectra = {}
    for p in params:
        if p.kind not in spectra:
            gen = encoding_generator(p, dim)
            spectra[p.kind] = (gen, *np.linalg.eigh(gen))
    gen, vals, vecs = (np.stack(parts) for parts in zip(*(spectra[p.kind] for p in params)))
    return u2, u1, gen, (vals, vecs)


def circuit_unitary(params: ModelParams, dim: EnsembleDim, sched: Schedule) -> np.ndarray:
    """Full circuit unitary U(t2-leg) R(theta) U(t1) on the joint 2(N+1) space.

    The dense reference: built from exp(-i H t) of :func:`hamiltonian`, never
    from the sector pairs of :func:`~echometry.circuit.propagator`.
    """
    u2, u1, _, g_spectrum = _legs([params], dim, [sched])
    return (u2 @ joint_embed(_evolution(g_spectrum, sched.theta), ID2) @ u1)[0]


def bch_coefficients(params: ModelParams, t1: float) -> tuple[float, float, float]:
    """Closed-form generator coefficients (c_x, c_y, c_z) of the XZ circuit.

    The conjugated rotation generator exp(iHt1) J_z exp(-iHt1) equals
    -(c_z J_z + c_x J_x sigma_z + c_y J_y sigma_z) with these coefficients;
    they satisfy c_x^2 + c_y^2 + c_z^2 = 1 identically.
    """
    if params.kind != "xz":
        raise ContractViolation("coefficient triple is defined for the XZ interaction")
    wt = params.omega_tilde
    wt2 = wt * wt
    cos_wt = math.cos(wt * t1)
    cz = -(params.g**2 / wt2) * cos_wt - params.omega_p**2 / wt2
    cx = (params.g * params.omega_p / wt2) * (cos_wt - 1.0)
    cy = -(params.g / wt) * math.sin(wt * t1)
    return cx, cy, cz


def closed_form_generator(params: ModelParams, dim: EnsembleDim, t1: float) -> np.ndarray:
    """Hermitian M = e.J (x) I + o.J (x) sigma_z with U_theta = exp(-i theta M) once the reversal holds.

    ZZ: M = cos(g t1) J(-phi) - sin(g t1) J(pi/2 - phi) sigma_z with phi = omega_p t1
    and J(a) = cos(a) J_x + sin(a) J_y.  XZ: M = -(c_z J_z + c_x J_x sigma_z + c_y J_y sigma_z).
    """
    if params.kind == "zz":
        phi, gt = params.omega_p * t1, params.g * t1
        even = math.cos(gt) * np.array([math.cos(phi), -math.sin(phi), 0.0])
        odd = -math.sin(gt) * np.array([math.sin(phi), math.cos(phi), 0.0])
    else:
        cx, cy, cz = bch_coefficients(params, t1)
        even, odd = (0.0, 0.0, -cz), (-cx, -cy, 0.0)
    return joint_embed(spin_matrix(dim, even), ID2) + joint_embed(spin_matrix(dim, odd), PAULI_Z)


def closed_form_unitary(params: ModelParams, dim: EnsembleDim, sched: Schedule) -> np.ndarray:
    """The circuit unitary from its closed-form generator.

    Valid whenever the reversal condition holds, i.e. in exact-conjugate mode
    or in period mode with t1 + t2 = T a verified reversal period: checked
    here as |Tr exp(-i H T)| / 2(N+1) from the eigenvalues of the dense H.
    """
    if sched.mode == "period":
        vals = np.linalg.eigvalsh(hamiltonian(params, dim))
        res = 1.0 - abs(np.exp(-1j * vals * (sched.t1 + sched.t2)).sum()) / vals.size
        if res >= PERIOD_RESIDUAL_TOL:
            raise ContractViolation(
                f"closed form needs a verified reversal period; residual {res:.3e}"
            )
    return unitary_of_hermitian(closed_form_generator(params, dim, sched.t1), sched.theta)


def global_phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max-norm distance between A and B after aligning a global phase.

    The phase is read off the largest-magnitude entry of B, so the distance
    is insensitive to an overall e^{i phi} between the two matrices.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ContractViolation("matrices must share a shape")
    idx = np.unravel_index(int(np.argmax(np.abs(b))), b.shape)
    if abs(b[idx]) == 0.0:
        return float(np.max(np.abs(a - b)))
    phase = (a[idx] / b[idx]) / abs(a[idx] / b[idx]) if abs(a[idx]) > 0 else 1.0
    return float(np.max(np.abs(a - phase * b)))


def output_states_stacked(cases, thetas) -> list[tuple[np.ndarray, np.ndarray]]:
    """Output states and their analytic theta-derivatives of a stack of circuits (dense reference).

    ``cases`` is a nonempty sequence of (probe, ancilla, params, sched) that
    share one probe size and one reversal mode; ``sched.theta`` is not read.
    For each of ``thetas``, in order, the result holds (rho, drho), each of
    shape (len(cases), 2(N+1), 2(N+1)) in case order.
    d U_theta / d theta = U(t2-leg) (-i G) R(theta) U(t1), exact because the
    encoding generator G commutes with R(theta); differencing of unitaries is
    never used.  U(t1) and U_theta come from the dense joint Hamiltonian, not
    from the sector pairs of the production path.  One stacked eigh of the
    Hamiltonians and one eigh per encoding generator serve every phase.
    """
    cases = list(cases)
    dims = {probe.dim for probe, *_ in cases}
    if len(dims) != 1:
        raise ContractViolation(f"a stack of circuits shares one probe size, got {len(dims)} sizes")
    probes, ancillas, params, scheds = zip(*cases)
    u2, u1, gen, g_spectrum = _legs(list(params), dims.pop(), list(scheds))
    rho0 = joint_embed(np.stack([probe_density(probe) for probe in probes]), np.stack([anc.rho for anc in ancillas]))
    states = []
    for theta in thetas:
        rotation = _evolution(g_spectrum, theta)
        u = u2 @ joint_embed(rotation, ID2) @ u1
        du = u2 @ joint_embed(-1j * gen @ rotation, ID2) @ u1
        u_dagger = _adjoint(u)
        rho = u @ rho0 @ u_dagger
        half = du @ rho0 @ u_dagger
        states.append((rho, half + _adjoint(half)))
    return states


def output_state_derivatives(
    probe: SpectralProbe, ancilla: AncillaState, params: ModelParams, sched: Schedule, thetas
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Output state together with its analytic theta-derivative at each of ``thetas`` (dense reference).

    The stack of one of :func:`output_states_stacked`: one eigh of H and one
    of G serve every phase; ``sched.theta`` is not read.
    """
    return [(rho[0], drho[0]) for rho, drho in output_states_stacked([(probe, ancilla, params, sched)], thetas)]


def output_state_derivative(
    probe: SpectralProbe, ancilla: AncillaState, params: ModelParams, sched: Schedule
) -> tuple[np.ndarray, np.ndarray]:
    """Output state together with its analytic theta-derivative at ``sched.theta`` (dense reference)."""
    return output_state_derivatives(probe, ancilla, params, sched, [sched.theta])[0]


def qfi_simplified(probe: SpectralProbe, generator: PhaseGenerator) -> FisherResult:
    """Mean square of the optimized phase generator: 4 sum_i p_i <G^2>_i."""
    gv = spin_matrix(probe.dim, generator.axis) @ probe.vectors
    value = 4.0 * float(np.sum(probe.weights * np.einsum("ik,ik->k", gv.conj(), gv).real))
    return FisherResult(value=value)


def qfi_sld_oracle_stacked(rho_theta: np.ndarray, drho_theta: np.ndarray) -> list[float]:
    """Fisher information from the symmetric-logarithmic-derivative expansion, per stack element.

    ``rho_theta`` and ``drho_theta`` stack states and their derivatives on
    a leading axis.  For each, F_Q = 2 sum_{k,l} |<k| drho |l>|^2 /
    (lambda_k + lambda_l) over eigenpairs of rho with lambda_k + lambda_l
    above the spectral cutoff.  Every element must be Hermitian with unit
    trace and positive semidefinite, and its derivative Hermitian and
    traceless.  Independent of the two-term path: it only sees the output
    states and their derivatives.
    """
    rho = np.asarray(rho_theta, dtype=complex)
    drho = np.asarray(drho_theta, dtype=complex)
    if rho.ndim != 3 or rho.shape[-1] != rho.shape[-2] or drho.shape != rho.shape:
        raise ContractViolation("the oracle needs stacks of square states and derivatives of one shape")
    assert_hermitian(rho, name="output state")
    assert_hermitian(drho, tol=1e-10, name="output-state derivative")
    if (np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0) > 1e-10).any():
        raise ContractViolation("output state must have unit trace")
    if (np.abs(np.trace(drho, axis1=-2, axis2=-1)) > 1e-9).any():
        raise ContractViolation("output-state derivative must be traceless")
    vals, vecs = np.linalg.eigh(rho)
    if vals.min() < -1e-10:
        raise ContractViolation("output state is not positive semidefinite")
    md2 = np.abs(_adjoint(vecs) @ drho @ vecs) ** 2
    denom = vals[..., :, None] + vals[..., None, :]
    mask = denom > EPS_SPECTRUM
    return [2.0 * float(np.sum(w[keep] / d[keep])) for w, d, keep in zip(md2, denom, mask)]


def qfi_sld_oracle(rho_theta: np.ndarray, drho_theta: np.ndarray) -> FisherResult:
    """The stack of one of :func:`qfi_sld_oracle_stacked`: F_Q from the SLD of one output state."""
    rho = np.asarray(rho_theta, dtype=complex)
    drho = np.asarray(drho_theta, dtype=complex)
    return FisherResult(value=qfi_sld_oracle_stacked(rho[None], drho[None])[0])
