"""The dense 2(N+1)-dimensional reference path and the independent SLD oracle.

The joint Hamiltonian, the circuit unitary from its eigendecomposition, the
closed-form (BCH) generator and unitary, the output state with its analytic
theta-derivative, and the Fisher information from the symmetric logarithmic
derivative of that state (Braunstein & Caves, PRL 72, 3439, 1994).  The
XZ :func:`bch_coefficients` are the oracle of the optimal generator.  It
imports model definitions only, never a sector kernel, so ``validate`` and
the tests can check the production kernels against it.  Tensor products put
the probe factor first, basis order (m, {e, g}).
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import PERIOD_RESIDUAL_TOL, ModelParams, Schedule, normalized_trace
from .fisher import FisherResult
from .spin import (
    ContractViolation, EnsembleDim, PhaseGenerator, assert_hermitian, collective_ops, phase_generator
)
from .states import EPS_SPECTRUM, AncillaState, SpectralProbe

__all__ = [
    "PAULI_X", "PAULI_Y", "PAULI_Z", "ID2", "joint_embed", "unitary_of_hermitian", "hamiltonian",
    "encoding_generator", "circuit_unitary", "bch_coefficients", "closed_form_generator", "closed_form_unitary",
    "global_phase_distance", "output_state_derivative", "output_state_derivatives", "qfi_simplified",
    "qfi_sld_oracle",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def _evolution(eigenpairs: tuple[np.ndarray, np.ndarray], t: float) -> np.ndarray:
    """exp(-i H t) from the eigenpairs (values, column vectors) of a Hermitian H."""
    vals, vecs = eigenpairs
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


def unitary_of_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H, via spectral decomposition."""
    a = np.asarray(h, dtype=complex)
    assert_hermitian(a, name="evolution generator")
    return _evolution(np.linalg.eigh(a), t)


def joint_embed(probe_op: np.ndarray, ancilla_op: np.ndarray) -> np.ndarray:
    """Kronecker product with the probe factor first, basis order (m, {e, g}).

    Entry ((i, k), (j, l)) is the one product a_ij b_kl, taken by broadcasting.
    """
    a = np.asarray(probe_op, dtype=complex)
    b = np.asarray(ancilla_op, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ContractViolation("joint_embed needs two square matrices")
    size = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(size, size)


def hamiltonian(params: ModelParams, dim: EnsembleDim) -> np.ndarray:
    """Joint Hamiltonian on the 2(N+1)-dimensional probe-ancilla space."""
    jx, _, jz = collective_ops(dim)
    eye = np.eye(dim.dim, dtype=complex)
    coupling_op = jz if params.kind == "zz" else jx
    return (
        params.omega_p * joint_embed(jz, ID2)
        + params.omega_a * joint_embed(eye, PAULI_Z)
        + params.g * joint_embed(coupling_op, PAULI_Z)
    )


def encoding_generator(params: ModelParams, dim: EnsembleDim) -> np.ndarray:
    """The generator of the encoding rotation: J_x for ZZ, J_z for XZ (dense reference)."""
    jx, _, jz = collective_ops(dim)
    return jx if params.kind == "zz" else jz


def _legs(params: ModelParams, dim: EnsembleDim, sched: Schedule):
    """U(t2-leg), U(t1), G and the eigenpairs of G for the dense circuit, from one eigh of H and one of G.

    U(t2-leg) is U(t1)^dagger in ``exact_conjugate`` mode; G is (N+1)-dimensional,
    and R(theta) = exp(-i theta G) follows from its eigenpairs at any theta.
    """
    h_spectrum = np.linalg.eigh(hamiltonian(params, dim))
    u1 = _evolution(h_spectrum, sched.t1)
    u2 = u1.conj().T if sched.mode == "exact_conjugate" else _evolution(h_spectrum, sched.t2)
    gen = encoding_generator(params, dim)
    return u2, u1, gen, np.linalg.eigh(gen)


def circuit_unitary(params: ModelParams, dim: EnsembleDim, sched: Schedule) -> np.ndarray:
    """Full circuit unitary U(t2-leg) R(theta) U(t1) on the joint 2(N+1) space.

    The dense reference: built from exp(-i H t) of :func:`hamiltonian`, never
    from the sector pairs of :func:`~echometry.circuit.propagator`.
    """
    u2, u1, _, g_spectrum = _legs(params, dim, sched)
    return u2 @ joint_embed(_evolution(g_spectrum, sched.theta), ID2) @ u1


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
    """Hermitian M with U_theta = exp(-i theta M) once the reversal holds.

    ZZ: M = cos(g t1) J(-phi) - sin(g t1) J(pi/2 - phi) sigma_z with
    phi = omega_p t1.  XZ: M = -(c_z J_z + c_x J_x sigma_z + c_y J_y sigma_z).
    """
    jx, jy, jz = collective_ops(dim)
    if params.kind == "zz":
        phi = params.omega_p * t1
        j_minus_phi = phase_generator(dim, -phi).matrix
        j_perp = phase_generator(dim, math.pi / 2 - phi).matrix
        return math.cos(params.g * t1) * joint_embed(j_minus_phi, ID2) - math.sin(
            params.g * t1
        ) * joint_embed(j_perp, PAULI_Z)
    cx, cy, cz = bch_coefficients(params, t1)
    return -(
        cz * joint_embed(jz, ID2)
        + cx * joint_embed(jx, PAULI_Z)
        + cy * joint_embed(jy, PAULI_Z)
    )


def closed_form_unitary(params: ModelParams, dim: EnsembleDim, sched: Schedule) -> np.ndarray:
    """The circuit unitary from its closed-form generator.

    Valid whenever the reversal condition holds, i.e. in exact-conjugate mode
    or in period mode with t1 + t2 a verified reversal period.
    """
    if sched.mode == "period":
        res = 1.0 - normalized_trace(params, dim, sched.t1 + sched.t2)
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


def output_state_derivatives(
    probe: SpectralProbe, ancilla: AncillaState, params: ModelParams, sched: Schedule, thetas
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Output state together with its analytic theta-derivative at each of ``thetas`` (dense reference).

    d U_theta / d theta = U(t2-leg) (-i G) R(theta) U(t1), exact because the
    encoding generator G commutes with R(theta); differencing of unitaries is
    never used.  U(t1) and U_theta come from the dense joint Hamiltonian, not
    from the sector pairs of the production path.  One eigh of H and one of G
    serve every phase; ``sched.theta`` is not read.
    """
    u2, u1, gen, g_spectrum = _legs(params, probe.dim, sched)
    rho0 = joint_embed(probe.density(), ancilla.rho)
    states = []
    for theta in thetas:
        rotation = _evolution(g_spectrum, theta)
        u = u2 @ joint_embed(rotation, ID2) @ u1
        du = u2 @ joint_embed(-1j * gen @ rotation, ID2) @ u1
        rho = u @ rho0 @ u.conj().T
        half = du @ rho0 @ u.conj().T
        states.append((rho, half + half.conj().T))
    return states


def output_state_derivative(
    probe: SpectralProbe, ancilla: AncillaState, params: ModelParams, sched: Schedule
) -> tuple[np.ndarray, np.ndarray]:
    """Output state together with its analytic theta-derivative at ``sched.theta`` (dense reference)."""
    return output_state_derivatives(probe, ancilla, params, sched, [sched.theta])[0]


def qfi_simplified(probe: SpectralProbe, generator: PhaseGenerator) -> FisherResult:
    """Mean square of the optimized phase generator: 4 sum_i p_i <G^2>_i."""
    gv = generator.matrix @ probe.vectors
    value = 4.0 * float(np.sum(probe.weights * np.einsum("ik,ik->k", gv.conj(), gv).real))
    return FisherResult(value=value)


def qfi_sld_oracle(rho_theta: np.ndarray, drho_theta: np.ndarray) -> FisherResult:
    """Fisher information from the symmetric-logarithmic-derivative expansion.

    F_Q = 2 sum_{k,l} |<k| drho |l>|^2 / (lambda_k + lambda_l) over eigenpairs
    of rho with lambda_k + lambda_l above the spectral cutoff.  Independent of
    the two-term path: it only sees the output state and its derivative.
    """
    rho = np.asarray(rho_theta, dtype=complex)
    drho = np.asarray(drho_theta, dtype=complex)
    assert_hermitian(rho, name="output state")
    assert_hermitian(drho, tol=1e-10, name="output-state derivative")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ContractViolation("output state must have unit trace")
    if abs(np.trace(drho)) > 1e-9:
        raise ContractViolation("output-state derivative must be traceless")
    vals, vecs = np.linalg.eigh(rho)
    if vals.min() < -1e-10:
        raise ContractViolation("output state is not positive semidefinite")
    md = vecs.conj().T @ drho @ vecs
    denom = vals[:, None] + vals[None, :]
    mask = denom > EPS_SPECTRUM
    value = 2.0 * float(np.sum((np.abs(md) ** 2)[mask] / denom[mask]))
    return FisherResult(value=value)
