"""Quantum and classical Fisher information of the time-reversal circuit.

The encoded family is rho(theta) = U_theta (rho_P (x) rho_A) U_theta^dagger.
Because the encoding rotation commutes with its own generator G, the
effective generator

    H_eff = U(t1)^dagger G U(t1)

is independent of theta and of the second circuit leg, so the quantum Fisher
information reduces to the two-term spectral sum

    F_Q = 4 sum_i p_i <H_eff^2>_i - sum_ij 8 p_i p_j / (p_i + p_j) |<i|H_eff|j>|^2

over the joint eigenpairs of the input state rho_P (x) rho_A, pure or
dephased ancilla alike.  The sum and the classical readout work on
sector-major joint columns of shape (2, N+1, k) (ancilla sector |e>, |g>;
probe index; input column), so every operator is an (N+1)-dimensional
probe block.  An independent cross-check, :func:`qfi_sld_oracle`, computes
the same quantity from the symmetric logarithmic derivative of the output
density matrix and an analytically supplied d rho / d theta
(:func:`output_state_derivative`), built from the dense joint Hamiltonian and
never reusing the two-term path or the sector blocks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .circuit import (
    ModelParams,
    Schedule,
    circuit_unitary,
    encoder,
    encoding_generator,
    hamiltonian,
    optimal_generator,
    propagator,
)
from .spin import (
    ContractViolation,
    EnsembleDim,
    PhaseGenerator,
    ID2,
    KET_E,
    KET_G,
    assert_hermitian,
    eigenbasis,
    generator_matrix,
    joint_embed,
    unitary_of_hermitian,
)
from .states import EPS_SPECTRUM, AncillaState, SpectralProbe, ThermalSpec

__all__ = [
    "EPS_PROB",
    "FisherResult",
    "DeviationSpec",
    "ProbabilityTable",
    "output_state",
    "output_state_derivative",
    "qfi_general",
    "qfi_simplified",
    "qfi_sld_oracle",
    "qfi_thermal",
    "qfi_deviation",
    "measurement_probs",
    "cfi",
]

# Measurement rows with probability below EPS_PROB *and* derivative below
# sqrt(EPS_PROB) carry no information and are dropped from the CFI sum.
EPS_PROB = 1e-12


@dataclass(frozen=True)
class FisherResult:
    """A Fisher-information value tagged with the method that produced it."""

    value: float
    method: str

    def __post_init__(self) -> None:
        if math.isnan(self.value) or self.value < -1e-9:
            raise ContractViolation(f"Fisher information came out as {self.value!r}")
        object.__setattr__(self, "value", max(float(self.value), 0.0))


@dataclass(frozen=True)
class DeviationSpec:
    """Additive control errors on the coupling and the probe frequency."""

    delta_g: float = 0.0
    delta_omega_p: float = 0.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.delta_g) and np.isfinite(self.delta_omega_p)):
            raise ContractViolation("deviations must be finite")


@dataclass(frozen=True)
class ProbabilityTable:
    """Outcome probabilities as rows (m label, branch '+'/'-', probability).

    The label is the probe-generator eigenvalue for full-system projectors
    and ``None`` for the ancilla-only readout.
    """

    rows: tuple[tuple[float | None, str, float], ...]

    def __post_init__(self) -> None:
        probs = self.probabilities
        if np.any(probs < -1e-12) or np.any(probs > 1.0 + 1e-12):
            raise ContractViolation("probabilities must lie in [0, 1]")
        if abs(probs.sum() - 1.0) > 1e-10:
            raise ContractViolation("outcome probabilities must sum to one")

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([row[2] for row in self.rows], dtype=float)


def _input_density(probe: SpectralProbe, ancilla: AncillaState) -> np.ndarray:
    return joint_embed(probe.density(), ancilla.rho)


def output_state(
    probe: SpectralProbe, ancilla: AncillaState, params: ModelParams, sched: Schedule
) -> np.ndarray:
    """Output density matrix U_theta (rho_P (x) rho_A) U_theta^dagger (dense reference)."""
    u = circuit_unitary(params, probe.dim, sched)
    return u @ _input_density(probe, ancilla) @ u.conj().T


def output_state_derivative(
    probe: SpectralProbe, ancilla: AncillaState, params: ModelParams, sched: Schedule
) -> tuple[np.ndarray, np.ndarray]:
    """Output state together with its analytic theta-derivative (dense reference).

    d U_theta / d theta = U(t2-leg) (-i G) R(theta) U(t1) = U_theta U(t1)^dagger
    (-i G) U(t1), because the encoding generator G commutes with R(theta);
    differencing of unitaries is never used.  U(t1) and U_theta come from the
    dense joint Hamiltonian, not from the sector blocks of the production path.
    """
    dim = probe.dim
    u = circuit_unitary(params, dim, sched)
    u1 = unitary_of_hermitian(hamiltonian(params, dim), sched.t1)
    du = u @ u1.conj().T @ joint_embed(-1j * encoding_generator(params, dim), ID2) @ u1
    rho0 = _input_density(probe, ancilla)
    rho = u @ rho0 @ u.conj().T
    half = du @ rho0 @ u.conj().T
    return rho, half + half.conj().T


def _input_spectrum(probe: SpectralProbe, ancilla: AncillaState) -> tuple[np.ndarray, np.ndarray]:
    """Joint input eigenpairs: weights p_i q_a and columns v_i (x) a_a.

    The columns are sector-major, shape (2, N+1, k).  A pure ancilla
    contributes its ket with weight 1, a dephased one the eigenpairs of its
    density matrix; joint weights at or below the spectral cutoff are dropped.
    """
    q, a = (np.ones(1), ancilla.ket[:, None]) if ancilla.is_pure else np.linalg.eigh(ancilla.rho)
    w = np.outer(probe.weights, q).ravel()
    psi = (a[:, None, None, :] * probe.vectors[None, :, :, None]).reshape(2, probe.dim.dim, w.size)
    keep = w > EPS_SPECTRUM
    return w[keep], psi[..., keep]


def _two_term_sum(weights: np.ndarray, columns: np.ndarray, h_columns: np.ndarray) -> float:
    """The two-term spectral sum over input eigenpairs (w_k, psi_k), given H psi_k.

    F_Q = 4 sum_k w_k ||H psi_k||^2 - sum_kl 8 w_k w_l / (w_k + w_l) |<psi_k|H|psi_l>|^2
    for a Hermitian generator H (Liu et al., J. Phys. A 53, 023001, 2020).
    A difference within 1e-12 of term 1 is rounding noise of the two sums
    (it grows like ||H||^2 eps) and is returned as exactly 0.
    """
    term1 = 4.0 * float(np.sum(weights * np.einsum("ik,ik->k", h_columns.conj(), h_columns).real))
    overlaps = columns.conj().T @ h_columns
    coef = 8.0 * np.outer(weights, weights) / (weights[:, None] + weights[None, :])
    value = term1 - float(np.sum(coef * np.abs(overlaps) ** 2))
    return 0.0 if abs(value) <= 1e-12 * term1 else value


def qfi_general(
    probe: SpectralProbe, ancilla: AncillaState, params: ModelParams, sched: Schedule
) -> FisherResult:
    """Quantum Fisher information of the output family, for any ancilla.

    Evaluates the two-term spectral sum of H_eff = U(t1)^dagger G U(t1) over
    the joint input spectrum (see :func:`_input_spectrum`), so a pure and a
    dephased ancilla take the same path.  The result is exactly independent
    of theta and of the second circuit leg.
    """
    dim = probe.dim
    w, psi = _input_spectrum(probe, ancilla)
    u1 = propagator(params, dim, sched.t1)
    h_psi = u1.conj().transpose(0, 2, 1) @ (encoding_generator(params, dim) @ (u1 @ psi))
    value = _two_term_sum(w, psi.reshape(-1, w.size), h_psi.reshape(-1, w.size))
    return FisherResult(value=value, method="general")


def qfi_simplified(probe: SpectralProbe, generator: PhaseGenerator) -> FisherResult:
    """Mean square of the optimized phase generator: 4 sum_i p_i <G^2>_i."""
    g = generator_matrix(generator)
    v = probe.vectors
    gv = g @ v
    value = 4.0 * float(np.sum(probe.weights * np.einsum("ik,ik->k", gv.conj(), gv).real))
    return FisherResult(value=value, method="simplified")


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
    return FisherResult(value=value, method="sld_oracle")


def qfi_thermal(dim: EnsembleDim, beta: float) -> tuple[FisherResult, FisherResult]:
    """Thermal-probe information at the optimum: exact sum and large-N form.

    Exact: 4 sum_m m^2 p_m over the Boltzmann weights of
    :meth:`ThermalSpec.weights`.  Large N: N^2 - 4N/(e^beta - 1)
    + 4(e^beta + 1)/(e^beta - 1)^2, which requires beta > 0.
    """
    if beta <= 0.0:
        raise ContractViolation("the large-N thermal form diverges for beta <= 0")
    m = dim.m_values()
    exact = 4.0 * float(np.sum(m * m * ThermalSpec(dim, beta).weights()))
    n = dim.n_spins
    eb = math.exp(beta)
    large_n = n * n - 4.0 * n / (eb - 1.0) + 4.0 * (eb + 1.0) / (eb - 1.0) ** 2
    return (
        FisherResult(value=exact, method="thermal_exact"),
        FisherResult(value=large_n, method="thermal_large_n"),
    )


def qfi_deviation(dim: EnsembleDim, spec: DeviationSpec, t1: float) -> FisherResult:
    """Quadratic control-error law N^2 - N(N-1)(dwp^2 + dg^2) t1^2.

    Valid to second order for small deviations; a warning is issued once the
    dimensionless products |delta * t1| leave the trusted range.
    """
    n = dim.n_spins
    for name, delta in (("delta_g", spec.delta_g), ("delta_omega_p", spec.delta_omega_p)):
        if abs(delta * t1) > 0.1:
            warnings.warn(
                f"|{name} * t1| = {abs(delta * t1):.3g} exceeds 0.1; "
                "the quadratic law is a small-deviation expansion",
                stacklevel=2,
            )
    value = n * n - n * (n - 1) * (spec.delta_omega_p**2 + spec.delta_g**2) * t1 * t1
    return FisherResult(value=value, method="deviation")


# The ancilla readout kets |+> and |-> as columns.
_PLUS_MINUS = np.stack([KET_E + KET_G, KET_E - KET_G], axis=1) / np.sqrt(2.0)


def _readout_basis(basis: str, generator) -> tuple[np.ndarray | None, list]:
    """Probe rotation and (m, branch) labels of a readout basis, m ascending.

    The rotation's columns are the generator eigenvectors |m>_gen of the
    full-system projectors |m>_gen (x) |+/->; it is None for the ancilla-only
    readout, whose projectors I (x) |+/-><+/-| have rank N+1.
    """
    if basis == "full_system":
        if generator is None:
            raise ContractViolation("full-system readout needs a probe generator")
        vals, vecs = eigenbasis(generator_matrix(generator))
        return vecs, [(float(m), branch) for m in vals for branch in ("+", "-")]
    if basis == "ancilla_only":
        return None, [(None, "+"), (None, "-")]
    raise ContractViolation(f"unknown measurement basis {basis!r}")


def _readout_amplitudes(states: np.ndarray, vecs: np.ndarray | None) -> np.ndarray:
    """Amplitudes of each readout outcome for the sector-major state columns x_k.

    Shape (rank, outcomes, k).  A full-system projector has rank 1, and its
    outcomes run over (m, branch) in label order; an ancilla-only projector
    has rank N+1 (one amplitude per probe basis state) and two outcomes.
    """
    rotated = states if vecs is None else vecs.conj().T @ states
    amp = np.einsum("sb,sik->ibk", _PLUS_MINUS.conj(), rotated)
    return amp if vecs is None else amp.reshape(1, -1, amp.shape[-1])


def _readout_probs(
    probe: SpectralProbe,
    ancilla: AncillaState,
    params: ModelParams,
    sched: Schedule,
    vecs: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities p and their theta-derivatives dp, from output amplitudes.

    Each input eigenpair (w_k, psi_k) is carried through the circuit as
    chi_k = R(theta) U(t1) psi_k, phi_k = U(t2-leg) chi_k and
    d phi_k = U(t2-leg) (-i G) chi_k, sector by sector; then
    p = sum_k w_k |<c|phi_k>|^2 and dp = sum_k 2 w_k Re(<phi_k|c><c|d phi_k>).
    No density matrix is formed.
    """
    dim = probe.dim
    w, psi = _input_spectrum(probe, ancilla)
    u1 = propagator(params, dim, sched.t1)
    u2 = (
        u1.conj().transpose(0, 2, 1) if sched.mode == "exact_conjugate" else propagator(params, dim, sched.t2)
    )
    chi = encoder(params.kind, sched.theta, dim) @ (u1 @ psi)
    amp = _readout_amplitudes(u2 @ chi, vecs)
    damp = _readout_amplitudes(u2 @ (-1j * (encoding_generator(params, dim) @ chi)), vecs)
    p = np.einsum("ick,k->c", np.abs(amp) ** 2, w)
    dp = 2.0 * np.einsum("ick,k->c", (amp.conj() * damp).real, w)
    return p, dp


def measurement_probs(
    probe: SpectralProbe,
    ancilla: AncillaState,
    params: ModelParams,
    sched: Schedule,
    basis: str = "full_system",
    generator=None,
) -> ProbabilityTable:
    """Projective-measurement outcome table of the circuit's output state.

    ``basis="full_system"`` projects on |j,m>_gen (x) |+/-> over the supplied
    generator's eigenbasis; ``basis="ancilla_only"`` projects the qubit alone
    on |+/->.
    """
    vecs, labels = _readout_basis(basis, generator)
    probs, _ = _readout_probs(probe, ancilla, params, sched, vecs)
    rows = tuple((m, branch, float(pk)) for (m, branch), pk in zip(labels, probs))
    return ProbabilityTable(rows=rows)


def cfi(
    probe: SpectralProbe,
    ancilla: AncillaState,
    params: ModelParams,
    sched: Schedule,
    generator=None,
    theta_eval: float = 0.2,
    basis: str = "full_system",
) -> FisherResult:
    """Classical Fisher information of the projective readout at theta_eval.

    The readout basis is fixed by ``generator`` (default: the optimized
    generator for ``params``) and does not follow the schedule, so arbitrary
    (t1, t2) pairs can be scanned against the same measurement.  The
    derivative of each outcome probability is exact, from the output
    amplitudes.
    """
    if generator is None:
        generator = optimal_generator(params, probe.dim)
    vecs, _ = _readout_basis(basis, generator)
    p, dp = _readout_probs(probe, ancilla, params, replace(sched, theta=theta_eval), vecs)
    keep = ~((p < EPS_PROB) & (np.abs(dp) < math.sqrt(EPS_PROB)))
    value = float(np.sum(dp[keep] ** 2 / p[keep]))
    return FisherResult(value=value, method="cfi_analytic")
