"""Quantum and classical Fisher information of the time-reversal circuit.

The encoded family is rho(theta) = U_theta (rho_P (x) rho_A) U_theta^dagger.
Because the encoding rotation commutes with its own generator G, the
effective generator

    H_eff = U(t1)^dagger G U(t1)

is independent of theta and of the second circuit leg, so the quantum Fisher
information reduces to the two-term spectral sum

    F_Q = 4 sum_i p_i <H_eff^2>_i - sum_ij 8 p_i p_j / (p_i + p_j) |<i|H_eff|j>|^2

over the joint eigenpairs of the input state rho_P (x) rho_A, pure or
dephased ancilla alike.  An independent cross-check,
:func:`qfi_sld_oracle`, computes the same quantity from the symmetric
logarithmic derivative of the output density matrix and an analytically
supplied d rho / d theta, never reusing the two-term path.
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
    optimal_generator,
    propagator,
)
from .spin import (
    ContractViolation,
    EnsembleDim,
    PhaseGenerator,
    KET_E,
    KET_G,
    assert_hermitian,
    eigenbasis,
    generator_matrix,
    joint_embed,
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
    """Output density matrix U_theta (rho_P (x) rho_A) U_theta^dagger."""
    u = circuit_unitary(params, probe.dim, sched)
    return u @ _input_density(probe, ancilla) @ u.conj().T


def output_state_derivative(
    probe: SpectralProbe, ancilla: AncillaState, params: ModelParams, sched: Schedule
) -> tuple[np.ndarray, np.ndarray]:
    """Output state together with its analytic theta-derivative.

    d U_theta / d theta = U(t2-leg) (-i G) R(theta) U(t1) with G the encoding
    generator; differencing of unitaries is never used.
    """
    dim = probe.dim
    u1 = propagator(params, dim, sched.t1)
    u2 = u1.conj().T if sched.mode == "exact_conjugate" else propagator(params, dim, sched.t2)
    r = encoder(params.kind, sched.theta, dim)
    g = encoding_generator(params, dim)
    u = u2 @ r @ u1
    du = u2 @ (-1j * g) @ r @ u1
    rho0 = _input_density(probe, ancilla)
    rho = u @ rho0 @ u.conj().T
    half = du @ rho0 @ u.conj().T
    return rho, half + half.conj().T


def _input_spectrum(probe: SpectralProbe, ancilla: AncillaState) -> tuple[np.ndarray, np.ndarray]:
    """Joint input eigenpairs: weights p_i q_a and columns v_i (x) a_a.

    A pure ancilla contributes its ket with weight 1, a dephased one the
    eigenpairs of its density matrix; joint weights at or below the spectral
    cutoff are dropped.
    """
    q, a = (np.ones(1), ancilla.ket[:, None]) if ancilla.is_pure else np.linalg.eigh(ancilla.rho)
    w = np.outer(probe.weights, q).ravel()
    psi = (probe.vectors[:, None, :, None] * a[None, :, None, :]).reshape(2 * probe.dim.dim, w.size)
    keep = w > EPS_SPECTRUM
    return w[keep], psi[:, keep]


def _two_term_sum(weights: np.ndarray, columns: np.ndarray, h_columns: np.ndarray) -> float:
    """The two-term spectral sum over input eigenpairs (w_k, psi_k), given H psi_k.

    F_Q = 4 sum_k w_k ||H psi_k||^2 - sum_kl 8 w_k w_l / (w_k + w_l) |<psi_k|H|psi_l>|^2
    for a Hermitian generator H (Liu et al., J. Phys. A 53, 023001, 2020).
    """
    term1 = 4.0 * float(np.sum(weights * np.einsum("ik,ik->k", h_columns.conj(), h_columns).real))
    overlaps = columns.conj().T @ h_columns
    coef = 8.0 * np.outer(weights, weights) / (weights[:, None] + weights[None, :])
    return term1 - float(np.sum(coef * np.abs(overlaps) ** 2))


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
    h_psi = u1.conj().T @ (encoding_generator(params, dim) @ (u1 @ psi))
    return FisherResult(value=_two_term_sum(w, psi, h_psi), method="general")


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


def _full_system_projectors(generator) -> tuple[np.ndarray, list[tuple[float, str]]]:
    """Columns |m>_gen (x) |+/-> and the (m, branch) labels, m ascending."""
    vals, vecs = eigenbasis(generator_matrix(generator))
    labels = [(float(m), branch) for m in vals for branch in ("+", "-")]
    return np.kron(vecs, _PLUS_MINUS), labels


def _ancilla_reduced(rho: np.ndarray) -> np.ndarray:
    d = rho.shape[0] // 2
    return np.einsum("iaib->ab", rho.reshape(d, 2, d, 2))


def _readout_basis(basis: str, generator) -> tuple[np.ndarray | None, list]:
    """Projector columns and (m, branch) labels of a readout basis.

    Columns are None for the ancilla-only readout, whose projectors
    I (x) |+/-><+/-| have rank N+1.
    """
    if basis == "full_system":
        if generator is None:
            raise ContractViolation("full-system readout needs a probe generator")
        return _full_system_projectors(generator)
    if basis == "ancilla_only":
        return None, [(None, "+"), (None, "-")]
    raise ContractViolation(f"unknown measurement basis {basis!r}")


def _readout_diagonal(op: np.ndarray, columns: np.ndarray | None) -> np.ndarray:
    """Expectation of a joint operator in each readout projector."""
    if columns is None:
        op, columns = _ancilla_reduced(op), _PLUS_MINUS
    return np.einsum("ik,ik->k", columns.conj(), op @ columns).real


def _readout_amplitudes(states: np.ndarray, columns: np.ndarray | None) -> np.ndarray:
    """Amplitudes <i, c|x_k> of each readout outcome c for the state columns x_k.

    Shape (rank, outcomes, k): a full-system projector has rank 1, an
    ancilla-only projector I (x) |+/-><+/-| rank N+1 (one amplitude per
    probe basis state i).
    """
    if columns is None:
        return _PLUS_MINUS.conj().T @ states.reshape(-1, 2, states.shape[1])
    return (columns.conj().T @ states)[None]


def _readout_probs(
    probe: SpectralProbe,
    ancilla: AncillaState,
    params: ModelParams,
    sched: Schedule,
    columns: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities p and their theta-derivatives dp, from output amplitudes.

    Each input eigenpair (w_k, psi_k) is carried through the circuit as
    chi_k = R(theta) U(t1) psi_k, phi_k = U(t2-leg) chi_k and
    d phi_k = U(t2-leg) (-i G) chi_k; then p = sum_k w_k |<c|phi_k>|^2 and
    dp = sum_k 2 w_k Re(<phi_k|c><c|d phi_k>).  No density matrix is formed.
    """
    dim = probe.dim
    w, psi = _input_spectrum(probe, ancilla)
    u1 = propagator(params, dim, sched.t1)
    u2 = u1.conj().T if sched.mode == "exact_conjugate" else propagator(params, dim, sched.t2)
    chi = encoder(params.kind, sched.theta, dim) @ (u1 @ psi)
    amp = _readout_amplitudes(u2 @ chi, columns)
    damp = _readout_amplitudes(u2 @ (-1j * (encoding_generator(params, dim) @ chi)), columns)
    p = np.einsum("ick,k->c", np.abs(amp) ** 2, w)
    dp = 2.0 * np.einsum("ick,k->c", (amp.conj() * damp).real, w)
    return p, dp


def measurement_probs(
    rho_theta: np.ndarray, basis: str = "full_system", generator=None
) -> ProbabilityTable:
    """Projective-measurement outcome table for the output state.

    ``basis="full_system"`` projects on |j,m>_gen (x) |+/-> over the supplied
    generator's eigenbasis; ``basis="ancilla_only"`` traces out the probe and
    projects the qubit on |+/->.
    """
    columns, labels = _readout_basis(basis, generator)
    probs = _readout_diagonal(np.asarray(rho_theta, dtype=complex), columns)
    rows = tuple((m, branch, float(pk)) for (m, branch), pk in zip(labels, probs))
    return ProbabilityTable(rows=rows)


def cfi(
    probe: SpectralProbe,
    ancilla: AncillaState,
    params: ModelParams,
    sched: Schedule,
    generator=None,
    theta_eval: float = 0.2,
    mode: str = "analytic",
    h: float = 1e-5,
    basis: str = "full_system",
) -> FisherResult:
    """Classical Fisher information of the projective readout at theta_eval.

    The readout basis is fixed by ``generator`` (default: the optimized
    generator for ``params``) and does not follow the schedule, so arbitrary
    (t1, t2) pairs can be scanned against the same measurement.  The analytic
    path differentiates the output amplitudes exactly; ``mode="finite_diff"``
    replaces the derivative with central differences of step ``h``.
    """
    if generator is None:
        generator = optimal_generator(params, probe.dim)
    if mode not in ("analytic", "finite_diff"):
        raise ContractViolation(f"unknown CFI mode {mode!r}")
    if mode == "finite_diff" and h <= 0.0:
        raise ContractViolation("finite-difference step must be positive")
    columns, _ = _readout_basis(basis, generator)

    def probs_at(theta: float) -> tuple[np.ndarray, np.ndarray]:
        return _readout_probs(probe, ancilla, params, replace(sched, theta=theta), columns)

    p, dp = probs_at(theta_eval)
    if mode == "finite_diff":
        dp = (probs_at(theta_eval + h)[0] - probs_at(theta_eval - h)[0]) / (2.0 * h)

    keep = ~((p < EPS_PROB) & (np.abs(dp) < math.sqrt(EPS_PROB)))
    value = float(np.sum(dp[keep] ** 2 / p[keep]))
    method = "cfi_analytic" if mode == "analytic" else "cfi_finite_diff"
    return FisherResult(value=value, method=method)
