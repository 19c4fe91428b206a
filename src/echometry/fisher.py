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
probe block.  The grid kernels :func:`qfi_grid` and :func:`cfi_grid`
evaluate one probe over whole axes of ancillas and step times in one
broadcast; :func:`qfi_general` and :func:`cfi` are their one-cell calls.
An independent cross-check, :func:`qfi_sld_oracle`, computes
the same quantity from the symmetric logarithmic derivative of the output
density matrix and an analytically supplied d rho / d theta
(:func:`output_state_derivative`), built from the dense joint Hamiltonian and
never reusing the two-term path or the sector blocks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .circuit import (
    ModelParams,
    Schedule,
    apply_encoding_generator,
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
    "qfi_grid",
    "qfi_simplified",
    "qfi_sld_oracle",
    "qfi_thermal",
    "qfi_deviation",
    "measurement_probs",
    "cfi",
    "cfi_grid",
]

# Measurement rows with probability below EPS_PROB *and* derivative below
# sqrt(EPS_PROB) are readout nodes: their term dp^2 / p is replaced by its
# limit at p -> 0 (see :func:`cfi_grid`).
EPS_PROB = 1e-12

# Complex entries that one slice of a grid kernel's stacked blocks (propagators
# and state columns) may hold, 0.5 MB: the kernels walk their time axis in
# slices of at most this size, and at least one time each.  The temporaries
# of a slice take a few times as much again.
_SLICE_ENTRIES = 2**15


def _checked(values) -> np.ndarray:
    """Fisher values under the :class:`FisherResult` contract, cell by cell.

    A NaN or a value below -1e-9 raises; small negatives (rounding) clamp to 0.
    """
    values = np.asarray(values, dtype=float)
    bad = np.isnan(values) | (values < -1e-9)
    if np.any(bad):
        raise ContractViolation(f"Fisher information came out as {float(values[bad][0])!r}")
    return np.maximum(values, 0.0)


@dataclass(frozen=True)
class FisherResult:
    """A Fisher-information value tagged with the method that produced it."""

    value: float
    method: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(_checked(self.value)))


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


def _times(t) -> np.ndarray:
    """Step durations as a float array; each must be finite and nonnegative."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)) or np.any(t < 0.0):
        raise ContractViolation("step durations must be finite and nonnegative")
    return t


def _slices(count: int, entries_per_time: int):
    """Consecutive slices of a time axis, each within the ``_SLICE_ENTRIES`` budget."""
    step = max(1, _SLICE_ENTRIES // entries_per_time)
    return (slice(lo, lo + step) for lo in range(0, count, step))


def _two_term_sum(weights: np.ndarray, columns: np.ndarray, h_columns: np.ndarray) -> np.ndarray:
    """The two-term spectral sum over input eigenpairs (w_k, psi_k), given H psi_k.

    F_Q = 4 sum_k w_k ||H psi_k||^2 - sum_kl 8 w_k w_l / (w_k + w_l) |<psi_k|H|psi_l>|^2
    for a Hermitian generator H (Liu et al., J. Phys. A 53, 023001, 2020).
    The columns have shape (..., D, k); the sum is taken per leading index.
    A difference within 1e-12 of term 1 is rounding noise of the two sums
    (it grows like ||H||^2 eps) and is returned as exactly 0.
    """
    term1 = 4.0 * np.sum(weights * np.einsum("...ik,...ik->...k", h_columns.conj(), h_columns).real, axis=-1)
    overlaps = np.swapaxes(columns.conj(), -1, -2) @ h_columns
    coef = 8.0 * np.outer(weights, weights) / (weights[:, None] + weights[None, :])
    value = term1 - np.sum(coef * np.abs(overlaps) ** 2, axis=(-2, -1))
    return np.where(np.abs(value) <= 1e-12 * term1, 0.0, value)


def _qfi_columns(
    weights: np.ndarray, psi: np.ndarray, params: ModelParams, dim: EnsembleDim, t1s: np.ndarray
) -> np.ndarray:
    """Two-term sums of H_eff = U(t1)^dagger G U(t1) for stacked input columns.

    ``psi`` has shape (A, 2, N+1, k), A input spectra sharing the weights;
    the result has shape (A, T) over the T step times.
    """
    n_anc, n_cols = psi.shape[0], weights.size
    columns = psi.reshape(n_anc, 1, -1, n_cols)
    out = np.empty((n_anc, t1s.size))
    for sl in _slices(t1s.size, 2 * dim.dim * (dim.dim + n_anc * n_cols)):
        u1 = propagator(params, dim, t1s[sl])
        h_psi = u1.conj().swapaxes(-1, -2) @ apply_encoding_generator(params, dim, u1 @ psi[:, None])
        out[:, sl] = _two_term_sum(weights, columns, h_psi.reshape(n_anc, -1, 2 * dim.dim, n_cols))
    return out


def qfi_grid(probe: SpectralProbe, ancillas, params: ModelParams, t1s) -> np.ndarray:
    """Quantum Fisher information of one probe over ancillas x first-step times.

    Returns shape (len(ancillas), len(t1s)); cell (a, t) is
    ``qfi_general`` for ancilla a at step time t1s[t].  Pure ancillas share
    the probe's weights, so their input columns are stacked into one
    broadcast; a dephased ancilla has its own input spectrum and is
    evaluated on its own.  Each cell obeys the :class:`FisherResult`
    contract.
    """
    t1s = _times(t1s)
    if t1s.ndim != 1:
        raise ContractViolation("step times must be a 1-D array")
    dim = probe.dim
    out = np.empty((len(ancillas), t1s.size))
    pure = [a for a, anc in enumerate(ancillas) if anc.is_pure]
    groups = ([pure] if pure else []) + [[a] for a, anc in enumerate(ancillas) if not anc.is_pure]
    for rows in groups:
        spectra = [_input_spectrum(probe, ancillas[a]) for a in rows]
        psi = np.stack([columns for _, columns in spectra])
        out[rows] = _qfi_columns(spectra[0][0], psi, params, dim, t1s)
    return _checked(out)


def qfi_general(
    probe: SpectralProbe, ancilla: AncillaState, params: ModelParams, sched: Schedule
) -> FisherResult:
    """Quantum Fisher information of the output family, for any ancilla.

    Evaluates the two-term spectral sum of H_eff = U(t1)^dagger G U(t1) over
    the joint input spectrum (see :func:`_input_spectrum`), so a pure and a
    dephased ancilla take the same path; one cell of :func:`qfi_grid`.  The
    result is exactly independent of theta and of the second circuit leg.
    """
    value = qfi_grid(probe, [ancilla], params, [sched.t1])[0, 0]
    return FisherResult(value=value, method="general")


def qfi_simplified(probe: SpectralProbe, generator: PhaseGenerator) -> FisherResult:
    """Mean square of the optimized phase generator: 4 sum_i p_i <G^2>_i."""
    gv = generator.matrix @ probe.vectors
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


def _readout_basis(basis: str, generator: PhaseGenerator | None) -> tuple[np.ndarray | None, list]:
    """Probe rotation and (m, branch) labels of a readout basis, m ascending.

    The rotation's columns are the generator eigenvectors |m>_gen of the
    full-system projectors |m>_gen (x) |+/->; it is None for the ancilla-only
    readout, whose projectors I (x) |+/-><+/-| have rank N+1.
    """
    if basis == "full_system":
        if generator is None:
            raise ContractViolation("full-system readout needs a probe generator")
        vals, vecs = generator.frame
        return vecs, [(float(m), branch) for m in vals for branch in ("+", "-")]
    if basis == "ancilla_only":
        return None, [(None, "+"), (None, "-")]
    raise ContractViolation(f"unknown measurement basis {basis!r}")


def _readout_amplitudes(states: np.ndarray, vecs: np.ndarray | None) -> np.ndarray:
    """Amplitudes of each readout outcome for the sector-major state columns x_k.

    States have shape (..., 2, N+1, k); amplitudes (..., rank, outcomes, k).
    A full-system projector has rank 1, and its outcomes run over
    (m, branch) in label order; an ancilla-only projector has rank N+1 (one
    amplitude per probe basis state) and two outcomes.
    """
    rotated = states if vecs is None else vecs.conj().T @ states
    amp = np.einsum("sb,...sik->...ibk", _PLUS_MINUS.conj(), rotated)
    return amp if vecs is None else amp.reshape(*amp.shape[:-3], 1, -1, amp.shape[-1])


def _readout_probs(
    probe: SpectralProbe,
    ancilla: AncillaState,
    params: ModelParams,
    t1s: np.ndarray,
    t2s: np.ndarray,
    mode: str,
    theta: float,
    vecs: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcome probabilities p, their theta-derivatives dp and node limits, from output amplitudes.

    For P step-time pairs (t1s, t2s, 1-D) each result has shape (P, outcomes).
    Each input eigenpair (w_k, psi_k) is carried through the circuit as
    chi_k = R(theta) U(t1) psi_k, phi_k = U(t2-leg) chi_k and
    d phi_k = U(t2-leg) (-i G) chi_k, sector by sector; then
    p = sum_k w_k |<c|phi_k>|^2, dp = sum_k 2 w_k Re(<phi_k|c><c|d phi_k>) and
    the node limit of dp^2 / p is 4 sum_k w_k |<c|d phi_k>|^2.  The second leg
    is U(t1)^dagger in ``exact_conjugate`` mode and U(t2) otherwise.  No
    density matrix is formed.
    """
    dim = probe.dim
    w, psi = _input_spectrum(probe, ancilla)
    rotation = encoder(params.kind, theta, dim)
    results = []
    for sl in _slices(t1s.size, 2 * dim.dim * (2 * dim.dim + 3 * w.size)):
        u1 = propagator(params, dim, t1s[sl])
        u2 = u1.conj().swapaxes(-1, -2) if mode == "exact_conjugate" else propagator(params, dim, t2s[sl])
        chi = rotation @ (u1 @ psi)
        amp = _readout_amplitudes(u2 @ chi, vecs)
        damp = _readout_amplitudes(u2 @ (-1j * apply_encoding_generator(params, dim, chi)), vecs)
        p = np.einsum("...ick,k->...c", np.abs(amp) ** 2, w)
        dp = 2.0 * np.einsum("...ick,k->...c", (amp.conj() * damp).real, w)
        node = 4.0 * np.einsum("...ick,k->...c", np.abs(damp) ** 2, w)
        results.append((p, dp, node))
    return tuple(np.concatenate(parts) for parts in zip(*results))


def measurement_probs(
    probe: SpectralProbe,
    ancilla: AncillaState,
    params: ModelParams,
    sched: Schedule,
    basis: str = "full_system",
    generator: PhaseGenerator | None = None,
) -> ProbabilityTable:
    """Projective-measurement outcome table of the circuit's output state.

    ``basis="full_system"`` projects on |j,m>_gen (x) |+/-> over the supplied
    generator's eigenbasis; ``basis="ancilla_only"`` projects the qubit alone
    on |+/->.
    """
    vecs, labels = _readout_basis(basis, generator)
    t1s, t2s = _times([sched.t1]), _times([sched.t2])
    probs = _readout_probs(probe, ancilla, params, t1s, t2s, sched.mode, sched.theta, vecs)[0][0]
    rows = tuple((m, branch, float(pk)) for (m, branch), pk in zip(labels, probs))
    return ProbabilityTable(rows=rows)


def cfi_grid(
    probe: SpectralProbe,
    ancilla: AncillaState,
    params: ModelParams,
    t1s,
    t2s,
    mode: str,
    generator: PhaseGenerator | None = None,
    theta_eval: float = 0.2,
    basis: str = "full_system",
) -> np.ndarray:
    """Classical Fisher information of the projective readout over (t1, t2) pairs.

    ``t1s`` and ``t2s`` broadcast against each other, and the result has
    their broadcast shape; cell by cell it is :func:`cfi` of the schedule
    (t1, t2, ``mode``).  In ``exact_conjugate`` mode the second leg is
    U(t1)^dagger and t2 is not used.  The readout basis is fixed by
    ``generator`` (default: the optimized generator for ``params``) and does
    not follow the schedule.  A readout node (p below ``EPS_PROB`` and |dp|
    below its square root) contributes the limit 4 sum_k w_k |d a_k|^2 of
    dp^2 / p, from the output amplitudes' derivatives d a_k, instead of a
    ratio of two rounding-level numbers.
    """
    if mode not in ("period", "exact_conjugate"):
        raise ContractViolation(f"unknown reversal mode {mode!r}")
    t1s, t2s = np.broadcast_arrays(_times(t1s), _times(t2s))
    if generator is None:
        generator = optimal_generator(params, probe.dim)
    vecs, _ = _readout_basis(basis, generator)
    p, dp, node = _readout_probs(probe, ancilla, params, t1s.ravel(), t2s.ravel(), mode, theta_eval, vecs)
    at_node = (p < EPS_PROB) & (np.abs(dp) < math.sqrt(EPS_PROB))
    terms = np.where(at_node, node, dp**2 / np.where(at_node, 1.0, p))
    return _checked(terms.sum(axis=-1)).reshape(t1s.shape)


def cfi(
    probe: SpectralProbe,
    ancilla: AncillaState,
    params: ModelParams,
    sched: Schedule,
    generator: PhaseGenerator | None = None,
    theta_eval: float = 0.2,
    basis: str = "full_system",
) -> FisherResult:
    """Classical Fisher information of the projective readout at theta_eval.

    The readout basis is fixed by ``generator`` (default: the optimized
    generator for ``params``) and does not follow the schedule, so arbitrary
    (t1, t2) pairs can be scanned against the same measurement.  The
    derivative of each outcome probability is exact, from the output
    amplitudes; one cell of :func:`cfi_grid`.
    """
    value = cfi_grid(probe, ancilla, params, sched.t1, sched.t2, sched.mode, generator, theta_eval, basis)
    return FisherResult(value=value, method="cfi_analytic")
