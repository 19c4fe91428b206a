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
probe index; input column), so every operator acts on the
(N+1)-dimensional probe.  In ancilla sector s, H_eff is the spin component
c_s.J, with c_s the encoding axis rotated by the sector's SU(2) evolution;
the sum turns the encoding axis by the inverse pairs of :func:`propagator`
at every step time (:func:`~echometry.circuit.su2_rotate`, the one SO(3)
route of both kernels) and applies c_s.J as its tridiagonal band.  The
classical readout turns the whole circuit of a sector, readout rotation
included, into one SU(2) element and applies it to the input columns of
every step time at once, by one of two routes chosen by the probe alone:

* a coherent probe (``SpectralProbe.coherent_axis``, set by
  :func:`~echometry.states.polarized_probe`) maps to another coherent
  state, the closed form :func:`~echometry.states.coherent_state`, in O(N)
  per cell with no eigensolve;
* every other probe (thermal, rank above 1, or any vector without that
  declaration) goes through one real J_x frame per call
  (:func:`~echometry.circuit.apply_su2`), O(N^2).

No (N+1)-dimensional propagator is built.  The grid kernels :func:`qfi_grid`
and :func:`cfi_grid` evaluate one probe over whole axes of ancillas and
step times in one broadcast; :func:`qfi_general` and :func:`cfi` are their
one-cell calls.
The independent cross-check, the symmetric-logarithmic-derivative oracle
on the dense 2(N+1)-dimensional output state, lives in
:mod:`echometry.reference` and reuses neither the two-term path nor the
sector pairs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .circuit import (
    ModelParams,
    Schedule,
    _durations,
    apply_spin_axis,
    apply_su2,
    axis_rotation,
    encoding_axis,
    optimal_generator,
    propagator,
    sector_phases,
    su2_compose,
    su2_inverse,
    su2_rotate,
    su2_rotation,
)
from .spin import (
    ContractViolation,
    EnsembleDim,
    PhaseGenerator,
    KET_E,
    KET_G,
    _check_generator_size,
    spin_frame,
)
from .states import EPS_SPECTRUM, AncillaState, SpectralProbe, coherent_state, thermal_weights

__all__ = [
    "EPS_PROB",
    "FisherResult",
    "ProbabilityTable",
    "qfi_general",
    "qfi_grid",
    "qfi_thermal",
    "qfi_deviation",
    "measurement_probs",
    "cfi",
    "cfi_grid",
]

# A measurement row is a readout node when its probability is at most
# EPS_PROB / N^2 times the limit of dp^2 / p at a zero of its amplitudes;
# that limit is at most N^2, so a node has p <= EPS_PROB (see :func:`cfi_grid`).
EPS_PROB = 1e-12

# Complex entries that one slice of a grid kernel's stacked arrays (the CFI's
# output columns, the QFI's H psi columns) may hold,
# 0.5 MB: the kernels walk their time axis in slices of at most this size,
# and at least one time each.  The temporaries of a slice take a few times
# as much again.
_SLICE_ENTRIES = 2**15

# The weight of a pure ancilla, and the one-dimensional probe of the coherent readout.
_ONE = np.ones(1)
_ONE.setflags(write=False)


def _checked(values) -> np.ndarray:
    """Fisher values under the :class:`FisherResult` contract, cell by cell.

    A NaN or a value below -1e-9 raises; small negatives (rounding) clamp to 0.
    """
    values = np.asarray(values, dtype=float)
    bad = np.isnan(values) | (values < -1e-9)
    if bad.any():
        raise ContractViolation(f"Fisher information came out as {float(values[bad][0])!r}")
    return np.maximum(values, 0.0)


@dataclass(frozen=True)
class FisherResult:
    """A Fisher-information value, checked by :func:`_checked`."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(_checked(self.value)))


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Outcome probabilities in outcome order, labelled (m, branch '+'/'-').

    Full-system outcomes run over the probe-generator eigenvalues
    ``m_values``, ascending, each with the branches '+' and '-';
    ``m_values`` is None for the ancilla-only readout, whose two outcomes
    have the label None.
    """

    probabilities: np.ndarray
    m_values: np.ndarray | None = None

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", probs)
        if probs.shape != (2 if self.m_values is None else 2 * len(self.m_values),):
            raise ContractViolation("one probability per (m, branch) outcome")
        if np.any(probs < -1e-12) or np.any(probs > 1.0 + 1e-12):
            raise ContractViolation("probabilities must lie in [0, 1]")
        if abs(probs.sum() - 1.0) > 1e-10:
            raise ContractViolation("outcome probabilities must sum to one")

    @property
    def rows(self) -> tuple[tuple[float | None, str, float], ...]:
        """(m, branch, probability) per outcome, built on each read."""
        labels = [None] if self.m_values is None else np.asarray(self.m_values, dtype=float).tolist()
        pairs = self.probabilities.reshape(-1, 2).tolist()
        return tuple((m, branch, p) for m, pair in zip(labels, pairs) for branch, p in zip("+-", pair))


def _input_spectrum(weights: np.ndarray, vectors: np.ndarray, ancilla: AncillaState) -> tuple[np.ndarray, np.ndarray]:
    """Joint input eigenpairs: weights p_i q_a and columns v_i (x) a_a.

    ``weights`` and ``vectors`` are the probe's spectrum p_i, v_i.  The
    columns are sector-major, shape (2, D, k) for D-dimensional v_i.  A pure
    ancilla contributes its ket with weight 1, a dephased one the eigenpairs
    of its density matrix; joint weights at or below the spectral cutoff are
    dropped.
    """
    q, a = (_ONE, ancilla.ket[:, None]) if ancilla.is_pure else np.linalg.eigh(ancilla.rho)
    w = (weights[:, None] * q).ravel()
    psi = (a[:, None, None, :] * vectors[None, :, :, None]).reshape(2, vectors.shape[0], w.size)
    keep = w > EPS_SPECTRUM
    return w[keep], psi[..., keep]


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
    term1 = 4.0 * (weights * np.einsum("...ik,...ik->...k", h_columns.conj(), h_columns).real).sum(-1)
    overlaps = np.swapaxes(columns.conj(), -1, -2) @ h_columns
    coef = 8.0 * (weights[:, None] * weights) / (weights[:, None] + weights[None, :])
    value = term1 - (coef * np.abs(overlaps) ** 2).sum(axis=(-2, -1))
    return np.where(np.abs(value) <= 1e-12 * term1, 0.0, value)


def _qfi_columns(weights: np.ndarray, psi: np.ndarray, dim: EnsembleDim, axes: np.ndarray) -> np.ndarray:
    """Two-term sums of H_eff = c_s.J for stacked input columns.

    ``psi`` has shape (A, 2, N+1, k), A input spectra sharing the weights,
    and ``axes`` the (T, 2, 3) generator axes c_s at T step times; the
    result has shape (A, T).  In sector s the column
    a_s v_k maps to a_s (c_s.J) v_k, one banded product.
    """
    n_anc, n_cols = psi.shape[0], weights.size
    columns = psi.reshape(n_anc, 1, -1, n_cols)
    out = np.empty((n_anc, axes.shape[0]))
    for sl in _slices(axes.shape[0], 2 * dim.dim * n_anc * n_cols):
        h_psi = apply_spin_axis(dim, axes[sl], psi[:, None])
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
    t1s = _durations(t1s)
    if t1s.ndim != 1:
        raise ContractViolation("step times must be a 1-D array")
    dim = probe.dim
    # U_s^dagger (g.J) U_s = c_s.J: the encoding axis g turned by u_s(t1)^dagger
    axes = su2_rotate(su2_inverse(propagator(params, t1s)), encoding_axis(params.kind))
    out = np.empty((len(ancillas), t1s.size))
    pure = [a for a, anc in enumerate(ancillas) if anc.is_pure]
    groups = ([pure] if pure else []) + [[a] for a, anc in enumerate(ancillas) if not anc.is_pure]
    for rows in groups:
        spectra = [_input_spectrum(probe.weights, probe.vectors, ancillas[a]) for a in rows]
        psi = np.stack([columns for _, columns in spectra])
        out[rows] = _qfi_columns(spectra[0][0], psi, dim, axes)
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
    return FisherResult(value=value)


def qfi_thermal(dim: EnsembleDim, beta: float) -> tuple[FisherResult, FisherResult]:
    """Thermal-probe information at the optimum: exact sum and large-N form.

    Exact: 4 sum_m m^2 p_m over the Boltzmann weights of
    :func:`~echometry.states.thermal_weights`.  Large N: N^2 - 4N/(e^beta - 1)
    + 4(e^beta + 1)/(e^beta - 1)^2, which requires beta > 0.
    """
    if beta <= 0.0:
        raise ContractViolation("the large-N thermal form diverges for beta <= 0")
    m = dim.m_values()
    exact = 4.0 * float(np.sum(m * m * thermal_weights(dim, beta)))
    n = dim.n_spins
    eb = math.exp(beta)
    large_n = n * n - 4.0 * n / (eb - 1.0) + 4.0 * (eb + 1.0) / (eb - 1.0) ** 2
    return (
        FisherResult(value=exact),
        FisherResult(value=large_n),
    )


def qfi_deviation(dim: EnsembleDim, delta_g: float, delta_omega_p: float, t1: float) -> FisherResult:
    """Quadratic control-error law N^2 - N(N-1)(dwp^2 + dg^2) t1^2.

    ``delta_g`` and ``delta_omega_p`` are additive errors on the coupling and
    the probe frequency, and must be finite.  Valid to second order for small
    deviations; a warning is issued once the dimensionless products
    |delta * t1| leave the trusted range.
    """
    if not (math.isfinite(delta_g) and math.isfinite(delta_omega_p)):
        raise ContractViolation("deviations must be finite")
    n = dim.n_spins
    for name, delta in (("delta_g", delta_g), ("delta_omega_p", delta_omega_p)):
        if abs(delta * t1) > 0.1:
            warnings.warn(
                f"|{name} * t1| = {abs(delta * t1):.3g} exceeds 0.1; "
                "the quadratic law is a small-deviation expansion",
                stacklevel=2,
            )
    value = n * n - n * (n - 1) * (delta_omega_p**2 + delta_g**2) * t1 * t1
    return FisherResult(value=value)


# The conjugates of the ancilla readout kets |+> and |->, as columns.
_PLUS_MINUS_BRAS = (np.stack([KET_E + KET_G, KET_E - KET_G], axis=1) / np.sqrt(2.0)).conj()


def _readout_generator(
    basis: str, generator: PhaseGenerator | None, params: ModelParams, dim: EnsembleDim
) -> PhaseGenerator | None:
    """The probe generator whose eigenbasis the readout projects on, or None for the ancilla alone.

    The full-system projectors are |m>_gen (x) |+/-> over the eigenvectors of
    ``generator`` (default: :func:`~echometry.circuit.optimal_generator` of
    ``params``); the ancilla-only projectors I (x) |+/-><+/-| have rank N+1
    and need no generator, but a given one must still be for the probe's N.
    """
    if generator is not None:
        _check_generator_size(generator, dim)
    if basis == "full_system":
        return optimal_generator(params, dim) if generator is None else generator
    if basis == "ancilla_only":
        return None
    raise ContractViolation(f"unknown measurement basis {basis!r}")


def _readout_amplitudes(states: np.ndarray, full_system: bool) -> np.ndarray:
    """Amplitudes of each readout outcome for the sector-major state columns x_k.

    States have shape (..., 2, N+1, k), already turned into the readout frame;
    amplitudes (..., rank, outcomes, k).  A full-system projector has rank 1,
    and its outcomes run over (m, branch) in label order; an ancilla-only
    projector has rank N+1 (one amplitude per probe basis state) and two
    outcomes.
    """
    amp = np.einsum("sb,...sik->...ibk", _PLUS_MINUS_BRAS, states)
    return amp.reshape(*amp.shape[:-3], 1, -1, amp.shape[-1]) if full_system else amp


def _readout_probs(
    probe: SpectralProbe,
    ancilla: AncillaState,
    params: ModelParams,
    t1s: np.ndarray,
    t2s: np.ndarray,
    mode: str,
    theta: float,
    generator: PhaseGenerator | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcome probabilities p, their theta-derivatives dp and node limits, from output amplitudes.

    For P step-time pairs (t1s, t2s, 1-D) each result has shape (P, outcomes).
    In ancilla sector s the whole circuit, readout rotation R included, is
    one SU(2) element W_s = R u_s(t2) r(theta) u_s(t1) times the sector
    phase e^{-i s omega_a (t1 + t2)}.  R is the pair of R_n^dagger
    (:func:`~echometry.circuit.axis_rotation`), which turns the eigenbasis
    |m>_gen = R_n |m> of the readout ``generator`` into the J_z basis; the
    ancilla-only readout (``generator`` None) has no R.  In
    ``exact_conjugate`` mode the second leg is u_s(t1)^dagger, the inverse
    pairs of the one :func:`propagator` call per slice (value for value
    u_s(-t1)), and the phase of t1 + (-t1) = 0 is exactly 1, so none is
    applied; ``period`` mode solves both legs and applies the phase.
    Each input eigenpair (w_k, psi_k) maps to phi_k = phase D^j(W_s) psi_k
    and d phi_k = -i (c.J) phi_k, with c the encoding axis turned by
    R u_s(t2).  Then p = sum_k w_k |<c|phi_k>|^2,
    dp = sum_k 2 w_k Re(<phi_k|c><c|d phi_k>) and the node limit of dp^2 / p
    is 4 sum_k w_k |<c|d phi_k>|^2.  R changes each full-system amplitude by
    a phase that both sectors share, which leaves all three unchanged.
    A coherent probe (``probe.coherent_axis`` set) is D^j(R_n)|j,+j> up to a
    global phase, so phi is :func:`~echometry.states.coherent_state` of
    W_s R_n, O(N) per cell; any other probe goes through one real J_x frame
    per call (:func:`apply_su2`).  No (N+1)-dimensional propagator or
    density matrix is formed.
    """
    dim = probe.dim
    g_axis = encoding_axis(params.kind)
    encode = su2_rotation(g_axis, theta)
    readout = None if generator is None else su2_inverse(axis_rotation(generator.axis))
    full = readout is not None
    conjugate = mode == "exact_conjugate"
    if probe.coherent_axis is None:
        w, psi = _input_spectrum(probe.weights, probe.vectors, ancilla)
        columns = psi.transpose(1, 0, 2)[:, None]  # (N+1, 1, 2, k): probe axis first
        _, x_frame = spin_frame(dim, (1.0, 0.0, 0.0))

        def evolve(element):
            out = apply_su2(dim, x_frame, tuple(c[..., None] for c in element), columns)  # (N+1, P, 2, k)
            return np.moveaxis(out, 0, -2)

    else:
        # the ancilla factors a_k alone, as the input spectrum of a one-dimensional probe
        w, anc = _input_spectrum(probe.weights, _ONE[:, None], ancilla)  # anc: (2, 1, k)
        polarize = axis_rotation(probe.coherent_axis)

        def evolve(element):
            return coherent_state(dim, su2_compose(element, polarize))[..., None] * anc

    results = []
    # a slice holds its output columns and about seven temporaries of their size
    for sl in _slices(t1s.size, 8 * 2 * dim.dim * w.size):
        u1 = propagator(params, t1s[sl])
        u2 = su2_inverse(u1) if conjugate else propagator(params, t2s[sl])
        if full:
            u2 = su2_compose(readout, u2)
        out = evolve(su2_compose(u2, su2_compose(encode, u1)))  # (P, 2, N+1, k)
        if not conjugate:
            out *= sector_phases(params, t1s[sl] + t2s[sl])[..., None, None]
        amp = _readout_amplitudes(out, full)
        damp = _readout_amplitudes(-1j * apply_spin_axis(dim, su2_rotate(u2, g_axis), out), full)
        p = np.einsum("...ick,k->...c", np.abs(amp) ** 2, w)
        dp = 2.0 * np.einsum("...ick,k->...c", (amp.conj() * damp).real, w)
        node = 4.0 * np.einsum("...ick,k->...c", np.abs(damp) ** 2, w)
        results.append((p, dp, node))
    if len(results) == 1:
        return results[0]
    return tuple(np.concatenate(parts) for parts in zip(*results))


def measurement_probs(
    probe: SpectralProbe,
    ancilla: AncillaState,
    params: ModelParams,
    sched: Schedule,
    basis: str = "full_system",
    generator: PhaseGenerator | None = None,
) -> ProbabilityTable:
    """Projective-measurement outcome table of the circuit's output state at ``sched.theta``.

    ``basis="full_system"`` projects on |j,m>_gen (x) |+/-> over the
    eigenbasis of ``generator`` (default, as in :func:`cfi`: the optimized
    generator for ``params``); ``basis="ancilla_only"`` projects the qubit
    alone on |+/->.  The table holds the probabilities as one array and
    builds its labelled ``rows`` only when they are read.
    """
    generator = _readout_generator(basis, generator, params, probe.dim)
    t1s, t2s = _durations([sched.t1]), _durations([sched.t2])
    probs = _readout_probs(probe, ancilla, params, t1s, t2s, sched.mode, sched.theta, generator)[0][0]
    m_values = None if generator is None else math.hypot(*generator.axis) * probe.dim.m_values()
    return ProbabilityTable(probs, m_values)


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
    (t1, t2, ``mode``), evaluated at the encoded phase ``theta_eval``.  In
    ``exact_conjugate`` mode the second leg is U(t1)^dagger and t2 is not
    used.  The readout basis is fixed by ``generator`` (default: the
    optimized generator for ``params``) and does not follow the schedule.

    Each outcome contributes dp^2 / p, or at a readout node its limit
    L = 4 sum_k w_k |d a_k|^2 from the output amplitudes' derivatives d a_k.
    Near a zero of every amplitude a_k(theta) = d a_k (theta - theta_0), so
    p = L (theta - theta_0)^2 / 4 and the ratio equals L, but it is a ratio
    of two rounding-level numbers: at N = 10^5 the whole information can sit
    on a row with p ~ 1e-22 and |dp| ~ 1e-6.  A row is taken as a node when
    p N^2 <= ``EPS_PROB`` L, that is within about 2e-6 / N of such a zero
    (L <= N^2 always).  Elsewhere the ratio stands, however small p is: in
    the tails of an eigenstate of the encoded rotation d a_k = -i m a_k, the
    ratio is 0, and the limit would add information the state does not
    carry.  An empty grid gives an empty result.
    """
    if mode not in ("period", "exact_conjugate"):
        raise ContractViolation(f"unknown reversal mode {mode!r}")
    if not np.isfinite(theta_eval):
        raise ContractViolation("encoded phase must be finite")
    t1s, t2s = _durations(t1s), _durations(t2s)
    if t1s.shape != t2s.shape:
        t1s, t2s = np.broadcast_arrays(t1s, t2s)
    generator = _readout_generator(basis, generator, params, probe.dim)
    if t1s.size == 0:
        return np.zeros(t1s.shape)
    p, dp, node = _readout_probs(probe, ancilla, params, t1s.ravel(), t2s.ravel(), mode, theta_eval, generator)
    at_node = p * probe.dim.n_spins**2 <= EPS_PROB * node
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

    The encoded phase is ``theta_eval`` alone and ``sched.theta`` is not
    read (unlike :func:`measurement_probs`): a schedule built with
    theta = 0.7 is still evaluated at the default 0.2.  The readout basis is
    fixed by ``generator`` (default: the optimized generator for ``params``)
    and does not follow the schedule, so arbitrary (t1, t2) pairs can be
    scanned against the same measurement.  The derivative of each outcome
    probability is exact, from the output amplitudes; one cell of
    :func:`cfi_grid`.
    """
    value = cfi_grid(probe, ancilla, params, sched.t1, sched.t2, sched.mode, generator, theta_eval, basis)
    return FisherResult(value=value)
