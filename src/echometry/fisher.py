"""Quantum and classical Fisher information of the time-reversal circuit.

The encoded family is rho(theta) = U_theta (rho_P (x) rho_A) U_theta^dagger.
Because the encoding rotation commutes with its own generator G, the
effective generator

    H_eff = U(t1)^dagger G U(t1)

is independent of theta and of the second circuit leg, so the quantum Fisher
information reduces to the two-term spectral sum

    F_Q = 4 sum_i p_i <H_eff^2>_i - sum_ij 8 p_i p_j / (p_i + p_j) |<i|H_eff|j>|^2

over the joint eigenpairs (p_k q_i, alpha_i (x) v_k) of rho_P (x) rho_A,
pure or dephased ancilla alike.  No joint column is formed: both kernels
read the probe and the ancilla's ``eigenpairs`` (q_i, alpha_i) apart, one
ancilla sector (|e>, |g>) at a time.  In sector s, H_eff is c_s.J, with c_s
the encoding axis turned by the inverse pairs of :func:`propagator`
(:func:`~echometry.circuit.su2_rotate`, the one SO(3) route of both
kernels).  The quantum sum needs only the norms ||(c_s.J) v_k||^2 and the
overlaps <v_k|c_s.J|v_l> of the probe's eigenvectors, once for all
ancillas, from one of two suppliers chosen by the probe alone:

* a probe with declared levels (``SpectralProbe.levels``, set by
  :func:`~echometry.states.polarized_probe` and
  :func:`~echometry.states.thermal_probe`) gives them in closed form from
  the matrix elements of c_s.J in its own frame, with no column: O(1) per
  cell when polarized, O(k^2) for k thermal levels.  N enters these only
  through j, so :func:`qfi_sizes` sweeps N as a kernel axis in one call,
  and :func:`qfi_grid` of a declared probe is that code at one size;
* a probe built from its columns V, shape (N+1, k), gives them from the
  banded product (c_s.J) V, O(N k) per cell.

The classical readout turns the whole circuit of a sector, readout rotation
included, into one SU(2) element and applies it to the probe columns of
every step time at once, by one of two routes, also chosen by the probe
alone:

* a coherent probe (``SpectralProbe.coherent_axis``, derived from a
  declared single top or bottom level, as
  :func:`~echometry.states.polarized_probe` makes, and
  :func:`~echometry.states.thermal_probe` when it keeps one level) maps to
  another coherent state, the closed form
  :func:`~echometry.states.coherent_state`, in O(N) per cell with no
  eigensolve and no probe column;
* every other probe (thermal with more than one level, rank above 1, or
  one built from its columns) goes through the real J_x frame of its N
  (:func:`~echometry.circuit.apply_su2`), O(N^2), solved once per N and
  kept within a byte bound (:func:`_x_frame`).

No (N+1)-dimensional propagator is built.  The grid kernels :func:`qfi_grid`
and :func:`cfi_grid` evaluate one probe over whole axes of ancillas and
step times in one broadcast, :func:`qfi_sizes` a declared pure probe over
sizes as well, each walking its cells as one flat axis in slices of bounded
size; :func:`qfi_general` and :func:`cfi` are the one-cell calls.
The independent cross-check, the symmetric-logarithmic-derivative oracle
on the dense 2(N+1)-dimensional output state, lives in
:mod:`echometry.reference` and reuses neither the two-term path nor the
sector pairs.
"""

from __future__ import annotations

import functools
import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .circuit import (
    ModelParams,
    Schedule,
    apply_spin_axis,
    apply_su2,
    axis_rotation,
    checked_durations,
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
    check_generator_size,
    spin_frame,
)
from .states import EPS_SPECTRUM, AncillaState, SpectralProbe, SpinLevels, coherent_state, thermal_weights

__all__ = [
    "EPS_PROB",
    "FisherResult",
    "ProbabilityTable",
    "qfi_general",
    "qfi_grid",
    "qfi_sizes",
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
# 0.5 MB: the kernels walk one flat cell axis in slices of at most this
# size, and at least one cell each.  The temporaries of a slice take a few
# times as much again.
_SLICE_ENTRIES = 2**15

def _checked(values) -> np.ndarray:
    """Fisher values under the :class:`FisherResult` contract, cell by cell.

    A value that is not finite or lies below -1e-9 raises; small negatives
    (rounding) clamp to 0.
    """
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values) | (values < -1e-9)
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
        if not np.all((probs >= -1e-12) & (probs <= 1.0 + 1e-12)):  # a NaN fails both
            raise ContractViolation("probabilities must be finite and lie in [0, 1]")
        if abs(probs.sum() - 1.0) > 1e-10:
            raise ContractViolation("outcome probabilities must sum to one")

    @property
    def rows(self) -> tuple[tuple[float | None, str, float], ...]:
        """(m, branch, probability) per outcome, built on each read."""
        labels = [None] if self.m_values is None else np.asarray(self.m_values, dtype=float).tolist()
        pairs = self.probabilities.reshape(-1, 2).tolist()
        return tuple((m, branch, p) for m, pair in zip(labels, pairs) for branch, p in zip("+-", pair))


def _joint_weights(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Joint weights p_k q_i, probe-major on the last axis, for ancilla weights q (..., 2).

    A weight at or below the spectral cutoff is 0: its pair adds exactly 0 to either Fisher sum.
    """
    w = (p[:, None] * q[..., None, :]).reshape(*q.shape[:-1], p.size * q.shape[-1])
    return np.where(w > EPS_SPECTRUM, w, 0.0)


def _slices(count: int, entries_per_cell: int):
    """Consecutive slices of a cell axis, each within the ``_SLICE_ENTRIES`` budget."""
    step = max(1, _SLICE_ENTRIES // max(1, entries_per_cell))
    return (slice(lo, lo + step) for lo in range(0, count, step))


def _two_term_sum(weights: np.ndarray, norms: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
    """The two-term spectral sum over input eigenpairs (w_k, psi_k) of a Hermitian H.

    F_Q = 4 sum_k w_k ||H psi_k||^2 - sum_kl 8 w_k w_l / (w_k + w_l) |<psi_k|H|psi_l>|^2
    (Liu et al., J. Phys. A 53, 023001, 2020), per leading index, from the norms
    ||H psi_k||^2 (..., k) and overlaps <psi_k|H|psi_l> (..., k, k); a pair of zero
    weights adds nothing.  A difference within 1e-12 of term 1 is rounding
    noise (it grows like ||H||^2 eps) and is returned as exactly 0.
    """
    term1 = 4.0 * (weights * norms).sum(-1)
    products = weights[..., :, None] * weights[..., None, :]
    pair_sums = weights[..., :, None] + weights[..., None, :]
    coef = np.divide(8.0 * products, pair_sums, out=np.zeros(products.shape), where=pair_sums > 0.0)
    value = term1 - (coef * np.abs(overlaps) ** 2).sum(axis=(-2, -1))
    return np.where(np.abs(value) <= 1e-12 * term1, 0.0, value)


def _banded_moments(probe: SpectralProbe, axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Norms n_sk = ||h_sk||^2 and overlaps o_skl = <v_k|h_sl> of the banded products h_s = (c_s.J) V.

    ``axes`` (..., 2, 3) holds the c_s; the results have shapes (..., 2, k)
    and (..., 2, k, k).  O(N k) per axis, from the probe's own columns.
    """
    vectors = probe.vectors
    h = apply_spin_axis(probe.dim, axes, vectors)  # (..., 2, N+1, k)
    return np.einsum("...ik,...ik->...k", h.conj(), h).real, vectors.conj().T @ h


def _level_moments(levels: SpinLevels, count: int, j: np.ndarray, axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The norms and overlaps of :func:`_banded_moments` for a declared probe, in closed form.

    The probe's spins ``j`` and the c_s in ``axes`` (..., 2, 3) broadcast to
    the cells' shape.  In the probe's frame |n; m> = D^j(R_n)|m> (up to a
    phase per column, which cancels in both), c_s.J is c'_s.J with
    c'_s = R_n^-1 c_s, and (Arecchi et al., PRA 6, 2211, 1972)

        <m|c'.J|m> = c'_z m,   <m+1|c'.J|m> = (c'_x - i c'_y)/2 sqrt((j - m)(j + m + 1)),
        <m|(c'.J)^2|m> = c'_z^2 m^2 + (c'_x^2 + c'_y^2)(j(j + 1) - m^2)/2,

    so the overlaps are tridiagonal in the probe's ``count`` levels, and N
    enters only through j.  No column is formed: O(1) per cell for a
    polarized probe, O(k^2) for k thermal levels.
    """
    j = j[..., None]
    m = (j if levels.top else np.arange(count) - j)[..., None, :]  # the levels in weight order, (..., 1, 1, k)
    j = j[..., None]
    c = su2_rotate(su2_inverse(axis_rotation(levels.axis)), axes)[..., None]  # (..., 2, 3, 1)
    cx, cy, cz = c[..., 0, :], c[..., 1, :], c[..., 2, :]
    norms = (cz * m) ** 2 + 0.5 * (cx * cx + cy * cy) * ((j - m) * (j + m) + j)
    overlaps = np.zeros(norms.shape + (count,), dtype=complex)
    bands = overlaps.reshape(*norms.shape[:-1], count * count)  # the diagonal and the bands as strided views
    bands[..., :: count + 1] = cz * m
    if count > 1:  # <m+1|c'.J|m> below the diagonal, its conjugate above
        raised = 0.5 * (cx - 1j * cy) * np.sqrt((j - m[..., :-1]) * (j + m[..., :-1] + 1.0))
        bands[..., count :: count + 1] = raised
        bands[..., 1 :: count + 1] = raised.conj()
    return norms, overlaps


def _qfi_cells(weights: np.ndarray, ancillas, params: ModelParams, js: np.ndarray, t1s, entries: int, moments):
    """F_Q of probes with eigenvalues ``weights`` (k,) and spins ``js`` (S,) at step times (T,) or (S, T): (S, A, T).

    One :func:`propagator` call gives the axes c_s of U_s^dagger (g.J) U_s
    = c_s.J of every cell (size, time).  The kernel walks the S T cells as
    one flat axis, size-major; per slice of cells, ``moments(j, axes)``
    gives their n_sk (cells, 2, k) and o_skl (cells, 2, k, k), forming
    ``entries`` entries per cell.  Joint pair (k, i) then has ||H psi_ki||^2
    = sum_s |alpha_si|^2 n_sk and <psi_ki|H|psi_lj> = sum_s conj(alpha_si)
    alpha_sj o_skl, for every ancilla at once.
    """
    sizes, times = js.size, t1s.shape[-1]
    axes = np.empty((sizes, times, 2, 3))  # per size its own row of step times, or the one row all share
    axes[...] = su2_rotate(su2_inverse(propagator(params, t1s)), encoding_axis(params.kind))
    axes, js = axes.reshape(-1, 2, 3), np.repeat(js, times)
    pairs = [anc.eigenpairs for anc in ancillas]
    q = np.array([w for w, _ in pairs]).reshape(-1, 2)
    alpha = np.array([columns for _, columns in pairs]).reshape(-1, 2, 2)
    joint = _joint_weights(weights, q)[:, None]  # (A, 1, 2k)
    # |alpha_si|^2 on axes (a, c, s, k, i), conj(alpha_si) alpha_sj on (a, c, s, k, i, l, j)
    moduli = (np.abs(alpha) ** 2)[:, None, :, None, :]
    products = (alpha.conj()[..., :, None] * alpha[..., None, :])[:, None, :, None, :, None, :]
    k, n_anc = weights.size, len(pairs)
    out = np.empty((n_anc, js.size))
    # a slice holds the joint overlaps, A (2k)^2 entries per cell, and what the moments form
    for sl in _slices(js.size, n_anc * (2 * k) ** 2 + entries):
        n, o = moments(js[sl], axes[sl])
        shape = (n_anc, n.shape[0], 2 * k)
        norms = (moduli * n[..., None]).sum(2).reshape(shape)
        overlaps = (products * o[:, :, :, None, :, None]).sum(2).reshape(*shape, 2 * k)
        out[:, sl] = _two_term_sum(joint, norms, overlaps)
    return _checked(out).reshape(n_anc, sizes, times).swapaxes(0, 1)


def qfi_grid(probe: SpectralProbe, ancillas, params: ModelParams, t1s) -> np.ndarray:
    """Quantum Fisher information of one probe over ancillas x first-step times.

    Returns shape (len(ancillas), len(t1s)); cell (a, t) is
    ``qfi_general`` for ancilla a at step time t1s[t], and obeys the
    :class:`FisherResult` contract.  ``ancillas`` is any iterable, read
    once.  Per time and sector the probe gives the norms n_sk = ||(c_s.J) v_k||^2
    and overlaps o_skl = <v_k|(c_s.J)|v_l>, once for every ancilla: in
    closed form for a probe with declared levels (:func:`_level_moments`,
    the kernel of :func:`qfi_sizes` at one size), from its banded products
    otherwise (:func:`_banded_moments`).
    """
    t1s = checked_durations(t1s)
    if t1s.ndim != 1:
        raise ContractViolation("step times must be a 1-D array")
    if probe.levels is None:  # a banded product holds 2 (N+1) k entries per cell
        moments, entries = (lambda j, axes: _banded_moments(probe, axes)), 2 * probe.dim.dim * probe.n_terms
    else:
        moments, entries = functools.partial(_level_moments, probe.levels, probe.n_terms), 0
    return _qfi_cells(probe.weights, ancillas, params, np.array([probe.dim.j]), t1s, entries, moments)[0]


def qfi_sizes(levels: SpinLevels, n_values, ancillas, params: ModelParams, t1s) -> np.ndarray:
    """Quantum Fisher information of one declared pure probe at every size N of ``n_values``.

    The probe of size N is ``SpectralProbe(EnsembleDim(N), [1.0],
    levels=levels)``, |n; +j> (polarized) for ``levels.top``, else |n; -j>.
    Step times are (T,), or (len(n_values), T) for one row per size; sizes
    may repeat, in any order.  Cell (n, a, t) of the (len(n_values), A, T)
    result is :func:`qfi_grid` of that probe, bit for bit: N enters the
    moments only through j, so a sweep over N is one kernel call.
    """
    js = np.array([EnsembleDim(n).j for n in n_values], dtype=float)
    t1s = checked_durations(t1s)
    if t1s.ndim not in (1, 2) or (t1s.ndim == 2 and t1s.shape[0] != js.size):
        raise ContractViolation("step times must be (T,) or one row per size, (len(n_values), T)")
    return _qfi_cells(np.array([1.0]), ancillas, params, js, t1s, 0, functools.partial(_level_moments, levels, 1))


def qfi_general(
    probe: SpectralProbe, ancilla: AncillaState, params: ModelParams, sched: Schedule
) -> FisherResult:
    """Quantum Fisher information of the output family, for any ancilla.

    The two-term spectral sum of H_eff = U(t1)^dagger G U(t1), one cell of
    :func:`qfi_grid`: a pure and a dephased ancilla take the same path, and the
    result is exactly independent of theta and of the second circuit leg.
    """
    value = qfi_grid(probe, [ancilla], params, [sched.t1])[0, 0]
    return FisherResult(value=value)


def qfi_thermal(dim: EnsembleDim, beta: float) -> tuple[FisherResult, FisherResult]:
    """Thermal-probe information at the optimum: exact sum and large-N form.

    Exact: 4 sum_m m^2 p_m over the Boltzmann weights of
    :func:`~echometry.states.thermal_weights`.  Large N: N^2 - 4N/(e^beta - 1)
    + 4(e^beta + 1)/(e^beta - 1)^2 for beta > 0, in e^-beta and ``expm1`` so
    that no beta overflows; at tiny beta it is infinite, and rejected.
    """
    if beta <= 0.0:
        raise ContractViolation("the large-N thermal form diverges for beta <= 0")
    m = dim.m_values()
    exact = 4.0 * float(np.sum(m * m * thermal_weights(dim, beta)))
    n = dim.n_spins
    e, d = math.exp(-beta), -math.expm1(-beta)
    large_n = n * n - 4.0 * n * e / d + 4.0 * ((1.0 + e) * e / d) / d
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


# J_x frames kept between readouts, per N, while their bytes, 8 (N+1)^2 each,
# sum to at most _FRAME_BYTES: 4 MiB holds every frame up to N = 723, or many
# small ones (`validate` reads out 200 probes of 19 sizes at N <= 20, 26 kB in
# all); a larger frame is solved on every call.
_FRAME_BYTES = 2**22
_frames: dict[int, np.ndarray] = {}
_frames_lock = threading.Lock()


def _x_frame(dim: EnsembleDim) -> np.ndarray:
    """The real J_x frame ``spin_frame(dim, (1, 0, 0))[1]``, read-only, solved once per N within the bound.

    ``_frames`` keeps the frames in order of use, the least recently used
    dropped first; the frame depends only on N, so a run that reads out
    many probes of a few sizes solves each size once.
    """
    with _frames_lock:
        frame = _frames.pop(dim.n_spins, None)
        if frame is None:
            frame = spin_frame(dim, (1.0, 0.0, 0.0))[1]
            frame.setflags(write=False)
        if frame.nbytes <= _FRAME_BYTES:
            _frames[dim.n_spins] = frame
            while sum(kept.nbytes for kept in _frames.values()) > _FRAME_BYTES:
                del _frames[next(iter(_frames))]
    return frame


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
        check_generator_size(generator, dim)
    if basis == "full_system":
        return optimal_generator(params, dim) if generator is None else generator
    if basis == "ancilla_only":
        return None
    raise ContractViolation(f"unknown measurement basis {basis!r}")


def _readout_amplitudes(branches: np.ndarray, states: np.ndarray, full_system: bool) -> np.ndarray:
    """Amplitudes of each readout outcome for the joint columns (k, i), from the probe columns x_smk.

    States (..., 2, N+1, k) are already turned into the readout frame;
    ``branches`` (s, b, i) holds <b|s> alpha_si, and amplitudes
    sum_s <b|s> alpha_si x_smk have shape (..., rank, outcomes, (k, i)).  A
    full-system projector has rank 1, and its outcomes run over (m, branch)
    in label order; an ancilla-only projector has rank N+1 (one amplitude
    per probe basis state) and two outcomes.
    """
    amp = np.einsum("sbi,...smk->...mbki", branches, states)
    amp = amp.reshape(*amp.shape[:-2], -1)  # joint columns (k, i), probe-major
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
    Probe column v_k maps to x_sk = phase D^j(W_s) v_k, so joint pair (k, i)
    maps to phi = sum_s alpha_si |s> x_sk, and d phi = -i (c.J) phi, with c
    the encoding axis turned by R u_s(t2).  Then p = sum w |<c|phi>|^2,
    dp = sum 2 w Re(<phi|c><c|d phi>) and the node limit of dp^2 / p is
    4 sum w |<c|d phi>|^2.  R changes each full-system amplitude by
    a phase that both sectors share, which leaves all three unchanged.
    A coherent probe (``probe.coherent_axis`` set) is D^j(R_n)|j,+j> up to a
    global phase, so x is :func:`~echometry.states.coherent_state` of
    W_s R_n, O(N) per cell; any other probe goes through the real J_x frame
    of its N (:func:`apply_su2`), solved once per N within the bound of
    :func:`_x_frame`.  No (N+1)-dimensional propagator or
    density matrix is formed.
    """
    dim = probe.dim
    g_axis = encoding_axis(params.kind)
    encode = su2_rotation(g_axis, theta)
    readout = None if generator is None else su2_inverse(axis_rotation(generator.axis))
    full = readout is not None
    conjugate = mode == "exact_conjugate"
    q, alpha = ancilla.eigenpairs
    live = q > 0.0  # a zero-weight pair adds exactly 0, so its amplitudes are not formed
    w = _joint_weights(probe.weights, q[live])
    branches = _PLUS_MINUS_BRAS[:, :, None] * alpha[:, None, live]
    if probe.coherent_axis is None:
        columns = probe.vectors[:, None, None, :]  # (N+1, 1, 1, k): probe axis first
        x_frame = _x_frame(dim)

        def evolve(element):
            out = apply_su2(dim, x_frame, tuple(c[..., None] for c in element), columns)  # (N+1, P, 2, k)
            return np.moveaxis(out, 0, -2)

    else:
        polarize = axis_rotation(probe.coherent_axis)

        def evolve(element):
            return coherent_state(dim, su2_compose(element, polarize))[..., None]

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
        amp = _readout_amplitudes(branches, out, full)
        damp = _readout_amplitudes(branches, -1j * apply_spin_axis(dim, su2_rotate(u2, g_axis), out), full)
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
    t1s, t2s = checked_durations([sched.t1]), checked_durations([sched.t2])
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

    ``t1s`` and ``t2s`` must broadcast against each other, and the result
    has their broadcast shape; cell by cell it is :func:`cfi` of the schedule
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
    t1s, t2s = checked_durations(t1s), checked_durations(t2s)
    if t1s.shape != t2s.shape:
        try:
            t1s, t2s = np.broadcast_arrays(t1s, t2s)
        except ValueError:
            raise ContractViolation(f"step times t1 {t1s.shape} and t2 {t2s.shape} do not broadcast") from None
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
