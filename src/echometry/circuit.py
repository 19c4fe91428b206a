"""The two-step probe-ancilla circuit: Hamiltonians, propagators, reversal.

The protocol evolves probe and ancilla jointly for t1, encodes a phase theta
by a probe rotation, then evolves again for t2.  The second leg realizes the
time reversal of the first either physically (``period`` mode, t2 = T - t1
with T a verified recurrence time of the joint evolution) or by construction
(``exact_conjugate`` mode, where the second factor is the adjoint of the
first, e.g. a sign-flipped Hamiltonian).

Two interactions are supported:

* ``"zz"``:  H = omega_p J_z + omega_a sigma_z + g J_z sigma_z, phase encoded
  by R_x(theta);
* ``"xz"``:  H = omega_p J_z + omega_a sigma_z + g J_x sigma_z, phase encoded
  by R_z(theta).

Both Hamiltonians commute with the ancilla's sigma_z, so :func:`propagator`
returns the two (N+1)-dimensional ancilla-sector blocks and the probe
rotation and generator stay (N+1)-dimensional.  The dense 2(N+1) joint
operators, :func:`hamiltonian` and :func:`circuit_unitary`, are the
independent reference that the oracle path and the tests check against.

Frequencies are quoted in units of the coupling g (g = 1 in all defaults).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize_scalar

from .spin import (
    ContractViolation,
    EnsembleDim,
    PhaseGenerator,
    ID2,
    PAULI_Z,
    collective_ops,
    joint_embed,
    phase_generator,
    spin_frame,
    spin_ladder,
    unitary_of_hermitian,
)

__all__ = [
    "ModelParams",
    "Schedule",
    "PeriodSolution",
    "OptimalSettings",
    "PeriodNotFound",
    "PERIOD_RESIDUAL_TOL",
    "conjugate_schedule",
    "period_schedule",
    "hamiltonian",
    "propagator",
    "encoder",
    "encoding_generator",
    "apply_encoding_generator",
    "circuit_unitary",
    "normalized_trace",
    "reversal_period",
    "closed_form_unitary",
    "closed_form_generator",
    "bch_coefficients",
    "optimal_settings",
    "optimal_generator",
    "global_phase_distance",
]

# A candidate recurrence time T is accepted when 1 - F(T) stays below this.
PERIOD_RESIDUAL_TOL = 1e-9

# Rational-ratio detection for the analytic period solve.
_RATIO_MAX_DENOMINATOR = 10**6
_RATIO_TOL = 1e-9


class PeriodNotFound(RuntimeError):
    """No reversal period in the search window (expected for incommensurable rates)."""


@dataclass(frozen=True)
class ModelParams:
    """Probe frequency, ancilla frequency, coupling, and interaction kind."""

    omega_p: float
    omega_a: float
    g: float = 1.0
    kind: str = "zz"

    def __post_init__(self) -> None:
        if self.kind not in ("zz", "xz"):
            raise ContractViolation(f"interaction kind must be 'zz' or 'xz', got {self.kind!r}")
        if not (np.isfinite(self.omega_p) and np.isfinite(self.omega_a) and np.isfinite(self.g)):
            raise ContractViolation("model frequencies must be finite")
        if self.g < 0.0:
            raise ContractViolation("coupling strength must be nonnegative")

    @property
    def omega_tilde(self) -> float:
        """sqrt(omega_p^2 + g^2); the dressed probe frequency of the XZ model."""
        return math.hypot(self.omega_p, self.g)


@dataclass(frozen=True)
class Schedule:
    """Circuit timing: step durations, encoded phase, and reversal mode."""

    t1: float
    t2: float
    theta: float
    mode: str = "exact_conjugate"

    def __post_init__(self) -> None:
        if self.mode not in ("period", "exact_conjugate"):
            raise ContractViolation(f"unknown reversal mode {self.mode!r}")
        if self.t1 < 0.0 or self.t2 < 0.0:
            raise ContractViolation("step durations must be nonnegative")
        if not np.isfinite(self.theta):
            raise ContractViolation("encoded phase must be finite")


def conjugate_schedule(t1: float, theta: float) -> Schedule:
    """Schedule whose second leg is U(t1)^dagger by construction."""
    return Schedule(t1=t1, t2=t1, theta=theta, mode="exact_conjugate")


def period_schedule(t1: float, theta: float, period: float) -> Schedule:
    """Physical forward schedule t2 = T - t1 for a (verified) period T."""
    if period < t1:
        raise ContractViolation("period must not be shorter than the first step")
    return Schedule(t1=t1, t2=period - t1, theta=theta, mode="period")


@dataclass(frozen=True)
class PeriodSolution:
    """A reversal period with its residual 1 - F(T) and, when the analytic
    commensurability solve applied, the matching integers."""

    period: float
    residual: float
    integers: dict[str, int] | None = None


@dataclass(frozen=True)
class OptimalSettings:
    """Ancilla angle and first-step duration that maximize the information."""

    theta0: float
    t1: float
    status: str  # "optimal" | "sub_optimal"


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


def _sector_spectra(params: ModelParams, dim: EnsembleDim) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Eigenvalues and eigenvectors of H in the ancilla sectors s = +1 (|e>), -1 (|g>).

    H commutes with I (x) sigma_z; in sector s it is w_s.J + s omega_a with
    w_s = (0, 0, omega_p + s g) (ZZ, diagonal: vectors None) or (s g, 0, omega_p)
    (XZ, from the real spin frame of w_s).
    """
    spectra = []
    for s in (1.0, -1.0):
        if params.kind == "zz":
            spectra.append(((params.omega_p + s * params.g) * dim.m_values() + s * params.omega_a, None))
            continue
        vals, vecs = spin_frame(dim, (s * params.g, 0.0, params.omega_p))
        spectra.append((vals + s * params.omega_a, vecs))
    return spectra


def _frame_exp(vals: np.ndarray, vecs: np.ndarray | None, t) -> np.ndarray:
    """exp(-i B t) for B = V diag(vals) V^T: V cos V^T - i V sin V^T for real V, diagonal if V is None.

    ``t`` may be an array of times; the result has shape ``t.shape + (n, n)``.
    """
    phase = np.asarray(t)[..., None] * vals
    if vecs is None:
        out = np.zeros(phase.shape + vals.shape, dtype=complex)
        diag = np.arange(vals.size)
        out[..., diag, diag] = np.exp(-1j * phase)
        return out
    cos, sin = np.cos(phase)[..., None, :], np.sin(phase)[..., None, :]
    return (vecs * cos) @ vecs.T - 1j * ((vecs * sin) @ vecs.T)


def propagator(params: ModelParams, dim: EnsembleDim, t) -> np.ndarray:
    """exp(-i H t) as its two ancilla-sector blocks, shape (2, N+1, N+1).

    Block s acts on the probe in ancilla sector s = |e>, |g>; the adjoint is
    ``u.conj().swapaxes(-1, -2)``.  An array of times gives the blocks of
    every time, shape ``t.shape + (2, N+1, N+1)`` (for T times
    (T, 2, N+1, N+1)), from one sector eigensolve.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ContractViolation("evolution time must be finite")
    return np.stack([_frame_exp(vals, vecs, t) for vals, vecs in _sector_spectra(params, dim)], axis=t.ndim)


def encoder(kind: str, theta: float, dim: EnsembleDim) -> np.ndarray:
    """Phase-encoding rotation: R_x(theta) in the real J_x frame (ZZ) or diagonal R_z(theta) (XZ)."""
    if not np.isfinite(theta):
        raise ContractViolation("encoded phase must be finite")
    vals, vecs = spin_frame(dim, (1.0, 0.0, 0.0)) if kind == "zz" else (dim.m_values(), None)
    return _frame_exp(vals, vecs, theta)


def encoding_generator(params: ModelParams, dim: EnsembleDim) -> np.ndarray:
    """The probe rotation generator behind the encoder: J_x for ZZ, J_z for XZ (dense reference)."""
    jx, _, jz = collective_ops(dim)
    return jx if params.kind == "zz" else jz


def apply_encoding_generator(params: ModelParams, dim: EnsembleDim, x: np.ndarray) -> np.ndarray:
    """G x for the encoding generator G, acting on the probe axis (-2) of x.

    G is never formed: J_z is diagonal (m x), and J_x applies its two real
    bands, half the ladder amplitudes of :func:`spin_ladder` each.
    """
    if params.kind == "xz":
        return dim.m_values()[:, None] * x
    band = (spin_ladder(dim) / 2.0)[:, None]
    out = np.zeros_like(x)
    out[..., 1:, :] = band * x[..., :-1, :]
    out[..., :-1, :] += band * x[..., 1:, :]
    return out


def circuit_unitary(params: ModelParams, dim: EnsembleDim, sched: Schedule) -> np.ndarray:
    """Full circuit unitary U(t2-leg) R(theta) U(t1) on the joint 2(N+1) space.

    The dense reference: built from exp(-i H t) of :func:`hamiltonian`, never
    from the sector blocks of :func:`propagator`.
    """
    h = hamiltonian(params, dim)
    u1 = unitary_of_hermitian(h, sched.t1)
    u2 = u1.conj().T if sched.mode == "exact_conjugate" else unitary_of_hermitian(h, sched.t2)
    rotation = unitary_of_hermitian(encoding_generator(params, dim), sched.theta)
    return u2 @ joint_embed(rotation, ID2) @ u1


def _joint_eigenvalues(params: ModelParams, dim: EnsembleDim) -> np.ndarray:
    """Spectrum of H, ascending: |w_s| m + s omega_a over the ancilla sectors s = +1, -1."""
    m = dim.m_values()
    zz = params.kind == "zz"
    widths = [abs(params.omega_p + s * params.g) if zz else params.omega_tilde for s in (1.0, -1.0)]
    return np.sort(np.concatenate([w * m + s * params.omega_a for w, s in zip(widths, (1.0, -1.0))]))


def normalized_trace(params: ModelParams, dim: EnsembleDim, t):
    """|Tr exp(-i H T)| / 2(N+1); equals 1 iff U(T) is the identity up to phase.

    ``t`` may be a scalar or an array of times (the spectrum is solved once).
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(t_arr)) or np.any(t_arr < 0.0):
        raise ContractViolation("evolution times must be finite and nonnegative")
    vals = _joint_eigenvalues(params, dim)
    traces = np.exp(-1j * np.outer(t_arr, vals)).sum(axis=1)
    out = np.abs(traces) / (2 * dim.dim)
    return float(out[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else out


def _as_fraction(ratio: float) -> Fraction | None:
    frac = Fraction(ratio).limit_denominator(_RATIO_MAX_DENOMINATOR)
    if abs(float(frac) - ratio) <= _RATIO_TOL * max(1.0, abs(ratio)):
        return frac
    return None


def _analytic_period_zz(params: ModelParams, dim: EnsembleDim, t_max: float):
    """Smallest T from the commensurability conditions, or None if they
    do not apply (irrational ratios or coupling switched off)."""
    if params.g <= 0.0:
        return None
    rp = _as_fraction(params.omega_p / params.g)
    ra = _as_fraction(params.omega_a / params.g)
    if rp is None or ra is None:
        return None
    n1_max = int(math.floor(params.g * t_max / math.pi))
    for n1 in range(1, n1_max + 1):
        wp_term = rp * n1  # omega_p T / pi
        wa_term = ra * n1  # omega_a T / pi
        if wp_term.denominator != 1 or (wp_term.numerator - n1) % 2 != 0:
            continue
        if dim.n_spins % 2 == 0:
            if wa_term.denominator != 1:
                continue
            integers = {
                "n1": n1,
                "n2": (wp_term.numerator - n1) // 2,
                "n3": wa_term.numerator,
            }
        else:
            shifted = wa_term - Fraction(n1, 2)  # omega_a T / pi - n1/2
            if shifted.denominator != 1:
                continue
            integers = {
                "n1": n1,
                "n2": (wp_term.numerator - n1) // 2,
                "n4": shifted.numerator,
            }
        return n1 * math.pi / params.g, integers
    return None


def _analytic_period_xz(params: ModelParams, t_max: float):
    omega_tilde = params.omega_tilde
    if omega_tilde <= 0.0:
        return None
    ra = _as_fraction(params.omega_a / omega_tilde)
    if ra is None:
        return None
    n5_max = int(math.floor(omega_tilde * t_max / (2 * math.pi)))
    for n5 in range(1, n5_max + 1):
        wa_term = 2 * n5 * ra  # omega_a T / pi
        if wa_term.denominator != 1:
            continue
        return 2 * n5 * math.pi / omega_tilde, {"n5": n5, "n6": wa_term.numerator}
    return None


def _scan_period(params: ModelParams, dim: EnsembleDim, t_max: float) -> float | None:
    """Grid scan plus local refinement; returns the smallest accepted T."""
    omega_max = max(abs(params.omega_p), abs(params.omega_a), params.g, 1e-12)
    if params.kind == "xz":
        omega_max = max(omega_max, params.omega_tilde)
    step = math.pi / (64.0 * omega_max)
    ts = np.arange(step, t_max + step / 2, step)
    if ts.size == 0:
        return None
    f = normalized_trace(params, dim, ts)
    # Every interior local maximum is a refinement candidate, in ascending T.
    interior = np.flatnonzero((f[1:-1] >= f[:-2]) & (f[1:-1] >= f[2:])) + 1
    vals = _joint_eigenvalues(params, dim)

    def residual(t: float) -> float:
        return 1.0 - abs(np.exp(-1j * vals * t).sum()) / (2 * dim.dim)

    for k in interior:
        lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, ts.size - 1)]
        best = minimize_scalar(residual, bounds=(lo, hi), method="bounded",
                               options={"xatol": 1e-13})
        if best.fun < PERIOD_RESIDUAL_TOL and best.x <= t_max:
            return float(best.x)
    return None


def reversal_period(params: ModelParams, dim: EnsembleDim, t_max: float) -> PeriodSolution:
    """Smallest T in (0, t_max] with U(T) = identity up to a global phase.

    Uses the analytic commensurability solve when the frequency ratios are
    rational (continued-fraction detection), falling back to a grid scan with
    local refinement otherwise.  The accepted T always satisfies
    1 - F(T) < ``PERIOD_RESIDUAL_TOL``.
    """
    if t_max <= 0.0:
        raise ContractViolation("search window must be positive")
    analytic = (
        _analytic_period_zz(params, dim, t_max)
        if params.kind == "zz"
        else _analytic_period_xz(params, t_max)
    )
    if analytic is not None:
        period, integers = analytic
        res = 1.0 - normalized_trace(params, dim, period)
        if res < PERIOD_RESIDUAL_TOL:
            return PeriodSolution(period=period, residual=res, integers=integers)
    t_found = _scan_period(params, dim, t_max)
    if t_found is None:
        raise PeriodNotFound(
            f"no reversal period with residual < {PERIOD_RESIDUAL_TOL:g} in (0, {t_max:g}]"
        )
    return PeriodSolution(
        period=t_found,
        residual=1.0 - normalized_trace(params, dim, t_found),
        integers=None,
    )


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


def optimal_settings(params: ModelParams) -> OptimalSettings:
    """Ancilla angle and step-1 duration that cancel the information leakage.

    ZZ always admits the optimum theta0 = pi/2, t1 = pi / (2 g), the first of
    the times (n + 1/2) pi / g.  The XZ optimum exists only in the
    strong-coupling regime g >= omega_p; below it the returned time minimizes
    the residual term and is flagged ``sub_optimal``.
    """
    theta0 = math.pi / 2
    if params.kind == "zz":
        if params.g <= 0.0:
            raise ContractViolation("the ZZ optimum needs a positive coupling")
        return OptimalSettings(theta0=theta0, t1=0.5 * math.pi / params.g, status="optimal")
    wt = params.omega_tilde
    if params.g >= params.omega_p:
        t1 = math.acos(-(params.omega_p**2) / params.g**2) / wt
        return OptimalSettings(theta0=theta0, t1=t1, status="optimal")
    return OptimalSettings(theta0=theta0, t1=math.pi / wt, status="sub_optimal")


def optimal_generator(params: ModelParams, dim: EnsembleDim) -> PhaseGenerator:
    """Phase generator whose mean square sets the information at the optimum.

    ZZ: the planar generator J(pi/2 - omega_p t1_opt).  XZ: c_x J_x + c_y J_y
    with the closed-form coefficients at the (sub-)optimal time.
    """
    settings = optimal_settings(params)
    if params.kind == "zz":
        return phase_generator(dim, math.pi / 2 - params.omega_p * settings.t1)
    cx, cy, cz = bch_coefficients(params, settings.t1)
    if abs(cx * cx + cy * cy + cz * cz - 1.0) > 1e-12:
        raise ContractViolation("xz generator coefficients are not normalized")
    return PhaseGenerator(dim, (cx, cy, 0.0))


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
