"""The two-step probe-ancilla circuit: SU(2) sector elements, their SO(3) images, reversal.

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

Both Hamiltonians commute with the ancilla's sigma_z, and in sector s the
Hamiltonian is w_s.J + s omega_a (w_s from :func:`_sector_axes`), so every
circuit element is a sector phase times the spin-j image D^j(u) of an SU(2)
element u.  Elements are held as Cayley-Klein pairs (a, b), u = [[a, b],
[-b*, a*]] in the ascending-m basis, and composed elementwise;
:func:`propagator` returns the pairs of the sector evolutions,
:func:`apply_su2` applies D^j(u) to probe columns through one real J_x
frame, and no (N+1)-dimensional propagator is built.  Conjugating a spin
component v.J by an element gives another one, (R v).J, and
:func:`su2_rotate` is the one route to that SO(3) image R v: the effective
generators of the Fisher kernels and :func:`optimal_generator` are c.J with
c the encoding axis turned this way.  :func:`apply_spin_axis` applies c.J as
one diagonal and the two ladder bands.  The reversal trace of
:func:`normalized_trace` sums the sector spectra |w_s| m + s omega_a over m
in closed form, one Dirichlet kernel per sector, and :func:`reversal_period`
searches only the recurrences of the widest sector, where every exact period
lies, and a window around each that holds every near one.  The dense
2(N+1) joint operators and the closed form are the independent reference of
:mod:`echometry.reference`.

Frequencies are quoted in units of the coupling g (g = 1 in all defaults).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin import (
    ContractViolation,
    EnsembleDim,
    PhaseGenerator,
    spin_ladder,
)

__all__ = [
    "ModelParams",
    "Schedule",
    "PeriodSolution",
    "OptimalSettings",
    "PeriodNotFound",
    "PERIOD_RESIDUAL_TOL",
    "checked_durations",
    "conjugate_schedule",
    "period_schedule",
    "su2_rotation",
    "su2_compose",
    "su2_inverse",
    "su2_rotate",
    "axis_rotation",
    "apply_su2",
    "sector_phases",
    "propagator",
    "encoding_axis",
    "apply_spin_axis",
    "normalized_trace",
    "reversal_period",
    "optimal_settings",
    "optimal_axis",
    "optimal_generator",
]

# A candidate recurrence time T is accepted when 1 - F(T) stays below this.
PERIOD_RESIDUAL_TOL = 1e-9

_PI_TAIL = 1.2246467991473532e-16  # pi - float(pi)

# A period's integer labels are reported when each lies this close to an integer.
_RATIO_TOL = 1e-9
# reversal_period tests the widest sector's recurrences this many at a time, and
# searches the window around each that fails on 2 * _NEAR_POINTS + 1 points.
_PERIOD_CHUNK = 1024
_NEAR_POINTS = 8


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


def checked_durations(t) -> np.ndarray:
    """Durations as a float array; each must be finite and nonnegative."""
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all() or (t < 0.0).any():
        raise ContractViolation("step durations must be finite and nonnegative")
    return t


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
        checked_durations([self.t1, self.t2])
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
    """A reversal period with its residual 1 - F(T) and, when T meets the
    paper's commensurability conditions, their integers."""

    period: float
    residual: float
    integers: dict[str, int] | None = None


@dataclass(frozen=True)
class OptimalSettings:
    """Ancilla angle and first-step duration that maximize the information."""

    theta0: float
    t1: float
    status: str  # "optimal" | "sub_optimal"


# Ancilla sector signs s, in the sector order of :func:`propagator` (|e>, |g>).
_SECTORS = np.array([1.0, -1.0])


def _finite_angle(angle, name: str):
    """``angle``, checked finite: past the float range a rate times a time is inf, and its phase NaN."""
    if not np.isfinite(angle).all():
        raise ContractViolation(f"{name} is not finite: a non-finite time, or a rate times a time past the float range")
    return angle


def su2_rotation(v, t) -> tuple[np.ndarray, np.ndarray]:
    """Cayley-Klein pair (a, b) of exp(-i t v.J), U = [[a, b], [-b*, a*]] in the ascending-m basis.

    ``v`` has shape (..., 3) and ``t`` broadcasts against its leading axes.
    With h = |v| t / 2 and v = |v| n: a = cos h + i n_z sin h and
    b = (n_y - i n_x) sin h, a rotation by |v| t about n.
    """
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.sqrt((v * v).sum(-1))
        half = _finite_angle(0.5 * norm * t, "rotation angle |v| t / 2")
    sin_per_norm = np.sin(half) / np.where(norm > 0.0, norm, 1.0)
    return np.cos(half) + 1j * sin_per_norm * v[..., 2], sin_per_norm * (v[..., 1] - 1j * v[..., 0])


def su2_compose(p, q) -> tuple[np.ndarray, np.ndarray]:
    """The product p q of Cayley-Klein pairs: (a1 a2 - b1 b2*, a1 b2 + b1 a2*), elementwise."""
    (a1, b1), (a2, b2) = p, q
    return a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def su2_inverse(p) -> tuple[np.ndarray, np.ndarray]:
    """The inverse (adjoint) of a Cayley-Klein pair: (a*, -b)."""
    a, b = p
    return np.conj(a), -b


def su2_rotate(p, v) -> np.ndarray:
    """SO(3) image R v of axes v (..., 3), with U (v.J) U^dagger = (R v).J at every j.

    The pair is the unit quaternion (Re a; -Im b, Re b, Im a), and R v follows
    from Rodrigues' formula v + 2 q0 (q x v) + 2 q x (q x v), with both cross
    products written out by component.
    """
    a, b = (np.asarray(x) for x in p)
    qx, qy, qz = -b.imag, b.real, a.imag
    v = np.asarray(v, dtype=float)
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    cx, cy, cz = qy * vz - qz * vy, qz * vx - qx * vz, qx * vy - qy * vx
    scale = 2.0 * a.real
    return np.concatenate([
        (vx + scale * cx + 2.0 * (qy * cz - qz * cy))[..., None],
        (vy + scale * cy + 2.0 * (qz * cx - qx * cz))[..., None],
        (vz + scale * cz + 2.0 * (qx * cy - qy * cx))[..., None],
    ], axis=-1)


def axis_rotation(axis) -> tuple[complex, complex]:
    """Pair of R_n = exp(-i phi J_z) exp(-i theta J_y), which turns z onto the direction of ``axis``.

    (theta, phi) are the polar and azimuthal angles of the axis (0 for a
    zero axis), so R_n |m> is the eigenvector of n.J with eigenvalue |n| m.
    """
    nx, ny, nz = (float(c) for c in axis)
    theta, phi = math.atan2(math.hypot(nx, ny), nz), math.atan2(ny, nx)
    return complex(np.exp(0.5j * phi) * math.cos(theta / 2)), complex(np.exp(0.5j * phi) * math.sin(theta / 2))


def apply_su2(dim: EnsembleDim, x_frame: np.ndarray, p, x: np.ndarray) -> np.ndarray:
    """D^j(U) x for Cayley-Klein pairs p = (a, b), on the probe axis (0) of x.

    ``x_frame`` is the real J_x frame ``spin_frame(dim, (1, 0, 0))[1]``; a and b
    broadcast against x's other axes.  With beta = 2 atan2(|b|, |a|),
    sigma = arg a and delta = arg b, the Euler form
    U = e^{-i alpha J_z} e^{-i beta J_y} e^{-i gamma J_z} has
    alpha, gamma = sigma +/- delta, and e^{-i beta J_y} is e^{-i beta J_x}
    turned by pi/2 about z, so

        D^j(U) x = e^{-i(sigma+delta+pi/2) m} X e^{-i beta m} X^T e^{-i(sigma-delta-pi/2) m} x

    (Feng et al., PRE 92, 043307, 2015).  Both X products are one real GEMM
    over every column at once, on the interleaved real and imaginary parts,
    so they sum in a fixed order whatever the BLAS thread count.
    """
    a, b = (np.asarray(c) for c in p)
    sigma, delta = np.arctan2(a.imag, a.real), np.arctan2(b.imag, b.real)
    beta = 2.0 * np.arctan2(np.abs(b), np.abs(a))
    m = dim.m_values().reshape(-1, *[1] * (np.ndim(x) - 1))

    def diag(angle):
        return np.exp(-1j * m * angle)

    y = np.ascontiguousarray(diag(sigma - delta - 0.5 * np.pi) * x)
    shape = y.shape

    def frame_product(frame, z):
        return (frame @ z.reshape(dim.dim, -1).view(float)).view(complex).reshape(shape)

    y = frame_product(x_frame.T, y)
    y *= diag(beta)
    y = frame_product(x_frame, y)
    y *= diag(sigma + delta + 0.5 * np.pi)
    return y


def _sector_axes(params: ModelParams) -> np.ndarray:
    """Rows w_s (s = +1, -1) of the sector Hamiltonians w_s.J + s omega_a:
    (0, 0, omega_p + s g) for ZZ and (s g, 0, omega_p) for XZ."""
    wp, g = params.omega_p, params.g
    if params.kind == "zz":
        return np.array([[0.0, 0.0, wp + g], [0.0, 0.0, wp - g]])
    return np.array([[g, 0.0, wp], [-g, 0.0, wp]])


def propagator(params: ModelParams, t) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (a, b) of the sector evolutions u_s(t) = exp(-i t w_s.J), shape t.shape + (2,).

    In ancilla sector s (s = +1 for |e>, -1 for |g>) the Hamiltonian is
    w_s.J + s omega_a (:func:`_sector_axes`), so exp(-i H t) acts there as
    e^{-i s omega_a t} D^j(u_s(t)) (:func:`sector_phases`) at every N: these
    pairs are the whole evolution, for the quantum and the classical kernels.
    """
    return su2_rotation(_sector_axes(params), np.asarray(t, dtype=float)[..., None])


def sector_phases(params: ModelParams, t) -> np.ndarray:
    """The sector phases e^{-i s omega_a t} of exp(-i H t), shape t.shape + (2,)."""
    with np.errstate(over="ignore"):
        angle = _finite_angle(params.omega_a * np.multiply.outer(t, _SECTORS), "ancilla phase omega_a t")
    return np.exp(-1j * angle)


def encoding_axis(kind: str) -> tuple[float, float, float]:
    """Axis g of the encoding generator g.J: x (R_x, ZZ) or z (R_z, XZ)."""
    return (1.0, 0.0, 0.0) if kind == "zz" else (0.0, 0.0, 1.0)


def apply_spin_axis(dim: EnsembleDim, axis, x: np.ndarray) -> np.ndarray:
    """(c.J) x for spin axes c of shape (..., 3), acting on the probe axis (-2) of x.

    c.J is never formed: J_z is diagonal (c_z m x), and
    c_x J_x + c_y J_y = ((c_x - i c_y) J_+ + (c_x + i c_y) J_-) / 2 applies
    the one band of :func:`spin_ladder` on each side of the diagonal.  The
    leading axes of c broadcast against those of x.
    """
    c = np.asarray(axis, dtype=float)[..., None, None]
    raising = (0.5 * (c[..., 0, :, :] - 1j * c[..., 1, :, :])) * spin_ladder(dim)[:, None]
    out = (c[..., 2, :, :] * dim.m_values()[:, None]) * x
    out[..., 1:, :] += raising * x[..., :-1, :]
    out[..., :-1, :] += raising.conj() * x[..., 1:, :]
    return out


def normalized_trace(params: ModelParams, dim: EnsembleDim, t):
    """|Tr exp(-i H T)| / 2(N+1); equals 1 iff U(T) is the identity up to phase.

    ``t`` may be a scalar or an array of times.  In sector s the spectrum is
    |w_s| m + s omega_a, so the sum over m is a Dirichlet kernel:
    Tr exp(-i H T) = sum_s e^{-i s omega_a T} sin((N+1) x_s) / sin x_s with
    x_s = |w_s| T / 2, O(1) per time at any N.  With x = k pi + delta,
    |delta| <= pi/2, the kernel is (-1)^{kN} sin((N+1) delta) / sin delta,
    exactly N + 1 at delta = 0, so the recurrences lose no digits.  delta is
    reduced against pi itself (float pi plus its tail), not its rounding,
    which would shift every recurrence by k (pi - float(pi)).  The sign is
    read from the parities of k and N, never from the float k N.
    """
    t_arr = np.atleast_1d(checked_durations(t))
    widths = np.array([math.hypot(*w) for w in _sector_axes(params)])
    with np.errstate(over="ignore"):
        x = _finite_angle(np.multiply.outer(t_arr, 0.5 * widths), "sector angle |w_s| T / 2")
    k = np.round(x / np.pi)
    delta = x - k * np.pi - k * _PI_TAIL
    kernel = np.divide(np.sin(dim.dim * delta), np.sin(delta), out=np.full_like(delta, dim.dim), where=delta != 0.0)
    kernel *= 1.0 - 2.0 * (k % 2) * (dim.n_spins % 2)
    out = np.abs((sector_phases(params, t_arr) * kernel).sum(axis=-1)) / (2 * dim.dim)
    return float(out[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else out


def _period_integers(params: ModelParams, dim: EnsembleDim, t: float) -> dict[str, int] | None:
    """The paper's commensurability integers of a period T, or None unless each is one.

    ZZ: n1 = g T / pi, n2 = (omega_p T / pi - n1) / 2, and n3 = omega_a T / pi
    (N even) or n4 = omega_a T / pi - n1 / 2 (N odd).  XZ: n5 = omega~ T / 2 pi,
    n6 = omega_a T / pi.
    """
    if params.kind == "xz":
        values = {"n5": params.omega_tilde * t / (2 * math.pi), "n6": params.omega_a * t / math.pi}
    else:
        n1, odd = params.g * t / math.pi, dim.n_spins % 2
        values = {"n1": n1, "n2": (params.omega_p * t / math.pi - n1) / 2,
                  "n4" if odd else "n3": params.omega_a * t / math.pi - odd * n1 / 2}
    integers = {name: round(v) for name, v in values.items()}
    near = all(abs(v - integers[name]) <= _RATIO_TOL * max(1.0, abs(v)) for name, v in values.items())
    return integers if near else None


def _near_recurrences(params: ModelParams, dim: EnsembleDim, centers: np.ndarray, half: float, t_max: float):
    """Best time within +/- half of each center, and its residual 1 - F.

    Each window gets a grid of 2 _NEAR_POINTS + 1 points and one three-point
    parabolic step from its best point: where the sector phases turn fast,
    the top of F is far narrower than the grid step.  The caller keeps each
    window inside (0, t_max]; only its last ulp is clipped here.
    """
    step = half / _NEAR_POINTS
    times = np.minimum(centers[:, None] + step * np.arange(-_NEAR_POINTS, _NEAR_POINTS + 1), t_max)
    res = 1.0 - normalized_trace(params, dim, times)
    rows = np.arange(centers.size)
    best = res.argmin(axis=1)
    mid = np.clip(best, 1, 2 * _NEAR_POINTS - 1)
    lo, c, hi = res[rows, mid - 1], res[rows, mid], res[rows, mid + 1]
    curvature = lo - 2.0 * c + hi
    shift = np.divide(step * (lo - hi), 2.0 * curvature, out=np.zeros_like(c), where=curvature > 0.0)
    vertex = np.minimum(times[rows, mid] + np.clip(shift, -step, step), t_max)
    res_vertex = 1.0 - normalized_trace(params, dim, vertex)
    better = res_vertex < res[rows, best]
    return np.where(better, vertex, times[rows, best]), np.where(better, res_vertex, res[rows, best])


def reversal_period(params: ModelParams, dim: EnsembleDim, t_max: float) -> PeriodSolution:
    """Smallest T in (0, t_max] with U(T) = identity up to a global phase.

    U(T) is a multiple of I only where every sector recurs,
    |w_s| T / 2 in pi Z (w_s from :func:`_sector_axes`), and the two sector
    phases agree, so every exact period is a recurrence T_k = 2 pi k / w of
    the widest sector, w = max_s |w_s| (with a probe at rest, w = 0, only the
    ancilla turns, and w = 2 |omega_a|).  The accepted T satisfies
    1 - F(T) < tol = ``PERIOD_RESIDUAL_TOL``, which also admits near periods
    of irrational rates.  Since F <= (|D_w| + N + 1) / 2(N+1), the widest
    kernel D_w = sin((N+1) delta) / sin delta must then lie within
    2 tol (N+1) of N + 1.  Near delta = 0 it is
    (N+1) (1 - ((N+1)^2 - 1) delta^2 / 6), so |delta| <= sqrt(12 tol / ((N+1)^2 - 1)),
    and with delta = w (T - T_k) / 2 every near period lies within h / 2 of a
    T_k, h = 4 sqrt(12 tol / ((N+1)^2 - 1)) / w (a factor-2 margin).

    The T_k are tested in ascending chunks, one vectorised trace per chunk.
    A T_k that passes is returned as it is; each T_k before it is searched
    within +/- h first (:func:`_near_recurrences`).  The paper's integers
    (:func:`_period_integers`) are reported when the accepted T has them.

    The cost grows with the number of recurrences before the answer,
    t_max w / 2 pi when the window holds no period: every one is walked
    before :class:`PeriodNotFound` is raised.  At N = 2000 a chunk of
    ``_PERIOD_CHUNK`` = 1024 takes about 5.5 ms on one core (one BLAS
    thread), so ZZ with omega_p = sqrt 2 and omega_a = g = 1 takes about
    2 s up to t_max = 10^6; choose t_max for irrational rates with that in
    mind.
    """
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ContractViolation(f"search window must be positive and finite, got t_max = {t_max!r}")
    rate = max(math.hypot(*w) for w in _sector_axes(params)) or 2.0 * abs(params.omega_a)
    if rate == 0.0:
        raise PeriodNotFound("H = 0: every time is a period, and none is the smallest")
    tol = PERIOD_RESIDUAL_TOL
    half = 4.0 * math.sqrt(12.0 * tol / (dim.dim**2 - 1)) / rate
    spacing = 2.0 * math.pi / rate
    k_last = math.floor((t_max + half) / spacing)
    for first in range(1, k_last + 1, _PERIOD_CHUNK):
        recurrences = spacing * np.arange(first, min(first + _PERIOD_CHUNK, k_last + 1))
        times = np.minimum(recurrences, t_max)
        res = 1.0 - normalized_trace(params, dim, times)
        stop = np.append(res < tol, True).argmax()  # the first T_k that passes, if any
        # a window that would reach past t_max is moved left to end there
        centers = np.minimum(recurrences[:stop], t_max - half)
        near_times, near_res = _near_recurrences(params, dim, centers, half, t_max)
        times, res = np.append(near_times, times[stop:stop + 1]), np.append(near_res, res[stop:stop + 1])
        found = np.flatnonzero(res < tol)
        if found.size:
            t = float(times[found[0]])
            return PeriodSolution(period=t, residual=float(res[found[0]]), integers=_period_integers(params, dim, t))
    raise PeriodNotFound(f"no reversal period with residual < {tol:g} in (0, {t_max:g}]")


def optimal_settings(params: ModelParams) -> OptimalSettings:
    """Ancilla angle and step-1 duration that cancel the information leakage.

    ZZ always admits the optimum theta0 = pi/2, t1 = pi / (2 g), the first of
    the times (n + 1/2) pi / g.  The XZ optimum exists only in the
    strong-coupling regime g >= |omega_p|; below it the returned time
    minimizes the residual term and is flagged ``sub_optimal``.  With
    g = omega_p = 0 the XZ probe does not evolve, and there is no optimum.
    """
    theta0 = math.pi / 2
    if params.kind == "zz":
        if params.g <= 0.0:
            raise ContractViolation("the ZZ optimum needs a positive coupling")
        return OptimalSettings(theta0=theta0, t1=0.5 * math.pi / params.g, status="optimal")
    wt = params.omega_tilde
    if wt <= 0.0:
        raise ContractViolation("the XZ optimum needs a nonzero coupling or probe frequency")
    if params.g >= abs(params.omega_p):
        t1 = math.acos(-(params.omega_p**2) / params.g**2) / wt
        return OptimalSettings(theta0=theta0, t1=t1, status="optimal")
    return OptimalSettings(theta0=theta0, t1=math.pi / wt, status="sub_optimal")


def optimal_axis(params: ModelParams) -> tuple[float, float, float]:
    """Axis c of the optimal phase generator c.J; it does not depend on N.

    c is the sigma_z-odd part (c_g - c_e) / 2 of the sector axes c_s of
    u_s(t1)^dagger (g.J) u_s(t1) at the (sub-)optimal t1, turned by
    :func:`su2_rotate` as in the Fisher kernels: J(pi/2 - omega_p t1) for ZZ,
    (c_x, c_y, 0) for XZ, a unit axis except at weak XZ coupling.
    """
    # propagator's pairs bit for bit, off its binding: perfbench's tests count each call as one in qfi_general
    pairs = su2_rotation(_sector_axes(params), optimal_settings(params).t1)
    c_e, c_g = su2_rotate(su2_inverse(pairs), encoding_axis(params.kind))
    return tuple(float(c) for c in 0.5 * (c_g - c_e))


def optimal_generator(params: ModelParams, dim: EnsembleDim) -> PhaseGenerator:
    """Phase generator c.J whose mean square sets the information at the optimum (axis :func:`optimal_axis`)."""
    return PhaseGenerator(dim, optimal_axis(params))
