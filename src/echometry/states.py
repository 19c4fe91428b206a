"""Input-state constructors for the probe ensemble and the ancilla qubit.

The probe is always handled in spectral form: a list of weights and mutually
orthonormal eigenvectors (:class:`SpectralProbe`).  The ancilla is defined
by its preparation angles (theta0, phi0) and an accumulated dephasing rate x
alone (:class:`AncillaState`); its 2x2 density matrix is derived from them.

Both probe constructors cost O(N) memory and solve no full eigenframe.

* :func:`polarized_probe` is the spin-coherent state along the generator's
  axis n = |n| (sin t cos p, sin t sin p, cos t) (Arecchi et al., PRA 6,
  2211, 1972), in closed form:
  ``sqrt(C(N, j+m)) cos(t/2)^(j+m) sin(t/2)^(j-m) e^{-i p m}``, from the
  binomial magnitudes it shares with :func:`coherent_state`.  At a pole it
  is the exact basis vector.  It records its axis
  (``SpectralProbe.coherent_axis``, which no constructor takes), so the
  readout can map it through any circuit with :func:`coherent_state`
  instead of a J_x frame.
* :func:`thermal_probe` solves only the eigenvectors it keeps, the lowest of
  the generator (:func:`~echometry.spin.lowest_spin_columns`): inverse
  iteration at their exact eigenvalues m, with no eigenvalue search (exact
  basis vectors at a pole), or the full frame when every weight is kept.

Both follow the phase convention of :func:`~echometry.spin.spin_frame`
(:func:`~echometry.spin.pin_frame_phases`): each vector's largest-magnitude
entry is real and positive, ties within 1e-12 relative going to the first,
so a probe equals the matching frame column without phase alignment.

:func:`coherent_state` is D^j(u)|j,+j> for SU(2) elements u held as
Cayley-Klein pairs (a, b) (see :mod:`echometry.circuit`): amplitudes
``sqrt(C(N, k)) (a*)^k b^(N-k)``, k = j + m, in log form.  Its
log-factorials come from ``math.lgamma`` and Stirling's series, not from
scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .spin import (
    ContractViolation,
    EnsembleDim,
    PhaseGenerator,
    KET_E,
    KET_G,
    _check_generator_size,
    assert_hermitian,
    lowest_spin_columns,
    pin_frame_phases,
    tridiagonal_axis,
)

__all__ = [
    "EPS_SPECTRUM",
    "AncillaState",
    "SpectralProbe",
    "ancilla_state",
    "coherent_state",
    "dephase_ancilla",
    "polarized_probe",
    "thermal_probe",
    "thermal_weights",
    "spectral_decompose",
]

# Probe eigenvalues at or below this weight are dropped and the rest
# renormalized; keeps the p_i + p_j denominators of the Fisher sums away
# from zero.
EPS_SPECTRUM = 1e-12


@dataclass(frozen=True)
class AncillaState:
    """Ancilla qubit state, defined by its preparation angles and dephasing rate.

    ``theta0`` sets the population imbalance, ``phi0`` the relative phase of
    the |e>/|g> superposition; ``x`` in [0, 1] is the accumulated dephasing
    rate (0 means pure).  ``rho`` is derived from the three, once: the
    projector of :attr:`ket` with its coherences scaled by 1 - x.
    """

    theta0: float
    phi0: float
    x: float
    rho: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta0) and math.isfinite(self.phi0)):
            raise ContractViolation("ancilla angles must be finite")
        _check_rate(self.x)
        ket = _pure_ket(self.theta0, self.phi0)
        rho = ket[:, None] * ket.conj()
        rho[0, 1] *= 1.0 - self.x
        rho[1, 0] *= 1.0 - self.x
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @property
    def is_pure(self) -> bool:
        return self.x == 0.0

    @property
    def ket(self) -> np.ndarray:
        """State vector cos(theta0/2)|e> + e^{-i phi0} sin(theta0/2)|g>; pure states only."""
        if not self.is_pure:
            raise ContractViolation("dephased ancilla has no state vector")
        return _pure_ket(self.theta0, self.phi0)


def _check_rate(x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise ContractViolation(f"dephasing rate must lie in [0, 1], got {x!r}")


def _pure_ket(theta0: float, phi0: float) -> np.ndarray:
    return np.cos(theta0 / 2.0) * KET_E + np.exp(-1j * phi0) * np.sin(theta0 / 2.0) * KET_G


def ancilla_state(theta0: float, phi0: float = 0.0) -> AncillaState:
    """Pure ancilla state from the population-imbalance and phase angles."""
    return AncillaState(theta0=float(theta0), phi0=float(phi0), x=0.0)


def dephase_ancilla(state: AncillaState, x: float) -> AncillaState:
    """Apply the qubit dephasing channel with rate x.

    Kraus pair sqrt(1 - x/2) * I and sqrt(x/2) * sigma_z: populations are
    untouched and coherences shrink by (1 - x).  Rates compose, so the
    returned state records 1 - (1 - x_old)(1 - x).
    """
    _check_rate(x)
    return AncillaState(theta0=state.theta0, phi0=state.phi0, x=float(1.0 - (1.0 - state.x) * (1.0 - x)))


def thermal_weights(dim: EnsembleDim, beta: float) -> np.ndarray:
    """Boltzmann weights exp(-m beta)/Z over the generator eigenvalues m = -j..+j, ascending.

    Z = sum_m exp(-m beta); the inverse temperature ``beta`` must be finite
    and nonnegative.
    """
    if not math.isfinite(beta) or beta < 0.0:
        raise ContractViolation("inverse temperature must be finite and nonnegative")
    logw = -float(beta) * dim.m_values()
    w = np.exp(logw - logw.max())
    return w / w.sum()


@dataclass(frozen=True)
class SpectralProbe:
    """Probe density matrix in spectral form: weights plus orthonormal columns.

    ``coherent_axis`` is not a constructor argument: only
    :func:`polarized_probe` sets it, to the axis its vector was built from.
    When set, the probe is pure and equal, up to a global phase, to the
    spin-coherent state polarized along that axis (``D^j(R_n)|j,+j>`` with
    R_n = :func:`~echometry.circuit.axis_rotation`), which lets the readout
    use the closed form of :func:`coherent_state` for the probe's image
    under any circuit.
    """

    dim: EnsembleDim
    weights: np.ndarray
    vectors: np.ndarray
    coherent_axis: tuple[float, float, float] | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        v = np.array(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape != (self.dim.dim, w.size):
            raise ContractViolation("probe vectors must be columns of shape (dim, n_terms)")
        if w.size == 0 or (w <= EPS_SPECTRUM).any():
            raise ContractViolation("probe weights must all exceed the spectral cutoff")
        if abs(w.sum() - 1.0) > 1e-10:
            raise ContractViolation("probe weights must sum to one")
        gram = v.conj().T @ v
        if np.abs(gram - np.eye(w.size)).max() > 1e-10:
            raise ContractViolation("probe eigenvectors must be orthonormal")
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "vectors", v)

    @property
    def n_terms(self) -> int:
        return self.weights.size

    def density(self) -> np.ndarray:
        """Reconstruct the density matrix sum_i p_i |psi_i><psi_i|."""
        return (self.vectors * self.weights) @ self.vectors.conj().T


# log k! for k below this comes from math.lgamma; at and above it, from
# Stirling's series, whose first omitted term is then below 1e-17.
_STIRLING_FROM = 32
_SMALL_LOG_FACTORIALS = np.array([math.lgamma(k + 1.0) for k in range(_STIRLING_FROM)])


@functools.lru_cache(maxsize=4)
def _half_log_binomials(n: int) -> np.ndarray:
    """log sqrt(C(N, k)) + const for k = 0, ..., N, as -(log k! + log (N-k)!) / 2; read-only.

    log k! is ``math.lgamma`` below ``_STIRLING_FROM``; above it, Stirling's
    series for log Gamma(z), z = k + 1, to four correction terms (Abramowitz
    & Stegun 6.1.41): (z - 1/2) log z - z + log(2 pi)/2 + 1/(12 z)
    - 1/(360 z^3) + 1/(1260 z^5) - 1/(1680 z^7).  Every coherent column at
    this N shares the table, so the last few are kept.
    """
    z = np.arange(_STIRLING_FROM, n + 1) + 1.0
    inv2 = 1.0 / (z * z)
    series = (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 / 1680.0))) / z
    large = (z - 0.5) * np.log(z) - z + 0.5 * math.log(2.0 * math.pi) + series
    log_fact = np.concatenate([_SMALL_LOG_FACTORIALS[: n + 1], large])
    out = -0.5 * (log_fact + log_fact[::-1])
    out.setflags(write=False)
    return out


def _binomial_magnitudes(n: int, abs_a, abs_b) -> np.ndarray:
    """Unit columns sqrt(C(N, k)) |a|^k |b|^(N-k), k = 0..N, on a new last axis.

    Taken in log form with the maximum subtracted, then normalized per pair,
    so none over- or underflows at large N.  log 0 is taken as -1e300, finite,
    so that 0 log 0 is 0 and k log 0 (k >= 1) underflows to an exact zero
    magnitude, without a warning.
    """
    k = np.arange(n + 1)
    log_a, log_b = (np.log(x, out=np.full(np.shape(x), -1e300), where=x > 0.0)[..., None] for x in (abs_a, abs_b))
    log_mag = k * log_a + (n - k) * log_b + _half_log_binomials(n)
    mag = np.exp(log_mag - log_mag.max(axis=-1, keepdims=True))
    return mag / np.sqrt((mag * mag).sum(-1, keepdims=True))


def coherent_state(dim: EnsembleDim, p) -> np.ndarray:
    """D^j(u)|j,+j> for Cayley-Klein pairs p = (a, b), on a new last (probe) axis.

    a and b broadcast against each other; each pair gives the unit column
    with amplitudes sqrt(C(N, k)) (a*)^k b^(N-k), k = j + m (the spin-j image
    of the spin-1/2 column (b, a*) of u): the magnitudes of
    :func:`_binomial_magnitudes` with phases -k arg a + (N - k) arg b.
    """
    a, b = (np.asarray(c) for c in p)
    n = dim.n_spins
    k = np.arange(dim.dim)
    phase = (n - k) * np.arctan2(b.imag, b.real)[..., None] - k * np.arctan2(a.imag, a.real)[..., None]
    return _binomial_magnitudes(n, np.abs(a), np.abs(b)) * np.exp(1j * phase)


def polarized_probe(dim: EnsembleDim, generator: PhaseGenerator) -> SpectralProbe:
    """Pure probe polarized along the generator's axis: its top eigenvector (m = +j for a unit axis).

    The spin-coherent state in closed form, without an eigensolve; see the
    module docstring for the amplitudes and the phase convention.
    """
    axis = _check_generator_size(generator, dim).axis
    nz, r, _ = tridiagonal_axis(axis)
    norm = math.hypot(nz, r)
    if norm == 0.0:
        raise ContractViolation("polarized probe needs a generator with a nonzero axis")
    # cos^2 and sin^2 of half the polar angle, the small one without cancellation,
    # so that a pole gives an exact zero
    big = (norm + abs(nz)) / (2.0 * norm)
    small = r * r / (2.0 * norm * (norm + abs(nz)))
    cos2, sin2 = (big, small) if nz >= 0.0 else (small, big)
    # exp(-i t J_y)|j,+j> of the real tridiagonal frame: the binomial magnitudes, with the sign of r
    amp = _binomial_magnitudes(dim.n_spins, math.sqrt(cos2), math.sqrt(sin2))
    if r < 0.0:
        amp[(dim.n_spins - np.arange(dim.dim)) % 2 == 1] *= -1.0
    probe = SpectralProbe(dim=dim, weights=np.array([1.0]), vectors=pin_frame_phases(dim, axis, amp[:, None]))
    object.__setattr__(probe, "coherent_axis", axis)
    return probe


def thermal_probe(dim: EnsembleDim, generator: PhaseGenerator, beta: float) -> SpectralProbe:
    """Thermal probe exp(-beta G)/Z in the eigenbasis of a unit spin generator.

    ``beta >= 0`` puts the ground state at m = -j.  The generator's axis must
    be a unit vector (spectrum {-j, ..., +j}); weights use the exact m values,
    with the maximum exponent subtracted, so large beta stays well conditioned.
    Weights below the spectral cutoff are dropped and the rest renormalized;
    they fall with m, so the kept terms are the lowest eigenvectors, and only
    those are solved.
    """
    weights = thermal_weights(dim, beta)
    axis = _check_generator_size(generator, dim).axis
    if abs(np.linalg.norm(axis) - 1.0) > 1e-12:
        raise ContractViolation("thermal probe needs a generator with a unit axis (spectrum -j..+j)")
    kept = int(np.count_nonzero(weights > EPS_SPECTRUM))
    weights = weights[:kept] / weights[:kept].sum()
    return SpectralProbe(dim=dim, weights=weights, vectors=lowest_spin_columns(dim, axis, kept))


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
