"""Input-state constructors for the probe ensemble and the ancilla qubit.

The probe is always handled in spectral form: weights and mutually
orthonormal eigenvectors (:class:`SpectralProbe`).  A probe is either built
by hand from its columns, or declared by its frame (:class:`SpinLevels`):
the axis n of a spin component n.J and the levels m its weights sit on.
A declared probe's vectors are derived, built on their first read, so a
consumer that needs only the frame solves no column: the quantum Fisher sum
reads closed-form moments of the levels, and the readout maps a polarized
probe as a coherent state.  The ancilla is defined by its preparation angles
(theta0, phi0) and an accumulated dephasing rate x alone
(:class:`AncillaState`); its 2x2 density matrix is derived from them.

Both probe constructors declare their levels, in O(1) time and memory, and
their vectors cost O(N) memory with no full eigenframe:

* :func:`polarized_probe` is the top level, m = +j: the spin-coherent state
  along the generator's axis n = |n| (sin t cos p, sin t sin p, cos t)
  (Arecchi et al., PRA 6, 2211, 1972), in closed form:
  ``sqrt(C(N, j+m)) cos(t/2)^(j+m) sin(t/2)^(j-m) e^{-i p m}``, from the
  binomial magnitudes it shares with :func:`coherent_state`.  At a pole it
  is the exact basis vector.  Its ``coherent_axis`` (derived from the
  declaration, never a constructor argument) lets the readout map it
  through any circuit with :func:`coherent_state` instead of a J_x frame.
* :func:`thermal_probe` is the lowest levels, those whose Boltzmann weight
  it keeps; their vectors come from
  :func:`~echometry.spin.lowest_spin_columns`: inverse iteration at their
  exact eigenvalues m, with no eigenvalue search, or, when every weight is
  kept, the full frame from the three-term recurrence at those eigenvalues,
  which needs no scipy (exact basis vectors at a pole, either way).  Cold
  enough to keep one level, it is |n; -j>, the coherent state along -n,
  and its ``coherent_axis`` is -n.

Both follow the phase convention of :func:`~echometry.spin.spin_frame`
(:func:`~echometry.spin.pin_frame_phases`): each vector's largest-magnitude
entry is real and positive, ties within 1e-12 relative going to the first,
so a probe equals the matching frame column without phase alignment.
Probes compare and hash by identity: their arrays have no single truth
value.  Only the dense reference builds a probe's density matrix
(:func:`~echometry.reference.probe_density`).

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
    check_generator_size,
    lowest_spin_columns,
    pin_frame_phases,
    tridiagonal_axis,
)

__all__ = [
    "EPS_SPECTRUM",
    "AncillaState",
    "SpectralProbe",
    "SpinLevels",
    "ancilla_state",
    "coherent_state",
    "dephase_ancilla",
    "polarized_probe",
    "thermal_probe",
    "thermal_weights",
]

# Probe eigenvalues at or below this weight are dropped and the rest
# renormalized; keeps the p_i + p_j denominators of the Fisher sums away
# from zero.
EPS_SPECTRUM = 1e-12

# Inverse temperatures at or above this give the ground state alone (see
# :func:`thermal_weights`).
_BETA_GROUND = 1e3


@dataclass(frozen=True)
class AncillaState:
    """Ancilla qubit state, defined by its preparation angles and dephasing rate.

    ``theta0`` sets the population imbalance, ``phi0`` the relative phase of
    the |e>/|g> superposition; ``x`` in [0, 1] is the accumulated dephasing
    rate (0 means pure).  Derived from the three, once and read-only:
    ``rho``, the projector of :attr:`ket` with coherences scaled by 1 - x,
    and ``eigenpairs``, its weights q (ascending) and unit columns alpha[s, i]
    in closed form.  Dephasing shrinks the transverse Bloch component by
    1 - x, so the Bloch vector has length r = sqrt(cos^2 theta0 + (1 - x)^2
    sin^2 theta0) and turns by atan2(x sin theta0 cos theta0, 1 - x sin^2
    theta0) to the nearer pole: the top column is the ket at that angle, the
    other its orthogonal partner with weight q_0 = (1 - r)/2
    = x (2 - x) sin^2 theta0 / (2 (1 + r)), 0 at or below the spectral
    cutoff.  A pure ancilla has weights exactly (0, 1).
    """

    theta0: float
    phi0: float
    x: float
    rho: np.ndarray = field(init=False, repr=False, compare=False)
    eigenpairs: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta0) and math.isfinite(self.phi0)):
            raise ContractViolation("ancilla angles must be finite")
        _check_rate(self.x)
        ket = _pure_ket(self.theta0, self.phi0)
        rho = ket[:, None] * ket.conj()
        rho[0, 1] *= 1.0 - self.x
        rho[1, 0] *= 1.0 - self.x
        sin, cos, x = math.sin(self.theta0), math.cos(self.theta0), self.x
        low = x * (2.0 - x) * sin * sin / (2.0 * (1.0 + math.hypot(cos, (1.0 - x) * sin)))
        weights = np.array([low if low > EPS_SPECTRUM else 0.0, 1.0 - low])
        e, g = _pure_ket(self.theta0 - math.atan2(x * sin * cos, 1.0 - x * sin * sin), self.phi0).tolist()
        columns = np.array([[-g.conjugate(), e], [e.conjugate(), g]])
        for array in (rho, weights, columns):
            array.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "eigenpairs", (weights, columns))

    @property
    def ket(self) -> np.ndarray:
        """State vector cos(theta0/2)|e> + e^{-i phi0} sin(theta0/2)|g>; pure states only."""
        if self.x != 0.0:
            raise ContractViolation("dephased ancilla has no state vector")
        return _pure_ket(self.theta0, self.phi0)


def _check_rate(x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise ContractViolation(f"dephasing rate must lie in [0, 1], got {x!r}")


def _pure_ket(theta0: float, phi0: float) -> np.ndarray:
    return np.array([np.cos(theta0 / 2.0), np.exp(-1j * phi0) * np.sin(theta0 / 2.0)])


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
    and nonnegative.  Adjacent levels differ by a factor e^-beta, which
    underflows to 0 from beta = 746, so every beta at or above
    ``_BETA_GROUND`` gives exactly the ground state (1, 0, ..., 0); beta is
    clamped there, since beta m itself overflows once beta j exceeds the float
    range.
    """
    logw = -_checked_beta(beta) * dim.m_values()
    w = np.exp(logw - logw.max())
    return w / w.sum()


def _checked_beta(beta: float) -> float:
    """``beta``, checked finite and nonnegative, clamped at ``_BETA_GROUND``."""
    if not math.isfinite(beta) or beta < 0.0:
        raise ContractViolation("inverse temperature must be finite and nonnegative")
    return min(float(beta), _BETA_GROUND)


@dataclass(frozen=True)
class SpinLevels:
    """A probe's declared frame: its weights sit on eigenvectors |n; m> of the spin component n.J.

    |n; m> has eigenvalue |n| m and is D^j(R_n)|j, m> up to a phase, with R_n
    = :func:`~echometry.circuit.axis_rotation` of ``axis``.  With ``top`` the
    one weight sits on m = +j (a polarized probe); otherwise the weights sit
    on the lowest levels m = -j, -j + 1, ... in order (a thermal probe).
    """

    axis: tuple[float, float, float]
    top: bool

    def __post_init__(self) -> None:
        axis = np.asarray(self.axis, dtype=float)
        if axis.shape != (3,) or not np.isfinite(axis).all() or not axis.any():
            raise ContractViolation(f"probe levels need a finite nonzero axis, got {self.axis!r}")
        object.__setattr__(self, "axis", tuple(float(a) for a in axis))


@dataclass(frozen=True, eq=False, init=False)
class SpectralProbe:
    """Probe density matrix in spectral form: weights plus orthonormal columns.

    Built by hand, ``SpectralProbe(dim, weights, vectors)``, or declared by
    its frame, ``SpectralProbe(dim, weights, levels=SpinLevels(axis, top))``,
    as :func:`polarized_probe` and :func:`thermal_probe` do.  ``vectors``
    serves both: a declared probe builds its columns on the first read
    (:func:`_level_columns`) and validates them then, so a consumer that
    needs only its frame (the quantum Fisher sum's closed-form moments, the
    coherent readout) solves no column.

    ``coherent_axis`` is derived from the declaration: the axis n of a
    single level at m = +j, its negation -n for a single level at m = -j
    (|n; -j> is the top level of -n.J, as a thermal probe cold enough to
    keep one level declares), else None.  When set, the probe is pure and
    equal, up to a global phase, to the spin-coherent state polarized along
    that axis (``D^j(R_n)|j,+j>``), which lets the readout use the closed
    form of :func:`coherent_state` for the probe's image under any circuit.

    Probes compare and hash by identity (``eq=False``): their arrays have no
    single truth value.
    """

    dim: EnsembleDim
    weights: np.ndarray
    levels: SpinLevels | None

    def __init__(
        self, dim: EnsembleDim, weights, vectors: np.ndarray | None = None, *, levels: SpinLevels | None = None
    ) -> None:
        w = np.array(weights, dtype=float)
        if (vectors is None) == (levels is None):
            raise ContractViolation("a probe takes either its vectors or its declared levels")
        # each check passes only on a true comparison, which a NaN never gives
        if w.ndim != 1 or w.size == 0 or not (w > EPS_SPECTRUM).all():
            raise ContractViolation("probe weights must all be finite and exceed the spectral cutoff")
        if not abs(w.sum() - 1.0) <= 1e-10:
            raise ContractViolation("probe weights must be finite and sum to one")
        if levels is not None and w.size > (1 if levels.top else dim.dim):
            raise ContractViolation("more probe weights than declared levels")
        w.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "levels", levels)
        if vectors is not None:
            self.__dict__["vectors"] = _checked_columns(dim, w.size, vectors)

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """The orthonormal columns, (dim, n_terms); a declared probe's are built on the first read."""
        return _checked_columns(self.dim, self.n_terms, _level_columns(self.dim, self.levels, self.n_terms))

    @property
    def coherent_axis(self) -> tuple[float, float, float] | None:
        if self.levels is None:
            return None
        if self.levels.top:
            return self.levels.axis
        return tuple(-a for a in self.levels.axis) if self.n_terms == 1 else None

    @property
    def n_terms(self) -> int:
        return self.weights.size


def _checked_columns(dim: EnsembleDim, count: int, vectors) -> np.ndarray:
    """``vectors`` as a read-only complex array, once checked to be ``count`` orthonormal columns."""
    v = np.array(vectors, dtype=complex)
    if v.ndim != 2 or v.shape != (dim.dim, count):
        raise ContractViolation("probe vectors must be columns of shape (dim, n_terms)")
    gram = v.conj().T @ v
    if not np.abs(gram - np.eye(count)).max() <= 1e-10:
        raise ContractViolation("probe eigenvectors must be finite and orthonormal")
    v.setflags(write=False)
    return v


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


def _level_columns(dim: EnsembleDim, levels: SpinLevels, count: int) -> np.ndarray:
    """The eigenvectors |n; m> of n.J that ``levels`` declares, in frame phases.

    The top level is the spin-coherent state in closed form, without an
    eigensolve; the lowest ``count`` come from
    :func:`~echometry.spin.lowest_spin_columns`.  See the module docstring
    for the amplitudes and the phase convention.
    """
    if not levels.top:
        return lowest_spin_columns(dim, levels.axis, count)
    nz, r, _ = tridiagonal_axis(levels.axis)
    norm = math.hypot(nz, r)
    nz, r = nz / norm, r / norm  # the unit axis, so that no scale of it over- or underflows below
    # cos^2 and sin^2 of half the polar angle, the small one without cancellation,
    # so that a pole gives an exact zero
    big = (1.0 + abs(nz)) / 2.0
    small = r * r / (2.0 * (1.0 + abs(nz)))
    cos2, sin2 = (big, small) if nz >= 0.0 else (small, big)
    # exp(-i t J_y)|j,+j> of the real tridiagonal frame: the binomial magnitudes, with the sign of r
    amp = _binomial_magnitudes(dim.n_spins, math.sqrt(cos2), math.sqrt(sin2))
    if r < 0.0:
        amp[(dim.n_spins - np.arange(dim.dim)) % 2 == 1] *= -1.0
    return pin_frame_phases(dim, levels.axis, amp[:, None])


def polarized_probe(dim: EnsembleDim, generator: PhaseGenerator) -> SpectralProbe:
    """Pure probe polarized along the generator's axis: its top eigenvector (m = +j for a unit axis).

    Declared as the top level of the generator's frame; its vector, when
    read, is the spin-coherent state in closed form, without an eigensolve.
    """
    axis = check_generator_size(generator, dim).axis
    return SpectralProbe(dim, np.array([1.0]), levels=SpinLevels(axis, top=True))


def thermal_probe(dim: EnsembleDim, generator: PhaseGenerator, beta: float) -> SpectralProbe:
    """Thermal probe exp(-beta G)/Z in the eigenbasis of a unit spin generator.

    ``beta >= 0`` puts the ground state at m = -j.  The generator's axis must
    be a unit vector (spectrum {-j, ..., +j}); weights use the exact m values,
    with the maximum exponent subtracted, so large beta stays well conditioned.
    Weights at or below the spectral cutoff are dropped and the rest
    renormalized; they fall with m, so the kept terms sit on the lowest
    levels, which is what the probe declares.  Level k = j + m has weight
    e^{-beta k} / Z with Z = expm1(-beta (N+1)) / expm1(-beta) in closed
    form, so only the kept levels (and one more) are exponentiated, O(1) in
    N for beta > 0.  Only a read of its vectors solves them.
    """
    beta = _checked_beta(beta)
    axis = check_generator_size(generator, dim).axis
    if abs(np.linalg.norm(axis) - 1.0) > 1e-12:
        raise ContractViolation("thermal probe needs a generator with a unit axis (spectrum -j..+j)")
    if beta == 0.0:
        z, count = float(dim.dim), dim.dim
    else:
        z = math.expm1(-beta * dim.dim) / math.expm1(-beta)
        # e^{-beta k} > EPS_SPECTRUM Z needs k < bound; one level past it absorbs rounding
        bound = -math.log(EPS_SPECTRUM * z) / beta
        count = dim.dim if bound >= dim.dim - 2 else max(0, math.floor(bound) + 2)
    logw = -beta * (np.arange(count) - dim.j)
    w = np.exp(logw - beta * dim.j) / z
    kept = int(np.count_nonzero(w > EPS_SPECTRUM))
    return SpectralProbe(dim, w[:kept] / w[:kept].sum(), levels=SpinLevels(axis, top=False))
