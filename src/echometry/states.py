"""Input-state constructors for the probe ensemble and the ancilla qubit.

The probe is always handled in spectral form: a list of weights and mutually
orthonormal eigenvectors (:class:`SpectralProbe`).  The ancilla is a 2x2
density matrix carrying its preparation angles and an accumulated dephasing
rate (:class:`AncillaState`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin import ContractViolation, EnsembleDim, PhaseGenerator, KET_E, KET_G, assert_hermitian

__all__ = [
    "EPS_SPECTRUM",
    "AncillaState",
    "SpectralProbe",
    "ThermalSpec",
    "ancilla_state",
    "dephase_ancilla",
    "polarized_probe",
    "ghz_probe",
    "thermal_probe",
    "spectral_decompose",
]

# Probe eigenvalues at or below this weight are dropped and the rest
# renormalized; keeps the p_i + p_j denominators of the Fisher sums away
# from zero.
EPS_SPECTRUM = 1e-12


@dataclass(frozen=True)
class AncillaState:
    """Ancilla qubit state: preparation angles, dephasing rate, density matrix.

    ``theta0`` sets the population imbalance, ``phi0`` the relative phase of
    the |e>/|g> superposition; ``x`` in [0, 1] is the accumulated dephasing
    rate (0 means pure).
    """

    theta0: float
    phi0: float
    x: float
    rho: np.ndarray

    def __post_init__(self) -> None:
        rho = np.array(self.rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ContractViolation("ancilla density matrix must be 2x2")
        if abs(np.trace(rho).real - 1.0) > 1e-12 or abs(np.trace(rho).imag) > 1e-12:
            raise ContractViolation("ancilla density matrix must have unit trace")
        assert_hermitian(rho, name="ancilla density matrix")
        if np.linalg.eigvalsh(rho).min() < -1e-12:
            raise ContractViolation("ancilla density matrix must be positive semidefinite")
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


def _pure_ket(theta0: float, phi0: float) -> np.ndarray:
    return np.cos(theta0 / 2.0) * KET_E + np.exp(-1j * phi0) * np.sin(theta0 / 2.0) * KET_G


def ancilla_state(theta0: float, phi0: float = 0.0) -> AncillaState:
    """Pure ancilla state from the population-imbalance and phase angles."""
    if not (np.isfinite(theta0) and np.isfinite(phi0)):
        raise ContractViolation("ancilla angles must be finite")
    ket = _pure_ket(theta0, phi0)
    return AncillaState(theta0=float(theta0), phi0=float(phi0), x=0.0, rho=np.outer(ket, ket.conj()))


def dephase_ancilla(state: AncillaState, x: float) -> AncillaState:
    """Apply the qubit dephasing channel with rate x.

    Kraus pair sqrt(1 - x/2) * I and sqrt(x/2) * sigma_z: populations are
    untouched and coherences shrink by (1 - x).  Rates compose, so the
    returned state records 1 - (1 - x_old)(1 - x).
    """
    if not 0.0 <= x <= 1.0:
        raise ContractViolation(f"dephasing rate must lie in [0, 1], got {x!r}")
    # For this Kraus pair the sum is identically an off-diagonal scaling,
    # (1 - x/2) rho + (x/2) sigma_z rho sigma_z; applying the scaling directly
    # keeps populations, trace, and hermiticity exact.
    rho = np.array(state.rho, dtype=complex)
    rho[0, 1] *= 1.0 - x
    rho[1, 0] *= 1.0 - x
    combined = 1.0 - (1.0 - state.x) * (1.0 - x)
    return AncillaState(theta0=state.theta0, phi0=state.phi0, x=float(combined), rho=rho)


@dataclass(frozen=True)
class ThermalSpec:
    """Inverse temperature of a thermal probe and its Boltzmann weights.

    Energies are the spin-generator eigenvalues m = -j..+j, so the partition
    function is Z = sum_m exp(-m beta).
    """

    dim: EnsembleDim
    beta: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.beta) or self.beta < 0.0:
            raise ContractViolation("inverse temperature must be finite and nonnegative")

    def weights(self) -> np.ndarray:
        """Boltzmann weights exp(-m beta)/Z over m ascending (sum exactly 1)."""
        logw = -self.beta * self.dim.m_values()
        w = np.exp(logw - logw.max())
        return w / w.sum()


@dataclass(frozen=True)
class SpectralProbe:
    """Probe density matrix in spectral form: weights plus orthonormal columns."""

    dim: EnsembleDim
    weights: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        v = np.array(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape != (self.dim.dim, w.size):
            raise ContractViolation("probe vectors must be columns of shape (dim, n_terms)")
        if w.size == 0 or np.any(w <= EPS_SPECTRUM):
            raise ContractViolation("probe weights must all exceed the spectral cutoff")
        if abs(w.sum() - 1.0) > 1e-10:
            raise ContractViolation("probe weights must sum to one")
        gram = v.conj().T @ v
        if np.max(np.abs(gram - np.eye(w.size))) > 1e-10:
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


def _generator_frame(dim: EnsembleDim, generator: PhaseGenerator) -> tuple[np.ndarray, np.ndarray]:
    if generator.dim != dim:
        raise ContractViolation(f"generator is for N = {generator.dim.n_spins}, probe for N = {dim.n_spins}")
    return generator.frame


def polarized_probe(dim: EnsembleDim, generator: PhaseGenerator) -> SpectralProbe:
    """Pure probe polarized along the top eigenvector of a generator (m = +j for a unit axis)."""
    vals, vecs = _generator_frame(dim, generator)
    if vals[-1] - vals[-2] <= 1e-8 * max(1.0, abs(vals[-1] - vals[0])):
        raise ContractViolation("extremal eigenvalue of the generator is degenerate")
    return SpectralProbe(dim=dim, weights=np.array([1.0]), vectors=vecs[:, -1:])


def ghz_probe(dim: EnsembleDim, generator: PhaseGenerator) -> SpectralProbe:
    """Equal superposition of the two extremal eigenvectors of a generator."""
    vals, vecs = _generator_frame(dim, generator)
    if vals[-1] - vals[-2] <= 1e-8 or vals[1] - vals[0] <= 1e-8:
        raise ContractViolation("extremal eigenvalue of the generator is degenerate")
    psi = (vecs[:, -1] + vecs[:, 0]) / np.sqrt(2.0)
    return SpectralProbe(dim=dim, weights=np.array([1.0]), vectors=psi[:, None])


def thermal_probe(dim: EnsembleDim, generator: PhaseGenerator, beta: float) -> SpectralProbe:
    """Thermal probe exp(-beta G)/Z in the eigenbasis of a unit spin generator.

    ``beta >= 0`` puts the ground state at m = -j.  The generator's axis must
    be a unit vector (spectrum {-j, ..., +j}); weights use the exact m values,
    with the maximum exponent subtracted, so large beta stays well conditioned.
    Weights below the spectral cutoff are dropped and the rest renormalized.
    """
    spec = ThermalSpec(dim=dim, beta=float(beta))
    if abs(np.linalg.norm(generator.axis) - 1.0) > 1e-12:
        raise ContractViolation("thermal probe needs a generator with a unit axis (spectrum -j..+j)")
    _, vecs = _generator_frame(dim, generator)
    weights = spec.weights()
    keep = weights > EPS_SPECTRUM
    weights = weights[keep] / weights[keep].sum()
    return SpectralProbe(dim=dim, weights=weights, vectors=vecs[:, keep])


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
