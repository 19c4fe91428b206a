"""Collective spin operators and spin frames on the symmetric subspace.

An ensemble of N spin-1/2 particles that is only ever driven through
collective operators stays inside the (N+1)-dimensional symmetric subspace
with total spin j = N/2.  Every operator the package diagonalizes is a spin
component n.J, held as its axis (:class:`PhaseGenerator`) and solved by
:func:`spin_frame`; :func:`joint_embed` builds the 2(N+1)-dimensional
probe-plus-ancilla operators of the dense reference path.

Conventions used throughout the package:

* probe basis ordered by the J_z eigenvalue m = -j, ..., +j (ascending),
* ancilla basis (|e>, |g>) with the excited state first, so that
  sigma_z |e> = +|e>,
* tensor products put the probe factor first: ``joint_embed(A, B) = A (x) B``.

Operators are plain ``numpy.ndarray`` values; hermiticity is checked on
demand with :func:`assert_hermitian` at the tolerance below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "ContractViolation",
    "EnsembleDim",
    "PhaseGenerator",
    "HERMITIAN_TOL",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "ID2",
    "KET_E",
    "KET_G",
    "collective_ops",
    "spin_ladder",
    "phase_generator",
    "spin_frame",
    "unitary_of_hermitian",
    "joint_embed",
    "assert_hermitian",
]

HERMITIAN_TOL = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
KET_E = np.array([1.0, 0.0], dtype=complex)
KET_G = np.array([0.0, 1.0], dtype=complex)


class ContractViolation(ValueError):
    """An input broke a numerical contract (dimension, hermiticity, trace, ...)."""


@dataclass(frozen=True)
class EnsembleDim:
    """Probe size: N spins, total spin j = N/2, symmetric-subspace dimension N+1."""

    n_spins: int

    def __post_init__(self) -> None:
        if int(self.n_spins) != self.n_spins or self.n_spins < 1:
            raise ContractViolation(
                f"probe needs a positive integer spin count, got {self.n_spins!r}"
            )
        object.__setattr__(self, "n_spins", int(self.n_spins))

    @property
    def j(self) -> float:
        return self.n_spins / 2.0

    @property
    def dim(self) -> int:
        return self.n_spins + 1

    def m_values(self) -> np.ndarray:
        """J_z eigenvalues -j, ..., +j in basis order (exact half-integers)."""
        return np.arange(self.dim) - self.j


def spin_ladder(dim: EnsembleDim) -> np.ndarray:
    """Ladder amplitudes sqrt(j(j+1) - m(m+1)) of J_+ |j,m> for m = -j, ..., j-1.

    The one band of J_+; J_x = (J_+ + J_-)/2 is the real tridiagonal matrix
    with this band halved on both off-diagonals.
    """
    m = dim.m_values()[:-1]
    return np.sqrt(dim.j * (dim.j + 1) - m * (m + 1))


def collective_ops(dim: EnsembleDim) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collective spin matrices (J_x, J_y, J_z) on the symmetric subspace.

    Built from the ladder action J_+ |j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1>
    in the ascending-m basis; all three are Hermitian and satisfy the su(2)
    algebra and the Casimir identity to near machine precision.
    """
    jz = np.diag(dim.m_values().astype(complex))
    amp = spin_ladder(dim)
    jp = np.zeros((dim.dim, dim.dim), dtype=complex)
    jp[np.arange(1, dim.dim), np.arange(dim.dim - 1)] = amp
    jx = (jp + jp.conj().T) / 2.0
    jy = (jp - jp.conj().T) / 2.0j
    return jx, jy, jz


def spin_frame(dim: EnsembleDim, axis) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues |n| m (exact, ascending) and eigenvector columns of n.J.

    With n_x + i n_y = r e^{i phi}, n.J = e^{-i phi J_z} (n_z J_z + r J_x) e^{i phi J_z},
    so the vectors are real tridiagonal ones with rows scaled by e^{-i phi m}
    (Feng et al., PRE 92, 043307, 2015), and real for n_y = 0.  Each column's
    largest-magnitude entry is made real and positive; ties (within 1e-12
    relative) go to the first.
    """
    nx, ny, nz = (float(a) for a in axis)
    m = dim.m_values()
    r = math.hypot(nx, ny) if ny != 0.0 else nx
    _, vecs = eigh_tridiagonal(nz * m, r * spin_ladder(dim) / 2.0)
    mag = np.abs(vecs)
    pivot = np.argmax(mag >= (1.0 - 1e-12) * mag.max(axis=0), axis=0)
    vecs = vecs * np.sign(vecs[pivot, np.arange(dim.dim)])
    if ny != 0.0:
        phi = math.atan2(ny, nx)
        vecs = vecs * np.exp(-1j * phi * m)[:, None] * np.exp(1j * phi * m[pivot])
    return math.hypot(nx, ny, nz) * m, vecs


@dataclass(frozen=True)
class PhaseGenerator:
    """The spin component n.J on the probe space, held as its axis n.

    ``axis`` is any finite real 3-vector, not necessarily unit (the
    weak-coupling XZ generator has |n| < 1).  The frame is solved once per
    generator and shared by the probe constructors and the readout.
    """

    dim: EnsembleDim
    axis: tuple[float, float, float]

    def __post_init__(self) -> None:
        axis = np.asarray(self.axis, dtype=float)
        if axis.shape != (3,) or not np.all(np.isfinite(axis)):
            raise ContractViolation(f"generator axis must be a finite real 3-vector, got {self.axis!r}")
        object.__setattr__(self, "axis", tuple(float(a) for a in axis))

    @property
    def matrix(self) -> np.ndarray:
        """The dense (N+1)-dimensional operator n.J."""
        return sum(a * op for a, op in zip(self.axis, collective_ops(self.dim)))

    @cached_property
    def frame(self) -> tuple[np.ndarray, np.ndarray]:
        """``spin_frame(dim, axis)`` as read-only arrays, solved on first use."""
        vals, vecs = spin_frame(self.dim, self.axis)
        vals.setflags(write=False)
        vecs.setflags(write=False)
        return vals, vecs


def phase_generator(dim: EnsembleDim, phi: float) -> PhaseGenerator:
    """Planar generator J(phi) = cos(phi) J_x + sin(phi) J_y."""
    if not np.isfinite(phi):
        raise ContractViolation("phase angle must be finite")
    return PhaseGenerator(dim, (np.cos(phi), np.sin(phi), 0.0))


def assert_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL, name: str = "operator") -> None:
    dev = float(np.max(np.abs(a - a.conj().T)))
    if dev >= tol:
        raise ContractViolation(f"{name} is not Hermitian (max deviation {dev:.3e})")


def unitary_of_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H, via spectral decomposition."""
    a = np.asarray(h, dtype=complex)
    assert_hermitian(a, name="evolution generator")
    vals, vecs = np.linalg.eigh(a)
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


def joint_embed(probe_op: np.ndarray, ancilla_op: np.ndarray) -> np.ndarray:
    """Kronecker product with the probe factor first, basis order (m, {e, g})."""
    a = np.asarray(probe_op, dtype=complex)
    b = np.asarray(ancilla_op, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ContractViolation("joint_embed needs two square matrices")
    return np.kron(a, b)
