"""Collective spin operators and dense linear algebra on the symmetric subspace.

An ensemble of N spin-1/2 particles that is only ever driven through
collective operators stays inside the (N+1)-dimensional symmetric subspace
with total spin j = N/2, so the probe operators here are dense complex
arrays of dimension N+1; :func:`joint_embed` builds the 2(N+1)-dimensional
probe-plus-ancilla operators of the dense reference path.

Conventions used throughout the package:

* probe basis ordered by the J_z eigenvalue m = -j, ..., +j (ascending),
* ancilla basis (|e>, |g>) with the excited state first, so that
  sigma_z |e> = +|e>,
* tensor products put the probe factor first: ``joint_embed(A, B) = A (x) B``.

Operators are plain ``numpy.ndarray`` values; hermiticity is checked on
demand with :func:`assert_hermitian` at the tolerances below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ContractViolation",
    "EnsembleDim",
    "PhaseGenerator",
    "HERMITIAN_TOL",
    "SPIN_SPECTRUM_TOL",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "ID2",
    "KET_E",
    "KET_G",
    "collective_ops",
    "phase_generator",
    "generator_matrix",
    "eigenbasis",
    "unitary_of_hermitian",
    "joint_embed",
    "assert_hermitian",
]

HERMITIAN_TOL = 1e-12
SPIN_SPECTRUM_TOL = 1e-10

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


@dataclass(frozen=True)
class PhaseGenerator:
    """A phase generator on the probe space.

    ``kind`` is one of:

    * ``"planar"``  -- cos(phi) J_x + sin(phi) J_y,
    * ``"xz"``      -- c_x J_x + c_y J_y from the XZ closed form, with the
      full coefficient triple (c_x, c_y, c_z) stored in ``coeffs``.
    """

    kind: str
    matrix: np.ndarray
    coeffs: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("planar", "xz"):
            raise ContractViolation(f"unknown generator kind {self.kind!r}")
        if self.kind == "xz":
            if self.coeffs is None:
                raise ContractViolation("xz generator needs its coefficient triple")
            cx, cy, cz = self.coeffs
            if abs(cx * cx + cy * cy + cz * cz - 1.0) > 1e-12:
                raise ContractViolation("xz generator coefficients are not normalized")
        matrix = np.array(self.matrix, dtype=complex)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)


def generator_matrix(generator) -> np.ndarray:
    """The matrix of a :class:`PhaseGenerator`, or a plain array as complex."""
    if isinstance(generator, PhaseGenerator):
        return generator.matrix
    return np.asarray(generator, dtype=complex)


def collective_ops(dim: EnsembleDim) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collective spin matrices (J_x, J_y, J_z) on the symmetric subspace.

    Built from the ladder action J_+ |j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1>
    in the ascending-m basis; all three are Hermitian and satisfy the su(2)
    algebra and the Casimir identity to near machine precision.
    """
    j = dim.j
    m = dim.m_values()
    jz = np.diag(m.astype(complex))
    amp = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    jp = np.zeros((dim.dim, dim.dim), dtype=complex)
    jp[np.arange(1, dim.dim), np.arange(dim.dim - 1)] = amp
    jx = (jp + jp.conj().T) / 2.0
    jy = (jp - jp.conj().T) / 2.0j
    return jx, jy, jz


def phase_generator(dim: EnsembleDim, phi: float) -> PhaseGenerator:
    """Planar generator J(phi) = cos(phi) J_x + sin(phi) J_y."""
    if not np.isfinite(phi):
        raise ContractViolation("phase angle must be finite")
    jx, jy, _ = collective_ops(dim)
    return PhaseGenerator(kind="planar", matrix=np.cos(phi) * jx + np.sin(phi) * jy)


def assert_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL, name: str = "operator") -> None:
    dev = float(np.max(np.abs(a - a.conj().T)))
    if dev >= tol:
        raise ContractViolation(f"{name} is not Hermitian (max deviation {dev:.3e})")


def eigenbasis(generator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a Hermitian operator with a fixed phase convention.

    Returns ``(values, vectors)`` with eigenvalues ascending and eigenvectors
    as columns.  Each column is rotated so that its largest-magnitude
    component is real and positive, which makes the basis reproducible across
    runs (up to the eigen-solver itself).
    """
    a = np.asarray(generator, dtype=complex)
    assert_hermitian(a, name="eigenbasis input")
    vals, vecs = np.linalg.eigh(a)
    vecs = vecs.copy()
    for k in range(vecs.shape[1]):
        idx = int(np.argmax(np.abs(vecs[:, k])))
        pivot = vecs[idx, k]
        vecs[:, k] *= pivot.conj() / abs(pivot)
    return vals, vecs


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
