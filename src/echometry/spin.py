"""Spin components, their frames and their bands on the symmetric subspace.

An ensemble of N spin-1/2 particles that is only ever driven through
collective operators stays inside the (N+1)-dimensional symmetric subspace
with total spin j = N/2.  Every operator the package diagonalizes is a spin
component n.J, held as its axis (:class:`PhaseGenerator`) and solved by
:func:`spin_frame`, or by :func:`lowest_spin_columns` where only the lowest
few eigenvectors are needed.  Its spectrum is known exactly, |n| m.  The
full frame is one ``eigh_tridiagonal``; a partial set comes from inverse
iteration at the known eigenvalues (LAPACK ``stein``), with no eigenvalue
search, or, at a pole of the axis, is the exact J_z basis vectors.  Both
solvers come from scipy, which is imported on the first solve, not with
the package.  n.J is applied as its diagonal and the band of :func:`spin_ladder`;
every dense operator is the reference path's, in :mod:`echometry.reference`.

Conventions used throughout the package:

* probe basis ordered by the J_z eigenvalue m = -j, ..., +j (ascending),
* ancilla basis (|e>, |g>) with the excited state first, so that
  sigma_z |e> = +|e>,
* production holds probe columns per ancilla sector, (sector, m), never a
  joint column; the dense reference puts the probe first, order (m, {e, g}).

Operators are plain ``numpy.ndarray`` values; hermiticity is checked on
demand with :func:`assert_hermitian` at the tolerance below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ContractViolation",
    "EnsembleDim",
    "PhaseGenerator",
    "HERMITIAN_TOL",
    "KET_E",
    "KET_G",
    "spin_ladder",
    "check_generator_size",
    "spin_frame",
    "tridiagonal_axis",
    "pin_frame_phases",
    "lowest_spin_columns",
    "assert_hermitian",
]

HERMITIAN_TOL = 1e-12

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


def tridiagonal_axis(axis) -> tuple[float, float, float]:
    """(n_z, r, phi) with n.J = e^{-i phi J_z} (n_z J_z + r J_x) e^{i phi J_z}.

    ``r e^{i phi} = n_x + i n_y``; an axis with n_y = 0 keeps phi = 0 and the
    signed r = n_x, so its frame stays real.
    """
    nx, ny, nz = (float(a) for a in axis)
    if ny == 0.0:
        return nz, nx, 0.0
    return nz, math.hypot(nx, ny), math.atan2(ny, nx)


def pin_frame_phases(dim: EnsembleDim, axis, vecs: np.ndarray) -> np.ndarray:
    """Eigenvector columns of n.J from real ones of n_z J_z + r J_x, phases pinned.

    The frame's phase convention: each column's largest-magnitude entry is
    made real and positive (ties within 1e-12 relative go to the first), and
    rows are scaled by e^{-i phi m} relative to that entry, so the pivot stays
    real and positive.
    """
    _, _, phi = tridiagonal_axis(axis)
    m = dim.m_values()
    mag = np.abs(vecs)
    pivot = (mag >= (1.0 - 1e-12) * mag.max(axis=0)).argmax(axis=0)
    vecs = vecs * np.sign(vecs[pivot, np.arange(vecs.shape[1])])
    if phi != 0.0:
        vecs = vecs * np.exp(-1j * phi * m)[:, None] * np.exp(1j * phi * m[pivot])
    return vecs


def lowest_spin_columns(dim: EnsembleDim, axis, count: int) -> np.ndarray:
    """The eigenvector columns of n.J for its ``count`` lowest eigenvalues.

    Solved as the real tridiagonal n_z J_z + r J_x (Feng et al., PRE 92,
    043307, 2015), whose spectrum is known exactly: |n| m.  The full frame
    is one ``eigh_tridiagonal``.  Fewer columns come from LAPACK's inverse
    iteration (``stein``) at those exact eigenvalues, with no eigenvalue
    search; the matrix is divided by |n| first, so its eigenvalues are the
    exact m values and the iteration does not depend on the axis' scale.
    At a pole, |r| <= eps |n_z|, the partial columns are the exact J_z basis
    vectors instead (m ascending for n_z >= 0, descending for n_z < 0):
    dropping r J_x is a backward error of at most eps ||n.J||, while inverse
    iteration on so nearly split a matrix loses orthogonality.  Phases
    follow :func:`pin_frame_phases`.  scipy is imported here, on the first
    solve, so that importing the package does not load it.
    """
    from scipy.linalg import eigh_tridiagonal
    from scipy.linalg.lapack import dstein

    nz, r, _ = tridiagonal_axis(axis)
    n = dim.dim
    m = dim.m_values()
    if count == n:
        _, vecs = eigh_tridiagonal(nz * m, r * spin_ladder(dim) / 2.0)
    elif abs(r) <= np.finfo(float).eps * abs(nz):
        rows = np.arange(count) if nz >= 0.0 else n - 1 - np.arange(count)
        vecs = np.zeros((n, count))
        vecs[rows, np.arange(count)] = 1.0
    else:
        norm = math.hypot(nz, r)
        # one unreduced block: iblock all 1, ending at row isplit[0] = n
        block = np.ones(n, dtype=np.int32)
        split = np.zeros(n, dtype=np.int32)
        split[0] = n
        vecs, info = dstein(nz / norm * m, r / norm * spin_ladder(dim) / 2.0, m[:count], block, split)
        if info != 0:
            raise ContractViolation(f"inverse iteration (LAPACK stein) failed on the spin frame: info = {info}")
    return pin_frame_phases(dim, axis, vecs)


def spin_frame(dim: EnsembleDim, axis) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues |n| m (exact, ascending) and eigenvector columns of n.J.

    The vectors are real tridiagonal ones with rows scaled by e^{-i phi m}
    (:func:`tridiagonal_axis`), real for n_y = 0; :func:`lowest_spin_columns`
    solves them and :func:`pin_frame_phases` fixes their phases.
    """
    norm = math.hypot(*(float(a) for a in axis))
    return norm * dim.m_values(), lowest_spin_columns(dim, axis, dim.dim)


@dataclass(frozen=True)
class PhaseGenerator:
    """The spin component n.J on the probe space, held as its axis n.

    ``axis`` is any finite real 3-vector, not necessarily unit (the
    weak-coupling XZ generator has |n| < 1).  Its eigenvectors are
    :func:`spin_frame`'s columns.
    """

    dim: EnsembleDim
    axis: tuple[float, float, float]

    def __post_init__(self) -> None:
        axis = np.asarray(self.axis, dtype=float)
        if axis.shape != (3,) or not np.isfinite(axis).all():
            raise ContractViolation(f"generator axis must be a finite real 3-vector, got {self.axis!r}")
        object.__setattr__(self, "axis", tuple(float(a) for a in axis))


def check_generator_size(generator: PhaseGenerator, dim: EnsembleDim) -> PhaseGenerator:
    """``generator``, once checked to act on the probe space of ``dim``."""
    if generator.dim != dim:
        raise ContractViolation(f"generator is for N = {generator.dim.n_spins}, probe for N = {dim.n_spins}")
    return generator


def assert_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL, name: str = "operator") -> None:
    """Raise unless ``a``, or every matrix of a stack of them (last two axes), is Hermitian within ``tol``."""
    dev = float(np.abs(a - a.conj().swapaxes(-1, -2)).max())
    if dev >= tol:
        raise ContractViolation(f"{name} is not Hermitian (max deviation {dev:.3e})")

