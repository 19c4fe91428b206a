"""Spin components, their frames and their bands on the symmetric subspace.

An ensemble of N spin-1/2 particles that is only ever driven through
collective operators stays inside the (N+1)-dimensional symmetric subspace
with total spin j = N/2.  Every operator the package diagonalizes is a spin
component n.J, held as its axis (:class:`PhaseGenerator`) and solved by
:func:`spin_frame`, or by :func:`lowest_spin_columns` where only the lowest
few eigenvectors are needed.  Its spectrum is known exactly, |n| m.  The
full frame is the three-term recurrence at those eigenvalues, swept from
both ends and matched inside each column's allowed region, in numpy alone;
a partial set comes from inverse iteration at the known eigenvalues
(LAPACK ``stein``), with no eigenvalue search.  At a pole of the axis either
is the exact J_z basis vectors.  ``stein`` is the one scipy routine, and
scipy is imported on its first call, not with the package.  n.J is applied
as its diagonal and the band of :func:`spin_ladder`;
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


# Both sweeps are rescaled before the bound on their growth passes 2**_GROWTH, far from overflow.
_GROWTH = 600.0


def _recurrence_frame(dim: EnsembleDim, nz: float, r: float) -> np.ndarray:
    """Every real eigenvector of (n_z J_z + r J_x)/|n|, r != 0, as columns, by a two-sided recurrence.

    Column k solves e_{i-1} v_{i-1} + d_i v_i + e_i v_{i+1} = m_k v_i at its
    exact eigenvalue m_k.  Every column is swept up from row 0 and down from
    row N, all columns and both sweeps in one loop, and its two halves are
    matched by least squares on rows p, p + 1, where p is the row of largest
    margin 2 sqrt(e_{p-1} e_p) - |m_k - d_p|, inside the column's allowed
    region (the centre, for J_x).  Each half thus runs from a forbidden
    region into the allowed one, the stable direction (Gautschi, SIAM Rev. 9,
    24, 1967).  A row exceeds the larger of the two before it by at most
    (j + max |d| + max |e|) / min |e|, about 1/|r| near a pole; every
    ``span`` rows, before that bound passes 2**_GROWTH, both sweeps are
    rescaled by a power of two per column, so nothing overflows however
    small r is.  The scales are kept as exponents per row and applied once,
    at the end.  No BLAS routine is called, so the bits do not depend on the
    thread count.
    """
    n = dim.dim
    m = dim.m_values()
    norm = math.hypot(nz, r)
    d = nz / norm * m
    e = np.zeros(n + 1)  # e[i + 1] couples rows i and i + 1; rows -1 and N + 1 are empty
    e[1:-1] = r / norm * spin_ladder(dim) / 2.0
    margin = np.abs(np.subtract.outer(m, d))
    np.subtract(2.0 * np.sqrt(e[:-1] * e[1:]), margin, out=margin)
    p = np.minimum(margin.argmax(axis=1), n - 2)
    del margin
    steps = max(int(p.max()) + 1, n - 1 - int(p.min()))
    # the downward sweep is the upward one on the reflected rows N, ..., 0: step
    # t takes row t + 1 (row N - 1 - t) from the equation of row t (row N - t)
    diag = np.array([d, d[::-1]]).T[:, :, None]
    band = np.array([e, e[::-1]]).T[:, :, None]
    growth = math.log2((dim.j + abs(d[-1]) + np.abs(e).max()) / abs(e[1]))
    span = max(1, int(_GROWTH / growth))
    rows = np.empty((steps + 1, 2, n))
    exps = np.empty((steps + 1, 2, n), dtype=np.int32)
    rows[0], exps[0] = 1.0, 0
    old, cur, scale = np.zeros((2, n)), rows[0], exps[0]
    for t in range(1, steps + 1):
        old, cur = cur, ((m - diag[t - 1]) * cur - band[t - 1] * old) / band[t]
        if t % span == 0:
            shift = np.frexp(np.hypot(old, cur))[1]
            old, cur, scale = np.ldexp(old, -shift), np.ldexp(cur, -shift), scale + shift
        rows[t], exps[t] = cur, scale
    # rows p, p + 1 of both sweeps (steps p, p + 1 up and N - p, N - 1 - p down), each pair scaled to unit size
    at = np.array([p, p + 1, n - 1 - p, n - 2 - p]).reshape(2, 2, n), np.array([[[0]], [[1]]]), np.arange(n)
    unit = exps[at]
    top = unit.max(axis=1)
    ends = np.ldexp(rows[at], unit - top[:, None])
    shift = np.frexp(np.hypot(ends[:, 0], ends[:, 1]))[1]
    (f0, f1), (b0, b1) = np.ldexp(ends, -shift[:, None])
    top += shift
    fit = (f0 * b0 + f1 * b1) / (b0 * b0 + b1 * b1)
    index = np.arange(n)[:, None]
    vecs = np.zeros((n, n))
    base = n - 1 - steps  # the downward sweep's last row
    np.ldexp(rows[:, 0], exps[:, 0] - top[0], out=vecs[: steps + 1], where=index[: steps + 1] <= p)
    np.ldexp(fit * rows[::-1, 1], exps[::-1, 1] - top[1], out=vecs[base:], where=index[base:] > p)
    return vecs / np.sqrt(np.einsum("ij,ij->j", vecs, vecs))


def lowest_spin_columns(dim: EnsembleDim, axis, count: int) -> np.ndarray:
    """The eigenvector columns of n.J for its ``count`` lowest eigenvalues.

    Solved as the real tridiagonal n_z J_z + r J_x (Feng et al., PRE 92,
    043307, 2015), whose spectrum is known exactly: |n| m.  The matrix is
    divided by |n| first, so its eigenvalues are the exact m values and the
    solve does not depend on the axis' scale.  The full frame comes from
    the three-term recurrence at those eigenvalues (:func:`_recurrence_frame`,
    numpy only, no BLAS).  Fewer columns come from LAPACK's inverse iteration
    (``stein``) at the exact eigenvalues, with no eigenvalue search.  At a
    pole, |r| <= eps |n_z| (the zero axis included), the columns are the
    exact J_z basis vectors instead, full frame or not (m ascending for
    n_z >= 0, descending for n_z < 0): dropping r J_x is a backward error of
    at most eps ||n.J||, while solving so nearly split a matrix loses
    orthogonality.  Phases follow :func:`pin_frame_phases`.  scipy is
    imported only for ``stein``, on its first call, so that neither
    importing the package nor a full frame loads it.
    """
    nz, r, _ = tridiagonal_axis(axis)
    n = dim.dim
    m = dim.m_values()
    if abs(r) <= np.finfo(float).eps * abs(nz):
        rows = np.arange(count) if nz >= 0.0 else n - 1 - np.arange(count)
        vecs = np.zeros((n, count))
        vecs[rows, np.arange(count)] = 1.0
    elif count == n:
        vecs = _recurrence_frame(dim, nz, r)
    else:
        from scipy.linalg.lapack import dstein

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
    solves them, by the two-sided recurrence or, at a pole, as J_z basis
    vectors, and :func:`pin_frame_phases` fixes their phases.  No scipy
    routine is called.
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

