"""Spin-1 operator algebra, closed-form rotation exponentials and Hermitian
eigensolvers.

All matrices act on the three-level basis ordered (+1, 0, -1), so S_z is
diag(1, 0, -1) and raising/lowering operators move population toward the
top/bottom of the column vector respectively.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError

_SQRT2 = np.sqrt(2.0)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class SpinOperatorSet(NamedTuple):
    """The five standard spin-1 operators in the fixed basis order."""

    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray


def make_spin_operators() -> SpinOperatorSet:
    """Build the spin-1 operators S_x, S_y, S_z and S_± = S_x ± i S_y."""
    s = 1.0 / _SQRT2
    sx = np.array([[0, s, 0], [s, 0, s], [0, s, 0]], dtype=complex)
    sy = np.array([[0, -1j * s, 0], [1j * s, 0, -1j * s], [0, 1j * s, 0]], dtype=complex)
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    s_plus = sx + 1j * sy
    s_minus = s_plus.conj().T
    return SpinOperatorSet(*(map(_frozen, (sx, sy, sz, s_plus, s_minus))))


#: Module-wide operator set; all matrices are read-only.
SPIN = make_spin_operators()

#: S_z^2, used by every Hamiltonian builder.
SZ2 = _frozen(SPIN.sz @ SPIN.sz)

IDENTITY = _frozen(np.eye(3, dtype=complex))


class EigenSystem(NamedTuple):
    """Ascending eigenvalues with orthonormal column eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def hermiticity_defect(a: np.ndarray):
    """max |A - A^dagger| over all entries; of each matrix of a (k, n, n)
    stack, as an array."""
    a = np.asarray(a)
    defect = np.abs(a - np.swapaxes(a.conj(), -1, -2)).max(axis=(-2, -1))
    return float(defect) if a.ndim == 2 else defect


def unitarity_defect(u: np.ndarray) -> float:
    """max |U^dagger U - I| over all entries."""
    u = np.asarray(u)
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def spin1_exp(axis, angle: float) -> np.ndarray:
    """Rotation operator exp(-i * angle * n.S) for a unit 3-vector n.

    Uses the closed form I - i A sin(angle) + A^2 (cos(angle) - 1) with
    A = n.S, which is exact for spin 1 because A^3 = A when |n| = 1.
    """
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,) or not abs(np.linalg.norm(n) - 1.0) <= 1e-12:
        raise InvalidArgumentError("axis must be a unit 3-vector (|n| = 1 to 1e-12)")
    if not math.isfinite(angle):
        raise InvalidArgumentError(f"angle must be finite, got {angle!r}")
    a = n[0] * SPIN.sx + n[1] * SPIN.sy + n[2] * SPIN.sz
    return IDENTITY - 1j * np.sin(angle) * a + (np.cos(angle) - 1.0) * (a @ a)


def hermitian_eigensystem(a: np.ndarray) -> EigenSystem:
    """Full eigen-decomposition of a Hermitian matrix, or of a (k, n, n)
    stack of them in one call: np.linalg.eigh of the Hermitian part,
    checked.

    Each matrix must leave float64 headroom and be Hermitian to 1e-12 of
    its largest entry, and its residual |A V - V diag(values)| must stay
    within 1e-9 of it. A stack is checked matrix by matrix and raises the
    error its first failing matrix raises alone, with that matrix's
    position in the stack as the error's `index`. Eigenvalues are returned
    ascending; eigenvectors are orthonormal columns, each with the phase
    eigh gives it (no caller reads a phase or the order within an exact
    tie). It serves the 3x3 level problems; the harmonic matrix goes
    straight to np.linalg.eigh.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise InvalidArgumentError("input must be a square matrix or a stack of them")
    stack = a.reshape(-1, *a.shape[-2:])
    # np.fmax, like max(1.0, x), passes over a NaN entry; the Hermiticity
    # check, written so that a NaN defect fails it, refuses that matrix.
    # The checks sum up to 2n products of an entry and a unit value, so a
    # matrix without that headroom fails before its defect is read.
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.fmax(1.0, np.abs(stack).max(axis=(1, 2)))
        room = np.isfinite(2.0 * stack.shape[-1] * scale)
        defect = hermiticity_defect(stack)
    sound = room & (defect <= 1e-12 * scale)
    first = len(stack) if sound.all() else int(np.argmin(sound))
    # the matrices before the first unsound one are solved, and a residual
    # failure among them comes before it
    ok = stack[:first]
    values, vectors = np.linalg.eigh((ok + ok.conj().swapaxes(1, 2)) / 2.0)
    residual = np.abs(ok @ vectors - vectors * values[:, None, :]).max(
        axis=(1, 2), initial=0.0)
    failed = np.flatnonzero(residual > 1e-9 * scale[:first])
    if failed.size:
        i = failed[0]
        raise _with_index(NumericFailureError(
            f"eigen-decomposition residual {residual[i]:.3e} exceeds 1e-9 * scale"), i)
    if first < len(stack) and not room[first]:
        raise _with_index(NumericFailureError(
            f"matrix entry of magnitude {scale[first]:.3g} leaves no float64 "
            "headroom"), first)
    if first < len(stack):
        raise _with_index(InvalidArgumentError(
            f"matrix is not Hermitian (defect {defect[first]:.3e})"), first)
    if a.ndim == 2:
        return EigenSystem(values=values[0], vectors=vectors[0])
    return EigenSystem(values=values, vectors=vectors)


def _with_index(error: Exception, index: int) -> Exception:
    """The error, marked with the stack position of the matrix it is about."""
    error.index = int(index)
    return error
