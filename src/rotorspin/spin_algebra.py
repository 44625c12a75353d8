"""Spin-1 operator algebra, closed-form rotation exponentials and Hermitian
eigensolvers.

All matrices act on the three-level basis ordered (+1, 0, -1), so S_z is
diag(1, 0, -1) and raising/lowering operators move population toward the
top/bottom of the column vector respectively.
"""

from __future__ import annotations

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


def hermiticity_defect(a: np.ndarray) -> float:
    """max |A - A^dagger| over all entries."""
    a = np.asarray(a)
    return float(np.abs(a - a.conj().T).max())


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
    """Full eigen-decomposition of a Hermitian matrix: np.linalg.eigh of
    its Hermitian part, checked.

    The input must be square, leave float64 headroom and be Hermitian to
    1e-12 of its largest entry, and the residual |A V - V diag(values)|
    must stay within 1e-9 of it. Eigenvalues are returned ascending;
    eigenvectors are orthonormal columns, each with the phase eigh gives it
    (no caller reads a phase or the order within an exact tie). It serves
    the 3x3 level problems; the harmonic matrix goes straight to
    np.linalg.eigh.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError("input must be a square matrix")
    scale = max(1.0, float(np.abs(a).max()))
    # the checks below sum up to 2n products of an entry and a unit value
    if not math.isfinite(2.0 * len(a) * scale):
        raise NumericFailureError(
            f"matrix entry of magnitude {scale:.3g} leaves no float64 headroom")
    # written so that a NaN entry, whose defect is NaN, fails the check
    defect = hermiticity_defect(a)
    if not defect <= 1e-12 * scale:
        raise InvalidArgumentError(f"matrix is not Hermitian (defect {defect:.3e})")
    values, vectors = np.linalg.eigh((a + a.conj().T) / 2.0)
    residual = float(np.abs(a @ vectors - vectors * values[None, :]).max())
    if residual > 1e-9 * scale:
        raise NumericFailureError(
            f"eigen-decomposition residual {residual:.3e} exceeds 1e-9 * scale"
        )
    return EigenSystem(values=values, vectors=vectors)
