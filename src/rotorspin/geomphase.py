"""Nonadiabatic geometric phases of the three cyclic drive states.

Each cyclic state returns to itself (up to a phase) after one drive
period; the geometric phase is the part of that phase left after the
dynamical contribution is subtracted. Without a static field there is a
closed form in the cubic roots and their eigenvector weights; with a
field the phase is the one-period integral of a gauge potential along the
periodic drive mode, summed exactly over the mode's harmonic coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, InvalidArgumentError, NumericFailureError
from .floquet import (
    LABELS,
    SPIN_INDEX,
    _assign_labels,
    _circ_dist,
    _resolve_harmonics,
    quasienergies_zero_field,
)
from .model import RotorParams, drive_amplitude
from .spin_algebra import SPIN

__all__ = [
    "GeometricPhaseSet",
    "gauge_operator",
    "geometric_phases_zero_field",
    "geometric_phases_with_field",
    "verify_gauge_sign",
]


@dataclass(frozen=True)
class GeometricPhaseSet:
    """Per-branch geometric phases (radians) with their decomposition.

    For each label, gamma = term1 - term2: term1 is the total cyclic phase
    contribution, term2 the subtracted dynamical part. Phases are not
    reduced mod 2*pi, so adiabatic values near 2*pi survive intact.
    n_harmonics and edge_weight are those of the modes (see ModeSet), 0 in
    the closed form.
    """

    gamma: dict[str, float]
    term1: dict[str, float]
    term2: dict[str, float]
    n_harmonics: int = 0
    edge_weight: float = 0.0

    def as_tuple(self) -> tuple[float, float, float]:
        """(gamma_m-1, gamma_m0, gamma_m+1) in fixed label order."""
        return tuple(self.gamma[lab] for lab in LABELS)


def _gauge_harmonics(p: RotorParams) -> tuple[np.ndarray, np.ndarray]:
    """Harmonic components (A0, A-) of the gauge potential
    A(t) = A0 + A- e^{-i omega t} + h.c., with A0 = omega (1 - cos theta) S_z
    and A- = -(omega sin theta / 2) e^{-i phi0} S_+, the drive amplitude."""
    a0 = p.omega * (1.0 - math.cos(p.theta)) * SPIN.sz
    return a0, drive_amplitude(p)


def gauge_operator(p: RotorParams, t) -> np.ndarray:
    """Gauge potential whose expectation along a cyclic state integrates to
    the geometric phase.

    Closed form omega * ((1 - cos theta) S_z - sin theta (cos phi S_x +
    sin phi S_y)) with phi = omega t + phi0, assembled from its harmonic
    components; the overall sign is pinned so the slow-rotation limit
    yields +2 pi (1 - cos theta) on the upper branch (see
    verify_gauge_sign). An array of times gives a stack of matrices, shape
    t.shape + (3, 3).
    """
    a0, a_minus = _gauge_harmonics(p)
    phase = np.exp(-1j * p.omega * np.asarray(t, dtype=float))[..., None, None]
    hop = phase * a_minus
    return a0 + hop + np.swapaxes(hop.conj(), -1, -2)


def geometric_phases_zero_field(p: RotorParams) -> GeometricPhaseSet:
    """Closed-form geometric phases without a static field.

    gamma_n = (2 pi / omega) * (lambda_n - (d - omega)|c_{n,+1}|^2
    - (d + omega)|c_{n,-1}|^2), using the signed rotation frequency, so
    reversing the rotation direction flips the phases as required.
    """
    if p.delta != 0:
        raise InvalidArgumentError("geometric_phases_zero_field requires delta = 0")
    t_signed = math.copysign(p.period, p.omega)
    gamma, term1, term2 = {}, {}, {}
    for lab, lam, vec in quasienergies_zero_field(p):
        w = np.abs(vec) ** 2
        dyn = (p.d - p.omega) * w[0] + (p.d + p.omega) * w[2]
        term1[lab] = lam * t_signed
        term2[lab] = dyn * t_signed
        gamma[lab] = term1[lab] - term2[lab]
    return GeometricPhaseSet(gamma=gamma, term1=term1, term2=term2)


def geometric_phases_with_field(p: RotorParams,
                                n_harmonics="auto") -> GeometricPhaseSet:
    """Geometric phases in the presence of a static axial field.

    Each drive mode u(t) = sum_k c_k e^{ik omega t} comes from the harmonic
    matrix. The gauge potential carries only the harmonics 0 and +-1 (see
    _gauge_harmonics), so its one-period integral along the mode is exact
    in the coefficients:

        gamma = T [sum_k c_k^dag A0 c_k + 2 Re sum_k c_{k-1}^dag A- c_k]
                / sum_k |c_k|^2,
        term1 = T omega sum_k c_k^dag S_z c_k / sum_k |c_k|^2,

    and term2 = term1 - gamma. T = 2 pi / omega is the signed period, as in
    the closed form, so reversing the rotation direction flips the phases.
    """
    t_signed = math.copysign(p.period, p.omega)
    _slow_rotation_check()

    ms = _resolve_harmonics(p, n_harmonics)
    idx = _assign_labels(ms.weights)
    for i, a in enumerate(LABELS):
        for b in LABELS[i + 1:]:
            gap = _circ_dist(ms.quasi[idx[a]], ms.quasi[idx[b]], abs(p.omega))
            if gap < 1e-10 * p.d:
                # an exact folded crossing is harmless as long as the two
                # modes kept a pure spin character (no hybridization)
                purity = min(ms.weights[idx[a]].max(), ms.weights[idx[b]].max())
                if purity < 0.999:
                    raise DegeneracyError(
                        f"branches {a} and {b} are degenerate; phases not separable"
                    )

    a0, a_minus = _gauge_harmonics(p)
    gamma, term1, term2 = {}, {}, {}
    for lab in LABELS:
        c = ms.fourier[:, :, idx[lab]]                 # (harmonic, spin)
        norm = np.vdot(c, c).real
        static = np.einsum("ks,st,kt->", c.conj(), a0, c).real
        hop = np.einsum("ks,st,kt->", c[:-1].conj(), a_minus, c[1:]).real
        sz = np.einsum("ks,st,kt->", c.conj(), SPIN.sz, c).real
        gamma[lab] = float(t_signed * (static + 2.0 * hop) / norm)
        term1[lab] = float(t_signed * p.omega * sz / norm)
        term2[lab] = term1[lab] - gamma[lab]
    return GeometricPhaseSet(gamma=gamma, term1=term1, term2=term2,
                             n_harmonics=ms.n_harmonics, edge_weight=ms.edge_weight)


#: Slow reference rotation at which the pinned gauge sign is checked.
_SLOW = RotorParams(omega=1e-3, theta=math.pi / 5)


def _slow_rotation_check() -> tuple[float, float]:
    """Closed-form upper-branch phase at the slow reference rotation and its
    deviation from the adiabatic +2 pi (1 - cos theta); raises if the
    pinned gauge sign is broken."""
    target = 2.0 * math.pi * (1.0 - math.cos(_SLOW.theta))
    got = geometric_phases_zero_field(_SLOW).gamma["m+1"]
    dev = abs(got - target)
    if dev > 0.05:
        raise NumericFailureError(
            f"gauge sign convention broken: upper-branch slow-rotation phase "
            f"{got:.4f} vs expected {target:.4f}"
        )
    return got, dev


def verify_gauge_sign() -> float:
    """Check the pinned gauge sign against the slow-rotation limit.

    Returns the deviation of the upper-branch phase from
    +2 pi (1 - cos theta) at a slow reference rotation; raises if the
    sign convention is broken or the harmonic-sum path disagrees with the
    closed form there.
    """
    got, dev = _slow_rotation_check()
    q = geometric_phases_with_field(_SLOW).gamma["m+1"]
    if abs(q - got) > 1e-4:
        raise NumericFailureError(
            f"gauge harmonic sum disagrees with closed form: {q:.6f} vs {got:.6f}"
        )
    return dev
