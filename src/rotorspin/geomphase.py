"""Nonadiabatic geometric phases of the three cyclic drive states.

Each cyclic state returns to itself (up to a phase) after one drive
period; the geometric phase is the part of that phase left after the
dynamical contribution is subtracted. Without a static field there is a
closed form in the cubic roots and their eigenvector weights; with a
field the phase is a one-period quadrature of a gauge potential along
the periodically reconstructed drive mode.
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
from .model import RotorParams
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
    """

    gamma: dict[str, float]
    term1: dict[str, float]
    term2: dict[str, float]

    def as_tuple(self) -> tuple[float, float, float]:
        """(gamma_m-1, gamma_m0, gamma_m+1) in fixed label order."""
        return tuple(self.gamma[lab] for lab in LABELS)


def gauge_operator(p: RotorParams, t) -> np.ndarray:
    """Gauge potential whose expectation along a cyclic state integrates to
    the geometric phase.

    Closed form omega * ((1 - cos theta) S_z - sin theta (cos phi S_x +
    sin phi S_y)) with phi = omega t + phi0; the overall sign is pinned so
    the slow-rotation limit yields +2 pi (1 - cos theta) on the upper
    branch (see verify_gauge_sign). An array of times gives a stack of
    matrices, shape t.shape + (3, 3).
    """
    ct, st = math.cos(p.theta), math.sin(p.theta)
    phi = (p.omega * np.asarray(t, dtype=float) + p.phi0)[..., None, None]
    return p.omega * (
        (1.0 - ct) * SPIN.sz
        - st * (np.cos(phi) * SPIN.sx + np.sin(phi) * SPIN.sy)
    )


def geometric_phases_zero_field(p: RotorParams) -> GeometricPhaseSet:
    """Closed-form geometric phases without a static field.

    gamma_n = (2 pi / omega) * (lambda_n - (d - omega)|c_{n,+1}|^2
    - (d + omega)|c_{n,-1}|^2), using the signed rotation frequency, so
    reversing the rotation direction flips the phases as required.
    """
    if p.delta != 0:
        raise InvalidArgumentError("geometric_phases_zero_field requires delta = 0")
    if p.omega == 0:
        raise InvalidArgumentError("no cyclic evolution at omega = 0")
    t_signed = 2.0 * math.pi / p.omega
    gamma, term1, term2 = {}, {}, {}
    for lab, lam, vec in quasienergies_zero_field(p):
        w = np.abs(vec) ** 2
        dyn = (p.d - p.omega) * w[0] + (p.d + p.omega) * w[2]
        term1[lab] = lam * t_signed
        term2[lab] = dyn * t_signed
        gamma[lab] = term1[lab] - term2[lab]
    return GeometricPhaseSet(gamma=gamma, term1=term1, term2=term2)


def geometric_phases_with_field(
    p: RotorParams,
    steps_per_period: int = 4096,
    n_harmonics="auto",
) -> GeometricPhaseSet:
    """Geometric phases in the presence of a static axial field.

    The three periodic drive modes are reconstructed from their harmonic
    coefficients on a uniform one-period grid, normalized pointwise, and the
    gauge-potential expectation is integrated by the composite trapezoid
    rule. A half-resolution re-integration must agree to 1e-6 rad.
    """
    if p.omega == 0:
        raise InvalidArgumentError("no cyclic evolution at omega = 0")
    if steps_per_period < 256:
        raise InvalidArgumentError("steps_per_period must be >= 256")
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

    coarse = _quadrature(p, ms, idx, steps_per_period // 2)[0]
    gamma, term1, term2 = _quadrature(p, ms, idx, steps_per_period)
    drift = max(abs(gamma[lab] - coarse[lab]) for lab in LABELS)
    if drift > 1e-6:
        raise NumericFailureError(
            f"quadrature not converged: half-resolution change {drift:.2e} rad"
        )
    return GeometricPhaseSet(gamma=gamma, term1=term1, term2=term2)


def _quadrature(p: RotorParams, ms, idx: dict[str, int], spp: int):
    """One-period trapezoid integrals per branch.

    gamma integrates the gauge-potential expectation, term1 its axial part
    omega <S_z>, and term2 = term1 - gamma is the tilted-axis part.
    """
    t = np.linspace(0.0, p.period, spp + 1)
    # period of the mode reconstruction follows the signed frequency
    nh = ms.n_harmonics
    ks = np.arange(-nh, nh + 1)
    phases = np.exp(1j * np.outer(t, ks * p.omega))  # (time, harmonic)
    gauge = gauge_operator(p, t)                       # (time, spin, spin)
    gamma, term1, term2 = {}, {}, {}
    for lab in LABELS:
        coeff = ms.fourier[:, :, idx[lab]]             # (harmonic, spin)
        states = phases @ coeff                        # (time, spin)
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        c = states.conj()
        a = np.real(np.einsum("ts,tsu,tu->t", c, gauge, states))
        sz = np.real(np.einsum("ts,su,tu->t", c, SPIN.sz, states))
        gamma[lab] = float(np.trapezoid(a, t))
        term1[lab] = float(np.trapezoid(p.omega * sz, t))
        term2[lab] = term1[lab] - gamma[lab]
    return gamma, term1, term2


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
    sign convention is broken or the quadrature path disagrees with the
    closed form there.
    """
    got, dev = _slow_rotation_check()
    q = geometric_phases_with_field(_SLOW).gamma["m+1"]
    if abs(q - got) > 1e-4:
        raise NumericFailureError(
            f"gauge quadrature disagrees with closed form: {q:.6f} vs {got:.6f}"
        )
    return dev
