"""Hamiltonian builders for a spin-1 defect rotating about the z axis.

Frequencies are dimensionless by default (zero-field splitting d = 1).
The field parameter ``delta`` encodes a static magnetic field along the
rotation axis; ``delta = 0`` means no field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError, RegimeError
from .spin_algebra import SPIN, SZ2

__all__ = [
    "RotorParams",
    "DerivedScales",
    "derived_scales",
    "h_rotating",
    "h_interaction",
    "h_adiabatic_effective",
    "h_effective_small_angle",
    "static_part",
    "drive_amplitude",
]


@dataclass(frozen=True)
class RotorParams:
    """Physical parameters of the rotating spin.

    d       zero-field splitting (frequency units, > 0)
    omega   rotation angular frequency; the sign encodes the direction
    theta   tilt angle between the spin axis and the rotation axis, in [0, pi]
    phi0    initial azimuth of the spin axis (radians)
    delta   field parameter, proportional to the static axial field strength
    """

    omega: float
    theta: float
    d: float = 1.0
    phi0: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        vals = (self.d, self.omega, self.theta, self.phi0, self.delta)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidArgumentError("all parameters must be finite")
        if self.d <= 0:
            raise InvalidArgumentError("d must be positive")
        if not 0.0 <= self.theta <= math.pi:
            raise InvalidArgumentError("theta must lie in [0, pi]")

    @property
    def period(self) -> float:
        period_guard(self)
        return 2.0 * math.pi / abs(self.omega)

    def with_(self, **kw) -> "RotorParams":
        return replace(self, **kw)


@dataclass(frozen=True)
class DerivedScales:
    """Convenience frequencies derived from the raw parameters."""

    rabi: float          # sqrt(2) * |omega| * sin(theta)
    d_tilde: float       # splitting corrected to second order in theta
    delta_tilde: float   # field parameter corrected to second order in theta


def derived_scales(p: RotorParams) -> DerivedScales:
    d, om, th, de = p.d, p.omega, p.theta, p.delta
    th2 = th * th
    denom = 2.0 * (d * d - de * de)
    d_tilde = d + 3.0 * d * de * de * th2 / denom
    delta_tilde = de - 0.5 * om * th2 - d * d * de * th2 / denom
    return DerivedScales(
        rabi=math.sqrt(2.0) * abs(om) * math.sin(th),
        d_tilde=d_tilde,
        delta_tilde=delta_tilde,
    )


def h_rotating(p: RotorParams, t) -> np.ndarray:
    """Time-dependent co-rotating-frame Hamiltonian at time t.

    The Fourier-static part plus the periodic transverse drive. An array
    of times gives a stack of matrices, shape t.shape + (3, 3).
    """
    phase = np.exp(-1j * (p.omega * np.asarray(t, dtype=float) + p.phi0))
    phase = phase[..., None, None]
    drive = phase * SPIN.s_plus + np.conj(phase) * SPIN.s_minus
    return static_part(p) - 0.5 * p.omega * math.sin(p.theta) * drive


def static_part(p: RotorParams) -> np.ndarray:
    """Fourier-static component of the co-rotating Hamiltonian."""
    ct, st = math.cos(p.theta), math.sin(p.theta)
    return (
        p.d * SZ2
        - p.delta * ct * SPIN.sz
        + p.delta * st * SPIN.sx
        + p.omega * (1.0 - ct) * SPIN.sz
    )


def drive_amplitude(p: RotorParams) -> np.ndarray:
    """Fourier amplitude of the e^{-i omega t} drive component."""
    return -0.5 * p.omega * math.sin(p.theta) * np.exp(-1j * p.phi0) * SPIN.s_plus


def h_interaction(p: RotorParams) -> np.ndarray:
    """Time-independent Hamiltonian in the frame co-rotating with the drive.

    Only valid without a static field; with a field the drive cannot be
    rotated away and the truncated harmonic expansion must be used instead.
    """
    if p.delta != 0:
        raise InvalidArgumentError(
            "h_interaction requires delta = 0; use the Floquet path for a finite field"
        )
    ct, st = math.cos(p.theta), math.sin(p.theta)
    return (
        p.d * SZ2
        - p.omega * ct * SPIN.sz
        - p.omega * st * (math.cos(p.phi0) * SPIN.sx + math.sin(p.phi0) * SPIN.sy)
    )


def h_adiabatic_effective(p: RotorParams) -> np.ndarray:
    """Diagonal effective Hamiltonian in the slow-rotation limit.

    Keeps only the splitting and the rotation-induced level shift: the
    static part without a field."""
    if p.delta != 0:
        raise InvalidArgumentError("h_adiabatic_effective requires delta = 0")
    return static_part(p)


def period_guard(p: RotorParams) -> None:
    """Raise where the rotation has no usable drive period:
    InvalidArgumentError at omega = 0, NumericFailureError where
    |omega| <= eps (d + |delta|). There the harmonic copies n omega of a
    level round onto the level, and a one-period phase, level times
    2 pi / omega, keeps no digit or overflows."""
    if p.omega == 0:
        raise InvalidArgumentError("no drive period at omega = 0")
    if abs(p.omega) <= np.finfo(float).eps * (p.d + abs(p.delta)):
        raise NumericFailureError(
            f"|omega| = {abs(p.omega):.3g} is below the rounding of the levels")


# Small-angle validity guard: theta must stay well below 1 - delta/d for the
# second-order expansion to keep its neglected terms under ~1e-3 * d.
_SMALL_ANGLE_FACTOR = 0.2


def small_angle_guard(d: float, delta: float, theta: float) -> None:
    if not 0.0 < delta < d:
        raise RegimeError("small-angle model requires 0 < delta < d")
    if theta >= _SMALL_ANGLE_FACTOR * (1.0 - delta / d):
        raise RegimeError(
            f"theta = {theta:.4g} outside the small-angle regime "
            f"(needs theta < {_SMALL_ANGLE_FACTOR * (1.0 - delta / d):.4g})"
        )


def h_effective_small_angle(p: RotorParams) -> tuple[np.ndarray, DerivedScales]:
    """Static part of the second-order small-angle effective Hamiltonian.

    Returns the matrix d_tilde * S_z^2 - delta_tilde * S_z together with the
    corrected scales, so the caller can form the resonance residual
    d_tilde - delta_tilde - omega directly.
    """
    small_angle_guard(p.d, p.delta, p.theta)
    sc = derived_scales(p)
    return sc.d_tilde * SZ2 - sc.delta_tilde * SPIN.sz, sc
