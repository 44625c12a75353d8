"""Hamiltonian builders for a spin-1 defect rotating about the z axis.

Frequencies are dimensionless by default (zero-field splitting d = 1).
The field parameter ``delta`` is the term -delta cos(theta) S_z + delta
sin(theta) S_x of `static_part`, held static in the frame U(t) =
R_z(omega t) R_y(theta) R_z(-omega t) that turns with the spin axis: the
paper's frame Hamiltonian. In the lab it is the field delta b(t) along
the unit vector that the frame rotation carries,

    b(t) = U(t) (sin theta, 0, -cos theta),

which starts at b(0) = -z and turns with the frame. It is not a static
field along the rotation axis, whose quasi-energies differ from these by
0.003-0.15 at theta > 0.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError, RegimeError
from .spin_algebra import SPIN, SZ2

__all__ = [
    "RotorParams",
    "DerivedScales",
    "derived_scales",
    "rabi_frequency",
    "harmonic_sum",
    "h_rotating",
    "h_interaction",
    "static_part",
    "drive_amplitude",
    "gauge_harmonics",
]


class _RotorFields(NamedTuple):
    omega: float
    theta: float
    d: float = 1.0
    phi0: float = 0.0
    delta: float = 0.0


class RotorParams(_RotorFields):
    """Physical parameters of the rotating spin.

    d       zero-field splitting (frequency units, > 0)
    omega   rotation angular frequency; the sign encodes the direction
    theta   tilt angle between the spin axis and the rotation axis, in [0, pi]
    phi0    initial azimuth of the spin axis (radians)
    delta   field strength along b(t) = U(t) (sin theta, 0, -cos theta), the
            unit vector the frame rotation U(t) carries (module docstring)

    A named tuple, validated however it is made, `_make` and `_replace`
    included: immutable, and equal and hashed by value. Each field is
    stored as a Python float, so that scalar arithmetic on it follows
    Python's rules, not numpy's, whatever number type it was given as.
    """

    __slots__ = ()

    def __new__(cls, omega: float, theta: float, d: float = 1.0,
                phi0: float = 0.0, delta: float = 0.0):
        if not all(math.isfinite(v) for v in (d, omega, theta, phi0, delta)):
            raise InvalidArgumentError("all parameters must be finite")
        if d <= 0:
            raise InvalidArgumentError("d must be positive")
        if not 0.0 <= theta <= math.pi:
            raise InvalidArgumentError("theta must lie in [0, pi]")
        return super().__new__(cls, *map(float, (omega, theta, d, phi0, delta)))

    @property
    def period(self) -> float:
        period_guard(self)
        return 2.0 * math.pi / abs(self.omega)

    @classmethod
    def _make(cls, iterable) -> "RotorParams":
        return cls(*iterable)

    def with_(self, **kw) -> "RotorParams":
        """A copy with the fields in kw replaced, validated again."""
        return self._replace(**kw)


class DerivedScales(NamedTuple):
    """Convenience frequencies derived from the raw parameters."""

    rabi: float          # rabi_frequency(p)
    d_tilde: float       # splitting corrected to second order in theta
    delta_tilde: float   # field parameter corrected to second order in theta


def rabi_frequency(p: RotorParams) -> float:
    """The Rabi frequency of the drive, sqrt(2) |omega| sin(theta)."""
    return math.sqrt(2.0) * abs(p.omega) * math.sin(p.theta)


def derived_scales(p: RotorParams) -> DerivedScales:
    """The Rabi frequency, and the splitting and the field parameter
    corrected to second order in theta. The corrections divide by
    2 (d^2 - delta^2): RegimeError where that is 0, at delta = +-d (or
    where d^2 and delta^2 round to equal values)."""
    d, om, th, de = p.d, p.omega, p.theta, p.delta
    th2 = th * th
    denom = 2.0 * (d * d - de * de)
    if denom == 0:
        raise RegimeError(
            f"second-order scales diverge where d^2 = delta^2 (d = {d:.3g}, "
            f"delta = {de:.3g})")
    d_tilde = d + 3.0 * d * de * de * th2 / denom
    delta_tilde = de - 0.5 * om * th2 - d * d * de * th2 / denom
    return DerivedScales(
        rabi=rabi_frequency(p),
        d_tilde=d_tilde,
        delta_tilde=delta_tilde,
    )


def harmonic_sum(a0: np.ndarray, a_minus: np.ndarray, omega: float, t) -> np.ndarray:
    """a0 + e^{-i omega t} a_minus + h.c. for a Hermitian a0, the form of
    every periodic frame operator; an array t gives a stack over t."""
    phase = np.exp(-1j * omega * np.asarray(t, dtype=float))[..., None, None]
    hop = phase * a_minus
    return a0 + hop + np.swapaxes(hop.conj(), -1, -2)


def h_rotating(p: RotorParams, t) -> np.ndarray:
    """Co-rotating-frame Hamiltonian at time t (a stack over an array t):
    the Fourier-static part plus the periodic transverse drive."""
    return harmonic_sum(static_part(p), drive_amplitude(p), p.omega, t)


def _unit(d, *magnitudes):
    """The unit of frequency of each point, for floats or arrays that
    broadcast: None where every point's max(d, |magnitudes|) lies within
    2^+-128, where the cubic's sixth powers stay in range; else 1 there
    and, beyond, the power of two at or below that max."""
    # on Python floats: for the few points of a stack, cheaper than numpy
    if 2.0**-128 <= d <= 2.0**128 and all(
            abs(x) <= 2.0**128 for m in magnitudes
            for x in ((m,) if isinstance(m, float) else m.ravel().tolist())):
        return None
    top = np.max(np.broadcast_arrays(d, *map(np.abs, magnitudes)), axis=0)
    inside = (2.0**-128 <= top) & (top <= 2.0**128)
    return None if np.all(inside) else np.where(
        inside, 1.0, np.ldexp(1.0, np.frexp(top)[1] - 1))


class _Points(NamedTuple):
    """The parameters the Hamiltonian builders read, at one point or along
    a sweep: there the swept delta, omega, or cos theta and sin theta are
    (points, 1, 1) arrays, as d, delta and omega are where each point is
    solved in its own unit (`_unit`); every builder does at each point
    what it does at one."""

    d: float | np.ndarray
    delta: float | np.ndarray
    phi0: float
    omega: float | np.ndarray
    cos: float | np.ndarray
    sin: float | np.ndarray

    def take(self, idx) -> "_Points":
        """The points at the positions idx of a sweep."""
        return self._make(v[idx] if isinstance(v, np.ndarray) else v for v in self)


def _points(p: RotorParams, axis: str | None = None, values=None) -> _Points:
    """`_Points` of p, or of each point of a sweep of p along omega, theta
    or delta."""
    cos, sin = math.cos(p.theta), math.sin(p.theta)
    if axis is None:
        return _Points(p.d, p.delta, p.phi0, p.omega, cos, sin)
    if axis not in ("omega", "theta", "delta"):
        raise InvalidArgumentError(f"cannot sweep a frame matrix along {axis!r}")
    values = np.asarray(values, dtype=float).reshape(-1, 1, 1)
    if axis == "omega":
        return _Points(p.d, p.delta, p.phi0, values, cos, sin)
    if axis == "delta":
        return _Points(p.d, values, p.phi0, p.omega, cos, sin)
    return _Points(p.d, p.delta, p.phi0, p.omega, np.cos(values), np.sin(values))


def _static_part(q: _Points):
    return (q.d * SZ2 - q.delta * q.cos * SPIN.sz + q.delta * q.sin * SPIN.sx
            + _gauge_static(q))


def _gauge_static(q: _Points):
    return q.omega * (1.0 - q.cos) * SPIN.sz


def _drive_amplitude(q: _Points):
    return -0.5 * q.omega * q.sin * np.exp(-1j * q.phi0) * SPIN.s_plus


def static_part(p: RotorParams) -> np.ndarray:
    """Fourier-static component of the co-rotating Hamiltonian: the
    rest-frame levels d S_z^2 - delta cos theta S_z + delta sin theta S_x
    plus the static harmonic A0 of the gauge potential (`gauge_harmonics`)."""
    return _static_part(_points(p))


def drive_amplitude(p: RotorParams) -> np.ndarray:
    """Fourier amplitude of the e^{-i omega t} drive component."""
    return _drive_amplitude(_points(p))


def gauge_harmonics(p: RotorParams) -> tuple[np.ndarray, np.ndarray]:
    """Harmonic components (A0, A-) of the gauge potential
    A(t) = A0 + A- e^{-i omega t} + h.c. that the rotation adds to the
    rest-frame levels: A0 = omega (1 - cos theta) S_z and A- the drive
    amplitude -(omega sin theta / 2) e^{-i phi0} S_+."""
    q = _points(p)
    return _gauge_static(q), _drive_amplitude(q)


def h_interaction(p: RotorParams, axis: str | None = None,
                  values=None) -> np.ndarray:
    """Time-independent Hamiltonian in the frame co-rotating with the drive,
    h_rotating(p, 0) - omega S_z; with an axis ("omega" or "theta") and its
    values, the (points, 3, 3) stack of it along that sweep of p.

    Only valid without a static field; with a field the drive cannot be
    rotated away and the truncated harmonic expansion must be used instead.
    """
    if p.delta != 0 or axis == "delta":
        raise InvalidArgumentError(
            "h_interaction requires delta = 0; use the Floquet path for a finite field"
        )
    return _h_interaction(_points(p, axis, values))


def _h_interaction(q: _Points):
    b = _drive_amplitude(q)
    return _static_part(q) + b + b.conj().swapaxes(-1, -2) - q.omega * SPIN.sz


#: the float64 rounding unit
_EPS = float(np.finfo(float).eps)


def _below_rounding(omega, d: float, delta):
    """Whether |omega| <= eps (d + |delta|), for floats or arrays."""
    return abs(omega) <= _EPS * (d + abs(delta))


def without_period(p: RotorParams, axis: str | None = None, values=None):
    """Whether the rotation has no usable drive period, at p or, as an
    array, at each point of a sweep of p along `axis`: where |omega| <= eps
    (d + |delta|), or where the period 2 pi / |omega| is past the float64
    range (|omega| below about 3.5e-308; see `period_guard`)."""
    if axis is None:
        w = abs(p.omega)
        return _below_rounding(w, p.d, p.delta) or math.isinf(2.0 * math.pi / w)
    values = np.asarray(values, dtype=float)
    omega = values if axis == "omega" else p.omega
    delta = values if axis == "delta" else p.delta
    # a bound or a period past the float64 range is inf
    with np.errstate(divide="ignore", over="ignore"):
        short = (_below_rounding(omega, p.d, delta)
                 | np.isinf(2.0 * math.pi / np.abs(omega)))
    return short | np.zeros(len(values), dtype=bool)


def period_guard(p: RotorParams) -> None:
    """Raise where the rotation has no usable drive period:
    InvalidArgumentError at omega = 0, NumericFailureError where
    |omega| <= eps (d + |delta|) or where the period overflows. There the
    harmonic copies n omega of a level round onto the level, and a
    one-period phase, level times 2 pi / omega, keeps no digit or
    overflows."""
    if p.omega == 0:
        raise InvalidArgumentError("no drive period at omega = 0")
    if without_period(p):
        w = abs(p.omega)
        raise NumericFailureError(
            f"|omega| = {w:.3g} is below the rounding of the levels"
            if _below_rounding(w, p.d, p.delta) else
            f"the drive period 2 pi / |omega| overflows at |omega| = {w:.3g}")


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
