"""Resonance design and metrology formulas.

Closed-form resonance conditions give quick design answers. The small-angle
field condition is only accurate to second order in the tilt angle, so the
field solver refines its root in the full driven model: at the requested
rotation frequency it solves for the field of maximal mixing of the
crossing pair, using the same mixing rule as `floquet.avoided_crossing`, and
reports how far the crossing centre lies from the request, in closed form
from the weights and separation of the pair at the solved field.
"""

import math
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import DivergenceError, InvalidArgumentError, RegimeError
from .floquet import _pair_members, _strongest_equal_mixing
from .model import RotorParams, small_angle_guard

__all__ = [
    "ResonanceSolution",
    "resonant_omega",
    "resonant_field",
    "angle_uncertainty",
]

_BRANCH_PAIR = {"plus": ("m0", "m+1"), "minus": ("m0", "m-1")}


class ResonanceSolution(NamedTuple):
    value: float       # solved parameter (field strength here)
    branch: str        # "plus" (0 <-> +1) or "minus" (0 <-> -1)
    residual: float    # distance of the crossing centre from the requested omega


def _check_branch(branch: str) -> None:
    if branch not in _BRANCH_PAIR:
        raise InvalidArgumentError("branch must be 'plus' or 'minus'")


def resonant_omega(theta: float, branch: str = "plus", d: float = 1.0) -> float:
    """Rotation frequency that brings the tilted spin into resonance
    without a field: +d/cos(theta) for the 0 <-> +1 branch, the negative
    for 0 <-> -1. Diverges as the tilt approaches a right angle."""
    _check_branch(branch)
    RotorParams(omega=0.0, theta=theta, d=d)  # finite, d > 0, theta in [0, pi]
    if theta >= math.pi / 2.0 - 1e-6:
        raise DivergenceError("resonant frequency diverges as theta -> pi/2")
    value = d / math.cos(theta)
    return value if branch == "plus" else -value


def _small_angle_root(theta: float, omega: float, branch: str, d: float) -> float:
    """Lowest field in [0, 0.98 d] that solves the second-order small-angle
    condition d_tilde - delta_tilde = omega (plus) or
    d_tilde + delta_tilde = -omega (minus).

    With s = +1 (plus) or -1 (minus) and c = d - s omega (1 - theta^2 / 2),
    the scales of `derived_scales` make the residual times 2 (d^2 - delta^2)
    the cubic 2 s delta^3 + (3 d theta^2 - 2 c) delta^2
    + s d^2 (theta^2 - 2) delta + 2 c d^2, whose sign is the residual's on
    [0, d). It is solved in units of d, x = delta / d, whose coefficients
    do not leave the float64 range with d, and the root scaled back by d.
    A root just below zero field is taken as the tangent root from
    delta = 0, clamped into the interval.
    """
    s = 1.0 if branch == "plus" else -1.0
    th2 = theta * theta
    c = 1.0 - s * (omega / d) * (1.0 - 0.5 * th2)  # c / d
    coeffs = [2.0 * s, 3.0 * th2 - 2.0 * c, s * (th2 - 2.0), 2.0 * c]
    # a coefficient overflows only where |c| is far beyond 1, and so is the
    # residual at every field in [0, d)
    roots = (np.roots(coeffs) if all(map(math.isfinite, coeffs))
             else np.empty(0, dtype=complex))
    real = roots[np.abs(roots.imag) <= 1e-12].real
    inside = real[(real >= 0.0) & (real <= 0.98)]
    if len(inside) > 0:
        return d * float(inside.min())
    if abs(c) < 1e-3:
        # the residual at zero field is c; its slope there is s (theta^2 / 2 - 1)
        return d * float(min(max(c / (s * (1.0 - 0.5 * th2)), 0.0), 0.98))
    raise RegimeError(
        f"no resonant field in (0, {d:.3g}) for theta = {theta:.4g}, "
        f"omega = {omega:.4g}"
    )


def resonant_field(
    theta: float,
    omega: float,
    branch: str = "plus",
    d: float = 1.0,
) -> ResonanceSolution:
    """Field parameter delta that compensates the detuning at a given
    rotation frequency. delta is the term held static in the co-rotating
    frame (see `rotorspin.model`), not a static field along the rotation
    axis.

    The second-order small-angle condition, a cubic in the field, gives the
    lowest root first. The refinement then works at the requested omega in
    the full driven model: for each member of the crossing pair it solves
    for the field where that member is an equal superposition of the two
    crossing levels, within 2% of d of the small-angle root, and keeps the
    more strongly mixed member, as `avoided_crossing` does along omega. The
    residual is the distance from omega of the crossing centre at the
    solved field: in a two-level crossing the member weights differ by
    Delta / sep, and the detuning Delta moves one-to-one with omega, so it
    is |w_i - w_j| sep of the kept member there. When no member reaches
    equal weight in that bracket, no field in (0, d) compensates near the
    small-angle root, and `RegimeError` is raised, as at theta = 0.
    """
    _check_branch(branch)
    p = RotorParams(omega=omega, theta=theta, d=d)
    if omega == 0:
        raise InvalidArgumentError("omega must be nonzero")

    if theta == 0:
        # exact: the tilde corrections vanish and the condition is linear
        value = d - omega if branch == "plus" else -(d + omega)
        if not 0.0 < value < d:
            raise RegimeError(f"no resonant field in (0, {d:.3g}) at theta = 0")
        return ResonanceSolution(value=value, branch=branch, residual=0.0)

    root = _small_angle_root(theta, omega, branch, d)
    if root > 1e-6 * d:
        small_angle_guard(d, root, theta)

    pair = _BRANCH_PAIR[branch]

    @cache
    def members(delta: float) -> tuple[float, np.ndarray]:
        return _pair_members(p.with_(delta=float(delta)), pair)

    # the crossing field moves roughly one-to-one with omega, so a narrow
    # bracket around the small-angle root holds the equal-weight points
    lo = max(0.0, root - 0.02 * d)
    hi = min(0.995 * d, root + 0.02 * d)
    found = _strongest_equal_mixing(members, (lo, hi), xtol=1e-12 * d)
    if found is None:
        raise RegimeError(
            f"no resonant field in (0, {d:.3g}) for theta = {theta:.4g}, "
            f"omega = {omega:.4g}: no pair member reaches equal weight"
        )
    value, sep, diff = found
    return ResonanceSolution(value=value, branch=branch, residual=abs(diff) * sep)


def angle_uncertainty(omega: float, theta: float, delta_rabi: float) -> float:
    """Tilt-angle uncertainty propagated from an uncertainty of the
    measured coupling strength: delta_rabi / (sqrt(2) |omega| cos theta).
    Raises DivergenceError where the quotient is not a finite number."""
    RotorParams(omega=omega, theta=theta)  # finite, theta in [0, pi]
    if omega == 0:
        raise InvalidArgumentError("omega must be nonzero")
    if not (math.isfinite(delta_rabi) and delta_rabi >= 0):
        raise InvalidArgumentError("delta_rabi must be finite and nonnegative")
    c = abs(math.cos(theta))
    if c < 1e-6:
        raise DivergenceError("angle uncertainty diverges as theta -> pi/2")
    denom = math.sqrt(2.0) * abs(omega) * c  # may underflow to zero
    value = delta_rabi / denom if denom > 0 else math.inf
    if not math.isfinite(value):
        raise DivergenceError(f"angle uncertainty overflows at omega = {omega:.3g}")
    return value
