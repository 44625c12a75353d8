"""Nonadiabatic geometric phases of the three cyclic drive states.

Each cyclic state returns to itself (up to a phase) after one drive
period; the geometric phase is the part of that phase left after the
dynamical contribution is subtracted. Without a static field there is a
closed form in the cubic roots and their eigenvector weights; with a
field the phase is the one-period integral of the gauge potential along
the periodic drive mode, summed exactly over the mode's harmonic
coefficients. The gauge potential is what the rotation adds to the
rest-frame levels in the co-rotating Hamiltonian; its harmonics come from
`rotorspin.model.gauge_harmonics`, the one place they are computed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (DegeneracyError, InvalidArgumentError, NumericFailureError,
                     RotorSpinError)
from .floquet import (
    EDGE_WEIGHT_STATES,
    LABELS,
    _assign_labels,
    _best_permutation,
    _circ_dist,
    _label_score,
    _valid_prefix,
    auto_harmonics,
    zero_field_modes,
)
from .model import (RotorParams, gauge_harmonics, harmonic_sum, period_guard,
                    without_period)
from .spin_algebra import SPIN

__all__ = [
    "GeometricPhaseSet",
    "gauge_operator",
    "geometric_phases_zero_field",
    "ZeroFieldPhases",
    "zero_field_phases",
    "geometric_phases_with_field",
    "verify_gauge_sign",
]


class GeometricPhaseSet(NamedTuple):
    """Per-branch geometric phases (radians) with their decomposition.

    For each label, gamma = term1 - term2: term1 is the total cyclic phase
    contribution, term2 the subtracted dynamical part. Phases are not
    reduced mod 2*pi, so adiabatic values near 2*pi survive intact.
    truncation and edge_weight are the harmonic truncation N and edge
    weight of the modes (see ModeSet), 0 in the closed form.
    """

    gamma: dict[str, float]
    term1: dict[str, float]
    term2: dict[str, float]
    truncation: int = 0
    edge_weight: float = 0.0

    def as_tuple(self) -> tuple[float, float, float]:
        """(gamma_m-1, gamma_m0, gamma_m+1) in fixed label order."""
        return tuple(self.gamma[lab] for lab in LABELS)


def gauge_operator(p: RotorParams, t) -> np.ndarray:
    """Gauge potential whose expectation along a cyclic state integrates to
    the geometric phase.

    Closed form omega * ((1 - cos theta) S_z - sin theta (cos phi S_x +
    sin phi S_y)) with phi = omega t + phi0, assembled from the model's
    harmonics (`rotorspin.model.gauge_harmonics`), so that h_rotating(p, t)
    is the omega = 0 Hamiltonian plus gauge_operator(p, t); the overall
    sign is pinned so the slow-rotation limit yields +2 pi (1 - cos theta)
    on the upper branch (see verify_gauge_sign). An array t gives a stack
    over t.
    """
    return harmonic_sum(*gauge_harmonics(p), p.omega, t)


def geometric_phases_zero_field(p: RotorParams) -> GeometricPhaseSet:
    """Closed-form geometric phases without a static field: a one-point
    `zero_field_phases`."""
    if p.delta != 0:
        raise InvalidArgumentError("geometric_phases_zero_field requires delta = 0")
    ph = zero_field_phases(p, "omega", [p.omega])
    if ph.error is not None:
        raise ph.error
    return GeometricPhaseSet(*(dict(zip(LABELS, a[0].tolist()))
                               for a in (ph.gamma, ph.term1, ph.term2)))


class ZeroFieldPhases(NamedTuple):
    """Closed-form phases at the leading points of a zero-field sweep, as
    (points, 3) arrays in LABELS order (see GeometricPhaseSet)."""

    gamma: np.ndarray
    term1: np.ndarray
    term2: np.ndarray
    error: RotorSpinError | None  # that of the next point, which failed


def zero_field_phases(p: RotorParams, axis: str, values) -> ZeroFieldPhases:
    """Closed-form geometric phases at each point of a sweep of p without a
    field along omega or theta, in one pass over `zero_field_modes`:

        gamma_n = (2 pi / omega) * (lambda_n - (d - omega)|c_{n,+1}|^2
                  - (d + omega)|c_{n,-1}|^2),

    using the signed rotation frequency, so reversing the rotation
    direction flips the phases as required; term1 is the lambda_n part and
    term2 the rest. Each point is checked as a single one is: its
    parameters, then its drive period, then its modes. The points from the
    first that fails on are not returned, and its error is returned, not
    raised.
    """
    if p.delta != 0:
        raise InvalidArgumentError("zero_field_phases requires delta = 0")
    values = np.asarray(values, dtype=float)
    n, error = _valid_prefix(p, axis, values)
    omega = values[:n] if axis == "omega" else np.full(n, p.omega)
    no_period = without_period(p, omega)
    if no_period.any():
        n = int(np.argmax(no_period))
        try:
            period_guard(p.with_(omega=float(omega[n])))
        except RotorSpinError as exc:
            error = exc
    zf = zero_field_modes(p, axis, values[:n])
    if zf.error is not None:
        n, error = len(zf.quasi), zf.error
    omega = omega[:n, None]
    w = np.abs(zf.modes) ** 2                             # (point, spin, mode)
    perm = _best_permutation(_label_score(w.swapaxes(1, 2)))  # (point, label)
    lam = np.take_along_axis(zf.quasi, perm, axis=1)
    w = np.take_along_axis(w, perm[:, None, :], axis=2)   # (point, spin, label)
    t_signed = np.copysign(2.0 * math.pi / np.abs(omega), omega)
    dyn = (p.d - omega) * w[:, 0] + (p.d + omega) * w[:, 2]
    term1, term2 = lam * t_signed, dyn * t_signed
    return ZeroFieldPhases(gamma=term1 - term2, term1=term1, term2=term2,
                           error=error)


def geometric_phases_with_field(p: RotorParams) -> GeometricPhaseSet:
    """Geometric phases with the field term delta (see `rotorspin.model`).

    Each drive mode u(t) = sum_k c_k e^{ik omega t} comes from the harmonic
    matrix. The gauge potential carries only the harmonics 0 and +-1 (see
    `rotorspin.model.gauge_harmonics`), so its one-period integral along
    the mode is exact in the coefficients:

        gamma = T [sum_k c_k^dag A0 c_k + 2 Re sum_k c_{k-1}^dag A- c_k]
                / sum_k |c_k|^2,
        term1 = T omega sum_k c_k^dag S_z c_k / sum_k |c_k|^2,

    and term2 = term1 - gamma. T = 2 pi / omega is the signed period, as in
    the closed form, so reversing the rotation direction flips the phases.
    """
    t_signed = math.copysign(p.period, p.omega)
    ms = auto_harmonics(p, EDGE_WEIGHT_STATES)
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

    a0, a_minus = gauge_harmonics(p)
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
                             truncation=ms.n_harmonics, edge_weight=ms.edge_weight)


#: Slow reference rotation at which the pinned gauge sign is checked.
_SLOW = RotorParams(omega=1e-3, theta=math.pi / 5)


def verify_gauge_sign() -> float:
    """Check the pinned gauge sign against the slow-rotation limit.

    Returns the deviation of the upper-branch phase from
    +2 pi (1 - cos theta) at a slow reference rotation; raises if the
    sign convention is broken or the harmonic-sum path disagrees with the
    closed form there.
    """
    target = 2.0 * math.pi * (1.0 - math.cos(_SLOW.theta))
    got = geometric_phases_zero_field(_SLOW).gamma["m+1"]
    dev = abs(got - target)
    if dev > 0.05:
        raise NumericFailureError(
            f"gauge sign convention broken: upper-branch slow-rotation phase "
            f"{got:.4f} vs expected {target:.4f}"
        )
    q = geometric_phases_with_field(_SLOW).gamma["m+1"]
    if abs(q - got) > 1e-4:
        raise NumericFailureError(
            f"gauge harmonic sum disagrees with closed form: {q:.6f} vs {got:.6f}"
        )
    return dev
