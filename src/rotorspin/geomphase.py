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

import math
from typing import NamedTuple

import numpy as np

from .errors import (DegeneracyError, InvalidArgumentError, NumericFailureError,
                     RotorSpinError)
from .floquet import (
    EDGE_WEIGHT_STATES,
    LABELS,
    FieldModes,
    _best_permutation,
    _label_score,
    _valid_prefix,
    field_modes,
)
from .model import (RotorParams, _drive_amplitude, _gauge_static, _points,
                    gauge_harmonics, harmonic_sum, period_guard, without_period)
from .spin_algebra import SPIN

__all__ = [
    "GeometricPhaseSet",
    "gauge_operator",
    "geometric_phases_zero_field",
    "ZeroFieldPhases",
    "zero_field_phases",
    "FieldPhases",
    "field_phases",
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


def _closed_form(d: float, omega: np.ndarray, quasi: np.ndarray,
                 modes: np.ndarray):
    """(gamma, term1, term2) of the closed form, (points, 3) in LABELS
    order, from the exact zero-field modes of each point (see
    `zero_field_phases`)."""
    omega = omega[:, None]
    w = np.abs(modes) ** 2                                # (point, spin, mode)
    perm = _best_permutation(_label_score(w.swapaxes(1, 2)))  # (point, label)
    lam = np.take_along_axis(quasi, perm, axis=1)
    w = np.take_along_axis(w, perm[:, None, :], axis=2)   # (point, spin, label)
    t_signed = np.copysign(2.0 * math.pi / np.abs(omega), omega)
    dyn = (d - omega) * w[:, 0] + (d + omega) * w[:, 2]
    term1, term2 = lam * t_signed, dyn * t_signed
    return term1 - term2, term1, term2


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
    ph = field_phases(p, axis, values)
    return ZeroFieldPhases(ph.gamma, ph.term1, ph.term2, ph.error)


class FieldPhases(NamedTuple):
    """Geometric phases at the leading points of a sweep, as (points, 3)
    arrays in LABELS order (see GeometricPhaseSet), with the largest
    harmonic truncation and edge weight of their modes."""

    gamma: np.ndarray
    term1: np.ndarray
    term2: np.ndarray
    truncation: int
    edge_weight: float
    error: RotorSpinError | None  # that of the next point, which failed


def _phase_modes(p: RotorParams, axis: str, values: np.ndarray):
    """The modes at EDGE_WEIGHT_STATES of the leading points of a sweep of
    p that are valid, have a drive period and are solved, as `RotorParams`,
    `period_guard` and `field_modes` check a single point, and the error of
    the next point, if any."""
    n, error = _valid_prefix(p, axis, values)
    no_period = without_period(p, axis, values[:n])
    if no_period.any():
        n = int(np.argmax(no_period))
        try:
            period_guard(p.with_(**{axis: float(values[n])}))
        except RotorSpinError as exc:
            error = exc
    fm = field_modes(p, axis, values[:n], EDGE_WEIGHT_STATES)
    return fm, error if fm.error is None else fm.error


def _harmonic_sums(p: RotorParams, axis: str, values: np.ndarray,
                   fm: FieldModes, labels: np.ndarray, at: np.ndarray):
    """(gamma, term1, term2) at the points `at` of a sweep of p, (points,
    3) in LABELS order, by the harmonic sum of `geometric_phases_with_field`
    over the modes `fm`, the mode of each label in `labels`. The points
    with as many harmonic blocks are summed as one stack."""
    q = _points(p, axis, values[at])
    omega = values[at] if axis == "omega" else np.full(len(at), p.omega)
    t_signed = np.copysign(2.0 * math.pi / np.abs(omega), omega)
    a0 = np.broadcast_to(_gauge_static(q), (len(at), 3, 3))
    a_minus = np.broadcast_to(_drive_amplitude(q), (len(at), 3, 3))
    gamma, term1 = np.zeros((len(at), 3)), np.zeros((len(at), 3))
    # the points with as many harmonic blocks, from one route: einsum's sum
    # order follows the layout of its operands, and a mode's coefficients
    # lie contiguous from the harmonic solve, strided from the exact modes
    groups = np.array([len(fm.fourier[i]) for i in at.tolist()], dtype=int)
    exact = fm.n_harmonics[at] == 0
    groups[exact] *= -1
    for k in sorted(set(groups.tolist())):
        g = np.flatnonzero(groups == k)
        modes = np.take_along_axis(np.stack([fm.fourier[i] for i in at[g].tolist()]),
                                   labels[at[g], None, None, :], axis=3)
        for b in range(3):
            c = modes[..., b] if k < 0 else np.ascontiguousarray(modes[..., b])
            flat = c.reshape(len(g), 1, -1)
            norm = (flat.conj() @ flat.swapaxes(1, 2))[:, 0, 0].real
            static = np.einsum("pks,pst,pkt->p", c.conj(), a0[g], c).real
            hop = np.einsum("pks,pst,pkt->p", c[:, :-1].conj(), a_minus[g],
                            c[:, 1:]).real
            sz = np.einsum("pks,st,pkt->p", c.conj(), SPIN.sz, c).real
            gamma[g, b] = t_signed[g] * (static + 2.0 * hop) / norm
            term1[g, b] = t_signed[g] * omega[g] * sz / norm
    return gamma, term1, term1 - gamma


def _degenerate(d: float, omega: np.ndarray, quasi: np.ndarray,
                weights: np.ndarray, labels: np.ndarray):
    """Per point, the first pair of branches, in label order, whose folded
    quasi-energies meet while their modes hybridize, or None: the phases
    are not separable there. An exact folded crossing is harmless as long
    as the two modes kept a pure spin character."""
    quasi = np.take_along_axis(quasi, labels, axis=1)
    purity = np.take_along_axis(weights.max(axis=2), labels, axis=1)
    width = np.abs(omega)
    pairs = ((0, 1), (0, 2), (1, 2))
    meet = np.zeros((len(omega), 3), dtype=bool)
    for j, (a, b) in enumerate(pairs):
        rise = (quasi[:, a] - quasi[:, b]) % width
        meet[:, j] = ((np.minimum(rise, width - rise) < 1e-10 * d)
                      & (np.minimum(purity[:, a], purity[:, b]) < 0.999))
    return [None if not row.any() else pairs[int(np.argmax(row))]
            for row in meet]


def _degeneracy_error(pair) -> DegeneracyError:
    a, b = (LABELS[i] for i in pair)
    return DegeneracyError(f"branches {a} and {b} are degenerate; phases not separable")


def field_phases(p: RotorParams, axis: str, values) -> FieldPhases:
    """Geometric phases at each point of a sweep of p along omega, theta or
    delta, in one batch over one `field_modes` call: the closed form of
    `zero_field_phases` where delta = 0, the harmonic sum of
    `geometric_phases_with_field` elsewhere. Each point is checked as a
    single one is: its parameters, its drive period, its modes and, with a
    field, the separability of its branches. The points from the first
    that fails on are not returned, and its error is returned, not raised.
    """
    values = np.asarray(values, dtype=float)
    fm, error = _phase_modes(p, axis, values)
    n = len(fm.quasi)
    omega = values[:n] if axis == "omega" else np.full(n, p.omega)
    zero = (values[:n] if axis == "delta" else np.full(n, p.delta)) == 0
    field = np.flatnonzero(~zero)
    labels = _best_permutation(_label_score(fm.weights))  # (point, label)
    refused = [(i, pair) for i, pair in zip(field.tolist(), _degenerate(
        p.d, omega[field], fm.quasi[field], fm.weights[field], labels[field]))
        if pair is not None]
    if refused:
        n, error = refused[0][0], _degeneracy_error(refused[0][1])
        zero, field = zero[:n], field[field < n]
    phases = np.zeros((3, n, 3))
    if field.size:
        phases[:, field] = _harmonic_sums(p, axis, values, fm, labels, field)
    if zero.any():
        phases[:, zero] = _closed_form(p.d, omega[:n][zero], fm.quasi[:n][zero],
                                       fm.mode0[:n][zero])
    return FieldPhases(*phases, truncation=int(fm.n_harmonics[:n].max(initial=0)),
                       edge_weight=float(fm.edge_weight[:n].max(initial=0.0)),
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
    At delta = 0 the sum runs over the exact modes. A one-point batch of
    the code behind `field_phases`.
    """
    values = np.array([p.omega])
    fm, error = _phase_modes(p, "omega", values)
    if error is not None:
        raise error
    labels = _best_permutation(_label_score(fm.weights))
    pair = _degenerate(p.d, values, fm.quasi, fm.weights, labels)[0]
    if pair is not None:
        raise _degeneracy_error(pair)
    phases = _harmonic_sums(p, "omega", values, fm, labels, np.array([0]))
    return GeometricPhaseSet(*(dict(zip(LABELS, a[0].tolist())) for a in phases),
                             truncation=int(fm.n_harmonics[0]),
                             edge_weight=float(fm.edge_weight[0]))


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
