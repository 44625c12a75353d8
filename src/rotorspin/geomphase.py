"""Nonadiabatic geometric phases of the three cyclic drive states.

Each cyclic state returns to itself (up to a phase) after one drive
period; the geometric phase is the part of that phase left after the
dynamical contribution is subtracted. Without a static field there is a
closed form in the cubic roots and their eigenvector weights; with a
field the phase is the one-period integral of the gauge potential along
the periodic drive mode, summed exactly over the mode's harmonic
coefficients. `field_phases` computes both for a whole sweep, in one
batch over one `field_modes` call; the one-point functions are batches of
one. The gauge potential is what the rotation adds to the rest-frame
levels in the co-rotating Hamiltonian; its harmonics come from
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
    _separation,
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
    """Closed-form geometric phases without a static field:

        gamma_n = (2 pi / omega) * (lambda_n - (d - omega)|c_{n,+1}|^2
                  - (d + omega)|c_{n,-1}|^2),

    from the cubic root lambda_n and the spin weights of its exact mode,
    using the signed rotation frequency, so reversing the rotation
    direction flips the phases as required; term1 is the lambda_n part and
    term2 the rest. A one-point `field_phases`."""
    if p.delta != 0:
        raise InvalidArgumentError("geometric_phases_zero_field requires delta = 0")
    return _phase_set(field_phases(p, "omega", [p.omega]))


def _closed_form(d: float, omega: np.ndarray, quasi: np.ndarray,
                 weights: np.ndarray, labels: np.ndarray):
    """(gamma, term1, term2) of the closed form, (points, 3) in LABELS
    order, from the exact zero-field modes of each point, their quasi-
    energies and (mode, spin) weights, and the mode of each label (see
    `geometric_phases_zero_field`)."""
    omega = omega[:, None]
    lam = np.take_along_axis(quasi, labels, axis=1)
    w = np.take_along_axis(weights, labels[:, :, None], axis=1)  # (point, label, spin)
    t_signed = np.copysign(2.0 * math.pi / np.abs(omega), omega)
    dyn = (d - omega) * w[:, :, 0] + (d + omega) * w[:, :, 2]
    term1, term2 = lam * t_signed, dyn * t_signed
    return term1 - term2, term1, term2


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


def _harmonic_sums(p: RotorParams, axis: str, values: np.ndarray,
                   fm: FieldModes, labels: np.ndarray, at: np.ndarray):
    """(gamma, term1, term2) at the points `at` of a sweep of p, (points,
    3) in LABELS order, by the harmonic sum of `geometric_phases_with_field`
    over the modes `fm`, the mode of each label in `labels`: one stack, each
    mode's harmonic blocks zero-padded about k = 0 to the longest."""
    q = _points(p, axis, values[at])
    omega = values[at] if axis == "omega" else np.full(len(at), p.omega)
    t_signed = np.copysign(2.0 * math.pi / np.abs(omega), omega)[:, None]
    a0 = np.broadcast_to(_gauge_static(q), (len(at), 3, 3))
    a_minus = np.broadcast_to(_drive_amplitude(q), (len(at), 3, 3))
    modes = [fm.fourier[i] for i in at.tolist()]
    blocks = max(len(m) for m in modes)
    # (point, label, k, spin); real where every mode is, as a complex dot
    # of real numbers rounds otherwise
    c = np.zeros((len(at), 3, blocks, 3), dtype=np.result_type(*modes))
    for j, (m, lab) in enumerate(zip(modes, labels[at])):
        lo = (blocks - len(m)) // 2
        c[j, :, lo:blocks - lo] = m[:, :, lab].transpose(2, 0, 1)
    flat = c.reshape(len(at), 3, 1, -1)
    norm = (flat.conj() @ flat.swapaxes(2, 3))[..., 0, 0].real
    static = np.einsum("pbks,pst,pbkt->pb", c.conj(), a0, c).real
    hop = np.einsum("pbks,pst,pbkt->pb", c[:, :, :-1].conj(), a_minus,
                    c[:, :, 1:]).real
    sz = np.einsum("pbks,st,pbkt->pb", c.conj(), SPIN.sz, c).real
    gamma = t_signed * (static + 2.0 * hop) / norm
    term1 = t_signed * omega[:, None] * sz / norm
    return gamma, term1, term1 - gamma


def _degenerate(d: float, omega: np.ndarray, quasi: np.ndarray,
                weights: np.ndarray, labels: np.ndarray):
    """Per point, the first pair of branches, in label order, whose folded
    quasi-energies meet while their modes hybridize, or None: the phases
    are not separable there. An exact folded crossing is harmless as long
    as the two modes kept a pure spin character."""
    quasi = np.take_along_axis(quasi, labels, axis=1)
    purity = np.take_along_axis(weights.max(axis=2), labels, axis=1)
    pairs, a, b = ((0, 1), (0, 2), (1, 2)), [0, 0, 1], [1, 2, 2]
    meet = ((_separation(quasi[:, a], quasi[:, b], np.abs(omega)[:, None])
             < 1e-10 * d)
            & (np.minimum(purity[:, a], purity[:, b]) < 0.999))
    return [None if not row.any() else pairs[int(np.argmax(row))]
            for row in meet]


def _degeneracy_error(pair) -> DegeneracyError:
    a, b = (LABELS[i] for i in pair)
    return DegeneracyError(f"branches {a} and {b} are degenerate; phases not separable")


def _phases(p: RotorParams, axis: str, values, closed_form: bool) -> FieldPhases:
    """`field_phases`, with the closed form at delta = 0 or, without
    `closed_form`, the harmonic sum over the exact modes there too."""
    values = np.asarray(values, dtype=float)
    n, error = _valid_prefix(p, axis, values, without_period(p, axis, values),
                             period_guard)
    fm = field_modes(p, axis, values[:n], EDGE_WEIGHT_STATES)
    error = error if fm.error is None else fm.error
    n = len(fm.quasi)
    omega = values[:n] if axis == "omega" else np.full(n, p.omega)
    zero = closed_form & ((values[:n] if axis == "delta"
                           else np.full(n, p.delta)) == 0)
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
                                       fm.weights[:n][zero], labels[:n][zero])
    return FieldPhases(*phases, truncation=int(fm.n_harmonics[:n].max(initial=0)),
                       edge_weight=float(fm.edge_weight[:n].max(initial=0.0)),
                       error=error)


def field_phases(p: RotorParams, axis: str, values) -> FieldPhases:
    """Geometric phases at each point of a sweep of p along omega, theta or
    delta, in one batch over one `field_modes` call: the closed form of
    `geometric_phases_zero_field` where delta = 0, the harmonic sum of
    `geometric_phases_with_field` elsewhere. Each point is checked as a
    single one is: its parameters, its drive period, its modes and, with a
    field, the separability of its branches. The points from the first
    that fails on are not returned, and its error is returned, not raised.
    """
    return _phases(p, axis, values, closed_form=True)


def _phase_set(ph: FieldPhases) -> GeometricPhaseSet:
    """The phases of a one-point batch, or the error it returned, raised."""
    if ph.error is not None:
        raise ph.error
    return GeometricPhaseSet(*(dict(zip(LABELS, a[0].tolist()))
                               for a in (ph.gamma, ph.term1, ph.term2)),
                             truncation=ph.truncation, edge_weight=ph.edge_weight)


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
    the code behind `field_phases`, with the closed form switched off.
    """
    return _phase_set(_phases(p, "omega", [p.omega], closed_form=False))


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
