"""Quasi-energy computation and branch bookkeeping.

Without a static field the three quasi-energies are the roots of a cubic
and come straight from the time-independent frame Hamiltonian; a sweep
without a field is solved as one batch, the cubic on arrays and one
stacked 3x3 eigensolve. With a field the periodic drive cannot be
rotated away, so the spectrum comes from a truncated harmonic
(block-tridiagonal) matrix (Shirley, Phys. Rev. 138, B979, 1965), defined
modulo |omega| and unfolded for plotting via the slope rule that connects
each branch to its zero-rotation eigenvalue. A field sweep is solved as
one batch too: stacks of harmonic matrices of at most STACK_BYTES per
eigensolve, the modes picked and certified on arrays (`_pick` picks the
points whose three leading columns are not distinct modes one by one);
each pass refuses, on arrays, the points `_harmonic_guard` refuses, and
`_valid_prefix` finds a sweep's first refused point and its error.
`_separation`, the distance of two branches modulo |omega|, decides which
columns are distinct modes, whether a sweep may start, whether the field
phases are separable and the gap of a crossing. `field_modes` is
the only way into that certified solve; `auto_harmonics`, the modes of a
single point, is a batch of one (`physical_modes` solves one point at a
truncation its caller picks). One tracker follows the branches of every
sweep, from either kind of modes, on arrays. The matrix is real symmetric
at phi0 = 0 and one solve there serves every phi0, which only phases the
harmonic blocks of the eigenvectors, so the quasi-energies do not depend
on phi0.
The truncation N starts where the Bessel estimate of the edge weight for
the tilt asks and doubles, for the points whose solve does not yet
certify it, until the bound its output needs holds: an edge weight of
1e-14 for quasi-energies and time-averaged weights, 1e-28 (an edge
amplitude of 1e-14) for states and phases read along the period.
"""

import math
from functools import cache
from itertools import permutations
from typing import NamedTuple

import numpy as np

from ._brent import brent_root
from .config import AXIS_NAMES
from .errors import (
    InvalidArgumentError,
    NoCrossingError,
    NumericFailureError,
    RotorSpinError,
    TrackingError,
)
from .model import (RotorParams, _drive_amplitude, _h_interaction, _points,
                    _Points, _static_part, _unit, drive_amplitude,
                    period_guard, static_part, without_period)
from .spin_algebra import hermitian_eigensystem

__all__ = [
    "LABELS",
    "SPIN_INDEX",
    "QuasiSpectrum",
    "SpectrumBranch",
    "CrossingReport",
    "cubic_quasienergies",
    "ZeroFieldModes",
    "zero_field_modes",
    "quasienergies_zero_field",
    "floquet_matrix",
    "FieldModes",
    "field_modes",
    "auto_harmonics",
    "physical_modes",
    "EDGE_WEIGHT_LEVELS",
    "EDGE_WEIGHT_STATES",
    "quasienergy_spectrum",
    "avoided_crossing",
    "fold",
]

#: Branch labels in fixed output order.
LABELS = ("m-1", "m0", "m+1")

#: Spin component index (basis order (+1, 0, -1)) for each branch label.
SPIN_INDEX = {"m+1": 0, "m0": 1, "m-1": 2}

#: Unfolding slope rule: harmonic shift per unit omega attached to each branch.
SLOPE = {"m+1": -1.0, "m0": 0.0, "m-1": +1.0}


def fold(x, omega: float):
    """Reduce quasi-energies to [-|omega|/2, |omega|/2); omega finite, nonzero."""
    w = abs(omega)
    if not 0.0 < w < math.inf:
        raise InvalidArgumentError(f"fold: omega must be finite and nonzero: {omega!r}")
    return ((np.asarray(x) + w / 2.0) % w) - w / 2.0


def _separation(a, b, width):
    """The branch separation: min(r, width - r), r = (a - b) mod width, of
    quasi-energies a and b whose copies lie `width` apart, on floats or
    arrays; the plain |a - b| where width is the scalar 0 (no copies)."""
    if np.ndim(width) == 0 and width == 0:
        return abs(a - b)
    r = (a - b) % width
    return np.minimum(r, width - r)


def cubic_quasienergies(d: float, omega: float, theta: float) -> np.ndarray:
    """Three real quasi-energies at zero field, ascending: the cubic roots
    of a one-point `zero_field_modes` (see `_cubic_roots`), or the
    eigensolver's values where the cubic is degenerate or marginal."""
    p = RotorParams(d=d, omega=omega, theta=theta)  # validates the inputs
    zf = zero_field_modes(p, "omega", [p.omega])
    if zf.error is not None:
        raise zf.error
    return zf.quasi[0]


def _cubic_roots(d: np.ndarray, omega: np.ndarray, theta: np.ndarray):
    """The three real roots, ascending, of the characteristic cubic of the
    frame Hamiltonian at each point (d, omega, theta) of a sweep, by the
    trigonometric method, each refined by two Newton steps. Each point's
    max(d, |omega|) lies within 2^+-128 (`model._unit`): no term overflows,
    and p = -(omega^2 + d^2 / 3) keeps p m clear of 0.

    Returns the (points, 3) roots and a mask of the degenerate or marginal
    points, whose roots are NaN and left to the eigensolver.
    """
    b = -2.0 * d
    c = -(omega * omega - d * d)
    e = omega * omega * d * np.sin(theta) ** 2
    p = c - b * b / 3.0
    q = e - b * c / 3.0 + 2.0 * np.power(b, 3) / 27.0
    disc = -4.0 * np.power(p, 3) - 27.0 * q * q
    m = 2.0 * np.sqrt(-p / 3.0)
    inexact = disc < 1e-13 * np.power(np.maximum(d, np.abs(omega)), 6)
    i = np.flatnonzero(~inexact)
    phi = np.arccos(np.clip(3.0 * q[i] / (p[i] * m[i]), -1.0, 1.0)) / 3.0
    x = (m[i, None] * np.cos(phi[:, None] - 2.0 * math.pi * np.arange(3) / 3.0)
         - b[i, None] / 3.0)
    # the trig formula subtracts numbers of size |omega| and loses the root
    # nearest zero; the product of the three roots, -e, gives it back
    rows, k = np.arange(len(i)), np.argmin(np.abs(x), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # where e = 0
        x[rows, k] = np.where(e[i] != 0,
                              -e[i] / (x[rows, k - 1] * x[rows, k - 2]), 0.0)
    # next to a double root acos loses half the digits of the pair (1e-5
    # relative at a spacing of 1e-6); two Newton steps on the monic cubic
    # restore them. Its double roots lie at 0 (|omega| = d) and d (omega =
    # 0), so each root is refined in the cubic written about the nearer of
    # the two, where its terms are small: x^3 + b x^2 + c x + e, and with
    # y = x - d, y^3 + d y^2 - omega^2 y - omega^2 d cos^2 theta
    d, w = d[i, None], omega[i, None]
    cos2 = np.cos(theta[i, None]) ** 2
    near_d = ~(np.abs(x) <= np.abs(x - d))
    shift = np.where(near_d, d, 0.0)
    c2 = np.where(near_d, d, b[i, None])
    c1 = np.where(near_d, -w * w, c[i, None])
    c0 = np.where(near_d, -w * w * d * cos2, e[i, None])
    y = x - shift
    with np.errstate(divide="ignore", invalid="ignore"):  # where slope = 0
        for _ in range(2):
            slope = (3.0 * y + 2.0 * c2) * y + c1
            y = np.where(slope != 0, y - (((y + c2) * y + c1) * y + c0) / slope, y)
    roots = np.full((len(omega), 3), np.nan)
    roots[i] = np.sort(y + shift, axis=1)
    return roots, inexact


def _valid_prefix(p: RotorParams, axis: str, values: np.ndarray,
                  refused=None, guard=None):
    """The number of leading `values` at which p, swept along `axis`, is
    valid and not `refused` (a mask of the points `guard` refuses), and
    the error at the next one, if any: that `RotorParams` raises there, or
    else `guard`, called with the point. The one place a sweep's first
    refused point and its error are found."""
    bad = ~np.isfinite(values)  # RotorParams' checks of a swept value
    if axis == "theta":
        bad |= ~((0.0 <= values) & (values <= math.pi))
    if refused is not None:
        bad |= refused
    if not bad.any():
        return len(values), None
    n = int(np.argmax(bad))
    try:
        q = p.with_(**{axis: float(values[n])})
        if guard is not None:
            guard(q)
    except RotorSpinError as exc:
        return n, exc
    raise AssertionError(f"the checks accept {axis} = {values[n]!r}")


def _eigensystems(h: np.ndarray):
    """`hermitian_eigensystem` of a stack of matrices, or, where it refuses
    one, of the matrices before it; returns the eigensystems and the
    refusal, if any."""
    try:
        return hermitian_eigensystem(h), None
    except RotorSpinError as exc:
        return hermitian_eigensystem(h[:exc.index]), exc


class ZeroFieldModes(NamedTuple):
    """The exact modes at the leading points of a zero-field sweep."""

    quasi: np.ndarray    # (points, 3) ascending quasi-energies
    modes: np.ndarray    # (points, 3, 3) frame eigenvectors, one column a mode
    error: RotorSpinError | None  # that of the next point, which failed


def zero_field_modes(p: RotorParams, axis: str, values) -> ZeroFieldModes:
    """The exact modes at each point of a sweep of p without a field along
    omega or theta, in one pass, each point in the unit `model._unit` gives
    its max(d, |omega|): the roots of `_cubic_roots`, and the
    `h_interaction` eigenvectors (spin m on harmonic -m) of one stacked
    eigensolve, whose values replace the roots where the cubic is
    degenerate or marginal. Each point is checked as a single one is: its
    parameters, its levels (`_levels_overflow`), the eigensolver. The points
    from the first that fails on are not returned, and its error is
    returned, not raised, so that a caller can settle the points before it.
    """
    if p.delta != 0:
        raise InvalidArgumentError("zero_field_modes requires delta = 0")
    values = np.asarray(values, dtype=float)
    n, error = _valid_prefix(p, axis, values)
    omega = values[:n] if axis == "omega" else np.full(n, p.omega)
    overflow = _levels_overflow(p.d, 0.0, omega, 1)
    if overflow.any():
        n = int(np.argmax(overflow))
        error = NumericFailureError(
            f"zero-field levels overflow at omega = {omega[n]:.3g}")
    theta = values[:n] if axis == "theta" else np.full(n, p.theta)
    unit = _unit(p.d, omega[:n])
    unit = np.ones((n, 1, 1)) if unit is None else unit[:, None, None]
    q = _points(p, axis, values[:n])._replace(
        d=p.d / unit, omega=omega[:n, None, None] / unit)
    roots, inexact = _cubic_roots(q.d[:, 0, 0], q.omega[:, 0, 0], theta)
    es, refused = _eigensystems(_h_interaction(q))
    n = len(es.values)
    quasi = unit[:n, 0] * np.where(inexact[:n, None], es.values, roots[:n])
    return ZeroFieldModes(quasi=quasi, modes=es.vectors,
                          error=error if refused is None else refused)


#: The 3! permutations of range(3), one per row.
_PERMUTATIONS = np.array(list(permutations(range(3))))


def _best_permutation_index(score: np.ndarray):
    """Index in _PERMUTATIONS of the column assigned to each row of a 3x3
    score matrix, or of each matrix of a stack, so that the total score is
    maximal, one column per row.

    For three rows the assignment problem (Kuhn's Hungarian method) is an
    argmax over the 3! = 6 permutations; a tie goes to the first.
    """
    totals = score[..., np.arange(3), _PERMUTATIONS].sum(axis=-1)
    return np.argmax(totals, axis=-1)


def _best_permutation(score: np.ndarray) -> np.ndarray:
    """Column assigned to each row of a 3x3 score matrix, or of each
    matrix of a stack (see `_best_permutation_index`)."""
    return _PERMUTATIONS[_best_permutation_index(score)]


def _label_score(weights: np.ndarray) -> np.ndarray:
    """(label, mode) spin-character score of (mode, spin) weights, or of
    a stack of them."""
    return np.swapaxes(weights[..., [SPIN_INDEX[lab] for lab in LABELS]], -1, -2)


def _assign_labels(weights: np.ndarray) -> dict[str, int]:
    """Map each branch label to a mode index by maximizing spin-character
    weight, as a one-to-one assignment."""
    perm = _best_permutation(_label_score(weights))
    return {lab: int(perm[li]) for li, lab in enumerate(LABELS)}


def quasienergies_zero_field(p: RotorParams):
    """Labeled (quasi-energy, frame eigenvector) triples at zero field: the
    exact `auto_harmonics` modes, labeled by spin character so each branch
    connects to its slow-rotation parent level.
    """
    if p.delta != 0:
        raise InvalidArgumentError("quasienergies_zero_field requires delta = 0")
    ms = auto_harmonics(p)
    idx = _assign_labels(ms.weights)
    return [(lab, float(ms.quasi[idx[lab]]), ms.mode0[:, idx[lab]].copy())
            for lab in LABELS]


def _levels_overflow(d: float, delta, omega, n: int):
    """Whether the levels of the harmonic matrix at truncation N leave the
    float64 range, for floats or arrays: each eigenvalue lies within d +
    |delta| + (N + 3) |omega| of zero, and the difference of two must stay
    a finite number."""
    with np.errstate(over="ignore"):
        return ~np.isfinite(2.0 * (d + np.abs(delta) + (n + 3) * np.abs(omega)))


def _harmonic_guard(p: RotorParams, n: int) -> None:
    """Raise where the harmonic matrix of p cannot be built at truncation
    N: without a drive period (`period_guard`, for N > 0), or where its
    levels leave the float64 range (`_levels_overflow`)."""
    if n:
        period_guard(p)
    if _levels_overflow(p.d, p.delta, p.omega, n):
        raise NumericFailureError(
            f"harmonic matrix at N = {n} overflows at omega = {p.omega:.3g}, "
            f"delta = {p.delta:.3g}")


def _harmonic_matrices(static: np.ndarray, drive: np.ndarray, omega: np.ndarray,
                       n: int) -> np.ndarray:
    """The block-tridiagonal harmonic matrices of a stack of points, from
    their static parts, drive amplitudes and rotation frequencies: diagonal
    blocks static + k omega for k = -N..N, off-diagonal blocks the drive."""
    k = np.arange(2 * n + 1)
    f = np.zeros((len(static), 2 * n + 1, 3, 2 * n + 1, 3), dtype=static.dtype)
    shift = (k - n)[:, None, None] * omega[:, None, None, None] * np.eye(3)
    f[:, k, :, k, :] = (static[:, None] + shift).swapaxes(0, 1)
    f[:, k[1:], :, k[:-1], :] = drive.conj().swapaxes(1, 2)
    f[:, k[:-1], :, k[1:], :] = drive
    return f.reshape(len(static), 3 * (2 * n + 1), 3 * (2 * n + 1))


def floquet_matrix(p: RotorParams, n_harmonics: int) -> np.ndarray:
    """Block-tridiagonal harmonic-expansion matrix of the driven problem.

    Diagonal blocks are the static component shifted by n*omega for
    n = -N..N; off-diagonal blocks carry the single-harmonic drive. N = 0,
    the static component alone, needs no drive period.
    """
    n = int(n_harmonics)
    if n < 0:
        raise InvalidArgumentError("n_harmonics must be >= 0")
    _harmonic_guard(p, n)
    return _harmonic_matrices(static_part(p)[None], drive_amplitude(p)[None],
                              np.array([p.omega]), n)[0]


class ModeSet(NamedTuple):
    """The three physical drive modes at one parameter point."""

    quasi: np.ndarray        # the eigenvalue of each mode's harmonic vector
    fourier: np.ndarray      # (blocks, 3, modes), blocks centred on k = 0
    weights: np.ndarray      # (modes, 3) time-averaged spin weights
    mode0: np.ndarray        # (3, modes) normalized state at t = 0
    n_harmonics: int         # truncation N, 0 wherever the modes are exact
    edge_weight: float       # largest weight of a mode on the blocks k = +-N


#: the most bytes of harmonic matrices one stacked eigensolve takes (a
#: larger matrix is solved alone), so that a sweep's solves hold a few
#: times this in memory whatever its length
STACK_BYTES = 1 << 16


def _columns(vecs: np.ndarray, pick: np.ndarray, phase, n: int):
    """The columns `pick` of each eigenvector matrix of a stack, mode by
    mode (point, mode, row), their harmonic blocks each times its phase
    (point, mode, harmonic, spin), and their t = 0 states, the sums of
    those blocks (point, spin, mode), with the norms of the states."""
    v = vecs.swapaxes(1, 2)[np.arange(len(pick))[:, None], pick]
    c = v.reshape(len(v), len(pick[0]), 2 * n + 1, 3)
    if phase is not None:
        c = c * phase[:, None]
    t0 = c.sum(axis=2).swapaxes(1, 2)
    return v, c, t0, np.sqrt((t0.conj() * t0).real.sum(axis=1))


def _pick(vals: np.ndarray, vecs: np.ndarray, omega: np.ndarray, order,
          phase, n: int):
    """Columns of the three drive modes at each point of a stack of
    harmonic eigensystems, whose columns `order` ranks, and a mask of the
    points that have three.

    Point by point, the columns are visited in that order and the first
    three are kept that are neither null at t = 0 nor a harmonic copy of
    a column already kept: a copy shares the folded quasi-energy (within
    1e-6 |omega|) and the t = 0 state (an overlap above 0.99), so it would
    shadow a genuine third mode.
    """
    pick, found = np.zeros((len(vals), 3), dtype=int), np.zeros(len(vals), bool)
    _, _, states, norms = _columns(vecs, order, phase, n)
    for i, w in enumerate(np.abs(omega).tolist()):
        kept = []
        for j in range(order.shape[1]):
            if norms[i, j] < 1e-8 or any(
                    _separation(vals[i, order[i, j]], vals[i, order[i, k]], w)
                    < 1e-6 * w
                    and abs(np.vdot(states[i, :, k], states[i, :, j]))
                    / (norms[i, k] * norms[i, j]) > 0.99
                    for k in kept):
                continue
            kept.append(j)
            if len(kept) == 3:
                pick[i], found[i] = order[i, kept], True
                break
    return pick, found


def _solve_harmonics(q: _Points, omega: np.ndarray, n: int, phase):
    """The three drive modes of each point of the stack q, whose rotation
    frequencies are `omega`, at truncation N, as `physical_modes` documents
    them; stacked eigensolves of at most STACK_BYTES each. Returns (quasi,
    fourier, weights, mode0, edge weight), stacked, and a mask of the
    points where three distinct modes were found.

    The columns are ranked by their weight on the central harmonic block.
    The three leading ones are the modes unless one has a null t = 0 state
    or two share a folded quasi-energy (within 1e-6 |omega|); only those
    points are picked one at a time by `_pick`.

    Each point is solved in its unit (`model._unit`), which the eigensolver
    does not rescale by a factor that rounds, so the modes scale with d.
    """
    m, dim = len(omega), 3 * (2 * n + 1)
    unit = _unit(q.d, q.delta, omega[:, None, None])
    if unit is not None:
        q = q._replace(d=q.d / unit, delta=q.delta / unit, omega=q.omega / unit)
        omega, unit = omega / unit.ravel(), unit.reshape(m, 1)
    static = _static_part(q).real
    drive = _drive_amplitude(q._replace(phi0=0.0)).real
    if drive.shape != static.shape:  # along delta the drive is fixed
        drive = np.broadcast_to(drive, static.shape)
    chunk = max(1, STACK_BYTES // (8 * dim * dim))
    quasi, found = np.empty((m, 3)), np.ones(m, dtype=bool)
    fourier = np.empty((m, 3, 2 * n + 1, 3), float if phase is None else complex)
    mode0 = np.empty((m, 3, 3), fourier.dtype)
    for lo in range(0, m, chunk):
        at = slice(lo, lo + chunk)
        f = _harmonic_matrices(static[at], drive[at], omega[at], n)
        vals, vecs = np.linalg.eigh(f)
        order = np.argsort((vecs[:, 3 * n:3 * n + 3] ** 2).sum(axis=1))[:, ::-1]
        v, c, t0, norms = _columns(vecs, order[:, :3], phase, n)
        level = vals[np.arange(len(vals))[:, None], order[:, :3]]
        w = np.abs(omega[at])[:, None]
        odd = ((_separation(level[:, [1, 2, 2]], level[:, [0, 0, 1]], w) < 1e-6 * w)
               .any(axis=1) | (norms < 1e-8).any(axis=1))
        if odd.any():
            rows, ok = np.flatnonzero(odd), found[at]  # a view of found
            again, ok[rows] = _pick(vals[rows], vecs[rows], omega[at][rows],
                                    order[rows], phase, n)
            v[rows], c[rows], t0[rows], norms[rows] = _columns(vecs[rows], again,
                                                               phase, n)
            norms[~ok] = 1.0  # no three modes, and none is read
        a = v.swapaxes(1, 2)
        quasi[at] = (np.einsum("pim,pim->pm", a, f @ a)
                     / np.einsum("pim,pim->pm", a, a))
        fourier[at], mode0[at] = c, t0 / norms[:, None]
    if unit is not None:
        quasi *= unit
    fourier = fourier.transpose(0, 2, 3, 1)
    power = np.abs(fourier) ** 2
    weights = power.sum(axis=1).swapaxes(1, 2)  # (mode, spin)
    weights = weights / weights.sum(axis=2, keepdims=True)
    edge = power[:, [0, -1]].sum(axis=(1, 2)).max(axis=1)
    return (quasi, fourier, weights, mode0, edge), found


def _phase(phi0: float, n: int):
    """The phase e^{ik phi0} of harmonic block k = -N..N, phi0 reduced to
    (-pi, pi] as the drive amplitude sees it; None at phi0 = 0."""
    if phi0 == 0:
        return None
    return np.exp(1j * np.angle(np.exp(1j * phi0)) * np.arange(-n, n + 1))


def physical_modes(p: RotorParams, n_harmonics: int) -> ModeSet:
    """Diagonalize the truncated harmonic matrix and pick the three modes
    carrying the most weight in the central harmonic block.

    The matrix is solved at phi0 = 0, where it is real symmetric. A nonzero
    phi0 only shifts the time origin: F(phi0) = D F(0) D^H with D the
    phase e^{ik phi0} on harmonic block k, so the eigenvalues serve every
    phi0 and block k of each eigenvector takes that phase, with phi0 reduced
    to (-pi, pi] as the drive amplitude sees it. Each quasi-energy is the
    Rayleigh quotient v^T F v / v^T v of its picked eigenvector v, unfolded.
    A one-point solve of the batch behind `field_modes`.
    """
    n = int(n_harmonics)
    if n < 0:
        raise InvalidArgumentError("n_harmonics must be >= 0")
    _harmonic_guard(p, n)
    if n == 0:
        fold(0.0, p.omega)  # the pick compares quasi-energies modulo omega
    modes, found = _solve_harmonics(_points(p, "omega", [p.omega]),
                                    np.array([p.omega]), n, _phase(p.phi0, n))
    if not found[0]:
        raise NumericFailureError(
            "could not isolate three distinct drive modes; raise the truncation"
        )
    quasi, fourier, weights, mode0, edge = (a[0] for a in modes)
    return ModeSet(quasi=quasi, fourier=fourier, weights=weights, mode0=mode0,
                   n_harmonics=n, edge_weight=float(edge))


#: edge-weight bound of outputs read from quasi-energies and time-averaged
#: spin weights, whose truncation error is second order in the edge amplitude
EDGE_WEIGHT_LEVELS = 1e-14
#: edge-weight bound of outputs read from the mode vectors along the period,
#: whose error is first order in it: an edge amplitude of at most 1e-14
EDGE_WEIGHT_STATES = 1e-28
_N_MAX = 512


def _n_start(theta: float, edge_weight_max: float) -> int:
    """Smallest N >= 1 with ((sin(theta) / 2)^N / N!)^2 <= edge_weight_max /
    100. The drive over the harmonic spacing is sin(theta) / 2 <= 1/2 at any
    omega, so harmonic weights fall off like a Bessel series (Shirley, Phys.
    Rev. 138, B979, 1965); this is that estimate of the weight at k = +-N."""
    x = math.sin(theta) / 2.0
    n, amplitude = 1, x
    while amplitude * amplitude > edge_weight_max / 100.0:
        n += 1
        amplitude *= x / n
    return n


class FieldModes(NamedTuple):
    """The modes `auto_harmonics` finds at each leading point of a sweep."""

    quasi: np.ndarray        # (points, 3), see ModeSet
    fourier: list            # per point, (blocks, 3, modes)
    weights: np.ndarray      # (points, modes, 3)
    mode0: np.ndarray        # (points, 3, modes), complex
    n_harmonics: np.ndarray  # (points,)
    edge_weight: np.ndarray  # (points,)
    error: RotorSpinError | None  # that of the next point, which failed


def field_modes(p: RotorParams, axis: str, values,
                edge_weight_max: float = EDGE_WEIGHT_LEVELS) -> FieldModes:
    """The modes of `auto_harmonics` at each point of a sweep of p along
    omega, theta or delta, in one batch; the only way into the harmonic
    route.

    Points at omega = 0 take one stacked static eigensolve, points at
    delta = 0 the `zero_field_modes` batch. The others share the harmonic
    solve: the points still to solve are held by truncation N, starting at
    the Bessel estimate of `_n_start`; each pass solves those at the
    smallest N as stacks of real phi0 = 0 matrices, their modes picked and
    certified on arrays, and the points whose edge weight exceeds
    `edge_weight_max` wait at 2N, up to N = 512. Each pass applies the
    rules of `_harmonic_guard` to its points on arrays, so each point meets
    the checks a single one meets, in the same order; the points from the
    first that fails on are neither solved further nor returned, and its
    error is returned, not raised, as by `zero_field_modes`.
    """
    if not 0.0 < edge_weight_max < 1.0:
        raise InvalidArgumentError(
            f"edge_weight_max must lie in (0, 1), got {edge_weight_max!r}")
    values = np.asarray(values, dtype=float)
    n, error = _valid_prefix(p, axis, values)
    values = values[:n]
    omega = values if axis == "omega" else np.full(n, p.omega)
    delta = values if axis == "delta" else np.full(n, p.delta)
    q = _points(p, axis, values)
    # each route writes the modes of its points here
    quasi, weights = np.empty((n, 3)), np.empty((n, 3, 3))
    mode0, fourier = np.empty((n, 3, 3), dtype=complex), [None] * n
    n_harmonics, edge = np.zeros(n, dtype=int), np.zeros(n)

    def fail(i: int, exc: RotorSpinError) -> None:
        nonlocal n, error
        if i < n:
            n, error = i, exc

    def put(at, quasi_at, fourier_at, weights_at, mode0_at, edge_at=0.0, nh=0):
        quasi[at], weights[at], mode0[at] = quasi_at, weights_at, mode0_at
        edge[at], n_harmonics[at] = edge_at, nh
        for i, c in zip(at.tolist(), fourier_at):
            fourier[i] = c

    harm = (omega != 0) & (delta != 0)
    if not harm.all():  # the exact routes
        static = np.flatnonzero(omega == 0)
        if static.size:
            es, refused = _eigensystems(_static_part(q.take(static)))
            if refused is not None:
                fail(int(static[refused.index]), refused)
            put(static[:len(es.values)], es.values, es.vectors[:, None],
                (np.abs(es.vectors) ** 2).swapaxes(1, 2), es.vectors)
        zero = np.flatnonzero((omega != 0) & (delta == 0))
        if zero.size:
            zf = (zero_field_modes(p.with_(delta=0.0), "omega", omega[zero])
                  if axis == "delta" else zero_field_modes(p, axis, values[zero]))
            if zf.error is not None:
                fail(int(zero[len(zf.quasi)]), zf.error)
            put(zero[:len(zf.quasi)], zf.quasi,
                np.eye(3)[:, :, None] * zf.modes[:, None],
                (np.abs(zf.modes) ** 2).swapaxes(1, 2), zf.modes)
    harm = np.flatnonzero(harm[:n])

    if axis == "theta":
        start = np.array([_n_start(t, edge_weight_max)
                          for t in values[harm].tolist()], dtype=int)
        todo = {t: harm[start == t] for t in set(start.tolist())}
    else:
        todo = {_n_start(p.theta, edge_weight_max): harm} if harm.size else {}
    while todo:
        nh = min(todo)
        at = todo.pop(nh)
        if nh > _N_MAX:
            fail(int(at[0]), NumericFailureError(
                f"harmonic truncation did not converge below N = {_N_MAX}"))
            continue
        # the rules of `_harmonic_guard`, on arrays
        k, exc = _valid_prefix(p, axis, values[at], without_period(p, axis, values[at])
                               | _levels_overflow(p.d, delta[at], omega[at], nh),
                               lambda point: _harmonic_guard(point, nh))
        if exc is not None:
            fail(int(at[k]), exc)
        at = at[at < n]
        if not at.size:
            continue
        modes, found = _solve_harmonics(q if len(at) == len(values) else q.take(at),
                                        omega[at], nh, _phase(p.phi0, nh))
        if not found.all():
            fail(int(at[np.argmin(found)]), NumericFailureError(
                "could not isolate three distinct drive modes; raise the "
                "truncation"))
        # a point not yet certified is written again at 2N, or ends past n
        put(at, *modes, nh=nh)
        later = at[modes[4] > edge_weight_max]
        if later.size:
            todo[2 * nh] = (np.sort(np.concatenate((todo[2 * nh], later)))
                            if 2 * nh in todo else later)
    return FieldModes(quasi=quasi[:n], fourier=fourier[:n], weights=weights[:n],
                      mode0=mode0[:n], n_harmonics=n_harmonics[:n],
                      edge_weight=edge[:n], error=error)


def auto_harmonics(p: RotorParams,
                   edge_weight_max: float = EDGE_WEIGHT_LEVELS) -> ModeSet:
    """Drive modes at the first truncation N, 2N, 4N, ... (up to 512) at
    which each of the three picked modes puts at most `edge_weight_max` of
    its weight on the edge blocks k = +-N; `edge_weight` of the result is
    that certificate. N starts at the Bessel estimate of `_n_start`. Callers
    pass EDGE_WEIGHT_LEVELS for quasi-energies and time-averaged weights,
    EDGE_WEIGHT_STATES for anything read from the modes along the period.
    The modes are exact, with n_harmonics 0 and edge weight 0, at omega = 0
    (the static eigensystem, one harmonic each) and at delta = 0 (a
    one-point `zero_field_modes`). A one-point `field_modes` at every p,
    which raises the error that batch returns."""
    fm = field_modes(p, "omega", [p.omega], edge_weight_max)
    if fm.error is not None:
        raise fm.error
    return ModeSet(quasi=fm.quasi[0], fourier=fm.fourier[0],
                   weights=fm.weights[0], mode0=fm.mode0[0],
                   n_harmonics=int(fm.n_harmonics[0]),
                   edge_weight=float(fm.edge_weight[0]))


class SpectrumBranch(NamedTuple):
    label: str
    quasienergy: np.ndarray   # unfolded slope-rule representative per point
    mode0: np.ndarray         # (points, 3) frame state at t = 0


class QuasiSpectrum(NamedTuple):
    axis_name: str
    axis_values: np.ndarray
    branches: tuple[SpectrumBranch, SpectrumBranch, SpectrumBranch]
    truncation: int           # largest n_harmonics met, 0 if none was solved
    edge_weight: float        # largest edge weight met (see ModeSet)
    tracking_overlap_min: float  # worst t = 0 state overlap a branch kept

    def branch(self, label: str) -> SpectrumBranch:
        for b in self.branches:
            if b.label == label:
                return b
        raise KeyError(label)


def _slope_targets(p_template: RotorParams, axis: str, values: np.ndarray):
    """Slope-rule targets (points, 3) in LABELS order of the points of a
    sweep, from one stacked eigensolve of their `static_part`: the level
    each label takes by spin character plus its slope-rule harmonic shift.
    Also returns the index of that level per label, and the number of
    leading points solved with the error of the next one, if any."""
    es, error = _eigensystems(_static_part(_points(p_template, axis, values)))
    n = len(es.values)
    labels = _best_permutation(_label_score((np.abs(es.vectors) ** 2).swapaxes(1, 2)))
    omega = values[:n] if axis == "omega" else np.full(n, p_template.omega)
    slope = np.array([SLOPE[lab] for lab in LABELS])
    targets = np.take_along_axis(es.values, labels, axis=1) + slope * omega[:, None]
    return targets, labels, n, error


def quasienergy_spectrum(
    p_template: RotorParams,
    axis: str,
    values,
) -> QuasiSpectrum:
    """Three continuously tracked quasi-energy branches along a sweep axis.

    One tracker serves every sweep, on arrays: the modes come from one
    `zero_field_modes` batch without a field, from one `field_modes` batch
    with one (along delta, or at delta != 0), and the slope-rule targets
    from one stacked eigensolve of the static parts. Branches follow the
    largest overlap of the t = 0 states from point to point. With a field
    every point with omega != 0 is unfolded by one rule, the exact modes at
    delta = 0 included: a branch keeps its offset from its slope-rule
    target, taking the copy nearest the target plus the offset at the
    previous unfolded point (nearest the target itself at the first), which
    draws the fan of levels from the zero-rotation eigenvalues. The first
    point that fails, in axis order, raises. `tracking_overlap_min` is the
    smallest overlap a branch kept from one point to the next; below 0.5
    tracking fails.
    """
    if axis not in AXIS_NAMES:
        raise InvalidArgumentError(f"unknown sweep axis {axis!r}")
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) < 2:
        raise InvalidArgumentError("sweep needs at least 2 axis values")
    if np.any(np.diff(values) <= 0):
        raise InvalidArgumentError("axis values must be strictly ascending")
    if axis == "omega" and p_template.delta != 0 and values[0] <= 0 <= values[-1]:
        # the copy spacing |omega| of the quasi-energies shrinks to 0 there,
        # so the unfolded copy a branch continues to would depend on the grid
        raise TrackingError(
            "a field sweep along omega cannot reach or cross omega = 0; "
            "sweep each rotation direction separately"
        )

    field = axis == "delta" or p_template.delta != 0
    if field:
        fm = field_modes(p_template, axis, values, EDGE_WEIGHT_LEVELS)
        quasi, modes, weights, error = fm.quasi, fm.mode0, fm.weights, fm.error
        n_max = int(fm.n_harmonics.max(initial=0))
        edge_max = float(fm.edge_weight.max(initial=0.0))
        # the points are unfolded where omega != 0: every point, or none
        if len(quasi) and (axis == "omega" or p_template.omega):
            targets, labels, n, static_error = _slope_targets(
                p_template, axis, values[:len(quasi)])
            if static_error is not None:
                quasi, modes, weights = quasi[:n], modes[:n], weights[:n]
                error = static_error
    else:
        quasi, modes, error = zero_field_modes(p_template, axis, values)
        weights = (np.abs(modes) ** 2).swapaxes(1, 2)
        targets, n_max, edge_max = None, 0, 0.0
    n = len(quasi)
    if n == 0:
        raise error
    # the quasi-energies of a point with a field have copies |omega| apart;
    # the levels without a field have none
    omega = values[:n] if axis == "omega" else np.full(n, p_template.omega)
    width = np.abs(omega) if field else np.zeros(n)

    # refuse to start labeling inside an avoided crossing: branches must be
    # separable either by energy or by near-pure spin character
    gap = _separation(quasi[0, [0, 0, 1]], quasi[0, [1, 2, 2]], width[0]).min()
    if gap < 1e-6 * p_template.d and weights[0].max(axis=1).min() < 0.99:
        raise TrackingError(
            "sweep starts inside a gap: branches not separable at the first point"
        )
    # |<mode a at point i - 1 | mode b at point i>|, then the best
    # assignment at point i after each order of the branches at i - 1, so
    # that following the branches is a lookup per point
    raw = np.abs(modes[:-1].conj().swapaxes(1, 2) @ modes[1:])
    best = _best_permutation_index(raw[:, _PERMUTATIONS]).tolist()
    order = [int(_best_permutation_index(_label_score(weights[0])))]
    for after in best:
        order.append(after[order[-1]])
    perm = _PERMUTATIONS[order]  # (point, branch) mode of each branch
    worst = raw[np.arange(n - 1)[:, None], perm[:-1], perm[1:]].min(axis=1)
    reps = np.take_along_axis(quasi, perm, axis=1)
    offset = np.zeros(3)  # representative minus slope-rule target
    for i in np.flatnonzero(width).tolist():
        reps[i] += np.round((targets[i] + offset - reps[i]) / width[i]) * width[i]
        offset = reps[i] - targets[i]

    # continuity: from the third point on, no branch moves by more than 10
    # steps of its last slope, or of min_slope where that is larger; a
    # slope along omega or delta is a pure number, one along theta a
    # frequency
    min_slope = 1.5 if axis != "theta" else abs(p_template.omega) + p_template.d
    step = np.diff(values[:n])[:, None]
    move = np.abs(np.diff(reps, axis=0))
    bound = 10.0 * step[1:] * np.maximum(move[:-1] / step[:-1], min_slope)
    # the first point that fails raises; at one point a lost branch first
    lost = (np.flatnonzero(worst < 0.5) + 1).tolist()
    jump = (np.flatnonzero(np.any(move[1:] > bound, axis=1)) + 2).tolist()
    if lost and (not jump or lost[0] <= jump[0]):
        i = lost[0]
        raise TrackingError(
            f"branch tracking lost between {axis} = {values[i - 1]:.6g} and "
            f"{values[i]:.6g} (max overlap {worst[i - 1]:.3f}); use a finer grid")
    if jump:
        a, b = values[jump[0] - 1], values[jump[0]]
        # the static levels labeled m-1 and m+1 at a take each other's
        # labels at b: their slope-rule targets jump, and no grid resolves
        # that (by symmetry where the S_z coefficient passes zero)
        if width[jump[0]] and (labels[jump[0] - 1, [0, 2]]
                               == labels[jump[0], [2, 0]]).all():
            raise TrackingError(
                f"branch continuity violated near {axis} = {b:.6g}: the "
                f"slope-rule labels of m-1 and m+1 swap between {axis} = "
                f"{a:.6g} and {b:.6g}, where omega (1 - cos theta) - delta "
                "cos theta passes zero; no finer grid avoids this")
        raise TrackingError(
            f"branch continuity violated near {axis} = {b:.6g}; use a finer grid")
    if error is not None:
        raise error
    modes = np.take_along_axis(modes, perm[:, None, :], axis=2).swapaxes(1, 2)
    branches = tuple(
        SpectrumBranch(label=lab, quasienergy=reps[:, b].copy(),
                       mode0=modes[:, b, :].copy())
        for b, lab in enumerate(LABELS)
    )
    return QuasiSpectrum(axis_name=axis, axis_values=values.copy(),
                         branches=branches, truncation=n_max, edge_weight=edge_max,
                         tracking_overlap_min=float(worst.min(initial=1.0)))


class CrossingReport(NamedTuple):
    omega_res: float
    gap: float
    branch_pair: tuple[str, str]


def _pair_members(p: RotorParams,
                  pair: tuple[str, str]) -> tuple[float, np.ndarray]:
    """Separation of the branch pair and the pair-spin weights of its two
    members at a single parameter point.

    The spectator branch is the one with dominant weight on the third spin
    component; the remaining two modes form the pair. Rows of the returned
    (2, 2) weight array are the lower and the upper member by quasi-energy,
    columns the weights on the two pair spins. Each member's
    min(weight_i, weight_j) peaks (with a corner) where that member is an
    equal superposition of the crossing levels.
    """
    ms = auto_harmonics(p, EDGE_WEIGHT_LEVELS)
    width = abs(p.omega) if p.delta else 0.0
    i, j = SPIN_INDEX[pair[0]], SPIN_INDEX[pair[1]]
    spec_spin = ({0, 1, 2} - {i, j}).pop()
    spectator = int(np.argmax(ms.weights[:, spec_spin]))
    a, b = (k for k in range(3) if k != spectator)
    sep = _separation(ms.quasi[a], ms.quasi[b], width)
    rise = ms.quasi[b] - ms.quasi[a]
    b_above = rise % width <= width / 2 if width else rise >= 0
    members = [a, b] if b_above else [b, a]
    return sep, ms.weights[np.ix_(members, [i, j])]


def _strongest_equal_mixing(members, xs, xtol: float):
    """Equal-superposition point of the more strongly mixed pair member.

    `members(x)` returns the pair separation and (2, 2) member weights as
    `_pair_members` does; it is read at the ascending samples `xs`, at every
    Brent step and at each root, so callers cache it to solve no point
    twice. Each member's weight difference is solved for a root by Brent's
    method between adjacent samples where it changes sign, and the root
    with the larger mixing min(weight_i, weight_j) is kept. Returns
    (x, separation, weight difference of the kept member) there, or None
    when no member changes sign.
    """
    def weight_diff(x: float, member: int) -> float:
        w = members(x)[1][member]
        return w[0] - w[1]

    diff = np.array([[weight_diff(x, m) for m in (0, 1)] for x in xs])
    peaks = []
    for m in (0, 1):
        for k in range(len(xs) - 1):
            if diff[k, m] * diff[k + 1, m] <= 0:
                x = brent_root(lambda t: weight_diff(t, m), xs[k], xs[k + 1],
                               xtol)
                sep, w = members(x)
                peaks.append((float(w.min(axis=1).max()), float(x), float(sep),
                              float(w[m, 0] - w[m, 1])))
    if not peaks:
        return None
    return max(peaks)[1:]


def avoided_crossing(
    p_template: RotorParams,
    branch_pair: tuple[str, str],
    window: tuple[float, float],
    axis: str = "omega",
    points: int = 129,
) -> CrossingReport:
    """Locate an avoided crossing of two branches inside a parameter window.

    The window is scanned for an interior minimum of the pair separation;
    the crossing center is then refined as the point of maximal branch
    mixing, where the two states are equal superpositions of the crossing
    levels. Each pair member is an equal superposition at its own point;
    both are found as roots and the one with the larger mixing is kept.
    The reported gap is the pair separation at that center.
    """
    if axis not in AXIS_NAMES:
        raise InvalidArgumentError(f"unknown crossing axis {axis!r}")
    for lab in branch_pair:
        if lab not in LABELS:
            raise InvalidArgumentError(f"unknown branch label {lab!r}")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise InvalidArgumentError("window must satisfy lo < hi")
    if not isinstance(points, (int, np.integer)) or points < 3:
        raise InvalidArgumentError(f"points must be an integer >= 3, got {points!r}")

    @cache
    def members(x: float) -> tuple[float, np.ndarray]:
        return _pair_members(p_template.with_(**{axis: float(x)}), branch_pair)

    xs = np.linspace(lo, hi, points)
    seps = np.empty(points)
    weights = np.empty((points, 2, 2))
    for k, x in enumerate(xs):
        seps[k], weights[k] = members(x)
    mix = weights.min(axis=2).max(axis=1)
    imin = int(np.argmin(seps))
    if imin in (0, points - 1):
        raise NoCrossingError(
            f"no interior separation minimum of {branch_pair} in "
            f"[{lo:.6g}, {hi:.6g}]"
        )
    if mix.max() < 0.02:
        raise NoCrossingError(
            f"branches {branch_pair} do not mix in the window (exact crossing "
            "or no coupling)"
        )

    # Each member's mixing peaks where its two weights are equal, and the two
    # peaks can lie closer together than the scan step. Both are located as
    # roots of the weight difference near the scanned maximum, and the
    # higher one is kept, so the nearby lower peak cannot capture the search.
    imix = int(np.argmax(mix))
    k0, k1 = max(0, imix - 3), min(points - 1, imix + 3)
    # the tolerance in the axis' own unit: d along omega or delta
    unit = 1.0 if axis == "theta" else p_template.d
    found = _strongest_equal_mixing(members, xs[k0:k1 + 1],
                                    xtol=1e-10 * max(unit, abs(xs[imix])))
    if found is None:
        raise NoCrossingError(
            f"branches {branch_pair} reach no equal mixing near the mixing "
            "maximum"
        )
    center, gap, _ = found
    return CrossingReport(omega_res=center, gap=gap,
                          branch_pair=(branch_pair[0], branch_pair[1]))
