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
eigensolve, the modes picked and certified on arrays; a single point is a
batch of one. One tracker follows the branches of every sweep, from
either kind of modes, on arrays. The matrix is real symmetric at phi0 = 0
and one solve there serves every phi0, which only phases the harmonic
blocks of the eigenvectors, so the quasi-energies do not depend on phi0.
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
from .model import (RotorParams, _drive_amplitude, _points, _Points,
                    _static_part, drive_amplitude, h_interaction, period_guard,
                    static_part)
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


def _circ_dist(a: float, b: float, width: float) -> float:
    """Distance between two quasi-energies modulo the spacing `width` of
    their copies, or the plain distance when the width is 0 (no copies)."""
    if width == 0:
        return abs(a - b)
    d = (a - b) % width
    return min(d, width - d)


def cubic_quasienergies(d: float, omega: float, theta: float) -> np.ndarray:
    """Three real quasi-energies at zero field, ascending: the cubic roots
    of a one-point `zero_field_modes` (see `_cubic_roots`), or the
    eigensolver's values where the cubic is degenerate or marginal."""
    p = RotorParams(d=d, omega=omega, theta=theta)  # validates the inputs
    zf = zero_field_modes(p, "omega", [p.omega])
    if zf.error is not None:
        raise zf.error
    return zf.quasi[0]


def _python_pow(x: np.ndarray, k: int) -> np.ndarray:
    """x ** k of each value as Python's float power computes it (numpy's
    power rounds some values differently), inf where that overflows."""
    out = []
    for v in x.tolist():
        try:
            out.append(v ** k)
        except OverflowError:
            out.append(math.inf)
    return np.array(out, dtype=float)


def _cubic_roots(d: float, omega: np.ndarray, theta: np.ndarray):
    """The three real roots, ascending, of the characteristic cubic of the
    frame Hamiltonian at each point (omega, theta) of a sweep, by the
    trigonometric method, each refined by two Newton steps.

    Returns the (points, 3) roots, a mask of the points where the cubic is
    degenerate or marginal or its terms underflow, whose roots are NaN and
    left to the eigensolver, and a mask of the points where it overflows
    (at a huge d as at a huge |omega|). Each float operation is the one a
    single point would take; the powers, sines and arccosines are
    Python's, point by point, since numpy's round some values differently.
    """
    b = -2.0 * d
    thetas = theta.tolist()
    # a point that overflows, or whose terms leave the float64 range, is
    # masked; its infinities and NaNs are not read
    with np.errstate(all="ignore"):
        c = -(omega * omega - d * d)
        e = omega * omega * d * np.array([math.sin(t) ** 2 for t in thetas])
        p = c - b * b / 3.0
        q = e - b * c / 3.0 + 2.0 * _python_pow(np.array([b]), 3) / 27.0
        p3 = _python_pow(p, 3)
        scale = _python_pow(np.maximum(d, np.abs(omega)), 6)
        # a float power raises where the result overflows, not where its
        # input is already infinite
        overflow = np.isinf(scale) | (np.isinf(p3) & np.isfinite(p))
        disc = -4.0 * p3 - 27.0 * q * q
        m = 2.0 * np.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        # degenerate or marginal, or p m underflows: diagonalize instead
        inexact = (overflow | (disc < 1e-13 * scale) | (p >= 0.0)
                   | ~np.isfinite(arg))
    i = np.flatnonzero(~inexact)
    arg = np.clip(arg[i], -1.0, 1.0).tolist()
    phi = np.array([math.acos(a) for a in arg]) / 3.0
    x = (m[i, None] * np.cos(phi[:, None] - 2.0 * math.pi * np.arange(3) / 3.0)
         - b / 3.0)
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
    w = omega[i, None]
    cos2 = np.array([math.cos(thetas[j]) ** 2 for j in i.tolist()])[:, None]
    near_d = ~(np.abs(x) <= np.abs(x - d))
    shift = np.where(near_d, d, 0.0)
    c2 = np.where(near_d, d, b)
    c1 = np.where(near_d, -w * w, c[i, None])
    c0 = np.where(near_d, -w * w * d * cos2, e[i, None])
    y = x - shift
    with np.errstate(divide="ignore", invalid="ignore"):  # where slope = 0
        for _ in range(2):
            slope = (3.0 * y + 2.0 * c2) * y + c1
            y = np.where(slope != 0, y - (((y + c2) * y + c1) * y + c0) / slope, y)
    roots = np.full((len(omega), 3), np.nan)
    roots[i] = np.sort(y + shift, axis=1)
    return roots, inexact, overflow


def _valid_prefix(p: RotorParams, axis: str, values: np.ndarray):
    """The number of leading `values` at which p, swept along `axis`, is
    valid, and the error `RotorParams` raises at the next one, if any."""
    ok = np.isfinite(values)  # RotorParams' checks of a swept value
    if axis == "theta":
        ok &= (0.0 <= values) & (values <= math.pi)
    if ok.all():
        return len(values), None
    n = int(np.argmin(ok))
    try:
        p.with_(**{axis: float(values[n])})
    except InvalidArgumentError as exc:
        return n, exc
    raise AssertionError(f"RotorParams accepts {axis} = {values[n]!r}")


class ZeroFieldModes(NamedTuple):
    """The exact modes at the leading points of a zero-field sweep."""

    quasi: np.ndarray    # (points, 3) ascending quasi-energies
    modes: np.ndarray    # (points, 3, 3) frame eigenvectors, one column a mode
    error: RotorSpinError | None  # that of the next point, which failed


def zero_field_modes(p: RotorParams, axis: str, values) -> ZeroFieldModes:
    """The exact modes at each point of a sweep of p without a field along
    omega or theta, in one pass: the cubic roots of `_cubic_roots` on
    arrays, and the `h_interaction` eigenvectors (spin m on harmonic -m)
    from one stacked eigensolve, whose values replace the roots where the
    cubic is degenerate or marginal. Each point is checked as a single one
    is: its parameters, then the cubic's overflow, then the eigensolver.
    The points from the first that fails on are not returned, and its
    error is returned, not raised, so that a caller can settle the points
    before it first.
    """
    if p.delta != 0:
        raise InvalidArgumentError("zero_field_modes requires delta = 0")
    values = np.asarray(values, dtype=float)
    n, error = _valid_prefix(p, axis, values)
    omega = values[:n] if axis == "omega" else np.full(n, p.omega)
    theta = values[:n] if axis == "theta" else np.full(n, p.theta)
    roots, inexact, overflow = _cubic_roots(p.d, omega, theta)
    if overflow.any():
        n = int(np.argmax(overflow))
        # the cubic first: it refuses an |omega| whose frame matrix overflows
        error = NumericFailureError(
            f"zero-field cubic overflows at omega = {omega[n]:.3g}")
    h = h_interaction(p, axis, values[:n])
    try:
        es = hermitian_eigensystem(h)
    except RotorSpinError as exc:
        n, error = exc.index, exc
        es = hermitian_eigensystem(h[:n])
    quasi = np.where(inexact[:n, None], es.values, roots[:n])
    return ZeroFieldModes(quasi=quasi, modes=es.vectors, error=error)


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


def _harmonic_guard(p: RotorParams, n: int) -> None:
    """Raise where the harmonic matrix of p cannot be built at truncation
    N: without a drive period (`period_guard`, for N > 0), or where its
    levels leave the float64 range."""
    if n:
        period_guard(p)
    # each eigenvalue lies within d + |delta| + (N + 3) |omega| of zero, and
    # the difference of two must stay a finite number
    if not math.isfinite(2.0 * (p.d + abs(p.delta) + (n + 3) * abs(p.omega))):
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


@cache
def _pairs(window: int) -> tuple[np.ndarray, np.ndarray]:
    """Each of `window` candidates against each earlier one, in the order
    (1, 0), (2, 0), (2, 1), (3, 0), ..."""
    return np.tril_indices(window, -1)


def _columns(vecs: np.ndarray, pick: np.ndarray, phase, n: int):
    """The columns `pick` of each eigenvector matrix of a stack, mode by
    mode (point, mode, row), their harmonic blocks each times its phase
    (point, mode, harmonic, spin), and their t = 0 states, the sums of
    those blocks in order (point, spin, mode), with the norms of the
    states. A point's modes lie in memory as `vecs[:, pick]` lays them out
    for a single matrix, so the sums run in the order they take there."""
    v = vecs.swapaxes(1, 2)[np.arange(len(pick))[:, None], pick]
    c = v.reshape(len(v), len(pick[0]), 2 * n + 1, 3)
    if phase is not None:
        c = c * phase[:, None]
    t0 = c.transpose(0, 2, 3, 1).sum(axis=1)
    return v, c, t0, np.linalg.norm(t0, axis=1)


def _same_fold(level: np.ndarray, omega: np.ndarray, window: int) -> np.ndarray:
    """Whether each candidate's quasi-energy folds onto an earlier one's,
    within 1e-6 |omega|, in the pair order of `_pairs`."""
    later, earlier = _pairs(window)
    w = np.abs(omega)[:, None]
    rise = level[:, later] - level[:, earlier]
    return np.abs(((rise + w / 2.0) % w) - w / 2.0) < 1e-6 * w


def _pick(vals: np.ndarray, vecs: np.ndarray, omega: np.ndarray, order,
          phase, n: int):
    """Columns of the three drive modes at each point of a stack of
    harmonic eigensystems, whose columns `order` ranks, and a mask of the
    points that have three.

    The columns are visited in that order; one is skipped when its t = 0
    state is null or when it is a harmonic copy of a column already
    picked: a copy shares the folded quasi-energy and the t = 0 state, so
    it would shadow a genuine third mode. The visit is greedy over a
    window of the leading columns, which doubles for the points it leaves
    short.
    """
    m, dim = vals.shape
    pick = np.zeros((m, 3), dtype=int)
    found = np.zeros(m, dtype=bool)
    todo, window = np.arange(m), 3
    while todo.size:
        cand = order[todo, :window]
        copy = _same_fold(vals[todo[:, None], cand], omega[todo], window)
        _, _, states, norms = _columns(vecs[todo], cand, phase, n)
        taken = ~(norms < 1e-8)
        # a copy overlaps its original's t = 0 state (NaN at a null
        # state, which is skipped)
        later, earlier = _pairs(window)
        si, sj = states[:, :, earlier], states[:, :, later]
        with np.errstate(divide="ignore", invalid="ignore"):
            copy &= (np.abs((si.conj() * sj).sum(axis=1))
                     / (norms[:, earlier] * norms[:, later]) > 0.99)
        for c in range(1, window):
            pairs = slice(c * (c - 1) // 2, c * (c + 1) // 2)
            taken[:, c] &= ~(copy[:, pairs] & taken[:, :c]).any(axis=1)
        count = taken.cumsum(axis=1)
        done = count[:, -1] >= 3
        pick[todo[done]] = cand[done][taken[done] & (count[done] <= 3)].reshape(-1, 3)
        found[todo[done]] = True
        if window == dim:
            break
        todo, window = todo[~done], min(2 * window, dim)
    return pick, found


def _solve_harmonics(q: _Points, omega: np.ndarray, n: int, phase):
    """The three drive modes of each point of the stack q, whose rotation
    frequencies are `omega`, at truncation N, as `physical_modes` documents
    them; stacked eigensolves of at most STACK_BYTES each. Returns (quasi,
    fourier, weights, mode0, edge weight), stacked, and a mask of the
    points where three distinct modes were found.

    The columns are ranked by their weight on the central harmonic block.
    The three leading ones are the modes unless one has a null t = 0 state
    or two share a folded quasi-energy; only those points take the greedy
    visit of `_pick`.
    """
    m, dim = len(omega), 3 * (2 * n + 1)
    static = _static_part(q).real
    drive = _drive_amplitude(q._replace(phi0=0.0)).real
    if drive.shape != static.shape:  # along delta the drive is fixed
        drive = np.broadcast_to(drive, static.shape)
    chunk = max(1, STACK_BYTES // (8 * dim * dim))
    quasi, fourier, mode0, found = [], [], [], []
    for lo in range(0, m, chunk):
        at = slice(lo, lo + chunk)
        f = _harmonic_matrices(static[at], drive[at], omega[at], n)
        vals, vecs = np.linalg.eigh(f)
        order = np.argsort((vecs[:, 3 * n:3 * n + 3] ** 2).sum(axis=1))[:, ::-1]
        pick = order[:, :3]
        v, c, t0, norms = _columns(vecs, pick, phase, n)
        odd = (_same_fold(vals[np.arange(len(vals))[:, None], pick], omega[at],
                          3).any(axis=1)
               | (norms < 1e-8).any(axis=1))
        ok = np.ones(len(vals), dtype=bool)
        if odd.any():
            rows = np.flatnonzero(odd)
            again, ok[rows] = _pick(vals[rows], vecs[rows], omega[at][rows],
                                    order[rows], phase, n)
            v[rows], c[rows], t0[rows], norms[rows] = _columns(vecs[rows], again,
                                                               phase, n)
            norms[~ok] = 1.0  # no three modes, and none is read
        # the Rayleigh quotients point by point: einsum's sum order
        # depends on the operands' shape
        quasi += [np.einsum("im,im->m", a, fa) / np.einsum("im,im->m", a, a)
                  for a, fa in zip(v.swapaxes(1, 2), f @ v.swapaxes(1, 2))]
        fourier.append(c)
        mode0.append(t0 / norms[:, None])
        found.append(ok)
    quasi = np.array(quasi).reshape(m, 3)
    fourier, mode0, found = (a[0] if len(a) == 1 else np.concatenate(a)
                             for a in (fourier, mode0, found))
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


def _check_bound(edge_weight_max: float) -> None:
    if not 0.0 < edge_weight_max < 1.0:
        raise InvalidArgumentError(
            f"edge_weight_max must lie in (0, 1), got {edge_weight_max!r}")


def _harmonic_modes(p: RotorParams, axis: str, values: np.ndarray, q: _Points,
                    omega: np.ndarray, harm: np.ndarray, edge_weight_max: float):
    """The certified harmonic modes at the points `harm` of a sweep of p
    (`values` along `axis`, `q` and `omega` at each point), none at omega
    = 0 or delta = 0: a list of (points, modes, N), and the index and error
    of the first point that fails (len(values) and None if none fails).

    The points still to solve are held by truncation; each pass solves
    those at the smallest, up to the first failing point, and those it does
    not certify wait at twice it, up to N = 512."""
    n, error, parts = len(values), None, []

    def fail(i: int, exc: RotorSpinError) -> None:
        nonlocal n, error
        if i < n:
            n, error = i, exc

    if axis == "theta":
        start = np.array([_n_start(t, edge_weight_max)
                          for t in values[harm].tolist()], dtype=int)
        todo = {t: harm[start == t] for t in set(start.tolist())}
    else:
        todo = {_n_start(p.theta, edge_weight_max): harm} if harm.size else {}
    # where the harmonic matrix's own checks may fail: |omega| within 1e-15
    # of max(d, |delta|) (no drive period below 2.2e-16 of their sum), or a
    # parameter far beyond any level whose copies up to N = 512 fit in
    # float64
    wabs = np.abs(omega)
    top = np.maximum(np.abs(values if axis == "delta" else p.delta), p.d)
    risky = (wabs <= 1e-15 * top) | (np.maximum(wabs, top) > 1e300)
    if not risky.any():
        risky = None
    while todo:
        nh = min(todo)
        at = todo.pop(nh)
        if n < len(values):
            at = at[at < n]
        if not at.size:
            continue
        if nh > _N_MAX:
            fail(int(at[0]), NumericFailureError(
                f"harmonic truncation did not converge below N = {_N_MAX}"))
            continue
        for i in [] if risky is None else at[risky[at]].tolist():
            try:
                _harmonic_guard(p.with_(**{axis: float(values[i])}), nh)
            except RotorSpinError as exc:
                fail(i, exc)
                at = at[at < n]
                break
        if not at.size:
            continue
        modes, found = _solve_harmonics(q if len(at) == len(values) else q.take(at),
                                        omega[at], nh, _phase(p.phi0, nh))
        if not found.all():
            fail(int(at[np.argmin(found)]), NumericFailureError(
                "could not isolate three distinct drive modes; raise the "
                "truncation"))
        done = modes[4] <= edge_weight_max
        if done.all():
            parts.append((at, modes, nh))
        else:
            parts.append((at[done], [a[done] for a in modes], nh))
            later = at[~done]
            todo[2 * nh] = (np.sort(np.concatenate((todo[2 * nh], later)))
                            if 2 * nh in todo else later)
    return parts, n, error


def field_modes(p: RotorParams, axis: str, values,
                edge_weight_max: float = EDGE_WEIGHT_LEVELS) -> FieldModes:
    """The modes of `auto_harmonics` at each point of a sweep of p along
    omega, theta or delta, in one batch.

    Points at omega = 0 take one stacked static eigensolve, points at
    delta = 0 the `zero_field_modes` batch. The others share the harmonic
    solve: the points that start at the same truncation N (`_n_start`) are
    solved as stacks of real phi0 = 0 matrices, their modes picked and
    certified on arrays, and only the points whose edge weight exceeds
    `edge_weight_max` are solved again at 2N, up to N = 512. Each point
    meets the checks a single one meets, in the same order; the points from
    the first that fails on are not returned, and its error is returned,
    not raised, as by `zero_field_modes`.
    """
    _check_bound(edge_weight_max)
    values = np.asarray(values, dtype=float)
    n, error = _valid_prefix(p, axis, values)
    values = values[:n]
    omega = values if axis == "omega" else np.full(n, p.omega)
    delta = values if axis == "delta" else p.delta
    q = _points(p, axis, values)
    # (points, modes, truncation) of each route and truncation solved
    parts = []

    def fail(i: int, exc: RotorSpinError) -> None:
        nonlocal n, error
        if i < n:
            n, error = i, exc

    harm = (omega != 0) & (delta != 0)
    if not harm.all():
        static = np.flatnonzero(omega == 0)
        if static.size:
            h = _static_part(q.take(static))
            try:
                es = hermitian_eigensystem(h)
            except RotorSpinError as exc:
                fail(int(static[exc.index]), exc)
                static = static[:exc.index]
                es = hermitian_eigensystem(h[:exc.index])
            parts.append((static, (es.values, es.vectors[:, None],
                                   (np.abs(es.vectors) ** 2).swapaxes(1, 2),
                                   es.vectors, np.zeros(len(static))), 0))
        zero = np.flatnonzero((omega != 0) & (delta == 0))
        if zero.size:
            # along delta each zero keeps its own sign, as at a single point
            zf = ([zero_field_modes(p.with_(delta=float(values[i])), "omega",
                                    [p.omega]) for i in zero] if axis == "delta"
                  else [zero_field_modes(p, axis, values[zero])])
            # up to the first batch that fails, and its leading points
            first = next((k for k, b in enumerate(zf) if b.error is not None),
                         len(zf))
            levels = np.concatenate([b.quasi for b in zf[:first + 1]])
            vectors = np.concatenate([b.modes for b in zf[:first + 1]])
            if first < len(zf):
                fail(int(zero[len(levels)]), zf[first].error)
            parts.append((zero[:len(levels)], (
                levels, np.eye(3)[:, :, None] * vectors[:, None],
                (np.abs(vectors) ** 2).swapaxes(1, 2), vectors,
                np.zeros(len(levels))), 0))

    harm = np.arange(n) if not parts else np.flatnonzero(harm[:n])
    solved, last, exc = _harmonic_modes(p, axis, values, q, omega, harm,
                                        edge_weight_max)
    parts += solved
    if exc is not None:
        fail(last, exc)

    # the parts in axis order, up to the first failing point
    if len(parts) == 1 and len(parts[0][0]) == n:
        _, (quasi, fourier, weights, mode0, edge), nh = parts[0]
        n_harmonics, fourier = np.full(n, nh), list(fourier)
    else:
        order = np.argsort(np.concatenate(
            [part[0] for part in parts] + [np.zeros(0, dtype=int)]))[:n]
        quasi, weights, mode0, edge = (
            np.concatenate([part[1][k] for part in parts]
                           + [np.zeros((0,) + shape)])[order]
            for k, shape in ((0, (3,)), (2, (3, 3)), (3, (3, 3)), (4, ())))
        fourier = [c for part in parts for c in part[1][1]]
        fourier = [fourier[i] for i in order.tolist()]
        n_harmonics = np.concatenate([np.full(len(part[0]), part[2])
                                      for part in parts] + [np.zeros(0, int)])[order]
    return FieldModes(quasi=quasi, fourier=fourier, weights=weights,
                      mode0=mode0.astype(complex, copy=False),
                      n_harmonics=n_harmonics, edge_weight=edge, error=error)


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
    one-point `zero_field_modes`). A one-point `field_modes`: p, already
    checked, enters its harmonic solve directly where it has a field."""
    if p.omega == 0 or p.delta == 0:
        fm = field_modes(p, "omega", [p.omega], edge_weight_max)
        if fm.error is not None:
            raise fm.error
        return ModeSet(quasi=fm.quasi[0], fourier=fm.fourier[0],
                       weights=fm.weights[0], mode0=fm.mode0[0], n_harmonics=0,
                       edge_weight=0.0)
    _check_bound(edge_weight_max)
    omega = np.array([p.omega])
    parts, _, error = _harmonic_modes(p, "omega", omega, _points(p, "omega", omega),
                                      omega, np.arange(1), edge_weight_max)
    if error is not None:
        raise error
    (quasi, fourier, weights, mode0, edge), n = parts[-1][1:]
    return ModeSet(quasi=quasi[0], fourier=fourier[0], weights=weights[0],
                   mode0=mode0[0].astype(complex), n_harmonics=n,
                   edge_weight=float(edge[0]))


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
    q = _points(p_template, axis, values)
    try:
        es = hermitian_eigensystem(_static_part(q))
        n, error = len(values), None
    except RotorSpinError as exc:
        n, error = exc.index, exc
        es = hermitian_eigensystem(_static_part(q.take(slice(0, n))))
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
    gap = min(_circ_dist(quasi[0, a], quasi[0, b], width[0])
              for a, b in ((0, 1), (0, 2), (1, 2)))
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
    # steps of its last slope, or of min_slope where that is larger
    base_slope = {"omega": 1.5, "delta": 1.5,
                  "theta": (abs(p_template.omega) + p_template.d) / p_template.d}[axis]
    min_slope = base_slope * p_template.d
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
    sep = _circ_dist(ms.quasi[a], ms.quasi[b], width)
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
    found = _strongest_equal_mixing(members, xs[k0:k1 + 1],
                                    xtol=1e-10 * max(1.0, abs(xs[imix])))
    if found is None:
        raise NoCrossingError(
            f"branches {branch_pair} reach no equal mixing near the mixing "
            "maximum"
        )
    center, gap, _ = found
    return CrossingReport(omega_res=center, gap=gap,
                          branch_pair=(branch_pair[0], branch_pair[1]))
