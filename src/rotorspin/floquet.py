"""Quasi-energy computation and branch bookkeeping.

Without a static field the three quasi-energies are the roots of a cubic
and come straight from the time-independent frame Hamiltonian. With a field
the periodic drive cannot be rotated away, so the spectrum comes from a
truncated harmonic (block-tridiagonal) matrix, folded into a window of
width |omega| and unfolded again for plotting via the slope rule that
connects each branch to its zero-rotation eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from ._brent import brent_root
from .config import AXIS_NAMES
from .errors import (
    InvalidArgumentError,
    NoCrossingError,
    NumericFailureError,
    TrackingError,
)
from .model import (RotorParams, drive_amplitude, h_interaction, period_guard,
                    static_part)
from .spin_algebra import hermitian_eigensystem

__all__ = [
    "LABELS",
    "SPIN_INDEX",
    "QuasiSpectrum",
    "SpectrumBranch",
    "CrossingReport",
    "cubic_quasienergies",
    "quasienergies_zero_field",
    "floquet_matrix",
    "auto_harmonics",
    "physical_modes",
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
    """Reduce quasi-energies to the window [-|omega|/2, |omega|/2)."""
    w = abs(omega)
    return ((np.asarray(x) + w / 2.0) % w) - w / 2.0


def _circ_dist(a: float, b: float, width: float) -> float:
    """Distance between two quasi-energies modulo the folding width, or the
    plain distance when the width is 0 (values not folded)."""
    if width == 0:
        return abs(a - b)
    d = (a - b) % width
    return min(d, width - d)


def cubic_quasienergies(d: float, omega: float, theta: float) -> np.ndarray:
    """Three real quasi-energies at zero field, ascending.

    Solves the characteristic cubic of the frame Hamiltonian with the
    trigonometric method for three real roots; near-degenerate cases fall
    back to the numeric eigensolver for robustness.
    """
    b = -2.0 * d
    c = -(omega * omega - d * d)
    e = omega * omega * d * math.sin(theta) ** 2
    p = c - b * b / 3.0
    q = e - b * c / 3.0 + 2.0 * b ** 3 / 27.0
    disc = -4.0 * p ** 3 - 27.0 * q * q
    scale = max(d, abs(omega)) ** 6
    if disc < 1e-13 * scale or p >= 0.0:
        # degenerate or marginal: diagonalize instead
        h = h_interaction(RotorParams(d=d, omega=omega, theta=theta))
        return hermitian_eigensystem(h).values
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * q / (p * m)
    arg = min(1.0, max(-1.0, arg))
    phi = math.acos(arg) / 3.0
    roots = m * np.cos(phi - 2.0 * math.pi * np.arange(3) / 3.0) - b / 3.0
    return np.sort(roots)


#: The 3! permutations of range(3), one per row.
_PERMUTATIONS = np.array(list(permutations(range(3))))


def _best_permutation(score: np.ndarray) -> np.ndarray:
    """Column assigned to each row of a 3x3 score matrix so that the total
    score is maximal, one column per row.

    For three rows the assignment problem (Kuhn's Hungarian method) is an
    argmax over the 3! = 6 permutations.
    """
    totals = score[np.arange(3), _PERMUTATIONS].sum(axis=1)
    return _PERMUTATIONS[int(np.argmax(totals))]


def _assign_labels(weights: np.ndarray) -> dict[str, int]:
    """Map each branch label to a mode index by maximizing spin-character
    weight, as a one-to-one assignment."""
    score = weights[:, [SPIN_INDEX[lab] for lab in LABELS]].T  # (label, mode)
    perm = _best_permutation(score)
    return {lab: int(perm[li]) for li, lab in enumerate(LABELS)}


def quasienergies_zero_field(p: RotorParams):
    """Labeled (quasi-energy, frame eigenvector) triples at zero field.

    Quasi-energies come from the cubic; eigenvectors from the numeric
    diagonalization, matched root-to-eigenvalue. Labels follow the spin
    character so each branch connects to its slow-rotation parent level.
    """
    if p.delta != 0:
        raise InvalidArgumentError("quasienergies_zero_field requires delta = 0")
    h = h_interaction(p)
    es = hermitian_eigensystem(h)
    roots = cubic_quasienergies(p.d, p.omega, p.theta)
    # match each numeric eigenpair with its nearest analytic root
    order = np.argsort(np.abs(es.values[:, None] - roots[None, :]), axis=1)
    lams = roots[order[:, 0]]
    weights = np.abs(es.vectors.T) ** 2  # (mode, spin)
    idx = _assign_labels(weights)
    return [(lab, float(lams[idx[lab]]), es.vectors[:, idx[lab]].copy()) for lab in LABELS]


def floquet_matrix(p: RotorParams, n_harmonics: int) -> np.ndarray:
    """Block-tridiagonal harmonic-expansion matrix of the driven problem.

    Diagonal blocks are the static component shifted by n*omega for
    n = -N..N; off-diagonal blocks carry the single-harmonic drive.
    """
    period_guard(p)
    if n_harmonics < 1:
        raise InvalidArgumentError("n_harmonics must be >= 1")
    n = int(n_harmonics)
    k = np.arange(2 * n + 1)
    b = drive_amplitude(p)
    f = np.zeros((2 * n + 1, 3, 2 * n + 1, 3), dtype=complex)
    f[k, :, k, :] = static_part(p) + (k - n)[:, None, None] * p.omega * np.eye(3)
    f[k[1:], :, k[:-1], :] = b.conj().T
    f[k[:-1], :, k[1:], :] = b
    return f.reshape(3 * (2 * n + 1), 3 * (2 * n + 1))


@dataclass(frozen=True)
class ModeSet:
    """The three physical drive modes at one parameter point."""

    quasi: np.ndarray        # folded quasi-energies, one per mode
    fourier: np.ndarray      # (2N+1, 3, modes) harmonic coefficients
    weights: np.ndarray      # (modes, 3) time-averaged spin weights
    mode0: np.ndarray        # (3, modes) normalized state at t = 0
    n_harmonics: int
    edge_weight: float       # largest weight of a mode on the blocks k = +-N


def physical_modes(p: RotorParams, n_harmonics: int) -> ModeSet:
    """Diagonalize the truncated harmonic matrix and pick the three modes
    carrying the most weight in the central harmonic block."""
    n = int(n_harmonics)
    f = floquet_matrix(p, n)
    vals, vecs = np.linalg.eigh(f)
    blocks = vecs.reshape(2 * n + 1, 3, -1)
    central = (np.abs(blocks[n]) ** 2).sum(axis=0)
    # greedy pick by central-harmonic weight, skipping harmonic copies of an
    # already chosen mode (copies share the same t = 0 state and a folded
    # quasi-energy, so they would shadow a genuine third mode)
    order = np.argsort(central)[::-1]
    states0 = blocks.sum(axis=0)
    norms0 = np.linalg.norm(states0, axis=0)
    pick = []
    for j in order:
        if norms0[j] < 1e-8:
            continue
        dup = False
        for i in pick:
            same_fold = abs(fold(vals[j] - vals[i], p.omega)) < 1e-6 * abs(p.omega)
            ov = abs(np.vdot(states0[:, i], states0[:, j])) / (norms0[i] * norms0[j])
            if same_fold and ov > 0.99:
                dup = True
                break
        if not dup:
            pick.append(int(j))
        if len(pick) == 3:
            break
    if len(pick) < 3:
        raise NumericFailureError(
            "could not isolate three distinct drive modes; raise the truncation"
        )
    pick = np.array(pick)
    quasi = fold(vals[pick], p.omega)
    fourier = blocks[:, :, pick]
    weights = (np.abs(fourier) ** 2).sum(axis=0).T  # (mode, spin)
    weights = weights / weights.sum(axis=1, keepdims=True)
    mode0 = fourier.sum(axis=0)
    mode0 = mode0 / np.linalg.norm(mode0, axis=0, keepdims=True)
    edge = (np.abs(fourier[[0, -1]]) ** 2).sum(axis=(0, 1)).max()
    return ModeSet(quasi=quasi, fourier=fourier, weights=weights, mode0=mode0,
                   n_harmonics=n, edge_weight=float(edge))


# the drive over the harmonic spacing is sin(theta) / 2 <= 1/2 at any omega,
# so harmonic weights fall off like a Bessel series (Shirley, Phys. Rev. 138,
# B979, 1965) and one start serves every omega
_N_START = 12
_N_MAX = 512
_EDGE_WEIGHT_MAX = 1e-14


def auto_harmonics(p: RotorParams) -> tuple[ModeSet, float]:
    """Drive modes at the first truncation N = 12, 24, 48, ... at which
    each of the three picked modes puts at most 1e-14 of its weight on the
    edge blocks k = +-N. Returns the modes and that certified edge
    weight."""
    n = _N_START
    while n <= _N_MAX:
        modes = physical_modes(p, n)
        if modes.edge_weight <= _EDGE_WEIGHT_MAX:
            return modes, modes.edge_weight
        n *= 2
    raise NumericFailureError(
        f"harmonic truncation did not converge below N = {_N_MAX}")


def _resolve_harmonics(p: RotorParams, n_harmonics) -> ModeSet:
    """Drive modes at a fixed truncation, or at the converged one for
    "auto"."""
    if n_harmonics == "auto":
        return auto_harmonics(p)[0]
    return physical_modes(p, int(n_harmonics))


@dataclass(frozen=True)
class SpectrumBranch:
    label: str
    quasienergy: np.ndarray   # unfolded slope-rule representative per point
    mode0: np.ndarray         # (points, 3) frame state at t = 0


@dataclass(frozen=True)
class QuasiSpectrum:
    axis_name: str
    axis_values: np.ndarray
    branches: tuple[SpectrumBranch, SpectrumBranch, SpectrumBranch]
    n_harmonics: int          # largest truncation met, 0 if none was solved
    edge_weight: float        # largest edge weight met (see ModeSet)

    def branch(self, label: str) -> SpectrumBranch:
        for b in self.branches:
            if b.label == label:
                return b
        raise KeyError(label)


def _point_modes(p: RotorParams, n_harmonics):
    """Quasi-energies, t=0 states and spin weights at one point.

    Returns (values, mode0 (3, modes), weights (modes, 3), width, ms): width
    is the folding width |omega| of the values, and ms the ModeSet they came
    from; width is 0 and ms None when no harmonic matrix was solved.
    """
    if p.delta == 0 and p.omega != 0:
        triples = quasienergies_zero_field(p)
        lams = np.array([t[1] for t in triples])
        mode0 = np.stack([t[2] for t in triples], axis=1)
        weights = (np.abs(mode0) ** 2).T
        return lams, mode0, weights, 0.0, None
    if p.omega == 0:
        es = hermitian_eigensystem(static_part(p))
        weights = (np.abs(es.vectors) ** 2).T
        return es.values, es.vectors, weights, 0.0, None
    ms = _resolve_harmonics(p, n_harmonics)
    return ms.quasi, ms.mode0, ms.weights, abs(p.omega), ms


def _slope_targets(p: RotorParams) -> np.ndarray:
    """Unfolded representative targets in LABELS order: static-level value
    plus the slope-rule harmonic shift for each branch."""
    es = hermitian_eigensystem(static_part(p))
    weights = (np.abs(es.vectors) ** 2).T
    idx = _assign_labels(weights)
    return np.array([es.values[idx[lab]] + SLOPE[lab] * p.omega for lab in LABELS])


def quasienergy_spectrum(
    p_template: RotorParams,
    axis: str,
    values,
    n_harmonics="auto",
) -> QuasiSpectrum:
    """Three continuously tracked quasi-energy branches along a sweep axis.

    Branches are tracked from point to point by maximal overlap of the
    t = 0 states. With a field and omega != 0 the values are folded, and
    each branch is unfolded by one rule: its distance from its slope-rule
    target stays continuous, so it takes the copy nearest its target plus
    its offset from the target at the previous folded point (nearest the
    target itself at the first). The curves reproduce the familiar fan of
    levels emanating from the zero-rotation eigenvalues.
    """
    if axis not in AXIS_NAMES:
        raise InvalidArgumentError(f"unknown sweep axis {axis!r}")
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) < 2:
        raise InvalidArgumentError("sweep needs at least 2 axis values")
    if np.any(np.diff(values) <= 0):
        raise InvalidArgumentError("axis values must be strictly ascending")
    if axis == "omega" and p_template.delta != 0 and values[0] <= 0 <= values[-1]:
        # the copy spacing |omega| of the folded values shrinks to 0 there,
        # so the unfolded copy a branch continues to would depend on the grid
        raise TrackingError(
            "a field sweep along omega cannot reach or cross omega = 0; "
            "sweep each rotation direction separately"
        )

    # continuity bound: movement per step limited by ~10x the local slope
    base_slope = {"omega": 1.5, "delta": 1.5,
                  "theta": (abs(p_template.omega) + p_template.d) / p_template.d}[axis]
    min_slope = base_slope * p_template.d
    reps = np.empty((len(values), 3))
    modes = np.empty((len(values), 3, 3), dtype=complex)
    offset = np.zeros(3)  # representative minus slope-rule target
    n_max, edge_max = 0, 0.0
    for i, x in enumerate(values):
        p = p_template.with_(**{axis: float(x)})
        folded, m0, weights, width, ms = _point_modes(p, n_harmonics)
        if ms is not None:
            n_max = max(n_max, ms.n_harmonics)
            edge_max = max(edge_max, ms.edge_weight)
        if i == 0:
            # refuse to start labeling inside an avoided crossing: branches
            # must be separable either by energy or by near-pure spin character
            gap = min(_circ_dist(folded[a], folded[b], width)
                      for a, b in ((0, 1), (0, 2), (1, 2)))
            if gap < 1e-6 * p_template.d and weights.max(axis=1).min() < 0.99:
                raise TrackingError(
                    "sweep starts inside a gap: branches not separable at the "
                    "first point"
                )
            idx = _assign_labels(weights)
            perm = [idx[lab] for lab in LABELS]
        else:
            overlap = np.abs(modes[i - 1].conj() @ m0)  # (branch, mode)
            perm = _best_permutation(overlap)
            worst = overlap[np.arange(3), perm].min()
            if worst < 0.5:
                raise TrackingError(
                    f"branch tracking lost between {axis} = {values[i-1]:.6g} "
                    f"and {x:.6g} (max overlap {worst:.3f}); use a finer grid"
                )
        reps[i] = folded[perm]
        modes[i] = m0[:, perm].T
        if width:
            target = _slope_targets(p)
            reps[i] += np.round((target + offset - reps[i]) / width) * width
            offset = reps[i] - target
        if i >= 2:
            slope = np.abs(reps[i - 1] - reps[i - 2]) / (values[i - 1] - values[i - 2])
            bound = 10.0 * (x - values[i - 1]) * np.maximum(slope, min_slope)
            if np.any(np.abs(reps[i] - reps[i - 1]) > bound):
                raise TrackingError(
                    f"branch continuity violated near {axis} = {x:.6g}; "
                    "use a finer grid"
                )

    branches = tuple(
        SpectrumBranch(label=lab, quasienergy=reps[:, b].copy(),
                       mode0=modes[:, b, :].copy())
        for b, lab in enumerate(LABELS)
    )
    return QuasiSpectrum(axis_name=axis, axis_values=values.copy(),
                         branches=branches, n_harmonics=n_max, edge_weight=edge_max)


@dataclass(frozen=True)
class CrossingReport:
    omega_res: float
    gap: float
    branch_pair: tuple[str, str]


def _pair_members(p: RotorParams, pair: tuple[str, str],
                  n_harmonics) -> tuple[float, np.ndarray]:
    """Separation of the branch pair and the pair-spin weights of its two
    members at a single parameter point.

    The spectator branch is the one with dominant weight on the third spin
    component; the remaining two modes form the pair. Rows of the returned
    (2, 2) weight array are the lower and the upper member by quasi-energy,
    columns the weights on the two pair spins. Each member's
    min(weight_i, weight_j) peaks (with a corner) where that member is an
    equal superposition of the crossing levels.
    """
    folded, _, weights, width, _ = _point_modes(p, n_harmonics)
    i, j = SPIN_INDEX[pair[0]], SPIN_INDEX[pair[1]]
    spec_spin = ({0, 1, 2} - {i, j}).pop()
    spectator = int(np.argmax(weights[:, spec_spin]))
    a, b = (k for k in range(3) if k != spectator)
    sep = _circ_dist(folded[a], folded[b], width)
    rise = folded[b] - folded[a]
    b_above = rise % width <= width / 2 if width else rise >= 0
    members = [a, b] if b_above else [b, a]
    return sep, weights[np.ix_(members, [i, j])]


def _strongest_equal_mixing(members, xs, weights, xtol: float):
    """Equal-superposition point of the more strongly mixed pair member.

    `members(x)` returns the pair separation and (2, 2) member weights as
    `_pair_members` does; `weights` holds those weights at the ascending
    samples `xs`. Each member's weight difference is solved for a root by
    Brent's method between adjacent samples where it changes sign, and the
    root with the larger mixing min(weight_i, weight_j) is kept. Returns
    (x, separation) there, or None when no member changes sign.
    """
    def weight_diff(x: float, member: int) -> float:
        w = members(x)[1][member]
        return w[0] - w[1]

    diff = weights[:, :, 0] - weights[:, :, 1]
    peaks = []
    for m in (0, 1):
        for k in range(len(xs) - 1):
            if diff[k, m] * diff[k + 1, m] <= 0:
                x = brent_root(lambda t: weight_diff(t, m), xs[k], xs[k + 1],
                               xtol)
                sep, w = members(x)
                peaks.append((float(w.min(axis=1).max()), float(x), float(sep)))
    if not peaks:
        return None
    _, x, sep = max(peaks)
    return x, sep


def avoided_crossing(
    p_template: RotorParams,
    branch_pair: tuple[str, str],
    window: tuple[float, float],
    axis: str = "omega",
    points: int = 129,
    n_harmonics="auto",
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

    def members(x: float) -> tuple[float, np.ndarray]:
        p = p_template.with_(**{axis: float(x)})
        return _pair_members(p, branch_pair, n_harmonics)

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
    found = _strongest_equal_mixing(members, xs[k0:k1 + 1], weights[k0:k1 + 1],
                                    xtol=1e-10 * max(1.0, abs(xs[imix])))
    if found is None:
        raise NoCrossingError(
            f"branches {branch_pair} reach no equal mixing near the mixing "
            "maximum"
        )
    center, gap = found
    return CrossingReport(omega_res=center, gap=gap,
                          branch_pair=(branch_pair[0], branch_pair[1]))
