"""Time evolution of the rotating spin state.

`evolve` expands the state in the Floquet modes of `auto_harmonics`, the
mode set that the spectrum and the geometric phases use. The second route,
the oracle of the expansion, is a fixed-step fourth-order commutator-free
exponential integrator on the frame Hamiltonian: each step is a product
of two exact 3x3 matrix exponentials, so every step is unitary to
rounding error.
"""

import math
from typing import NamedTuple

import numpy as np

from ._brent import brent_min
from .errors import FlatTraceError, InvalidArgumentError, NumericFailureError
from .floquet import EDGE_WEIGHT_STATES, SPIN_INDEX, auto_harmonics, fold
from .model import RotorParams, h_interaction, h_rotating
from .spin_algebra import hermitian_eigensystem

__all__ = [
    "EvolutionTrace",
    "propagator_zero_field",
    "period_propagators",
    "monodromy",
    "evolve",
    "rabi_fit",
    "MAX_TRACE_SAMPLES",
    "STEPS_PER_PERIOD",
]

#: samples of every `evolve` trace
MAX_TRACE_SAMPLES = 20000
_CHUNK_SAMPLES = 4096
# samples per block of the phase kernel `_grid_phases`: a power of two, so
# that the block length _PHASE_BLOCK * h is exact
_PHASE_BLOCK = 128

#: steps per drive period of `monodromy`, the stepper oracle of `evolve`;
#: the monodromy agrees with a 4x finer one to 1e-9 for |omega| >= 0.01
STEPS_PER_PERIOD = 4096

# fourth-order two-exponential splitting weights and Gauss nodes
_C1 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
_C2 = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
_NODE_LO = 0.5 - math.sqrt(3.0) / 6.0
_NODE_HI = 0.5 + math.sqrt(3.0) / 6.0


class EvolutionTrace(NamedTuple):
    """Sampled trajectory of the frame state."""

    times: np.ndarray        # strictly ascending, from 0 to t_end
    states: np.ndarray       # (samples, 3) complex unit vectors
    populations: np.ndarray  # (samples, 3) in basis order (+1, 0, -1)
    truncation: int = 0      # harmonic truncation N of the modes, 0 if exact
    edge_weight: float = 0.0  # their edge weight (see ModeSet)


def propagator_zero_field(p: RotorParams, t: float) -> np.ndarray:
    """Exact frame propagator without a static field.

    The periodic drive is removed by passing to the co-rotating spin frame,
    evolving under the time-independent Hamiltonian there, and rotating back.
    """
    if p.delta != 0:
        raise InvalidArgumentError("propagator_zero_field requires delta = 0")
    hi = h_interaction(p)
    es = hermitian_eigensystem(hi)
    u_int = (es.vectors * np.exp(-1j * es.values * t)) @ es.vectors.conj().T
    back = np.diag(np.exp(-1j * p.omega * t * np.array([1.0, 0.0, -1.0])))
    return back @ u_int


def _expmh_stack(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i * h * dt) for a stack of Hermitian 3x3 matrices."""
    vals, vecs = np.linalg.eigh(h)
    phases = np.exp(-1j * vals * dt)
    return np.einsum("nij,nj,nkj->nik", vecs, phases, vecs.conj())


def period_propagators(p: RotorParams, steps_per_period: int):
    """Prefix propagators over one drive period.

    Returns (prefix, monodromy): prefix has shape (steps_per_period + 1,
    3, 3) with prefix[k] the propagator from t = 0 to t = k * dt; monodromy
    is prefix[-1], the full-period propagator.
    """
    dt = p.period / steps_per_period
    t0 = np.arange(steps_per_period) * dt
    h1 = h_rotating(p, t0 + _NODE_LO * dt)
    h2 = h_rotating(p, t0 + _NODE_HI * dt)
    steps = (_expmh_stack(_C1 * h1 + _C2 * h2, dt)
             @ _expmh_stack(_C2 * h1 + _C1 * h2, dt))
    prefix = np.empty((steps_per_period + 1, 3, 3), dtype=complex)
    prefix[0] = np.eye(3)
    for k in range(steps_per_period):
        prefix[k + 1] = steps[k] @ prefix[k]
    return prefix, prefix[-1]


def monodromy(p: RotorParams):
    """One-period propagator and its three folded eigenphase quasi-energies,
    at STEPS_PER_PERIOD steps."""
    _, m = period_propagators(p, STEPS_PER_PERIOD)
    mu = np.linalg.eigvals(m)
    lam = fold(-np.angle(mu) / p.period, p.omega)
    return m, np.sort(lam)


def _grid_phases(w, t0: float, h: float, n: int) -> np.ndarray:
    """exp(i w_j (t0 + k h)) for k < n, one row per frequency w_j, by block
    factorisation: exp(i w (b B h)) exp(i w (t0 + r h)) for k = b B + r,
    B = _PHASE_BLOCK. A row takes B + n / B complex exp calls and n
    complex products, not n exp calls; every factor has modulus 1 to
    rounding. Each factor rounds its time and its phase once, so a phase
    is off by a few ulp of |w| max |t0 + k h|, against half an ulp for the
    direct exp(i w t_k) of the rounded t_k."""
    w = np.asarray(w, dtype=float)[:, None]
    within = np.exp(1j * (w * (t0 + np.arange(min(n, _PHASE_BLOCK)) * h)))
    blocks = np.arange(-(-n // within.shape[1])) * (_PHASE_BLOCK * h)
    across = np.exp(1j * (w * blocks))
    return (across[:, :, None] * within[:, None, :]).reshape(len(w), -1)[:, :n]


def evolve(p: RotorParams, psi0, t_end: float) -> EvolutionTrace:
    """Sample the frame state at MAX_TRACE_SAMPLES equally spaced times
    from t = 0 to t_end.

    The state is the Floquet mode expansion psi(t) = sum_m a_m
    exp(-i eps_m t) sum_k c_mk exp(i k omega t) of the `auto_harmonics`
    modes (Shirley, Phys. Rev. 138, B979, 1965), eps_m the eigenvalue of
    each mode's harmonic vector; at omega = 0 the modes are the static
    eigenvectors, one harmonic each, and at delta = 0 the exact frame modes
    on the harmonics -1, 0, 1. The phases exp(-i eps_m t) and the drive
    turn exp(i omega t) come from the phase kernel `_grid_phases` on the
    sample grid, a few hundred exp calls per frequency and chunk, and
    exp(i k omega t) from powers of the turn. t_end must be finite, long
    enough for distinct sample times, and short enough that the rounding
    of the phases, max |eps_m| t_end 2**-53, stays within 1e-2 rad; the
    drive phase |omega| t_end must be a finite float.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (3,) or not abs(np.linalg.norm(psi0) - 1.0) <= 1e-9:
        raise InvalidArgumentError("psi0 must be a unit 3-vector")
    if not 0 < t_end < math.inf:
        raise InvalidArgumentError(
            f"t_end must be positive and finite, got {t_end!r}")
    times = np.linspace(0.0, t_end, MAX_TRACE_SAMPLES)
    if not np.all(np.diff(times) > 0):
        raise InvalidArgumentError(
            f"t_end = {t_end:.6g} is too short for {MAX_TRACE_SAMPLES} "
            "distinct sample times")

    ms = auto_harmonics(p, EDGE_WEIGHT_STATES)
    eps, n = ms.quasi, len(ms.fourier) // 2
    rounding = float(np.abs(eps).max()) * t_end * 2.0**-53
    if rounding > 1e-2:
        raise InvalidArgumentError(
            f"t_end = {t_end:.6g} rounds the mode phases eps t by up to "
            f"{rounding:.3g} rad; at most 1e-2 rad is resolved")
    if math.isinf(abs(p.omega) * t_end):
        raise NumericFailureError(
            f"the drive phase |omega| t_end overflows at |omega| = "
            f"{abs(p.omega):.3g}, t_end = {t_end:.3g}")
    a = np.linalg.solve(ms.fourier.sum(axis=0), psi0)
    coef = (ms.fourier * a).reshape(2 * n + 1, 9)
    h = t_end / (MAX_TRACE_SAMPLES - 1)  # the spacing of `times`
    # by chunks of samples, to bound memory: the mode phases exp(-i eps t)
    # and the drive turn exp(i omega t) from one phase kernel call, and
    # exp(i k omega t) as powers of the turn
    freqs = np.append(-eps, p.omega)
    states = np.empty((MAX_TRACE_SAMPLES, 3), dtype=complex)
    for lo in range(0, MAX_TRACE_SAMPLES, _CHUNK_SAMPLES):
        size = min(_CHUNK_SAMPLES, MAX_TRACE_SAMPLES - lo)
        phases = _grid_phases(freqs, times[lo], h, size)
        turns = np.empty((2 * n + 1, size), dtype=complex)
        turns[n] = 1.0
        for k in range(1, n + 1):
            turns[n + k] = turns[n + k - 1] * phases[3]
            turns[n - k] = turns[n + k].conj()
        periodic = (turns.T @ coef).reshape(-1, 3, 3)
        states[lo:lo + size] = np.einsum("tsm,mt->ts", periodic, phases[:3])
    pops = states.real ** 2 + states.imag ** 2
    return EvolutionTrace(times=times, states=states, populations=pops,
                          truncation=ms.n_harmonics, edge_weight=ms.edge_weight)


def rabi_fit(trace: EvolutionTrace, pair) -> tuple[float, float]:
    """Oscillation angular frequency and contrast of a population trace.

    The analyzed signal is the population of whichever level of the pair
    swings the most. The frequency seed is the dominant nonzero bin of its
    discrete spectrum, refined by a single-tone fit, least squares via the
    3x3 normal system. Contrast is the peak-to-peak swing of that
    population. The times must ascend with a uniform spacing (to 1e-9 of
    it, beyond 4 eps max|t| of rounding), and the frequency is fitted to
    1e-12 of a bin of the spectrum, so that neither test depends on the
    unit of time; each trial frequency takes its cos and sin rows from the
    phase kernel `_grid_phases`, or from direct cos and sin where the
    times are off that kernel's grid t0 + k h by more than rounding.
    """
    cols = []
    for lab in pair:
        if lab not in SPIN_INDEX:
            raise InvalidArgumentError(f"unknown level label {lab!r}")
        cols.append(SPIN_INDEX[lab])
    if len(cols) != 2 or cols[0] == cols[1]:
        raise InvalidArgumentError("pair must name two distinct levels")
    # the tone has 4 parameters: offset, two quadratures and frequency
    if len(trace.times) < 5:
        raise InvalidArgumentError(
            f"rabi_fit needs at least 5 samples, got {len(trace.times)}")

    swings = [np.ptp(trace.populations[:, c]) for c in cols]
    sig = trace.populations[:, cols[int(np.argmax(swings))]]
    contrast = float(np.ptp(sig))
    if contrast < 1e-3:
        raise FlatTraceError(
            f"population trace of pair {tuple(pair)} is flat "
            f"(contrast {contrast:.2e} < 1e-3)"
        )

    t = trace.times
    dts = np.diff(t)
    # a spacing of 0 or below has no frequency axis: refused before the FFT
    if not np.all(dts > 0):
        raise InvalidArgumentError("rabi_fit requires ascending sample times")
    # uniform to 1e-9 of the spacing, beyond the rounding of the times
    eps_t = 4.0 * np.finfo(float).eps * np.abs(t[[0, -1]]).max()
    if not np.all(np.abs(dts - dts[0]) <= 1e-9 * dts[0] + eps_t):
        raise InvalidArgumentError("rabi_fit requires a uniform time grid")
    dt = float(dts[0])
    y = sig - sig.mean()
    spec = np.abs(np.fft.rfft(y))
    freqs = np.fft.rfftfreq(len(y), dt)
    k = 1 + int(np.argmax(spec[1:]))
    # quadratic interpolation of the peak bin
    if 1 <= k < len(spec) - 1:
        a, b, c = spec[k - 1], spec[k], spec[k + 1]
        denom = a - 2 * b + c
        shift = 0.0 if denom == 0 else 0.5 * (a - c) / denom
        f0 = freqs[k] + shift * (freqs[1] - freqs[0])
    else:
        f0 = freqs[k]

    # the phase kernel's grid t0 + k h; samples off it by more than a few
    # ulp of their times take the direct cos and sin, so that the fit is
    # always one of the samples as given
    n, t0 = len(t), float(t[0])
    h = (float(t[-1]) - t0) / (n - 1)
    on_grid = np.abs(t - (t0 + np.arange(n) * h)).max() <= eps_t
    # the rows 1, cos(wt), sin(wt) of the tone's basis, refilled in place
    basis = np.ones((3, n))

    def residual(f: float) -> float:
        w = 2.0 * math.pi * f
        if on_grid:
            phase = _grid_phases((w,), t0, h, n)[0]
            basis[1], basis[2] = phase.real, phase.imag
        else:
            # wt waits in the cos row until its sine is taken
            wt = np.multiply(w, t, out=basis[1])
            np.sin(wt, out=basis[2])
            np.cos(wt, out=basis[1])
        # the normal matrix by einsum: BLAS is slower at this 3 x n shape
        gram = np.einsum("in,jn->ij", basis, basis)
        coef = np.linalg.solve(gram, basis @ sig)
        r = sig - coef @ basis
        return float(r @ r)

    df = freqs[1] - freqs[0]
    f_fit = brent_min(residual, max(f0 - df, df / 10), f0 + df, xatol=1e-12 * df)
    return 2.0 * math.pi * f_fit, contrast
