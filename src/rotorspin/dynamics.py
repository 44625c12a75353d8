"""Time evolution of the rotating spin state.

The workhorse is a fixed-step fourth-order commutator-free exponential
integrator on the frame Hamiltonian. Each step is a product of two exact
3x3 matrix exponentials, so every step is unitary to rounding error and
the one-period propagator can be reused across periods: the state after
p full periods and k steps is P_k @ M^p @ psi0 with prefix propagators
P_k and monodromy M computed once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._brent import brent_min
from .errors import FlatTraceError, InvalidArgumentError
from .floquet import SPIN_INDEX, fold
from .model import RotorParams, h_interaction, h_rotating
from .spin_algebra import SPIN, hermitian_eigensystem

__all__ = [
    "EvolutionTrace",
    "propagator_zero_field",
    "period_propagators",
    "monodromy",
    "evolve",
    "rabi_fit",
    "MAX_TRACE_SAMPLES",
]

MAX_TRACE_SAMPLES = 20000

# fourth-order two-exponential splitting weights and Gauss nodes
_C1 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
_C2 = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
_NODE_LO = 0.5 - math.sqrt(3.0) / 6.0
_NODE_HI = 0.5 + math.sqrt(3.0) / 6.0


@dataclass(frozen=True)
class EvolutionTrace:
    """Sampled trajectory of the frame state."""

    times: np.ndarray        # ascending, starts at 0
    states: np.ndarray       # (samples, 3) complex unit vectors
    populations: np.ndarray  # (samples, 3) in basis order (+1, 0, -1)


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


@functools.lru_cache(maxsize=16)
def _period_data(p: RotorParams, spp: int):
    """Prefix propagators over one drive period.

    Returns (prefix, monodromy): prefix has shape (spp + 1, 3, 3) with
    prefix[k] the propagator from t = 0 to t = k * dt; monodromy is
    prefix[-1], the full-period propagator.
    """
    dt = p.period / spp
    t0 = np.arange(spp) * dt
    h1 = h_rotating(p, t0 + _NODE_LO * dt)
    h2 = h_rotating(p, t0 + _NODE_HI * dt)
    ua = _expmh_stack(_C1 * h1 + _C2 * h2, dt)
    ub = _expmh_stack(_C2 * h1 + _C1 * h2, dt)
    prefix = np.empty((spp + 1, 3, 3), dtype=complex)
    prefix[0] = np.eye(3)
    for k in range(spp):
        prefix[k + 1] = ua[k] @ ub[k] @ prefix[k]
    return prefix, prefix[-1].copy()


def period_propagators(p: RotorParams, steps_per_period: int):
    """Cached (prefix propagators, monodromy) for one drive period."""
    return _period_data(p, int(steps_per_period))


def monodromy(p: RotorParams, steps_per_period: int = 4096):
    """One-period propagator and its three folded eigenphase quasi-energies."""
    _, m = period_propagators(p, steps_per_period)
    mu = np.linalg.eigvals(m)
    lam = fold(-np.angle(mu) / p.period, p.omega)
    return m, np.sort(lam)


def evolve(
    p: RotorParams,
    psi0,
    t_end: float,
    steps_per_period: int = 4096,
) -> EvolutionTrace:
    """Integrate the frame Schroedinger equation and sample the trajectory.

    Sampling is at integrator steps, decimated by a uniform stride when a
    trace would exceed MAX_TRACE_SAMPLES; integration always proceeds at
    full step resolution. The elapsed periods enter through powers of the
    monodromy, so the cost does not grow with t_end; at most 2**53 steps
    are resolved.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (3,) or abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise InvalidArgumentError("psi0 must be a unit 3-vector")
    if t_end <= 0:
        raise InvalidArgumentError("t_end must be positive")

    if p.omega == 0:
        # static Hamiltonian: evolve by direct diagonalization
        es = hermitian_eigensystem(h_rotating(p, 0.0))
        nt = min(MAX_TRACE_SAMPLES, 2048)
        times = np.linspace(0.0, t_end, nt)
        coeff = es.vectors.conj().T @ psi0
        states = np.einsum(
            "ij,tj->ti", es.vectors, np.exp(-1j * np.outer(times, es.values)) * coeff
        )
        pops = np.abs(states) ** 2
        return EvolutionTrace(times=times, states=states, populations=pops)

    if steps_per_period < 256:
        raise InvalidArgumentError("steps_per_period must be >= 256")
    spp = int(steps_per_period)
    prefix, m = period_propagators(p, spp)
    dt = p.period / spp

    steps = t_end / dt - 1e-9
    if not steps <= 2.0**53:
        raise InvalidArgumentError(
            f"t_end spans {steps:.3g} integrator steps; at most 2**53 are "
            "resolved")
    n_total = math.ceil(steps)
    stride = max(1, math.ceil((n_total + 1) / MAX_TRACE_SAMPLES))
    idx = np.arange(0, n_total + 1, stride)
    times = idx * dt

    # M^p @ psi0 for each sampled period p by binary powering: M^(2^b) is
    # applied to the periods whose index has bit b set. The squarings run in
    # extended precision: in double the error of M^(2^b) doubles with each
    # squaring, to 5e-13 after 2^15 periods against 1e-14 for stepping
    # period by period.
    per, step = np.divmod(idx, spp)
    periods, which = np.unique(per, return_inverse=True)
    psi = np.tile(psi0, (len(periods), 1))
    power = m.astype(np.clongdouble)
    while True:
        odd = (periods & 1).astype(bool)
        psi[odd] = psi[odd] @ power.astype(complex).T
        periods >>= 1
        if not periods.any():
            break
        power = power @ power
    states = np.einsum("nij,nj->ni", prefix[step], psi[which])
    pops = np.abs(states) ** 2
    return EvolutionTrace(times=times, states=states, populations=pops)


def rabi_fit(trace: EvolutionTrace, pair) -> tuple[float, float]:
    """Oscillation angular frequency and contrast of a population trace.

    The analyzed signal is the population of whichever level of the pair
    swings the most. The frequency seed is the dominant nonzero bin of its
    discrete spectrum, refined by a least-squares single-tone fit. Contrast
    is the peak-to-peak swing of that population.
    """
    cols = []
    for lab in pair:
        if lab not in SPIN_INDEX:
            raise InvalidArgumentError(f"unknown level label {lab!r}")
        cols.append(SPIN_INDEX[lab])
    if len(cols) != 2 or cols[0] == cols[1]:
        raise InvalidArgumentError("pair must name two distinct levels")

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
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
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

    def residual(f: float) -> float:
        w = 2.0 * math.pi * f
        basis = np.stack([np.ones_like(t), np.cos(w * t), np.sin(w * t)], axis=1)
        coef, res, _, _ = np.linalg.lstsq(basis, sig, rcond=None)
        r = sig - basis @ coef
        return float(r @ r)

    df = freqs[1] - freqs[0]
    f_fit = brent_min(residual, max(f0 - df, df / 10), f0 + df, xatol=1e-12)
    return 2.0 * math.pi * f_fit, contrast
