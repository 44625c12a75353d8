"""Time evolution of the rotating spin state.

`evolve` expands the state in the Floquet modes of the certified harmonic
solve that the spectrum and the geometric phases use. The second route,
the oracle of the expansion, is a fixed-step fourth-order commutator-free
exponential integrator on the frame Hamiltonian: each step is a product
of two exact 3x3 matrix exponentials, so every step is unitary to
rounding error.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._brent import brent_min
from .errors import FlatTraceError, InvalidArgumentError
from .floquet import SPIN_INDEX, auto_harmonics, floquet_matrix, fold
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

MAX_TRACE_SAMPLES = 20000

#: steps per drive period of `monodromy` and of the `evolve` sample grid;
#: the monodromy agrees with a 4x finer one to 1e-9 for |omega| >= 0.01
STEPS_PER_PERIOD = 4096

# fourth-order two-exponential splitting weights and Gauss nodes
_C1 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
_C2 = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
_NODE_LO = 0.5 - math.sqrt(3.0) / 6.0
_NODE_HI = 0.5 + math.sqrt(3.0) / 6.0


class EvolutionTrace(NamedTuple):
    """Sampled trajectory of the frame state."""

    times: np.ndarray        # ascending, starts at 0
    states: np.ndarray       # (samples, 3) complex unit vectors
    populations: np.ndarray  # (samples, 3) in basis order (+1, 0, -1)
    truncation: int = 0      # harmonic truncation N of the modes, 0 if none
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


def evolve(p: RotorParams, psi0, t_end: float) -> EvolutionTrace:
    """Sample the frame state from t = 0 up to t_end.

    At omega != 0 the state is the Floquet mode expansion psi(t) =
    sum_m a_m exp(-i eps_m t) sum_k c_mk exp(i k omega t) of the
    `auto_harmonics` modes (Shirley, Phys. Rev. 138, B979, 1965), eps_m the
    Rayleigh quotient c^H F c / c^H c of each mode's harmonic vector. The
    samples lie on the T / STEPS_PER_PERIOD grid of the second route,
    `period_propagators`, at a uniform stride that keeps a trace within
    MAX_TRACE_SAMPLES; t_end must span at least one grid step, and at most
    2**53 are resolved.
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

    dt = p.period / STEPS_PER_PERIOD
    steps = t_end / dt + 1e-9
    if not steps <= 2.0**53:
        raise InvalidArgumentError(
            f"t_end spans {steps:.3g} sample-grid steps; at most 2**53 are "
            "resolved")
    n_total = math.floor(steps)
    if n_total == 0:
        raise InvalidArgumentError(
            f"t_end = {t_end:.6g} is shorter than one sample step T / "
            f"{STEPS_PER_PERIOD} = {dt:.6g}, so the trace would hold t = 0 alone")
    stride = max(1, math.ceil((n_total + 1) / MAX_TRACE_SAMPLES))
    idx = np.arange(0, n_total + 1, stride)
    times = idx * dt

    ms = auto_harmonics(p)
    n = ms.n_harmonics
    c = ms.fourier.reshape(3 * (2 * n + 1), 3)  # (harmonic x spin, mode)
    eps = (np.einsum("im,im->m", c.conj(), floquet_matrix(p, n) @ c)
           / np.einsum("im,im->m", c.conj(), c)).real
    a = np.linalg.solve(ms.fourier.sum(axis=0), psi0)
    # the periodic factor sum_k a_m c_mk exp(i k omega t) is tabled on one
    # period's grid and read at t mod T, a table's worth of samples at a
    # time; the phase eps t is taken as eps (period index T) + eps (t mod T)
    k = np.arange(-n, n + 1)
    tau = np.arange(STEPS_PER_PERIOD) * dt
    periodic = (np.exp(1j * p.omega * np.outer(tau, k))
                @ (ms.fourier * a).reshape(2 * n + 1, 9)).reshape(-1, 3, 3)
    per, step = np.divmod(idx, STEPS_PER_PERIOD)
    states = np.empty((len(idx), 3), dtype=complex)
    for lo in range(0, len(idx), STEPS_PER_PERIOD):
        at = slice(lo, lo + STEPS_PER_PERIOD)
        phase = np.exp(-1j * (np.outer(per[at] * p.period, eps)
                              + np.outer(tau[step[at]], eps)))
        states[at] = np.einsum("tsm,tm->ts", periodic[step[at]], phase)
    pops = np.abs(states) ** 2
    return EvolutionTrace(times=times, states=states, populations=pops,
                          truncation=n, edge_weight=ms.edge_weight)


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
