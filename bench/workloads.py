"""Seeded workloads for the rotorspin CLI benchmark.

A workload is an endless sequence of rounds drawn from one seeded random
generator. A round is a short, fixed list of CLI calls; a run executes
whole rounds, so every run sees the same mix of call kinds and only the
parameters change with the seed. Each call carries the argv handed to
``python -m rotorspin.cli`` and the parameters its output oracle needs.

Why each workload exists, and which layers it is meant to move, is written
next to its round generator and summarised in ``bench/README.md``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Call:
    kind: str                 # oracle name, see oracles.check
    argv: tuple[str, ...]     # CLI arguments after `python -m rotorspin.cli`
    params: dict = field(default_factory=dict, compare=False)


def _f(x: float) -> str:
    # repr is the shortest string that round-trips, so the CLI parses
    # exactly the float the oracle uses
    return repr(float(x))


def _axis(lo: float, hi: float, points: int, name: str = "omega") -> str:
    return f"{name}:{_f(lo)}:{_f(hi)}:{points}"


def _cli_quick(rng: random.Random) -> list[Call]:
    # Zero-field spectrum and geometric phases plus one sensitivity point.
    # The physics is 0.01-0.04 s of a call of about 0.6 s: import, config
    # parsing and CSV output dominate, and no Floquet matrix or period
    # propagator is built. Parameter ranges follow the README examples.
    th_s = rng.uniform(0.01, 0.5)
    lo, hi = rng.uniform(0.0, 0.3), rng.uniform(1.1, 1.5)
    th_g = rng.uniform(0.01, 0.5)
    om, th_r, rabi = rng.uniform(0.2, 2.0), rng.uniform(0.0, 1.2), rng.uniform(1e-3, 0.1)
    return [
        Call("spectrum_zero_field",
             ("spectrum", "--theta", _f(th_s), "--delta", "0",
              "--axis", _axis(lo, hi, 201)),
             {"theta": th_s, "lo": lo, "hi": hi, "points": 201}),
        Call("geomphase",
             ("geomphase", "--theta", _f(th_g), "--delta", "0",
              "--axis", _axis(0.85, 1.25, 41)),
             {"lo": 0.85, "hi": 1.25, "points": 41}),
        Call("sensitivity",
             ("sensitivity", "--omega", _f(om), "--theta", _f(th_r),
              "--delta-rabi", _f(rabi)),
             {"omega": om, "theta": th_r, "delta_rabi": rabi}),
    ]


#: Window starts of the field sweep; a round has one window from each. A
#: point costs about 1/omega^3 below the truncation cap, so the start sets
#: a call's time, and the strata are narrow so that every run sees the
#: same three regimes: at the cap (N = 32, doubled to 64), N = 23-24 and
#: N = 14.
_WINDOW_STARTS = ((0.05, 0.06), (0.10, 0.11), (0.20, 0.22))


def _field_sweep(rng: random.Random) -> list[Call]:
    # Field spectra and field geometric phases over omega windows. Both do
    # three Floquet eigensolves per point (two in auto_harmonics, one for
    # the modes), of dimension 99-387 depending on the window, and no
    # dynamics. This is the workload for fewer or cheaper eigensolves.
    calls = []
    for lo_min, lo_max in _WINDOW_STARTS:
        lo = rng.uniform(lo_min, lo_max)
        hi = lo + rng.uniform(0.3, 0.4)
        th_s, de_s = rng.uniform(0.05, 0.6), rng.uniform(0.05, 0.6)
        th_g, de_g = rng.uniform(0.05, 0.6), rng.uniform(0.05, 0.6)
        calls += [
            Call("spectrum_field",
                 ("spectrum", "--theta", _f(th_s), "--delta", _f(de_s),
                  "--axis", _axis(lo, hi, 61)),
                 {"lo": lo, "hi": hi, "points": 61}),
            Call("geomphase",
                 ("geomphase", "--theta", _f(th_g), "--delta", _f(de_g),
                  "--axis", _axis(lo, hi, 11)),
                 {"lo": lo, "hi": hi, "points": 11}),
        ]
    return calls


def _resonance(rng: random.Random) -> list[Call]:
    # Compensating-field solves along a short tilt sweep: each solve runs
    # brentq on the crossing centre around 65-point avoided-crossing scans,
    # 670-850 eigensolves of one fixed size. This is the workload for
    # resonant_field and avoided_crossing.
    # The solver makes 8, 9 or 10 scans depending on the inputs in no
    # smooth way, so a call sums three solves. omega in (2/7, 0.3] keeps the
    # truncation at N = 22 (dimension 135): across [0.25, 0.3] the size
    # alone changes a solve's time by 29 %. The range is narrower than
    # omega in [0.15, 0.3], theta up to pi/50: there the dimension (135-219)
    # and runs of 14-17 scans made one solve take 2.3-11.6 s, and theta
    # above about 0.2 * (1 - delta/d) leaves the small-angle guard, which
    # fails the call with exit code 3.
    om = rng.uniform(0.2875, 0.3)
    lo = rng.uniform(math.pi / 200, 0.015)
    return [
        Call("resonance",
             ("resonance", "--omega", _f(om), "--axis", _axis(lo, lo + 0.006, 3, "theta")),
             {"omega": om, "lo": lo, "hi": lo + 0.006, "points": 3}),
    ]


def _dynamics(rng: random.Random) -> list[Call]:
    # evolve near the field-compensated resonance (delta ~ d - omega, as
    # the README's 0.803 at omega = 0.2). Each call builds one set of period
    # propagators (8192 Hamiltonians, 4096 steps) and writes 20000 CSV rows
    # of 10 columns: the only workload with period propagators, and the one
    # where CSV formatting is a large share of the call. t_end is
    # (stride * 20000 - 1) integrator steps, so the sample cap of 20000 is
    # met exactly; a t_end drawn at random gives anywhere from 10000 to
    # 20000 rows, and the call's time with it.
    om = rng.uniform(0.15, 0.3)
    th = rng.uniform(math.pi / 200, math.pi / 50)
    de = 1.0 - om + rng.uniform(0.0, 0.006)
    psi0 = rng.choice(("+1", "0", "-1"))
    stride = rng.randint(10, 40)
    t_end = (stride * 20000 - 1) * (2.0 * math.pi / om / 4096)
    return [
        Call("evolve",
             ("evolve", "--omega", _f(om), "--theta", _f(th), "--delta", _f(de),
              "--psi0", psi0, "--t-end", _f(t_end)),
             {"psi0": psi0, "rows": 20000}),
    ]


#: name -> (round generator, one-line reason it is in the benchmark)
WORKLOADS = {
    "cli_quick": (_cli_quick,
                  "zero-field calls: import, config and CSV dominate; no Floquet "
                  "matrix, no propagators"),
    "field_sweep": (_field_sweep,
                    "field spectra and phases over three omega windows: three "
                    "Floquet eigensolves per point, no dynamics"),
    "resonance": (_resonance,
                  "three compensating-field solves per call: nested root finding "
                  "around avoided-crossing scans"),
    "dynamics": (_dynamics,
                 "evolve at the compensated resonance: period propagators and "
                 "20000 CSV rows per call"),
}


def rounds(workload: str, seed: int):
    """Endless sequence of rounds for one workload; a seed fixes it."""
    gen = WORKLOADS[workload][0]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield gen(rng)
