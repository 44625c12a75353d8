"""Acceptance suite: one test per quantitative reproduction target.

Each test prints a single [PASS]/[FAIL] line with its sub-checks, then
asserts that every sub-check held. Checks are never loosened to make a
run green. Where the published value is a leading-order approximation
finer than the terms it neglects, the check compares with the exact or
next-order value, derived in a comment beside it, at the same or a
tighter tolerance, and prints the published value alongside. A red line
means the implementation disagrees with that target.
"""

import math
import time

import numpy as np
import pytest

from rotorspin.dynamics import evolve, monodromy, rabi_fit
from rotorspin.floquet import (
    LABELS,
    auto_harmonics,
    avoided_crossing,
    cubic_quasienergies,
    fold,
    physical_modes,
    quasienergies_zero_field,
)
from rotorspin.geomphase import (
    geometric_phases_with_field,
    geometric_phases_zero_field,
)
from rotorspin.model import RotorParams, h_interaction, static_part
from rotorspin.sensing import resonant_field
from rotorspin.spin_algebra import SPIN, hermitian_eigensystem, unitarity_defect

KET_0 = np.array([0.0, 1.0, 0.0], dtype=complex)

RNG = np.random.default_rng(20260823)


def fold_dist(a, b, omega):
    w = abs(omega)
    d = (a - b) % w
    return min(d, w - d)


def equal_mixing_root(th):
    """Zero-field crossing centre at D = 1, derived in criterion 4."""
    c, s = math.cos(th), math.sin(th)
    return 1.0 / (c - s * s / (4 * c + math.sqrt(2) * s))


def report(num, title, checks):
    """checks: list of (name, ok, detail). Prints one summary line plus the
    sub-checks, then fails the test if any sub-check failed."""
    bad = [c for c in checks if not c[1]]
    print(f"\n[{'PASS' if not bad else 'FAIL'}] criterion {num}: {title}")
    for name, ok, detail in checks:
        print(f"    {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    assert not bad, f"criterion {num}: {len(bad)} sub-check(s) failed"


def test_criterion_01_cubic_vs_eigensolver():
    t0 = time.monotonic()
    worst_root = 0.0
    worst_vieta = 0.0
    for _ in range(1000):
        om = float(RNG.uniform(0.0, 3.0))
        th = float(RNG.uniform(0.0, math.pi))
        roots = cubic_quasienergies(1.0, om, th)
        vals = hermitian_eigensystem(
            h_interaction(RotorParams(omega=om, theta=th))).values
        scale = max(1.0, float(np.abs(vals).max()))
        worst_root = max(worst_root, float(np.abs(roots - vals).max()) / scale)
        worst_vieta = max(
            worst_vieta,
            abs(roots.sum() - 2.0),
            abs(roots[0] * roots[1] + roots[0] * roots[2]
                + roots[1] * roots[2] - (1.0 - om**2)),
            abs(roots.prod() + om**2 * math.sin(th)**2),
        )
    elapsed = time.monotonic() - t0
    report(1, "cubic roots against the eigensolver", [
        ("root agreement <= 1e-10 relative", worst_root <= 1e-10,
         f"worst {worst_root:.2e}"),
        ("root-identity residuals <= 1e-10", worst_vieta <= 1e-10,
         f"worst {worst_vieta:.2e}"),
        ("runtime < 2 s", elapsed < 2.0, f"{elapsed:.2f} s"),
    ])


def test_criterion_02_zero_field_resonant_transfer():
    th = math.pi / 100
    p = RotorParams(omega=1.0 / math.cos(th), theta=th)
    rabi = math.sqrt(2) * p.omega * math.sin(th)
    trace = evolve(p, KET_0, 2 * 2 * math.pi / rabi)
    peak = float(trace.populations[:, 0].max())
    leak = float(trace.populations[:, 2].max())
    freq, _ = rabi_fit(trace, ("m0", "m+1"))
    report(2, "resonant population transfer at small tilt", [
        ("peak upper-level population >= 0.999", peak >= 0.999, f"{peak:.6f}"),
        ("lower-level leakage <= 0.002", leak <= 0.002, f"{leak:.6f}"),
        ("fitted oscillation frequency within 1%",
         abs(freq - rabi) <= 0.01 * rabi,
         f"{freq:.6e} vs {rabi:.6e} ({abs(freq - rabi) / rabi:.2%})"),
    ])


def test_criterion_03_large_tilt_breakdown():
    th = math.pi / 4
    p = RotorParams(omega=1.0 / math.cos(th), theta=th)
    rabi = math.sqrt(2) * p.omega * math.sin(th)
    trace = evolve(p, KET_0, 2 * 2 * math.pi / rabi)
    leak = float(trace.populations[:, 2].max())
    # best single-tone fit of the source-level population
    sig = trace.populations[:, 1]
    freq, _ = rabi_fit(trace, ("m0", "m+1"))
    t = trace.times
    basis = np.stack([np.ones_like(t), np.cos(freq * t), np.sin(freq * t)],
                     axis=1)
    coef, *_ = np.linalg.lstsq(basis, sig, rcond=None)
    resid = sig - basis @ coef
    rel_rms = float(np.sqrt(np.mean(resid**2)) / np.ptp(sig))
    report(3, "two-level picture breaks at a quarter-turn tilt", [
        ("lower-level population exceeds 0.01", leak > 0.01, f"{leak:.4f}"),
        ("single-tone fit residual > 1% RMS", rel_rms > 0.01,
         f"{rel_rms:.2%}"),
    ])


def test_criterion_04_avoided_crossing_gap_and_location():
    # The paper's location D/cos(theta) is the two-level crossing of |0> and
    # |+1>. avoided_crossing reports the point of maximal mixing, and there
    # |-1> still pushes |0> down, so the centre lies above D/cos(theta).
    #
    # Exact centre. In the frame Hamiltonian (basis +1, 0, -1; phi0 = 0)
    #   H = [[D - w c, -a, 0], [-a, 0, -a], [0, -a, D + w c]],
    #   c = cos(theta), s = sin(theta), a = w s / sqrt(2),
    # the lower pair member is an equal superposition when c_{+1} = c_0.
    # Row 1 of (H - lambda) c = 0 then gives lambda = D - w c - a, row 3
    # gives c_{-1} = a c_0 / (2 w c + a), and row 2 leaves
    #   w c - D = a^2 / (2 w c + a) = w s^2 / (4 c + sqrt(2) s),
    # which is linear in w: the root of det(H - lambda) = 0 at that lambda is
    #   w_res = D / (c - s^2 / (4 c + sqrt(2) s)).
    # The upper member (c_{+1} = -c_0) has 4 c - sqrt(2) s in place of
    # 4 c + sqrt(2) s; its root lies 5.5e-6 to 7e-4 higher on these tilts,
    # and it mixes less because it carries more |-1>, so 1e-6 tells the two
    # apart.
    #
    # Next-order shift. Second-order perturbation moves |0> by
    # -a^2 / (D + w c) = -w^2 s^2 / (4 D) at w c = D; the crossing condition
    # D - w c = -w^2 s^2 / (4 D), with w^2 = D^2 to leading order, gives
    #   w_res - D / c = D s^2 / (4 c).
    # The neglected terms are relative O(theta): -sqrt(2) tan(theta) / 4 from
    # the |+1>-|0> coupling at equal mixing, partly offset at O(theta^2).
    # The exact root above puts the ratio at 0.990, 0.983 and 0.977.
    checks = []
    for th in (math.pi / 100, math.pi / 50, math.pi / 20):
        rep = avoided_crossing(RotorParams(omega=1.0, theta=th),
                               ("m0", "m+1"), (0.85, 1.15))
        c, s = math.cos(th), math.sin(th)
        paper_loc = 1.0 / c
        target_loc = equal_mixing_root(th)
        shift_ratio = (rep.omega_res - paper_loc) / (s * s / (4 * c))
        target_gap = math.sqrt(2) * rep.omega_res * math.sin(th)
        checks.append((
            f"gap within 1% at tilt {th:.4f}",
            abs(rep.gap - target_gap) <= 0.01 * target_gap,
            f"{rep.gap:.6e} vs {target_gap:.6e}",
        ))
        checks.append((
            f"center within 1e-6 of the equal-mixing root at tilt {th:.4f}",
            abs(rep.omega_res - target_loc) <= 1e-6,
            f"{rep.omega_res:.8f} vs {target_loc:.8f} "
            f"(off {abs(rep.omega_res - target_loc):.1e}; "
            f"paper D/cos(theta) = {paper_loc:.6f})",
        ))
        checks.append((
            f"shift above D/cos(theta) is sin^2/(4 cos) within 5% "
            f"at tilt {th:.4f}",
            abs(shift_ratio - 1.0) <= 0.05,
            f"ratio {shift_ratio:.4f}",
        ))
    report(4, "avoided-crossing gap equals the coupling strength", checks)


def test_criterion_05_second_order_gap():
    rep = avoided_crossing(RotorParams(omega=0.05, theta=math.pi / 2),
                           ("m+1", "m-1"),
                           (math.pi / 2 - 0.3, math.pi / 2 + 0.3),
                           axis="theta")
    target = 0.05**2
    report(5, "second-order gap between the side branches", [
        ("gap = omega^2/d within 10%", abs(rep.gap - target) <= 0.1 * target,
         f"{rep.gap:.6e} vs {target:.6e}"),
    ])


def test_criterion_06_field_compensated_resonance():
    th = math.pi / 100
    sol = resonant_field(th, 0.2)
    p = RotorParams(omega=0.2, theta=th, delta=0.803)
    rabi = math.sqrt(2) * 0.2 * math.sin(th)
    trace = evolve(p, KET_0, 1.5 * 2 * math.pi / rabi)
    peak = float(trace.populations[:, 0].max())
    report(6, "field-compensated resonance", [
        ("peak transfer >= 0.95", peak >= 0.95, f"{peak:.4f}"),
        ("solved field within 0.5% of 0.803",
         abs(sol.value - 0.803) <= 0.005 * 0.803, f"{sol.value:.6f}"),
    ])


def test_criterion_07_adiabatic_geometric_phase():
    checks = []
    for th in (math.pi / 10, math.pi / 6, math.pi / 3):
        g = geometric_phases_zero_field(RotorParams(omega=1e-3, theta=th)).gamma
        target = 2 * math.pi * (1 - math.cos(th))
        checks.append((f"upper branch at tilt {th:.4f}",
                       abs(g["m+1"] - target) <= 1e-2,
                       f"{g['m+1']:.5f} vs {target:.5f}"))
        checks.append((f"lower branch at tilt {th:.4f}",
                       abs(g["m-1"] + target) <= 1e-2,
                       f"{g['m-1']:.5f} vs {-target:.5f}"))
        checks.append((f"middle branch at tilt {th:.4f}",
                       abs(g["m0"]) <= 1e-2, f"{g['m0']:.5f}"))
    report(7, "slow-rotation geometric phases reach the solid-angle values",
           checks)


def test_criterion_08_resonant_geometric_phase():
    # The paper's spectator phase 0 and peak at the crossing are leading
    # order. Putting lambda = <H> into the zero-field closed form gives
    # gamma = 2 pi ((1 - c) <S_z> - s <S_x>) in the frame eigenstate
    # (c = cos(theta), s = sin(theta), phi0 = 0).
    #
    # Spectator. At w = 1/c (D = 1), H = [[0, -a, 0], [-a, 0, -a],
    # [0, -a, 2]] with a^2 = tan^2(theta) / 2 = e. The spectator (mostly
    # |-1>, c_{-1} = 1 unnormalised) has lambda = 2 + e/2 + O(e^3),
    # c_0 = -a/2 (1 + O(e^2)) and c_{+1} = e/4 + O(e^2), so with the norm
    # 1 + e/4
    #   gamma / 2 pi = -(1 - c)(1 - e/4) + s^2 / (2 c) + O(theta^6).
    # The theta^2 terms cancel; the theta^4 terms are 5/48 + 1/12 = 3/16,
    # so gamma = (3 pi / 8) theta^4 (1 + O(theta^2)). The ratio runs 1.034,
    # 1.008, 1.002 as theta halves from pi/10, so 10% holds at pi/10.
    #
    # Peak. For a pair member (c_{+1}, c_0) = (cos f, sin f), with
    # c_{-1} = a c_0 / 2 carried to first order,
    #   gamma / 2 pi = (theta^2 / 2) cos 2f - (theta / sqrt(2)) sin 2f.
    # |gamma| is largest at 2f = -pi/2 + psi with tan psi = theta / sqrt(2),
    # while equal mixing is psi = 0. The pair block [[E1, -a], [-a, E0]] has
    # tan 2f = -2a / (E1 - E0), so the peak sits at E1 - E0 = 2a tan psi
    # = theta^2. E1 - E0 falls with slope c = 1 + O(theta^2) in w, so the
    # peak lies theta^2 (1 + O(theta)) below the exact crossing w_res of
    # criterion 4, a resonance only O(theta) wide. The other member has
    # f + pi/2, hence -gamma and the same peak.
    th = math.pi / 10
    omega_res = 1.0 / math.cos(th)
    g = geometric_phases_zero_field(RotorParams(omega=omega_res, theta=th))
    vals = sorted(g.gamma.values(), key=abs)
    third, mixed_lo, mixed_hi = vals
    target = math.sqrt(2) * math.pi * math.sin(th)
    target_third = 3 * math.pi / 8 * th**4
    grid = np.linspace(0.8 * omega_res, 1.2 * omega_res, 41)
    peaks = [max(abs(v) for v in
                 geometric_phases_zero_field(
                     RotorParams(omega=float(om), theta=th)).gamma.values())
             for om in grid]
    i = int(np.argmax(peaks))
    step = grid[1] - grid[0]
    # parabola through the grid maximum and its two neighbours
    y0, y1, y2 = peaks[i - 1:i + 2]
    peak = grid[i] + 0.5 * step * (y0 - y2) / (y0 - 2 * y1 + y2)
    target_peak = equal_mixing_root(th) - th**2
    report(8, "resonant geometric phases of the mixed pair", [
        ("mixed branches carry +/- sqrt(2) pi sin(theta) within 2%",
         abs(abs(mixed_hi) - target) <= 0.02 * target
         and abs(abs(mixed_lo) - target) <= 0.02 * target
         and mixed_hi * mixed_lo < 0,
         f"{mixed_lo:.5f}, {mixed_hi:.5f} vs +/-{target:.5f}"),
        ("third branch within 10% of (3 pi / 8) theta^4",
         abs(third - target_third) <= 0.1 * target_third,
         f"{third:.5f} vs {target_third:.5f} (paper: 0)"),
        ("three phases sum to <= 1e-9",
         abs(sum(g.gamma.values())) <= 1e-9,
         f"{sum(g.gamma.values()):.2e}"),
        ("peak of |phase| within one grid step of crossing - theta^2",
         abs(peak - target_peak) <= step + 1e-12,
         f"peak at {peak:.5f}, predicted {target_peak:.5f}, step {step:.5f} "
         f"(paper: at D/cos(theta) = {omega_res:.5f})"),
    ])


def test_criterion_09_field_case_phase_limits():
    # The paper's +/- 2 pi (1 - cos theta) holds without a field. With one,
    # the slow-rotation cyclic state is an eigenstate of the static part of
    # the frame Hamiltonian at w = 0 and stays fixed in the frame (Berry's
    # adiabatic limit). The transverse part of gauge_operator turns with
    # cos(w t), sin(w t) and averages to zero over a period, leaving
    #   gamma -> 2 pi (1 - cos theta) <S_z>,
    # with <S_z> in the labelled eigenstate. The field tilts those states
    # (delta sin(theta) S_x), so |<S_z>| < 1. The computed phase approaches
    # this limit linearly in w, about 1.6e-3 away at w = 1e-3.
    th1 = math.pi / 6
    p1 = RotorParams(omega=1e-3, theta=th1, delta=0.5)
    g1 = geometric_phases_with_field(p1).gamma
    paper1 = 2 * math.pi * (1 - math.cos(th1))
    vecs = hermitian_eigensystem(static_part(p1.with_(omega=0.0))).vectors
    sz = {lab: float(np.real(v.conj() @ SPIN.sz @ v)) for lab, v in (
        ("m+1", vecs[:, np.argmax(np.abs(vecs[0]))]),
        ("m-1", vecs[:, np.argmax(np.abs(vecs[2]))]))}
    target1 = {lab: paper1 * v for lab, v in sz.items()}
    g2 = geometric_phases_with_field(
        RotorParams(omega=0.2, theta=math.pi / 100, delta=0.803)).gamma
    target2 = math.sqrt(2) * math.pi * math.sin(math.pi / 100)
    mixed2 = sorted(g2.values(), key=abs)[1:]
    report(9, "geometric-phase limits with a static field", [
        ("slow rotation reproduces 2 pi (1-cos) <S_z> within 1e-2",
         abs(g1["m+1"] - target1["m+1"]) <= 1e-2
         and abs(g1["m-1"] - target1["m-1"]) <= 1e-2,
         f"{g1['m+1']:.5f}, {g1['m-1']:.5f} vs {target1['m+1']:.5f}, "
         f"{target1['m-1']:.5f} (paper: +/-{paper1:.5f})"),
        ("compensated resonance reproduces +/- sqrt(2) pi sin within 5%",
         all(abs(abs(v) - target2) <= 0.05 * target2 for v in mixed2)
         and mixed2[0] * mixed2[1] < 0,
         f"{mixed2[0]:.5f}, {mixed2[1]:.5f} vs +/-{target2:.5f}"),
    ])


def test_criterion_10_method_cross_validation():
    worst_field = 0.0
    for _ in range(20):
        p = RotorParams(omega=float(RNG.uniform(0.15, 1.5)),
                        theta=float(RNG.uniform(0.1, 3.0)),
                        delta=float(RNG.uniform(0.1, 0.9)))
        _, lam_m = monodromy(p)
        quasi = auto_harmonics(p).quasi
        for q in quasi:
            worst_field = max(worst_field,
                              min(fold_dist(q, x, p.omega) for x in lam_m))
    worst_zero = 0.0
    for _ in range(5):
        p = RotorParams(omega=float(RNG.uniform(0.2, 1.5)),
                        theta=float(RNG.uniform(0.1, 3.0)))
        roots = fold(cubic_quasienergies(1.0, p.omega, p.theta), p.omega)
        _, lam_m = monodromy(p)
        quasi = physical_modes(p, 16).quasi
        for r in roots:
            worst_zero = max(
                worst_zero,
                min(fold_dist(r, x, p.omega) for x in lam_m),
                min(fold_dist(r, q, p.omega) for q in quasi))
    worst_quad = 0.0
    for _ in range(5):
        p = RotorParams(omega=float(RNG.uniform(0.2, 1.5)),
                        theta=float(RNG.uniform(0.1, 3.0)))
        closed = geometric_phases_zero_field(p).gamma
        quad = geometric_phases_with_field(p).gamma
        worst_quad = max(worst_quad,
                         max(abs(closed[k] - quad[k]) for k in closed))
    report(10, "independent methods agree", [
        ("one-period propagator vs harmonic matrix <= 1e-8 (with field)",
         worst_field <= 1e-8, f"worst {worst_field:.2e}"),
        ("both reduce to the cubic roots <= 1e-9 (no field)",
         worst_zero <= 1e-9, f"worst {worst_zero:.2e}"),
        ("quadrature vs closed-form phases <= 1e-6 rad (no field)",
         worst_quad <= 1e-6, f"worst {worst_quad:.2e}"),
    ])


def test_criterion_11_numerical_hygiene():
    # drift probed on a random subsample of the criterion-1 parameter range
    worst_drift = 0.0
    for _ in range(60):
        p = RotorParams(omega=float(RNG.uniform(0.05, 3.0)),
                        theta=float(RNG.uniform(0.0, math.pi)),
                        delta=float(RNG.uniform(-1.0, 1.0)))
        m, _ = monodromy(p)
        worst_drift = max(worst_drift, unitarity_defect(m))
    p6 = RotorParams(omega=0.2, theta=math.pi / 100, delta=0.803)
    modes = auto_harmonics(p6)
    n, edge = modes.n_harmonics, modes.edge_weight
    doubled = physical_modes(p6, 2 * n).quasi
    movement = max(min(fold_dist(q, r, p6.omega) for r in doubled)
                   for q in modes.quasi)
    report(11, "integrator and truncation hygiene", [
        ("unitarity drift <= 1e-9 per period", worst_drift <= 1e-9,
         f"worst {worst_drift:.2e} over 60 samples"),
        ("truncation certified (edge weight <= 1e-14)", edge <= 1e-14,
         f"N = {n}, edge weight {edge:.2e}"),
        ("truncation converged (movement at 2N < 1e-9)", movement < 1e-9,
         f"N = {n} -> {2 * n}, movement {movement:.2e}"),
    ])


def test_criterion_12_direction_reversal_symmetries():
    # spectrum invariance with side-branch exchange
    worst_spec = 0.0
    for _ in range(50):
        p = RotorParams(omega=float(RNG.uniform(0.1, 3.0)),
                        theta=float(RNG.uniform(0.0, math.pi)))
        fwd = {lab: v for lab, v, _ in quasienergies_zero_field(p)}
        rev = {lab: v for lab, v, _ in
               quasienergies_zero_field(p.with_(omega=-p.omega))}
        worst_spec = max(worst_spec,
                         abs(fwd["m+1"] - rev["m-1"]),
                         abs(fwd["m-1"] - rev["m+1"]),
                         abs(fwd["m0"] - rev["m0"]))
    # population traces swap the side levels
    th = math.pi / 100
    p = RotorParams(omega=1.0 / math.cos(th), theta=th)
    rabi = math.sqrt(2) * p.omega * math.sin(th)
    fwd_tr = evolve(p, KET_0, 2 * math.pi / rabi)
    rev_tr = evolve(p.with_(omega=-p.omega), KET_0, 2 * math.pi / rabi)
    worst_pop = max(
        float(np.abs(fwd_tr.populations[:, 0] - rev_tr.populations[:, 2]).max()),
        float(np.abs(fwd_tr.populations[:, 2] - rev_tr.populations[:, 0]).max()),
        float(np.abs(fwd_tr.populations[:, 1] - rev_tr.populations[:, 1]).max()))
    # geometric phases flip sign with the branches exchanged
    worst_phase = 0.0
    for _ in range(50):
        p = RotorParams(omega=float(RNG.uniform(0.05, 3.0)),
                        theta=float(RNG.uniform(0.0, math.pi)))
        fwd = geometric_phases_zero_field(p).gamma
        rev = geometric_phases_zero_field(p.with_(omega=-p.omega)).gamma
        worst_phase = max(worst_phase,
                          abs(fwd["m+1"] + rev["m-1"]),
                          abs(fwd["m-1"] + rev["m+1"]),
                          abs(fwd["m0"] + rev["m0"]))
    report(12, "reversing the rotation direction", [
        ("spectra agree with side branches exchanged <= 1e-10",
         worst_spec <= 1e-10, f"worst {worst_spec:.2e}"),
        ("population traces swap side levels <= 1e-9",
         worst_pop <= 1e-9, f"worst {worst_pop:.2e}"),
        ("geometric phases antisymmetric <= 1e-9",
         worst_phase <= 1e-9, f"worst {worst_phase:.2e}"),
    ])
