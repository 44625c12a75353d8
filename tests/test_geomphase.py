import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorspin.errors import InvalidArgumentError
from rotorspin.floquet import (
    EDGE_WEIGHT_STATES,
    LABELS,
    _assign_labels,
    auto_harmonics,
    quasienergies_zero_field,
)
from rotorspin.geomphase import (
    gauge_operator,
    geometric_phases_with_field,
    geometric_phases_zero_field,
    verify_gauge_sign,
)
from rotorspin.model import RotorParams, h_rotating
from rotorspin.spin_algebra import SPIN, hermiticity_defect, spin1_exp

RNG = np.random.default_rng(1234)


def gauge_by_finite_difference(p, t, dt=None):
    """Centered finite difference of i W dW^dagger/dt where W is the frame
    rotation with the azimuthal spin rotation removed, sign-matched to the
    pinned convention."""
    if dt is None:
        dt = 1e-6 / abs(p.omega)

    def w(tt):
        phi = p.omega * tt + p.phi0
        return (spin1_exp([0, 0, 1.0], phi)
                @ spin1_exp([0, 1.0, 0], p.theta)
                @ spin1_exp([0, 0, 1.0], -phi))

    dwdag = (w(t + dt).conj().T - w(t - dt).conj().T) / (2 * dt)
    g = 1j * w(t) @ dwdag
    g = (g + g.conj().T) / 2
    # the pinned convention is the negative of the literal derivative
    # expression (the sign is fixed by the slow-rotation limit)
    return -g


def gauge_by_hand(p, t):
    """Term-by-term build of the closed-form gauge potential at one time."""
    phi = p.omega * t + p.phi0
    return p.omega * ((1 - math.cos(p.theta)) * SPIN.sz
                      - math.sin(p.theta) * math.cos(phi) * SPIN.sx
                      - math.sin(p.theta) * math.sin(phi) * SPIN.sy)


def split_integrand_quadrature(p, ms, idx, spp):
    """Reference quadrature with the integrand split into the axial part f1
    (term1) and the tilted-axis part f2 (term2), gamma = term1 - term2."""
    t = np.linspace(0.0, p.period, spp + 1)
    nh = ms.n_harmonics
    phases = np.exp(1j * np.outer(t, np.arange(-nh, nh + 1) * p.omega))
    ct, st = math.cos(p.theta), math.sin(p.theta)
    phi = p.omega * t + p.phi0
    gamma, term1, term2 = {}, {}, {}
    for lab in LABELS:
        states = phases @ ms.fourier[:, :, idx[lab]]
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        c = states.conj()
        ez = np.real(np.einsum("ts,s,ts->t", c, np.array([1.0, 0.0, -1.0]), states))
        ex = np.real(np.einsum("ts,su,tu->t", c, SPIN.sx, states))
        ey = np.real(np.einsum("ts,su,tu->t", c, SPIN.sy, states))
        f1 = p.omega * ez
        f2 = p.omega * (ct * ez + st * (np.cos(phi) * ex + np.sin(phi) * ey))
        term1[lab] = float(np.trapezoid(f1, t))
        term2[lab] = float(np.trapezoid(f2, t))
        gamma[lab] = term1[lab] - term2[lab]
    return gamma, term1, term2


class TestGaugeOperator:
    def test_zero_at_zero_tilt(self):
        p = RotorParams(omega=0.7, theta=0.0)
        assert np.abs(gauge_operator(p, 1.3)).max() <= 1e-15

    def test_hermitian(self):
        for _ in range(5):
            p = RotorParams(omega=float(RNG.uniform(0.1, 2)),
                            theta=float(RNG.uniform(0, math.pi)),
                            phi0=float(RNG.uniform(0, 2 * math.pi)))
            assert hermiticity_defect(gauge_operator(p, 0.9)) <= 1e-12

    def test_matches_finite_difference(self):
        for _ in range(5):
            p = RotorParams(omega=float(RNG.uniform(0.2, 2)),
                            theta=float(RNG.uniform(0.1, 3.0)),
                            phi0=float(RNG.uniform(0, 2 * math.pi)))
            t = float(RNG.uniform(0, 10))
            got = gauge_operator(p, t)
            ref = gauge_by_finite_difference(p, t)
            assert np.abs(got - ref).max() <= 1e-6

    def test_array_of_times_matches_hand_assembly(self):
        for _ in range(5):
            p = RotorParams(omega=float(RNG.uniform(-2, 2)),
                            theta=float(RNG.uniform(0, math.pi)),
                            phi0=float(RNG.uniform(0, 2 * math.pi)))
            ts = RNG.uniform(0, 50, size=(3, 4))
            got = gauge_operator(p, ts)
            assert got.shape == (3, 4, 3, 3)
            for k in np.ndindex(ts.shape):
                np.testing.assert_allclose(got[k], gauge_by_hand(p, ts[k]),
                                           atol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(omega=st.floats(0.01, 3.0), sign=st.sampled_from([-1.0, 1.0]),
           theta=st.floats(0.0, math.pi), delta=st.floats(-2.0, 2.0),
           phi0=st.floats(0.0, 2 * math.pi), seed=st.integers(0, 2**32 - 1))
    def test_rotation_adds_exactly_the_gauge_potential(self, omega, sign, theta,
                                                        delta, phi0, seed):
        # h_rotating minus the gauge potential is the Hamiltonian without
        # rotation, the same at every t
        p = RotorParams(omega=sign * omega, theta=theta, delta=delta, phi0=phi0)
        ts = np.random.default_rng(seed).uniform(0.0, 100.0, size=7)
        rest = h_rotating(p, ts) - gauge_operator(p, ts)
        still = h_rotating(p.with_(omega=0.0), ts)
        scale = p.d + abs(p.omega) + abs(p.delta)
        assert np.abs(rest - still).max() <= 1e-14 * scale

    def test_axial_plus_tilted_decomposition(self):
        # the operator equals omega * (Sz - W Sz W^dagger) with W the
        # de-azimuthed frame rotation
        p = RotorParams(omega=0.9, theta=0.8, phi0=0.5)
        t = 2.1
        phi = p.omega * t + p.phi0
        w = (spin1_exp([0, 0, 1.0], phi) @ spin1_exp([0, 1.0, 0], p.theta)
             @ spin1_exp([0, 0, 1.0], -phi))
        ref = p.omega * (SPIN.sz - w @ SPIN.sz @ w.conj().T)
        np.testing.assert_allclose(gauge_operator(p, t), ref, atol=1e-12)


class TestZeroFieldPhases:
    def test_rejects_field_and_static(self):
        with pytest.raises(InvalidArgumentError):
            geometric_phases_zero_field(RotorParams(omega=0.5, theta=0.3,
                                                    delta=0.1))
        with pytest.raises(InvalidArgumentError):
            geometric_phases_zero_field(RotorParams(omega=0.0, theta=0.3))

    def test_zero_tilt_gives_zero_phases(self):
        g = geometric_phases_zero_field(RotorParams(omega=0.37, theta=0.0))
        for v in g.gamma.values():
            assert abs(v) <= 1e-10

    def test_decomposition_identity(self):
        p = RotorParams(omega=0.44, theta=1.0)
        g = geometric_phases_zero_field(p)
        for lab in g.gamma:
            assert g.gamma[lab] == pytest.approx(g.term1[lab] - g.term2[lab],
                                                 abs=1e-12)

    def test_slow_rotation_limit(self):
        th = math.pi / 10
        g = geometric_phases_zero_field(RotorParams(omega=1e-3, theta=th))
        target = 2 * math.pi * (1 - math.cos(th))
        assert g.gamma["m+1"] == pytest.approx(target, abs=1e-2)
        assert g.gamma["m-1"] == pytest.approx(-target, abs=1e-2)
        assert abs(g.gamma["m0"]) <= 1e-2

    def test_phase_insensitive_to_eigenvector_gauge(self):
        # recompute the closed form with randomly re-phased eigenvectors;
        # only squared moduli enter, so nothing may change
        p = RotorParams(omega=0.8, theta=1.3)
        t_signed = 2 * math.pi / p.omega
        base = geometric_phases_zero_field(p)
        for lab, lam, vec in quasienergies_zero_field(p):
            rephased = vec * np.exp(1j * RNG.uniform(0, 2 * math.pi, size=3))
            w = np.abs(rephased) ** 2
            gamma = t_signed * (lam - (1 - p.omega) * w[0] - (1 + p.omega) * w[2])
            assert gamma == pytest.approx(base.gamma[lab], abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(omega=st.floats(0.01, 3.0), theta=st.floats(0.0, math.pi),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_sum_rule(self, omega, theta, sign):
        g = geometric_phases_zero_field(RotorParams(omega=sign * omega,
                                                    theta=theta))
        assert abs(sum(g.gamma.values())) <= 1e-9

    def test_antisymmetry_under_direction_reversal(self):
        p = RotorParams(omega=0.63, theta=0.9)
        fwd = geometric_phases_zero_field(p).gamma
        rev = geometric_phases_zero_field(p.with_(omega=-0.63)).gamma
        assert fwd["m+1"] == pytest.approx(-rev["m-1"], abs=1e-9)
        assert fwd["m-1"] == pytest.approx(-rev["m+1"], abs=1e-9)
        assert fwd["m0"] == pytest.approx(-rev["m0"], abs=1e-9)

    def test_resonant_peak_near_resonance(self):
        # the magnitude of the mixed-branch phases forms a broad hump whose
        # maximum sits a few percent below the crossing frequency and whose
        # height stays within a percent of the resonant value
        th = math.pi / 10
        omega_res = 1.0 / math.cos(th)
        grid = np.linspace(0.8 * omega_res, 1.2 * omega_res, 81)
        peaks = []
        for om in grid:
            g = geometric_phases_zero_field(RotorParams(omega=float(om),
                                                        theta=th))
            peaks.append(max(abs(v) for v in g.gamma.values()))
        i = int(np.argmax(peaks))
        assert abs(grid[i] - omega_res) <= 0.07 * omega_res
        assert peaks[i] == pytest.approx(math.sqrt(2) * math.pi * math.sin(th),
                                         rel=1e-2)


class TestFieldPhases:
    def test_gauge_sign_self_check(self):
        assert verify_gauge_sign() <= 0.05

    def test_quadrature_matches_closed_form_without_field(self):
        p = RotorParams(omega=0.8, theta=1.1)
        closed = geometric_phases_zero_field(p).gamma
        quad = geometric_phases_with_field(p).gamma
        for lab in closed:
            assert quad[lab] == pytest.approx(closed[lab], abs=1e-6)

    def test_weak_field_limit_matches_closed_form(self):
        for omega in (0.7, -0.7):
            p = RotorParams(omega=omega, theta=0.9, delta=1e-4)
            closed = geometric_phases_zero_field(p.with_(delta=0.0)).gamma
            quad = geometric_phases_with_field(p).gamma
            for lab in closed:
                assert quad[lab] == pytest.approx(closed[lab], abs=1e-3)

    def test_antisymmetry_under_direction_reversal(self):
        # reversing omega, delta and phi0 together mirrors the frame
        # Hamiltonian through S_z -> -S_z, which swaps m+1 and m-1
        for _ in range(3):
            p = RotorParams(omega=float(RNG.uniform(0.2, 1.5)),
                            theta=float(RNG.uniform(0.1, 3.0)),
                            phi0=float(RNG.uniform(0, 2 * math.pi)),
                            delta=float(RNG.uniform(-0.9, 0.9)))
            fwd = geometric_phases_with_field(p).gamma
            rev = geometric_phases_with_field(
                p.with_(omega=-p.omega, delta=-p.delta, phi0=-p.phi0)).gamma
            assert fwd["m+1"] == pytest.approx(-rev["m-1"], abs=1e-9)
            assert fwd["m-1"] == pytest.approx(-rev["m+1"], abs=1e-9)
            assert fwd["m0"] == pytest.approx(-rev["m0"], abs=1e-9)

    def test_decomposition_identity(self):
        g = geometric_phases_with_field(RotorParams(omega=0.2,
                                                    theta=math.pi / 100,
                                                    delta=0.803))
        for lab in g.gamma:
            assert g.gamma[lab] == pytest.approx(g.term1[lab] - g.term2[lab],
                                                 abs=1e-12)

    def test_harmonic_sum_matches_split_integrand(self):
        # the reference integrates over the positive period 2 pi / |omega|;
        # the phases use the signed period, as the closed form does
        for sign in (1.0, 1.0, -1.0, -1.0):
            p = RotorParams(omega=sign * float(RNG.uniform(0.2, 1.5)),
                            theta=float(RNG.uniform(0.1, 3.0)),
                            phi0=float(RNG.uniform(0, 2 * math.pi)),
                            delta=float(RNG.uniform(-0.9, 0.9)))
            ms = auto_harmonics(p, EDGE_WEIGHT_STATES)
            idx = _assign_labels(ms.weights)
            g = geometric_phases_with_field(p)
            ref = split_integrand_quadrature(p, ms, idx, 4096)
            for got, r in zip((g.gamma, g.term1, g.term2), ref):
                for lab in LABELS:
                    assert got[lab] == pytest.approx(sign * r[lab], abs=1e-12)

    def test_rejects_static(self):
        with pytest.raises(InvalidArgumentError):
            geometric_phases_with_field(RotorParams(omega=0.0, theta=0.3,
                                                    delta=0.1))
