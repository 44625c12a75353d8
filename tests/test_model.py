import math

import numpy as np
import pytest

from rotorspin.errors import InvalidArgumentError, NumericFailureError, RegimeError
from rotorspin.model import (
    RotorParams,
    derived_scales,
    drive_amplitude,
    h_interaction,
    h_rotating,
    harmonic_sum,
    period_guard,
    rabi_frequency,
    small_angle_guard,
    static_part,
    without_period,
)
from rotorspin.spin_algebra import SPIN, SZ2, hermiticity_defect, spin1_exp

RNG = np.random.default_rng(41)


def assemble_by_hand(d, omega, theta, phi0, delta, t):
    """Independent term-by-term build of the frame Hamiltonian, kept
    deliberately verbose as an oracle."""
    h = np.zeros((3, 3), dtype=complex)
    h += d * (SPIN.sz @ SPIN.sz)
    h += -delta * math.cos(theta) * SPIN.sz
    h += delta * math.sin(theta) * SPIN.sx
    h += omega * (1 - math.cos(theta)) * SPIN.sz
    ph = np.exp(-1j * (omega * t + phi0))
    h += -0.5 * omega * math.sin(theta) * (ph * SPIN.s_plus
                                           + np.conj(ph) * SPIN.s_minus)
    return h


class TestParams:
    def test_rejects_nonpositive_d(self):
        with pytest.raises(InvalidArgumentError):
            RotorParams(omega=0.1, theta=0.1, d=0.0)

    def test_rejects_theta_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            RotorParams(omega=0.1, theta=3.5)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            RotorParams(omega=math.inf, theta=0.1)

    def test_period(self):
        p = RotorParams(omega=-0.5, theta=0.2)
        assert p.period == pytest.approx(4 * math.pi)
        with pytest.raises(InvalidArgumentError):
            _ = RotorParams(omega=0.0, theta=0.2).period


class TestRotatingHamiltonian:
    def test_theta_zero_reduces_to_splitting(self):
        p = RotorParams(omega=0.7, theta=0.0)
        np.testing.assert_allclose(h_rotating(p, 2.3), SZ2, atol=1e-15)

    def test_matches_hand_assembly(self):
        p = RotorParams(omega=0.2, theta=math.pi / 100, delta=0.803, phi0=0.0)
        got = h_rotating(p, 0.0)
        ref = assemble_by_hand(1.0, 0.2, math.pi / 100, 0.0, 0.803, 0.0)
        np.testing.assert_allclose(got, ref, atol=1e-15)

    def test_matches_hand_assembly_random(self):
        for _ in range(10):
            d = float(RNG.uniform(0.5, 2.0))
            om = float(RNG.uniform(-2, 2))
            th = float(RNG.uniform(0, math.pi))
            phi0 = float(RNG.uniform(0, 2 * math.pi))
            de = float(RNG.uniform(-1, 1))
            t = float(RNG.uniform(0, 50))
            p = RotorParams(omega=om, theta=th, d=d, phi0=phi0, delta=de)
            np.testing.assert_allclose(
                h_rotating(p, t), assemble_by_hand(d, om, th, phi0, de, t),
                atol=1e-14)

    def test_array_of_times_matches_hand_assembly(self):
        for _ in range(5):
            d = float(RNG.uniform(0.5, 2.0))
            om = float(RNG.uniform(-2, 2))
            th = float(RNG.uniform(0, math.pi))
            phi0 = float(RNG.uniform(0, 2 * math.pi))
            de = float(RNG.uniform(-1, 1))
            ts = RNG.uniform(0, 50, size=(4, 3))
            p = RotorParams(omega=om, theta=th, d=d, phi0=phi0, delta=de)
            got = h_rotating(p, ts)
            assert got.shape == (4, 3, 3, 3)
            for k in np.ndindex(ts.shape):
                np.testing.assert_allclose(
                    got[k], assemble_by_hand(d, om, th, phi0, de, ts[k]),
                    atol=1e-14)

    def test_hermitian_and_periodic(self):
        for _ in range(10):
            p = RotorParams(omega=float(RNG.uniform(0.1, 2)),
                            theta=float(RNG.uniform(0, math.pi)),
                            delta=float(RNG.uniform(-1, 1)))
            t = float(RNG.uniform(0, 20))
            h = h_rotating(p, t)
            assert hermiticity_defect(h) <= 1e-12
            assert np.abs(h - h_rotating(p, t + p.period)).max() <= 1e-12

    def test_trace_is_twice_splitting(self):
        p = RotorParams(omega=0.6, theta=1.0, d=1.3, delta=0.4)
        assert np.trace(h_rotating(p, 1.7)).real == pytest.approx(2.6, abs=1e-12)

    def test_azimuth_shift_is_a_z_rotation(self):
        p1 = RotorParams(omega=0.5, theta=0.9, phi0=0.3)
        p2 = p1.with_(phi0=1.4)
        u = spin1_exp([0.0, 0.0, 1.0], 1.4 - 0.3)
        conj = u.conj().T @ h_rotating(p1, 0.0) @ u
        e1 = np.linalg.eigvalsh(conj)
        e2 = np.linalg.eigvalsh(h_rotating(p2, 0.0))
        np.testing.assert_allclose(e1, e2, atol=1e-12)


class TestInteractionFrame:
    def test_explicit_right_angle_matrix(self):
        p = RotorParams(omega=1.0, theta=math.pi / 2)
        h = h_interaction(p)
        np.testing.assert_allclose(np.diag(h).real, [1.0, 0.0, 1.0], atol=1e-12)
        # couplings are -Omega/2 with Omega = sqrt(2) at these parameters
        assert h[0, 1] == pytest.approx(-math.sqrt(2) / 2, abs=1e-12)

    def test_theta_zero_diagonal(self):
        p = RotorParams(omega=0.4, theta=0.0)
        np.testing.assert_allclose(h_interaction(p), np.diag([0.6, 0.0, 1.4]),
                                   atol=1e-12)

    def test_trace(self):
        p = RotorParams(omega=0.77, theta=2.0, d=0.9)
        assert np.trace(h_interaction(p)).real == pytest.approx(1.8, abs=1e-12)

    def test_rejects_field(self):
        with pytest.raises(InvalidArgumentError):
            h_interaction(RotorParams(omega=0.4, theta=0.1, delta=0.2))

    @pytest.mark.parametrize("axis, values", [
        ("omega", np.linspace(-2.0, 2.0, 41)),
        ("theta", np.linspace(0.0, math.pi, 37)),
    ])
    def test_sweep_stack_equals_the_single_matrices_bit_for_bit(self, axis,
                                                               values):
        p = RotorParams(omega=0.8, theta=1.1, d=1.3, phi0=2.5)
        stack = h_interaction(p, axis, values)
        assert stack.shape == (len(values), 3, 3)
        for h, v in zip(stack, values):
            one = h_interaction(p.with_(**{axis: float(v)}))
            assert np.array_equal(h.view(np.int64), one.view(np.int64))
        with pytest.raises(InvalidArgumentError):
            h_interaction(p, "delta", values)


class TestAdiabaticEffective:
    """The slow-rotation effective Hamiltonian is the static part at zero
    field: the splitting plus the rotation-induced level shift."""

    def test_theta_zero(self):
        p = RotorParams(omega=0.3, theta=0.0)
        np.testing.assert_allclose(static_part(p), SZ2, atol=1e-15)

    def test_theta_pi(self):
        p = RotorParams(omega=0.3, theta=math.pi)
        np.testing.assert_allclose(static_part(p),
                                   np.diag([1.6, 0.0, 0.4]), atol=1e-12)

    def test_slow_rotation_matches_full_levels(self):
        # the diagonal effective levels sit one harmonic away from the
        # co-rotating-frame quasi-energies of the m = +/-1 branches
        from rotorspin.floquet import quasienergies_zero_field
        p = RotorParams(omega=1e-3, theta=math.pi / 3)
        approx = np.sort(np.diag(static_part(p)).real)
        lam = {lab: v for lab, v, _ in quasienergies_zero_field(p)}
        full = np.sort([lam["m0"],
                        lam["m+1"] + p.omega,
                        lam["m-1"] - p.omega])
        np.testing.assert_allclose(approx, full, atol=1e-5)


class TestStaticDriveSplit:
    def test_harmonic_sum_shape_and_hermiticity(self):
        rng = np.random.default_rng(3)
        a0 = np.diag([1.0, 0.0, -2.0]).astype(complex)
        a_minus = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        ts = rng.uniform(0, 10, size=(2, 5))
        got = harmonic_sum(a0, a_minus, 0.7, ts)
        assert got.shape == (2, 5, 3, 3)
        for k in np.ndindex(ts.shape):
            ph = np.exp(-0.7j * ts[k])
            ref = a0 + ph * a_minus + np.conj(ph) * a_minus.conj().T
            np.testing.assert_allclose(got[k], ref, atol=1e-14)
            assert hermiticity_defect(got[k]) == 0.0
        assert harmonic_sum(a0, a_minus, 0.7, 1.3).shape == (3, 3)

    def test_static_plus_drive_reassembles(self):
        p = RotorParams(omega=0.5, theta=0.8, delta=0.3, phi0=0.6)
        t = 2.2
        b = drive_amplitude(p)
        rebuilt = (static_part(p)
                   + b * np.exp(-1j * p.omega * t)
                   + b.conj().T * np.exp(1j * p.omega * t))
        np.testing.assert_allclose(rebuilt, h_rotating(p, t), atol=1e-13)


class TestSmallAngle:
    def test_scales_at_theta_zero(self):
        sc = derived_scales(RotorParams(omega=0.4, theta=0.0, delta=0.5))
        assert sc.rabi == 0.0
        assert sc.d_tilde == pytest.approx(1.0)
        assert sc.delta_tilde == pytest.approx(0.5)

    def test_rabi_vanishes_at_poles(self):
        for th in (0.0, math.pi):
            assert derived_scales(RotorParams(omega=1.0, theta=th)).rabi \
                == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("p", [RotorParams(omega=0.2, theta=0.3, delta=1.0),
                                   RotorParams(omega=0.2, theta=0.3, delta=-1.0),
                                   # d^2 underflows to 0 = delta^2
                                   RotorParams(omega=1e-310, theta=0.3, d=1e-300)])
    def test_scales_refuse_their_pole(self, p):
        with pytest.raises(RegimeError, match="d\\^2 = delta\\^2"):
            derived_scales(p)
        assert rabi_frequency(p) == math.sqrt(2.0) * abs(p.omega) * math.sin(p.theta)

    def test_resonance_residual_small_at_demo_point(self):
        sc = derived_scales(RotorParams(omega=0.2, theta=math.pi / 100, delta=0.803))
        assert abs(sc.d_tilde - sc.delta_tilde - 0.2) <= 3e-3

    def test_regime_guard(self):
        small_angle_guard(1.0, 0.5, 0.05)
        with pytest.raises(RegimeError):
            small_angle_guard(1.0, 0.5, 0.2)
        with pytest.raises(RegimeError):
            small_angle_guard(1.0, 1.5, 0.01)


class TestPeriod:
    def test_a_period_past_the_float64_range_is_none(self):
        # 2 pi / |omega| overflows below about 3.5e-308, however small the
        # levels, whose rounding alone flags nothing here
        p = RotorParams(omega=-5e-324, theta=0.3, d=5e-324)
        assert without_period(p)
        with pytest.raises(NumericFailureError, match="period .* overflows"):
            period_guard(p)
        assert not without_period(p.with_(omega=1e-300))
        values = [-5e-324, 3e-308, 4e-308, 1.0]
        for axis, q in (("omega", p), ("delta", p.with_(omega=3e-308))):
            np.testing.assert_array_equal(
                without_period(q, axis, values),
                [without_period(q.with_(**{axis: v})) for v in values])
        np.testing.assert_array_equal(without_period(p, "omega", values),
                                      [True, True, False, False])
        # numpy scalars are stored as floats: no numpy overflow warning
        # comes before the error
        q = RotorParams(omega=np.float64(1e-323), theta=0.3, d=5e-324,
                        delta=5e-324)
        assert all(type(v) is float for v in q)
        with pytest.raises(NumericFailureError, match="period .* overflows"):
            period_guard(q)

    def test_rounding_keeps_its_message(self):
        with pytest.raises(NumericFailureError,
                           match="below the rounding of the levels"):
            period_guard(RotorParams(omega=1e-310, theta=0.3))
