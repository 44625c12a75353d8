import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eig_banded

from rotorspin.errors import InvalidArgumentError, NoCrossingError, TrackingError
from rotorspin.floquet import (
    LABELS,
    _best_permutation,
    auto_harmonics,
    avoided_crossing,
    cubic_quasienergies,
    floquet_matrix,
    fold,
    physical_modes,
    quasienergies_zero_field,
    quasienergy_spectrum,
)
from rotorspin.model import RotorParams, drive_amplitude, h_interaction, static_part
from rotorspin.spin_algebra import hermitian_eigensystem, hermiticity_defect

RNG = np.random.default_rng(99)


def fold_dist(a, b, omega):
    w = abs(omega)
    d = (a - b) % w
    return min(d, w - d)


class TestCubic:
    def test_static_limit_roots(self):
        np.testing.assert_allclose(cubic_quasienergies(1.0, 0.0, 0.7),
                                   [0.0, 1.0, 1.0], atol=1e-12)

    def test_axis_aligned_roots(self):
        np.testing.assert_allclose(cubic_quasienergies(1.0, 0.4, 0.0),
                                   [0.0, 0.6, 1.4], atol=1e-12)

    def test_roots_match_eigensolver(self):
        p = RotorParams(omega=0.7, theta=1.1)
        roots = cubic_quasienergies(1.0, 0.7, 1.1)
        vals = hermitian_eigensystem(h_interaction(p)).values
        np.testing.assert_allclose(roots, vals, atol=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(omega=st.floats(0.0, 3.0), theta=st.floats(0.0, math.pi))
    def test_vieta_identities(self, omega, theta):
        r = cubic_quasienergies(1.0, omega, theta)
        assert r.sum() == pytest.approx(2.0, abs=1e-10)
        pairwise = r[0] * r[1] + r[0] * r[2] + r[1] * r[2]
        assert pairwise == pytest.approx(1.0 - omega**2, abs=1e-10)
        assert r.prod() == pytest.approx(-omega**2 * math.sin(theta)**2,
                                         abs=1e-10)


class TestBestPermutation:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_linear_sum_assignment(self, seed):
        from scipy.optimize import linear_sum_assignment

        # continuous draws: no two permutations tie in total score
        score = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 3))
        perm = _best_permutation(score)
        rows, cols = linear_sum_assignment(score, maximize=True)
        assert sorted(perm) == [0, 1, 2]
        np.testing.assert_array_equal(perm[rows], cols)
        assert score[np.arange(3), perm].sum() == score[rows, cols].sum()


class TestZeroFieldBranches:
    def test_labels_follow_spin_character(self):
        p = RotorParams(omega=0.3, theta=0.4)
        for lab, _, vec in quasienergies_zero_field(p):
            spin = {"m+1": 0, "m0": 1, "m-1": 2}[lab]
            assert np.abs(vec[spin])**2 > 0.5

    def test_rejects_field(self):
        with pytest.raises(InvalidArgumentError):
            quasienergies_zero_field(RotorParams(omega=0.3, theta=0.4, delta=0.1))

    def test_direction_reversal_swaps_side_branches(self):
        p = RotorParams(omega=0.6, theta=0.9)
        lam_fwd = {lab: v for lab, v, _ in quasienergies_zero_field(p)}
        lam_rev = {lab: v for lab, v, _ in
                   quasienergies_zero_field(p.with_(omega=-0.6))}
        assert lam_fwd["m+1"] == pytest.approx(lam_rev["m-1"], abs=1e-10)
        assert lam_fwd["m-1"] == pytest.approx(lam_rev["m+1"], abs=1e-10)
        assert lam_fwd["m0"] == pytest.approx(lam_rev["m0"], abs=1e-10)


class TestHarmonicMatrix:
    def test_hermitian(self):
        p = RotorParams(omega=0.5, theta=0.8, delta=0.3, phi0=0.4)
        assert hermiticity_defect(floquet_matrix(p, 6)) <= 1e-12

    def test_axis_aligned_block_diagonal_spectrum(self):
        p = RotorParams(omega=0.5, theta=0.0, delta=0.2)
        n = 3
        f = floquet_matrix(p, n)
        vals = np.sort(np.linalg.eigvalsh(f))
        a_vals = np.linalg.eigvalsh(static_part(p))
        expected = np.sort(np.concatenate(
            [a_vals + k * p.omega for k in range(-n, n + 1)]))
        np.testing.assert_allclose(vals, expected, atol=1e-10)

    def test_contains_folded_cubic_roots(self):
        p = RotorParams(omega=0.5, theta=math.pi / 4)
        roots = cubic_quasienergies(1.0, 0.5, math.pi / 4)
        quasi = physical_modes(p, 8).quasi
        for r in fold(roots, p.omega):
            assert min(fold_dist(r, q, p.omega) for q in quasi) <= 1e-9

    def test_rejects_zero_frequency(self):
        with pytest.raises(InvalidArgumentError):
            floquet_matrix(RotorParams(omega=0.0, theta=0.1), 4)

    def test_equals_block_by_block_build(self):
        def reference(p, n):
            a, b = static_part(p), drive_amplitude(p)
            f = np.zeros((3 * (2 * n + 1), 3 * (2 * n + 1)), dtype=complex)
            for i, k in enumerate(range(-n, n + 1)):
                f[3 * i:3 * i + 3, 3 * i:3 * i + 3] = a + k * p.omega * np.eye(3)
                if i < 2 * n:
                    f[3 * i + 3:3 * i + 6, 3 * i:3 * i + 3] = b.conj().T
                    f[3 * i:3 * i + 3, 3 * i + 3:3 * i + 6] = b
            return f

        rng = np.random.default_rng(5)
        for _ in range(50):
            p = RotorParams(omega=float(rng.choice([-1, 1]) * rng.uniform(0.01, 3)),
                            theta=float(rng.uniform(0, math.pi)),
                            phi0=float(rng.uniform(-5, 5)),
                            delta=float(rng.uniform(-1, 1)),
                            d=float(rng.uniform(0.5, 2)))
            n = int(rng.integers(1, 40))
            # bit for bit, signed zeros included
            assert np.array_equal(floquet_matrix(p, n).view(np.int64),
                                  reference(p, n).view(np.int64))


def circ_worst(got, ref, omega):
    """Largest folded distance from a value in `got` to its nearest value
    in `ref`."""
    return max(min(fold_dist(g, r, omega) for r in ref) for g in got)


def banded_quasienergies(p, n):
    """Eigenvalues of the harmonic matrix at truncation n that lie within
    2|omega| of the static levels, by LAPACK's banded solver: no mode pick,
    and a solver of its own. Each true quasi-energy has a copy among them;
    at n = 160 at most 3 (2n + 1) = 963 of them fold into a window
    |omega| >= 0.01 wide, so a value off by more than 1e-12 meets a stray
    one within 1e-12 with odds below 1e-6."""
    f = floquet_matrix(p, n)
    band = np.array([np.concatenate([np.diagonal(f, -k), np.zeros(k)])
                     for k in range(6)])
    vals = eig_banded(band, lower=True, eigvals_only=True)
    levels = np.linalg.eigvalsh(static_part(p))
    w = abs(p.omega)
    return vals[(vals > levels.min() - 2 * w) & (vals < levels.max() + 2 * w)]


class TestAutoHarmonics:
    def test_modes_are_those_at_the_converged_truncation(self):
        for p in (RotorParams(omega=0.5, theta=0.3, delta=0.3),
                  RotorParams(omega=-0.2, theta=math.pi / 100, delta=0.803)):
            ms, edge = auto_harmonics(p)
            ref = physical_modes(p, ms.n_harmonics)
            assert edge == ms.edge_weight <= 1e-14
            # the certified modes stay put when the truncation doubles
            doubled = physical_modes(p, 2 * ms.n_harmonics)
            assert circ_worst(ms.quasi, doubled.quasi, p.omega) < 1e-9
            for name in ("quasi", "fourier", "weights", "mode0"):
                np.testing.assert_array_equal(getattr(ms, name),
                                              getattr(ref, name))

    def test_large_edge_weight_doubles_the_truncation(self):
        p = RotorParams(omega=0.3, theta=1.4, delta=0.9)
        assert physical_modes(p, 12).edge_weight > 1e-14
        ms, edge = auto_harmonics(p)
        assert ms.n_harmonics == 24
        assert edge <= 1e-14

    def test_matches_a_160_harmonic_reference(self):
        # 44 points: |omega| log-uniform in [0.01, 3] of both signs, theta
        # uniform in [0, pi] and, for every fourth point, within 0.05 of
        # pi/2, where the drive over the harmonic spacing is largest
        rng = np.random.default_rng(1811)
        worst = worst_picked = 0.0
        for i in range(44):
            omega = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-2.0, math.log10(3.0))
            theta = (math.pi / 2 + rng.uniform(-0.05, 0.05) if i % 4 == 0
                     else rng.uniform(0.0, math.pi))
            p = RotorParams(omega=float(omega), theta=float(theta),
                            delta=float(rng.uniform(-2.0, 2.0)))
            quasi = auto_harmonics(p)[0].quasi
            worst = max(worst, circ_worst(quasi, banded_quasienergies(p, 160),
                                          p.omega))
            if i in (0, 2):
                # and the three modes physical_modes picks at N = 160, near
                # pi/2 and at a generic angle
                ref = physical_modes(p, 160).quasi
                worst_picked = max(worst_picked,
                                   circ_worst(quasi, ref, p.omega),
                                   circ_worst(ref, quasi, p.omega))
        assert worst <= 1e-12
        assert worst_picked <= 1e-12


class TestSpectrumSweep:
    def test_axis_aligned_branches_linear(self):
        values = np.linspace(0.0, 1.2, 25)
        sp = quasienergy_spectrum(RotorParams(omega=0.0, theta=0.0), "omega",
                                  values)
        np.testing.assert_allclose(sp.branch("m0").quasienergy,
                                   np.zeros_like(values), atol=1e-10)
        np.testing.assert_allclose(sp.branch("m+1").quasienergy, 1.0 - values,
                                   atol=1e-10)
        np.testing.assert_allclose(sp.branch("m-1").quasienergy, 1.0 + values,
                                   atol=1e-10)

    def test_mode_norms_and_lengths(self):
        values = np.linspace(0.0, 1.0, 15)
        sp = quasienergy_spectrum(RotorParams(omega=0.0, theta=0.2), "omega",
                                  values)
        for lab in LABELS:
            b = sp.branch(lab)
            assert len(b.quasienergy) == len(values)
            norms = np.linalg.norm(b.mode0, axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    def test_field_sweep_crosses_near_design_point(self):
        # branches m0 and m+1 approach each other near the compensated
        # resonance frequency
        values = np.linspace(0.1, 0.3, 41)
        sp = quasienergy_spectrum(
            RotorParams(omega=0.1, theta=math.pi / 100, delta=0.803),
            "omega", values)
        gap = np.abs(sp.branch("m0").quasienergy - sp.branch("m+1").quasienergy)
        i = int(np.argmin(gap))
        assert 0 < i < len(values) - 1
        assert abs(values[i] - 0.2) < 0.02

    def test_field_sweep_eigensolves_per_point(self, monkeypatch):
        # automatic truncation: one solve at N = 12, whose edge weight
        # certifies it, and whose modes are the point's modes
        count = 0
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            nonlocal count
            if np.shape(a)[-1] > 3:
                count += 1
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        values = np.linspace(0.3, 0.8, 11)
        quasienergy_spectrum(RotorParams(omega=0.5, theta=0.3, delta=0.3),
                             "omega", values)
        assert count == len(values)

    @pytest.mark.parametrize("lo, hi, points", [
        (-0.5, 0.5, 11), (-0.5, 0.5, 10), (0.0, 0.5, 11), (-0.5, 0.0, 6)])
    def test_field_sweep_through_zero_omega_rejected(self, lo, hi, points):
        # the folded copies' spacing |omega| vanishes at omega = 0, so the
        # unfolded copy depended on the grid (m-1 at omega = 0.5 read
        # 1.2736 or 0.7736)
        p = RotorParams(omega=0.5, theta=0.3, delta=0.3)
        with pytest.raises(TrackingError):
            quasienergy_spectrum(p, "omega", np.linspace(lo, hi, points))

    def test_field_sweep_of_one_sign_and_zero_field_from_zero_allowed(self):
        p = RotorParams(omega=0.5, theta=0.3, delta=0.3)
        sp = quasienergy_spectrum(p, "omega", np.linspace(0.05, 0.5, 10))
        assert sp.branch("m-1").quasienergy[-1] == pytest.approx(1.7736,
                                                                  abs=1e-4)
        quasienergy_spectrum(p.with_(delta=0.0), "omega",
                             np.linspace(0.0, 0.5, 11))

    def last_values(self, lo, hi, points):
        p = RotorParams(omega=0.5, theta=0.3, delta=0.3)
        sp = quasienergy_spectrum(p, "omega", np.linspace(lo, hi, points))
        return np.array([sp.branch(lab).quasienergy[-1] for lab in LABELS])

    def test_unfolding_independent_of_a_tiny_first_omega(self):
        # copies lie only 0.001 apart at the first point, so which copy a
        # branch reaches at omega = 0.5 must not follow from the first steps
        np.testing.assert_allclose(self.last_values(0.001, 0.5, 50),
                                   self.last_values(0.05, 0.5, 10),
                                   rtol=0, atol=1e-12)

    def test_unfolding_independent_of_the_grid_at_negative_omega(self):
        ref = self.last_values(-0.5, -0.05, 10)
        for points in (12, 19):
            np.testing.assert_allclose(self.last_values(-0.5, -0.05, points),
                                       ref, rtol=0, atol=1e-12)

    def test_branch_continues_straight_as_omega_approaches_zero(self):
        # near the end the step in m-1 (0.037) exceeds half the copy spacing
        # |omega|, so the copy nearest the previous value lies one copy down
        p = RotorParams(omega=-1.0, theta=0.3, delta=0.3)
        sp = quasienergy_spectrum(p, "omega", np.linspace(-1.2, -0.05, 61))
        assert np.all(np.diff(sp.branch("m-1").quasienergy[-10:]) > 0)

    def test_rejects_unsorted_axis(self):
        with pytest.raises(InvalidArgumentError):
            quasienergy_spectrum(RotorParams(omega=0.0, theta=0.1), "omega",
                                 [0.5, 0.2])

    def test_start_inside_mixed_near_degeneracy_fails(self):
        # at a vanishing tilt the compensated crossing becomes nearly exact
        # while the states stay fully mixed, so labeling cannot start there
        p = RotorParams(omega=0.2, theta=1e-6, delta=0.8)
        with pytest.raises(TrackingError):
            quasienergy_spectrum(p, "omega", np.linspace(0.2, 0.21, 5),
                                 n_harmonics=12)


class TestAvoidedCrossing:
    def test_zero_field_resonance_location_and_gap(self):
        th = math.pi / 20
        rep = avoided_crossing(RotorParams(omega=1.0, theta=th),
                               ("m0", "m+1"), (0.9, 1.15))
        assert rep.omega_res == pytest.approx(1.0 / math.cos(th), rel=2e-2)
        assert rep.gap == pytest.approx(math.sqrt(2) * rep.omega_res
                                        * math.sin(th), rel=1e-2)

    def test_uncoupled_crossing_raises(self):
        with pytest.raises(NoCrossingError):
            avoided_crossing(RotorParams(omega=1.0, theta=0.0),
                             ("m0", "m+1"), (0.9, 1.1))

    def test_no_minimum_in_window_raises(self):
        with pytest.raises(NoCrossingError):
            avoided_crossing(RotorParams(omega=1.0, theta=math.pi / 20),
                             ("m0", "m+1"), (0.2, 0.5))

    def test_second_order_gap_on_tilt_axis(self):
        rep = avoided_crossing(RotorParams(omega=0.05, theta=math.pi / 2),
                               ("m+1", "m-1"),
                               (math.pi / 2 - 0.3, math.pi / 2 + 0.3),
                               axis="theta")
        assert rep.gap == pytest.approx(0.05**2, rel=0.1)


class TestFold:
    def test_window_membership(self):
        x = RNG.uniform(-10, 10, size=50)
        f = fold(x, 0.7)
        assert np.all(f >= -0.35) and np.all(f < 0.35)

    def test_folding_is_idempotent(self):
        x = RNG.uniform(-10, 10, size=50)
        np.testing.assert_allclose(fold(fold(x, 0.7), 0.7), fold(x, 0.7),
                                   atol=1e-12)

    def test_shift_by_frequency_invariant(self):
        x = RNG.uniform(-3, 3, size=20)
        np.testing.assert_allclose(fold(x + 0.7, 0.7), fold(x, 0.7), atol=1e-12)
