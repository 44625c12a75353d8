import math

import numpy as np
import pytest

from rotorspin import floquet, sensing
from rotorspin.errors import DivergenceError, InvalidArgumentError, RegimeError
from rotorspin.floquet import (_pair_members, avoided_crossing,
                               cubic_quasienergies, fold)
from rotorspin.model import RotorParams, derived_scales
from rotorspin.sensing import (
    _small_angle_root,
    angle_uncertainty,
    resonant_field,
    resonant_omega,
)

TH = math.pi / 100
BOUNDARY_OMEGA = 1.0 / math.cos(TH)  # zero-field resonance: the field is ~0


def crossing_residual(theta, omega, delta, branch="plus"):
    """Distance from omega of the crossing centre at the given field, from
    an avoided_crossing scan of its own (window +/-15 %, 65 points)."""
    pair = ("m0", "m+1") if branch == "plus" else ("m0", "m-1")
    p = RotorParams(omega=omega, theta=theta, delta=delta)
    window = sorted((0.85 * omega, 1.15 * omega))
    rep = avoided_crossing(p, pair, window, axis="omega", points=65)
    return abs(rep.omega_res - omega)


class TestResonantOmega:
    def test_upright(self):
        assert resonant_omega(0.0) == pytest.approx(1.0)

    def test_sixty_degrees(self):
        assert resonant_omega(math.pi / 3) == pytest.approx(2.0)

    def test_minus_branch_sign(self):
        assert resonant_omega(math.pi / 3, branch="minus") == pytest.approx(-2.0)

    def test_diverges_at_right_angle(self):
        with pytest.raises(DivergenceError):
            resonant_omega(math.pi / 2)

    def test_rejects_unknown_branch(self):
        with pytest.raises(InvalidArgumentError):
            resonant_omega(0.1, branch="both")


class TestResonantField:
    def test_upright_is_linear(self):
        sol = resonant_field(0.0, 0.2)
        assert sol.value == pytest.approx(0.8)
        assert sol.residual == 0.0

    def test_upright_minus_branch_out_of_range(self):
        with pytest.raises(RegimeError):
            resonant_field(0.0, 0.2, branch="minus")

    def test_upright_minus_branch_matches_small_tilt(self):
        # the 0 <-> -1 condition d + delta = -omega at theta = 0
        upright = resonant_field(0.0, -1.2, branch="minus")
        tilted = resonant_field(1e-3, -1.2, branch="minus")
        assert upright.value == pytest.approx(0.2, abs=1e-12)
        assert abs(upright.value - tilted.value) <= 1e-5

    def test_upright_minus_branch_without_field_solution(self):
        with pytest.raises(RegimeError):
            resonant_field(0.0, -0.2, branch="minus")

    @pytest.mark.parametrize("omega", [1e308, -1e308])
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_no_field_where_the_small_angle_cubic_overflows(self, omega,
                                                            branch):
        with pytest.raises(RegimeError, match="no resonant field"):
            resonant_field(0.02, omega, branch=branch)

    @pytest.mark.parametrize("theta, omega, expected", [
        (TH, 0.2, 0.8039254113815276),
        (0.01, 0.25, 0.7502915336680831),
        (TH, BOUNDARY_OMEGA, 4.062590025795703e-08),
    ])
    def test_small_angle_root_pinned(self, theta, omega, expected):
        root = _small_angle_root(theta, omega, "plus", 1.0)
        assert root == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("theta, omega, branch", [
        (TH, 0.2, "plus"), (0.01, 0.25, "plus"), (0.02, 0.3, "plus"),
        (0.01, -1.2, "minus"),
    ])
    def test_small_angle_root_zeroes_the_condition(self, theta, omega, branch):
        root = _small_angle_root(theta, omega, branch, 1.0)
        sc = derived_scales(RotorParams(omega=omega, theta=theta, delta=root))
        if branch == "plus":
            residual = sc.d_tilde - sc.delta_tilde - omega
        else:
            residual = sc.d_tilde + sc.delta_tilde + omega
        assert abs(residual) <= 1e-13

    def test_small_angle_solution_without_refinement(self):
        root = _small_angle_root(math.pi / 100, 0.2, "plus", 1.0)
        assert root == pytest.approx(0.803, rel=5e-3)

    def test_refined_solution_and_residual(self):
        sol = resonant_field(math.pi / 100, 0.2)
        assert sol.value == pytest.approx(0.803, rel=5e-3)
        assert sol.residual <= 1e-6

    @pytest.mark.parametrize("theta, omega, expected", [
        (TH, 0.2, 0.8039018799055538),
        (0.01, 0.25, 0.7502929553324993),
        (TH, BOUNDARY_OMEGA, 0.00024425105322505703),
    ])
    def test_refined_field_pinned_with_own_residual(self, theta, omega, expected):
        sol = resonant_field(theta, omega)
        assert sol.value == pytest.approx(expected, abs=1e-8)
        assert sol.residual <= 1e-6
        assert crossing_residual(theta, omega, sol.value) <= 1e-6

    def test_minus_branch_at_negative_omega(self):
        sol = resonant_field(0.01, -1.2, branch="minus")
        assert sol.value == pytest.approx(0.1999083, abs=1e-6)
        assert sol.residual <= 1e-6
        assert crossing_residual(0.01, -1.2, sol.value, "minus") <= 1e-6

    @pytest.mark.parametrize("theta, omega, branch", [
        (TH, 0.2, "plus"), (0.01, 0.25, "plus"), (TH, BOUNDARY_OMEGA, "plus"),
        (0.01, -1.2, "minus"),
    ])
    @pytest.mark.parametrize("shift", [1e-4, 1e-3])
    def test_residual_formula_off_the_solution(self, theta, omega, branch, shift):
        # the residual |w_i - w_j| sep of a pair member, away from the solved
        # field, against the crossing centre that a scan along omega finds;
        # it must hold for both members, whichever one the solve keeps
        delta = resonant_field(theta, omega, branch).value + shift
        p = RotorParams(omega=omega, theta=theta, delta=delta)
        pair = ("m0", "m+1") if branch == "plus" else ("m0", "m-1")
        sep, w = _pair_members(p, pair)
        offsets = np.abs(w[:, 0] - w[:, 1]) * sep
        scanned = crossing_residual(theta, omega, delta, branch)
        assert np.abs(offsets / scanned - 1.0).max() <= 0.1

    @pytest.mark.parametrize("omega, root", [
        (-BOUNDARY_OMEGA, 0.0),
        (-BOUNDARY_OMEGA - 1e-4, 9.995935933014933e-05),
    ])
    def test_no_positive_compensating_field_raises(self, omega, root):
        # the 0 <-> -1 crossing needs a small negative field here, while
        # the small-angle root is clamped to 0 or lies just above it
        assert _small_angle_root(TH, omega, "minus", 1.0) \
            == pytest.approx(root, abs=1e-12)
        with pytest.raises(RegimeError, match="no resonant field"):
            resonant_field(TH, omega, "minus")

    def test_refinement_eigensolve_count(self, monkeypatch):
        count = 0
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            nonlocal count
            if np.shape(a)[-1] > 3:
                count += 1
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        resonant_field(TH, 0.2)
        assert 0 < count <= 12

    def test_consistency_with_zero_field_resonance(self):
        th = math.pi / 100
        sol = resonant_field(th, 1.0 / math.cos(th))
        assert abs(sol.value) <= 2e-3

    def test_large_tilt_rejected(self):
        with pytest.raises(RegimeError):
            resonant_field(1.0, 0.2)


class TestAngleUncertainty:
    def test_reference_value(self):
        assert angle_uncertainty(1.0, 0.0, 0.01) \
            == pytest.approx(0.01 / math.sqrt(2))

    def test_inverse_in_frequency(self):
        a = angle_uncertainty(1.0, 0.0, 0.01)
        b = angle_uncertainty(2.0, 0.0, 0.01)
        assert b == pytest.approx(a / 2)

    def test_sixty_degrees(self):
        assert angle_uncertainty(1.0, math.pi / 3, 0.01) \
            == pytest.approx(0.0141421, rel=1e-4)

    def test_monotone_in_tilt(self):
        thetas = np.linspace(0.0, math.pi / 2 - 0.01, 50)
        vals = [angle_uncertainty(1.0, float(t), 0.01) for t in thetas]
        assert np.all(np.diff(vals) >= 0)

    def test_diverges_at_right_angle(self):
        with pytest.raises(DivergenceError):
            angle_uncertainty(1.0, math.pi / 2, 0.01)

    def test_rejects_zero_frequency(self):
        with pytest.raises(InvalidArgumentError):
            angle_uncertainty(0.0, 0.1, 0.01)

    @pytest.mark.parametrize("omega, theta", [(1e-320, 0.2), (5e-324, 1.5707)],
                             ids=["overflow", "underflowing-denominator"])
    def test_non_finite_quotient_diverges(self, omega, theta):
        with pytest.raises(DivergenceError):
            angle_uncertainty(omega, theta, 0.1)


@pytest.mark.parametrize("module, solve", [
    (sensing, lambda: resonant_field(TH, 0.2)),
    (floquet, lambda: avoided_crossing(RotorParams(omega=1.0, theta=math.pi / 20),
                                       ("m0", "m+1"), (0.9, 1.15))),
], ids=["resonant_field", "avoided_crossing"])
def test_no_point_solved_twice(monkeypatch, module, solve):
    seen = []

    def recording(p, pair):
        seen.append(p)
        return _pair_members(p, pair)

    monkeypatch.setattr(module, "_pair_members", recording)
    solve()
    assert 0 < len(seen) == len(set(seen))


@pytest.mark.parametrize("call, args, kwargs", [
    (resonant_field, (math.nan, 0.2), {}),
    (resonant_field, (0.01, math.inf), {}),
    (resonant_field, (4.0, 0.2), {}),
    (resonant_field, (0.01, 0.2), {"d": -1.0}),
    (resonant_omega, (0.3,), {"d": 0.0}),
    (resonant_omega, (math.nan,), {}),
    (angle_uncertainty, (0.2, math.nan, 0.1), {}),
    (angle_uncertainty, (math.inf, 0.2, 0.1), {}),
    (angle_uncertainty, (0.2, 4.0, 0.1), {}),
    (angle_uncertainty, (0.2, 0.2, math.inf), {}),
    (angle_uncertainty, (0.2, 0.2, math.nan), {}),
    (avoided_crossing, (RotorParams(omega=1.0, theta=0.3), ("m0", "m+1"),
                        (0.9, 1.1)), {"points": 0}),
    (avoided_crossing, (RotorParams(omega=1.0, theta=0.3), ("m0", "m+1"),
                        (0.9, 1.1)), {"points": 2}),
    (avoided_crossing, (RotorParams(omega=1.0, theta=0.3), ("m0", "m+1"),
                        (0.9, 1.1)), {"points": 5.5}),
    (cubic_quasienergies, (1.0, math.nan, 0.3), {}),
    (cubic_quasienergies, (1.0, math.inf, 0.3), {}),
    (cubic_quasienergies, (-1.0, 0.5, 0.3), {}),
    (cubic_quasienergies, (1.0, 0.5, 7.0), {}),
    (fold, (1.0, 0.0), {}),
    (fold, (1.0, math.inf), {}),
], ids=["field-nan-theta", "field-inf-omega", "field-theta-above-pi",
        "field-negative-d", "omega-zero-d", "omega-nan-theta",
        "uncertainty-nan-theta", "uncertainty-inf-omega",
        "uncertainty-theta-above-pi", "uncertainty-inf-rabi",
        "uncertainty-nan-rabi", "crossing-0-points", "crossing-2-points",
        "crossing-fractional-points", "cubic-nan-omega", "cubic-inf-omega",
        "cubic-negative-d", "cubic-theta-above-pi", "fold-zero-omega",
        "fold-inf-omega"])
def test_malformed_arguments_raise(call, args, kwargs):
    with pytest.raises(InvalidArgumentError):
        call(*args, **kwargs)
