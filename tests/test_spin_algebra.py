import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorspin.dynamics import evolve
from rotorspin.errors import InvalidArgumentError, NumericFailureError
from rotorspin.model import RotorParams
from rotorspin.spin_algebra import (
    SPIN,
    hermitian_eigensystem,
    hermiticity_defect,
    make_spin_operators,
    spin1_exp,
    unitarity_defect,
)

RNG = np.random.default_rng(20230817)


def random_unit_axis(rng=RNG):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def taylor_exponential(axis, angle, terms=30):
    """Truncated power series of exp(-i * angle * n.S), the reference for
    the closed-form rotation."""
    a = axis[0] * SPIN.sx + axis[1] * SPIN.sy + axis[2] * SPIN.sz
    acc = np.eye(3, dtype=complex)
    term = np.eye(3, dtype=complex)
    for k in range(1, terms):
        term = term @ (-1j * angle * a) / k
        acc = acc + term
    return acc


class TestOperators:
    def test_sz_diagonal(self):
        ops = make_spin_operators()
        assert np.array_equal(ops.sz, np.diag([1.0, 0.0, -1.0]))

    def test_sx_entries(self):
        ops = make_spin_operators()
        s = 1 / math.sqrt(2)
        expected = np.array([[0, s, 0], [s, 0, s], [0, s, 0]])
        np.testing.assert_allclose(ops.sx, expected, atol=1e-15)
        assert np.abs(np.diag(ops.sx)).max() == 0

    def test_commutator_algebra(self):
        ops = make_spin_operators()
        comm = ops.sx @ ops.sy - ops.sy @ ops.sx
        assert np.abs(comm - 1j * ops.sz).max() <= 1e-14

    def test_ladder_operators(self):
        ops = make_spin_operators()
        np.testing.assert_allclose(ops.s_plus, ops.sx + 1j * ops.sy, atol=1e-15)
        np.testing.assert_allclose(ops.s_minus, ops.s_plus.conj().T, atol=1e-15)


class TestRotation:
    def test_zero_angle_is_identity(self):
        for _ in range(5):
            u = spin1_exp(random_unit_axis(), 0.0)
            np.testing.assert_allclose(u, np.eye(3), atol=1e-14)

    def test_full_turn_is_identity(self):
        u = spin1_exp([0.0, 1.0, 0.0], 2 * math.pi)
        np.testing.assert_allclose(u, np.eye(3), atol=1e-12)

    def test_matches_taylor_series(self):
        for _ in range(20):
            n = random_unit_axis()
            angle = float(RNG.uniform(-6, 6))
            u = spin1_exp(n, angle)
            np.testing.assert_allclose(u, taylor_exponential(n, angle), atol=1e-12)

    def test_z_rotation_diagonal(self):
        alpha = 0.83
        u = spin1_exp([0.0, 0.0, 1.0], alpha)
        expected = np.diag(np.exp(-1j * alpha * np.array([1.0, 0.0, -1.0])))
        assert np.abs(u - expected).max() <= 1e-14

    def test_rejects_non_unit_axis(self):
        with pytest.raises(InvalidArgumentError):
            spin1_exp([1.0, 1.0, 0.0], 0.5)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), angle=st.floats(-10, 10))
    def test_inverse_rotation(self, seed, angle):
        n = random_unit_axis(np.random.default_rng(seed))
        prod = spin1_exp(n, angle) @ spin1_exp(n, -angle)
        assert np.abs(prod - np.eye(3)).max() <= 1e-12


class TestUnitarityDefect:
    def test_identity(self):
        assert unitarity_defect(np.eye(3)) == 0.0

    def test_exact_rotation(self):
        assert unitarity_defect(spin1_exp([0.0, 0.0, 1.0], 1.3)) <= 1e-14

    def test_scaled_identity(self):
        assert unitarity_defect(2.0 * np.eye(3)) == pytest.approx(3.0)


def random_hermitian(dim, rng=RNG):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


class TestEigensystem:
    def test_diagonal_input(self):
        es = hermitian_eigensystem(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(es.values, [1.0, 2.0, 3.0])
        perm = np.abs(es.vectors)
        np.testing.assert_allclose(perm @ perm.T, np.eye(3), atol=1e-12)

    def test_residual_random_12x12(self):
        for _ in range(5):
            a = random_hermitian(12)
            es = hermitian_eigensystem(a)
            residual = np.abs(a @ es.vectors - es.vectors * es.values).max()
            assert residual <= 1e-9 * max(1.0, np.abs(a).max())

    def test_values_ascending_and_orthonormal(self):
        a = random_hermitian(8)
        es = hermitian_eigensystem(a)
        assert np.all(np.diff(es.values) >= 0)
        gram = es.vectors.conj().T @ es.vectors
        assert np.abs(gram - np.eye(8)).max() <= 1e-10

    def test_trace_equals_value_sum(self):
        for _ in range(10):
            a = random_hermitian(6)
            es = hermitian_eigensystem(a)
            assert es.values.sum() == pytest.approx(np.trace(a).real, rel=1e-10,
                                                    abs=1e-10)

    def test_values_invariant_under_rotation_conjugation(self):
        a = random_hermitian(3)
        u = spin1_exp(random_unit_axis(), 1.1) @ spin1_exp([0, 0, 1.0], 0.4)
        b = u @ a @ u.conj().T
        b = (b + b.conj().T) / 2
        va = hermitian_eigensystem(a).values
        vb = hermitian_eigensystem(b).values
        np.testing.assert_allclose(va, vb, atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidArgumentError):
            hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(InvalidArgumentError):
            hermitian_eigensystem(np.zeros((2, 3)))

    def test_hermiticity_defect_reports_asymmetry(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert hermiticity_defect(a) == pytest.approx(1.0)


class TestStackedEigensystem:
    """A (k, n, n) stack is one eigh call that equals the k single calls
    bit for bit and is checked matrix by matrix."""

    def test_equals_the_single_matrix_calls_bit_for_bit(self):
        stack = np.stack([random_hermitian(3) for _ in range(40)])
        es = hermitian_eigensystem(stack)
        for k, a in enumerate(stack):
            one = hermitian_eigensystem(a)
            assert np.array_equal(es.values[k].view(np.int64),
                                  one.values.view(np.int64))
            assert np.array_equal(es.vectors[k].view(np.int64),
                                  one.vectors.view(np.int64))

    def test_empty_stack(self):
        es = hermitian_eigensystem(np.zeros((0, 3, 3)))
        assert es.values.shape == (0, 3) and es.vectors.shape == (0, 3, 3)

    @pytest.mark.parametrize("bad", [
        np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
        np.diag([1.0, math.nan, 0.0]),
        np.diag([1e308, 1.0, 0.0]),
        np.diag([math.inf, 1.0, 0.0]),
    ], ids=["non-hermitian", "nan", "no-headroom", "inf"])
    @pytest.mark.parametrize("at", [0, 3, 6])
    def test_first_bad_matrix_raises_its_own_error(self, bad, at):
        with pytest.raises((InvalidArgumentError, NumericFailureError)) as alone:
            hermitian_eigensystem(bad)
        stack = np.stack([random_hermitian(3) for _ in range(7)])
        stack[at] = bad
        if at < 6:
            stack[6] = np.diag([math.inf, 0.0, 0.0])  # a later failure
        with pytest.raises(type(alone.value)) as got:
            hermitian_eigensystem(stack)
        assert str(got.value) == str(alone.value)
        assert got.value.index == at

    def test_residual_is_checked_per_matrix(self, monkeypatch):
        # an eigensolver that returns a wrong value for the third matrix
        eigh = np.linalg.eigh

        def shifted(a):
            values, vectors = eigh(a)
            values[2:, 0] += 1.0
            return values, vectors

        stack = np.stack([random_hermitian(3) for _ in range(5)])
        stack[4] = [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        monkeypatch.setattr(np.linalg, "eigh", shifted)
        with pytest.raises(NumericFailureError,
                           match="eigen-decomposition residual") as got:
            hermitian_eigensystem(stack)
        assert got.value.index == 2

    def test_rejects_a_stack_of_non_square_matrices(self):
        with pytest.raises(InvalidArgumentError):
            hermitian_eigensystem(np.zeros((4, 2, 3)))


@pytest.mark.parametrize("call", [
    lambda: evolve(RotorParams(omega=0.2, theta=0.3), [math.nan, 0.0, 0.0], 10.0),
    lambda: spin1_exp([math.nan, 0.0, 0.0], 0.3),
    lambda: spin1_exp([1.0, 0.0, 0.0], math.nan),
    lambda: spin1_exp([1.0, 0.0, 0.0], math.inf),
    lambda: hermitian_eigensystem(np.diag([1.0, math.nan, 0.0])),
    lambda: hermitian_eigensystem(np.array([[0.0, math.nan], [math.nan, 0.0]])),
], ids=["evolve-psi0", "spin1_exp-axis", "spin1_exp-angle", "spin1_exp-inf-angle",
        "eigensystem-diagonal", "eigensystem-off-diagonal"])
def test_nan_input_is_refused(call):
    # a comparison with NaN is false, so each check is written to pass only
    # a value it accepts
    with pytest.raises(InvalidArgumentError):
        call()
