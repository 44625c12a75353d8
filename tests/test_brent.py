"""The local Brent solvers against SciPy, which serves only as an oracle:
both follow SciPy's `brentq` and bounded `minimize_scalar` step for step,
so their results must be equal as floats, not merely close."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from rotorspin import dynamics, floquet
from rotorspin._brent import brent_min, brent_root
from rotorspin.errors import NumericFailureError
from rotorspin.model import RotorParams
from rotorspin.sensing import resonant_field

SEEDS = st.integers(0, 2**32 - 1)


def bracketed_problem(seed):
    """A function with a sign change on [a, b] and an absolute tolerance."""
    rng = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 0:
        # cubic with three distinct roots; the bracket holds the middle one
        r = np.sort(rng.uniform(-3.0, 3.0, 3)) + np.array([-0.2, 0.0, 0.2])
        c = rng.uniform(0.1, 5.0)

        def f(x):
            return c * (x - r[0]) * (x - r[1]) * (x - r[2])

        a = r[1] - rng.uniform(0.05, 0.95) * (r[1] - r[0])
        b = r[1] + rng.uniform(0.05, 0.95) * (r[2] - r[1])
    elif kind == 1:
        # cos x = s x has one root in (0, pi/2) for s > 0
        s = rng.uniform(0.05, 3.0)

        def f(x):
            return math.cos(x) - s * x

        a, b = 0.0, math.pi / 2
    else:
        # the root sits on an end of the bracket
        x0 = rng.uniform(-2.0, 2.0)
        w = rng.uniform(0.1, 3.0)

        def f(x):
            return math.sinh(x - x0)

        a, b = (x0, x0 + w) if rng.uniform() < 0.5 else (x0 - w, x0)
    xtol = float(rng.choice([5e-324, 1e-12, 2e-12, 1e-6]))
    if rng.uniform() < 0.5:
        a, b = b, a
    return f, float(a), float(b), xtol


def unimodal_problem(seed):
    """A function with one minimum on [a, b] (possibly at an end)."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-2.0, 2.0)
    w = rng.uniform(0.1, 4.0)
    kind = seed % 3
    if kind == 0:
        def f(x):
            return w * (x - c) ** 2 + 0.3
    elif kind == 1:
        def f(x):
            return -math.exp(-w * (x - c) ** 2)
    else:
        def f(x):
            return abs(x - c) ** 1.5 + 0.01 * math.cos(w * x)
    a = c - rng.uniform(0.01, 3.0)
    b = c + rng.uniform(0.01, 3.0)
    if rng.uniform() < 0.15:
        a, b = c + 0.1, c + 2.0  # minimum outside: converges on the end
    return f, float(a), float(b)


class TestBrentRoot:
    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS)
    def test_equals_scipy_brentq(self, seed):
        f, a, b, xtol = bracketed_problem(seed)
        assert brent_root(f, a, b, xtol) == brentq(f, a, b, xtol=xtol)

    def test_nan_raises(self):
        with pytest.raises(NumericFailureError, match="NaN"):
            brent_root(lambda x: math.nan if x > 0.3 else x - 0.5, 0.0, 1.0, 1e-12)

    def test_unbracketed_raises(self):
        with pytest.raises(NumericFailureError, match="not bracketed"):
            brent_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)

    def test_iteration_budget_raises(self):
        # a step at 1e-300 with xtol at the smallest subnormal: reaching it
        # from [-1, 1] takes about 1000 halvings, SciPy also stops after 100
        def step(x):
            return 1.0 if x >= 1e-300 else -1.0

        ref = brentq(step, -1.0, 1.0, xtol=5e-324, full_output=True, disp=False)
        assert not ref[1].converged
        with pytest.raises(NumericFailureError, match="did not converge"):
            brent_root(step, -1.0, 1.0, 5e-324)


class TestBrentMin:
    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, xatol=st.sampled_from([1e-12, 1e-5]))
    def test_equals_scipy_bounded_minimize_scalar(self, seed, xatol):
        f, a, b = unimodal_problem(seed)
        ref = minimize_scalar(f, bounds=(a, b), method="bounded",
                              options={"xatol": xatol})
        assert brent_min(f, a, b, xatol) == ref.x

    def test_nan_raises(self):
        with pytest.raises(NumericFailureError, match="NaN"):
            brent_min(lambda x: math.nan, 0.0, 1.0, 1e-12)

    def test_evaluation_budget_raises(self):
        # the tolerance is relative to |x|, so a kink at 1e-300 is chased
        # through about 1400 golden-section steps; SciPy stops after 500
        def kink(x):
            return abs(x - 1e-300)

        ref = minimize_scalar(kink, bounds=(-1.0, 1.0), method="bounded",
                              options={"xatol": 5e-324})
        assert ref.status == 1
        with pytest.raises(NumericFailureError, match="did not converge"):
            brent_min(kink, -1.0, 1.0, 5e-324)


class TestResonantFieldSolves:
    """A compensating-field solve costs the eigensolves it cost with SciPy's
    `brentq` (the counts were taken with it) and lands on the same float."""

    @pytest.mark.parametrize("theta, omega, expected", [
        (0.0314159265, 0.2, 94),  # README call
        # the three solves of the first `resonance` benchmark call, seed 11
        (0.015644473666496114, 0.2908662946710971, 92),
        (0.018644473666496113, 0.2908662946710971, 92),
        # one solve fewer to fix the truncation, one more Brent step at N = 12
        (0.021644473666496113, 0.2908662946710971, 94),
    ])
    def test_eigensolve_count_and_value(self, monkeypatch, theta, omega, expected):
        count = 0
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            nonlocal count
            if np.shape(a)[-1] > 3:
                count += 1
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        local = resonant_field(theta, omega)
        assert count == expected

        monkeypatch.setattr(floquet, "brent_root",
                            lambda f, a, b, xtol: brentq(f, a, b, xtol=xtol))
        count = 0
        oracle = resonant_field(theta, omega)
        assert count == expected
        assert (local.value, local.residual) == (oracle.value, oracle.residual)


def test_rabi_fit_equals_scipy_route(monkeypatch):
    # README `evolve` call: the fitted frequency is the same float as with
    # SciPy's bounded minimize_scalar
    p = RotorParams(omega=0.2, theta=0.0314159265, delta=0.803)
    trace = dynamics.evolve(p, np.array([0.0, 1.0, 0.0], dtype=complex), 4000.0)
    local = dynamics.rabi_fit(trace, ("m0", "m+1"))
    monkeypatch.setattr(
        dynamics, "brent_min",
        lambda f, a, b, xatol: minimize_scalar(
            f, bounds=(a, b), method="bounded", options={"xatol": xatol}).x)
    assert dynamics.rabi_fit(trace, ("m0", "m+1")) == local
