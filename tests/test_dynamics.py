import math

import numpy as np
import pytest

from rotorspin.dynamics import (
    evolve,
    monodromy,
    period_propagators,
    propagator_zero_field,
    rabi_fit,
)
from rotorspin.errors import FlatTraceError, InvalidArgumentError
from rotorspin.floquet import (
    auto_harmonics,
    cubic_quasienergies,
    floquet_matrix,
    fold,
    physical_modes,
)
from rotorspin.model import RotorParams
from rotorspin.spin_algebra import unitarity_defect

RNG = np.random.default_rng(7)

KET_0 = np.array([0.0, 1.0, 0.0], dtype=complex)


def states_by_period_loop(p, psi0, times, spp):
    """Reference sampling: the monodromy applied once per elapsed period,
    then the prefix propagator of the step within the period."""
    prefix, m = period_propagators(p, spp)
    dt = p.period / spp
    states = np.empty((len(times), 3), dtype=complex)
    psi_period, cur = np.asarray(psi0, dtype=complex), 0
    for out, k in enumerate(np.rint(times / dt).astype(np.int64)):
        per, step = divmod(int(k), spp)
        while cur < per:
            psi_period = m @ psi_period
            cur += 1
        states[out] = prefix[step] @ psi_period
    return states


def fold_dist(a, b, omega):
    w = abs(omega)
    d = (a - b) % w
    return min(d, w - d)


class TestAnalyticPropagator:
    def test_identity_at_zero_time(self):
        p = RotorParams(omega=0.8, theta=0.6)
        np.testing.assert_allclose(propagator_zero_field(p, 0.0), np.eye(3),
                                   atol=1e-14)

    def test_unitary(self):
        for _ in range(5):
            p = RotorParams(omega=float(RNG.uniform(0.1, 2)),
                            theta=float(RNG.uniform(0, math.pi)))
            u = propagator_zero_field(p, float(RNG.uniform(0, 30)))
            assert unitarity_defect(u) <= 1e-12

    def test_axis_aligned_populations_frozen(self):
        p = RotorParams(omega=0.4, theta=0.0)
        u = propagator_zero_field(p, 5.3)
        np.testing.assert_allclose(np.abs(u), np.eye(3), atol=1e-12)

    def test_matches_step_integrator(self):
        p = RotorParams(omega=1.0005, theta=math.pi / 100)
        trace = evolve(p, KET_0, 10 * p.period, steps_per_period=2048)
        worst = 0.0
        for t, psi in zip(trace.times[::311], trace.states[::311]):
            ref = propagator_zero_field(p, t) @ KET_0
            worst = max(worst, float(np.abs(psi - ref).max()))
        assert worst <= 1e-8

    def test_rejects_field(self):
        with pytest.raises(InvalidArgumentError):
            propagator_zero_field(RotorParams(omega=0.4, theta=0.1, delta=0.1),
                                  1.0)


class TestEvolve:
    def test_norm_and_population_invariants(self):
        p = RotorParams(omega=0.3, theta=1.2, delta=0.4)
        trace = evolve(p, KET_0, 8 * p.period, steps_per_period=512)
        norms = np.linalg.norm(trace.states, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)
        np.testing.assert_allclose(trace.populations.sum(axis=1), 1.0,
                                   atol=1e-9)
        np.testing.assert_allclose(trace.populations,
                                   np.abs(trace.states) ** 2, atol=1e-12)

    def test_resonant_transfer(self):
        th = math.pi / 100
        p = RotorParams(omega=1.0 / math.cos(th), theta=th)
        rabi = math.sqrt(2) * p.omega * math.sin(th)
        trace = evolve(p, KET_0, 2 * 2 * math.pi / rabi)
        assert trace.populations[:, 0].max() >= 0.999
        assert trace.populations[:, 2].max() <= 0.002

    def test_static_limit(self):
        p = RotorParams(omega=0.0, theta=0.7)
        trace = evolve(p, KET_0, 10.0)
        np.testing.assert_allclose(np.linalg.norm(trace.states, axis=1), 1.0,
                                   atol=1e-9)

    def test_sample_cap(self):
        p = RotorParams(omega=1.0, theta=0.3)
        trace = evolve(p, KET_0, 100 * p.period, steps_per_period=4096)
        assert len(trace.times) <= 20000

    @pytest.mark.parametrize("p, psi0, t_end, spp", [
        # README call: every period is sampled
        (RotorParams(omega=0.2, theta=0.0314159265, delta=0.803), KET_0,
         4000.0, 4096),
        # ~31800 periods, one sample every ~1.6 periods
        (RotorParams(omega=0.2, theta=0.03), KET_0, 1e6, 4096),
        (RotorParams(omega=-0.7, theta=0.5, delta=0.2, phi0=0.3),
         np.array([1.0, 0.0, 0.0], dtype=complex), 5000.0, 512),
    ])
    def test_sampling_matches_period_loop(self, p, psi0, t_end, spp):
        trace = evolve(p, psi0, t_end, steps_per_period=spp)
        ref = states_by_period_loop(p, psi0, trace.times, spp)
        assert np.abs(trace.states - ref).max() <= 1e-13

    def test_long_run_is_sampled_without_stepping_periods(self):
        # 1.3e14 integrator steps, up to 3.2e10 periods per sample
        p = RotorParams(omega=0.2, theta=0.03)
        trace = evolve(p, KET_0, 1e12)
        assert len(trace.times) <= 20000
        assert trace.times[-1] <= 1e12
        # second route: M^k = V diag(mu^k) V^-1, whose own error grows as
        # k times the eigenvalue error (about 4e-16 per period here)
        prefix, m = period_propagators(p, 4096)
        mu, v = np.linalg.eig(m)
        coeff = np.linalg.solve(v, KET_0)
        idx = np.rint(trace.times / (p.period / 4096)).astype(np.int64)
        for s in (1, 100, 5000, len(idx) - 1):
            k, step = divmod(int(idx[s]), 4096)
            ref = prefix[step] @ (v @ (np.exp(k * np.log(mu)) * coeff))
            assert np.abs(trace.states[s] - ref).max() <= 1e-15 * k

    @pytest.mark.parametrize("steps", [2.0**53 + 2**12, 1e300, math.inf])
    def test_rejects_unresolved_step_count(self, steps):
        p = RotorParams(omega=0.2, theta=0.03)
        with pytest.raises(InvalidArgumentError, match="2\\*\\*53"):
            evolve(p, KET_0, steps * p.period / 4096)

    def test_rejects_bad_state(self):
        p = RotorParams(omega=1.0, theta=0.3)
        with pytest.raises(InvalidArgumentError):
            evolve(p, [1.0, 1.0, 0.0], 1.0)

    def test_rejects_too_few_steps(self):
        p = RotorParams(omega=1.0, theta=0.3)
        with pytest.raises(InvalidArgumentError):
            evolve(p, KET_0, 1.0, steps_per_period=100)

    def test_direction_reversal_swaps_side_populations(self):
        th = math.pi / 100
        p = RotorParams(omega=1.0 / math.cos(th), theta=th)
        rabi = math.sqrt(2) * p.omega * math.sin(th)
        fwd = evolve(p, KET_0, 2 * math.pi / rabi, steps_per_period=1024)
        rev = evolve(p.with_(omega=-p.omega), KET_0, 2 * math.pi / rabi,
                     steps_per_period=1024)
        np.testing.assert_allclose(fwd.populations[:, 0], rev.populations[:, 2],
                                   atol=1e-9)
        np.testing.assert_allclose(fwd.populations[:, 2], rev.populations[:, 0],
                                   atol=1e-9)


class TestFloquetOracle:
    def test_evolve_matches_floquet_mode_expansion(self):
        # psi(t) = sum_n a_n exp(-i eps_n t) sum_k c_nk exp(i k omega t), with
        # eps_n the unfolded quasi-energy c^H F c / c^H c of each mode's
        # harmonic vector: a route through neither propagators nor folding
        rng = np.random.default_rng(11)
        worst = 0.0
        for sign in (1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0):
            p = RotorParams(omega=sign * float(rng.uniform(0.3, 1.5)),
                            theta=float(rng.uniform(0.0, math.pi)),
                            phi0=float(rng.uniform(0.0, 2 * math.pi)),
                            delta=float(rng.uniform(0.1, 0.8)))
            psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
            psi0 /= np.linalg.norm(psi0)
            trace = evolve(p, psi0, 20 * p.period)

            ms = auto_harmonics(p)[0]
            n = ms.n_harmonics
            c = ms.fourier.reshape(3 * (2 * n + 1), 3)  # (harmonic x spin, mode)
            fc = floquet_matrix(p, n) @ c
            eps = (np.einsum("im,im->m", c.conj(), fc)
                   / np.einsum("im,im->m", c.conj(), c)).real
            a = np.linalg.solve(ms.fourier.sum(axis=0), psi0)
            k = np.arange(-n, n + 1)
            t = trace.times
            harm = np.exp(1j * p.omega * np.outer(t, k))  # (time, harmonic)
            ref = np.einsum("tk,ksm,tm->ts", harm, ms.fourier,
                            a * np.exp(-1j * np.outer(t, eps)))
            worst = max(worst, float(np.abs(trace.states - ref).max()))
        assert worst <= 1e-10


class TestMonodromy:
    def test_unitarity(self):
        p = RotorParams(omega=0.05, theta=2.0, delta=0.7)
        m, _ = monodromy(p, 4096)
        assert unitarity_defect(m) <= 1e-9

    def test_zero_field_matches_cubic(self):
        p = RotorParams(omega=0.5, theta=math.pi / 4)
        _, lam = monodromy(p, 4096)
        roots = fold(cubic_quasienergies(1.0, 0.5, math.pi / 4), p.omega)
        for r in roots:
            assert min(fold_dist(r, q, p.omega) for q in lam) <= 1e-8

    def test_axis_aligned_diagonal(self):
        p = RotorParams(omega=0.5, theta=0.0, delta=0.2)
        m, lam = monodromy(p, 512)
        off = m - np.diag(np.diag(m))
        assert np.abs(off).max() <= 1e-12
        expected = fold(np.array([1.0 - 0.2, 0.0, 1.0 + 0.2]), p.omega)
        for r in expected:
            assert min(fold_dist(r, q, p.omega) for q in lam) <= 1e-9

    def test_field_case_matches_harmonic_matrix(self):
        p = RotorParams(omega=0.2, theta=math.pi / 100, delta=0.803)
        _, lam = monodromy(p, 4096)
        quasi = physical_modes(p, 32).quasi
        for q in quasi:
            assert min(fold_dist(q, x, p.omega) for x in lam) <= 1e-8

    def test_rejects_zero_frequency(self):
        with pytest.raises(InvalidArgumentError):
            monodromy(RotorParams(omega=0.0, theta=0.3))


class TestRabiFit:
    def test_resonant_frequency_recovery(self):
        th = math.pi / 100
        p = RotorParams(omega=1.0 / math.cos(th), theta=th)
        rabi = math.sqrt(2) * p.omega * math.sin(th)
        trace = evolve(p, KET_0, 3 * 2 * math.pi / rabi)
        freq, contrast = rabi_fit(trace, ("m0", "m+1"))
        assert freq == pytest.approx(rabi, rel=1e-2)
        assert contrast > 0.99

    def test_flat_trace_raises(self):
        p = RotorParams(omega=1.0, theta=0.0)
        trace = evolve(p, KET_0, 20.0)
        with pytest.raises(FlatTraceError):
            rabi_fit(trace, ("m0", "m+1"))

    def test_rejects_bad_pair(self):
        p = RotorParams(omega=1.0, theta=0.3)
        trace = evolve(p, KET_0, 10.0)
        with pytest.raises(InvalidArgumentError):
            rabi_fit(trace, ("m0", "m0"))
