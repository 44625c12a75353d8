import math

import numpy as np
import pytest

from rotorspin import dynamics
from rotorspin.dynamics import (
    MAX_TRACE_SAMPLES,
    STEPS_PER_PERIOD,
    EvolutionTrace,
    evolve,
    monodromy,
    period_propagators,
    propagator_zero_field,
    rabi_fit,
)
from rotorspin.errors import FlatTraceError, InvalidArgumentError
from rotorspin.floquet import cubic_quasienergies, fold, physical_modes
from rotorspin.model import RotorParams, static_part
from rotorspin.spin_algebra import hermitian_eigensystem, unitarity_defect

RNG = np.random.default_rng(7)

KET_0 = np.array([0.0, 1.0, 0.0], dtype=complex)
EPS = np.finfo(float).eps


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


def on_stepper_grid(p, spp, m):
    """The t_end whose evolve samples fall every m steps of a stepper of
    spp steps per period: 19.5 periods for (4096, 4), 3.05 for (32768, 5)."""
    return (MAX_TRACE_SAMPLES - 1) * m * p.period / spp


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
        trace = evolve(p, KET_0, 10 * p.period)
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
        trace = evolve(p, KET_0, 8 * p.period)
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

    def test_static_trace_is_the_exact_static_evolution(self):
        # omega = 0 runs the same expansion, at N = 0, on the same grid
        p = RotorParams(omega=0.0, theta=0.7, delta=0.4)
        trace = evolve(p, KET_0, 10.0)
        assert trace.truncation == 0
        assert len(trace.times) == MAX_TRACE_SAMPLES
        assert np.all(np.diff(trace.times) > 0) and trace.times[-1] == 10.0
        es = hermitian_eigensystem(static_part(p))
        for s in (1, 777, MAX_TRACE_SAMPLES - 1):
            u = (es.vectors * np.exp(-1j * es.values * trace.times[s])
                 ) @ es.vectors.conj().T
            assert np.abs(trace.states[s] - u @ KET_0).max() <= 1e-14

    def test_sample_cap(self):
        p = RotorParams(omega=1.0, theta=0.3)
        trace = evolve(p, KET_0, 100 * p.period)
        assert len(trace.times) <= 20000

    def test_long_run_is_sampled_without_stepping_periods(self):
        # up to 3.2e10 periods per sample; against the exact zero-field
        # propagator, both routes round the phase eps t, which bounds their
        # agreement to about 1e-15 per period here
        p = RotorParams(omega=0.2, theta=0.03)
        trace = evolve(p, KET_0, 1e12)
        assert len(trace.times) <= 20000
        assert trace.times[-1] <= 1e12
        for s in (1, 100, 5000, len(trace.times) - 1):
            k = int(trace.times[s] // p.period)
            ref = propagator_zero_field(p, trace.times[s]) @ KET_0
            assert np.abs(trace.states[s] - ref).max() <= 1e-15 * k

    def test_samples_end_at_t_end(self):
        # the last sample is the last grid point at or before t_end
        rng = np.random.default_rng(3)
        draws = [(0.2, 0.01), *zip(rng.choice([-1.0, 1.0], 20)
                                   * 10.0 ** rng.uniform(-2.0, 0.5, 20),
                                   10.0 ** rng.uniform(-2.0, 5.0, 20))]
        for omega, t_end in draws:
            p = RotorParams(omega=float(omega), theta=0.3, delta=0.4)
            times = evolve(p, KET_0, float(t_end)).times
            spacing = times[1] if len(times) > 1 else p.period / STEPS_PER_PERIOD
            assert t_end - spacing < times[-1] <= t_end

    @pytest.mark.parametrize("omega, t_end", [(1e-5, 100.0), (-0.2, 0.0076)])
    def test_t_end_below_a_stepper_step_is_sampled(self, omega, t_end):
        # shorter than one step T / 4096 of the stepper (153.4 and 0.00767)
        p = RotorParams(omega=omega, theta=1.5, delta=2.0)
        trace = evolve(p, KET_0, t_end)
        assert len(trace.times) == MAX_TRACE_SAMPLES
        assert np.all(np.diff(trace.times) > 0)
        assert trace.times[0] == 0.0 and trace.times[-1] == t_end
        np.testing.assert_allclose(np.linalg.norm(trace.states, axis=1), 1.0,
                                   atol=1e-12)

    @pytest.mark.parametrize("omega, t_end, message", [
        (0.2, math.inf, "positive and finite"),
        (0.0, math.nan, "positive and finite"),
        (0.0, 1e-320, "too short for 20000 distinct sample times"),
        (0.2, 1e300, "rounds the mode phases"),
        (0.0, 1e308, "rounds the mode phases"),
    ], ids=["inf", "nan", "1e-320", "1e+300", "1e308"])
    def test_rejects_unresolvable_t_end(self, omega, t_end, message):
        p = RotorParams(omega=omega, theta=0.03)
        with pytest.raises(InvalidArgumentError, match=message):
            evolve(p, KET_0, t_end)

    def test_phase_rounding_bounds_t_end(self):
        # max |eps_m| here is the largest cubic root, the m-1 level
        # d + omega cos(theta) + O(theta^2) = 1.19992, so the rounding
        # max |eps_m| t_end 2**-53 reaches 1e-2 rad at
        # 1e-2 * 2**53 / 1.19992 = 7.506e13
        p = RotorParams(omega=0.2, theta=0.03)
        assert evolve(p, KET_0, 7.4e13).times[-1] == 7.4e13
        with pytest.raises(InvalidArgumentError, match="rounds the mode phases"):
            evolve(p, KET_0, 7.6e13)

    def test_rejects_bad_state(self):
        p = RotorParams(omega=1.0, theta=0.3)
        with pytest.raises(InvalidArgumentError):
            evolve(p, [1.0, 1.0, 0.0], 1.0)

    def test_direction_reversal_swaps_side_populations(self):
        th = math.pi / 100
        p = RotorParams(omega=1.0 / math.cos(th), theta=th)
        rabi = math.sqrt(2) * p.omega * math.sin(th)
        fwd = evolve(p, KET_0, 2 * math.pi / rabi)
        rev = evolve(p.with_(omega=-p.omega), KET_0, 2 * math.pi / rabi)
        np.testing.assert_allclose(fwd.populations[:, 0], rev.populations[:, 2],
                                   atol=1e-9)
        np.testing.assert_allclose(fwd.populations[:, 2], rev.populations[:, 0],
                                   atol=1e-9)


class TestGridPhases:
    #: the kernel rounds t0 + r h and b (B h), at most eps/2 t_max each,
    #: and each phase w t, eps/2 |w| t_max each; the direct exp(i w t_k)
    #: rounds w t_k once more, on a t_k off the exact grid by up to eps t_max.
    #: That is 4 ulp of |w| t_max, plus 4 ulp of 1 for exp and the product.
    #: Seen: 1.9 over 300 random grids.
    ULPS = 4.0
    B = dynamics._PHASE_BLOCK

    @pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, MAX_TRACE_SAMPLES])
    @pytest.mark.parametrize("t_end", [3.0, 4.1e4, 7.5e13])
    @pytest.mark.parametrize("start", [0.37, -0.37])
    def test_matches_direct_exp(self, n, t_end, start):
        # up to the t_end where test_phase_rounding_bounds_t_end refuses
        t0 = start * t_end
        h = (t_end - t0) / max(n - 1, 1)
        times = t0 + np.arange(n) * h
        w = np.array([1.19992, -1.19992, 0.2, -0.0173])
        got = dynamics._grid_phases(w, t0, h, n)
        want = np.exp(1j * np.outer(w, times))
        bound = self.ULPS * EPS * (np.abs(w)[:, None] * np.abs(times).max() + 1.0)
        assert got.shape == (len(w), n)
        assert np.all(np.abs(got - want) <= bound)
        assert np.abs(np.abs(got) - 1.0).max() <= 4.0 * EPS


class TestFloquetOracle:
    def test_evolve_matches_floquet_mode_expansion(self):
        # evolve, the Floquet mode expansion, against the second route: the
        # stepper's period propagators, applied period by period
        rng = np.random.default_rng(11)
        worst = 0.0
        # the last four points have no field: evolve reads the exact frame
        # modes there, the stepper integrates the same frame Hamiltonian
        for i, sign in enumerate((1.0, -1.0) * 6):
            p = RotorParams(omega=sign * float(rng.uniform(0.3, 1.5)),
                            theta=float(rng.uniform(0.0, math.pi)),
                            phi0=float(rng.uniform(0.0, 2 * math.pi)),
                            delta=float(rng.uniform(0.1, 0.8)) if i < 8 else 0.0)
            psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
            psi0 /= np.linalg.norm(psi0)
            trace = evolve(p, psi0, on_stepper_grid(p, STEPS_PER_PERIOD, 4))
            ref = states_by_period_loop(p, psi0, trace.times, STEPS_PER_PERIOD)
            worst = max(worst, float(np.abs(trace.states - ref).max()))
        assert worst <= 1e-10

    @pytest.mark.parametrize("omega, theta", [(0.001, 1.5), (-0.001, 3.0)])
    def test_slow_rotation_matches_finer_stepper(self, omega, theta):
        # at |omega| = 0.001 and delta = 2 one of 4096 steps per period
        # turns the level phase by about 6 rad, and the stepper misses by
        # up to 7e-7; 8 times as many steps resolve it
        p = RotorParams(omega=omega, theta=theta, delta=2.0)
        trace = evolve(p, KET_0, on_stepper_grid(p, 8 * STEPS_PER_PERIOD, 5))
        ref = states_by_period_loop(p, KET_0, trace.times, 8 * STEPS_PER_PERIOD)
        assert np.abs(trace.states - ref).max() <= 1e-10


    @pytest.mark.parametrize("omega, theta, delta", [(0.3, 1.0, 0.9),
                                                     (1.0, 1.5, 2.0)])
    def test_wide_tilt_matches_finer_stepper(self, omega, theta, delta):
        # the state error follows the edge amplitude of the modes: at an
        # edge weight of 5e-18 and 8e-17 (N = 12) these read 7e-11 and 9e-11
        p = RotorParams(omega=omega, theta=theta, delta=delta)
        trace = evolve(p, KET_0, on_stepper_grid(p, 8 * STEPS_PER_PERIOD, 5))
        ref = states_by_period_loop(p, KET_0, trace.times, 8 * STEPS_PER_PERIOD)
        assert np.abs(trace.states - ref).max() <= 2e-12


class TestMonodromy:
    def test_unitarity(self):
        p = RotorParams(omega=0.05, theta=2.0, delta=0.7)
        m, _ = monodromy(p)
        assert unitarity_defect(m) <= 1e-9

    def test_zero_field_matches_cubic(self):
        p = RotorParams(omega=0.5, theta=math.pi / 4)
        _, lam = monodromy(p)
        roots = fold(cubic_quasienergies(1.0, 0.5, math.pi / 4), p.omega)
        for r in roots:
            assert min(fold_dist(r, q, p.omega) for q in lam) <= 1e-8

    def test_axis_aligned_diagonal(self):
        p = RotorParams(omega=0.5, theta=0.0, delta=0.2)
        m, lam = monodromy(p)
        off = m - np.diag(np.diag(m))
        assert np.abs(off).max() <= 1e-12
        expected = fold(np.array([1.0 - 0.2, 0.0, 1.0 + 0.2]), p.omega)
        for r in expected:
            assert min(fold_dist(r, q, p.omega) for q in lam) <= 1e-9

    def test_field_case_matches_harmonic_matrix(self):
        p = RotorParams(omega=0.2, theta=math.pi / 100, delta=0.803)
        _, lam = monodromy(p)
        quasi = physical_modes(p, 32).quasi
        for q in quasi:
            assert min(fold_dist(q, x, p.omega) for x in lam) <= 1e-8

    def test_rejects_zero_frequency(self):
        with pytest.raises(InvalidArgumentError):
            monodromy(RotorParams(omega=0.0, theta=0.3))

    def test_writing_into_a_result_leaves_later_calls_intact(self):
        p = RotorParams(omega=0.4, theta=0.7, delta=0.3)
        ref_prefix, ref_m = (a.copy() for a in period_propagators(p, 64))
        prefix, m = period_propagators(p, 64)
        prefix += 1.0
        m += 1.0
        prefix, m = period_propagators(p, 64)
        np.testing.assert_array_equal(prefix, ref_prefix)
        np.testing.assert_array_equal(m, ref_m)

    def test_fixed_resolution_is_converged(self):
        # against 4x finer steps; |omega| = 0.01 with delta = 2, the most
        # periods of level phase per drive period, is the worst corner
        rng = np.random.default_rng(5)
        points = [RotorParams(omega=0.01, theta=1.5, delta=2.0),
                  RotorParams(omega=-0.01, theta=math.pi, delta=2.0)]
        for sign in (1.0, -1.0, 1.0):
            points.append(RotorParams(
                omega=sign * 10.0 ** rng.uniform(-2.0, 0.5),
                theta=rng.uniform(0.0, math.pi), delta=rng.uniform(0.0, 2.0),
                phi0=rng.uniform(0.0, 2.0 * math.pi)))
        worst = 0.0
        for p in points:
            _, m = period_propagators(p, STEPS_PER_PERIOD)
            _, ref = period_propagators(p, 4 * STEPS_PER_PERIOD)
            worst = max(worst, float(np.abs(m - ref).max()))
        assert worst <= 1e-9


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

    @pytest.mark.parametrize("samples", [3, 4, 5])
    def test_refuses_fewer_samples_than_five(self, samples):
        # the tone has 4 parameters (offset, two quadratures, frequency);
        # 3 samples fit every frequency exactly, so a fit there is arbitrary
        t = np.arange(float(samples))
        pop = np.cos(1.885 * t / 2.0) ** 2
        pops = np.stack([1.0 - pop, pop, np.zeros(samples)], axis=1)
        trace = dynamics.EvolutionTrace(times=t, states=np.sqrt(pops) + 0j,
                                        populations=pops)
        if samples < 5:
            with pytest.raises(InvalidArgumentError, match="at least 5 samples"):
                rabi_fit(trace, ("m0", "m+1"))
        else:
            freq, _ = rabi_fit(trace, ("m0", "m+1"))
            assert freq == pytest.approx(1.885, abs=1e-6)

    @pytest.mark.parametrize("times", [np.full(10, 2.5), -np.arange(10.0)],
                             ids=["equal", "descending"])
    def test_refuses_times_that_do_not_ascend(self, times, monkeypatch):
        pop = np.cos(0.9 * np.arange(10.0) / 2.0) ** 2
        pops = np.stack([1.0 - pop, pop, np.zeros(10)], axis=1)
        trace = EvolutionTrace(times=times, states=np.sqrt(pops) + 0j,
                               populations=pops)

        def no_fft(*args, **kwargs):
            raise AssertionError("FFT of a trace that does not ascend")

        monkeypatch.setattr(np.fft, "rfft", no_fft)
        with pytest.raises(InvalidArgumentError, match="ascending sample times"):
            rabi_fit(trace, ("m0", "m+1"))

    @pytest.mark.parametrize("warp", ["jitter", "wobble"])
    def test_times_off_the_grid_are_fitted_as_given(self, warp, monkeypatch):
        # a tone of 0.78 rad a sample, at times moved off t0 + k h within
        # the 1e-9 uniformity check: at random by 1e-10 of the spacing, or
        # by one sine period of 1.5e-6 h over the trace, which changes the
        # spacing by up to 4.7e-10 of itself. A fit on the grid t0 + k h
        # misses the wobbled tone by 1.4e-10 relative; the fit must match
        # a direct-trig fit of the times as given
        n, h = MAX_TRACE_SAMPLES, 0.37
        k = np.arange(n)
        pop = np.cos(2.1 * k * h / 2.0) ** 2
        # m0 (column 1) swings the most, so the fit takes pop
        pops = np.stack([(1.0 - pop) / 2.0, pop, (1.0 - pop) / 2.0], axis=1)
        if warp == "jitter":
            off = 1e-10 * h * np.random.default_rng(29).uniform(-1.0, 1.0, n)
        else:
            off = 1.5e-6 * h * np.sin(2.0 * math.pi * k / n)
        t = 5.0 + k * h + off
        trace = EvolutionTrace(times=t, states=np.sqrt(pops) + 0j,
                               populations=pops)
        freq, _ = rabi_fit(trace, ("m0", "m+1"))

        def direct_residual(f):
            w = 2.0 * math.pi * f
            basis = np.stack([np.ones_like(t), np.cos(w * t), np.sin(w * t)],
                             axis=1)
            r = pop - basis @ np.linalg.lstsq(basis, pop, rcond=None)[0]
            return float(r @ r)

        brent = dynamics.brent_min
        monkeypatch.setattr(dynamics, "brent_min", lambda f, a, b, xatol:
                            brent(direct_residual, a, b, xatol=xatol))
        oracle, _ = rabi_fit(trace, ("m0", "m+1"))
        assert freq == pytest.approx(oracle, rel=1e-12, abs=0)

    def test_evolve_trace_takes_the_phase_kernel(self, monkeypatch):
        # evolve's samples lie on the kernel's grid to rounding, so no
        # trial frequency of the fit takes a direct sine
        th = math.pi / 100
        p = RotorParams(omega=1.0 / math.cos(th), theta=th)
        trace = evolve(p, KET_0, 3 * 2 * math.pi / (math.sqrt(2) * p.omega
                                                     * math.sin(th)))

        def no_sin(*args, **kwargs):
            raise AssertionError("direct sine of an evolve trace")

        monkeypatch.setattr(np, "sin", no_sin)
        rabi_fit(trace, ("m0", "m+1"))

    def test_normal_system_matches_lstsq_oracle(self, monkeypatch):
        # traces drawn as in the `dynamics` benchmark workload; the oracle
        # runs the same Brent search on the SVD least-squares residual
        rng = np.random.default_rng(23)
        brent = dynamics.brent_min
        kets = np.eye(3, dtype=complex)
        fitted = 0
        while fitted < 24:
            om = rng.uniform(0.15, 0.3)
            p = RotorParams(omega=om, theta=rng.uniform(math.pi / 200, math.pi / 50),
                            delta=1.0 - om + rng.uniform(0.0, 0.006))
            t_end = (rng.integers(10, 41) * 20000 - 1) * (2.0 * math.pi / om / 4096)
            trace = evolve(p, kets[rng.integers(3)], t_end)
            try:
                freq, _ = rabi_fit(trace, ("m0", "m+1"))
            except FlatTraceError:
                continue
            # the fitted signal: the population of m0 (column 1) or m+1
            # (column 0), whichever swings the most
            t, pops = trace.times, trace.populations
            sig = pops[:, max((1, 0), key=lambda c: np.ptp(pops[:, c]))]

            def lstsq_residual(f):
                w = 2.0 * math.pi * f
                basis = np.stack([np.ones_like(t), np.cos(w * t), np.sin(w * t)],
                                 axis=1)
                r = sig - basis @ np.linalg.lstsq(basis, sig, rcond=None)[0]
                return float(r @ r)

            with monkeypatch.context() as m:
                m.setattr(dynamics, "brent_min", lambda f, a, b, xatol:
                          brent(lstsq_residual, a, b, xatol=xatol))
                oracle, _ = rabi_fit(trace, ("m0", "m+1"))
            assert freq == pytest.approx(oracle, rel=1e-12, abs=0)
            fitted += 1
