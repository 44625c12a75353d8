"""Results scale with the unit of frequency d: with d, omega and delta times
s and times divided by s, every result reads the same in units of d, from
s = 2^-600 to 2^600, and the tolerances behind them are stated in the
units of their inputs."""

import numpy as np
import pytest
from scipy.optimize import brentq

from rotorspin import geomphase
from rotorspin._brent import brent_root
from rotorspin.dynamics import EvolutionTrace, evolve, rabi_fit
from rotorspin.errors import InvalidArgumentError
from rotorspin.floquet import LABELS, avoided_crossing, quasienergy_spectrum
from rotorspin.model import RotorParams
from rotorspin.sensing import resonant_field
from test_floquet import (PHASE_ULPS, QUASI_ULPS, assert_within_ulps,
                          phase_ulp, quasi_ulp)

KET_0 = np.array([0.0, 1.0, 0.0], dtype=complex)


def scaled(s, **kw):
    """RotorParams of kw with d = s and omega and delta times s."""
    return RotorParams(d=s, **{k: v * s if k in ("omega", "delta") else v
                               for k, v in kw.items()})


def spectrum(s):
    """A field spectrum along omega at scale s, quasi-energies in units of d."""
    p = scaled(s, omega=0.05, theta=0.3, delta=0.4)
    q = quasienergy_spectrum(p, "omega", s * np.linspace(0.05, 1.2, 61))
    return np.array([q.branch(lab).quasienergy for lab in LABELS]).T / s


def phases(s):
    """Field geometric phases along omega at scale s: (gamma, term1, term2)."""
    p = scaled(s, omega=0.85, theta=0.3, delta=0.4)
    ph = geomphase.field_phases(p, "omega", s * np.linspace(0.85, 1.25, 41))
    assert ph.error is None
    return np.array([ph.gamma, ph.term1, ph.term2])


def readme_rabi(s):
    """Fitted Rabi frequency, in units of d, of the README `evolve`."""
    p = scaled(s, omega=0.2, theta=0.0314159265, delta=0.803)
    freq, _ = rabi_fit(evolve(p, KET_0, 4000.0 / s), ("m0", "m+1"))
    return freq / s


@pytest.mark.parametrize("k", [-600, -30, 30, 600])
class TestResultsScaleWithD:
    """s = 2^k, so that the scaled inputs are exact."""

    def test_resonant_field(self, k):
        # the small-angle cubic underflows below d ~ 1e-107 and overflows
        # above 5.6e102 unless it is solved in units of d
        s = 2.0 ** k
        want = resonant_field(0.0314159265, 0.2)
        got = resonant_field(0.0314159265, 0.2 * s, d=s)
        assert got.value / s == pytest.approx(want.value, rel=0, abs=1e-12)
        assert got.residual / s == pytest.approx(want.residual, rel=0, abs=1e-12)

    def test_avoided_crossing(self, k):
        # the root tolerance along omega is 1e-10 of max(d, |omega|), not
        # of max(1, |omega|)
        s = 2.0 ** k
        want = avoided_crossing(scaled(1.0, omega=0.2, theta=0.0314159265, delta=0.8),
                                ("m0", "m+1"), (0.19, 0.21))
        got = avoided_crossing(scaled(s, omega=0.2, theta=0.0314159265, delta=0.8),
                               ("m0", "m+1"), (0.19 * s, 0.21 * s))
        assert got.omega_res / s == pytest.approx(want.omega_res, rel=1e-12)
        assert got.gap / s == pytest.approx(want.gap, rel=1e-12)

    def test_readme_evolve_rabi_frequency(self, k):
        # rabi_fit's tolerances are stated in the trace's own units
        assert readme_rabi(2.0 ** k) == pytest.approx(readme_rabi(1.0), rel=1e-9)

    def test_field_spectrum(self, k):
        # the continuity floor along omega is a pure number: 1.5 d made the
        # bound overflow at d = 2^600 and refused the sweep at d <= 2^-30;
        # the ulp is that of the first point, the smallest of the sweep
        ulp = quasi_ulp(RotorParams(omega=0.05, theta=0.3, delta=0.4))
        assert_within_ulps(spectrum(2.0 ** k), spectrum(1.0), QUASI_ULPS, ulp)

    def test_field_geomphase(self, k):
        # beyond 2^+-400 the harmonic matrices are solved in units of a
        # power of two, which the eigensolver does not rescale
        ulp = phase_ulp(RotorParams(omega=0.85, theta=0.3, delta=0.4))
        assert_within_ulps(phases(2.0 ** k), phases(1.0), PHASE_ULPS, ulp)


def test_a_fine_sweep_answers_at_d_2_to_the_minus_30():
    # 27 of 300 random field sweeps scaled by 2^-30 refused this one with
    # "branch continuity violated", as the floor along omega was 1.5 d
    q = quasienergy_spectrum(
        RotorParams(d=9.313225746154785e-10, theta=0.708899452557018,
                    delta=-7.512154524140756e-10, omega=5.683072585987373e-10),
        "omega", np.linspace(5.683072585987373e-10, 1.2226358293255292e-09, 27))
    assert len(q.axis_values) == 27


def test_brent_root_bisects_where_the_extrapolation_underflows():
    # dblk dpre (fblk - fpre) underflows to 0 at |x| ~ 1e200; SciPy's C
    # divides to an infinity there and bisects
    def f(x):
        return (x / 1e200) ** 3 - 2.0

    assert brent_root(f, 1e200, 2e200, 1e188) == brentq(f, 1e200, 2e200, xtol=1e188)


@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
def test_rabi_fit_refuses_a_random_grid_at_any_scale(scale):
    t = np.sort(np.random.default_rng(7).uniform(0.0, scale, 2000))
    pop = np.cos(37.0 * t / scale) ** 2
    pops = np.stack([1.0 - pop, pop, np.zeros(len(t))], axis=1)
    trace = EvolutionTrace(times=t, states=np.sqrt(pops) + 0j, populations=pops)
    with pytest.raises(InvalidArgumentError, match="uniform time grid"):
        rabi_fit(trace, ("m0", "m+1"))
