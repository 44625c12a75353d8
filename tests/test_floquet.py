import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eig_banded

from rotorspin import dynamics, floquet, geomphase
from rotorspin.cli import main
from rotorspin.errors import (DegeneracyError, InvalidArgumentError,
                              NoCrossingError, NumericFailureError,
                              RotorSpinError, TrackingError)
from rotorspin.floquet import (
    EDGE_WEIGHT_LEVELS,
    EDGE_WEIGHT_STATES,
    LABELS,
    ModeSet,
    _assign_labels,
    _best_permutation,
    auto_harmonics,
    avoided_crossing,
    cubic_quasienergies,
    floquet_matrix,
    fold,
    physical_modes,
    quasienergies_zero_field,
    quasienergy_spectrum,
    zero_field_modes,
)
from rotorspin.model import (RotorParams, drive_amplitude, gauge_harmonics,
                             h_interaction, static_part)
from rotorspin.spin_algebra import SPIN, hermitian_eigensystem, hermiticity_defect

RNG = np.random.default_rng(99)

#: The sweep batch orders its float operations differently from the
#: per-point oracles below (numpy's power, sine and arccosine, stacked
#: einsum sums, zero-padded harmonic sums), so the two agree to a stated
#: number of ulp, not bit for bit. Quasi-energies, modes and edge weights:
#: QUASI_ULPS ulp of max(d, |omega|, |delta|) ...
QUASI_ULPS = 4
#: ... and geometric phases: PHASE_ULPS ulp of |2 pi / omega| max(d,
#: |omega|, |delta|), the size of a phase term before its subtraction.
PHASE_ULPS = 8


def quasi_ulp(p):
    """The ulp of max(d, |omega|, |delta|) at p."""
    return float(np.spacing(max(p.d, abs(p.omega), abs(p.delta))))


def phase_ulp(p):
    """The ulp of |2 pi / omega| max(d, |omega|, |delta|) at p."""
    return float(np.spacing(2.0 * math.pi / abs(p.omega)
                            * max(p.d, abs(p.omega), abs(p.delta))))


def assert_within_ulps(got, want, ulps, ulp):
    """Each number of `got` within `ulps` times `ulp` of its match in
    `want`, real or complex, the shapes equal."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, (got.shape, want.shape)
    worst = float(np.abs(got - want).max(initial=0.0))
    assert worst <= ulps * ulp, (worst / ulp, got, want)


def recording_eigh(eigh, shape=None, array=None):
    """np.linalg.eigh that first hands the shape of each input of a
    harmonic matrix (last axis above 3), or the input itself, to a
    recorder."""
    def wrapper(a, *args, **kwargs):
        if np.shape(a)[-1] > 3:
            if shape is not None:
                shape(np.shape(a))
            if array is not None:
                array(a)
        return eigh(a, *args, **kwargs)
    return wrapper


def fold_dist(a, b, omega):
    w = abs(omega)
    d = (a - b) % w
    return min(d, w - d)


def newton_polish(x, d, omega, theta):
    """A root of the zero-field cubic refined by Newton's method in
    40-digit decimal arithmetic, with the float inputs taken exactly."""
    with localcontext() as ctx:
        ctx.prec = 40
        d, w = Decimal(d), Decimal(omega)
        b, c = -2 * d, -(w * w - d * d)
        e = w * w * d * Decimal(math.sin(theta)) ** 2
        x = Decimal(float(x))
        for _ in range(8):
            x -= (((x + b) * x + c) * x + e) / ((3 * x + 2 * b) * x + c)
        return float(x)


class TestCubic:
    def test_static_limit_roots(self):
        np.testing.assert_allclose(cubic_quasienergies(1.0, 0.0, 0.7),
                                   [0.0, 1.0, 1.0], atol=1e-12)

    def test_axis_aligned_roots(self):
        roots = cubic_quasienergies(1.0, 0.4, 0.0)
        np.testing.assert_allclose(roots, [0.0, 0.6, 1.4], atol=1e-12)
        assert math.copysign(1.0, roots[0]) == 1.0  # an exact 0.0, not -0.0

    @pytest.mark.parametrize("omega", [1e3, 1e9, 1e15, 1e20, 1e51, -1e9])
    @pytest.mark.parametrize("theta", [0.3, 1.2, 2.9])
    def test_every_root_to_relative_rounding(self, omega, theta):
        # the root nearest zero is about d sin^2(theta), far below |omega|
        for r in cubic_quasienergies(1.0, omega, theta):
            exact = newton_polish(r, 1.0, omega, theta)
            assert abs(r - exact) <= 1e-13 * abs(exact)

    def test_roots_match_eigensolver(self):
        p = RotorParams(omega=0.7, theta=1.1)
        roots = cubic_quasienergies(1.0, 0.7, 1.1)
        vals = hermitian_eigensystem(h_interaction(p)).values
        np.testing.assert_allclose(roots, vals, atol=1e-10)

    @pytest.mark.parametrize("omega", [1e52, -1e52, 1e308])
    def test_overflow_raises(self, omega):
        with pytest.raises(NumericFailureError, match="omega = "):
            cubic_quasienergies(1.0, omega, 0.3)
        with pytest.raises(NumericFailureError, match="omega = "):
            quasienergies_zero_field(RotorParams(omega=omega, theta=0.3))

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

    @pytest.mark.parametrize("omega, delta, n", [
        (1e308, 0.3, 12), (-1e307, 1e308, 12), (1e300, 1e308, 12),
        (1e306, 0.3, 512)])
    def test_rejects_levels_past_the_float64_range(self, omega, delta, n):
        p = RotorParams(omega=omega, theta=0.3, delta=delta)
        with pytest.raises(NumericFailureError, match="overflows"):
            floquet_matrix(p, n)

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
            ms = auto_harmonics(p)
            ref = physical_modes(p, ms.n_harmonics)
            assert ms.edge_weight <= 1e-14
            # the certified modes stay put when the truncation doubles
            doubled = physical_modes(p, 2 * ms.n_harmonics)
            assert circ_worst(ms.quasi, doubled.quasi, p.omega) < 1e-9
            for name in ("quasi", "fourier", "weights", "mode0"):
                np.testing.assert_array_equal(getattr(ms, name),
                                              getattr(ref, name))

    def test_large_edge_weight_doubles_the_truncation(self):
        # the Bessel estimate starts theta = 1.4 at N = 9
        p = RotorParams(omega=0.3, theta=1.4, delta=0.9)
        assert physical_modes(p, 9).edge_weight > 1e-14
        ms = auto_harmonics(p)
        assert ms.n_harmonics == 18
        assert ms.edge_weight <= 1e-14

    @pytest.mark.parametrize("bound", [EDGE_WEIGHT_LEVELS, EDGE_WEIGHT_STATES])
    def test_start_is_the_bessel_estimate(self, monkeypatch, bound):
        # the first solve is at the smallest N >= 1 with
        # ((sin(theta) / 2)^N / N!)^2 <= bound / 100; every harmonic matrix
        # solved is recorded, by its truncation
        solved = []
        monkeypatch.setattr(np.linalg, "eigh", recording_eigh(
            np.linalg.eigh, lambda shape: solved.extend(
                [(shape[-1] // 3 - 1) // 2] * math.prod(shape[:-2]))))
        for theta in (0.0, 1e-9, 0.02, 0.3, 1.0, math.pi / 2, 3.0, math.pi):
            solved.clear()
            auto_harmonics(RotorParams(omega=0.7, theta=theta, delta=0.2), bound)
            n, x = solved[0], math.sin(theta) / 2
            assert (x ** n / math.factorial(n)) ** 2 <= bound / 100
            assert n == 1 or (x ** (n - 1) / math.factorial(n - 1)) ** 2 > bound / 100
            assert solved == [n * 2 ** k for k in range(len(solved))]

    @pytest.mark.parametrize("bound", [0.0, -1e-14, 1.0, math.nan])
    def test_rejects_a_bound_outside_the_unit_interval(self, bound):
        with pytest.raises(InvalidArgumentError, match="edge_weight_max"):
            auto_harmonics(RotorParams(omega=0.7, theta=0.3, delta=0.2), bound)

    @pytest.mark.parametrize("bound", [0.0, 1.0, -1e-3, math.nan, math.inf])
    @pytest.mark.parametrize("p", [RotorParams(omega=0.7, theta=0.3, delta=0.2),
                                   RotorParams(omega=0.0, theta=0.3, delta=0.2),
                                   RotorParams(omega=0.7, theta=0.3)],
                             ids=["field", "omega=0", "delta=0"])
    def test_every_route_rejects_a_bound_outside_the_unit_interval(self, p, bound):
        # the exact routes too, whose modes do not read the bound
        with pytest.raises(InvalidArgumentError, match="edge_weight_max"):
            auto_harmonics(p, bound)
        for axis in ("omega", "theta", "delta"):
            with pytest.raises(InvalidArgumentError, match="edge_weight_max"):
                floquet.field_modes(p, axis, [getattr(p, axis)], bound)

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
            quasi = auto_harmonics(p).quasi
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


class TestZeroFieldModes:
    """Without a field `auto_harmonics` returns the exact frame modes: the
    cubic roots, the `h_interaction` eigenvectors and no harmonic matrix."""

    def test_match_a_24_harmonic_solve(self):
        # 40 points: |omega| log-uniform in [0.01, 3] of both signs, theta in
        # [0, pi], d in [0.5, 2], phi0 in [-5, 5]
        rng = np.random.default_rng(2024)
        worst = {"quasi": 0.0, "weights": 0.0, "gamma": 0.0}
        for _ in range(40):
            p = RotorParams(
                omega=float(rng.choice([-1.0, 1.0])
                            * 10 ** rng.uniform(-2.0, math.log10(3.0))),
                theta=float(rng.uniform(0.0, math.pi)),
                d=float(rng.uniform(0.5, 2.0)),
                phi0=float(rng.uniform(-5.0, 5.0)))
            exact, ref = auto_harmonics(p), physical_modes(p, 24)
            assert (exact.n_harmonics, exact.edge_weight) == (0, 0.0)
            for m in range(3):
                dist = [fold_dist(exact.quasi[m], q, p.omega) for q in ref.quasi]
                r = int(np.argmin(dist))
                worst["quasi"] = max(worst["quasi"], dist[r])
                worst["weights"] = max(worst["weights"], np.abs(
                    exact.weights[m] - ref.weights[r]).max())
            got = geomphase.geometric_phases_with_field(p).gamma
            want = oracle_field_phases(p, ref)[0]
            worst["gamma"] = max(worst["gamma"], max(
                abs(got[lab] - want[b]) for b, lab in enumerate(LABELS)))
        assert worst["quasi"] <= 1e-13, worst
        assert worst["weights"] <= 1e-12, worst
        assert worst["gamma"] <= 1e-10, worst

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--theta", "0.3", "--delta", "0", "--axis", "omega:0:1.2:9"],
        ["geomphase", "--theta", "0.3", "--delta", "0", "--axis", "omega:0.5:1:5"],
        ["evolve", "--omega", "0.7", "--theta", "0.3", "--delta", "0",
         "--t-end", "10"],
        ["spectrum", "--theta", "0.3", "--delta", "0", "--axis",
         "omega:0.1:1.3:201"],
        ["geomphase", "--omega", "0.9", "--delta", "0", "--axis",
         "theta:0:3.141592653589793:41"],
    ])
    def test_zero_field_runs_solve_no_harmonic_matrix(self, monkeypatch,
                                                      tmp_path, argv):
        # a zero-field sweep is one stacked 3x3 eigensolve, whatever its
        # length: the count does not depend on the hardware
        shapes = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        assert main([*argv, "--output", str(tmp_path / "out.csv")]) == 0
        assert shapes and all(max(s[-2:]) <= 3 for s in shapes), shapes
        if argv[0] != "evolve":
            points = int(argv[-1].rsplit(":", 1)[1])
            assert shapes == [(points, 3, 3)]


def scalar_cubic(d, omega, theta):
    """The zero-field cubic solved one point at a time with Python floats,
    as `cubic_quasienergies` did before sweeps were batched: the reference
    the batch must match within QUASI_ULPS."""
    p = RotorParams(d=d, omega=omega, theta=theta)
    b = -2.0 * d
    c = -(omega * omega - d * d)
    e = omega * omega * d * math.sin(theta) ** 2
    q_p = c - b * b / 3.0
    q = e - b * c / 3.0 + 2.0 * b ** 3 / 27.0
    try:
        disc = -4.0 * q_p ** 3 - 27.0 * q * q
        scale = max(d, abs(omega)) ** 6
    except OverflowError:
        raise NumericFailureError(
            f"zero-field cubic overflows at omega = {omega:.3g}") from None
    if disc < 1e-13 * scale or q_p >= 0.0:
        return hermitian_eigensystem(h_interaction(p)).values
    m = 2.0 * math.sqrt(-q_p / 3.0)
    phi = math.acos(min(1.0, max(-1.0, 3.0 * q / (q_p * m)))) / 3.0
    roots = m * np.cos(phi - 2.0 * math.pi * np.arange(3) / 3.0) - b / 3.0
    k = int(np.argmin(np.abs(roots)))
    roots[k] = -e / (roots[k - 1] * roots[k - 2]) if e else 0.0
    about = {0.0: (b, c, e), d: (d, -omega * omega,
                                 -omega * omega * d * math.cos(theta) ** 2)}
    for k, x in enumerate(roots.tolist()):
        shift = 0.0 if abs(x) <= abs(x - d) else d
        c2, c1, c0 = about[shift]
        y = x - shift
        for _ in range(2):
            slope = (3.0 * y + 2.0 * c2) * y + c1
            if slope:
                y -= (((y + c2) * y + c1) * y + c0) / slope
        roots[k] = y + shift
    return np.sort(roots)


def oracle_physical_modes(p, n):
    """`physical_modes` as it was before field sweeps were solved as one
    batch: one matrix, its three modes picked greedily in Python. The
    reference the batch must match within QUASI_ULPS."""
    f = floquet_matrix(p.with_(phi0=0.0), n).real
    vals, vecs = np.linalg.eigh(f)
    blocks = vecs.reshape(2 * n + 1, 3, -1)
    if p.phi0 != 0:
        phi = np.angle(np.exp(1j * p.phi0))
        blocks = blocks * np.exp(1j * phi * np.arange(-n, n + 1))[:, None, None]
    central = (np.abs(blocks[n]) ** 2).sum(axis=0)
    order = np.argsort(central)[::-1]
    states0 = blocks.sum(axis=0)
    norms0 = np.linalg.norm(states0, axis=0)
    pick = []
    for j in order:
        if norms0[j] < 1e-8:
            continue
        dup = False
        for i in pick:
            same_fold = abs(fold(vals[j] - vals[i], p.omega)) < 1e-6 * abs(p.omega)
            ov = abs(np.vdot(states0[:, i], states0[:, j])) / (norms0[i] * norms0[j])
            if same_fold and ov > 0.99:
                dup = True
                break
        if not dup:
            pick.append(int(j))
        if len(pick) == 3:
            break
    if len(pick) < 3:
        raise NumericFailureError(
            "could not isolate three distinct drive modes; raise the truncation")
    pick = np.array(pick)
    v = vecs[:, pick]
    quasi = np.einsum("im,im->m", v, f @ v) / np.einsum("im,im->m", v, v)
    fourier = blocks[:, :, pick]
    weights = (np.abs(fourier) ** 2).sum(axis=0).T
    weights = weights / weights.sum(axis=1, keepdims=True)
    mode0 = fourier.sum(axis=0)
    mode0 = mode0 / np.linalg.norm(mode0, axis=0, keepdims=True)
    edge = (np.abs(fourier[[0, -1]]) ** 2).sum(axis=(0, 1)).max()
    return ModeSet(quasi=quasi, fourier=fourier, weights=weights, mode0=mode0,
                   n_harmonics=n, edge_weight=float(edge))


def oracle_auto_harmonics(p, bound=EDGE_WEIGHT_LEVELS, solved=None):
    """`auto_harmonics` as it was before field sweeps were batched, one
    point at a time over `oracle_physical_modes`; `solved`, if a list,
    collects each truncation solved."""
    if p.omega == 0:
        es = hermitian_eigensystem(static_part(p))
        return ModeSet(quasi=es.values, fourier=es.vectors[None],
                       weights=(np.abs(es.vectors) ** 2).T, mode0=es.vectors,
                       n_harmonics=0, edge_weight=0.0)
    if p.delta == 0:
        zf = zero_field_modes(p, "omega", [p.omega])
        if zf.error is not None:
            raise zf.error
        v = zf.modes[0]
        return ModeSet(quasi=zf.quasi[0], fourier=np.eye(3)[:, :, None] * v,
                       weights=(np.abs(v) ** 2).T, mode0=v, n_harmonics=0,
                       edge_weight=0.0)
    n = floquet._n_start(p.theta, bound)
    while n <= 512:
        modes = oracle_physical_modes(p, n)
        if solved is not None:
            solved.append(n)
        if modes.edge_weight <= bound:
            return modes
        n *= 2
    raise NumericFailureError("harmonic truncation did not converge below N = 512")


def oracle_field_phases(p, ms=None):
    """(gamma, term1, term2) rows in LABELS order of the harmonic sum as
    `geometric_phases_with_field` computed it one point at a time, over
    the modes ms (by default `oracle_auto_harmonics` at
    EDGE_WEIGHT_STATES)."""
    t_signed = math.copysign(p.period, p.omega)
    ms = oracle_auto_harmonics(p, EDGE_WEIGHT_STATES) if ms is None else ms
    idx = _assign_labels(ms.weights)
    for i, a in enumerate(LABELS):
        for b in LABELS[i + 1:]:
            gap = fold_dist(ms.quasi[idx[a]], ms.quasi[idx[b]], p.omega)
            if gap < 1e-10 * p.d:
                purity = min(ms.weights[idx[a]].max(), ms.weights[idx[b]].max())
                if purity < 0.999:
                    raise DegeneracyError(
                        f"branches {a} and {b} are degenerate; phases not separable")
    a0, a_minus = gauge_harmonics(p)
    rows = []
    for lab in LABELS:
        c = ms.fourier[:, :, idx[lab]]
        norm = np.vdot(c, c).real
        static = np.einsum("ks,st,kt->", c.conj(), a0, c).real
        hop = np.einsum("ks,st,kt->", c[:-1].conj(), a_minus, c[1:]).real
        sz = np.einsum("ks,st,kt->", c.conj(), SPIN.sz, c).real
        gamma = float(t_signed * (static + 2.0 * hop) / norm)
        term1 = float(t_signed * p.omega * sz / norm)
        rows.append((gamma, term1, term1 - gamma))
    return np.array(rows).T


def oracle_slope_targets(p):
    """The slope-rule targets in LABELS order of one point."""
    levels = hermitian_eigensystem(static_part(p)).values
    idx = static_labels(p)
    return np.array([levels[idx[lab]] + floquet.SLOPE[lab] * p.omega
                     for lab in LABELS])


def static_labels(p):
    """The index, among the ascending levels of `static_part(p)`, of the
    level each branch label takes by spin character."""
    return _assign_labels((np.abs(hermitian_eigensystem(static_part(p)).vectors)
                           ** 2).T)


def per_point_spectrum(p_template, axis, values):
    """A spectrum solved and tracked one point at a time, as
    `quasienergy_spectrum` did before its tracker worked on arrays: (reps,
    modes, largest truncation, largest edge weight, worst overlap), or the
    error of the first point that fails. A grid that does not strictly
    ascend is refused first, as the code refuses it, before any slope is
    taken. A sweep with a field unfolds each point with omega != 0 by its
    offset from the slope-rule target."""
    if np.any(np.diff(values) <= 0):
        raise InvalidArgumentError("axis values must be strictly ascending")
    field = axis == "delta" or p_template.delta != 0
    min_slope = 1.5 if axis != "theta" else abs(p_template.omega) + p_template.d
    reps = np.empty((len(values), 3))
    modes = np.empty((len(values), 3, 3), dtype=complex)
    offset = np.zeros(3)
    n_max, edge_max, overlap_min = 0, 0.0, 1.0
    for i, x in enumerate(values):
        p = p_template.with_(**{axis: float(x)})
        ms = oracle_auto_harmonics(p)
        width = abs(p.omega) if field else 0.0
        n_max = max(n_max, ms.n_harmonics)
        edge_max = max(edge_max, ms.edge_weight)
        if i == 0:
            def dist(a, b):
                r = (a - b) % width if width else abs(a - b)
                return min(r, width - r) if width else r
            gap = min(dist(ms.quasi[a], ms.quasi[b])
                      for a, b in ((0, 1), (0, 2), (1, 2)))
            if gap < 1e-6 * p_template.d and ms.weights.max(axis=1).min() < 0.99:
                raise TrackingError("sweep starts inside a gap: branches not "
                                    "separable at the first point")
            idx = _assign_labels(ms.weights)
            perm = [idx[lab] for lab in LABELS]
        else:
            overlap = np.abs(modes[i - 1].conj() @ ms.mode0)
            perm = _best_permutation(overlap)
            worst = overlap[np.arange(3), perm].min()
            overlap_min = min(overlap_min, float(worst))
            if worst < 0.5:
                raise TrackingError(
                    f"branch tracking lost between {axis} = {values[i-1]:.6g} "
                    f"and {x:.6g} (max overlap {worst:.3f}); use a finer grid")
        reps[i] = ms.quasi[perm]
        modes[i] = ms.mode0[:, perm].T
        if width:
            target = oracle_slope_targets(p)
            reps[i] += np.round((target + offset - reps[i]) / width) * width
            offset = reps[i] - target
        if i >= 2:
            slope = np.abs(reps[i - 1] - reps[i - 2]) / (values[i - 1] - values[i - 2])
            bound = 10.0 * (x - values[i - 1]) * np.maximum(slope, min_slope)
            if np.any(np.abs(reps[i] - reps[i - 1]) > bound):
                before = static_labels(p_template.with_(**{axis: float(values[i - 1])}))
                after = static_labels(p)
                if width and (before["m-1"], before["m+1"]) == (after["m+1"],
                                                                after["m-1"]):
                    raise TrackingError(
                        f"branch continuity violated near {axis} = {x:.6g}: "
                        f"the slope-rule labels of m-1 and m+1 swap between "
                        f"{axis} = {values[i - 1]:.6g} and {x:.6g}, where omega "
                        "(1 - cos theta) - delta cos theta passes zero; no "
                        "finer grid avoids this")
                raise TrackingError(f"branch continuity violated near {axis} = "
                                    f"{x:.6g}; use a finer grid")
    return reps, modes, n_max, edge_max, overlap_min


def per_point_phases(p):
    """(gamma, term1, term2) rows in LABELS order of the closed form at one
    point, as `geometric_phases_zero_field` computed them before sweeps
    were batched."""
    t_signed = math.copysign(p.period, p.omega)
    ms = oracle_auto_harmonics(p)
    idx = _assign_labels(ms.weights)
    rows = []
    for lam, vec in ((float(ms.quasi[idx[lab]]), ms.mode0[:, idx[lab]])
                     for lab in LABELS):
        w = np.abs(vec) ** 2
        dyn = (p.d - p.omega) * w[0] + (p.d + p.omega) * w[2]
        rows.append((lam * t_signed - dyn * t_signed, lam * t_signed,
                     dyn * t_signed))
    return np.array(rows).T


_KEY_ANGLES = (0.0, math.pi / 2, math.pi)


@st.composite
def zero_field_sweeps(draw):
    """(template, axis, values) of a zero-field sweep: along omega of both
    signs, through an exact 0 or not, or along theta through some of 0,
    pi/2 and pi; d in [0.3, 3], phi0 in [-7, 7]."""
    d = draw(st.floats(0.3, 3.0))
    phi0 = draw(st.floats(-7.0, 7.0))
    points = draw(st.integers(2, 60))
    if draw(st.booleans()):
        axis = "omega"
        lo, hi = sorted(draw(st.lists(st.floats(-3.0, 3.0), min_size=2,
                                      max_size=2, unique=True)))
        values = np.linspace(lo, hi, points)
        if lo < 0 < hi and draw(st.booleans()):
            values = np.unique(np.append(values, 0.0))
        fixed = {"theta": draw(st.floats(0.0, math.pi)
                                | st.sampled_from(_KEY_ANGLES))}
    else:
        axis = "theta"
        lo, hi = sorted(draw(st.lists(st.floats(0.0, math.pi), min_size=2,
                                      max_size=2, unique=True)))
        keys = draw(st.lists(st.sampled_from(_KEY_ANGLES), max_size=3))
        values = np.unique(np.concatenate([np.linspace(lo, hi, points), keys]))
        fixed = {"omega": draw(st.floats(-3.0, 3.0) | st.just(0.0))}
    return RotorParams(d=d, phi0=phi0, **fixed, **{axis: float(values[0])}), \
        axis, values


@st.composite
def field_sweeps(draw):
    """(template, axis, values) of a sweep with a field: along omega of one
    sign, along theta up to pi, or along delta through an exact 0 or not;
    d in [0.3, 3], phi0 in [-7, 7], 2-25 points, grids coarse enough that
    some sweeps are refused."""
    d = draw(st.floats(0.3, 3.0))
    phi0 = draw(st.floats(-7.0, 7.0))
    points = draw(st.integers(2, 25))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    fixed = {"omega": sign * draw(st.floats(0.02, 1.5)),
             "theta": draw(st.floats(0.0, math.pi) | st.sampled_from(_KEY_ANGLES)),
             "delta": draw(st.floats(-2.0, 2.0).filter(bool))}
    axis = draw(st.sampled_from(["omega", "theta", "delta"]))
    span = {"omega": (0.02, 1.5), "theta": (0.0, math.pi), "delta": (-2.0, 2.0)}
    lo, hi = sorted(draw(st.lists(st.floats(*span[axis]), min_size=2,
                                  max_size=2, unique=True)))
    if axis == "omega":
        lo, hi = sorted((sign * lo, sign * hi))
    else:
        fixed["omega"] = draw(st.just(fixed["omega"]) | st.just(0.0))
    values = np.linspace(lo, hi, points)
    if axis == "delta" and lo < 0 < hi and draw(st.booleans()):
        values = np.unique(np.append(values, 0.0))
    assume(np.all(np.diff(values) > 0))
    return RotorParams(d=d, phi0=phi0, **{**fixed, axis: float(values[0])}), \
        axis, values


def outcome(call):
    """The result of call(), or the type and text of the error it raised."""
    try:
        return call(), None
    except (TrackingError, InvalidArgumentError, NumericFailureError) as exc:
        return None, (type(exc), str(exc))


class TestZeroFieldBatch:
    """A zero-field sweep is one batch, and every sweep is tracked on
    arrays: the results match the points solved and tracked one at a time
    within QUASI_ULPS and PHASE_ULPS, and fail where and as they fail
    first."""

    @settings(max_examples=200, deadline=None)
    @given(omega=st.floats(-3.0, 3.0) | st.sampled_from([0.0, 1.0, -1.0, 1e51, 1e52]),
           theta=st.floats(0.0, math.pi) | st.sampled_from(_KEY_ANGLES),
           d=st.floats(0.3, 3.0))
    def test_cubic_equals_the_scalar_cubic(self, omega, theta, d):
        got, err = outcome(lambda: cubic_quasienergies(d, omega, theta))
        want, want_err = outcome(lambda: scalar_cubic(d, omega, theta))
        assert err == want_err
        if err is None:
            assert_within_ulps(got, want, QUASI_ULPS,
                               quasi_ulp(RotorParams(d=d, omega=omega, theta=theta)))

    @settings(max_examples=200, deadline=None)
    @given(sweep=zero_field_sweeps() | field_sweeps())
    # a refusal at the swap of the side labels, and one elsewhere
    @example(sweep=(RotorParams(omega=0.2, theta=1.2, delta=0.4), "omega",
                    np.linspace(0.2, 1.2, 101)[:30]))
    @example(sweep=(RotorParams(omega=0.0669, theta=0.2236, delta=-1.8437),
                    "theta", np.linspace(0.2236, 0.8867, 5)))
    # two adjacent floats, which linspace repeats: both refuse the grid
    @example(sweep=(RotorParams(omega=-3.0, theta=0.5), "omega",
                    np.linspace(-3.0, np.nextafter(-3.0, 0.0), 3)))
    # a subnormal |omega| whose drive period 2 pi / |omega| overflows
    @example(sweep=(RotorParams(d=5e-324, delta=5e-324, omega=1e-323, theta=0.0),
                    "theta", np.linspace(0.0, 0.2, 3)))
    @example(sweep=(RotorParams(d=1e-300, delta=1e-300, omega=1e-309, theta=0.3),
                    "omega", np.linspace(1e-309, 2e-309, 3)))
    def test_spectrum_equals_the_per_point_loop(self, sweep):
        p, axis, values = sweep
        got, err = outcome(lambda: quasienergy_spectrum(p, axis, values))
        want, want_err = outcome(lambda: per_point_spectrum(p, axis, values))
        assert err == want_err
        if err is None:
            reps, modes, n_max, edge_max, overlap_min = want
            for i, x in enumerate(values):
                ulp = quasi_ulp(p.with_(**{axis: float(x)}))
                assert_within_ulps([got.branch(lab).quasienergy[i] for lab in LABELS],
                                   reps[i], QUASI_ULPS, ulp)
                assert_within_ulps([got.branch(lab).mode0[i] for lab in LABELS],
                                   modes[i], QUASI_ULPS, ulp)
            assert got.truncation == n_max
            assert_within_ulps([got.edge_weight, got.tracking_overlap_min],
                               [edge_max, overlap_min], QUASI_ULPS, quasi_ulp(p))

    @settings(max_examples=100, deadline=None)
    @given(sweep=zero_field_sweeps())
    def test_phases_equal_the_per_point_closed_form(self, sweep):
        p, axis, values = sweep
        ph = geomphase.field_phases(p, axis, values)
        for i, v in enumerate(values):
            want, err = outcome(
                lambda: per_point_phases(p.with_(**{axis: float(v)})))
            if i == len(ph.gamma):
                assert err == (type(ph.error), str(ph.error))
                break
            assert err is None
            got = np.array([ph.gamma[i], ph.term1[i], ph.term2[i]])
            assert_within_ulps(got, want, PHASE_ULPS,
                               phase_ulp(p.with_(**{axis: float(v)})))
        else:
            assert ph.error is None

    def test_modes_stop_before_the_first_failing_point(self):
        # the cubic overflows at the third point, and the points after it
        # are not solved
        p = RotorParams(omega=1.0, theta=0.3)
        zf = zero_field_modes(p, "omega", [0.5, 1.0, 1e52, 2.0])
        assert zf.quasi.shape == (2, 3) and zf.modes.shape == (2, 3, 3)
        assert isinstance(zf.error, NumericFailureError)
        assert str(zf.error) == "zero-field cubic overflows at omega = 1e+52"
        zf = zero_field_modes(p, "theta", [0.5, 4.0, 1.0])
        assert len(zf.quasi) == 1 and isinstance(zf.error, InvalidArgumentError)

    def test_rejects_field(self):
        with pytest.raises(InvalidArgumentError):
            zero_field_modes(RotorParams(omega=0.3, theta=0.4, delta=0.1),
                             "omega", [0.3])


def result_or_error(call):
    """The result of call(), or the type and text of the error it raised."""
    try:
        return call(), None
    except RotorSpinError as exc:
        return None, (type(exc), str(exc))


def params_of(argv):
    """The RotorParams of a CLI argv's flags (before its --axis) and the
    axis name and values."""
    p = RotorParams(omega=0.0, theta=0.0)
    for flag, value in zip(argv[1:-2:2], argv[2:-2:2]):
        p = p.with_(**{flag.lstrip("-"): float(value)})
    name, lo, hi, points = argv[-1].split(":")
    return p, name, np.linspace(float(lo), float(hi), int(points))


@st.composite
def batch_sweeps(draw):
    """(template, axis, values) of a sweep for the field batch: along omega
    of both signs, through an exact 0 or not, along theta in [0, pi], or
    along delta through an exact 0 or not; tilts up to pi/2 and beyond,
    where the truncation doubles; phi0 0 or not; d in [0.3, 3]; 2-12
    points."""
    d = draw(st.floats(0.3, 3.0))
    phi0 = draw(st.just(0.0) | st.floats(-7.0, 7.0))
    points = draw(st.integers(2, 12))
    axis = draw(st.sampled_from(["omega", "theta", "delta"]))
    fixed = {"omega": draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.02, 1.5)),
             "theta": draw(st.floats(0.0, math.pi)
                           | st.sampled_from((1.2, 1.4, math.pi / 2, math.pi))),
             "delta": draw(st.floats(-2.0, 2.0) | st.just(0.0))}
    span = {"omega": (-1.5, 1.5), "theta": (0.0, math.pi), "delta": (-2.0, 2.0)}
    lo, hi = sorted(draw(st.lists(st.floats(*span[axis]), min_size=2,
                                  max_size=2, unique=True)))
    values = np.linspace(lo, hi, points)
    if lo < 0 < hi and draw(st.booleans()):
        values = np.unique(np.append(values, 0.0))
    return RotorParams(d=d, phi0=phi0, **{**fixed, axis: float(values[0])}), \
        axis, values


def matched_worst(got, ref, omega):
    """Largest folded distance between the three values of `got` and of
    `ref` under the pairing that makes it least."""
    return min(max(fold_dist(g, r, omega) for g, r in zip(got, perm))
               for perm in itertools.permutations(ref))


@st.composite
def field_params(draw):
    """(omega, theta, delta, phi0) with |omega| log-uniform in
    [10^-1.5, 10^0.5] of both signs, theta in [0, pi], delta in [-2, 2]."""
    omega = draw(st.sampled_from([-1.0, 1.0])) * 10 ** draw(st.floats(-1.5, 0.5))
    return RotorParams(omega=omega, theta=draw(st.floats(0.0, math.pi)),
                       delta=draw(st.floats(-2.0, 2.0)),
                       phi0=draw(st.floats(0.0, 2 * math.pi)))


class TestFieldBatch:
    """A field sweep is one batch: its modes and phases match, within
    QUASI_ULPS and PHASE_ULPS, the points solved one at a time by the code
    the batch replaced (the oracles above), and a sweep fails where and as
    its first failing point fails."""

    @settings(max_examples=150, deadline=None)
    @given(sweep=batch_sweeps(),
           bound=st.sampled_from([EDGE_WEIGHT_LEVELS, EDGE_WEIGHT_STATES]))
    # the truncation doubles at every point (9 -> 18 at theta = 1.4), and
    # at some points of a tilt sweep only
    @example(sweep=(RotorParams(omega=0.3, theta=1.4, delta=0.9), "omega",
                    np.linspace(0.3, 0.5, 4)), bound=EDGE_WEIGHT_LEVELS)
    @example(sweep=(RotorParams(omega=0.3, theta=0.8, delta=0.9, phi0=1.3),
                    "theta", np.linspace(0.8, 1.5, 8)), bound=EDGE_WEIGHT_STATES)
    # a subnormal |omega| whose drive period 2 pi / |omega| overflows:
    # refused at every point, as `floquet_matrix` refuses it
    @example(sweep=(RotorParams(d=5e-324, delta=5e-324, omega=1e-323, theta=0.0),
                    "theta", np.linspace(0.0, 0.2, 3)), bound=EDGE_WEIGHT_LEVELS)
    @example(sweep=(RotorParams(d=1e-300, delta=1e-300, omega=1e-309, theta=0.3),
                    "omega", np.linspace(1e-309, 2e-309, 3)), bound=EDGE_WEIGHT_STATES)
    def test_field_modes_equal_the_oracle(self, sweep, bound):
        p, axis, values = sweep
        fm = floquet.field_modes(p, axis, values, bound)
        for i, x in enumerate(values):
            want, err = result_or_error(
                lambda: oracle_auto_harmonics(p.with_(**{axis: float(x)}), bound))
            if i == len(fm.quasi):
                assert (type(fm.error), str(fm.error)) == err
                break
            assert err is None
            got = (fm.quasi[i], fm.fourier[i], fm.weights[i], fm.mode0[i],
                   fm.edge_weight[i])
            ulp = quasi_ulp(p.with_(**{axis: float(x)}))
            for g, w in zip(got, want[:4] + want[5:]):
                assert_within_ulps(g, w, QUASI_ULPS, ulp)
            assert fm.n_harmonics[i] == want.n_harmonics
        else:
            assert fm.error is None

    @settings(max_examples=100, deadline=None)
    @given(sweep=batch_sweeps())
    def test_field_phases_equal_the_oracle(self, sweep):
        # the closed form at delta = 0, the harmonic sum elsewhere
        p, axis, values = sweep
        ph = geomphase.field_phases(p, axis, values)
        n_max, edge_max = 0, 0.0
        for i, x in enumerate(values):
            q = p.with_(**{axis: float(x)})
            want, err = result_or_error(
                lambda: per_point_phases(q) if q.delta == 0 else oracle_field_phases(q))
            if i == len(ph.gamma):
                assert (type(ph.error), str(ph.error)) == err
                break
            assert err is None
            got = np.array([ph.gamma[i], ph.term1[i], ph.term2[i]])
            assert_within_ulps(got, want, PHASE_ULPS, phase_ulp(q))
            if q.delta != 0:
                ms = oracle_auto_harmonics(q, EDGE_WEIGHT_STATES)
                n_max = max(n_max, ms.n_harmonics)
                edge_max = max(edge_max, ms.edge_weight)
        else:
            assert ph.error is None
            assert ph.truncation == n_max
            assert_within_ulps(ph.edge_weight, edge_max, QUASI_ULPS, quasi_ulp(p))

    @settings(max_examples=100, deadline=None)
    @given(p=field_params(), kind=st.sampled_from(["field", "delta=0", "omega=0"]),
           n=st.integers(0, 20))
    def test_one_point_calls_equal_the_oracle(self, p, kind, n):
        p = {"field": p, "delta=0": p.with_(delta=0.0),
             "omega=0": p.with_(omega=0.0)}[kind]
        for got, want in (
                (lambda: auto_harmonics(p), lambda: oracle_auto_harmonics(p)),
                (lambda: physical_modes(p, n), lambda: oracle_physical_modes(p, n))):
            (a, err), (b, want_err) = result_or_error(got), result_or_error(want)
            assert err == want_err
            if err is None:
                assert a.n_harmonics == b.n_harmonics
                for x, y in zip(a[:4] + a[5:], b[:4] + b[5:]):
                    assert_within_ulps(x, y, QUASI_ULPS, quasi_ulp(p))
        got, err = result_or_error(lambda: geomphase.geometric_phases_with_field(p))
        want, want_err = result_or_error(lambda: oracle_field_phases(p))
        assert err == want_err
        if err is None:
            assert_within_ulps([[s[lab] for lab in LABELS] for s in got[:3]], want,
                               PHASE_ULPS, phase_ulp(p))

    @pytest.mark.parametrize("argv", [
        ["geomphase", "--theta", "0.3", "--delta", "0.4", "--axis", "omega:-0.5:0.5:11"],
        ["geomphase", "--theta", "0.3", "--delta", "0.3", "--axis",
         "omega:1e306:1e307:3"],
        ["geomphase", "--theta", "0.3", "--delta", "1e308", "--axis", "omega:0.1:0.2:3"],
        ["geomphase", "--omega", "0", "--theta", "0.8", "--axis", "delta:-0.2:0.2:21"],
        ["geomphase", "--theta", "0.3", "--delta", "0.3", "--axis",
         "omega:1e-300:1e-299:3"],
        ["spectrum", "--theta", "0.3", "--delta", "0.3", "--axis",
         "omega:1e306:1e307:3"],
        ["spectrum", "--theta", "0.3", "--delta", "1e308", "--axis", "omega:0.1:0.2:3"],
    ])
    def test_refused_sweep_fails_as_its_first_failing_point(self, capsys, argv):
        # the error the sweep raised one point at a time; a geomphase error
        # names its first failing point
        p, name, values = params_of(argv)
        if argv[0] == "spectrum":
            _, err = result_or_error(lambda: per_point_spectrum(p, name, values))
        for x in values if argv[0] == "geomphase" else ():
            q = p.with_(**{name: float(x)})
            _, err = result_or_error(lambda: per_point_phases(q) if q.delta == 0
                                     else oracle_field_phases(q))
            if err is not None:
                err = err[0], f"{err[1]} (at {name} = {x:.6g})"
                break
        kind, text = err
        code = 2 if issubclass(kind, InvalidArgumentError) else 3
        prefix = "config error" if code == 2 else "numeric failure"
        assert main(argv) == code
        assert capsys.readouterr().err == f"{prefix}: {text}\n"

    @pytest.mark.parametrize("argv, solved, targets, text", [
        # the static eigensolve at omega = 0 refuses the second point
        (["spectrum", "--omega", "0", "--theta", "0.3", "--delta", "1e308",
          "--axis", "delta:1e307:1e308:3"], 1, 1,
         "matrix entry of magnitude 5.25e+307 leaves no float64 headroom"),
        # every point is solved, and the slope-rule targets' static
        # eigensolve refuses the third
        (["spectrum", "--delta", "4e307", "--omega", "1e300", "--theta", "0.3",
          "--axis", "delta:1e307:4e307:3"], 3, 2,
         "matrix entry of magnitude 3.82e+307 leaves no float64 headroom"),
    ], ids=["static-route", "slope-targets"])
    def test_eigensolver_refusal_stops_the_sweep_where_one_point_fails(
            self, capsys, argv, solved, targets, text):
        p, name, values = params_of(argv)
        points = [p.with_(**{name: float(x)}) for x in values]
        refusal = (NumericFailureError, text)
        fm = floquet.field_modes(p, name, values)
        assert len(fm.quasi) == solved
        for i, q in enumerate(points):
            want, err = result_or_error(lambda: oracle_auto_harmonics(q))
            if i == solved:
                assert (type(fm.error), str(fm.error)) == err == refusal
                break
            assert err is None
            assert_within_ulps(fm.quasi[i], want.quasi, QUASI_ULPS, quasi_ulp(q))
        else:
            assert fm.error is None
        _, _, n, error = floquet._slope_targets(p, name, values)
        assert n == targets and (type(error), str(error)) == refusal
        for i, q in enumerate(points[:targets + 1]):
            _, err = result_or_error(lambda: hermitian_eigensystem(static_part(q)))
            assert err == (refusal if i == targets else None)
        assert outcome(lambda: quasienergy_spectrum(p, name, values))[1] == refusal
        assert outcome(lambda: per_point_spectrum(p, name, values))[1] == refusal
        assert main(argv) == 3
        assert capsys.readouterr().err == f"numeric failure: {text}\n"


class TestProperties:
    """Results that must not depend on the truncation, nor jump as the
    field vanishes, at random parameters."""

    @settings(max_examples=50, deadline=None)
    @given(p=field_params())
    def test_quasienergies_independent_of_truncation(self, p):
        # at delta = 0 the exact modes (N = 0) against a truncated solve
        ms = auto_harmonics(p)
        doubled = physical_modes(p, 2 * (ms.n_harmonics or 12))
        assert matched_worst(ms.quasi, doubled.quasi, p.omega) <= 1e-13

    @settings(max_examples=50, deadline=None)
    @given(p=field_params(), kind=st.sampled_from(["field", "delta=0", "omega=0"]))
    # two cubic roots 1.2e-6 apart, which the trigonometric formula alone
    # put 8.1e-12 off
    @example(p=RotorParams(omega=-1.0, theta=8.322264124171583e-07),
             kind="delta=0")
    def test_each_mode_is_an_eigenvector_of_its_quasienergy(self, p, kind):
        # F at the set's own block count: N = 0 at omega = 0, the blocks
        # k = -1, 0, 1 of the exact modes at delta = 0
        p = {"field": p, "delta=0": p.with_(delta=0.0),
             "omega=0": p.with_(omega=0.0)}[kind]
        ms = auto_harmonics(p)
        n = len(ms.fourier) // 2
        c = ms.fourier.reshape(3 * (2 * n + 1), 3)
        residual = np.linalg.norm(floquet_matrix(p, n) @ c - c * ms.quasi, axis=0)
        assert residual.max() <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(p=field_params())
    def test_field_quasienergies_continue_to_the_cubic(self, p):
        # the shift is first order in delta, so at most about |delta|
        weak = auto_harmonics(p.with_(delta=1e-9)).quasi
        roots = cubic_quasienergies(p.d, p.omega, p.theta)
        assert matched_worst(weak, roots, p.omega) <= 2e-9


def complex_modes(p, n):
    """The three drive modes from the complex Hermitian eigh of F(phi0)
    itself: the largest central-block weights among distinct folded
    quasi-energies, with weights, t = 0 states and edge weight formed as
    ModeSet documents them."""
    vals, vecs = np.linalg.eigh(floquet_matrix(p, n))
    blocks = vecs.reshape(2 * n + 1, 3, -1)
    central = (np.abs(blocks[n]) ** 2).sum(axis=0)
    pick = []
    for j in np.argsort(central)[::-1]:
        if all(fold_dist(vals[j], vals[i], p.omega) > 1e-6 * abs(p.omega)
               for i in pick):
            pick.append(int(j))
        if len(pick) == 3:
            break
    fourier = blocks[:, :, pick]
    weights = (np.abs(fourier) ** 2).sum(axis=0).T
    mode0 = fourier.sum(axis=0)
    return ModeSet(quasi=vals[pick], fourier=fourier,
                   weights=weights / weights.sum(axis=1, keepdims=True),
                   mode0=mode0 / np.linalg.norm(mode0, axis=0),
                   n_harmonics=n,
                   edge_weight=float((np.abs(fourier[[0, -1]]) ** 2)
                                     .sum(axis=(0, 1)).max()))


class TestRealHarmonicSolve:
    """The harmonic matrix is solved once, real symmetric, at phi0 = 0;
    phi0 enters only as the phase e^{ik phi0} of harmonic block k."""

    def test_matches_the_complex_solve(self):
        # 40 points: |omega| log-uniform in [0.01, 3] of both signs, theta in
        # [0, pi], delta in [-2, 2], d in [0.5, 2], phi0 nonzero and 1e300
        # at the first point
        rng = np.random.default_rng(1707)
        worst = {"quasi": 0.0, "weights": 0.0, "fourier": 0.0}
        for i in range(40):
            p = RotorParams(
                omega=float(rng.choice([-1.0, 1.0])
                            * 10 ** rng.uniform(-2.0, math.log10(3.0))),
                theta=float(rng.uniform(0.0, math.pi)),
                delta=float(rng.uniform(-2.0, 2.0)),
                d=float(rng.uniform(0.5, 2.0)),
                phi0=1e300 if i == 0 else float(rng.uniform(-5.0, 5.0)))
            n = auto_harmonics(p).n_harmonics
            assert np.all(floquet_matrix(p.with_(phi0=0.0), n).imag == 0)
            got, ref = physical_modes(p, n), complex_modes(p, n)
            for m in range(3):
                dist = [fold_dist(got.quasi[m], q, p.omega) for q in ref.quasi]
                r = int(np.argmin(dist))
                c, c_ref = got.fourier[:, :, m], ref.fourier[:, :, r]
                unit = np.vdot(c_ref, c)
                unit /= abs(unit)
                worst["quasi"] = max(worst["quasi"], dist[r])
                worst["weights"] = max(worst["weights"], np.abs(
                    got.weights[m] - ref.weights[r]).max())
                worst["fourier"] = max(worst["fourier"],
                                       np.abs(c - unit * c_ref).max())
        assert max(worst.values()) <= 1e-12, worst

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--theta", "0.3", "--delta", "0.3", "--phi0", "0.4",
         "--axis", "omega:0.3:0.5:3"],
        ["geomphase", "--theta", "0.3", "--delta", "0.4", "--phi0", "0.4",
         "--axis", "omega:0.3:0.5:3"],
        ["resonance", "--theta", "0.0314159265", "--omega", "0.2"],
        ["evolve", "--omega", "0.2", "--theta", "0.3", "--delta", "0.3",
         "--phi0", "0.4", "--t-end", "10"],
    ])
    def test_no_floquet_solve_is_complex(self, monkeypatch, tmp_path, argv):
        dtypes = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            if np.shape(a)[-1] > 3:
                dtypes.append(np.asarray(a).dtype)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        assert main([*argv, "--output", str(tmp_path / "out.csv")]) == 0
        assert dtypes and all(dt == np.float64 for dt in dtypes), dtypes

    def test_huge_phi0_spectrum_equals_phi0_zero(self, capsys):
        # k phi0 overflows for phi0 = 1.7e308; the reduced angle does not
        argv = ["spectrum", "--theta", "0.3", "--delta", "0.3",
                "--axis", "omega:0.1:0.2:3"]
        assert main([*argv, "--phi0", "1.7e308"]) == 0
        huge = capsys.readouterr().out
        assert main(argv) == 0
        assert huge == capsys.readouterr().out

    def test_huge_phi0_evolve_matches_the_complex_solve(self, monkeypatch):
        p = RotorParams(omega=0.2, theta=0.3, delta=0.3, phi0=1e300)
        psi0 = np.array([0.0, 1.0, 0.0], dtype=complex)
        got = dynamics.evolve(p, psi0, 10.0).states
        monkeypatch.setattr(dynamics, "auto_harmonics", lambda q, bound: complex_modes(
            q, auto_harmonics(q, bound).n_harmonics))
        ref = dynamics.evolve(p, psi0, 10.0).states
        assert np.abs(got - ref).max() <= 1e-12

    @staticmethod
    def body(tmp_path, argv, phi0):
        out = tmp_path / f"{argv[0]}{phi0}.csv"
        assert main([*argv, "--phi0", phi0, "--output", str(out)]) == 0
        return [ln for ln in out.read_text().splitlines()
                if not ln.startswith("#")]

    def test_field_spectrum_does_not_depend_on_phi0(self, tmp_path):
        # 11 of these 201 rows moved at phi0 = 1.3 with a solve per phi0
        argv = ["spectrum", "--theta", "0.3", "--delta", "0.3",
                "--axis", "omega:0.05:1.2:201"]
        ref = self.body(tmp_path, argv, "0")
        for phi0 in ("1.3", "-2.1"):
            assert self.body(tmp_path, argv, phi0) == ref

    def test_phases_and_crossing_do_not_depend_on_phi0(self, tmp_path):
        argv = ["geomphase", "--theta", "0.3", "--delta", "0.4",
                "--axis", "omega:0.3:0.8:11"]
        cells = {phi0: np.array([[float(x) for x in ln.split(",")]
                                 for ln in self.body(tmp_path, argv, phi0)[1:]])
                 for phi0 in ("0", "1.3", "-2.1")}
        for phi0 in ("1.3", "-2.1"):
            assert np.abs(cells[phi0] - cells["0"]).max() <= 1e-12
        # the compensated resonance of the README, located along omega
        p = RotorParams(omega=0.2, theta=math.pi / 100, delta=0.8039019)
        reps = [avoided_crossing(p.with_(phi0=phi0), ("m0", "m+1"), (0.19, 0.21))
                for phi0 in (0.0, 1.3, -2.1)]
        for rep in reps[1:]:
            assert abs(rep.omega_res - reps[0].omega_res) <= 1e-12
            assert abs(rep.gap - reps[0].gap) <= 1e-12


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

    @pytest.mark.parametrize("argv, solves, size", [
        (["resonance", "--theta", "0.0314159265", "--omega", "0.2"], 12, 27),
        (["spectrum", "--theta", "0.3", "--delta", "0.3",
          "--axis", "omega:0.05:1.2:201"], 201, 45),
    ], ids=["readme-resonance", "spectrum-201"])
    def test_harmonic_solves_start_where_the_tilt_asks(self, monkeypatch, capsys,
                                                      argv, solves, size):
        # the README resonance solves at N = 4, the spectrum at N = 7; a
        # stacked eigensolve counts each of its matrices
        sizes = []
        monkeypatch.setattr(np.linalg, "eigh", recording_eigh(
            np.linalg.eigh, lambda shape: sizes.extend(
                [shape[-1]] * math.prod(shape[:-2]))))
        assert main(argv) == 0
        assert (len(sizes), max(sizes)) == (solves, size)

    def test_field_sweep_eigensolves_per_point(self, monkeypatch):
        # automatic truncation: one solve at N = 7, whose edge weight
        # certifies it, and whose modes are the point's modes; a stacked
        # eigensolve counts each of its matrices
        shapes = []
        monkeypatch.setattr(np.linalg, "eigh", recording_eigh(
            np.linalg.eigh, shapes.append))
        values = np.linspace(0.3, 0.8, 11)
        quasienergy_spectrum(RotorParams(omega=0.5, theta=0.3, delta=0.3),
                             "omega", values)
        assert sum(math.prod(shape[:-2]) for shape in shapes) == len(values)
        assert {shape[-1] for shape in shapes} == {45}

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

    @pytest.mark.parametrize("points", [5, 41, 401])
    def test_delta_sweep_through_exact_zero_field(self, points):
        # an odd symmetric grid holds an exact 0, solved in closed form; it
        # is unfolded like every other point, so the branches match those
        # of the same grid with 1e-12 in place of the 0
        p = RotorParams(omega=0.45, theta=0.8)
        grid = np.linspace(-0.2, 0.2, points)
        near = grid.copy()
        near[points // 2] = 1e-12
        got, ref = (quasienergy_spectrum(p, "delta", g) for g in (grid, near))
        for lab in LABELS:
            np.testing.assert_allclose(got.branch(lab).quasienergy,
                                       ref.branch(lab).quasienergy,
                                       rtol=0, atol=1e-11)

    @pytest.mark.xfail(strict=True, reason="the copy a branch ends on still "
                       "depends on the grid at wide tilt")
    def test_unfolding_independent_of_the_grid_at_wide_tilt(self):
        # both grids answer, but m-1 ends at 3.0358 on 21 points and at
        # 1.8358, one copy |omega| = 1.2 lower, on 31
        p = RotorParams(omega=0.2, theta=1.2, delta=0.4)
        ends = [[quasienergy_spectrum(p, "omega", np.linspace(0.2, 1.2, points))
                 .branch(lab).quasienergy[-1] for lab in LABELS]
                for points in (21, 31)]
        np.testing.assert_allclose(ends[0], ends[1], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("lo, hi, points, a, b", [
        (0.2, 1.2, 101, "0.22", "0.23"), (0.2, 1.2, 1001, "0.227", "0.228"),
        (0.2, 1.2, 4001, "0.22725", "0.2275"),
        (0.22, 0.235, 301, "0.2273", "0.22735")])
    def test_refusal_names_the_swap_of_the_side_labels(self, lo, hi, points,
                                                        a, b):
        # at theta = 1.2, delta = 0.4 the S_z coefficient omega (1 - cos
        # theta) - delta cos theta of the static part passes zero at omega =
        # 0.22731; the static m-1 and m+1 levels swap labels there, their
        # slope-rule targets jump, and no grid resolves the step. The first
        # failing point decides, so the grid is cut a few points past it.
        p = RotorParams(omega=lo, theta=1.2, delta=0.4)
        grid = np.linspace(lo, hi, points)
        step = grid[np.searchsorted(grid, float(b)) - 1:][:2]
        assert [f"{x:.6g}" for x in step] == [a, b]
        coefficient = step * (1 - math.cos(p.theta)) - p.delta * math.cos(p.theta)
        assert coefficient[0] < 0 < coefficient[1]
        with pytest.raises(TrackingError) as err:
            quasienergy_spectrum(p, "omega", grid[:np.searchsorted(grid, step[1]) + 3])
        assert str(err.value) == (
            f"branch continuity violated near omega = {b}: the slope-rule "
            f"labels of m-1 and m+1 swap between omega = {a} and {b}, where "
            "omega (1 - cos theta) - delta cos theta passes zero; no finer "
            "grid avoids this")

    def test_swap_refusal_exits_3_with_one_line(self, capsys):
        assert main(["spectrum", "--theta", "1.2", "--delta", "0.4",
                     "--axis", "omega:0.2:1.2:101"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "numeric failure: branch continuity violated near omega = 0.23: "
            "the slope-rule labels of m-1 and m+1 swap between omega = 0.22 "
            "and 0.23, where omega (1 - cos theta) - delta cos theta passes "
            "zero; no finer grid avoids this\n")

    @staticmethod
    def assert_solves_each_matrix_once(monkeypatch, tmp_path, argv):
        # every harmonic matrix a sweep solves through main, recorded by its
        # bytes: each point's matrix once at each truncation the point tries
        # (its own doubling, as a single point takes it), and no stacked
        # input of more than one matrix above the byte budget, which bounds
        # the memory a sweep takes whatever its length
        name, lo, hi, points = argv[-1].split(":")
        p = RotorParams(omega=0.0, theta=0.0)
        for flag, value in zip(argv[1:-2:2], argv[2:-2:2]):
            p = p.with_(**{flag.lstrip("-"): float(value)})
        bound = EDGE_WEIGHT_LEVELS if argv[0] == "spectrum" else EDGE_WEIGHT_STATES
        want = []
        for x in np.linspace(float(lo), float(hi), int(points)):
            q = p.with_(**{name: float(x)})
            truncations = []
            oracle_auto_harmonics(q, bound, truncations)
            want += [floquet_matrix(q.with_(phi0=0.0), n).real.tobytes()
                     for n in truncations]
        solved = []

        def record(a):
            a = np.asarray(a)
            assert a.ndim == 3, a.shape
            assert a.nbytes <= floquet.STACK_BYTES or len(a) == 1, a.shape
            solved.extend(m.tobytes() for m in a)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh(np.linalg.eigh,
                                                              array=record))
        assert main([*argv, "--output", str(tmp_path / "out.csv")]) == 0
        assert len(set(solved)) == len(solved)
        assert sorted(solved) == sorted(want)

    @pytest.mark.parametrize("argv", [
        ["--theta", "0.3", "--delta", "0.3", "--axis", "omega:0.05:1.2:41"],
        ["--omega", "0.45", "--theta", "0.8", "--axis", "delta:-0.2:0.2:21"],
        ["--omega", "0.45", "--delta", "0.3", "--axis", "theta:0.1:1.0:17"],
    ], ids=["omega", "delta-through-0", "theta"])
    def test_field_spectrum_solves_each_point_once(self, monkeypatch,
                                                   tmp_path, argv):
        self.assert_solves_each_matrix_once(monkeypatch, tmp_path,
                                            ["spectrum", *argv])

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--omega", "0.3", "--delta", "0.9", "--axis",
         "theta:0.8:1.5:15"],
        ["geomphase", "--theta", "0.3", "--delta", "0.4", "--axis",
         "omega:0.3:0.6:31"],
        ["geomphase", "--omega", "0.3", "--delta", "0.9", "--axis",
         "theta:0.8:1.5:15"],
    ], ids=["theta-doubling", "geomphase", "geomphase-doubling"])
    def test_field_sweep_solves_each_matrix_once_within_the_stack_budget(
            self, monkeypatch, tmp_path, argv):
        self.assert_solves_each_matrix_once(monkeypatch, tmp_path, argv)

    def test_rejects_unsorted_axis(self):
        with pytest.raises(InvalidArgumentError):
            quasienergy_spectrum(RotorParams(omega=0.0, theta=0.1), "omega",
                                 [0.5, 0.2])

    def test_start_inside_mixed_near_degeneracy_fails(self):
        # at a vanishing tilt the compensated crossing becomes nearly exact
        # while the states stay fully mixed, so labeling cannot start there
        p = RotorParams(omega=0.2, theta=1e-6, delta=0.8)
        with pytest.raises(TrackingError):
            quasienergy_spectrum(p, "omega", np.linspace(0.2, 0.21, 5))


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
