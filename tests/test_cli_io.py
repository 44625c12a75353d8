import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorspin import dynamics, runner
from rotorspin.cli import main
from rotorspin.config import (AXIS_NAMES, MODES, AxisSpec, SweepConfig,
                              parse_config, serialize)
from rotorspin.errors import ConfigError, NumericFailureError
from rotorspin.floquet import (EDGE_WEIGHT_LEVELS, EDGE_WEIGHT_STATES, LABELS,
                               auto_harmonics, quasienergy_spectrum)
from rotorspin.model import RotorParams
from rotorspin.runner import Dataset, emit_csv, format_float, run

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _reference_float(x: float) -> str:
    # the per-cell formatter the column writer replaced
    mant, _, exp = f"{x:.12e}".partition("e")
    neg = exp.startswith("-")
    digits = exp.lstrip("+-").lstrip("0") or "0"
    return f"{mant}e{'-' if neg else ''}{digits}"


def _rows(ds: Dataset) -> list[tuple]:
    """The table of `ds` as row tuples."""
    return list(zip(*ds.columns))


def _reference_csv(ds: Dataset, physical_d=None) -> str:
    """The CSV text written cell by cell from `_rows(ds)`: the reference the
    one-pass writer must reproduce byte for byte."""
    fscale = physical_d if physical_d is not None else 1.0
    scales = {"freq": fscale, "time": 1.0 / fscale, "plain": 1.0}
    lines = [f"# {k}={v}" for k, v in ds.provenance.items()]
    lines.append(",".join(ds.header))
    for row in _rows(ds):
        cells = []
        for v, kind in zip(row, ds.kinds):
            if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
                cells.append(str(int(v)))
            else:
                cells.append(_reference_float(float(v) * scales[kind]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _assert_matches_reference(path, ds: Dataset, physical_d) -> None:
    got, want = path.read_text(), _reference_csv(ds, physical_d)
    if got != want:
        # name the first differing line: a full diff of the texts is slow
        pairs = zip(got.splitlines(), want.splitlines())
        first = next((pair for pair in pairs if pair[0] != pair[1]), None)
        pytest.fail(f"CSV differs from the reference writer at (written, "
                    f"reference) = {first}")


def _finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


@st.composite
def _axes(draw):
    name = draw(st.sampled_from(AXIS_NAMES))
    bounds = {"min_value": 0.0, "max_value": math.pi} if name == "theta" else {}
    # an axis whose max - min overflows is refused
    lo, hi = sorted(draw(st.lists(_finite(**bounds), min_size=2, max_size=2,
                                  unique=True)
                         .filter(lambda ends: math.isfinite(ends[1] - ends[0]))))
    return AxisSpec(name=name, min=lo, max=hi, points=draw(st.integers(2, 10**6)))


_POSITIVE = _finite(min_value=0.0, exclude_min=True)

# one value strategy per SweepConfig field, each drawing only valid values
_FIELD_VALUES = {
    "mode": st.sampled_from(MODES),
    "omega": _finite(),
    "theta": _finite(min_value=0.0, max_value=math.pi),
    "d": _POSITIVE,
    "phi0": _finite(),
    "delta": _finite(),
    "axis": st.none() | _axes(),
    # config text strips blanks and cuts comments, so paths avoid both
    "output_path": st.none() | st.text("abc/._-=0", max_size=12),
    "physical_d": st.none() | _POSITIVE,
    "psi0": st.sampled_from(("+1", "0", "-1")),
    "t_end": st.none() | _POSITIVE,
    "branch": st.sampled_from(("plus", "minus")),
    "delta_rabi": _finite(min_value=0.0),
}


class TestParseConfig:
    def test_spectrum_sweep(self):
        cfg = parse_config(
            "mode=spectrum\naxis=omega:0:1.2:601\ntheta=0.0314159265\ndelta=0\n")
        assert cfg.mode == "spectrum"
        assert cfg.axis == AxisSpec(name="omega", min=0.0, max=1.2, points=601)
        assert cfg.theta == pytest.approx(0.0314159265)

    def test_evolve_scenario(self):
        cfg = parse_config(
            "mode=evolve\nomega=0.2\ntheta=0.0314159265\ndelta=0.803\npsi0=0\n")
        assert cfg.mode == "evolve"
        assert cfg.delta == pytest.approx(0.803)
        assert cfg.psi0 == "0"

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nmode=evolve # trailing\nomega=0.5\n")
        assert cfg.omega == 0.5

    def test_tilt_out_of_range(self):
        with pytest.raises(ConfigError, match="theta"):
            parse_config("mode=evolve\ntheta=4.0\n")

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("mode=evolve\nbogus=1\n")

    def test_syntax_error_with_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just words\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("mode=evolve\nmode=spectrum\n")

    def test_bad_axis(self):
        with pytest.raises(ConfigError, match="axis"):
            parse_config("mode=spectrum\naxis=omega:1:0:10\n")

    def test_axis_span_must_be_finite(self):
        with pytest.raises(ConfigError, match="line 2: axis: max - min"):
            parse_config("mode=spectrum\naxis=delta:-1e308:1.5e308:3\n")

    def test_missing_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config("omega=1\n")

    def test_round_trip(self):
        cfg = parse_config(
            "mode=geomphase\naxis=omega:0.1:1.5:31\ntheta=0.3141592653589793\n"
            "delta=0\npsi0=0\n")
        assert parse_config(serialize(cfg)) == cfg

    @settings(max_examples=300, deadline=None)
    @given(cfg=st.builds(SweepConfig, **_FIELD_VALUES))
    def test_round_trip_every_field(self, cfg):
        assert parse_config(serialize(cfg)) == cfg

    def test_round_trip_draws_every_field(self):
        # a new config field needs a strategy here to be round-tripped
        assert set(_FIELD_VALUES) == set(SweepConfig._fields)


class TestFloatFormat:
    def test_fifth(self):
        assert format_float(0.2) == "2.000000000000e-1"

    def test_zero(self):
        assert format_float(0.0) == "0.000000000000e0"

    def test_large_negative(self):
        assert format_float(-1234.5) == "-1.234500000000e3"


class TestEmitCsv:
    def test_layout_and_schema(self, tmp_path):
        path = str(tmp_path / "out.csv")
        ds = Dataset(header=["axis", "lambda_m1", "lambda_0", "lambda_p1",
                             "gap_min_flag"],
                     columns=[[0.2], [1.0], [0.0], [1.0], [0]],
                     kinds=["freq", "freq", "freq", "freq", "plain"],
                     provenance={"mode": "spectrum"})
        emit_csv(ds, path)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "# mode=spectrum"
        assert lines[1] == "axis,lambda_m1,lambda_0,lambda_p1,gap_min_flag"
        assert lines[2].startswith("2.000000000000e-1,")
        assert lines[2].endswith(",0")
        assert len(lines) == 3

    def test_rejects_non_finite(self, tmp_path):
        ds = Dataset(header=["x"], columns=[[math.nan]], kinds=["plain"])
        with pytest.raises(Exception):
            emit_csv(ds, str(tmp_path / "bad.csv"))
        assert not os.path.exists(tmp_path / "bad.csv")

    def test_physical_units_scale_frequencies_and_times(self, tmp_path):
        ds = Dataset(header=["f", "t", "p"], columns=[[1.0], [1.0], [1.0]],
                     kinds=["freq", "time", "plain"])
        path = str(tmp_path / "u.csv")
        emit_csv(ds, path, physical_d=2.87)
        row = Path(path).read_text().splitlines()[-1].split(",")
        assert float(row[0]) == pytest.approx(2.87)
        assert float(row[1]) == pytest.approx(1 / 2.87)
        assert float(row[2]) == pytest.approx(1.0)

    @pytest.mark.parametrize("text", [
        "mode=spectrum\naxis=omega:0:1.2:41\ntheta=0.0314159265\ndelta=0\n",
        "mode=evolve\nomega=0.2\ntheta=0.0314159265\ndelta=0.803\npsi0=0\n"
        "t_end=400\n",
        "mode=geomphase\naxis=omega:0.5:0.6:3\ntheta=0.3\ndelta=0.3\n",
        "mode=resonance\ntheta=0\nomega=0.2\n",
        "mode=sensitivity\naxis=theta:0:1.2:7\nomega=1.0\ndelta_rabi=0.01\n",
    ], ids=["spectrum", "evolve", "geomphase", "resonance", "sensitivity"])
    def test_run_datasets_match_reference_writer(self, tmp_path, text):
        ds = run(parse_config(text))
        for physical_d in (None, 2.87):
            path = tmp_path / "out.csv"
            emit_csv(ds, str(path), physical_d=physical_d)
            _assert_matches_reference(path, ds, physical_d)

    def test_edge_values_match_reference_writer(self, tmp_path):
        edges = [0.0, -0.0, 5e-324, 5e-300, 1e100, -1e100, 1e16, -1234.5]
        rng = np.random.default_rng(11)
        randoms = rng.uniform(-10, 10, 2000) * 10.0 ** rng.integers(-300, 300, 2000)
        values = np.concatenate([edges, randoms])
        ds = Dataset(header=["f", "t", "p", "n"],
                     columns=[values, values[::-1], -values,
                              -np.arange(len(values)) * 7919],
                     kinds=["freq", "time", "plain", "plain"],
                     provenance={"drift": "9.590e-03", "movement": "0.000e+00"})
        for physical_d in (None, 2.87):
            path = tmp_path / "edge.csv"
            emit_csv(ds, str(path), physical_d=physical_d)
            _assert_matches_reference(path, ds, physical_d)

    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(st.tuples(_finite(), st.integers(-2**63, 2**63 - 1)),
                          max_size=40))
    def test_any_float_and_int64_match_reference_writer(self, tmp_path_factory,
                                                         cells):
        # subnormals and both zeros included: st.floats draws them
        ds = Dataset(header=["x", "n"],
                     columns=[np.array([x for x, _ in cells], dtype=float),
                              np.array([n for _, n in cells], dtype=np.int64)],
                     kinds=["plain", "plain"])
        path = tmp_path_factory.mktemp("any") / "any.csv"
        emit_csv(ds, str(path))
        _assert_matches_reference(path, ds, None)

    @pytest.mark.parametrize("precision", [np.longdouble, np.float64])
    def test_rounding_boundaries_match_reference_writer(self, tmp_path,
                                                        monkeypatch, precision):
        # exact ties at the 13th digit, values of 14 significant digits the
        # last of which is 5: q / 2**j with q odd and q * 5**j of 14 digits,
        # and such integers times 10 and 100, which the writer scales by an
        # inexact 10**-k
        rng = np.random.default_rng(3)
        ties = [1234567890123.5, 12345678901235.0]
        for j in range(1, 20):
            q = rng.integers(-(-10**13 // 5**j), 10**14 // 5**j, 4) | 1
            ties += [int(k) / 2**j for k in q]
        q = rng.integers(10**12, 9 * 10**12, 8) * 10 + 5
        ties += [float(int(k) * 10**j) for k in q for j in (0, 1, 2)]
        for t in ties:
            digits = Decimal(t).normalize().as_tuple().digits
            assert len(digits) == 14 and digits[-1] == 5
        # inexact values whose scaled mantissa lies within 1e-6 of a tie,
        # where extended precision alone rounds to the wrong side
        ties += [9.1589340216595e+154, 9.8643875675505e+273, 5.1426965516665e+173,
                 5.5899026227055e-268, 9.2572224572265e+121, 7.4128646116145e+108,
                 9.4694397881785e-107]
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        # 9.9999999999995e{k} rounds up to 1.000000000000e{k + 1} or not
        round_ups = np.array([float(f"9.9999999999995e{k}") for k in range(-311, 308)])
        edges = np.concatenate([ties, powers, round_ups, [12345678901232.5]])
        values = np.concatenate([edges, np.nextafter(edges, 0),
                                 np.nextafter(edges, np.inf)])
        values = np.concatenate([values, -values, [0.0, -0.0, 5e-324]])
        values = values[np.isfinite(values)]
        if precision is np.float64:
            # where long double is double: a coarser, partly infinite table
            # of powers, and more cells formatted one by one
            monkeypatch.setattr(runner, "_POW10", np.array(
                [f"1e{12 - e}" for e in range(runner._E_MIN, runner._E_MAX + 1)],
                dtype=np.float64))
            monkeypatch.setattr(runner, "_TIE", 8.0 * np.finfo(float).eps * 1e13)
        ds = Dataset(header=["x"], columns=[values], kinds=["plain"])
        path = tmp_path / "boundaries.csv"
        emit_csv(ds, str(path))
        _assert_matches_reference(path, ds, None)

    def test_float64_guard_band_matches_reference_writer(self, tmp_path):
        # values whose float64-scaled mantissa lies within _TIE_F64 of a
        # rounding tie while the exact one lies farther than _TIE from it:
        # the float64 pass leaves them to the extended pass
        rng = np.random.default_rng(5)
        mants = rng.integers(10**12, 10**13, 600)
        offsets = rng.uniform(1e-4, 1e-3, 600) * rng.choice([-1, 1], 600)
        exps = rng.integers(-290, 300, 600)
        values = np.array([float((int(m) + Decimal(0.5) + Decimal(float(o)))
                                 .scaleb(int(k) - 12))
                           for m, o, k in zip(mants, offsets, exps)])
        with localcontext() as ctx:
            ctx.prec = 1000  # exact for every float64
            exact = np.array([abs(Decimal(v).scaleb(12 - Decimal(v).adjusted()) % 1
                                  - Decimal(0.5)) for v in values], dtype=float)
        _, _, undecided = runner._mantissas(values, runner._POW10_F64,
                                            runner._TIE_F64)
        band = values[undecided & (exact > runner._TIE)]
        assert len(band) >= 500
        # next to powers of ten, and below 1e-296, where 10**(12 - e)
        # overflows float64 and every product is inf
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        tiny = rng.uniform(1.0, 10.0, 400) * 10.0 ** rng.integers(-323, -296, 400)
        assert runner._mantissas(tiny, runner._POW10_F64, runner._TIE_F64)[2].all()
        values = np.concatenate([band, powers, tiny])
        values = np.concatenate([values, np.nextafter(values, 0),
                                 np.nextafter(values, np.inf)])
        ds = Dataset(header=["x"], columns=[np.concatenate([values, -values])],
                     kinds=["plain"])
        path = tmp_path / "guard.csv"
        emit_csv(ds, str(path))
        _assert_matches_reference(path, ds, None)

    def test_few_cells_reach_the_extended_pass(self, monkeypatch):
        # the float64 tie margin is 2 * 2.2e-16 * 1e13 = 4.4e-3 on either
        # side of a tie, so about 0.9 % of random mantissas, and the cells
        # next to a power of ten, are scaled twice
        scaled = []

        def counting(a, pow10, tie):
            if pow10 is runner._POW10:
                scaled.append(len(a))
            return mantissas(a, pow10, tie)

        mantissas = runner._mantissas
        monkeypatch.setattr(runner, "_mantissas", counting)
        x = np.random.default_rng(17).standard_normal(20000)
        runner._float_cells(x, np.zeros((len(x), 20), dtype=np.uint8))
        assert 0 < sum(scaled) <= 0.02 * len(x)

    def test_digit_and_exponent_tables(self):
        # every entry of a word table holds its text in memory, padded with
        # zero bytes to 4, whatever the byte order
        def texts(words):
            raw = np.asarray(words, dtype=np.uint32).tobytes()
            return [raw[i:i + 4] for i in range(0, len(raw), 4)]

        assert runner._DIGITS.tolist() == [f"{i:04d}".encode() for i in range(10**4)]
        assert texts(runner._GROUP) == [f"{i:04d}".encode() for i in range(10**4)]
        assert texts(runner._LEAD) == [sign + f"{i // 10}.{i % 10}".encode()
                                       for sign in (b"\0", b"-") for i in range(100)]
        assert texts(runner._TAIL) == [f"{i:03d}e".encode() for i in range(1000)]
        assert texts(runner._EXPONENT) == [
            str(e).encode().ljust(4, b"\0")
            for e in range(runner._E_MIN, runner._E_MAX + 1)]
        assert texts([runner._COMMA, runner._NEWLINE]) == [b",\0\0\0", b"\n\0\0\0"]

    @pytest.mark.parametrize("rows", [0, 1, runner._CHUNK_ROWS - 1,
                                      runner._CHUNK_ROWS, runner._CHUNK_ROWS + 1])
    def test_row_counts_around_a_chunk(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        values = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
        ds = Dataset(header=["t", "x", "n"],
                     columns=[np.arange(rows) * 0.1, values,
                              -np.arange(rows) * 7919],
                     kinds=["time", "plain", "plain"],
                     provenance={"mode": "evolve"})
        path = tmp_path / "rows.csv"
        emit_csv(ds, str(path), physical_d=2.87)
        _assert_matches_reference(path, ds, 2.87)
        assert len(path.read_text().splitlines()) == rows + 2

    @pytest.mark.parametrize("rows", [0, 1, runner._CHUNK_ROWS - 1,
                                      runner._CHUNK_ROWS, runner._CHUNK_ROWS + 1])
    def test_int_column_between_float_columns(self, tmp_path, rows):
        # the stacked float pass covers the integer column's cells too,
        # which its integer text then overwrites
        rng = np.random.default_rng(rows + 1)
        values = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        ints = rng.integers(-2**63, 2**63 - 1, rows, dtype=np.int64, endpoint=True)
        ds = Dataset(header=["x", "n", "y", "u"],
                     columns=[values, ints, -values[::-1],
                              np.arange(rows, dtype=np.uint64) * 7919 + 2**63],
                     kinds=["freq", "plain", "plain", "plain"])
        path = tmp_path / "mixed.csv"
        emit_csv(ds, str(path), physical_d=2.87)
        _assert_matches_reference(path, ds, 2.87)
        assert len(path.read_text().splitlines()) == rows + 1

    def test_traced_peak_is_bounded(self, tmp_path):
        # an evolve-sized table: formatting it whole, as a buffer of all its
        # cells or as rows of Python floats, peaks above 13 MB; a 4096-row
        # chunk at a time, as a padded byte array and its copy, 2.6 MB
        rng = np.random.default_rng(7)
        ds = Dataset(header=[f"c{k}" for k in range(10)],
                     columns=list(rng.standard_normal((10, 20000))),
                     kinds=["plain"] * 10)
        tracemalloc.start()
        try:
            emit_csv(ds, str(tmp_path / "big.csv"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6

    def test_rejects_ragged_columns(self, tmp_path):
        ds = Dataset(header=["x", "y"], columns=[[1.0, 2.0], [1.0]],
                     kinds=["plain", "plain"])
        with pytest.raises(NumericFailureError):
            emit_csv(ds, str(tmp_path / "ragged.csv"))
        assert not os.path.exists(tmp_path / "ragged.csv")


class TestRun:
    def test_spectrum_dataset(self):
        cfg = parse_config(
            "mode=spectrum\naxis=omega:0:1.2:41\ntheta=0.0314159265\ndelta=0\n")
        ds = run(cfg)
        assert ds.header == ["axis", "lambda_m1", "lambda_0", "lambda_p1",
                             "gap_min_flag"]
        assert len(_rows(ds)) == 41
        flags = [r[-1] for r in _rows(ds)]
        assert 1 in flags  # the avoided crossing leaves a gap-minimum mark

    def test_evolve_dataset_and_determinism(self, tmp_path):
        text = ("mode=evolve\nomega=0.2\ntheta=0.0314159265\ndelta=0.803\n"
                "psi0=0\nt_end=400\n")
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run(parse_config(text + f"output_path={p1}\n"))
        run(parse_config(text + f"output_path={p2}\n"))
        assert Path(p1).read_text() == Path(p2).read_text()

    def test_geomphase_dataset(self):
        cfg = parse_config(
            "mode=geomphase\naxis=omega:0.9:1.2:7\ntheta=0.3141592653589793\n"
            "delta=0\n")
        ds = run(cfg)
        assert ds.header == ["axis", "gamma_m1", "gamma_0", "gamma_p1"]
        assert len(_rows(ds)) == 7

    def test_resonance_dataset(self):
        cfg = parse_config("mode=resonance\ntheta=0\nomega=0.2\n")
        ds = run(cfg)
        assert ds.header == ["theta", "omega", "delta_solution", "residual"]
        assert _rows(ds)[0][2] == pytest.approx(0.8)

    def test_sensitivity_dataset(self):
        cfg = parse_config(
            "mode=sensitivity\naxis=theta:0:1.0:5\nomega=1.0\ndelta_rabi=0.01\n")
        ds = run(cfg)
        assert ds.header == ["theta", "omega", "delta_rabi", "delta_theta"]
        assert _rows(ds)[0][3] == pytest.approx(0.01 / math.sqrt(2))

    @pytest.mark.parametrize("text", [
        "omega=0.2\ntheta=0.03\npsi0=0\nt_end=1e12\n",
        "omega=0.2\ntheta=0.0314159265\ndelta=0.803\npsi0=0\nt_end=4000\n",
    ], ids=["t_end_1e12", "readme"])
    def test_evolve_reports_norm_deviation(self, text):
        # the Floquet modes stay orthonormal at every t, so the norm does
        # not drift, over 3e10 periods as over one
        ds = run(parse_config("mode=evolve\n" + text))
        assert float(ds.provenance["norm_deviation_max"]) <= 1e-12

    def test_evolve_takes_no_period_propagators(self, monkeypatch):
        # the stepper is the oracle of the Floquet expansion, not its engine
        def refuse(*args):
            raise AssertionError("period_propagators called")

        monkeypatch.setattr(dynamics, "period_propagators", refuse)
        run(parse_config("mode=evolve\nomega=0.2\ntheta=0.03\ndelta=0.4\n"
                         "psi0=0\nt_end=100\n"))

    @pytest.mark.parametrize("text, aliased", [
        ("omega=0.2\ntheta=0.03\npsi0=0\nt_end=1e12\n", True),
        ("omega=0.2\ntheta=0.0314159265\ndelta=0.803\npsi0=0\nt_end=4000\n",
         False),
    ], ids=["t_end_1e12", "readme"])
    def test_evolve_fits_rabi_only_when_resolved(self, text, aliased):
        # samples every 5e7 time units alias every oscillation (bound pi/W =
        # 2.24); the README run samples every 0.200 against a bound of 1.43
        ds = run(parse_config("mode=evolve\n" + text))
        fitted = {"fitted_rabi_frequency", "fitted_contrast"} & set(ds.provenance)
        if aliased:
            assert ds.provenance["rabi_fit_skipped"] == "undersampled"
            assert not fitted
        else:
            assert "rabi_fit_skipped" not in ds.provenance
            assert len(fitted) == 2

    @staticmethod
    def _largest_truncation_met(points, bound):
        met = [auto_harmonics(RotorParams(**kw), bound) for kw in points]
        return (str(max(modes.n_harmonics for modes in met)),
                f"{max(modes.edge_weight for modes in met):.3e}")

    def test_theta_sweep_truncation_is_the_largest_met(self):
        # the phases certify the edge amplitude: N = 14 fails at each
        # point, N = 28 holds
        ds = run(parse_config(
            "mode=geomphase\nomega=0.3\ndelta=0.9\naxis=theta:1.0:1.4:3\n"))
        want = self._largest_truncation_met(
            (dict(omega=0.3, theta=th, delta=0.9) for th in (1.0, 1.2, 1.4)),
            EDGE_WEIGHT_STATES)
        assert want[0] == "28"
        assert (ds.provenance["harmonics_n_max"],
                ds.provenance["harmonics_edge_weight_max"]) == want

    def test_omega_sweep_reports_truncation(self):
        ds = run(parse_config(
            "mode=spectrum\nomega=0.3\ntheta=1.4\ndelta=0.9\n"
            "axis=omega:0.2:0.4:3\n"))
        want = self._largest_truncation_met(
            (dict(omega=om, theta=1.4, delta=0.9) for om in (0.2, 0.3, 0.4)),
            EDGE_WEIGHT_LEVELS)
        assert want[0] == "18"
        assert (ds.provenance["harmonics_n_max"],
                ds.provenance["harmonics_edge_weight_max"]) == want

    @pytest.mark.parametrize("text", [
        "axis=omega:0:1.2:201\ntheta=0.3\ndelta=0\n",
        "axis=omega:0.05:1.2:61\ntheta=0.3\ndelta=0.3\n",
    ], ids=["zero_field", "field"])
    def test_spectrum_reports_tracking_overlap(self, text, tmp_path):
        # the worst overlap a branch kept adds one provenance line and
        # leaves the table as it is
        ds = run(parse_config("mode=spectrum\n" + text))
        assert 0.5 <= float(ds.provenance["tracking_overlap_min"]) <= 1.0
        paths = [str(tmp_path / f"{k}.csv") for k in range(2)]
        emit_csv(ds, paths[0])
        del ds.provenance["tracking_overlap_min"]
        emit_csv(ds, paths[1])
        lines = Path(paths[0]).read_text().splitlines(keepends=True)
        kept = [ln for ln in lines
                if not ln.startswith("# tracking_overlap_min=")]
        assert len(kept) == len(lines) - 1
        assert "".join(kept) == Path(paths[1]).read_text()

    def test_spectrum_requires_axis(self):
        with pytest.raises(ConfigError, match="axis"):
            run(parse_config("mode=spectrum\ntheta=0.1\n"))


class TestCli:
    def test_spectrum_subcommand_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "s.csv")
        code = main(["spectrum", "--theta", "0.0314159265", "--delta", "0",
                     "--axis", "omega:0:1.2:21", "--output", out])
        assert code == 0
        lines = Path(out).read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "axis,lambda_m1,lambda_0,lambda_p1,gap_min_flag"

    def test_flag_overrides_config(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("mode=sensitivity\nomega=1.0\ntheta=0\n"
                           "delta_rabi=0.01\n")
        out = str(tmp_path / "o.csv")
        code = main(["sensitivity", "--config", str(cfgfile),
                     "--omega", "2.0", "--output", out])
        assert code == 0
        row = Path(out).read_text().splitlines()[-1].split(",")
        assert float(row[3]) == pytest.approx(0.01 / (2 * math.sqrt(2)))

    def test_resonance_prints_table(self, capsys):
        # theta = 0 has the closed form delta = d - omega, residual 0
        assert main(["resonance", "--theta", "0", "--omega", "0.2"]) == 0
        assert capsys.readouterr().out == (
            "theta,omega,delta_solution,residual\n"
            "0.000000000000e0,2.000000000000e-1,8.000000000000e-1,0.000000000000e0\n")

    def test_spectrum_prints_integer_flags(self, capsys):
        assert main(["spectrum", "--theta", "0.0314159265", "--delta", "0",
                     "--axis", "omega:0:1.2:41"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "axis,lambda_m1,lambda_0,lambda_p1,gap_min_flag"
        flags = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert len(flags) == 41 and set(flags) == {"0", "1"}

    @pytest.mark.parametrize("argv", [
        ["resonance", "--theta", "0", "--omega", "0.2"],
        ["spectrum", "--theta", "0.3", "--delta", "0", "--axis", "omega:0.5:1.2:5"],
        ["evolve", "--omega", "0.2", "--theta", "0.03", "--psi0", "0",
         "--t-end", "50"],
    ], ids=["resonance", "spectrum", "evolve"])
    def test_stdout_honours_physical_units(self, tmp_path, capsys, argv):
        # the printed table carries the values the CSV holds, to 12 digits
        argv = argv + ["--physical-d", "2.87"]
        assert main(argv) == 0
        printed = capsys.readouterr().out.splitlines()
        out = tmp_path / "u.csv"
        assert main(argv + ["--output", str(out)]) == 0
        written = [ln for ln in out.read_text().splitlines()
                   if not ln.startswith("#")]
        assert printed[0] == written[0]
        assert len(printed) == len(written)
        for got, want in zip(printed[1:], written[1:]):
            np.testing.assert_allclose(np.array(got.split(","), dtype=float),
                                       np.array(want.split(","), dtype=float),
                                       rtol=1e-12, atol=0)

    @pytest.mark.parametrize("argv", [
        ["resonance", "--theta", "0", "--omega", "0.2"],
        ["spectrum", "--theta", "0.0314159265", "--delta", "0",
         "--axis", "omega:0:1.2:41", "--physical-d", "2.87"],
        ["evolve", "--omega", "0.2", "--theta", "0.0314159265", "--delta",
         "0.803", "--psi0", "0", "--t-end", "1000"],
    ], ids=["resonance", "spectrum", "evolve"])
    def test_stdout_is_the_file_body(self, tmp_path, capsysbinary, argv):
        # one writer for both routes: stdout is the CSV after its
        # provenance lines, byte for byte, over several chunks of rows too
        assert main(argv) == 0
        printed = capsysbinary.readouterr().out
        out = tmp_path / "t.csv"
        assert main(argv + ["--output", str(out)]) == 0
        body = b"".join(line for line in out.read_bytes().splitlines(True)
                        if not line.startswith(b"#"))
        assert printed == body
        assert printed.count(b"\n") > (runner._CHUNK_ROWS if argv[0] == "evolve"
                                       else 1)

    @pytest.mark.parametrize("target", ["missing/x.csv", "dir"],
                             ids=["missing_directory", "directory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, target):
        # a directory as the target fails only at the final rename, after
        # the temporary file was written beside it
        (tmp_path / "dir").mkdir()
        out = str(tmp_path / target)
        code = main(["sensitivity", "--omega", "1", "--theta", "0.5",
                     "--delta-rabi", "0.01", "--output", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write output {out!r}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["dir"]
        assert os.listdir(tmp_path / "dir") == []

    @pytest.mark.parametrize("value", ["-1e-05", "-2.5E+3", "-.5e1"])
    def test_negative_exponent_value_as_separate_argument(self, tmp_path,
                                                          value):
        # a value that starts with a dash follows its flag, in exponent
        # form too
        outs = [str(tmp_path / f"{k}.csv") for k in range(2)]
        rest = ["--theta", "0.5", "--delta-rabi", "0.01", "--output"]
        assert main(["sensitivity", f"--omega={value}", *rest, outs[0]]) == 0
        assert main(["sensitivity", "--omega", value, *rest, outs[1]]) == 0
        assert Path(outs[1]).read_bytes() == Path(outs[0]).read_bytes()

    @staticmethod
    def _usage_error(argv, capsys) -> str:
        """The error line of a command line rejected with exit 2, after
        the usage line."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        usage, error = err.splitlines()
        assert out == ""
        assert usage == "usage: rotorspin COMMAND [--flag VALUE | --flag=VALUE]..."
        assert error.startswith("rotorspin: error: ")
        return error

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["spectrum", "-h"],
        ["evolve", "--omega", "0.2", "--help", "--theta"],
    ])
    def test_help_names_every_command_and_flag(self, capsys, argv):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.startswith("usage: rotorspin COMMAND ")
        words = set(out.split())
        assert {*MODES, "selftest"} <= words
        flags = {f"--{key.replace('_', '-')}" for key in SweepConfig._fields
                 if key not in ("mode", "output_path")}
        assert flags | {"--config", "--output"} <= words

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--theta"],
        ["spectrum", "--theta", "--delta", "0"],
    ], ids=["last", "before_flag"])
    def test_missing_value_exits_2(self, capsys, argv):
        assert (self._usage_error(argv, capsys)
                == "rotorspin: error: argument --theta: expected one argument")

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: COMMAND"),
        (["spectra", "--theta", "0.3"], "invalid choice: 'spectra'"),
        (["--theta", "0.3", "spectrum"], "invalid choice: '--theta'"),
    ], ids=["missing", "unknown", "flag_first"])
    def test_missing_or_unknown_command_exits_2(self, capsys, argv, message):
        assert message in self._usage_error(argv, capsys)

    @pytest.mark.parametrize("argv, unrecognized", [
        (["spectrum", "--the", "0.3", "--delta", "0"], "--the 0.3"),
        (["spectrum", "--the=0.3"], "--the=0.3"),
        (["selftest", "--theta", "1"], "--theta 1"),
        (["resonance", "0.3", "--omega", "0.2", "--bogus"], "0.3 --bogus"),
    ], ids=["abbreviated", "abbreviated_equals", "selftest", "positional"])
    def test_unrecognized_arguments_exit_2(self, capsys, argv, unrecognized):
        # every flag is named in full: an abbreviation is no flag
        assert (self._usage_error(argv, capsys)
                == f"rotorspin: error: unrecognized arguments: {unrecognized}")

    def test_repeated_flag_last_value_wins(self, tmp_path):
        outs = [str(tmp_path / f"{k}.csv") for k in range(2)]
        rest = ["--delta-rabi", "0.01", "--output"]
        assert main(["sensitivity", "--omega", "1.0", "--theta=0.1",
                     "--omega=-3", "--theta", "0.5", *rest, outs[0]]) == 0
        assert main(["sensitivity", "--omega", "-3", "--theta", "0.5",
                     *rest, outs[1]]) == 0
        assert Path(outs[1]).read_bytes() == Path(outs[0]).read_bytes()

    def test_evolve_at_slow_rotation_writes_rows(self, tmp_path):
        # t_end = 100 is shorter than one stepper step T / 4096 = 153.4 at
        # |omega| = 1e-5; the samples follow t_end, not the period
        out = tmp_path / "e.csv"
        assert main(["evolve", "--omega", "1e-5", "--theta", "1.5", "--delta",
                     "2", "--psi0", "0", "--t-end", "100",
                     "--output", str(out)]) == 0
        rows = [ln for ln in out.read_text().splitlines()
                if not ln.startswith("#")][1:]
        assert len(rows) == 20000
        assert rows[-1].startswith("1.000000000000e2,")

    @pytest.mark.parametrize("omega, t_end, message", [
        ("0", "1e-320", "is too short for 20000 distinct sample times"),
        ("0", "1e308", "rounds the mode phases eps t"),
        ("0.2", "1e300", "rounds the mode phases eps t"),
    ], ids=["static_underflow", "static_phase", "driven_phase"])
    def test_evolve_unresolvable_t_end_exits_2(self, omega, t_end, message,
                                               tmp_path, capsys):
        out = tmp_path / "e.csv"
        assert main(["evolve", "--omega", omega, "--theta", "0.3", "--psi0",
                     "0", "--t-end", t_end, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: t_end = ")
        assert message in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("omega, theta, default", [
        ("0.2", "1e-13", "2.5 Rabi periods"),
        ("0.2", "1e-300", "2.5 Rabi periods"),
        ("1e-15", "0", "10 drive periods"),
    ], ids=["rabi", "rabi_underflow", "no_rabi"])
    def test_evolve_unresolvable_default_t_end_asks_for_t_end(
            self, omega, theta, default, tmp_path, capsys):
        # 2.5 Rabi periods, 2.5 * 2 pi / (sqrt(2) |omega| sin theta), is
        # 5.6e14 at theta = 1e-13: its phases round beyond 1e-2 rad
        out = tmp_path / "e.csv"
        assert main(["evolve", "--omega", omega, "--theta", theta, "--psi0",
                     "0", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: the default t_end of {default} ")
        assert "rounds the mode phases eps t" in err
        assert err.endswith("; give --t-end\n") and err.count("\n") == 1
        assert not out.exists()
        # a t_end that is given is sampled at the same point
        assert main(["evolve", "--omega", omega, "--theta", theta, "--psi0",
                     "0", "--t-end", "100", "--output", str(out)]) == 0
        rows = [ln for ln in out.read_text().splitlines()
                if not ln.startswith("#")][1:]
        assert len(rows) == 20000

    def test_evolve_at_zero_omega_needs_t_end(self, capsys):
        # at omega = 0 the Rabi frequency is 0 at every tilt
        assert main(["evolve", "--omega", "0", "--theta", "0.5",
                     "--psi0", "0"]) == 2
        assert capsys.readouterr().err == (
            "config error: t_end required when omega = 0\n")

    def test_evolve_default_t_end_is_ten_periods_without_rabi(self, tmp_path):
        # theta = 0: no Rabi frequency, so ten drive periods
        out = tmp_path / "e.csv"
        assert main(["evolve", "--omega", "0.3", "--theta", "0", "--psi0",
                     "0", "--output", str(out)]) == 0
        rows = [ln for ln in out.read_text().splitlines()
                if not ln.startswith("#")][1:]
        assert len(rows) == 20000
        t_last = rows[-1].split(",")[0]
        assert t_last == format_float(10.0 * (2.0 * math.pi / 0.3))

    @pytest.mark.parametrize("argv, message", [
        (["evolve", "--theta", "9"], "theta: must lie in [0, pi], got 9.0"),
        (["evolve", "--omega", "0.2", "--psi0", "2"],
         "psi0: must be one of ('+1', '0', '-1'), got '2'"),
        (["resonance", "--omega", "0.2", "--theta", "0.03", "--branch", "up"],
         "branch: must be 'plus' or 'minus', got 'up'"),
        (["sensitivity", "--omega", "1", "--theta", "0.5", "--delta-rabi",
          "0.01", "--physical-d", "0"], "physical_d: must be positive"),
        (["evolve", "--omega", "0.2", "--psi0", "0", "--t-end", "-1"],
         "t_end: must be positive"),
        (["sensitivity", "--omega", "1", "--theta", "0.5",
          "--delta-rabi=-0.01"], "delta_rabi: must be nonnegative"),
        (["spectrum", "--axis", "phi0:0:1:3"],
         "axis: unknown axis name 'phi0'"),
        (["spectrum", "--axis", "omega:0:1:1"], "axis: points must be >= 2"),
    ], ids=["theta", "psi0", "branch", "physical_d", "t_end", "delta_rabi",
            "axis_name", "axis_points"])
    def test_config_error_exit_code(self, argv, message, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: {message}\n"

    def test_branch_continuity_violation_exits_3(self, capsys):
        argv = ["spectrum", "--omega", "0.06685243528735864",
                "--delta", "-1.8437378669767424",
                "--theta", "2.1414048907407683",
                "--axis", "theta:0.22355746622332429:0.8867371946170196:5"]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "numeric failure: branch continuity violated near theta = "
            "0.886737; use a finer grid\n")

    def test_numeric_error_exit_code(self, capsys):
        # a tilt of pi/2 makes the uncertainty diverge
        assert main(["sensitivity", "--omega", "1.0",
                     "--theta", str(math.pi / 2), "--delta-rabi", "0.01"]) == 3

    def test_non_finite_stdout_table_exits_3(self, monkeypatch, capsys):
        # a non-finite value in the table: the stdout route refuses it as
        # the file route does, before any line
        monkeypatch.setattr(runner, "angle_uncertainty",
                            lambda *args, **kwargs: math.inf)
        code = main(["sensitivity", "--omega", "1.0", "--theta", "0.2",
                     "--delta-rabi", "0.3"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err == "numeric failure: non-finite value in output: inf\n"

    def test_overflowing_uncertainty_exits_3(self, capsys):
        # the uncertainty overflows at the smallest subnormal omega
        code = main(["sensitivity", "--omega", "5e-324", "--theta", "0.2",
                     "--delta-rabi", "0.3"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err == ("numeric failure: angle uncertainty overflows at "
                       "omega = 4.94e-324 (at theta = 0.2)\n")

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--axis", "omega:0.1:0.2:100000000000000"],
        ["spectrum", "--axis", "omega:0.1:0.2:4611686018427387904"],
        ["spectrum", "--axis", "omega:0.1:0.2:9223372036854775807"],
        ["spectrum", "--axis", "omega:0.1:0.2:99999999999999999999"],
    ], ids=["spectrum", "2**62", "2**63-1", "1e20-1"])
    def test_out_of_memory_exit_code(self, argv, tmp_path, capsys):
        # 1e14 axis points ask for hundreds of TiB, more than a 64-bit
        # address space holds, so the first allocation fails at once; from
        # 2**60 points on no float64 array can even be indexed
        out = tmp_path / "x.csv"
        code = main(argv + ["--output", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: out of memory")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        # the frequencies of the table times 1e308 overflow
        ["spectrum", "--theta", "0.3", "--delta", "0", "--axis",
         "omega:0:1:2", "--physical-d", "1e308"],
        # the times over 5e-324 overflow, and t = 0 times inf is nan
        ["evolve", "--omega", "0.2", "--theta", "0.03", "--psi0", "0",
         "--t-end", "10", "--physical-d", "5e-324"],
    ], ids=["overflow", "invalid"])
    @pytest.mark.parametrize("route", ["file", "stdout"])
    def test_non_finite_physical_units_exit_3_quietly(self, argv, route,
                                                      tmp_path, capsys):
        # one line on stderr and no numpy warning (an error under pytest)
        out = tmp_path / "x.csv"
        code = main(argv + (["--output", str(out)] if route == "file" else []))
        stdout, err = capsys.readouterr()
        assert code == 3
        assert stdout == ""
        assert err.startswith("numeric failure: non-finite value in output: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["spectrum", "geomphase", "evolve"])
    def test_zero_field_levels_overflow_exits_3(self, mode, tmp_path, capsys):
        # omega**6 passes the float64 range between 1e51 and 1e52, and the
        # cubic, solved in units of a power of two, answers past it; the
        # levels d + 4 |omega|, doubled, pass it below 1e308
        out = tmp_path / "x.csv"
        argv = [mode, "--theta", "0.3", "--delta", "0", "--output", str(out)]

        def at(omega):
            if mode == "evolve":
                return ["--omega", omega]
            return ["--axis", f"omega:1:{omega}:2"]

        assert main(argv + at("1e52")) == 0
        capsys.readouterr()
        assert main(argv + at("1e308")) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: zero-field levels overflow at "
                              "omega = 1e+308")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, code, message", [
        # the second point's levels overflow; the third is not reached
        (["spectrum", "--theta", "0.3", "--delta", "0", "--axis",
          "omega:1:1e308:3"], 3,
         "numeric failure: zero-field levels overflow at omega = 5e+307"),
        # the second point has no drive period; the third would solve
        (["geomphase", "--theta", "0.3", "--delta", "0", "--axis",
          "omega:-1:1:3"], 2,
         "config error: no drive period at omega = 0 (at omega = 0)"),
        # the first point has no period, the others' levels overflow
        (["geomphase", "--theta", "0.3", "--delta", "0", "--axis",
          "omega:0:1e308:3"], 2,
         "config error: no drive period at omega = 0 (at omega = 0)"),
        # the first point sits inside the m0/m+1 gap (1.4e-7 wide at this
        # tilt), the others' levels overflow
        (["spectrum", "--theta", "1e-7", "--delta", "0", "--axis",
          "omega:1:1e308:3"], 3,
         "numeric failure: sweep starts inside a gap: branches not separable "
         "at the first point"),
    ], ids=["spectrum-overflow", "geomphase-no-period", "geomphase-first",
            "spectrum-gap-first"])
    def test_zero_field_sweep_fails_at_its_first_failing_point(
            self, argv, code, message, tmp_path, capsys):
        # a sweep is solved as one batch, yet the first failing point in
        # axis order decides the error; one stderr line and no numpy
        # warning (an error under pytest)
        out = tmp_path / "x.csv"
        assert main(argv + ["--output", str(out)]) == code
        stdout, err = capsys.readouterr()
        assert (stdout, err) == ("", message + "\n")
        assert not out.exists()

    def test_zero_field_failure_warns_nothing_under_w_error(self):
        argv = ["spectrum", "--theta", "0.3", "--delta", "0", "--axis",
                "omega:1:1e308:3"]
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "rotorspin.cli", *argv],
            capture_output=True, env={**os.environ, "PYTHONPATH": SRC},
            timeout=120)
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert proc.stderr == (b"numeric failure: zero-field levels overflow "
                               b"at omega = 5e+307\n")

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--theta", "0.3", "--delta", "0.3", "--omega", "1e308",
          "--axis", "theta:0:1:3"], "harmonic matrix at N = 1 overflows"),
        (["evolve", "--theta", "0.3", "--delta", "0.3", "--omega", "1e308",
          "--t-end", "1e-300"], "harmonic matrix at N = 11 overflows"),
        (["resonance", "--theta", "0.02", "--omega", "1e308"],
         "no resonant field"),
    ], ids=["spectrum", "evolve", "resonance"])
    def test_levels_past_the_float64_range_exit_3(self, argv, message, capsys):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flags, shown", [
        (["--d", "5e-324", "--delta", "5e-324", "--omega", "1e-323"], "9.88e-324"),
        (["--d", "1e-300", "--delta", "1e-300", "--omega", "1e-309"], "1e-309"),
    ])
    def test_overflowing_drive_period_exits_3_in_every_field_mode(
            self, flags, shown, capsys):
        # 2 pi / |omega| overflows at a subnormal |omega|: each mode refuses
        # it with one stderr line, a sweep's naming its first point
        lines = {}
        for mode, rest in (("geomphase", ["--axis", "theta:0:0.2:3"]),
                           ("spectrum", ["--axis", "theta:0:0.2:3"]),
                           ("evolve", ["--t-end", "1e300"])):
            assert main([mode, *flags, "--theta", "0.3", *rest]) == 3
            lines[mode] = capsys.readouterr()
        message = ("numeric failure: the drive period 2 pi / |omega| overflows "
                   f"at |omega| = {shown}")
        assert lines["geomphase"] == ("", message + " (at theta = 0)\n")
        assert lines["spectrum"] == lines["evolve"] == ("", message + "\n")

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"\xff\xfemode=spectrum\n")
        assert main(["spectrum", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {str(config)!r}")
        assert err.count("\n") == 1

    def test_axis_span_overflow_exits_2(self, capsys):
        # max - min = inf; numpy's linspace would warn of it
        assert main(["spectrum", "--theta", "0.3", "--delta", "0",
                     "--axis", "omega:-1e308:1e308:3"]) == 2
        assert capsys.readouterr().err == (
            "config error: axis: max - min must be finite\n")

    def test_failed_rabi_fit_exit_code(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise NumericFailureError("minimiser budget exhausted")

        monkeypatch.setattr(dynamics, "brent_min", fail)
        out = tmp_path / "e.csv"
        code = main(["evolve", "--omega", "0.2", "--theta", "0.0314159265",
                     "--delta", "0.803", "--psi0", "0", "--output", str(out)])
        assert code == 3
        assert "minimiser budget exhausted" in capsys.readouterr().err
        assert not out.exists()

    def test_sensitivity_error_names_swept_omega(self, capsys):
        code = main(["sensitivity", "--theta", "0.3", "--delta-rabi", "0.01",
                     "--axis", "omega:-0.1:0.1:3"])
        assert code == 2
        assert "(at omega = 0)" in capsys.readouterr().err

    def test_resonance_minus_branch_at_negative_omega(self, tmp_path):
        out = str(tmp_path / "r.csv")
        code = main(["resonance", "--theta", "0.01", "--omega", "-1.2",
                     "--branch", "minus", "--output", out])
        assert code == 0
        row = Path(out).read_text().splitlines()[-1].split(",")
        assert 0.0 < float(row[2]) < 1.0
        assert float(row[3]) <= 1e-6

    def test_resonance_without_positive_field_exits_3(self, tmp_path, capsys):
        out = str(tmp_path / "r.csv")
        code = main(["resonance", "--theta", "0.0314159265", "--omega",
                     "-1.0004937", "--branch", "minus", "--output", out])
        assert code == 3
        assert "no resonant field" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("axis", ["omega:-0.5:0.5:11", "omega:0:0.5:11",
                                      "omega:-0.5:0.5:10"])
    def test_field_spectrum_through_zero_omega_exits_3(self, tmp_path, capsys,
                                                       axis):
        out = str(tmp_path / "s.csv")
        code = main(["spectrum", "--theta", "0.3", "--delta", "0.3",
                     "--axis", axis, "--output", out])
        assert code == 3
        assert "omega = 0" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_field_sweep_records_truncation(self, tmp_path):
        out = str(tmp_path / "g.csv")
        code = main(["geomphase", "--omega", "0.3", "--delta", "0.4",
                     "--axis", "theta:0.1:0.3:3", "--output", out])
        assert code == 0
        text = Path(out).read_text()
        assert "# harmonics_n_max=" in text
        assert "# harmonics_edge_weight_max=" in text
        assert "n_harmonics" not in text

    @pytest.mark.parametrize("argv, bound", [
        (["spectrum", "--theta", "0.3", "--delta", "0.3",
          "--axis", "omega:0.3:0.5:3"], "1e-14"),
        (["geomphase", "--theta", "0.3", "--delta", "0.4",
          "--axis", "omega:0.3:0.5:3"], "1e-28"),
        (["evolve", "--omega", "0.3", "--theta", "1.0", "--delta", "0.9",
          "--t-end", "10"], "1e-28"),
    ], ids=["spectrum", "geomphase", "evolve"])
    def test_field_runs_name_their_certificate(self, tmp_path, argv, bound):
        # quasi-energies need the edge weight, states and phases along the
        # period the edge amplitude; the line follows the largest weight met
        out = tmp_path / "f.csv"
        assert main([*argv, "--output", str(out)]) == 0
        prov = dict(ln[2:].split("=", 1) for ln in out.read_text().splitlines()
                    if ln.startswith("# "))
        keys = list(prov)
        i = keys.index("harmonics_edge_weight_max")
        assert keys[i + 1] == "harmonics_edge_weight_bound"
        assert prov["harmonics_edge_weight_bound"] == bound
        assert float(prov["harmonics_edge_weight_max"]) <= float(bound)

    def test_truncation_flag_and_key_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:  # a usage error
            main(["geomphase", "--omega", "0.3", "--delta", "0.4",
                  "--n-harmonics", "12", "--axis", "theta:0.1:0.3:3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --n-harmonics 12" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode=geomphase\nn_harmonics=auto\n")
        code = main(["geomphase", "--config", str(cfg), "--omega", "0.3",
                     "--delta", "0.4", "--axis", "theta:0.1:0.3:3"])
        assert code == 2
        assert "line 2: unknown key 'n_harmonics'" in capsys.readouterr().err

    def test_resolution_flag_and_key_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:  # a usage error
            main(["evolve", "--omega", "0.2", "--theta", "0.03",
                  "--steps-per-period", "256"])
        assert exc.value.code == 2
        assert ("unrecognized arguments: --steps-per-period 256"
                in capsys.readouterr().err)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode=evolve\nsteps_per_period=256\n")
        code = main(["evolve", "--config", str(cfg), "--omega", "0.2",
                     "--theta", "0.03"])
        assert code == 2
        assert ("line 2: unknown key 'steps_per_period'"
                in capsys.readouterr().err)

    def test_evolve_records_its_resolution(self, tmp_path):
        # the truncation of the harmonic solve, and nothing of the stepper;
        # the exact modes without a field or without rotation have neither
        texts = []
        for omega, delta in (("0.2", "0.3"), ("0.2", "0"), ("0", "0.3")):
            out = tmp_path / f"e{omega}_{delta}.csv"
            assert main(["evolve", "--omega", omega, "--theta", "0.03",
                         "--delta", delta, "--psi0", "0", "--t-end", "50",
                         "--output", str(out)]) == 0
            texts.append(out.read_text())
        assert "# harmonics_n_max=7\n# harmonics_edge_weight_max=" in texts[0]
        assert "# harmonics_edge_weight_bound=1e-28\n" in texts[0]
        assert "# harmonics_" not in texts[1]
        assert "# harmonics_" not in texts[2]
        for text in texts:
            for key in ("unitarity_drift_per_period", "steps_per_period",
                        "step_phase"):
                assert f"# {key}=" not in text

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--theta", "0.3", "--delta", "0",
         "--axis", "omega:0:1:2000"],
        ["selftest"],
    ], ids=["spectrum", "selftest"])
    def test_closed_stdout_exits_1_quietly(self, argv):
        # the reader is gone before the first write, as after `| head -1`;
        # stdout is block-buffered, so the spectrum fails in a write of its
        # first chunk of rows and the selftest in the final flush
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "rotorspin.cli", *argv], stdout=write,
                stderr=subprocess.PIPE, env={**env, "PYTHONPATH": SRC},
                timeout=120)
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == b""

    @pytest.mark.parametrize("mode, n_max", [("spectrum", 7), ("geomphase", 11)],
                             ids=["spectrum", "geomphase"])
    def test_omega_sweep_truncation_provenance_is_reproducible(self, tmp_path,
                                                              mode, n_max):
        outs = [str(tmp_path / f"{k}.csv") for k in range(2)]
        for out in outs:
            assert main([mode, "--theta", "0.3", "--delta", "0.4",
                         "--axis", "omega:0.3:0.6:7", "--output", out]) == 0
        text = Path(outs[0]).read_text()
        assert f"# harmonics_n_max={n_max}\n# harmonics_edge_weight_max=" in text
        assert Path(outs[1]).read_text() == text

    def test_config_file_without_mode(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("theta=0.0314159265\ndelta=0\naxis=omega:0:1.2:21\n")
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["spectrum", "--config", str(cfgfile), "--output", a]) == 0
        assert main(["spectrum", "--theta", "0.0314159265", "--delta", "0",
                     "--axis", "omega:0:1.2:21", "--output", b]) == 0
        assert Path(a).read_text() == Path(b).read_text()

    def test_config_value_error_reports_line(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("omega=1.0\ntheta=0.5\ndelta_rabi=lots\n")
        code = main(["sensitivity", "--config", str(cfgfile), "--omega", "2.0"])
        assert code == 2
        assert "line 3: delta_rabi: not a number" in capsys.readouterr().err

    def test_flag_replaces_bad_config_value(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("omega=fast\ntheta=0.5\ndelta_rabi=0.01\n")
        out = str(tmp_path / "o.csv")
        code = main(["sensitivity", "--config", str(cfgfile), "--omega", "2.0",
                     "--output", out])
        assert code == 0

    @pytest.mark.parametrize("points", [5, 41])
    def test_delta_sweep_through_exact_zero_field(self, tmp_path, points):
        out = str(tmp_path / "s.csv")
        assert main(["spectrum", "--omega", "0.45", "--theta", "0.8",
                     "--axis", f"delta:-0.2:0.2:{points}", "--output", out]) == 0
        table = [ln for ln in Path(out).read_text().splitlines()
                 if not ln.startswith("#")]
        rows = np.loadtxt(table[1:], delimiter=",")
        assert rows[points // 2, 0] == 0.0
        near = np.linspace(-0.2, 0.2, points)
        near[points // 2] = 1e-12
        spec = quasienergy_spectrum(RotorParams(omega=0.45, theta=0.8),
                                    "delta", near)
        ref = np.stack([spec.branch(lab).quasienergy for lab in LABELS], axis=1)
        np.testing.assert_allclose(rows[:, 1:4], ref, rtol=0, atol=1e-11)

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest: ok" in out
