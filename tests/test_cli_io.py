import math
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorspin import dynamics
from rotorspin.cli import main
from rotorspin.config import (AXIS_NAMES, MODES, AxisSpec, SweepConfig,
                              parse_config, serialize)
from rotorspin.errors import ConfigError, NumericFailureError
from rotorspin.floquet import auto_harmonics
from rotorspin.model import RotorParams
from rotorspin.runner import Dataset, emit_csv, format_float, run


def _reference_float(x: float) -> str:
    # the per-cell formatter the column writer replaced
    mant, _, exp = f"{x:.12e}".partition("e")
    neg = exp.startswith("-")
    digits = exp.lstrip("+-").lstrip("0") or "0"
    return f"{mant}e{'-' if neg else ''}{digits}"


def _reference_csv(ds: Dataset, physical_d=None) -> str:
    """The CSV text written cell by cell from `ds.rows`: the reference the
    one-pass writer must reproduce byte for byte."""
    fscale = physical_d if physical_d is not None else 1.0
    scales = {"freq": fscale, "time": 1.0 / fscale, "plain": 1.0}
    lines = [f"# {k}={v}" for k, v in ds.provenance.items()]
    lines.append(",".join(ds.header))
    for row in ds.rows:
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
    lo, hi = sorted(draw(st.lists(_finite(**bounds), min_size=2, max_size=2,
                                  unique=True)))
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
    "steps_per_period": st.integers(min_value=256),
    "n_harmonics": st.just("auto") | st.integers(min_value=1),
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

    def test_missing_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config("omega=1\n")

    def test_round_trip(self):
        cfg = parse_config(
            "mode=geomphase\naxis=omega:0.1:1.5:31\ntheta=0.3141592653589793\n"
            "delta=0\nsteps_per_period=1024\nn_harmonics=auto\npsi0=0\n")
        assert parse_config(serialize(cfg)) == cfg

    @settings(max_examples=300, deadline=None)
    @given(cfg=st.builds(SweepConfig, **_FIELD_VALUES))
    def test_round_trip_every_field(self, cfg):
        assert parse_config(serialize(cfg)) == cfg

    def test_round_trip_draws_every_field(self):
        # a new config field needs a strategy here to be round-tripped
        assert set(_FIELD_VALUES) == {f.name for f in fields(SweepConfig)}


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
        "steps_per_period=256\nt_end=400\n",
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
        assert len(ds.rows) == 41
        flags = [r[-1] for r in ds.rows]
        assert 1 in flags  # the avoided crossing leaves a gap-minimum mark

    def test_evolve_dataset_and_determinism(self, tmp_path):
        text = ("mode=evolve\nomega=0.2\ntheta=0.0314159265\ndelta=0.803\n"
                "psi0=0\nsteps_per_period=512\nt_end=400\n")
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
        assert len(ds.rows) == 7

    def test_resonance_dataset(self):
        cfg = parse_config("mode=resonance\ntheta=0\nomega=0.2\n")
        ds = run(cfg)
        assert ds.header == ["theta", "omega", "delta_solution", "residual"]
        assert ds.rows[0][2] == pytest.approx(0.8)

    def test_sensitivity_dataset(self):
        cfg = parse_config(
            "mode=sensitivity\naxis=theta:0:1.0:5\nomega=1.0\ndelta_rabi=0.01\n")
        ds = run(cfg)
        assert ds.header == ["theta", "omega", "delta_rabi", "delta_theta"]
        assert ds.rows[0][3] == pytest.approx(0.01 / math.sqrt(2))

    @pytest.mark.parametrize("text, drifts", [
        ("omega=0.2\ntheta=0.03\npsi0=0\nt_end=1e12\n", True),
        ("omega=0.2\ntheta=0.0314159265\ndelta=0.803\npsi0=0\nt_end=4000\n",
         False),
    ], ids=["t_end_1e12", "readme"])
    def test_evolve_reports_norm_deviation(self, text, drifts):
        # period propagators are unitary to ~1e-12, so over 3e10 periods the
        # norm drifts by ~1e-2; the README run stays at rounding level
        ds = run(parse_config("mode=evolve\n" + text))
        deviation = float(ds.provenance["norm_deviation_max"])
        assert deviation > 1e-3 if drifts else deviation < 1e-10

    @pytest.mark.parametrize("text, aliased", [
        ("omega=0.2\ntheta=0.03\npsi0=0\nt_end=1e12\n", True),
        ("omega=0.2\ntheta=0.0314159265\ndelta=0.803\npsi0=0\nt_end=4000\n",
         False),
    ], ids=["t_end_1e12", "readme"])
    def test_evolve_fits_rabi_only_when_resolved(self, text, aliased):
        # samples every 5e7 time units alias every oscillation (bound pi/W =
        # 2.24); the README run samples every 0.207 against a bound of 1.43
        ds = run(parse_config("mode=evolve\n" + text))
        fitted = {"fitted_rabi_frequency", "fitted_contrast"} & set(ds.provenance)
        if aliased:
            assert ds.provenance["rabi_fit_skipped"] == "undersampled"
            assert not fitted
        else:
            assert "rabi_fit_skipped" not in ds.provenance
            assert len(fitted) == 2

    @staticmethod
    def _largest_truncation_met(points):
        met = [auto_harmonics(RotorParams(**kw)) for kw in points]
        return (str(max(modes.n_harmonics for modes, _ in met)),
                f"{max(edge for _, edge in met):.3e}")

    def test_theta_sweep_truncation_is_the_largest_met(self):
        # N = 12 certifies theta = 1.0; theta = 1.2 and 1.4 need N = 24
        ds = run(parse_config(
            "mode=geomphase\nomega=0.3\ndelta=0.9\naxis=theta:1.0:1.4:3\n"))
        want = self._largest_truncation_met(
            dict(omega=0.3, theta=th, delta=0.9) for th in (1.0, 1.2, 1.4))
        assert want[0] == "24"
        assert (ds.provenance["harmonics_n_max"],
                ds.provenance["harmonics_edge_weight_max"]) == want

    def test_omega_sweep_reports_truncation(self):
        ds = run(parse_config(
            "mode=spectrum\nomega=0.3\ntheta=1.4\ndelta=0.9\n"
            "axis=omega:0.2:0.4:3\n"))
        want = self._largest_truncation_met(
            dict(omega=om, theta=1.4, delta=0.9) for om in (0.2, 0.3, 0.4))
        assert want[0] == "24"
        assert (ds.provenance["harmonics_n_max"],
                ds.provenance["harmonics_edge_weight_max"]) == want

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
            "theta,omega,delta_solution,residual\n0.0,0.2,0.8,0.0\n")

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
         "--t-end", "50", "--steps-per-period", "256"],
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
        # argparse's own negative-number pattern has no exponent
        outs = [str(tmp_path / f"{k}.csv") for k in range(2)]
        rest = ["--theta", "0.5", "--delta-rabi", "0.01", "--output"]
        assert main(["sensitivity", f"--omega={value}", *rest, outs[0]]) == 0
        assert main(["sensitivity", "--omega", value, *rest, outs[1]]) == 0
        assert Path(outs[1]).read_bytes() == Path(outs[0]).read_bytes()

    def test_config_error_exit_code(self, capsys):
        assert main(["evolve", "--theta", "9"]) == 2

    def test_numeric_error_exit_code(self, capsys):
        # a tilt of pi/2 makes the uncertainty diverge
        assert main(["sensitivity", "--omega", "1.0",
                     "--theta", str(math.pi / 2), "--delta-rabi", "0.01"]) == 3

    @pytest.mark.parametrize("argv", [
        ["evolve", "--omega", "0.2", "--theta", "0.03", "--psi0", "0"],
    ], ids=["evolve"])
    def test_out_of_memory_exit_code(self, argv, tmp_path, capsys):
        # 1e14 steps per period ask for hundreds of TiB, more than a 64-bit
        # address space holds, so the first allocation fails at once
        out = tmp_path / "x.csv"
        code = main(argv + ["--steps-per-period", "100000000000000",
                            "--output", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: out of memory")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_field_geomphase_independent_of_steps_per_period(self, tmp_path):
        texts = []
        for spp in ("256", "4096"):
            out = tmp_path / f"g{spp}.csv"
            assert main(["geomphase", "--theta", "0.3", "--delta", "0.3",
                         "--axis", "omega:0.5:0.6:3", "--steps-per-period", spp,
                         "--output", str(out)]) == 0
            texts.append([line for line in out.read_text().splitlines()
                          if not line.startswith("# steps_per_period=")])
        assert texts[0] == texts[1]

    def test_failed_rabi_fit_exit_code(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise NumericFailureError("minimiser budget exhausted")

        monkeypatch.setattr(dynamics, "brent_min", fail)
        out = tmp_path / "e.csv"
        code = main(["evolve", "--omega", "0.2", "--theta", "0.0314159265",
                     "--delta", "0.803", "--psi0", "0",
                     "--steps-per-period", "256", "--output", str(out)])
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

    @pytest.mark.parametrize("n_harmonics, reported", [("40", False),
                                                       ("auto", True)])
    def test_truncation_provenance_only_when_automatic(self, tmp_path,
                                                       n_harmonics, reported):
        out = str(tmp_path / "g.csv")
        code = main(["geomphase", "--omega", "0.3", "--delta", "0.4",
                     "--n-harmonics", n_harmonics,
                     "--axis", "theta:0.1:0.3:3", "--output", out])
        assert code == 0
        text = Path(out).read_text()
        assert ("# harmonics_n_max=" in text) == reported
        assert ("# harmonics_edge_weight_max=" in text) == reported

    @pytest.mark.parametrize("mode", ["spectrum", "geomphase"])
    def test_omega_sweep_truncation_provenance_is_reproducible(self, tmp_path,
                                                              mode):
        outs = [str(tmp_path / f"{k}.csv") for k in range(2)]
        for out in outs:
            assert main([mode, "--theta", "0.3", "--delta", "0.4",
                         "--axis", "omega:0.3:0.6:7", "--output", out]) == 0
        text = Path(outs[0]).read_text()
        assert "# harmonics_n_max=12\n# harmonics_edge_weight_max=" in text
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

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest: ok" in out
