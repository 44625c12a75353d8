"""Sweep engine and dataset serialization behind the command line.

Each run mode maps a validated config onto the library calls, collects a
rectangular table, and writes it as CSV with a provenance preamble. The
engine always computes in dimensionless units (d = 1 internally is not
forced, but all defaults assume it); physical-units output only rescales
columns at serialization time.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import SweepConfig
from .dynamics import evolve, monodromy, rabi_fit
from .errors import ConfigError, FlatTraceError, NumericFailureError, RotorSpinError
from .floquet import LABELS, auto_harmonics, quasienergy_spectrum
from .geomphase import geometric_phases_with_field, geometric_phases_zero_field
from .model import RotorParams, derived_scales
from .sensing import angle_uncertainty, resonant_field
from .spin_algebra import unitarity_defect

__all__ = ["Dataset", "run", "emit_csv", "format_float"]

# column scaling kinds for physical-units output
_FREQ, _TIME, _PLAIN = "freq", "time", "plain"

_PSI0 = {
    "+1": np.array([1.0, 0.0, 0.0], dtype=complex),
    "0": np.array([0.0, 1.0, 0.0], dtype=complex),
    "-1": np.array([0.0, 0.0, 1.0], dtype=complex),
}


@dataclass
class Dataset:
    header: list[str]
    rows: list[tuple]
    kinds: list[str]
    provenance: dict = field(default_factory=dict)


def _params(cfg: SweepConfig) -> RotorParams:
    try:
        return RotorParams(omega=cfg.omega, theta=cfg.theta, d=cfg.d,
                           phi0=cfg.phi0, delta=cfg.delta)
    except RotorSpinError as exc:
        raise ConfigError(str(exc)) from exc


def _axis_values(cfg: SweepConfig) -> np.ndarray:
    if cfg.axis is None:
        raise ConfigError(f"mode {cfg.mode!r} requires an axis")
    return np.linspace(cfg.axis.min, cfg.axis.max, cfg.axis.points)


def _annotate(exc: RotorSpinError, axis_name: str, value: float):
    raise type(exc)(f"{exc} (at {axis_name} = {value:.6g})") from exc


def _run_spectrum(cfg: SweepConfig) -> Dataset:
    values = _axis_values(cfg)
    p = _params(cfg)
    spec = quasienergy_spectrum(p, cfg.axis.name, values, cfg.n_harmonics)
    lam = np.stack([spec.branch(lab).quasienergy for lab in LABELS], axis=1)
    gaps = np.min(
        [np.abs(lam[:, i] - lam[:, j]) for i in range(3) for j in range(i + 1, 3)],
        axis=0,
    )
    flags = np.zeros(len(values), dtype=int)
    for i in range(1, len(values) - 1):
        if gaps[i] <= gaps[i - 1] and gaps[i] <= gaps[i + 1] and (
            gaps[i] < gaps[i - 1] or gaps[i] < gaps[i + 1]
        ):
            flags[i] = 1
    rows = [
        (values[i], lam[i, 0], lam[i, 1], lam[i, 2], int(flags[i]))
        for i in range(len(values))
    ]
    axis_kind = _PLAIN if cfg.axis.name == "theta" else _FREQ
    return Dataset(
        header=["axis", "lambda_m1", "lambda_0", "lambda_p1", "gap_min_flag"],
        rows=rows,
        kinds=[axis_kind, _FREQ, _FREQ, _FREQ, _PLAIN],
    )


def _run_evolve(cfg: SweepConfig) -> Dataset:
    p = _params(cfg)
    t_end = cfg.t_end
    if t_end is None:
        sc = derived_scales(p)
        if sc.rabi > 0:
            t_end = 2.5 * 2.0 * math.pi / sc.rabi
        elif p.omega != 0:
            t_end = 10.0 * p.period
        else:
            raise ConfigError("t_end required when omega = 0 and theta in {0, pi}")
    trace = evolve(p, _PSI0[cfg.psi0], t_end, cfg.steps_per_period)
    rows = []
    for i, t in enumerate(trace.times):
        s = trace.states[i]
        rows.append((
            t,
            trace.populations[i, 0], trace.populations[i, 1], trace.populations[i, 2],
            s[0].real, s[0].imag, s[1].real, s[1].imag, s[2].real, s[2].imag,
        ))
    ds = Dataset(
        header=["t", "p_plus1", "p_0", "p_minus1",
                "re_a_plus1", "im_a_plus1", "re_a_0", "im_a_0",
                "re_a_minus1", "im_a_minus1"],
        rows=rows,
        kinds=[_TIME] + [_PLAIN] * 9,
    )
    if p.omega != 0:
        m, _ = monodromy(p, cfg.steps_per_period)
        ds.provenance["unitarity_drift_per_period"] = f"{unitarity_defect(m):.3e}"
    try:
        freq, contrast = rabi_fit(trace, ("m0", "m+1"))
        ds.provenance["fitted_rabi_frequency"] = f"{freq:.9e}"
        ds.provenance["fitted_contrast"] = f"{contrast:.6f}"
    except FlatTraceError:
        pass
    return ds


def _run_geomphase(cfg: SweepConfig) -> Dataset:
    values = _axis_values(cfg)
    p0 = _params(cfg)
    rows = []
    for v in values:
        p = p0.with_(**{cfg.axis.name: float(v)})
        try:
            if p.delta == 0:
                phases = geometric_phases_zero_field(p)
            else:
                phases = geometric_phases_with_field(p, cfg.n_harmonics)
        except RotorSpinError as exc:
            _annotate(exc, cfg.axis.name, v)
        g = phases.gamma
        rows.append((v, g["m-1"], g["m0"], g["m+1"]))
    axis_kind = _PLAIN if cfg.axis.name == "theta" else _FREQ
    return Dataset(
        header=["axis", "gamma_m1", "gamma_0", "gamma_p1"],
        rows=rows,
        kinds=[axis_kind, _PLAIN, _PLAIN, _PLAIN],
    )


def _run_resonance(cfg: SweepConfig) -> Dataset:
    if cfg.axis is not None and cfg.axis.name != "theta":
        raise ConfigError("resonance mode sweeps theta only")
    thetas = (_axis_values(cfg) if cfg.axis is not None
              else np.array([cfg.theta]))
    rows = []
    for th in thetas:
        try:
            sol = resonant_field(float(th), cfg.omega, cfg.branch, cfg.d)
        except RotorSpinError as exc:
            _annotate(exc, "theta", th)
        rows.append((float(th), cfg.omega, sol.value, sol.residual))
    return Dataset(
        header=["theta", "omega", "delta_solution", "residual"],
        rows=rows,
        kinds=[_PLAIN, _FREQ, _FREQ, _FREQ],
    )


def _run_sensitivity(cfg: SweepConfig) -> Dataset:
    if cfg.axis is not None and cfg.axis.name == "delta":
        raise ConfigError("sensitivity mode sweeps theta or omega")
    rows = []
    name = cfg.axis.name if cfg.axis is not None else "theta"
    if cfg.axis is None:
        grid = [(cfg.theta, cfg.omega)]
    elif name == "theta":
        grid = [(float(v), cfg.omega) for v in _axis_values(cfg)]
    else:
        grid = [(cfg.theta, float(v)) for v in _axis_values(cfg)]
    for th, om in grid:
        try:
            dth = angle_uncertainty(om, th, cfg.delta_rabi)
        except RotorSpinError as exc:
            _annotate(exc, name, om if name == "omega" else th)
        rows.append((th, om, cfg.delta_rabi, dth))
    return Dataset(
        header=["theta", "omega", "delta_rabi", "delta_theta"],
        rows=rows,
        kinds=[_PLAIN, _FREQ, _FREQ, _PLAIN],
    )


_RUNNERS = {
    "spectrum": _run_spectrum,
    "evolve": _run_evolve,
    "geomphase": _run_geomphase,
    "resonance": _run_resonance,
    "sensitivity": _run_sensitivity,
}


def run(cfg: SweepConfig) -> Dataset:
    """Execute one configured run and optionally write its CSV."""
    ds = _RUNNERS[cfg.mode](cfg)
    ds.provenance = {**_provenance(cfg), **ds.provenance}
    if cfg.output_path:
        emit_csv(ds, cfg.output_path, physical_d=cfg.physical_d)
    return ds


def _provenance(cfg: SweepConfig) -> dict:
    prov = {
        "engine": f"rotorspin {__version__}",
        "mode": cfg.mode,
        "omega": repr(cfg.omega),
        "theta": repr(cfg.theta),
        "d": repr(cfg.d),
        "phi0": repr(cfg.phi0),
        "delta": repr(cfg.delta),
        "steps_per_period": str(cfg.steps_per_period),
        "n_harmonics": str(cfg.n_harmonics),
        "psi0": cfg.psi0,
        "branch": cfg.branch,
        "units": ("physical" if cfg.physical_d is not None else "dimensionless"),
    }
    if cfg.axis is not None:
        a = cfg.axis
        prov["axis"] = f"{a.name}:{a.min!r}:{a.max!r}:{a.points}"
    if cfg.physical_d is not None:
        prov["physical_d"] = repr(cfg.physical_d)
    if (cfg.delta != 0 and cfg.omega != 0 and cfg.mode in ("spectrum", "geomphase")
            and cfg.n_harmonics == "auto"):
        p = _params(cfg)
        try:
            modes, movement = auto_harmonics(p)
            prov["harmonics_final_n"] = str(modes.n_harmonics)
            prov["harmonics_last_movement"] = f"{movement:.3e}"
        except RotorSpinError:
            pass
    return prov


def format_float(x: float) -> str:
    """Scientific notation with a 12-digit mantissa and a compact exponent:
    0.2 becomes 2.000000000000e-1."""
    mant, _, exp = f"{x:.12e}".partition("e")
    neg = exp.startswith("-")
    digits = exp.lstrip("+-").lstrip("0") or "0"
    return f"{mant}e{'-' if neg else ''}{digits}"


def emit_csv(ds: Dataset, path: str, physical_d: float | None = None) -> None:
    """Write the dataset atomically: provenance block, header, then rows."""
    for row in ds.rows:
        if len(row) != len(ds.header):
            raise NumericFailureError("row width does not match header")
        for v in row:
            if isinstance(v, float) and not math.isfinite(v):
                raise NumericFailureError(f"non-finite value in output: {v!r}")

    fscale = physical_d if physical_d is not None else 1.0
    scales = {_FREQ: fscale, _TIME: 1.0 / fscale, _PLAIN: 1.0}

    lines = [f"# {k}={v}" for k, v in ds.provenance.items()]
    lines.append(",".join(ds.header))
    for row in ds.rows:
        cells = []
        for v, kind in zip(row, ds.kinds):
            if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
                cells.append(str(int(v)))
            else:
                cells.append(format_float(float(v) * scales[kind]))
        lines.append(",".join(cells))
    body = "\n".join(lines) + "\n"

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rotorspin-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
