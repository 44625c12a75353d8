"""Sweep engine and dataset serialization behind the command line.

Each run mode maps a validated config onto the library calls and hands
over its table as whole columns, one array per header name; `emit_csv`
writes them as CSV with a provenance preamble in one formatting pass. The
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
from .config import SweepConfig, format_value
from .dynamics import evolve, monodromy, rabi_fit
from .errors import ConfigError, FlatTraceError, NumericFailureError, RotorSpinError
from .floquet import LABELS, quasienergy_spectrum
from .geomphase import geometric_phases_with_field, geometric_phases_zero_field
from .model import RotorParams, derived_scales, h_rotating
from .sensing import angle_uncertainty, resonant_field
from .spin_algebra import unitarity_defect

__all__ = ["Dataset", "run", "emit_csv", "format_float"]

# column scaling kinds for physical-units output, and that of each axis
_FREQ, _TIME, _PLAIN = "freq", "time", "plain"
_AXIS_KINDS = {"theta": _PLAIN, "omega": _FREQ, "delta": _FREQ}

_PSI0 = {
    "+1": np.array([1.0, 0.0, 0.0], dtype=complex),
    "0": np.array([0.0, 1.0, 0.0], dtype=complex),
    "-1": np.array([0.0, 0.0, 1.0], dtype=complex),
}


@dataclass
class Dataset:
    """A run's table: `columns` holds one equal-length array (or sequence)
    per `header` name, `kinds` the physical-units scaling of each column
    (freq, time or plain), and `provenance` the preamble's key=value
    pairs."""
    header: list[str]
    columns: list
    kinds: list[str]
    provenance: dict = field(default_factory=dict)

    @property
    def rows(self) -> list[tuple]:
        """The table as row tuples: a read-only view of `columns`."""
        return list(zip(*self.columns))

    def scaled_columns(self, physical_d: float | None) -> list[np.ndarray]:
        """`columns` as arrays; with `physical_d` the freq columns are
        multiplied by it and the time columns divided."""
        scales = ({} if physical_d is None
                  else {_FREQ: physical_d, _TIME: 1.0 / physical_d})
        return [np.asarray(c) * scales[kind] if kind in scales else np.asarray(c)
                for c, kind in zip(self.columns, self.kinds)]


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


def _per_point(axis_name: str, values, point) -> list:
    """`point(v)` for each axis value v; a failure names the value."""
    out = []
    for v in map(float, values):
        try:
            out.append(point(v))
        except RotorSpinError as exc:
            raise type(exc)(f"{exc} (at {axis_name} = {v:.6g})") from exc
    return out


def _run_spectrum(cfg: SweepConfig) -> Dataset:
    values = _axis_values(cfg)
    p = _params(cfg)
    spec = quasienergy_spectrum(p, cfg.axis.name, values, cfg.n_harmonics)
    lam = np.stack([spec.branch(lab).quasienergy for lab in LABELS], axis=1)
    gaps = np.min(
        [np.abs(lam[:, i] - lam[:, j]) for i in range(3) for j in range(i + 1, 3)],
        axis=0,
    )
    # flag a local minimum of the gap: above neither neighbour, below one
    left, mid, right = gaps[:-2], gaps[1:-1], gaps[2:]
    flags = np.zeros(len(values), dtype=int)
    flags[1:-1] = (mid <= left) & (mid <= right) & ((mid < left) | (mid < right))
    return Dataset(
        header=["axis", "lambda_m1", "lambda_0", "lambda_p1", "gap_min_flag"],
        columns=[values, *lam.T, flags],
        kinds=[_AXIS_KINDS[cfg.axis.name], _FREQ, _FREQ, _FREQ, _PLAIN],
        provenance=_truncation(cfg, [spec]),
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
    ds = Dataset(
        header=["t", "p_plus1", "p_0", "p_minus1",
                "re_a_plus1", "im_a_plus1", "re_a_0", "im_a_0",
                "re_a_minus1", "im_a_minus1"],
        columns=[trace.times, *trace.populations.T, *trace.states.view(float).T],
        kinds=[_TIME] + [_PLAIN] * 9,
    )
    norms = np.linalg.norm(trace.states, axis=1)
    ds.provenance["norm_deviation_max"] = f"{np.abs(norms - 1.0).max():.3e}"
    if p.omega != 0:
        m, _ = monodromy(p, cfg.steps_per_period)
        ds.provenance["unitarity_drift_per_period"] = f"{unitarity_defect(m):.3e}"
    # the populations swing at quasi-energy differences shifted by the first
    # drive harmonics, all below W = (level spread) + 2|omega|; samples
    # farther apart than pi/W alias them, so nothing is fitted
    band = np.ptp(np.linalg.eigvalsh(h_rotating(p, 0.0))) + 2.0 * abs(p.omega)
    if len(trace.times) > 1 and trace.times[1] - trace.times[0] > math.pi / band:
        ds.provenance["rabi_fit_skipped"] = "undersampled"
        return ds
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

    def point(v: float):
        p = p0.with_(**{cfg.axis.name: v})
        if p.delta == 0:
            return geometric_phases_zero_field(p)
        return geometric_phases_with_field(p, cfg.n_harmonics)

    sets = _per_point(cfg.axis.name, values, point)
    return Dataset(
        header=["axis", "gamma_m1", "gamma_0", "gamma_p1"],
        columns=[values, *np.transpose([s.as_tuple() for s in sets])],
        kinds=[_AXIS_KINDS[cfg.axis.name], _PLAIN, _PLAIN, _PLAIN],
        provenance=_truncation(cfg, sets),
    )


def _truncation(cfg: SweepConfig, results) -> dict:
    """The largest harmonic truncation and edge weight among `results`, as
    provenance of an automatic run; nothing for a fixed truncation or a run
    without a harmonic solve."""
    n_max = max(r.n_harmonics for r in results)
    if cfg.n_harmonics != "auto" or n_max == 0:
        return {}
    return {"harmonics_n_max": str(n_max), "harmonics_edge_weight_max":
            f"{max(r.edge_weight for r in results):.3e}"}


def _run_resonance(cfg: SweepConfig) -> Dataset:
    if cfg.axis is not None and cfg.axis.name != "theta":
        raise ConfigError("resonance mode sweeps theta only")
    thetas = (_axis_values(cfg) if cfg.axis is not None
              else np.array([cfg.theta]))
    sols = _per_point("theta", thetas, lambda theta: resonant_field(
        theta, cfg.omega, cfg.branch, cfg.d))
    return Dataset(
        header=["theta", "omega", "delta_solution", "residual"],
        columns=[thetas, np.full_like(thetas, cfg.omega),
                 [s.value for s in sols], [s.residual for s in sols]],
        kinds=[_PLAIN, _FREQ, _FREQ, _FREQ],
    )


def _run_sensitivity(cfg: SweepConfig) -> Dataset:
    if cfg.axis is not None and cfg.axis.name == "delta":
        raise ConfigError("sensitivity mode sweeps theta or omega")
    name = cfg.axis.name if cfg.axis is not None else "theta"
    swept = _axis_values(cfg) if cfg.axis is not None else np.array([cfg.theta])
    thetas = swept if name == "theta" else np.full_like(swept, cfg.theta)
    omegas = swept if name == "omega" else np.full_like(swept, cfg.omega)
    dths = _per_point(name, swept, lambda v: angle_uncertainty(
        **{"theta": cfg.theta, "omega": cfg.omega, name: v}, delta_rabi=cfg.delta_rabi))
    return Dataset(
        header=["theta", "omega", "delta_rabi", "delta_theta"],
        columns=[thetas, omegas, np.full_like(swept, cfg.delta_rabi), dths],
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
    recorded = ("mode", "omega", "theta", "d", "phi0", "delta",
                "steps_per_period", "n_harmonics", "psi0", "branch")
    prov = {"engine": f"rotorspin {__version__}",
            **{key: format_value(getattr(cfg, key)) for key in recorded},
            "units": "physical" if cfg.physical_d is not None else "dimensionless"}
    for key in ("axis", "physical_d"):
        if getattr(cfg, key) is not None:
            prov[key] = format_value(getattr(cfg, key))
    return prov


def _compact(text: str) -> str:
    """Drop the plus sign and leading zeros of every `%e` exponent in text:
    e+00 becomes e0, e+05 e5 and e-05 e-5."""
    return text.replace("e+0", "e").replace("e+", "e").replace("e-0", "e-")


def format_float(x: float) -> str:
    """Scientific notation with a 12-digit mantissa and a compact exponent:
    0.2 becomes 2.000000000000e-1."""
    return _compact(f"{x:.12e}")


def emit_csv(ds: Dataset, path: str, physical_d: float | None = None) -> None:
    """Write the dataset atomically: provenance block, header, then one line
    per row. Integer-dtype columns are written as integers, all others as
    `format_float` writes them; with `physical_d` the freq columns are
    multiplied by it and the time columns divided. Raises
    NumericFailureError, and writes nothing, if the columns do not match the
    header or a value is not finite, and ConfigError, leaving no file
    behind, if the path cannot be written."""
    if len(ds.columns) != len(ds.header) or len({len(c) for c in ds.columns}) != 1:
        raise NumericFailureError("columns do not match the header")
    columns = ds.scaled_columns(physical_d)
    table = np.column_stack(columns)
    finite = np.isfinite(table)
    if not finite.all():
        raise NumericFailureError(
            f"non-finite value in output: {float(table[~finite][0])!r}")
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.12e" for c in columns) + "\n"
    head = [f"# {k}={v}" for k, v in ds.provenance.items()] + [",".join(ds.header)]
    body = "".join(f"{line}\n" for line in head) + _compact(
        "".join([row % tuple(r) for r in table.tolist()]))

    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rotorspin-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", newline="\n") as fh:
                fh.write(body)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(
            f"cannot write output {path!r}: {exc.strerror or exc}") from exc
