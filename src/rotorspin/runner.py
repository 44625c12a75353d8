"""Sweep engine and dataset serialization behind the command line.

Each run mode maps a validated config onto the library calls and hands
over its table as whole columns, one array per header name; `emit_csv`
formats them column by column, a chunk of rows at a time, and streams
the CSV, after a provenance preamble, to the output file; `table_chunks`
gives the same bytes without the preamble to the stdout route. The
engine always computes in dimensionless units (d = 1 internally is not
forced, but all defaults assume it); physical-units output only rescales
columns at serialization time.
"""

import math
import os
import sys
import tempfile
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import SweepConfig, format_value
from .dynamics import evolve, rabi_fit
from .errors import (ConfigError, FlatTraceError, InvalidArgumentError,
                     NumericFailureError, RotorSpinError)
from .floquet import (EDGE_WEIGHT_LEVELS, EDGE_WEIGHT_STATES, LABELS,
                      quasienergy_spectrum)
from .geomphase import field_phases
from .model import RotorParams, derived_scales, h_rotating
from .sensing import angle_uncertainty, resonant_field

__all__ = ["Dataset", "run", "emit_csv", "format_float", "table_chunks"]

# column scaling kinds for physical-units output, and that of each axis
_FREQ, _TIME, _PLAIN = "freq", "time", "plain"
_AXIS_KINDS = {"theta": _PLAIN, "omega": _FREQ, "delta": _FREQ}

# the most float64 values one array can hold: its size in bytes is an intp
_MAX_FLOATS = sys.maxsize // 8

_PSI0 = {
    "+1": np.array([1.0, 0.0, 0.0], dtype=complex),
    "0": np.array([0.0, 1.0, 0.0], dtype=complex),
    "-1": np.array([0.0, 0.0, 1.0], dtype=complex),
}


class Dataset(NamedTuple):
    """A run's table: `columns` holds one equal-length array (or sequence)
    per `header` name, `kinds` the physical-units scaling of each column
    (freq, time or plain), and `provenance` the preamble's key=value
    pairs. The default provenance, shared by every dataset that takes it,
    is an empty read-only mapping."""
    header: list[str]
    columns: list
    kinds: list[str]
    provenance: dict = MappingProxyType({})

    def scaled_columns(self, physical_d: float | None) -> list[np.ndarray]:
        """`columns` as arrays, as both output routes write them; with
        `physical_d` the freq columns are multiplied by it and the time
        columns divided. Raises NumericFailureError if a value is not
        finite."""
        scales = ({} if physical_d is None
                  else {_FREQ: physical_d, _TIME: 1.0 / physical_d})
        # a product past the float64 range is inf, 0 * inf is nan: both
        # are refused below, so numpy need not warn of them
        with np.errstate(over="ignore", invalid="ignore"):
            columns = [np.asarray(c) * scales[kind] if kind in scales
                       else np.asarray(c)
                       for c, kind in zip(self.columns, self.kinds)]
        for c in columns:
            finite = np.isfinite(c)
            if not finite.all():
                raise NumericFailureError(
                    f"non-finite value in output: {float(c[~finite][0])!r}")
        return columns


def _params(cfg: SweepConfig) -> RotorParams:
    try:
        return RotorParams(omega=cfg.omega, theta=cfg.theta, d=cfg.d,
                           phi0=cfg.phi0, delta=cfg.delta)
    except RotorSpinError as exc:
        raise ConfigError(str(exc)) from exc


def _axis_values(cfg: SweepConfig) -> np.ndarray:
    if cfg.axis is None:
        raise ConfigError(f"mode {cfg.mode!r} requires an axis")
    if cfg.axis.points > _MAX_FLOATS:
        # numpy fails on such a count with a ValueError or an IndexError,
        # not with the MemoryError of a count that only does not fit
        raise NumericFailureError(
            f"out of memory: {cfg.axis.points} axis points exceed the "
            f"{_MAX_FLOATS} float64 values an array can index")
    return np.linspace(cfg.axis.min, cfg.axis.max, cfg.axis.points)


def _per_point(axis_name: str, values, point) -> list:
    """`point(v)` for each axis value v; a failure names the value."""
    out = []
    for v in map(float, values):
        try:
            out.append(point(v))
        except RotorSpinError as exc:
            raise _at(axis_name, v, exc) from exc
    return out


def _at(axis_name: str, v: float, exc: RotorSpinError) -> RotorSpinError:
    """The error of the point at axis value v, naming the value."""
    return type(exc)(f"{exc} (at {axis_name} = {v:.6g})")


def _run_spectrum(cfg: SweepConfig) -> Dataset:
    values = _axis_values(cfg)
    p = _params(cfg)
    spec = quasienergy_spectrum(p, cfg.axis.name, values)
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
        provenance={**_truncation([spec], EDGE_WEIGHT_LEVELS), "tracking_overlap_min":
                    f"{spec.tracking_overlap_min:.6f}"},
    )


def _run_evolve(cfg: SweepConfig) -> Dataset:
    p = _params(cfg)
    t_end, default = cfg.t_end, None
    if t_end is None:
        sc = derived_scales(p)
        if sc.rabi > 0:
            t_end, default = 2.5 * 2.0 * math.pi / sc.rabi, "2.5 Rabi periods"
        elif p.omega != 0:
            t_end, default = 10.0 * p.period, "10 drive periods"
        else:
            raise ConfigError("t_end required when omega = 0")
    try:
        trace = evolve(p, _PSI0[cfg.psi0], t_end)
    except InvalidArgumentError as exc:
        if default is None:
            raise
        raise ConfigError(
            f"the default t_end of {default} cannot be sampled: {exc}; "
            "give --t-end") from exc
    ds = Dataset(
        header=["t", "p_plus1", "p_0", "p_minus1",
                "re_a_plus1", "im_a_plus1", "re_a_0", "im_a_0",
                "re_a_minus1", "im_a_minus1"],
        columns=[trace.times, *trace.populations.T, *trace.states.view(float).T],
        kinds=[_TIME] + [_PLAIN] * 9,
        provenance=_truncation([trace], EDGE_WEIGHT_STATES),
    )
    norms = np.linalg.norm(trace.states, axis=1)
    ds.provenance["norm_deviation_max"] = f"{np.abs(norms - 1.0).max():.3e}"
    # the populations swing at quasi-energy differences shifted by the first
    # drive harmonics, all below W = (level spread) + 2|omega|; samples
    # farther apart than pi/W alias the swings, so nothing is fitted
    band = np.ptp(np.linalg.eigvalsh(h_rotating(p, 0.0))) + 2.0 * abs(p.omega)
    if trace.times[1] - trace.times[0] > math.pi / band:
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
    name = cfg.axis.name
    ph = field_phases(_params(cfg), name, values)
    if ph.error is not None:
        raise _at(name, float(values[len(ph.gamma)]), ph.error) from ph.error
    return Dataset(
        header=["axis", "gamma_m1", "gamma_0", "gamma_p1"],
        columns=[values, *ph.gamma.T],
        kinds=[_AXIS_KINDS[name], _PLAIN, _PLAIN, _PLAIN],
        provenance=_truncation([ph], EDGE_WEIGHT_STATES),
    )


def _truncation(results, edge_weight_bound: float) -> dict:
    """The largest harmonic truncation and edge weight among `results`, and
    the edge-weight bound their solves certified, as provenance; nothing
    for a run without a harmonic solve."""
    n_max = max(r.truncation for r in results)
    if n_max == 0:
        return {}
    return {"harmonics_n_max": str(n_max), "harmonics_edge_weight_max":
            f"{max(r.edge_weight for r in results):.3e}",
            "harmonics_edge_weight_bound": f"{edge_weight_bound:.0e}"}


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
    ds = ds._replace(provenance={**_provenance(cfg), **ds.provenance})
    if cfg.output_path:
        emit_csv(ds, cfg.output_path, physical_d=cfg.physical_d)
    return ds


def _provenance(cfg: SweepConfig) -> dict:
    recorded = ("mode", "omega", "theta", "d", "phi0", "delta", "psi0",
                "branch")
    prov = {"engine": f"rotorspin {__version__}",
            **{key: format_value(getattr(cfg, key)) for key in recorded},
            "units": "physical" if cfg.physical_d is not None else "dimensionless"}
    for key in ("axis", "physical_d"):
        if getattr(cfg, key) is not None:
            prov[key] = format_value(getattr(cfg, key))
    return prov


def format_float(x: float) -> str:
    """Scientific notation with a 12-digit mantissa and a compact exponent
    (no plus sign, no leading zeros): 0.2 becomes 2.000000000000e-1."""
    return (f"{x:.12e}".replace("e+0", "e").replace("e+", "e")
            .replace("e-0", "e-"))


# `emit_csv` formats _CHUNK_ROWS rows at a time, so its traced peak stays
# near 2.5 MB for 10 columns whatever the row count. A cell fills a slot of
# _SLOT bytes: its text padded with zero bytes, then its separator; the
# zero bytes are dropped before the rows are written.
_CHUNK_ROWS = 4096
_SLOT = 21
# the decimal exponents of finite nonzero float64 values
_E_MIN, _E_MAX = -324, 308
# 10**(12 - e) for each exponent e, parsed from decimal text so that every
# entry is correctly rounded, and the compact exponent text of e padded
# with zero bytes
_POW10 = np.array([f"1e{12 - e}" for e in range(_E_MIN, _E_MAX + 1)],
                  dtype=np.longdouble)
_EXP_TEXT = np.array([f"e{e}" for e in range(_E_MIN, _E_MAX + 1)], dtype="S5")


def _digit_table() -> np.ndarray:
    """The four decimal digits of each i < 10**4, as an S4 array indexed by
    i; built by broadcasting, which costs far less at import than formatting
    10**4 strings."""
    digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    table = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for k in range(4):
        table[..., k] = digits.reshape((10,) + (1,) * (3 - k))
    return table.view("S4").reshape(10**4)


_DIGITS = _digit_table()
# the scaled value s < 1e13 is within eps * 1e13 of the exact
# |x| * 10**(12 - e), eps that of _POW10's dtype (one rounding in the table,
# one in the product); where it lies within _TIE, 8 times that, of a
# rounding tie, the cell is formatted by `format_float` instead
_TIE = 8.0 * float(np.finfo(_POW10.dtype).eps) * 1e13


def _float_cells(x: np.ndarray, out: np.ndarray) -> None:
    """Write `format_float` of each value of the finite float64 array x into
    the rows of the uint8 array out, of shape (len(x), 20), zero-padded."""
    a = np.abs(x)
    nonzero = a > 0
    # e = floor(log10 |x|), so that 1e12 <= s = |x| * 10**(12 - e) < 1e13;
    # the estimate from log10 is off by one at most, next to a power of ten
    e = np.floor(np.log10(np.where(nonzero, a, 1.0))).astype(np.int64)
    a = a.astype(_POW10.dtype)
    s = a * _POW10[e - _E_MIN]
    step = (s >= 1e13).astype(np.int64) - (nonzero & (s < 1e12))
    if step.any():
        e += step
        s = a * _POW10[e - _E_MIN]
    # where _POW10 is float64, 10**(12 - e) overflows for e < -296: s is
    # inf, or out of range after a step away from inf; such cells fall
    # back too
    with np.errstate(invalid="ignore"):
        mant = np.rint(s)
        fallback = (~np.isfinite(s) | nonzero & ((s < 1e12) | (s >= 1e13))
                    | (np.abs(np.abs((s - mant).astype(float)) - 0.5) <= _TIE))
    mant[fallback] = 0
    mant = mant.astype(np.int64)
    # a mantissa that rounds up to 10**13 is 10**12 at the next exponent
    carry = mant == 10**13
    mant[carry] = 10**12
    e += carry
    out[:, 0] = np.signbit(x) * ord("-")
    out[:, 2] = ord(".")
    # the 12 digits after the point as three groups of four, each one
    # `_DIGITS` lookup written through a 4-byte view; the groups come from
    # floor division by 10**4 (numpy's remainder, % or divmod, is slower)
    groups = out[:, 3:15].view("S4")
    for pos in (2, 1, 0):
        q = mant // 10**4
        groups[:, pos] = _DIGITS[mant - q * 10**4]
        mant = q
    out[:, 1] = mant + ord("0")
    out[:, 15:].view("S5")[:, 0] = _EXP_TEXT[e - _E_MIN]
    for i in np.flatnonzero(fallback):
        text = format_float(float(x[i])).encode()
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)


def _int_cells(x: np.ndarray, out: np.ndarray) -> None:
    """Write each value of the integer array x in decimal into the rows of
    the uint8 array out, of shape (len(x), 20): digits right-aligned, the
    sign of a negative value in the first byte (its magnitude has at most 19
    digits), zero bytes between."""
    negative = x < 0
    n = x.astype(np.uint64)
    n = np.where(negative, -n, n)  # the magnitude, also of the int64 minimum
    for pos in range(19, -1, -1):
        q = n // 10
        out[:, pos] = np.where((n > 0) | (pos == 19), n - q * 10 + ord("0"), 0)
        n = q
    out[negative, 0] = ord("-")


def _rows_text(columns: list[np.ndarray]) -> bytes:
    """The CSV lines of equal-length columns, as `emit_csv` writes them."""
    buf = np.zeros((len(columns[0]), len(columns), _SLOT), dtype=np.uint8)
    buf[:, :, -1] = ord(",")
    buf[:, -1, -1] = ord("\n")
    for j, c in enumerate(columns):
        if c.dtype.kind in "iu":
            _int_cells(c, buf[:, j, :-1])
        else:
            _float_cells(c.astype(float, copy=False), buf[:, j, :-1])
    return buf.tobytes().translate(None, b"\0")


def table_chunks(header: list[str], columns: list[np.ndarray]):
    """The CSV body of equal-length columns as bytes: the header line, then
    the rows, _CHUNK_ROWS at a time. Both output routes write these."""
    yield (",".join(header) + "\n").encode()
    for lo in range(0, len(columns[0]), _CHUNK_ROWS):
        yield _rows_text([c[lo:lo + _CHUNK_ROWS] for c in columns])


def emit_csv(ds: Dataset, path: str, physical_d: float | None = None) -> None:
    """Write the dataset atomically: provenance block, header, then one line
    per row. Integer-dtype columns are written as integers, all others as
    `format_float` writes them; with `physical_d` the freq columns are
    multiplied by it and the time columns divided. Raises
    NumericFailureError, and writes nothing, if the columns do not match the
    header or a value is not finite, and ConfigError, leaving no file
    behind, if the path cannot be written.

    The rows are formatted by whole columns into a byte buffer and streamed
    to a temporary file a chunk of rows at a time, which then replaces
    `path`. The digits come from each value's integer mantissa, scaled in
    extended precision, four at a time from a table; the few values next to
    a rounding tie are formatted by `format_float`, so every cell is exactly
    its `format_float` text."""
    if len(ds.columns) != len(ds.header) or len({len(c) for c in ds.columns}) != 1:
        raise NumericFailureError("columns do not match the header")
    columns = ds.scaled_columns(physical_d)
    head = "".join(f"# {k}={v}\n" for k, v in ds.provenance.items())

    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rotorspin-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(head.encode())
                fh.writelines(table_chunks(ds.header, columns))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(
            f"cannot write output {path!r}: {exc.strerror or exc}") from exc
