"""Flat key=value run configuration.

The format is line-oriented: one `key=value` per line, `#` starts a
comment, blank lines ignored. A sweep axis is written compactly as
`axis=name:min:max:points`. Every key can also be supplied as a CLI flag,
which overrides the file value.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConfigError

__all__ = ["AxisSpec", "SweepConfig", "format_value", "parse_config",
           "parse_mapping", "serialize"]

MODES = ("spectrum", "evolve", "geomphase", "resonance", "sensitivity")

AXIS_NAMES = ("omega", "theta", "delta")

_PSI0_LABELS = ("+1", "0", "-1")


class AxisSpec(NamedTuple):
    name: str
    min: float
    max: float
    points: int

    def __str__(self) -> str:
        return f"{self.name}:{self.min!r}:{self.max!r}:{self.points}"


class SweepConfig(NamedTuple):
    mode: str
    omega: float = 0.0
    theta: float = 0.0
    d: float = 1.0
    phi0: float = 0.0
    delta: float = 0.0
    axis: AxisSpec | None = None
    output_path: str | None = None
    physical_d: float | None = None
    psi0: str = "0"
    t_end: float | None = None
    branch: str = "plus"
    delta_rabi: float = 0.0


_KEYS = SweepConfig._fields


def format_value(value) -> str:
    """A config value as config text: `repr` for floats, so they read back
    exactly, and `str` otherwise (an AxisSpec as name:min:max:points)."""
    return repr(value) if isinstance(value, float) else str(value)


def _parse_float(key: str, raw: str, line: int | None) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(_at(line, f"{key}: not a number: {raw!r}")) from None
    if not math.isfinite(v):
        raise ConfigError(_at(line, f"{key}: must be finite"))
    return v


def _parse_int(key: str, raw: str, line: int | None) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(_at(line, f"{key}: not an integer: {raw!r}")) from None


def _at(line: int | None, msg: str) -> str:
    return msg if line is None else f"line {line}: {msg}"


def _parse_axis(raw: str, line: int | None) -> AxisSpec:
    parts = raw.split(":")
    if len(parts) != 4:
        raise ConfigError(_at(line, f"axis: expected name:min:max:points, got {raw!r}"))
    name = parts[0]
    if name not in AXIS_NAMES:
        raise ConfigError(_at(line, f"axis: unknown axis name {name!r}"))
    lo = _parse_float("axis min", parts[1], line)
    hi = _parse_float("axis max", parts[2], line)
    pts = _parse_int("axis points", parts[3], line)
    if not lo < hi:
        raise ConfigError(_at(line, "axis: min must be < max"))
    if not math.isfinite(hi - lo):
        raise ConfigError(_at(line, "axis: max - min must be finite"))
    if pts < 2:
        raise ConfigError(_at(line, "axis: points must be >= 2"))
    return AxisSpec(name=name, min=lo, max=hi, points=pts)


def parse_mapping(pairs: dict[str, str], lines: dict[str, int] | None = None) -> SweepConfig:
    """Validate a key -> raw-string mapping into a SweepConfig."""
    lines = lines or {}
    kw: dict = {}
    for key, raw in pairs.items():
        ln = lines.get(key)
        if key not in _KEYS:
            raise ConfigError(_at(ln, f"unknown key {key!r}"))
        if key == "axis":
            kw["axis"] = _parse_axis(raw, ln)
        elif key in ("mode", "output_path", "psi0", "branch"):
            kw[key] = raw
        else:
            kw[key] = _parse_float(key, raw, ln)

    if "mode" not in kw:
        raise ConfigError("missing required key 'mode'")
    cfg = SweepConfig(**kw)
    _validate(cfg)
    return cfg


def _validate(cfg: SweepConfig) -> None:
    if cfg.mode not in MODES:
        raise ConfigError(f"mode: must be one of {MODES}, got {cfg.mode!r}")
    if cfg.d <= 0:
        raise ConfigError("d: must be positive")
    if not 0.0 <= cfg.theta <= math.pi:
        raise ConfigError(f"theta: must lie in [0, pi], got {cfg.theta!r}")
    if cfg.psi0 not in _PSI0_LABELS:
        raise ConfigError(f"psi0: must be one of {_PSI0_LABELS}, got {cfg.psi0!r}")
    if cfg.branch not in ("plus", "minus"):
        raise ConfigError(f"branch: must be 'plus' or 'minus', got {cfg.branch!r}")
    if cfg.physical_d is not None and cfg.physical_d <= 0:
        raise ConfigError("physical_d: must be positive")
    if cfg.t_end is not None and cfg.t_end <= 0:
        raise ConfigError("t_end: must be positive")
    if cfg.delta_rabi < 0:
        raise ConfigError("delta_rabi: must be nonnegative")
    if cfg.axis is not None and cfg.axis.name == "theta":
        if not (0.0 <= cfg.axis.min and cfg.axis.max <= math.pi):
            raise ConfigError("axis: theta range must stay within [0, pi]")


def _read_pairs(text: str) -> tuple[dict[str, str], dict[str, int]]:
    """Split config text into raw key -> value pairs and key -> line
    numbers, checking only the line syntax."""
    pairs: dict[str, str] = {}
    lines: dict[str, int] = {}
    for ln, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {ln}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {ln}: empty key")
        if key in pairs:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        pairs[key] = value
        lines[key] = ln
    return pairs, lines


def parse_config(text: str) -> SweepConfig:
    """Parse the key=value config format; errors carry line numbers."""
    return parse_mapping(*_read_pairs(text))


def serialize(cfg: SweepConfig) -> str:
    """Render a config back to the flat text format (round-trip safe); keys
    whose value is None are left out."""
    return "".join(f"{key}={format_value(v)}\n" for key, v in zip(_KEYS, cfg)
                   if v is not None)
