"""Output checks for the benchmark's CLI calls.

Every check uses numpy and closed forms only, never the rotorspin
package, so a wrong number in the package cannot also be wrong in its
check. Each returns the number of CSV data rows; a failed check raises
OracleError.
"""

from __future__ import annotations

import math

import numpy as np


class OracleError(Exception):
    pass


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a rotorspin CSV (provenance lines skipped)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    if not lines:
        raise OracleError("no header in output")
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    if rows.ndim != 2 or rows.shape[1] != len(header) or not np.isfinite(rows).all():
        raise OracleError(f"malformed table: shape {rows.shape}, header {header}")
    return header, rows


def _expect(ok: bool, msg: str) -> None:
    if not ok:
        raise OracleError(msg)


def _axis(rows: np.ndarray, params: dict) -> np.ndarray:
    x = np.linspace(params["lo"], params["hi"], params["points"])
    _expect(len(rows) == params["points"], f"{len(rows)} rows for {params['points']} points")
    # the CSV carries 13 significant digits
    _expect(np.allclose(rows[:, 0], x, rtol=1e-12, atol=0), "axis column off the grid")
    return x


def _spectrum_zero_field(rows, params):
    # rows are the roots of x^3 - 2d x^2 + (d^2 - w^2) x + w^2 d sin^2(theta)
    d, s2 = 1.0, math.sin(params["theta"]) ** 2
    worst = 0.0
    for w, lam in zip(_axis(rows, params), rows[:, 1:4]):
        roots = np.sort(np.roots([1.0, -2.0 * d, d * d - w * w, w * w * d * s2]).real)
        worst = max(worst, float(np.abs(np.sort(lam) - roots).max()))
    _expect(worst < 1e-9, f"zero-field quasi-energies off the cubic roots by {worst:.2e}")


def _spectrum_field(rows, params):
    # the three quasi-energies sum to trace(static part) = 2d modulo omega
    k = (rows[:, 1:4].sum(axis=1) - 2.0) / _axis(rows, params)
    worst = float(np.abs(k - np.round(k)).max())
    _expect(worst < 1e-8, f"(sum(lambda) - 2d)/omega off an integer by {worst:.2e}")


def _geomphase(rows, params):
    _axis(rows, params)
    worst = float(np.abs(rows[:, 1:4].sum(axis=1)).max())
    _expect(worst < 1e-9, f"geometric phases do not sum to 0 (worst {worst:.2e})")


def _sensitivity(rows, params):
    _expect(len(rows) == 1, f"{len(rows)} rows for one point")
    th, om, rabi, dth = rows[0]
    _expect(np.allclose([th, om, rabi], [params["theta"], params["omega"],
                                         params["delta_rabi"]], rtol=1e-12),
            "echoed parameters differ from the input")
    want = params["delta_rabi"] / (math.sqrt(2.0) * abs(params["omega"])
                                   * math.cos(params["theta"]))
    _expect(abs(dth - want) <= 1e-11 * abs(want), f"delta_theta {dth!r} != {want!r}")


def _resonance(rows, params):
    _axis(rows, params)
    _expect(np.allclose(rows[:, 1], params["omega"], rtol=1e-12, atol=0),
            "echoed omega differs from the input")
    delta, residual = rows[:, 2], rows[:, 3]
    _expect(bool(np.all((0.0 < delta) & (delta < 1.0))), f"field outside (0, d): {delta}")
    _expect(bool(np.all(residual <= 1e-6)), f"residual above 1e-6: {residual}")


_PSI0 = {"+1": (1.0, 0.0, 0.0), "0": (0.0, 1.0, 0.0), "-1": (0.0, 0.0, 1.0)}


def _evolve(rows, params):
    _expect(len(rows) == params["rows"], f"{len(rows)} samples, not {params['rows']}")
    pops, amp = rows[:, 1:4], rows[:, 4:10]
    mod2 = amp[:, 0::2] ** 2 + amp[:, 1::2] ** 2
    worst_norm = float(np.abs(pops.sum(axis=1) - 1.0).max())
    worst_mod = float(np.abs(pops - mod2).max())
    _expect(worst_norm < 1e-9, f"populations do not sum to 1 (worst {worst_norm:.2e})")
    _expect(worst_mod < 1e-9, f"population != |a|^2 (worst {worst_mod:.2e})")
    psi0 = np.array(_PSI0[params["psi0"]])
    first = amp[0, 0::2] + 1j * amp[0, 1::2]
    _expect(rows[0, 0] == 0.0 and np.abs(first - psi0).max() < 1e-12,
            "first row is not t = 0 with the initial state")


_CHECKS = {
    "spectrum_zero_field": _spectrum_zero_field,
    "spectrum_field": _spectrum_field,
    "geomphase": _geomphase,
    "sensitivity": _sensitivity,
    "resonance": _resonance,
    "evolve": _evolve,
}


def check(kind: str, params: dict, path: str) -> int:
    """Check one call's CSV; returns its number of data rows."""
    _, rows = read_csv(path)
    _CHECKS[kind](rows, params)
    return len(rows)
