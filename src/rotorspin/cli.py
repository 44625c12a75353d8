"""Command-line surface.

One subcommand per run mode plus `selftest`. Every flag mirrors a config
key and overrides it; a config file is optional when all required keys
are given as flags. Exit codes: 0 success, 1 stdout closed by its
reader before the output was written, 2 configuration error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

import numpy as np

from .config import _KEYS, MODES, _read_pairs, parse_mapping
from .errors import ConfigError, InvalidArgumentError, RotorSpinError
from .runner import run

# the subcommand sets the mode, and --output the output path
_FLAG_KEYS = tuple(key for key in _KEYS if key not in ("mode", "output_path"))

# argparse reads a separate flag value that starts with "-" as an option
# unless it matches its own negative-number pattern, which has no exponent
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotorspin",
        description="Quasi-energy spectra, spin dynamics and geometric phases "
                    "of a spin-1 defect in a rotating frame.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode, help=f"run a {mode} computation")
        sp.add_argument("--config", help="config file (key=value lines)")
        sp.add_argument("--output", dest="output_path", help="CSV output path")
        for key in _FLAG_KEYS:
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
    sub.add_parser("selftest", help="run internal consistency checks")
    return parser


def _merge_config(args: argparse.Namespace):
    text = ""
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    pairs, lines = _read_pairs(text)
    # the subcommand sets the mode and flags win; a flag value has no line
    for key in _KEYS:
        value = args.command if key == "mode" else getattr(args, key)
        if value is not None:
            pairs[key] = value
            lines.pop(key, None)
    return parse_mapping(pairs, lines)


def _selftest() -> int:
    from .dynamics import monodromy, propagator_zero_field
    from .floquet import auto_harmonics, cubic_quasienergies, fold
    from .geomphase import verify_gauge_sign
    from .model import RotorParams, h_interaction
    from .sensing import resonant_field
    from .spin_algebra import hermitian_eigensystem, unitarity_defect

    failures = 0

    def check(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
        if not ok:
            failures += 1

    dev = verify_gauge_sign()
    check("gauge sign pinning", True, f"slow-rotation deviation {dev:.2e} rad")

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        p = RotorParams(omega=float(rng.uniform(0.01, 3.0)),
                        theta=float(rng.uniform(0.0, math.pi)))
        roots = cubic_quasienergies(p.d, p.omega, p.theta)
        vals = hermitian_eigensystem(h_interaction(p)).values
        worst = max(worst, float(np.abs(roots - vals).max()))
    check("cubic vs eigensolver", worst < 1e-10, f"max deviation {worst:.2e}")

    p = RotorParams(omega=0.2, theta=math.pi / 100, delta=0.803)
    _, lam_m = monodromy(p)
    modes = auto_harmonics(p)
    lam_f = np.sort(fold(modes.quasi, p.omega))
    dev = float(np.abs(np.sort(fold(lam_m, p.omega)) - lam_f).max())
    check("monodromy vs harmonic matrix", dev < 1e-8,
          f"max deviation {dev:.2e} at N = {modes.n_harmonics}")

    p = RotorParams(omega=0.7, theta=math.pi / 5)
    udef = unitarity_defect(propagator_zero_field(p, 3.7))
    check("analytic propagator unitarity", udef < 1e-12, f"defect {udef:.2e}")

    sol = resonant_field(math.pi / 100, 0.2)
    dev = abs(sol.value - 0.8039019)
    check("compensating field", dev <= 1e-6 and sol.residual <= 1e-6,
          f"delta {sol.value:.7f}, residual {sol.residual:.1e}")

    print("selftest:", "ok" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 3


def _main(argv) -> int:
    for i in range(len(argv) - 1, 0, -1):  # every flag takes one value
        if (argv[i - 1][:2] == "--" and "=" not in argv[i - 1]
                and _NEGATIVE_NUMBER.fullmatch(argv[i])):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _build_parser().parse_args(argv)
    if args.command == "selftest":
        try:
            return _selftest()
        except RotorSpinError as exc:
            print(f"selftest error: {exc}", file=sys.stderr)
            return 3
    try:
        cfg = _merge_config(args)
        ds = run(cfg)
        # the file route has written its table; the stdout route checks it
        columns = None if cfg.output_path else ds.scaled_columns(cfg.physical_d)
    except (ConfigError, InvalidArgumentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RotorSpinError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"numeric failure: out of memory: {exc}", file=sys.stderr)
        return 3
    if columns is None:
        print(f"wrote {len(ds.columns[0])} rows to {cfg.output_path}")
    else:
        # no file requested: print the table to stdout
        print(",".join(ds.header))
        for row in zip(*columns):
            print(",".join(str(v) for v in row))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; as the `signal` module docs
        # advise, devnull takes its place, so that the flush at exit
        # cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
