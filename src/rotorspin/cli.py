"""Command-line surface: `rotorspin COMMAND [--flag VALUE | --flag=VALUE]...`.

One command per run mode plus `selftest`. Every flag mirrors a config
key and overrides it; a config file is optional when all required keys
are given as flags. Without `--output` the table goes to stdout as the
CSV body. Exit codes: 0 success, 1 stdout closed by its reader before
the output was written, 2 configuration or usage error, 3 numeric
failure.
"""

import math
import os
import sys

import numpy as np

from .config import _KEYS, MODES, _read_pairs, parse_mapping
from .errors import ConfigError, InvalidArgumentError, RotorSpinError
from .runner import run, table_chunks

_COMMANDS = (*MODES, "selftest")

# the command sets the mode, and --output the output path
_FLAG_KEYS = tuple(key for key in _KEYS if key not in ("mode", "output_path"))

# flag -> key of the run commands; every flag takes exactly one value
_FLAGS = {"--config": "config", "--output": "output_path",
          **{f"--{key.replace('_', '-')}": key for key in _FLAG_KEYS}}

_USAGE = "usage: rotorspin COMMAND [--flag VALUE | --flag=VALUE]..."

def _help() -> str:
    commands = "".join(f"  {mode:<12} run the {mode} mode\n" for mode in MODES)
    flags = "".join(f"  {flag} VALUE\n" for flag, key in _FLAGS.items()
                    if key in _FLAG_KEYS)
    return (f"{_USAGE}\n\n"
            "Quasi-energy spectra, spin dynamics and geometric phases of a "
            "spin-1 defect\nin a rotating frame.\n\n"
            f"commands:\n{commands}  {'selftest':<12} run internal consistency "
            "checks (takes no flags)\n\n"
            "flags of the run modes, each with one value, which overrides the "
            "config key\nof its name:\n"
            "  --config PATH      config file (key=value lines)\n"
            "  --output PATH      CSV output path; without it the table goes to "
            "stdout\n"
            f"{flags}")


def _usage_error(message: str):
    sys.stderr.write(f"{_USAGE}\nrotorspin: error: {message}\n")
    raise SystemExit(2)


def _parse_args(argv: list[str]) -> tuple[str, dict[str, str]] | None:
    """The command and its flag values (key -> raw text) of `argv`, or
    None when it asks for help. The last of a repeated flag wins; a value
    may start with one dash but not two. A usage error writes the usage
    and the error to stderr and raises SystemExit(2)."""
    if not argv:
        _usage_error("the following arguments are required: COMMAND")
    command, rest = argv[0], argv[1:]
    if command in ("-h", "--help"):
        return None
    if command not in _COMMANDS:
        _usage_error(f"invalid choice: {command!r} "
                     f"(choose from {', '.join(_COMMANDS)})")
    flags: dict[str, str] = {}
    unknown: list[str] = []
    i = 0
    while i < len(rest):
        token = rest[i]
        if token in ("-h", "--help"):
            return None
        flag, eq, value = token.partition("=")
        taken = [token]
        if not eq:
            if i + 1 < len(rest) and not rest[i + 1].startswith("--"):
                value = rest[i + 1]
                taken.append(value)
            else:
                value = None
        i += len(taken)
        key = _FLAGS.get(flag) if command != "selftest" else None
        if key is None:
            unknown += taken
        elif value is None:
            _usage_error(f"argument {flag}: expected one argument")
        else:
            flags[key] = value
    if unknown:
        _usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    return command, flags


def _merge_config(command: str, flags: dict[str, str]):
    text = ""
    path = flags.get("config")
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    pairs, lines = _read_pairs(text)
    # the command sets the mode and flags win; a flag value has no line
    for key in _KEYS:
        value = command if key == "mode" else flags.get(key)
        if value is not None:
            pairs[key] = value
            lines.pop(key, None)
    return parse_mapping(pairs, lines)


def _selftest() -> int:
    from .dynamics import monodromy, propagator_zero_field
    from .floquet import (EDGE_WEIGHT_LEVELS, auto_harmonics,
                          cubic_quasienergies, fold)
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
    modes = auto_harmonics(p, EDGE_WEIGHT_LEVELS)
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


def _write_stdout(chunks) -> None:
    """Write byte chunks to stdout: to its binary buffer, after any text
    written before, or decoded to a text stream that has none."""
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.writelines(chunk.decode() for chunk in chunks)
    else:
        sys.stdout.flush()
        buffer.writelines(chunks)


def _main(argv: list[str]) -> int:
    parsed = _parse_args(argv)
    if parsed is None:
        sys.stdout.write(_help())
        return 0
    command, flags = parsed
    if command == "selftest":
        try:
            return _selftest()
        except RotorSpinError as exc:
            print(f"selftest error: {exc}", file=sys.stderr)
            return 3
    try:
        cfg = _merge_config(command, flags)
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
        # no file requested: the CSV body, without its provenance, to stdout
        _write_stdout(table_chunks(ds.header, columns))
    return 0


def main(argv=None) -> int:
    try:
        code = _main(list(sys.argv[1:] if argv is None else argv))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; as the `signal` module docs
        # advise, devnull takes its place, so that the flush at exit
        # cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def entry() -> None:
    """Run `main` as a whole process and end it: the entry point of
    `python -m rotorspin.cli` and of the `rotorspin` script. Once `main`
    has returned and stdout and stderr are flushed, `os._exit` ends the
    process with main's code, skipping the interpreter's finalization:
    its collections over the objects that the imports of numpy and the
    package leave, and its module teardown, took 4.1-7.7 ms (medians
    4.6-5.3 ms) from the end of `main` to the parent process's `wait`
    even with the heap frozen at exit, against medians of 1.3-1.6 ms
    this way (BENCH_29.json). So no exit handler runs. An exception out
    of `main`, such as the SystemExit of a usage error, ends the process
    the usual way."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
