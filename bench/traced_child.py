"""Traced CLI call: the child process of a traced benchmark run.

Usage: python3 bench/traced_child.py SPANS.json CLI-ARG...

Times `import rotorspin`, replaces every module binding of the traced
public functions with a span-recording wrapper, wraps numpy.linalg.eigh
to record the sizes of non-trivial eigensolves, runs
rotorspin.cli.main(CLI-ARGs) and writes the spans as JSON at exit.
A span is [name, start, end, parent index, info]; info is a number whose
meaning depends on the span (matrix size, truncation, cache hit, bytes).
"""

import sys
import time

_before = set(sys.modules)
_t0 = time.perf_counter()
import rotorspin  # noqa: E402  (the import itself is measured)
_import_s = time.perf_counter() - _t0
_import_modules = len(set(sys.modules) - _before)

import json  # noqa: E402
import os  # noqa: E402

import numpy as np  # noqa: E402

import rotorspin.cli  # noqa: E402

#: module -> public functions that get a span each
TRACED = {
    "cli": ("main",),
    "config": ("parse_mapping", "parse_config"),
    "runner": ("run", "emit_csv"),
    "floquet": ("physical_modes", "auto_harmonics", "quasienergy_spectrum",
                "quasienergies_zero_field", "avoided_crossing"),
    "sensing": ("resonant_field", "angle_uncertainty"),
    "dynamics": ("period_propagators", "monodromy", "evolve", "rabi_fit"),
    "geomphase": ("geometric_phases_with_field", "geometric_phases_zero_field"),
    "spin_algebra": ("hermitian_eigensystem",),
}

#: functions only counted: they run thousands of times per call
COUNTED = {"model": ("h_rotating",)}

spans: list = []
counts: dict[str, int] = {}
_stack: list[int] = []
_seen_periods: set = set()


def _info(name, args, result):
    if name == "floquet.physical_modes":
        return int(args[1])
    if name == "dynamics.period_propagators":
        key = (args[0], int(args[1]))
        hit = key in _seen_periods
        _seen_periods.add(key)
        return 0 if hit else int(args[1])  # integrator steps taken
    if name == "runner.emit_csv":
        return os.path.getsize(args[1])
    if name == "numpy.eigh":
        return int(np.shape(args[0])[-1])
    return None


def _span(name, fn):
    def wrapper(*args, **kwargs):
        i = len(spans)
        spans.append([name, 0.0, 0.0, _stack[-1] if _stack else -1, None])
        _stack.append(i)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            spans[i][1], spans[i][2] = start, time.perf_counter()
            _stack.pop()
        spans[i][4] = _info(name, args, result)
        return result
    return wrapper


def _counter(name, fn):
    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


def _eigh(fn):
    traced = _span("numpy.eigh", fn)

    def wrapper(a, *args, **kwargs):
        # 3x3 (and stacked 3x3) solves are spin-level, not Floquet, solves
        if np.shape(a)[-1] <= 3:
            return fn(a, *args, **kwargs)
        return traced(a, *args, **kwargs)
    return wrapper


def _rebind(module_name, func_name, make):
    """Replace the function in every rotorspin module that binds it."""
    orig = getattr(sys.modules[f"rotorspin.{module_name}"], func_name)
    wrapper = make(f"{module_name}.{func_name}", orig)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "rotorspin" or mod_name.startswith("rotorspin."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    for module_name, names in TRACED.items():
        for func_name in names:
            _rebind(module_name, func_name, _span)
    for module_name, names in COUNTED.items():
        for func_name in names:
            _rebind(module_name, func_name, _counter)
    np.linalg.eigh = _eigh(np.linalg.eigh)
    try:
        code = rotorspin.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": _import_s, "import_modules": _import_modules,
                       "spans": spans, "counts": counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
