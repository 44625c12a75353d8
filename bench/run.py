"""Closed-loop benchmark of the rotorspin command line.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs whole rounds of fresh `python -m rotorspin.cli` calls,
one call at a time, until the calls have taken S seconds. Inputs come
only from the workload and the seed (see workloads.py); each child gets
just its argv, with BLAS and OpenMP pinned to one thread. Every call's CSV is
checked by an oracle that does not use the package (oracles.py), outside
the timed interval.

--trace 0 reports the end-to-end metrics; --trace 1 runs each call once
untraced and once under traced_child.py, and reports the per-layer split
and the tracing overhead. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
from workloads import WORKLOADS, rounds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: pin every BLAS/OpenMP pool of a child to one thread: on two cores a
#: 171x171 eigh takes 5.6 ms on one thread against 8.0 ms on two
THREADS = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

CALL_TIMEOUT_S = 60.0

#: A shared host changes speed by 20-30 % over tens of seconds, for all
#: kinds of work alike. So every timed child runs between two blocks of a
#: reference child that runs no rotorspin code, and its times are scaled
#: to the speed at which the reference takes REFERENCE_S. A block lasts at
#: least REFERENCE_SHARE of the longer timed child next to it, so a long
#: call is scaled by the median of several references.
REFERENCE_CMD = [sys.executable, "-c", "import numpy"]
REFERENCE_S = 0.14
REFERENCE_SHARE = 0.05
IMPORT_CMD = [sys.executable, "-c", "import rotorspin"]
SETUP_EVERY_S = 4.0    # seconds of calls between two set-up samples
SETUP_SAMPLES = 5      # at least

#: counts that must repeat exactly when one call is traced twice
DETERMINISTIC = ("floquet.eigensolves", "floquet.eigensolve_work", "dynamics.steps",
                 "sensing.crossing_scans", "runner.emit_csv_bytes",
                 "import.modules")


@dataclass
class Result:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stderr: str


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(THREADS, PYTHONPATH=str(SRC))
    return env


def execute(cmd: list[str], env: dict, stderr_path: Path) -> Result:
    """Run one child to completion; wall, user+sys CPU and max RSS."""
    with open(stderr_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                cwd=ROOT)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read()[-2000:].decode(errors="replace")
    return Result(wall=wall, cpu=ru.ru_utime + ru.ru_stime, rss_mb=ru.ru_maxrss / 1024.0,
                  code=proc.returncode, stderr=tail)


def environment(args, calls: int) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "calls": calls, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "child_threads": THREADS,
    }


def tail_percentile(values: list[float]):
    """Highest percentile with at least ten calls beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    q = (n - 10) / n
    return {"percentile": round(100 * q, 1), "value": float(np.quantile(values, q)),
            "calls": n}


class Loop:
    """Whole rounds of calls until the time budget is spent."""

    def __init__(self, args, work: Path):
        self.args, self.work, self.env = args, work, child_env()
        self.out = work / "out.csv"
        self.attempted = self.failed = 0
        self.argv_hash = hashlib.sha256()
        self.errors: list[str] = []

    def cli_cmd(self, call) -> list[str]:
        return [sys.executable, "-m", "rotorspin.cli", *call.argv, "--output", str(self.out)]

    def check(self, call, res: Result) -> int | None:
        """Rows of a good call; None (and an error line) for a failed one."""
        problem = None
        if res.code != 0:
            problem = f"exit {res.code}: {res.stderr.strip()[-300:]}"
        else:
            try:
                return oracles.check(call.kind, call.params, str(self.out))
            except (oracles.OracleError, OSError, ValueError) as exc:
                problem = f"oracle: {exc}"
        self.errors.append(f"{' '.join(call.argv)}: {problem}")
        return None

    def run(self, per_call, before_round=None) -> None:
        """Whole rounds until per_call has added `seconds` of call time to
        self.measured; before_round(self.measured) starts each round."""
        self.measured = 0.0
        for number, round_ in enumerate(rounds(self.args.workload, self.args.seed)):
            if number and self.measured >= self.args.seconds:
                break
            if before_round:
                before_round(self.measured)
            for slot, call in enumerate(round_):
                self.argv_hash.update(json.dumps(call.argv).encode())
                self.attempted += 1
                if self.out.exists():
                    self.out.unlink()
                if not per_call(number, slot, call):
                    self.failed += 1


def end_to_end(args, work: Path) -> tuple[Loop, dict, list[str]]:
    loop = Loop(args, work)
    # refs[i] is measured just before timed[i] and refs[i + 1] just after it
    refs: list[float] = []
    timed: list[tuple[Result, int | None, int]] = []  # result, rows, slot (-1: set-up)
    last_call = [0.0]  # wall time of the latest CLI call

    def reference(next_wall: float) -> float:
        """Median wall time of a block of reference children."""
        budget = REFERENCE_SHARE * max(timed[-1][0].wall if timed else 0.0, next_wall)
        walls: list[float] = []
        while not walls or sum(walls) < budget:
            ref = execute(REFERENCE_CMD, loop.env, work / "reference.err")
            if ref.code != 0:
                raise SystemExit(f"reference child failed:\n{ref.stderr}")
            walls.append(ref.wall)
        return statistics.median(walls)

    def run_timed(cmd, slot=-1) -> Result:
        refs.append(reference(last_call[0] if slot >= 0 else 0.0))
        res = execute(cmd, loop.env, work / "call.err")
        timed.append((res, None, slot))
        return res

    def sample_import() -> None:
        if run_timed(IMPORT_CMD).code != 0:
            raise SystemExit(f"import rotorspin failed:\n{timed[-1][0].stderr}")

    setup_due = [0.0]

    def sample_setup(measured: float) -> None:
        if measured >= setup_due[0]:
            setup_due[0] = measured + SETUP_EVERY_S
            sample_import()

    def per_call(_, slot, call) -> bool:
        res = run_timed(loop.cli_cmd(call), slot)
        last_call[0] = res.wall
        loop.measured += res.wall
        rows = loop.check(call, res)
        timed[-1] = (res, rows, slot)
        return rows is not None

    execute(IMPORT_CMD, loop.env, work / "call.err")  # may compile bytecode
    loop.run(per_call, sample_setup)
    while sum(1 for _, _, n in timed if n < 0) < SETUP_SAMPLES:
        sample_import()
    refs.append(reference(0.0))

    scales = [2.0 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]
    calls = [(res, rows, n, k) for (res, rows, n), k in zip(timed, scales) if n >= 0]
    setup = [(res.wall, res.wall * k) for (res, _, n), k in zip(timed, scales) if n < 0]
    walls = [res.wall * k for res, _, _, k in calls]

    def p50(values) -> float:
        # the median of each slot of a round (one kind of call), averaged
        # over the slots: a median over all calls of a round with kinds of
        # different cost would land between two kinds
        by_slot: dict[int, list[float]] = {}
        for (_, _, slot, _), v in zip(calls, values):
            by_slot.setdefault(slot, []).append(v)
        return statistics.fmean(statistics.median(v) for v in by_slot.values())

    metrics = {
        "call_s.p50": (p50(walls), "s"),
        "call_cpu_s.p50": (p50([res.cpu * k for res, _, _, k in calls]), "s"),
        "rows_per_s": (sum(rows or 0 for _, rows, _, _ in calls)
                       / sum(walls), "1/s"),
        "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
        "ok_frac": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
        "peak_rss_mb": (max(res.rss_mb for res, *_ in calls), "MB"),
    }
    raw = {"call_s.p50": p50([res.wall for res, *_ in calls]),
           "setup_s": statistics.median(wall for wall, _ in setup),
           "reference_s.p50": statistics.median(refs)}
    tail = tail_percentile(walls)
    notes = [f"bench-raw {json.dumps(raw)}",
             f"bench-tail {json.dumps(tail)}" if tail else
             f"bench-tail none ({len(walls)} calls < 11)"]
    return loop, metrics, notes


def split(trace: dict, rows: int) -> dict:
    """Per-layer numbers of one traced call. Keys starting with "_" are
    only used to form ratios across calls."""
    spans = trace["spans"]
    covered: dict[int, float] = {}
    for _, start, end, parent, _ in spans:
        covered[parent] = covered.get(parent, 0.0) + (end - start)

    def dur(name):
        return sum(s[2] - s[1] for s in spans if s[0] == name)

    def self_time(name):
        return sum(s[2] - s[1] - covered.get(i, 0.0)
                   for i, s in enumerate(spans) if s[0] == name)

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def infos(name):
        return [s[4] for s in spans if s[0] == name and s[4] is not None]

    def under(i, name):
        while i >= 0 and spans[i][0] != name:
            i = spans[i][3]
        return i >= 0

    sizes = infos("numpy.eigh")
    steps = infos("dynamics.period_propagators")  # 0 for a cache hit
    return {
        "import.s": trace["import_s"],
        "import.modules": trace["import_modules"],
        # parse_config calls parse_mapping: count only the outer span
        "config.parse_s": sum(s[2] - s[1] for s in spans if s[0].startswith("config.")
                              and not (s[3] >= 0 and spans[s[3]][0].startswith("config."))),
        "cli.self_s": self_time("cli.main"),
        "runner.run_s": dur("runner.run"),
        "runner.self_s": self_time("runner.run"),
        "runner.emit_csv_s": dur("runner.emit_csv"),
        "runner.emit_csv_bytes": sum(infos("runner.emit_csv")),
        "floquet.eigensolves": len(sizes),
        "floquet.eigensolve_work": sum(n ** 3 for n in sizes),
        "floquet.eigh_s": dur("numpy.eigh"),
        "floquet.physical_modes_calls": calls("floquet.physical_modes"),
        "floquet.auto_harmonics_calls": calls("floquet.auto_harmonics"),
        "floquet.auto_harmonics_s": dur("floquet.auto_harmonics"),
        "floquet.harmonics_n_max": max(infos("floquet.physical_modes"), default=0),
        "floquet.tracking_self_s": self_time("floquet.quasienergy_spectrum"),
        "floquet.avoided_crossing_calls": calls("floquet.avoided_crossing"),
        "floquet.avoided_crossing_s": dur("floquet.avoided_crossing"),
        "sensing.resonant_field_s": dur("sensing.resonant_field"),
        "sensing.crossing_scans": sum(
            1 for s in spans if s[0] == "floquet.avoided_crossing"
            and under(s[3], "sensing.resonant_field")),
        "dynamics.period_propagators_calls": len(steps),
        "dynamics.period_propagators_s": dur("dynamics.period_propagators"),
        "dynamics.steps": sum(steps),
        "dynamics.evolve_self_s": self_time("dynamics.evolve"),
        "dynamics.rabi_fit_s": dur("dynamics.rabi_fit"),
        "model.h_rotating_calls": trace["counts"].get("model.h_rotating", 0),
        "geomphase.with_field_calls": calls("geomphase.geometric_phases_with_field"),
        "geomphase.with_field_self_s": self_time("geomphase.geometric_phases_with_field"),
        "geomphase.zero_field_s": dur("geomphase.geometric_phases_zero_field"),
        "spin_algebra.hermitian_eigensystem_calls": calls("spin_algebra.hermitian_eigensystem"),
        "spin_algebra.hermitian_eigensystem_s": dur("spin_algebra.hermitian_eigensystem"),
        "_rows": rows,
        "_solves": calls("sensing.resonant_field"),
        "_cache_hits": steps.count(0),
    }


def _unit(name: str) -> str:
    if name.endswith("_s") or name == "import.s":
        return "s"
    return "B" if name.endswith("_bytes") else "count"


def per_layer(args, work: Path) -> tuple[Loop, dict, list[str]]:
    loop = Loop(args, work)
    spans_path = work / "spans.json"
    plain, traced, splits = [], [], []

    def traced_call(call):
        # every checked CSV and span file must come from this very child
        for path in (loop.out, spans_path):
            path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "traced_child.py"), str(spans_path),
               *call.argv, "--output", str(loop.out)]
        res = execute(cmd, loop.env, work / "call.err")
        rows = loop.check(call, res)
        if rows is None:
            return res, None
        with open(spans_path, encoding="utf-8") as fh:
            return res, split(json.load(fh), rows)

    def per_call(number, _, call) -> bool:
        res = execute(loop.cli_cmd(call), loop.env, work / "call.err")
        loop.measured += res.wall
        if loop.check(call, res) is None:
            return False
        plain.append(res.wall)
        res, layers = traced_call(call)
        loop.measured += res.wall
        if layers is None:
            return False
        traced.append(res.wall)
        splits.append(layers)
        if number == 0:  # the first round is traced twice: counts must repeat
            _, again = traced_call(call)
            diff = [k for k in DETERMINISTIC if again is None or again[k] != layers[k]]
            if diff:
                loop.errors.append(f"{' '.join(call.argv)}: counts differ between "
                                   f"two traced runs: {diff}")
                return False
        return True

    loop.run(per_call)
    if not splits:
        return loop, {}, []
    n = len(splits)
    total = {k: sum(s[k] for s in splits) for k in splits[0]}

    def ratio(num, den):
        return (total[num] / total[den] if total[den] else 0.0, "ratio")

    metrics = {k: (v / n, _unit(k)) for k, v in total.items() if not k.startswith("_")}
    metrics.update({
        "floquet.harmonics_n_max": (max(s["floquet.harmonics_n_max"] for s in splits),
                                    "count"),
        "floquet.eigensolves_per_row": ratio("floquet.eigensolves", "_rows"),
        "sensing.crossing_scans_per_solve": ratio("sensing.crossing_scans", "_solves"),
        "dynamics.period_cache_hit_ratio": ratio("_cache_hits",
                                                 "dynamics.period_propagators_calls"),
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(plain) - 1.0,
                                "ratio"),
        "trace.calls": (n, "count"),
    })
    notes = [f"bench-trace untraced call_s.p50={statistics.median(plain):.4f} s, traced "
             f"p50={statistics.median(traced):.4f} s over {n} calls; per-layer numbers "
             "are means per traced call"]
    return loop, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind like Ctrl-C so children and the work directory go
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if not (SRC / "rotorspin" / "__init__.py").is_file():
        print(f"bench: no rotorspin package under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        measure = per_layer if args.trace else end_to_end
        loop, metrics, notes = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    for line in loop.errors:
        print(f"bench-failure {line}", file=sys.stderr)
    print(f"bench-env {json.dumps(environment(args, loop.attempted))}")
    print(f"bench-inputs calls={loop.attempted} argv_sha256={loop.argv_hash.hexdigest()}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0 and bool(metrics),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
