"""Run the benchmark over workloads and seeds and summarise the results.

Usage (from the repository root):

    python3 bench/report.py [--seeds 1,2,3] [--save NAME]

For each workload of BENCHMARK.json it runs `bench/run.py --trace 0` once
per seed and `--trace 1` once on the first seed, each for run_seconds.
It then prints every end-to-end metric by name and unit: the median over
seeds and the spread, the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to a third of
the bound in BENCHMARK.json; WIDE marks a spread at or above it. The
per-layer split of the traced run follows. --save writes every run's output lines
to bench/results/NAME.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    info = {}
    for line in lines[:-1]:
        if line.startswith("bench-"):
            key, _, value = line.partition(" ")
            info[key] = value
    for line in proc.stderr.splitlines():
        print(f"  {workload} seed {seed}: {line}")
    return {"seed": seed, "trace": trace, "lines": info, "result": json.loads(lines[-1])}


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--save")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        plain = [run_once(workload, seed, seconds, 0) for seed in seeds]
        runs += [{"workload": workload, **r} for r in plain]
        print(f"\n{workload}: {len(seeds)} runs of {seconds} s, calls per run "
              f"{[r['result']['attempted'] for r in plain]}, failed "
              f"{sum(r['result']['failed'] for r in plain)}")
        print(f"  {'metric':<18}{'unit':<7}{'median':>12}{'spread':>9}{'bound/3':>9}")
        for name in plain[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in plain]
            unit = plain[0]["result"]["metrics"][name]["unit"]
            s = spread(values)
            flag = "" if s < bounds[name] / 3 else "  WIDE"
            print(f"  {name:<18}{unit:<7}{statistics.median(values):>12.5g}{s:>9.3f}"
                  f"{bounds[name] / 3:>9.3f}{flag}")
        traced = run_once(workload, seeds[0], seconds, 1)
        runs.append({"workload": workload, **traced})
        print(f"  traced split, seed {seeds[0]}: {traced['lines'].get('bench-trace', '')}")
        for name, m in traced["result"]["metrics"].items():
            print(f"    {name:<42}{m['value']:>14.6g} {m['unit']}")

    if args.save:
        out = BENCH / "results" / f"{args.save}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"seeds": seeds, "seconds": seconds, "runs": runs},
                                  indent=1) + "\n")
        print(f"\nwrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
