"""Run the benchmark over several seeds and report each metric's spread.

One command for every workload: each run's end-to-end metrics are printed
with their units, plus fail_ratio.

    python3 perfbench/spread.py --workloads compose quote --seeds 1 2 3 4 5 \
        [--seconds 20] [--out FILE]

For each workload and end-to-end metric this prints the median over the seeds
and the spread: the distance between the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) divided by the median.
BENCHMARK.json bounds each metric's spread.  --out writes all values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, seconds)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed} ({result['wall_s']:.0f} s): " + ", ".join(
                f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
                + f", fail_ratio={result['failed'] / result['attempted']:.4g}", flush=True)
        report[workload] = {"runs": runs, "summary": {}}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            bound = bounds.get(name)
            report[workload]["summary"][name] = {
                "median": statistics.median(values), "spread": s, "bound": bound,
                "unit": runs[0]["metrics"][name]["unit"]}
            flag = "" if bound is None or s < bound / 3 else "  <-- above a third of its bound"
            print(f"  {workload:9s} {name:12s} median={statistics.median(values):.6g} "
                  f"spread={s:.4f} bound={bound}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
