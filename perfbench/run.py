"""lvkernel benchmark: one closed-loop client, one workload per run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {compose,quote,validate,cli} \
        --seed N --seconds S --trace {0,1}

With --trace 0 the named workload replays its seeded op cycle for S seconds,
rounded up to whole cycles, and reports the end-to-end metrics.  With --trace 1 one fixed cycle of every
workload is replayed under tracing and the per-layer metrics are reported;
see perfbench/README.md.  Each run prints one line per metric, then one JSON
object as its last line, and writes the full result (and, when traced, the
spans) under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

# At most nproc threads, BLAS included; must be set before numpy is imported.
THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)


def _import_lvkernel():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "lvkernel" / "__init__.py").is_file():
        sys.exit(f"benchmark: no lvkernel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lvkernel
    if Path(lvkernel.__file__).resolve().parent != (SRC / "lvkernel").resolve():
        sys.exit(f"benchmark: imported lvkernel from {lvkernel.__file__}, not {SRC}")
    return lvkernel


def tail(samples):
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    A long run is cut into up to five consecutive windows of at least 100
    samples; the tail is taken in each window and the median reported, so one
    burst of noise on the machine does not set it.
    """
    windows = max(1, min(5, len(samples) // 100))
    size = len(samples) // windows
    values = []
    for w in range(windows):
        ordered = sorted(samples[w * size:(w + 1) * size])
        values.append(ordered[-11] if size > 10 else ordered[-1])
    return statistics.median(values), 100.0 * max(0, size - 10) / size


def environment() -> dict:
    import numpy
    import scipy
    commit = None
    try:
        # the ceiling keeps git from reporting a repository that encloses the checkout
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "lvkernel").glob("*.py")):
        src_hash.update(path.name.encode())
        src_hash.update(path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = re.search(r"model name\s*:\s*(.*)", fh.read()).group(1)
    except (OSError, AttributeError):
        pass
    return {
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "thread_env": THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def measure_setup(args) -> list:
    """Wall time from spawning a fresh process to its first timed op, repeated.

    The child imports lvkernel, generates the seeded inputs and runs one
    warm-up op, then reports ready; the parent stops the clock on that line.
    """
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            sys.exit("benchmark: set-up probe failed")
        times.append(elapsed)
    return times


def run_untraced(args, lvkernel) -> dict:
    import warnings
    import workloads

    warnings.simplefilter("ignore", lvkernel.GridTooCoarseWarning)
    wl = workloads.make(args.workload, str(SRC))
    ops = wl.cycle(args.seed)
    first = wl.run(ops[0])   # warm-up op; its output is checked like any other
    if args.setup_probe:
        print("ready", flush=True)
        return {}

    times, reasons, distinct = [], [], [first]
    work = 0
    deadline = time.perf_counter() + args.seconds
    i = 0
    # whole cycles only, so every run has the same mix of op kinds
    while i < len(ops) or i % len(ops) or time.perf_counter() < deadline:
        k = i % len(ops)
        op = ops[k]
        start = time.perf_counter()
        try:
            result = wl.run(op)
        except Exception as exc:   # a failed op counts against fail_ratio
            result, reason = None, f"{type(exc).__name__}: {exc}"
        else:
            reason = None
        times.append(time.perf_counter() - start)
        if reason is None:
            work += wl.work(op)
            reason = wl.check(op, result)
        if k == len(distinct):
            distinct.append(result)
        elif reason is None and not workloads.same(result, distinct[k]):
            reason = "result differs from the same op earlier in the run"
        reasons.append(reason)
        i += 1
    peak_rss_mb = getattr(wl, "peak_rss_mb", None) or \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ok = [k for k, result in enumerate(distinct) if result is not None]
    verdicts, max_err = wl.verify([ops[k] for k in ok], [distinct[k] for k in ok])
    for k, verdict in zip(ok, verdicts):
        if verdict is not None:
            # the op's every repetition carries the same output, so all fail
            for j in range(k, len(reasons), len(ops)):
                reasons[j] = reasons[j] or verdict
    failed = sum(r is not None for r in reasons)
    tail_value, tail_pct = tail(times)
    busy = sum(times)
    return {
        "attempted": len(times),
        "failed": failed,
        "failures": sorted({r for r in reasons if r}),
        "cycle_len": len(ops),
        "inputs_sha256": workloads.inputs_digest(ops),
        "tail_percentile": tail_pct,
        "metrics": {
            "setup_s": (statistics.median(args.setup_times), "s"),
            "op_p50_s": (statistics.median(times), "s"),
            "op_tail_s": (tail_value, "s"),
            "work_per_s": (work / busy, "1/s"),
            "max_abs_err": (max_err, "price"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
        "fail_ratio": failed / len(times),
        "work_unit": wl.work_unit,
        "setup_runs_s": args.setup_times,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["compose", "quote", "validate", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    lvkernel = _import_lvkernel()
    if args.setup_probe:
        run_untraced(args, lvkernel)
        return 0
    if args.trace:
        import tracing
        result = tracing.run_traced(args, ROOT, SRC)
    else:
        args.setup_times = measure_setup(args)
        result = run_untraced(args, lvkernel)
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=environment())

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True, default=float)

    env = result["environment"]
    print(f"# lvkernel benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"commit={env['commit']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas_threads={env['blas_threads']} nproc={env['nproc']} "
          f"cpu={env['cpu_model']!r}")
    print(f"# inputs_sha256={result.get('inputs_sha256')} attempted={result['attempted']} "
          f"failed={result['failed']} full result: {out_path.relative_to(ROOT)}")
    for reason in result.get("failures", []):
        print(f"# failure: {reason}")
    for name, (value, unit) in result["metrics"].items():
        note = ""
        if name == "op_tail_s":
            note = (f"  (p{result['tail_percentile']:.2f}, n={result['attempted']}, "
                    "10 beyond in each window)")
        print(f"{name} = {value:.6g} {unit}{note}")
    if "fail_ratio" in result:
        print(f"fail_ratio = {result['fail_ratio']:.6g} failed/attempted")
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
