"""Check that the traced run's exact counts repeat between two runs.

    python3 perfbench/check_counts.py [--seed N]

Runs the traced benchmark twice with one seed (a traced run covers every
workload) and compares every count named
in tracing.EXACT_COUNTS, and the digests of the generated inputs, for exact
equality.  Exits 1 on any difference.  A count claim in a later change may
rest only on counts this check passes for.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced(seed: int) -> dict:
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "compose", "--seed",
                    str(seed), "--seconds", "1", "--trace", "1"],
                   cwd=ROOT, check=True, capture_output=True, timeout=900)
    path = ROOT / ".perfbench_out" / f"result-compose-seed{seed}-trace1.json"
    return json.loads(path.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    first, second = traced(args.seed), traced(args.seed)
    differ = [name for name in first["exact_counts"]
              if first["metrics"][name][0] != second["metrics"][name][0]]
    if first["inputs_sha256_all"] != second["inputs_sha256_all"]:
        differ.append("inputs_sha256_all")
    for name in first["exact_counts"]:
        mark = "DIFFERS" if name in differ else "same"
        print(f"{name} = {first['metrics'][name][0]!r} / {second['metrics'][name][0]!r}  {mark}")
    print("exact counts repeat" if not differ else f"{len(differ)} counts differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
