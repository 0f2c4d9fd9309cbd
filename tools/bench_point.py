"""Write one point of the benchmark trajectory: BENCH_<number>.json at the
root of the checkout.

    python3 tools/bench_point.py NUMBER

Runs `perfbench/run.py` on each workload at seed 7 for 12 seconds, tracing
off, one workload after another, and records the commit, the Python version,
the CPU count and, for each workload, its end-to-end metrics and its
attempted and failed operations.  Standard library only.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("grid", "ledger", "modules")
SEED = 7
SECONDS = 12


def run_workload(workload: str) -> dict:
    """The result object that run.py prints as its last line, also when its
    checks failed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if not done.stdout.strip():
        raise SystemExit(f"run.py printed no result for {workload}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def point(commit: str, results: dict) -> dict:
    """The BENCH file's content from each workload's run.py result."""
    return {
        "commit": commit,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": {name: {"correct": r["correct"], "attempted": r["attempted"],
                             "failed": r["failed"], "metrics": r["metrics"]}
                      for name, r in results.items()},
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not args[0].isdigit():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    data = point(commit, {w: run_workload(w) for w in WORKLOADS})
    path = os.path.join(ROOT, f"BENCH_{args[0]}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
