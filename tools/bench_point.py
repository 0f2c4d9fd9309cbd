"""Write one point of the benchmark trajectory: BENCH_<number>.json at the
root of the checkout.

    python3 tools/bench_point.py NUMBER

Runs `perfbench/run.py` on each workload at seed 7 for 12 seconds, tracing
off, one workload after another, and records the commit, whether the working
tree held uncommitted changes, the Python version, the CPU count and, for
each workload, its end-to-end metrics, its attempted and failed operations
and the median reference-loop time that run.py printed.  Standard library
only.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("grid", "ledger", "modules")
SEED = 7
SECONDS = 12


def run_workload(workload: str) -> dict:
    """The result object that run.py prints as its last line, also when its
    checks failed, with "reference_ms", the reference figure it prints on
    stderr (None when it printed none)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if not done.stdout.strip():
        raise SystemExit(f"run.py printed no result for {workload}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    reference = re.search(r"reference (\d+(?:\.\d+)?) ms", done.stderr)
    result["reference_ms"] = float(reference[1]) if reference else None
    return result


def point(commit: str, dirty: bool, results: dict) -> dict:
    """The BENCH file's content from each workload's run.py result."""
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": {name: {"correct": r["correct"], "attempted": r["attempted"],
                             "failed": r["failed"], "metrics": r["metrics"],
                             "reference_ms": r["reference_ms"]}
                      for name, r in results.items()},
    }


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not args[0].isdigit():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    # read before the BENCH file is written, which would make the tree dirty
    commit, dirty = git("rev-parse", "HEAD"), git("status", "--porcelain") != ""
    data = point(commit, dirty, {w: run_workload(w) for w in WORKLOADS})
    path = os.path.join(ROOT, f"BENCH_{args[0]}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
