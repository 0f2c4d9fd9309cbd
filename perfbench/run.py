"""Benchmark of sheetalgebra: load, compose, recalculate and report.

    python3 perfbench/run.py --workload grid|ledger|modules --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
The inputs are generated from the seed and written under perfbench/work/.
One warm-up round is checked against independent references; then whole
rounds run until S seconds have passed, each round's outputs compared with
the checked ones.  The last line of standard output is one JSON object:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics
(the traced run also prints its own end-to-end numbers on the line before
and writes its spans to perfbench/traces/).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_ROUNDS = 3
REFERENCE_SAMPLES = 5  # reference loops timed between two rounds

# span name -> per-layer metric name
SPAN_METRICS = {
    "formula.tokenize": "formula.tokenize_s",
    "fileio.load": "fileio.load_s",
    "fileio.save": "fileio.save_s",
    "fileio.export_csv": "fileio.export_csv_s",
    "model.iterate": "model.iterate_s",
    "algebra.union": "algebra.union_s",
    "algebra.shift": "algebra.shift_s",
    "algebra.replicate": "algebra.replicate_s",
    "algebra.quotient": "algebra.quotient_s",
    "algebra.replace": "algebra.replace_s",
    "algebra.simplify": "algebra.simplify_s",
    "algebra.diff": "algebra.diff_s",
    "algebra.stylecheck_unique": "algebra.stylecheck_s",
    "layout.compile_set": "layout.compile_s",
    "layout.decompile_set": "layout.decompile_s",
    "discover.propose_layout": "discover.propose_layout_s",
    "discover.discover_groups": "discover.groups_s",
    "evaluator.build_deps": "evaluator.build_deps_s",
    "evaluator.evaluate": "evaluator.evaluate_s",
    "evaluator.evaluate_cell": "evaluator.evaluate_cell_s",
    "listing.show": "listing.show_s",
    "listing.show_grouped": "listing.show_grouped_s",
    "listing.parse_listing": "listing.parse_listing_s",
}
# count name -> (per-layer metric, unit)
COUNT_METRICS = {
    "fileio.save_bytes": ("fileio.save_bytes", "B"),
    "evaluator.dep_edges": ("evaluator.dep_edges", "count"),
    "listing.grouped_lines": ("listing.grouped_lines", "count"),
}
# rate metric -> (count name, span name)
RATE_METRICS = {
    "formula.tokens_per_s": ("formula.tokens", "formula.tokenize"),
    "fileio.load_eq_per_s": ("fileio.load_eq", "fileio.load"),
    "evaluator.cells_per_s": ("evaluator.cells", "evaluator.evaluate"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("grid", "ledger", "modules"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import sheetalgebra from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "sheetalgebra", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"run.py: no package at {init}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import sheetalgebra

    if os.path.abspath(sheetalgebra.__file__) != init:
        raise SystemExit(f"run.py: imported {sheetalgebra.__file__}, not {init}")


def measure(rec, workload_cls, seed, seconds, workdir):
    """Warm-up round, then whole rounds until `seconds` have passed.
    Returns the measured rounds and, for each of them, the median reference
    time of the samples taken just before and just after it."""
    from harness import reference_sample

    w = workload_cls(seed, workdir)
    w.run_round(rec)                      # round 0: warm-up, full checks
    measured, refs = [], []
    deadline = time.perf_counter() + seconds
    while len(measured) < MIN_ROUNDS or time.perf_counter() < deadline:
        refs.append([reference_sample() for _ in range(REFERENCE_SAMPLES)])
        rec.round += 1
        w.run_round(rec)
        measured.append(rec.round)
    refs.append([reference_sample() for _ in range(REFERENCE_SAMPLES)])
    speed = [statistics.median(before + after) for before, after in zip(refs, refs[1:])]
    return measured, speed


def scaled(seconds, scale):
    """Median over rounds of each round's seconds times its scale."""
    return statistics.median(t * k for t, k in zip(seconds, scale))


def end_to_end(rec, measured, scale):
    phases = rec.phase_seconds(measured)
    out = {f"{p}_s": {"value": scaled(v, scale), "unit": "s"} for p, v in phases.items()}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
    return out


def per_layer(rec, measured, scale):
    spans = rec.span_seconds(measured)
    counts = rec.count_totals(measured)
    out = {}
    for span, metric in SPAN_METRICS.items():
        if span not in spans:
            raise SystemExit(f"run.py: no span {span} was recorded")
        out[metric] = {"value": scaled(spans[span], scale), "unit": "s"}
    for name, (metric, unit) in COUNT_METRICS.items():
        out[metric] = {"value": statistics.median(counts[name]), "unit": unit}
    for metric, (count, span) in RATE_METRICS.items():
        rates = [n / (t * k) for n, t, k in zip(counts[count], spans[span], scale)]
        out[metric] = {"value": statistics.median(rates), "unit": "1/s"}
    return out


def main(argv=None):
    args = parse_args(argv)
    import_package()
    from harness import REFERENCE_S, CheckFailed, Recorder
    from workloads import WORKLOADS

    work_root = os.path.join(HERE, "work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    traced = bool(args.trace)
    rec = Recorder(traced)
    try:
        measured, speed = measure(rec, WORKLOADS[args.workload], args.seed,
                                  args.seconds, workdir)
        correct = True
    except CheckFailed as exc:
        print(f"run.py: check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not correct:
        print(json.dumps({"correct": False, "attempted": max(rec.attempted, 1),
                          "failed": rec.failed, "metrics": {}}))
        return 1

    scale = [REFERENCE_S / s for s in speed]
    e2e = end_to_end(rec, measured, scale)
    raw = {p: statistics.median(v) for p, v in rec.phase_seconds(measured).items()}
    print(f"run.py: {args.workload} seed {args.seed}: {len(measured)} rounds, "
          f"reference {statistics.median(speed) * 1e3:.2f} ms, unscaled medians "
          + " ".join(f"{p}={v:.4f}s" for p, v in raw.items()), file=sys.stderr)
    result = {"correct": True, "attempted": rec.attempted, "failed": rec.failed}
    if traced:
        layers = per_layer(rec, measured, scale)
        trace_dir = os.path.join(HERE, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "rounds": measured, "reference_s": speed,
                       "end_to_end": e2e, "per_layer": layers,
                       "phases": [{"name": p, "parent": f"round#{r}", "busy_ns": ns}
                                  for (r, p), ns in sorted(rec.phase_ns.items())],
                       "spans": [{"name": n, "start_ns": t0, "end_ns": t1, "parent": p}
                                 for n, t0, t1, p in rec.spans],
                       "counts": [{"round": r, "name": n, "value": v}
                                  for r, n, v in rec.counts]}, fh)
        print("traced end-to-end: " + json.dumps(e2e))
        result["metrics"] = layers
    else:
        result["metrics"] = e2e
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
