"""Tests of the benchmark itself:  python3 -m pytest perfbench

Each workload's checks pass at a small size and fail on a deliberately
wrong value; every metric the command prints is declared in BENCHMARK.json.
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

import sheetalgebra as sa

import gen
from harness import CheckFailed, Recorder
from workloads import WORKLOADS, at, read_csv

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SMALL = {
    "grid": {"rows": 6, "cols": 5},
    "ledger": {"rows": 20, "appends": 2},
    "modules": {"years": 4, "regions": 3},
}


def small(name, tmp_path, seed=7):
    return WORKLOADS[name](seed, str(tmp_path), **SMALL[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_checks_pass_at_small_size(name, traced, tmp_path):
    w = small(name, tmp_path)
    rec = Recorder(traced)
    for _ in range(2):
        w.run_round(rec)
        rec.round += 1
    # only the ledger's shift of the fixed journal fails, once per round
    assert rec.failed == (2 if name == "ledger" else 0)


def _replace_file(path, old, new):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    copy = os.path.join(os.path.dirname(path), "wrong_" + os.path.basename(path))
    with open(copy, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new, 1))
    return copy


def _bump_csv(path):
    """A copy of the CSV with its first number off by one."""
    rows = read_csv(path)
    i, j = next((i, j) for i, row in enumerate(rows) for j, t in enumerate(row) if t)
    rows[i][j] = str(float(rows[i][j]) + 1)
    copy = os.path.join(os.path.dirname(path), "wrong_" + os.path.basename(path))
    with open(copy, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return copy


def _bump(grid):
    """The same grid with its first cell's value off by one."""
    key = next(iter(grid))
    return {**grid, key: grid[key] + 1.0}


def _drop_first(s):
    return sa.EquationSet(list(s)[1:], s.names, s.layouts)


def _array_ref_in_last_cell(cells):
    """A cell formula left as an array reference, which compile_set would
    turn into a cell reference."""
    eqs = list(cells)
    eqs[-1] = sa.Equation(eqs[-1].lhs, sa.ElemRef("Base", (gen.MODULE_FIRST_YEAR, 1)))
    return sa.EquationSet(eqs, cells.names, cells.layouts)


def _fewer(report, field):
    return sa.DiffReport(**{**report.__dict__, field: getattr(report, field)[:-1]})


MUTATIONS = {
    "grid": {
        "value": lambda o: {**o, "grid": _bump(o["grid"])},
        "extra cell": lambda o: {**o, "grid": {**o["grid"], at(200, 200): 1.0}},
        "plain listing": lambda o: {**o, "plain": o["plain"].rsplit("\n", 1)[0]},
        "grouped listing": lambda o: {**o, "grouped": o["grouped"].replace("HERE - 1", "HERE - 2", 1)},
        "saved file": lambda o: {**o, "saved_file": _replace_file(o["saved_file"], "R[-1]C", "R[-2]C")},
        "csv": lambda o: {**o, "csv_file": _bump_csv(o["csv_file"])},
    },
    "ledger": {
        "total": lambda o: {**o, "totals": [t + 1.0 for t in o["totals"]]},
        "value": lambda o: {**o, "grid": _bump(o["grid"])},
        "diff added": lambda o: {**o, "diff": _fewer(o["diff"], "added")},
        "stylecheck": lambda o: {**o, "style": []},
        "csv": lambda o: {**o, "csv_file": _bump_csv(o["csv_file"])},
    },
    "modules": {
        "value": lambda o: {**o, "grid": _bump(o["grid"])},
        "value after replace": lambda o: {**o, "grid2": _bump(o["grid2"])},
        "names": lambda o: {**o, "names": {**o["names"], "Rent": at(1, 1)}},
        "groups": lambda o: {**o, "groups": o["groups"][:0]},
        "compiled cells": lambda o: {**o, "cells": _array_ref_in_last_cell(o["cells"])},
        "quotient": lambda o: {**o, "q": _drop_first(o["q"])},
        "module": lambda o: {**o, "_m": _drop_first(o["_m"])},
        "diff changed": lambda o: {**o, "diff": _fewer(o["diff"], "changed")},
        "stylecheck": lambda o: {**o, "style": []},
        "listing": lambda o: {**o, "listing": o["listing"].replace("*0.25", "*0.5", 1)},
    },
}


@pytest.mark.parametrize("name,mutation", [(n, m) for n in MUTATIONS for m in MUTATIONS[n]])
def test_each_check_fails_on_a_wrong_value(name, mutation, tmp_path):
    w = small(name, tmp_path)
    out = w.round(Recorder(False))
    w.check_first(out)
    with pytest.raises(CheckFailed):
        w.check_first(MUTATIONS[name][mutation](out))


def test_later_round_must_equal_the_checked_one(tmp_path):
    w = small("grid", tmp_path)
    rec = Recorder(False)
    w.run_round(rec)
    w.first["grid"] = _bump(w.first["grid"])
    with pytest.raises(CheckFailed):
        w.run_round(rec)


def test_shift_check_accepts_moved_values_and_rejects_the_package_shift(tmp_path):
    w = small("ledger", tmp_path)
    right = {at(ord(c) - 64, r + 1): float(v) for (c, r), v in w.inputs["fixed"].items()}
    w.check_shift(right)
    fixed = sa.load(w.paths["fixed_journal.exc"])
    with pytest.raises(CheckFailed):
        w.check_shift(sa.evaluate(sa.shift(fixed, 0, 1)))


def test_fixed_journal_does_not_depend_on_the_seed(tmp_path):
    a = gen.ledger_inputs(1, rows=20, appends=1)
    b = gen.ledger_inputs(2, rows=20, appends=1)
    assert a["docs"]["fixed_journal.exc"] == b["docs"]["fixed_journal.exc"]
    assert a["docs"]["ledger.exc"] != b["docs"]["ledger.exc"]


def _checkout(tmp_path, with_src=True):
    """A copy holding what the benchmark is run from."""
    root = tmp_path / "checkout"
    root.mkdir()
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    shutil.copytree(HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("work", "traces", "__pycache__"))
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), root / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _run(root, *args):
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    return subprocess.run([sys.executable if c == "python3" else c for c in command]
                          + list(args), cwd=root, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_printed_metric_is_declared(name, tmp_path):
    root = _checkout(tmp_path)
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert name in {w["name"] for w in spec["workloads"]}
    proc = _run(root, "--workload", name, "--seed", "3", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    traced_e2e = json.loads(lines[-2].split(": ", 1)[1])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    for section, printed in (("end_to_end", traced_e2e), ("per_layer", result["metrics"])):
        declared = {m["name"]: m for m in spec[section]}
        assert set(printed) == set(declared), section
        for metric, value in printed.items():
            assert value["unit"] == declared[metric]["unit"], metric
            assert declared[metric]["better"] in ("lower", "higher"), metric
            if section == "end_to_end":
                assert value["value"] > 0, metric
    assert (root / "perfbench" / "traces" / f"{name}-seed3.json").is_file()
    assert not any((root / "perfbench" / "work").iterdir())


def test_fails_without_the_package(tmp_path):
    root = _checkout(tmp_path, with_src=False)
    proc = _run(root, "--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
