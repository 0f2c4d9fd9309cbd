"""The three workloads.  Each round loads the documents (setup), composes
the sheet (edit), recalculates (recalc) and reports (report), timing only
the calls into the package.  The first round's outputs are checked against
the independent references made by `gen`; every later round's outputs must
equal the first round's.

Needs `sheetalgebra` importable; run.py puts the checkout's `src/` first on
the path.
"""

from __future__ import annotations

import csv
import os

import sheetalgebra as sa

import gen
from harness import CheckFailed, check

SHEET = "Sheet1"


def at(col: int, row: int):
    return sa.CellAddr(SHEET, col, row)


def col_of(letter: str) -> int:
    return ord(letter) - 64


def read_csv(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_csv(path: str, expected: dict, what: str) -> None:
    """The CSV holds the bounding box of `expected` ((col, row) -> float),
    blank where nothing is defined."""
    rows = read_csv(path)
    cols = [c for c, _ in expected]
    rws = [r for _, r in expected]
    c0, r0 = min(cols), min(rws)
    check(len(rows) == max(rws) - r0 + 1, f"{what}: CSV row count")
    for i, line in enumerate(rows):
        check(len(line) == max(cols) - c0 + 1, f"{what}: CSV width of row {i}")
        for j, text in enumerate(line):
            want = expected.get((c0 + j, r0 + i))
            if want is None:
                check(text == "", f"{what}: CSV cell {c0 + j},{r0 + i} should be blank")
            else:
                check(text != "" and float(text) == want,
                      f"{what}: CSV cell {c0 + j},{r0 + i} = {text!r}, want {want!r}")


def check_grid(grid: dict, expected: dict, what: str) -> None:
    """Every expected cell ((col, row) -> number) has exactly that value and
    no other cell was evaluated."""
    check(len(grid) == len(expected),
          f"{what}: {len(grid)} cells evaluated, want {len(expected)}")
    for (c, r), want in expected.items():
        got = grid.get(at(c, r))
        check(isinstance(got, float) and got == want,
              f"{what}: {at(c, r)} = {got!r}, want {want!r}")


def file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Workload:
    """Writes the generated documents into `workdir` once; `round` runs one
    timed round and returns the outputs that `check_first` verifies."""

    name = ""

    def __init__(self, seed: int, workdir: str, **sizes):
        self.workdir = workdir
        self.inputs = self.generate(seed, **sizes)
        self.paths = {}
        for fname, text in self.inputs["docs"].items():
            path = os.path.join(workdir, fname)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.paths[fname] = path
        self.first = None

    def generate(self, seed: int, **sizes) -> dict:
        raise NotImplementedError

    def out(self, fname: str) -> str:
        return os.path.join(self.workdir, fname)

    def run_round(self, rec) -> None:
        outputs = self.round(rec)
        if self.first is None:
            self.check_first(outputs)
            self.first = self.comparable(outputs)
        else:
            check(self.comparable(outputs) == self.first,
                  f"{self.name}: round {rec.round} differs from the checked first round")
        if rec.traced:
            self.apart(rec, outputs)

    def comparable(self, outputs: dict) -> dict:
        """Outputs reduced to values that compare by ==; written files by
        their bytes."""
        return {k: (file_bytes(v) if k.endswith("_file") else v)
                for k, v in outputs.items() if not k.startswith("_")}

    def apart(self, rec, outputs: dict) -> None:
        """Traced runs only: calls that the package makes inside another
        call, made here on the same inputs outside the phases, and every
        per-layer function this workload's path does not call, run on the
        workload's evaluated sheet."""
        for fname, path in self.paths.items():
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            toks = rec.call("apart", "formula.tokenize", sa.formula.tokenize, text)
            rec.count("formula.tokens", len(toks))
        for s in outputs["_evaluated"]:
            deps = rec.call("apart", "evaluator.build_deps", sa.build_deps, s)
            rec.count("evaluator.dep_edges", sum(len(v) for v in deps.values()))
        largest = max(outputs["_sets"], key=len)
        rec.call("apart", "model.iterate", list, largest)
        on_path = {name for name, _, _, parent in rec.spans
                   if not parent.startswith("apart") and parent.endswith(f"#{rec.round}")}
        probe(rec, outputs["_evaluated"][-1], outputs["_grid"], self.workdir, on_path)


def probe(rec, cells, grid, workdir, on_path) -> None:
    """Time once each per-layer function missing from `on_path`, on `cells`,
    a cell sheet the workload evaluated, and `grid`, its values."""

    def run(name, fn, *args, **kwargs):
        if name in on_path:
            return fn(*args, **kwargs)
        return rec.call("apart", name, fn, *args, **kwargs)

    calls = [
        ("algebra.union", sa.union, cells, cells),
        ("algebra.shift", sa.shift, cells, 0, 1),
        ("algebra.replace", sa.replace, cells, sa.Number(1.0), sa.Number(1.0)),
        ("algebra.simplify", sa.simplify, cells),
        ("algebra.diff", sa.diff, cells, cells),
        ("algebra.stylecheck_unique", sa.stylecheck_unique, cells),
        ("discover.discover_groups", sa.discover_groups, cells),
        ("evaluator.evaluate_cell", sa.evaluate_cell, cells, next(iter(cells)).lhs),
        ("listing.show", sa.show, cells),
        ("fileio.export_csv", sa.export_csv, grid, os.path.join(workdir, "probe.csv")),
    ]
    for name, fn, *args in calls:
        if name not in on_path:
            rec.call("apart", name, fn, *args)
    if "listing.show_grouped" not in on_path:
        text = rec.call("apart", "listing.show_grouped", sa.show, cells, grouped=True)
        rec.count("listing.grouped_lines", len(text.splitlines()))
    if "listing.parse_listing" not in on_path:
        rec.call("apart", "listing.parse_listing", sa.parse_listing,
                 sa.show(cells, grouped=True))
    if "fileio.save" not in on_path:
        path = os.path.join(workdir, "probe.exc")
        rec.call("apart", "fileio.save", sa.save, cells, path)
        rec.count("fileio.save_bytes", os.path.getsize(path))
    chain = {"discover.propose_layout", "layout.decompile_set", "layout.compile_set",
             "algebra.replicate", "algebra.quotient"}
    if chain - on_path:
        proposal = run("discover.propose_layout", sa.propose_layout, cells)
        fp = sa.CellRange(tuple(d.footprint() for d in proposal.directives))
        arrays = run("layout.decompile_set", sa.decompile_set,
                     sa.extract(cells, fp), proposal.directives)
        run("layout.compile_set", sa.compile_set, arrays)
        run("algebra.quotient", sa.quotient,
            run("algebra.replicate", sa.replicate, arrays, 1, 2), 1, 2)


# ---------------------------------------------------------------------------


class Grid(Workload):
    """One large copy-filled document: load, shift, evaluate, show plain and
    grouped, save, export CSV."""

    name = "grid"

    def generate(self, seed, **sizes):
        return gen.grid_inputs(seed, **sizes)

    def round(self, rec):
        s = rec.call("setup", "fileio.load", sa.load, self.paths["grid.exc"])
        rec.count("fileio.load_eq", len(s))
        moved = rec.call("edit", "algebra.shift", sa.shift, s, *gen.GRID_SHIFT)
        grid = rec.call("recalc", "evaluator.evaluate", sa.evaluate, moved)
        rec.count("evaluator.cells", len(grid))
        plain = rec.call("report", "listing.show", sa.show, moved)
        grouped = rec.call("report", "listing.show_grouped", sa.show, moved, grouped=True)
        rec.count("listing.grouped_lines", len(grouped.splitlines()))
        saved, table = self.out("grid_saved.exc"), self.out("grid.csv")
        rec.call("report", "fileio.save", sa.save, moved, saved)
        rec.count("fileio.save_bytes", os.path.getsize(saved))
        rec.call("report", "fileio.export_csv", sa.export_csv, grid, table)
        return {"grid": grid, "plain": plain, "grouped": grouped,
                "saved_file": saved, "csv_file": table,
                "_moved": moved, "_sets": [s, moved], "_evaluated": [moved],
                "_grid": grid}

    def check_first(self, out):
        want = self.inputs["shifted"]
        check_grid(out["grid"], want, "grid values")
        moved = out["_moved"]
        check(len(out["plain"].splitlines()) == len(moved), "grid: one plain line per cell")
        check(sa.parse_listing(out["grouped"]) == moved,
              "grid: grouped listing does not re-expand to the sheet")
        check(sa.load(out["saved_file"]) == moved, "grid: saved file does not load back")
        check_csv(out["csv_file"], want, "grid")


class Ledger(Workload):
    """A journal with range formulas; rows typed in one union at a time,
    each followed by evaluate_cell of the grand total; a shift of a fixed
    journal by one row; diff, stylecheck and CSV of the result."""

    name = "ledger"

    def generate(self, seed, **sizes):
        return gen.ledger_inputs(seed, **sizes)

    def round(self, rec):
        journal = rec.call("setup", "fileio.load", sa.load, self.paths["ledger.exc"])
        fixed = rec.call("setup", "fileio.load", sa.load, self.paths["fixed_journal.exc"])
        rec.count("fileio.load_eq", len(journal) + len(fixed))
        s = journal
        totals = []
        for text in self.inputs["append_texts"]:
            row = rec.call("edit", "fileio.parse_document", sa.parse_document, text)
            s = rec.call("edit", "algebra.union", sa.union, s, row)
            totals.append(rec.call("recalc", "evaluator.evaluate_cell",
                                   sa.evaluate_cell, s, at(7, 1)))
        moved = rec.call("edit", "algebra.shift", sa.shift, fixed, 0, 1)
        moved_grid = rec.call("recalc", "evaluator.evaluate", sa.evaluate, moved)
        grid = rec.call("recalc", "evaluator.evaluate", sa.evaluate, s)
        rec.count("evaluator.cells", len(moved_grid) + len(grid))
        report = rec.call("report", "algebra.diff", sa.diff, journal, s)
        style = rec.call("report", "algebra.stylecheck_unique", sa.stylecheck_unique, s)
        table = self.out("ledger.csv")
        rec.call("report", "fileio.export_csv", sa.export_csv, grid, table)
        try:
            self.check_shift(moved_grid)
        except CheckFailed:
            rec.failed += 1
        return {"totals": totals, "grid": grid, "diff": report, "style": style,
                "csv_file": table, "_sets": [journal, s, moved],
                "_evaluated": [moved, s], "_grid": grid}

    def check_shift(self, moved_grid):
        """The fixed journal shifted down one row keeps every value."""
        want = {(col_of(c), r + 1): float(v) for (c, r), v in self.inputs["fixed"].items()}
        check_grid(moved_grid, want, "ledger: shifted journal")

    def check_first(self, out):
        inp = self.inputs
        for i, (got, want) in enumerate(zip(out["totals"], inp["append_totals"])):
            check(got == float(want), f"ledger: total after append {i} = {got!r}, want {want}")
        want = {(col_of(c), r): float(v) for (c, r), v in inp["final"].items()}
        check_grid(out["grid"], want, "ledger values")
        appended = {at(col_of(c), r) for (c, r) in inp["final"] if r in inp["appended_rows"]}
        d = out["diff"]
        check(set(d.added) == appended and len(d.added) == len(appended),
              "ledger: diff added is not exactly the appended cells")
        check(not d.removed and not d.changed, "ledger: diff reports removed or changed cells")
        balance = {at(5, r) for (c, r) in inp["final"] if c == "E" and r >= 3}
        check(any(set(v.cells) == balance for v in out["style"]),
              "ledger: the copied balance formula is not reported as one group")
        check_csv(out["csv_file"], want, "ledger")


class Modules(Workload):
    """The paper's path: a module replicated across regions, a consolidation
    joined by union, a legacy sheet brought in by discovery, compiled,
    evaluated, mapped back, the tax rate replaced in every copy."""

    name = "modules"

    def generate(self, seed, **sizes):
        return gen.modules_inputs(seed, **sizes)

    def round(self, rec):
        inp = self.inputs
        regions = inp["regions"]
        m = rec.call("setup", "fileio.load", sa.load, self.paths["module.exc"])
        cons = rec.call("setup", "fileio.load", sa.load, self.paths["consolidation.exc"])
        legacy = rec.call("setup", "fileio.load", sa.load, self.paths["legacy.exc"])
        rec.count("fileio.load_eq", len(m) + len(cons) + len(legacy))

        rep = rec.call("edit", "algebra.replicate", sa.replicate, m, 1, regions)
        full = rec.call("edit", "algebra.union", sa.union, rep, cons)
        proposal = rec.call("edit", "discover.propose_layout", sa.propose_layout, legacy)
        data = sa.CellRange(tuple(d.footprint() for d in proposal.directives))
        block = rec.call("edit", "algebra.extract", sa.extract, legacy, data)
        arrays = rec.call("edit", "layout.decompile_set", sa.decompile_set,
                          block, proposal.directives)
        groups = rec.call("edit", "discover.discover_groups", sa.discover_groups, legacy)
        full = rec.call("edit", "algebra.union", sa.union, full, arrays)
        cells = rec.call("edit", "layout.compile_set", sa.compile_set, full)
        grid = rec.call("recalc", "evaluator.evaluate", sa.evaluate, cells)

        module_layouts = sa.LayoutSet(m.layouts)
        module_area = sa.CellRange(tuple(d.footprint() for d in module_layouts))
        module_cells = rec.call("edit", "algebra.extract", sa.extract, cells, module_area)
        back = rec.call("edit", "layout.decompile_set", sa.decompile_set,
                        module_cells, module_layouts)
        q = rec.call("edit", "algebra.quotient", sa.quotient, back, 1, regions)

        changed = rec.call("edit", "algebra.replace", sa.replace, cells,
                           sa.Number(gen.TAX_RATE), sa.Number(gen.NEW_TAX_RATE))
        changed = rec.call("edit", "algebra.simplify", sa.simplify, changed)
        grid2 = rec.call("recalc", "evaluator.evaluate", sa.evaluate, changed)
        rec.count("evaluator.cells", len(grid) + len(grid2))

        style = rec.call("report", "algebra.stylecheck_unique", sa.stylecheck_unique, changed)
        d = rec.call("report", "algebra.diff", sa.diff, cells, changed, "relative")
        listing = rec.call("report", "listing.show_grouped", sa.show, changed, grouped=True)
        rec.count("listing.grouped_lines", len(listing.splitlines()))
        return {"names": {n: proposal.name_evidence[n][1] for n in proposal.name_evidence},
                "groups": groups, "cells": cells, "grid": grid, "q": q,
                "changed": changed, "grid2": grid2, "style": style, "diff": d,
                "listing": listing,
                "_m": m, "_full": full, "_module_cells": module_cells,
                "_module_layouts": module_layouts,
                "_sets": [m, rep, full, cells, changed],
                "_evaluated": [cells, changed], "_grid": grid2}

    def expected_values(self, model: dict) -> dict:
        inp = self.inputs
        anchors = inp["anchors"]
        out = {}
        for (name, y, k), v in model.items():
            out[gen.module_cell(name, y, k, anchors)] = v
        leg = inp["legacy"]
        y0, y1 = inp["years"]
        for i, y in enumerate(range(y0, y1 + 1)):
            r = leg["top"] + 1 + i
            out[1, r] = float(y)
            out[2, r] = float(leg["rent"][y])
            out[3, r] = float(leg["staff"][y])
            out[4, r] = float(leg["rent"][y] + leg["staff"][y])
        return out

    def check_first(self, out):
        inp = self.inputs
        regions = inp["regions"]
        m = out["_m"]
        check(sa.quotient(sa.replicate(m, 1, regions), 1, regions) == m,
              "modules: quotient(replicate(m)) != m")
        top = inp["legacy"]["top"]
        labels = {name: at(i + 1, top) for i, name in enumerate(gen.LEGACY_LABELS)}
        check(out["names"] == labels, f"modules: proposed names {out['names']} are not the labels")
        y0, y1 = inp["years"]
        overhead = tuple(at(4, top + 1 + i) for i in range(y1 - y0 + 1))
        check(len(out["groups"]) == 1 and out["groups"][0].cells == overhead,
              "modules: the legacy Overhead column is not one formula group")
        cells = out["cells"]
        check_grid(out["grid"], self.expected_values(inp["before"]), "modules values")
        check(sa.compile_set(sa.decompile_set(cells, sa.LayoutSet(out["_full"].layouts)))
              == cells, "modules: compile_set(decompile_set(cells)) != cells")
        q = out["q"]
        check(q.lhs_set() == m.lhs_set(), "modules: quotient does not give back the module's arrays")
        check(sa.compile_set(sa.replicate(q, 1, regions), out["_module_layouts"])
              == out["_module_cells"], "modules: replicate of the quotient does not compile back")
        check_grid(out["grid2"], self.expected_values(inp["after"]), "modules values after replace")
        tax = {at(*gen.module_cell("Tax", y, k, inp["anchors"]))
               for y in range(y0, y1 + 1) for k in range(1, regions + 1)}
        d = out["diff"]
        check({lhs for lhs, _, _ in d.changed} == tax and len(d.changed) == len(tax),
              "modules: diff(relative) does not list exactly the Tax cells")
        check(not d.added and not d.removed, "modules: diff reports added or removed cells")
        check(any(set(v.cells) == tax for v in out["style"]),
              "modules: the copied Tax formula is not reported as one group")
        check(sa.diff(sa.parse_listing(out["listing"]), out["changed"], "relative").empty,
              "modules: grouped listing does not re-expand to the sheet")


WORKLOADS = {w.name: w for w in (Grid, Ledger, Modules)}
