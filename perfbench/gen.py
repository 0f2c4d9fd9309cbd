"""Seeded inputs for the three workloads, and the values they must evaluate
to, computed in plain Python without the package.

Every generator returns the `.exc` document texts it writes to disk and an
independent model of what the package should produce from them.  The float
references repeat each formula's operations in the order the formula states
them, so they match the evaluator bit for bit.
"""

from __future__ import annotations

import random

# Sizes were chosen so that each timed phase of one round lasts 0.1-0.6 s on
# a 2-CPU Xeon; README.md records the figures.
GRID_COLS = 50
GRID_ROWS = 100
GRID_SHIFT = (1, 2)

LEDGER_ROWS = 160          # journal rows in the loaded document
LEDGER_APPENDS = 6         # rows typed in one at a time
LEDGER_WINDOW = 12         # rolling-sum width
FIXED_JOURNAL_ROWS = 40    # seed-independent journal used for the shift

MODULE_FIRST_YEAR = 2000
MODULE_YEARS = 24
MODULE_REGIONS = 16
TAX_RATE, NEW_TAX_RATE = 0.3, 0.25
LEGACY_TOP = 60            # label row of the legacy sheet
MODULE_ARRAYS = ("Base", "Sales", "Costs", "Profit", "Tax", "Cum")
TOTAL_ARRAYS = ("TotSales", "TotCosts", "TotProfit", "TotTax")
LEGACY_LABELS = ("Year", "Rent", "Staff", "Overhead")


def letters(col: int) -> str:
    """Column label, 1 -> A, 27 -> AA."""
    out = ""
    while col:
        col, r = divmod(col - 1, 26)
        out = chr(65 + r) + out
    return out


def cell(col: int, row: int) -> str:
    return f"{letters(col)}{row}"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# grid: copy-filled left + above


def grid_inputs(seed: int, rows: int = GRID_ROWS, cols: int = GRID_COLS) -> dict:
    """One document; constants in the first row and column, every other cell
    `left + above` written as the relative formula RC[-1]+R[-1]C."""
    rng = _rng("grid", seed)
    lines = ["# copy-filled grid: each inner cell is left + above"]
    values = {}
    for r in range(1, rows + 1):
        for c in range(1, cols + 1):
            if r == 1 or c == 1:
                k = rng.randrange(97)
                lines.append(f"{cell(c, r)} = {k}")
                values[c, r] = float(k)
            else:
                lines.append(f"{cell(c, r)} = RC[-1]+R[-1]C")
                values[c, r] = values[c - 1, r] + values[c, r - 1]
    dx, dy = GRID_SHIFT
    shifted = {(c + dx, r + dy): v for (c, r), v in values.items()}
    return {"docs": {"grid.exc": "\n".join(lines) + "\n"}, "shifted": shifted}


# ---------------------------------------------------------------------------
# ledger: running balance, running total, rolling window, column totals


def _journal_lines(first: int, last: int, amounts: dict) -> list[str]:
    lines = []
    w = LEDGER_WINDOW
    for r in range(first, last + 1):
        lines.append(f"A{r} = {r - 1}")
        lines.append(f"C{r} = {amounts[r]}")
        lines.append(f"D{r} = SUM(C2:C{r})")
        lines.append(f"E{r} = C{r}" if r == 2 else f"E{r} = E{r - 1}+C{r}")
        if r >= w + 1:
            lines.append(f"F{r} = SUM(C{r - w + 1}:C{r})")
    return lines


def journal_values(amounts: dict) -> dict:
    """Exact values of every journal cell and of the two totals."""
    w = LEDGER_WINDOW
    rows = sorted(amounts)
    values = {}
    running = 0
    for r in rows:
        running += amounts[r]
        values["A", r] = r - 1
        values["C", r] = amounts[r]
        values["D", r] = running
        values["E", r] = running
        if r >= w + 1:
            values["F", r] = sum(amounts[k] for k in range(r - w + 1, r + 1))
    values["G", 1] = running
    values["G", 2] = sum(v for (c, _), v in values.items() if c == "F")
    return values


def _amount(rng: random.Random) -> int:
    # never 0, so every shifted range reads a different sum
    return rng.randint(1, 999) * rng.choice((1, 1, 1, -1))


def _ledger_doc(amounts: dict, title: str) -> str:
    last = max(amounts)
    lines = [f"# {title}", "G1 = SUM(C:C)", "G2 = SUM(F:F)"]
    lines += _journal_lines(2, last, amounts)
    return "\n".join(lines) + "\n"


def fixed_journal() -> dict:
    """A journal that does not depend on the seed: the input of the shift."""
    rng = random.Random("fixed-journal")
    amounts = {r: _amount(rng) for r in range(2, FIXED_JOURNAL_ROWS + 2)}
    return {"text": _ledger_doc(amounts, "fixed journal"),
            "values": journal_values(amounts)}


def ledger_inputs(seed: int, rows: int = LEDGER_ROWS, appends: int = LEDGER_APPENDS) -> dict:
    rng = _rng("ledger", seed)
    amounts = {r: _amount(rng) for r in range(2, rows + 2)}
    typed = {}
    for r in range(rows + 2, rows + 2 + appends):
        typed[r] = _amount(rng)
    # what a user types for each new row, and the grand total after it
    append_texts, totals = [], []
    so_far = dict(amounts)
    for r, amt in typed.items():
        so_far[r] = amt
        append_texts.append("\n".join(_journal_lines(r, r, so_far)))
        totals.append(sum(so_far.values()))
    fixed = fixed_journal()
    return {
        "docs": {"ledger.exc": _ledger_doc(amounts, "journal"),
                 "fixed_journal.exc": fixed["text"]},
        "append_texts": append_texts,
        "append_totals": totals,
        "appended_rows": list(typed),
        "final": journal_values(so_far),
        "fixed": fixed["values"],
    }


# ---------------------------------------------------------------------------
# modules: a yearly sales module replicated across regions


def module_layout(regions: int = MODULE_REGIONS) -> dict:
    """Anchor (col, row) of every array: the six module arrays as year x
    region blocks side by side, then the 1-D consolidation columns."""
    anchors = {}
    col = 2
    for name in MODULE_ARRAYS:
        anchors[name] = (col, 2)
        col += regions + 1
    for name in TOTAL_ARRAYS:
        anchors[name] = (col, 2)
        col += 1
    return anchors


def module_cell(name: str, year: int, region: int | None, anchors: dict) -> tuple:
    col, row = anchors[name]
    row += year - MODULE_FIRST_YEAR
    if region is not None:
        col += region - 1
    return col, row


def module_values(base: dict, overhead: dict, rate: float,
                  regions: int = MODULE_REGIONS) -> dict:
    """The module recurrence per year and region, and the consolidation."""
    out = {}
    years = sorted(base)
    for k in range(1, regions + 1):
        prev_sales = prev_cum = None
        for y in years:
            b = float(base[y])
            if prev_sales is None:
                sales = b * 10.0
            else:
                sales = prev_sales * 0.5 + b * 10.0
            costs = sales * 0.6 + float(overhead[y])
            profit = sales - costs
            tax = profit * rate
            cum = profit - tax if prev_cum is None else prev_cum + profit - tax
            for name, v in zip(MODULE_ARRAYS, (b, sales, costs, profit, tax, cum)):
                out[name, y, k] = v
            prev_sales, prev_cum = sales, cum
    for total, name in zip(TOTAL_ARRAYS, MODULE_ARRAYS[1:5]):
        for y in years:
            acc = out[name, y, 1]
            for k in range(2, regions + 1):
                acc = acc + out[name, y, k]
            out[total, y, None] = acc
    return out


def modules_inputs(seed: int, years: int = MODULE_YEARS,
                   regions: int = MODULE_REGIONS) -> dict:
    rng = _rng("modules", seed)
    y0, y1 = MODULE_FIRST_YEAR, MODULE_FIRST_YEAR + years - 1
    anchors = module_layout(regions)
    base = {y: rng.randint(80, 120) for y in range(y0, y1 + 1)}
    rent = {y: rng.randint(200, 400) for y in range(y0, y1 + 1)}
    staff = {y: rng.randint(300, 600) for y in range(y0, y1 + 1)}

    m = ["# one region of the sales model, by year"]
    for y in range(y0, y1 + 1):
        first = y == y0
        m.append(f"Base[{y}] = {base[y]}")
        m.append(f"Sales[{y}] = Base[HERE]*10" if first
                 else f"Sales[{y}] = Sales[HERE-1]*0.5+Base[HERE]*10")
        m.append(f"Costs[{y}] = Sales[HERE]*0.6+Overhead[HERE]")
        m.append(f"Profit[{y}] = Sales[HERE]-Costs[HERE]")
        m.append(f"Tax[{y}] = Profit[HERE]*{TAX_RATE}")
        m.append(f"Cum[{y}] = Profit[HERE]-Tax[HERE]" if first
                 else f"Cum[{y}] = Cum[HERE-1]+Profit[HERE]-Tax[HERE]")
    for name in MODULE_ARRAYS:
        col, row = anchors[name]
        m.append(f"layout {name}[{y0}:{y1},1:{regions}] as {cell(col, row)}")

    c = ["# consolidation: every region summed per year"]
    for total, name in zip(TOTAL_ARRAYS, MODULE_ARRAYS[1:5]):
        for y in range(y0, y1 + 1):
            terms = "+".join(f"{name}[HERE,{k}]" for k in range(1, regions + 1))
            c.append(f"{total}[{y}] = {terms}")
        col, row = anchors[total]
        c.append(f"layout {total}[{y0}:{y1}] as {cell(col, row)} down")

    top = LEGACY_TOP
    legacy = ["# legacy overhead sheet, labelled by hand"]
    legacy.append(" ".join(f'{cell(i + 1, top)} = "{label}"'
                           for i, label in enumerate(LEGACY_LABELS)))
    for i, y in enumerate(range(y0, y1 + 1)):
        r = top + 1 + i
        legacy.append(f"A{r} = {y}, B{r} = {rent[y]}, C{r} = {staff[y]}, D{r} = B{r}+C{r}")

    overhead = {y: rent[y] + staff[y] for y in rent}
    return {
        "docs": {"module.exc": "\n".join(m) + "\n",
                 "consolidation.exc": "\n".join(c) + "\n",
                 "legacy.exc": "\n".join(legacy) + "\n"},
        "anchors": anchors,
        "years": (y0, y1),
        "regions": regions,
        "legacy": {"top": top, "rent": rent, "staff": staff},
        "before": module_values(base, overhead, TAX_RATE, regions),
        "after": module_values(base, overhead, NEW_TAX_RATE, regions),
    }
