"""A simple spreadsheet engine: dependency analysis, cycle detection, and
numeric evaluation of cell equation sets.

Values are plain Python objects: float, str, bool, None (empty), or
CellError.  Errors propagate through arithmetic; a result past the float
range is CellError("NUM"); cells on a dependency cycle evaluate to
CellError("CYCLE") while off-cycle cells still evaluate.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import DomainError, SubstitutionError
from .formula import at_offset, name_node
from .model import (
    MAX_COL,
    MAX_ROW,
    AbsRef,
    Binary,
    Bool,
    Call,
    CellAddr,
    ElemRef,
    Empty,
    EquationSet,
    Formula,
    Here,
    NameRef,
    Neg,
    Number,
    RangeArg,
    RelRef,
    Text,
    children,
)

DIV0, CYCLE, VALUE, REF, NUM = "DIV0", "CYCLE", "VALUE", "REF", "NUM"


@dataclass(frozen=True)
class CellError:
    tag: str

    def __str__(self):
        return f"#{self.tag}!"


class _Graph:
    """A sheet as an evaluation graph on its cells, built once per call.  A
    formula is evaluated where it stands: a relative reference is read at
    its offset from the cell and a defined name as its range, so no tree is
    rebuilt.  Each distinct range is read once as its defined cells, and
    each cell's precedents are listed once, both on first use, so a walk
    from one cell touches only the cells it depends on."""

    def __init__(self, s: EquationSet):
        self.formulas, self.ranges, self.deps = {}, {}, {}
        self.names = {name: name_node(rng) for name, rng in s.names.items()}
        # sheet -> (sorted rows, row -> its cells sorted); the canonical order
        # of s is by sheet, row and column, so appending keeps both sorted
        self.index = {}
        for eq in s:
            a = eq.lhs
            if not isinstance(a, CellAddr):
                raise DomainError("evaluation expects cell left-hand sides")
            self.formulas[a] = eq.rhs
            rows, by_row = self.index.setdefault(a.sheet, ([], {}))
            if a.row not in by_row:
                rows.append(a.row)
                by_row[a.row] = []
            by_row[a.row].append(a)

    def range_cells(self, rng, k) -> list:
        """The defined cells of a range read at cell k, rectangle by
        rectangle and row-major within each, each cell once."""
        bounds = tuple([_bounds(rect, k) for rect in rng.rects])
        cells = self.ranges.get(bounds)
        if cells is None:
            cells = []
            for sheet, col_lo, col_hi, row_lo, row_hi in bounds:
                rows, by_row = self.index.get(sheet, ((), {}))
                for r in rows[bisect_left(rows, row_lo or 1):bisect_right(rows, row_hi or MAX_ROW)]:
                    line = by_row[r]
                    cells.extend(line[bisect_left(line, (sheet, col_lo or 1, r)):
                                      bisect_right(line, (sheet, col_hi or MAX_COL, r))])
            cells = self.ranges[bounds] = list(dict.fromkeys(cells))
        return cells

    def precedents(self, k) -> list:
        """Every cell k's formula references, and the defined cells of its
        ranges.  Raises as resolving the formula at k would: on a HERE
        marker, then on an offset off the grid, then on a range that is not
        a call's argument."""
        refs = self.deps.get(k)
        if refs is None:
            refs = self.deps[k] = []
            nodes, loose = _refs(self.formulas[k], self.names)
            for node in nodes:
                if isinstance(node, RelRef):
                    refs.append(at_offset(k, node.d_col, node.d_row))
                elif isinstance(node, AbsRef):
                    refs.append(node.addr)
                else:
                    refs.extend(self.range_cells(node.range, k))
            if loose:
                raise SubstitutionError("range is only allowed as a function argument")
        return refs

    def components(self, roots):
        """Strongly connected components of the defined cells reachable from
        roots, by iterative Tarjan.  Each comes after every component it
        reads, so this is also an evaluation order."""
        index, low = {}, {}
        stack, on_stack = [], set()
        for root in roots:
            if root in index or root not in self.formulas:
                continue
            index[root] = low[root] = len(index)
            stack.append(root)
            on_stack.add(root)
            work = [(root, iter(self.precedents(root)))]
            while work:
                node, it = work[-1]
                for child in it:
                    if child not in self.formulas:
                        continue
                    if child not in index:
                        index[child] = low[child] = len(index)
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, iter(self.precedents(child))))
                        break
                    if child in on_stack:
                        low[node] = min(low[node], index[child])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[node])
                    if low[node] == index[node]:
                        comp = [stack.pop()]
                        while comp[-1] != node:
                            comp.append(stack.pop())
                        on_stack.difference_update(comp)
                        yield comp

    def evaluate(self, roots) -> dict:
        """Values of the cells reachable from roots, by cell.  Cells on a
        cycle are #CYCLE!; the others are computed after their precedents."""
        grid = {}
        for comp in self.components(roots):
            k = comp[0]
            if len(comp) > 1 or k in self.precedents(k):
                for b in comp:
                    grid[b] = CellError(CYCLE)
            else:
                grid[k] = _eval_formula(self.formulas[k], k, self, grid)
        return grid


def _refs(f: Formula, names: dict) -> tuple:
    """One walk over a right-hand side: its AbsRef, RelRef and RangeArg
    nodes, a defined name read as its node from names, and whether a range
    stands outside a call.  Raises on a HERE marker."""
    refs, loose = [], False
    stack = [(f, False)]
    while stack:
        node, in_call = stack.pop()
        if type(node) is NameRef:
            node = names.get(node.name, node)
        t = type(node)
        if t is AbsRef or t is RelRef:
            refs.append(node)
        elif t is RangeArg:
            loose = loose or not in_call
            refs.append(node)
        elif t is ElemRef:
            if any(isinstance(sub, Here) for sub in node.subs):
                raise DomainError("formula contains HERE markers; resolve them first")
        else:
            in_call = t is Call
            stack.extend((kid, in_call) for kid in reversed(children(node)))
    return refs, loose


def _bounds(rect, k) -> tuple:
    """A rectangle's (sheet, col_lo, col_hi, row_lo, row_hi), a relative one
    read at cell k."""
    if rect.sheet is not None:
        return rect
    sheet, col_lo, row_lo = at_offset(k, rect.col_lo, rect.row_lo)
    _, col_hi, row_hi = at_offset(k, rect.col_hi, rect.row_hi)
    return sheet, col_lo, col_hi, row_lo, row_hi


def build_deps(s: EquationSet) -> dict:
    """Dependency graph: cell -> set of cells its formula references,
    including the defined cells inside range arguments."""
    g = _Graph(s)
    return {a: set(g.precedents(a)) for a in g.formulas}


def _to_number(v):
    if isinstance(v, CellError):
        return v
    if v is None:
        return 0.0
    if isinstance(v, bool):
        return 1.0 if v else 0.0
    if isinstance(v, float):
        return v
    return CellError(VALUE)


# The numeric operators and functions: each a function of floats, which
# _apply makes into a cell value; a fixed-arity function with its count.
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv, "^": operator.pow}
_FIXED = {"ABS": (1, abs), "SQRT": (1, math.sqrt), "EXP": (1, math.exp),
          "LN": (1, math.log),
          # the sign of MOD follows the divisor
          "MOD": (2, lambda a, b: a - b * math.floor(a / b))}
# SUM, MIN and MAX skip empty cells and give 0 when there are no numbers
_AGGREGATES = {"SUM": lambda *xs: float(sum(xs)),
               "MIN": lambda *xs: min(xs, default=0.0),
               "MAX": lambda *xs: max(xs, default=0.0)}
_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _apply(fn, *args):
    """fn of args read as numbers, as a cell value: the only place a float
    computation becomes one.  The first argument that is an error, or text
    (#VALUE!), is the result; a zero divisor gives #DIV0!, a result past
    the float range #NUM!, and an undefined or complex result #VALUE!."""
    nums = []
    for v in args:
        n = v if type(v) is float else _to_number(v)
        if type(n) is CellError:
            return n
        nums.append(n)
    try:
        r = fn(*nums)
    except ZeroDivisionError:
        return CellError(DIV0)
    except OverflowError:
        return CellError(NUM)
    except ValueError:
        return CellError(VALUE)
    if type(r) is complex:
        return CellError(VALUE)
    return r if math.isfinite(r) else CellError(NUM)


def binary(op: str, lv, rv):
    """The value of lv op rv for a binary operator op."""
    fn = _ARITH.get(op)
    if fn is not None:
        return _apply(fn, lv, rv)
    for v in (lv, rv):
        if isinstance(v, CellError):
            return v
    lv = 0.0 if lv is None else lv
    rv = 0.0 if rv is None else rv
    if op == "=":
        return lv == rv
    if op == "<>":
        return lv != rv
    # an ordering compares two floats, two texts or two truth values
    return _ORDERINGS[op](lv, rv) if type(lv) is type(rv) else CellError(VALUE)


def _call(func, values):
    fixed = _FIXED.get(func)
    if fixed is not None:
        count, fn = fixed
        return _apply(fn, *values) if len(values) == count else CellError(VALUE)
    fn = _AGGREGATES.get(func)
    if fn is not None:
        return _apply(fn, *[v for v in values if v is not None])
    # a value other than an error is false when it is FALSE, 0, empty or
    # empty text, as Python's truth of it
    if func == "IF":
        if len(values) not in (2, 3):
            return CellError(VALUE)
        cond = values[0]
        if isinstance(cond, CellError):
            return cond
        if cond:
            return values[1]
        return values[2] if len(values) == 3 else False
    if func in ("AND", "OR"):
        for v in values:
            if isinstance(v, CellError):
                return v
        return (all if func == "AND" else any)(map(bool, values))
    if func == "NOT" and len(values) == 1:
        v = values[0]
        return v if isinstance(v, CellError) else not v
    return CellError(VALUE)


def _eval_formula(f: Formula, k: CellAddr, g: _Graph, grid: dict):
    """The value of formula f standing at cell k."""
    t = type(f)
    if t is Binary:
        return binary(f.op, _eval_formula(f.left, k, g, grid), _eval_formula(f.right, k, g, grid))
    if t is RelRef:
        # precedents checked that the offset stays on the grid
        v = grid.get((k[0], k[1] + f.d_col, k[2] + f.d_row))
        # a reference to an empty cell reads as 0, as in a spreadsheet
        return 0.0 if v is None else v
    if t is AbsRef:
        v = grid.get(f.addr)
        return 0.0 if v is None else v
    if t is Number or t is Text or t is Bool:
        return f.value
    if t is Empty:
        return None
    if t is NameRef:
        ref = g.names.get(f.name)
        return CellError(REF) if ref is None else _eval_formula(ref, k, g, grid)
    if t is ElemRef:
        return CellError(REF)
    if t is Neg:
        v = _to_number(_eval_formula(f.operand, k, g, grid))
        return v if isinstance(v, CellError) else -v
    if t is Call:
        values = []
        for arg in f.args:
            if type(arg) is NameRef:
                arg = g.names.get(arg.name, arg)
            if type(arg) is RangeArg:
                values.extend(grid[b] for b in g.range_cells(arg.range, k))
            else:
                values.append(_eval_formula(arg, k, g, grid))
        return _call(f.func, values)
    raise DomainError(f"cannot evaluate node {f!r}")


def evaluate(s: EquationSet) -> dict:
    """Evaluate every cell in dependency order.  Returns a grid mapping each
    defined cell to its value."""
    g = _Graph(s)
    return g.evaluate(g.formulas)


def evaluate_cell(s: EquationSet, a: CellAddr):
    """The value of one cell, evaluating only the cells it depends on; None
    when a is not defined."""
    return _Graph(s).evaluate([a]).get(a)
