"""A simple spreadsheet engine: numeric evaluation of cell equation sets in
natural order, with a Tarjan walk for order and cycles from a forward read.

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
    NameRef,
    Neg,
    Number,
    RangeArg,
    RelRef,
    Text,
    has_here,
)

DIV0, CYCLE, VALUE, REF, NUM = "DIV0", "CYCLE", "VALUE", "REF", "NUM"


@dataclass(frozen=True)
class CellError:
    tag: str

    def __str__(self):
        return f"#{self.tag}!"


class _Graph:
    """A sheet as an evaluation graph on its defined cells and the distinct
    ranges read at them, built once per call.  Each formula tree object is
    compiled once into a template (Sestoft, *Spreadsheet Implementation
    Technology*, ch. 4-5), and a cell's program is its tree's template with
    only the relative leaves resolved where the cell stands: the cells and
    range nodes in it are the cell's precedents, and one loop over a value
    stack runs it.  A range node reads the range it extends and its other
    cells.  Cells run in natural order, and only a forward read starts a
    Tarjan walk; a program is dropped once its cell has run."""

    def __init__(self, s: EquationSet):
        self.formulas = {}
        # id of a formula tree -> its template, and the template's slots if any
        self.templates, self.slots = {}, {}
        # range node -> (the range node it extends or None, its other cells);
        # (sheet, col_lo, col_hi, row_lo) -> the last rows of its ranges, sorted
        self.spans, self.starts = {}, {}
        # fold -> range node -> its state, None -> the state of no value
        self.states = {_fold: {None: _NOTHING}, _truth: {None: _ALL_TRUE}}
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

    def span(self, rng, k) -> tuple:
        """The node of range rng read at cell k, keyed by its rectangles'
        bounds.  On first use, a one-rectangle range extends the longest
        range of the graph with its sheet, columns and first row, and lists
        the defined cells of its other rows; another range lists all its
        defined cells.  Either lists them rectangle by rectangle and
        row-major within each, each cell once."""
        node = tuple([_bounds(rect, k) for rect in rng.rects])
        if node not in self.spans:
            pred, rects = None, node
            if len(node) == 1:
                start, row_hi = node[0][:4], node[0][4]
                ends = self.starts.setdefault(start, [])
                i = bisect_left(ends, row_hi)
                if i:
                    pred = (start + (ends[i - 1],),)
                    rects = (start[:3] + (ends[i - 1] + 1, row_hi),)
                ends.insert(i, row_hi)
            cells = []
            for sheet, col_lo, col_hi, row_lo, row_hi in rects:
                rows, by_row = self.index.get(sheet, ((), {}))
                for r in rows[bisect_left(rows, row_lo):bisect_right(rows, row_hi)]:
                    line = by_row[r]
                    cells.extend(line[bisect_left(line, (sheet, col_lo, r)):
                                      bisect_right(line, (sheet, col_hi, r))])
            cells = list(dict.fromkeys(cells))
            self.spans[node] = pred, cells
        return node

    def chain(self, node, known) -> list:
        """Range node and the nodes it extends, back to but not including
        the first in known (all of them when none is), oldest first."""
        nodes = []
        while node is not None and node not in known:
            nodes.append(node)
            node = self.spans[node][0]
        nodes.reverse()
        return nodes

    def cells(self, node) -> list:
        """The defined cells of a range node, in its order."""
        return [a for n in self.chain(node, ()) for a in self.spans[n][1]]

    def state(self, node, grid, fold):
        """The state of a range node's values under fold, folded once, on
        first use, onto the state of the range it extends."""
        states = self.states[fold]
        chain = self.chain(node, states)
        state = states[self.spans[chain[0]][0] if chain else node]
        for n in chain:
            state = states[n] = fold(state, [grid[a] for a in self.spans[n][1]])
        return state

    def precedents(self, k) -> list:
        """The program of cell k's formula: its tree's template, made on the
        tree's first use in one walk, with the template's slots, the
        positions of its relative references and relative ranges, resolved
        at k in leaf order.  In the template a defined name is read as its
        node, a literal as its value, an absolute reference as its
        CellAddr, a range with no relative rectangle as its range node, an
        array element or an unknown name as #REF!.  Raises as resolving the
        formula would: on a HERE marker, then on the leftmost offset off
        the grid, then on a range that is not a call's argument."""
        f = self.formulas[k]
        prog = self.templates.get(id(f))
        if prog is None:
            prog, slots, loose = [], [], 0  # loose: ranges met less those under a call
            names = self.names
            stack = [f]
            while stack:  # parents first, children right to left: postfix reversed
                node = stack.pop()
                t = type(node)
                if t is NameRef:
                    node = names.get(node.name, _REF)
                    t = type(node)
                if t is Binary:
                    stack.append(node.left)
                    stack.append(node.right)
                elif t is RelRef:
                    slots.append(~len(prog))  # its index once prog is reversed
                elif t is AbsRef:
                    node = node.addr
                elif t is Number or t is Text or t is Bool:
                    node = node.value
                elif t is Neg:
                    stack.append(node.operand)
                elif t is Call:
                    for kid in node.args:
                        stack.append(kid)
                        if type(kid) is NameRef:
                            kid = names.get(kid.name)
                        if type(kid) is RangeArg:
                            loose -= 1
                elif t is RangeArg:
                    loose += 1
                    for rect in node.range.rects:
                        if rect[0] is None:  # a relative rectangle
                            slots.append(~len(prog))
                            break
                    else:
                        node = self.span(node.range, k)
                elif t is Empty:
                    node = None
                elif t is ElemRef:
                    if has_here(node):
                        raise DomainError("formula contains HERE markers; resolve them first")
                    node = _REF
                prog.append(node)
            prog.reverse()
            slots.reverse()  # leaf order
            if loose <= 0:  # a tree with a range outside a call raises at every cell
                self.templates[id(f)] = prog
                if slots:
                    self.slots[id(f)] = slots
        else:
            slots, loose = self.slots.get(id(f)), 0
        if slots:
            prog = prog.copy()
            sheet, col, row = k
            for i in slots:
                node = prog[i]
                if type(node) is RelRef:
                    c, r = col + node.d_col, row + node.d_row
                    if 0 < c <= MAX_COL and 0 < r <= MAX_ROW:
                        prog[i] = CellAddr._make((sheet, c, r))
                    else:
                        at_offset(k, node.d_col, node.d_row)  # raises
                else:
                    prog[i] = self.span(node.range, k)
        if loose > 0:
            raise SubstitutionError("range is only allowed as a function argument")
        return prog

    def evaluate(self, roots) -> dict:
        """Values of the defined cells reachable from roots, by cell, in
        natural order: a root whose program reads only finished nodes (cells
        in grid or undefined, range nodes in done) runs at once, and any
        other starts a Tarjan walk.  Programs are made, and a formula fault
        raises, in the order of one Tarjan walk from the same roots."""
        formulas, grid, done = self.formulas, {}, set()
        for root in roots:
            if root in grid or root not in formulas:
                continue
            prog = self.precedents(root)
            for x in prog:
                t = type(x)
                if (t is CellAddr and x not in grid and x in formulas
                        or t is tuple and x not in done and not self.finished(x, grid, done)):
                    self.walk(root, prog, grid, done)
                    break
            else:
                grid[root] = self.run(prog, grid)
        return grid

    def finished(self, node, grid, done) -> bool:
        """Whether all cells of the range node, and of the nodes it extends,
        are in grid; each node found so joins done."""
        for n in self.chain(node, done):
            if not all(a in grid for a in self.spans[n][1]):
                return False
            done.add(n)
        return True

    def walk(self, root, prog, grid, done):
        """Evaluate root, of program prog, and the unfinished nodes it reaches
        in one iterative Tarjan walk (SIAM J. Comput. 1972).  A finished node
        reaches no other, so it is on no cycle and is skipped, and a node met
        again unfinished is on the stack.  A component pops after all it reads: a cell
        that does not read itself runs, the cells of any other are #CYCLE!,
        and its range nodes join done, so one on a cycle still folds."""
        formulas = self.formulas
        index, low, stack = {root: 0}, {root: 0}, [root]
        work = [(root, prog, iter(prog))]
        while work:
            node, prog, it = work[-1]
            for child in it:
                t = type(child)
                if t is CellAddr:
                    if child in grid or child not in formulas:
                        continue
                elif t is not tuple or child in done:
                    continue  # a value, an operator or a finished range node
                if child in index:  # on a cycle or a self-read
                    low[node] = min(low[node], index[child])
                    continue
                index[child] = low[child] = len(index)
                stack.append(child)
                if t is tuple:  # a range node reads the range it extends and its cells
                    pred, cells = self.spans[child]
                    prog = [pred] + cells
                else:
                    prog = self.precedents(child)
                work.append((child, prog, iter(prog)))
                break
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] != index[node]:
                    continue
                comp = [stack.pop()]
                while comp[-1] is not node:
                    comp.append(stack.pop())
                cycle = len(comp) > 1 or node in prog  # or a cell that reads itself
                for b in comp:
                    if type(b) is not CellAddr:
                        done.add(b)
                    else:
                        grid[b] = CellError(CYCLE) if cycle else self.run(prog, grid)

    def run(self, prog, grid):
        """The value of a program that reads only finished nodes, by one loop
        over a value stack."""
        values = []
        for x in prog:
            t = type(x)
            if t is CellAddr:
                v = grid.get(x)
                # a reference to an empty cell reads as 0, as in a spreadsheet
                values.append(0.0 if v is None else v)
            elif t is Binary:
                v = values.pop()
                values[-1] = binary(x.op, values[-1], v)
            elif t is Neg:
                v = _to_number(values[-1])
                values[-1] = v if type(v) is CellError else -v
            elif t is Call:
                i = len(values) - len(x.args)
                values[i:] = [self.call(x.func, values[i:], grid)]
            else:  # a value, or a range node as a call's argument
                values.append(x)
        return values[0]

    def call(self, func, args, grid):
        """The value of function func of args, each a value or a range
        node."""
        agg = _AGGREGATES.get(func)
        if agg is not None:
            fold, field = agg
            state = self.states[fold][None]
        values = []
        for i, v in enumerate(args):
            if type(v) is not tuple:
                values.append(v)
            elif agg is None:
                return CellError(VALUE)  # only SUM, MIN, MAX, AND and OR read a range
            elif i == 0:
                state = self.state(v, grid, fold)
            else:
                values.extend([grid[a] for a in self.cells(v)])
        if agg is not None:
            return _aggregate(field, fold(state, values))
        fixed = _FIXED.get(func)
        if fixed is not None:
            count, fn = fixed
            return _apply(fn, *values) if len(values) == count else CellError(VALUE)
        # a value other than an error is false when it is FALSE, 0, empty or
        # empty text, as Python's truth of it
        if func == "IF" and len(values) in (2, 3):
            cond = values[0]
            if isinstance(cond, CellError):
                return cond
            return values[1] if cond else values[2] if len(values) == 3 else False
        if func == "NOT" and len(values) == 1:
            v = values[0]
            return v if isinstance(v, CellError) else not v
        return CellError(VALUE)


def _bounds(rect, k) -> tuple:
    """A rectangle's (sheet, col_lo, col_hi, row_lo, row_hi), a relative one
    read at cell k, an unbounded side at the grid's edge."""
    sheet, col_lo, col_hi, row_lo, row_hi = rect
    if sheet is None:
        sheet, col_lo, row_lo = at_offset(k, col_lo, row_lo)
        _, col_hi, row_hi = at_offset(k, col_hi, row_hi)
    return sheet, col_lo or 1, col_hi or MAX_COL, row_lo or 1, row_hi or MAX_ROW


def build_deps(s: EquationSet) -> dict:
    """Dependency graph: cell -> set of cells its formula references,
    including the defined cells inside range arguments."""
    g = _Graph(s)
    return {a: {c for p in g.precedents(a) if type(p) is CellAddr or type(p) is tuple
                for c in (g.cells(p) if type(p) is tuple else (p,))} for a in g.formulas}


def _to_number(v):
    if v is None or isinstance(v, bool):
        return 1.0 if v else 0.0
    return v if isinstance(v, (float, CellError)) else CellError(VALUE)


# The numeric operators and functions: each a function of floats, which
# _apply makes into a cell value; a fixed-arity function with its count.
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv, "^": operator.pow}
_FIXED = {"ABS": (1, abs), "SQRT": (1, math.sqrt), "EXP": (1, math.exp),
          "LN": (1, math.log),
          # the sign of MOD follows the divisor
          "MOD": (2, lambda a, b: a - b * math.floor(a / b))}
_NOTHING = (0.0, None, None)
_ALL_TRUE = (True, False)
_REF = CellError(REF)
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


def _fold(state, values):
    """An aggregate state extended by values in order, empty ones skipped.
    The state is the first error, text counting as #VALUE!, and before it
    the sum as a left fold from 0.0, the least number and the greatest
    (None before the first)."""
    if type(state) is CellError:
        return state
    total, lo, hi = state
    for v in values:
        if v is None:
            continue
        n = v if type(v) is float else _to_number(v)
        if type(n) is CellError:
            return n
        total += n
        if lo is None:
            lo = hi = n
        elif n < lo:
            lo = n
        elif n > hi:
            hi = n
    return total, lo, hi


def _truth(state, values):
    """A truth state extended by values in order: the first error, and
    before it whether every value is true and whether any is, each by
    Python's truth of it (_ALL_TRUE before the first)."""
    if type(state) is CellError:
        return state
    all_true, any_true = state
    for v in values:
        if type(v) is CellError:
            return v
        if v:
            any_true = True
        else:
            all_true = False
    return all_true, any_true


# SUM, MIN and MAX read one field of an aggregate state (`_fold`) of their
# arguments, AND and OR one of a truth state (`_truth`); each starts from a
# range node's state when the first argument is a range, and from the state
# of no value otherwise
_AGGREGATES = {"SUM": (_fold, 0), "MIN": (_fold, 1), "MAX": (_fold, 2),
               "AND": (_truth, 0), "OR": (_truth, 1)}


def _aggregate(i, state):
    """Field i of a state (a sum, min, max or truth value), 0 when it holds
    no number, or its error."""
    if type(state) is CellError:
        return state
    r = state[i]
    return 0.0 if r is None else r if math.isfinite(r) else CellError(NUM)


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


def evaluate(s: EquationSet) -> dict:
    """Evaluate every cell in natural order, walking the cells a forward
    read reaches in dependency order.  Returns a grid mapping each defined
    cell to its value."""
    g = _Graph(s)
    return g.evaluate(g.formulas)


def evaluate_cell(s: EquationSet, a: CellAddr):
    """The value of one cell, evaluating only the cells it depends on; None
    when a is not defined."""
    return _Graph(s).evaluate([a]).get(a)
