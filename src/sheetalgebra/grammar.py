"""The one grammar of the package's text: the tokenizer, the token stream,
the names of the formula dialects, and one reader each for integers,
numbers, cell labels, relative references, ranges and left-hand sides, plus
the reader of `.exc` entries.

Formulas (all three dialects), `.exc` documents, grouped listings and
scripts all read their text with these.  Cell labels are capped at column
XFD and row 1,048,576; a label or range beyond the caps, an integer token
that is not all digits, and a number that overflows a double are syntax
errors.
"""

from __future__ import annotations

import math
import re

from .errors import FormulaSyntaxError, SheetError
from .model import (
    A1_LABEL,
    DEFAULT_SHEET,
    MAX_COL,
    MAX_INT_DIGITS,
    MAX_NESTING,
    MAX_ROW,
    ArrayElem,
    CellAddr,
    CellRange,
    Equation,
    EquationSet,
    Rect,
    label_coords,
)

NUM, STR, ID, OP, EOF = "num", "str", "id", "op", "eof"

# the formula dialects
A1 = "a1"
R1C1 = "r1c1"
CANONICAL = "canonical"

_TOKEN_RE = re.compile(
    r"""
    (?:\s+|\#[^\n]*)*  # whitespace and comments, skipped
    (?: (?P<id>[A-Za-z_][A-Za-z0-9_]*)  # the most frequent kinds first
      | (?P<op><=|>=|<>|\\/|><|\.\.|[-+*/^=<>(),:\[\]{}!@.;])
      | (?P<num>\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)
      | (?P<str>"(?:[^"]|"")*")
      | (?P<eof>.|\Z)  # a character that starts no token, or the end
    )
    """,
    re.VERBOSE,
)


def tokenize(src: str):
    """(kind, text, offset) for each token of src, then an EOF token.  Every
    offset matches, so the tokens follow one another without a gap."""
    stream = TokenStream(src)
    while stream.tokens[-1][0] != EOF:
        stream.more()
    return stream.tokens[:-_LOOKAHEAD]


_LOOKAHEAD = 4  # EOF tokens past the end, more than any reader looks ahead


class TokenStream:
    """The tokens of `src`, walked by index and scanned in pieces, each up to
    the token after an '=' or to the end and EOF tokens enough for every
    lookahead, so no read checks its bounds; `next` stays on the first EOF.
    A reader that reads on past an '=' asks for the next piece, which drops
    the tokens read.  In a `with` block, a reader's error waits for the rest
    of the text to be scanned, so an unknown character anywhere is raised."""

    def __init__(self, src: str):
        self.src, self.tokens, self.i, self.depth = src, [], 0, 0
        self.more(0)

    def more(self, pos=None):
        """Scan the next piece: on from the token after the '=' just read, or from pos."""
        tokens, append, stop = self.tokens, self.tokens.append, False
        if pos is not None:
            del tokens[self.i:]
            self._matches = _TOKEN_RE.finditer(self.src, pos)
        for m in self._matches:
            kind = m.lastgroup
            if kind == EOF:
                if m[EOF]:
                    raise FormulaSyntaxError(f"unknown token {m[EOF]!r}", m.start(EOF))
                tokens += [(EOF, "", m.start(EOF))] * (1 + _LOOKAHEAD)
                break
            text = m[kind]
            append((kind, text, m.start(kind)))
            if stop:
                break
            stop = text == "="
        del tokens[:self.i]  # the tokens read, to which no reader goes back
        self.i = 0

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, SheetError):  # scan on from the last token made, where
            self.more(self.tokens[-1][2])  # an error of the scanner is met again
            while self.tokens[-1][0] != EOF:
                self.more()

    def peek(self, ahead=0):
        return self.tokens[self.i + ahead]

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] != EOF:
            self.i += 1
        return tok

    def at_op(self, *ops, ahead=0):
        tok = self.tokens[self.i + ahead]
        return tok[0] == OP and tok[1] in ops

    def accept_op(self, *ops):
        tok = self.tokens[self.i]
        if tok[0] == OP and tok[1] in ops:
            self.i += 1
            return tok
        return None

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind != OP or text != op:
            raise FormulaSyntaxError(f"expected {op!r}, found {text or 'end of input'!r}", pos)
        return self.next()

    def expect_id(self):
        kind, text, pos = self.peek()
        if kind != ID:
            raise FormulaSyntaxError(f"expected identifier, found {text or 'end of input'!r}", pos)
        return self.next()

    def expect_word(self, word):
        kind, text, pos = self.next()
        if kind != ID or text != word:
            raise FormulaSyntaxError(f"expected {word!r}, found {text or 'end of input'!r}", pos)

    @property
    def at_eof(self):
        return self.tokens[self.i][0] == EOF

    def nested(self, read, *args):
        """read(*args) one nesting level deeper; past MAX_NESTING levels the
        text is a syntax error, so no reader recurses without bound."""
        if self.depth == MAX_NESTING:
            raise FormulaSyntaxError(f"nested deeper than {MAX_NESTING} levels",
                                     self.tokens[self.i][2])
        self.depth += 1
        out = read(*args)
        self.depth -= 1
        return out


def unquote_string(text: str) -> str:
    return text[1:-1].replace('""', '"')


# ---------------------------------------------------------------------------
# Integers, numbers, cell labels


def read_int(stream: TokenStream, signed: bool = True) -> int:
    """An integer token of at most MAX_INT_DIGITS digits, after a '-' when
    signed."""
    neg = signed and stream.accept_op("-") is not None
    kind, text, pos = stream.next()
    if kind != NUM or not text.isdigit():
        raise FormulaSyntaxError(f"expected an integer, found {text or 'end of input'!r}", pos)
    if len(text) > MAX_INT_DIGITS:
        raise FormulaSyntaxError(f"integer {text} has more than {MAX_INT_DIGITS} digits", pos)
    return -int(text) if neg else int(text)


def read_number(stream: TokenStream) -> float:
    """A number token whose value a double holds."""
    kind, text, pos = stream.next()
    if kind != NUM:
        raise FormulaSyntaxError(f"expected a number, found {text or 'end of input'!r}", pos)
    value = float(text)
    if math.isinf(value):
        raise FormulaSyntaxError(f"number {text} is out of range", pos)
    return value


def _column(letters: str, pos) -> int:
    col = label_coords(letters, "1")[0]  # the column of its cell in row 1
    if col > MAX_COL:
        raise FormulaSyntaxError(f"column {letters} lies beyond XFD", pos)
    return col


_R1C1_RE = re.compile(r"[Rr](\d+)[Cc](\d+)\Z")


def cell_label(text: str, sheet: str = DEFAULT_SHEET, r1c1: bool = False,
               pos=None) -> CellAddr | None:
    """The cell that `text` names: `B3`, or with r1c1 `R3C2`.  None when
    `text` is no such label."""
    m = (_R1C1_RE if r1c1 else A1_LABEL).match(text)
    if m is None:
        return None
    col, row = label_coords(*(m.groups()[::-1] if r1c1 else m.groups()))
    if not (0 < col <= MAX_COL and 0 < row <= MAX_ROW):  # on_grid, inlined for speed
        raise FormulaSyntaxError(f"cell {text} lies outside columns A..XFD, rows 1..{MAX_ROW}",
                                 pos)
    if not sheet:
        return CellAddr(sheet, col, row)  # which refuses the empty sheet name
    return CellAddr._make((sheet, col, row))


def rel_offsets(stream: TokenStream, text: str) -> tuple[int, int] | None:
    """The offsets (d_col, d_row) of the relative reference RC, RC[j],
    R[k]C or R[k]C[j] whose first identifier `text` was just read; None, with
    the stream left where it was, when `text` starts no such reference."""
    upper = text.upper()
    if upper == "RC":
        return _offset(stream), 0
    if upper == "R" and stream.at_op("["):
        mark = stream.i
        d_row = _offset(stream)
        kind, ctext, _ = stream.peek()
        if kind == ID and ctext in ("C", "c"):
            stream.next()
            return _offset(stream), d_row
        stream.i = mark  # not R[..]C: an element of an array R
    return None


def _offset(stream: TokenStream) -> int:
    """A bracketed offset [k] or [-k]; 0 when there is none."""
    if not stream.accept_op("["):
        return 0
    k = read_int(stream)
    stream.expect_op("]")
    return k


# ---------------------------------------------------------------------------
# Ranges and left-hand sides


def at_range(stream: TokenStream) -> bool:
    """Whether a range that `read_range` reads as a call argument starts
    here: an optional '(' and `Sheet!`, then a cell, column, row or relative
    reference (an identifier and its bracketed offsets) and ':'."""
    i = 1 if stream.at_op("(") else 0
    if stream.peek(i)[0] == ID and stream.at_op("!", ahead=i + 1):
        i += 2
    kind = stream.peek(i)[0]
    i += 1
    while kind == ID and (stream.at_op("[", "-", "]", ahead=i) or stream.peek(i)[0] == NUM
                          or stream.peek(i)[:2] in ((ID, "C"), (ID, "c"))):
        i += 1
    return kind in (ID, NUM) and stream.at_op(":", ahead=i)


def _row(stream: TokenStream) -> int:
    pos = stream.peek()[2]
    row = read_int(stream, signed=False)
    if not 0 < row <= MAX_ROW:
        raise FormulaSyntaxError(f"row {row} lies outside rows 1..{MAX_ROW}", pos)
    return row


def read_range(stream: TokenStream, sheet: str = DEFAULT_SHEET,
               dialect: str | None = None) -> CellRange:
    """One range as `print_range` writes it: A1:B2, A:C or 2:4, each
    optionally `Sheet!`-qualified, or a parenthesized comma list of those.
    Without a dialect the range is bare, as in names and scripts, and a lone
    cell (A1) or column (B) is a range too.  As a call argument of a formula
    in `dialect` it needs ':', and in r1c1 and canonical a rectangle may be
    relative, R[-5]C[-1]:RC[-1]."""
    if stream.accept_op("("):
        rng = read_range(stream, sheet, dialect)
        while stream.accept_op(","):
            rng = rng.union(read_range(stream, sheet, dialect))
        stream.expect_op(")")
        return rng
    if stream.peek()[0] == ID and stream.at_op("!", ahead=1):
        sheet = stream.next()[1]
        stream.next()
    elif dialect in (R1C1, CANONICAL) and stream.peek()[0] == ID:
        mark = stream.i
        lo = rel_offsets(stream, stream.next()[1])
        if lo is not None:
            stream.expect_op(":")
            _, text, pos = stream.expect_id()
            hi = rel_offsets(stream, text)
            if hi is None:
                raise FormulaSyntaxError(f"expected a relative reference after ':', found {text!r}",
                                         pos)
            return CellRange((Rect(None, min(lo[0], hi[0]), max(lo[0], hi[0]),
                                   min(lo[1], hi[1]), max(lo[1], hi[1])),))
        stream.i = mark
    kind, text, pos = stream.peek()
    if kind == NUM:
        lo = _row(stream)
        stream.expect_op(":")
        return CellRange.rows(lo, _row(stream), sheet)
    stream.next()
    first = cell_label(text, sheet, pos=pos) if kind == ID else None
    if first is None and not (kind == ID and text.isalpha()):
        raise FormulaSyntaxError(f"expected a range, found {text or 'end of input'!r}", pos)
    if not stream.accept_op(":"):
        if dialect is not None:
            raise FormulaSyntaxError(f"expected ':' after {text!r} in range", pos)
        if first is not None:
            return CellRange.cell(first)
        return CellRange.columns(_column(text, pos), _column(text, pos), sheet)
    kind, text2, pos2 = stream.next()
    if first is not None:
        second = cell_label(text2, sheet, pos=pos2) if kind == ID else None
        if second is None:
            raise FormulaSyntaxError(f"expected a cell after ':', found {text2!r}", pos2)
        return CellRange.box(first, second)
    if kind != ID or not text2.isalpha():
        raise FormulaSyntaxError(f"expected a column after ':', found {text2!r}", pos2)
    return CellRange.columns(_column(text, pos), _column(text2, pos2), sheet)


def read_lhs(stream: TokenStream) -> CellAddr | ArrayElem:
    """A left-hand side: a cell, `A1` or `Sheet2!A1`, or an array element
    `Name[int,...]`."""
    kind, text, pos = stream.next()
    if kind != ID:
        raise FormulaSyntaxError(f"expected left-hand side, found {text or 'end of input'!r}", pos)
    sheet = DEFAULT_SHEET
    if stream.accept_op("!"):
        sheet = text
        kind, text, pos = stream.next()
        if kind != ID:
            raise FormulaSyntaxError("expected cell after sheet prefix", pos)
    if stream.accept_op("["):
        subs = [read_int(stream)]
        while stream.accept_op(","):
            subs.append(read_int(stream))
        stream.expect_op("]")
        return ArrayElem(text, tuple(subs))
    cell = cell_label(text, sheet, pos=pos)
    if cell is None:
        raise FormulaSyntaxError(f"not a cell or array element: {text!r}", pos)
    return cell


# ---------------------------------------------------------------------------
# `.exc` entries


class EntryReader:
    """Reads `.exc` entries from a token stream: equations `lhs = formula`,
    `layout Name[lo:hi,...] as CELL [down|right]` and `name RANGE as ident`.
    What it has read so far is in `equations`, `names` and `layouts`."""

    def __init__(self, stream: TokenStream):
        # formula imports this module, so it is imported on first use
        from .formula import FormulaParser

        self.s = stream
        self.formula = FormulaParser(stream, CANONICAL)
        self.equations, self.names, self.layouts = [], {}, []
        # hash of a kept formula's text -> its equation index and the offset of
        # its first token, as the digits of one number in base len(src) + 1
        self._kept, self._nl = {}, -1

    def equation_set(self) -> EquationSet:
        return EquationSet(self.equations, self.names, self.layouts)

    def document(self) -> EquationSet:
        """Every entry up to the end of input; ',', ';' and '.' may
        separate entries."""
        while not self.s.at_eof:
            if not self.s.accept_op(",", ";", "."):
                self.entry()
        return self.equation_set()

    def entry(self) -> None:
        kind, text, _ = self.s.peek()
        if kind == ID and text == "layout" and self.s.peek(1)[0] == ID:
            self.s.next()
            self.layouts.append(self._layout())
            return
        if kind == ID and text == "name" and not self.s.at_op("=", ahead=1):
            self.s.next()
            rng = read_range(self.s)
            self.s.expect_word("as")
            self.names[self.s.expect_id()[1]] = rng
            return
        lhs = read_lhs(self.s)
        self.s.expect_op("=")
        sheet = lhs.sheet if isinstance(lhs, CellAddr) else DEFAULT_SHEET
        self.equations.append(Equation._make((lhs, self._rhs(sheet))))

    def _rhs(self, sheet: str):
        """The formula after the '=' just read, on `sheet`.  One that ends
        its line, with all its tokens, is kept by the hash of its text from
        its first token on; a later line's first formula of that text on the
        same sheet takes its tree before more is scanned, where the next line
        starts with the end, a separator, or an identifier other than C (which
        would continue R[k] into R[k]C), each of which stops the reader."""
        s, src, tokens = self.s, self.s.src, self.s.tokens
        first, line = tokens[s.i][2], ""  # the token after the '='
        if first > self._nl:  # a new line, which without a newline ends at len(src)
            self._nl = src.find("\n", first) % (len(src) + 1)
            line = src[first:self._nl]
            kept = self._kept.get(hash(line))
            if kept is not None:
                at, seen = divmod(kept, len(src) + 1)
                lhs, m = self.equations[at].lhs, _TOKEN_RE.match(src, self._nl + 1)
                kind = m.lastgroup
                if (src.startswith(line, seen) and src.startswith("\n", seen + len(line))
                        and (lhs.sheet if isinstance(lhs, CellAddr) else DEFAULT_SHEET) == sheet
                        and (kind == ID and m[ID] not in ("C", "c") or kind == EOF
                             or kind == OP and m[OP] in (",", ";", "."))):
                    s.more(self._nl + 1)
                    return self.equations[at].rhs
        s.more()
        self.formula.sheet = sheet
        f = self.formula.expression()
        _, text, pos = tokens[s.i - 1]
        if pos + len(text) <= self._nl < tokens[s.i][2]:  # f ends its line
            self._kept[hash(line or src[first:self._nl])] = (
                len(self.equations) * (len(src) + 1) + first)
        return f

    def _layout(self):
        # layout imports formula, which imports this module
        from .layout import DOWN, RIGHT, LayoutDirective

        name = self.s.expect_id()[1]
        self.s.expect_op("[")
        box = []
        while True:
            lo = read_int(self.s)
            self.s.expect_op(":")
            box.append((lo, read_int(self.s)))
            if not self.s.accept_op(","):
                break
        self.s.expect_op("]")
        self.s.expect_word("as")
        pos = self.s.peek()[2]
        anchor = read_lhs(self.s)
        if not isinstance(anchor, CellAddr):
            raise FormulaSyntaxError("layout anchor must be a cell", pos)
        orientation = DOWN
        kind, text, _ = self.s.peek()
        if kind == ID and text in ("down", "downwards", "right", "rightwards"):
            self.s.next()
            orientation = DOWN if text.startswith("down") else RIGHT
        return LayoutDirective(name, tuple(box), anchor, orientation)
