"""Exception hierarchy. Everything raised by this package derives from SheetError."""


class SheetError(Exception):
    pass


class DomainError(SheetError):
    """Argument outside an operation's domain (e.g. column number < 1)."""


class BoundednessError(SheetError):
    """Operation requires a bounded range."""


class FormulaSyntaxError(SheetError):
    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at offset {pos})"
        super().__init__(message)
        self.pos = pos


class AnchorError(SheetError):
    """Relative reference printed in A1 dialect without an anchor cell."""


class OutOfGridError(SheetError):
    """A column or row coordinate would leave the grid: below 1, or past
    column XFD or row 1,048,576."""


class CrossSheetError(SheetError):
    """Relative offsets only make sense within one sheet."""


class SubstitutionError(SheetError):
    """Multi-cell name substituted outside a function-argument position."""


class ConflictError(SheetError):
    """Two equations with the same left-hand side but different right-hand sides."""


class CardinalityError(SheetError):
    """Source and target ranges of a mapping have different cell counts."""


class CollisionError(SheetError):
    """Two rewritten left-hand sides landed on the same cell."""


class EquivalenceError(SheetError):
    """Equations projecting onto one left-hand side are not identical."""


class NotFoundError(SheetError):
    """No equation for the requested left-hand side."""


class LayoutError(SheetError):
    """Undirected array, out-of-box subscript, arity mismatch, or footprint clash."""


class ScriptError(SheetError):
    def __init__(self, message, statement=None):
        if statement is not None:
            message = f"statement {statement}: {message}"
        super().__init__(message)
        self.statement = statement


class LoadError(SheetError):
    """A file that cannot be read or written, or one in an unsupported format."""
