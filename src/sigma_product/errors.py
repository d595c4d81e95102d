"""Exception types shared across the package.

Every error the CLI can surface maps to a stable kebab-case kind token so
scripted callers can dispatch on ``error: <kind>: <message>`` lines.
"""

from __future__ import annotations


class SigmaProductError(Exception):
    """Base class for all package errors."""

    kind = "error"


class UniverseMismatch(SigmaProductError):
    """A set was handed to a measure (or operation) over a different universe."""

    kind = "universe-mismatch"


class NotMeasurable(SigmaProductError):
    """The set is outside the measure's domain of measurable sets."""

    kind = "not-measurable"


class SizeLimit(SigmaProductError):
    """A representation would exceed the configured size bound: the members
    of a sigma-ring closure, the residue classes a union of progressions
    expands into, or the points and progressions an operation on a
    countable set lists, or the digits of a number printed as text.  The
    CLI also raises it for a name reached through more nested declarations
    than it allows."""

    kind = "size-limit"


class PropertyViolated(SigmaProductError):
    """A pair of sigma-rings lacks the simple extension property."""

    kind = "property-violated"


class NotIntegrable(SigmaProductError):
    """The function is not integrable with respect to the given measure."""

    kind = "not-integrable"


class NotSimpleTensor(SigmaProductError):
    """A tensor-functional term has a rectangle side of infinite measure."""

    kind = "not-simple-tensor"


class ParseError(SigmaProductError):
    """Syntax error in a spec file; carries 1-based line and column."""

    kind = "parse-error"

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnresolvedName(SigmaProductError):
    """A spec file references a name that was never declared."""

    kind = "name-error"
