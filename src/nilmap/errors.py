"""Exception hierarchy shared by all nilmap modules."""

from __future__ import annotations

import json
from typing import Any


class NilmapError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(NilmapError):
    """Operands live in polynomial rings of different dimensions."""


class ShapeError(NilmapError):
    """A map or matrix does not have the shape an operation requires."""


class InexactValue(NilmapError):
    """A floating-point number was given where an exact rational is required."""


class PreconditionError(NilmapError):
    """A documented precondition of an operation is violated by the input."""


class NotNilpotentTop(PreconditionError):
    """The top z-coefficient pair has a non-nilpotent 2x2 Jacobian."""


class NotTriangularizable(NilmapError):
    """No variable ordering makes the map's dependency graph acyclic."""


class ConstructionMismatch(NilmapError):
    """An internally rebuilt object failed to match its source exactly.

    This always indicates a bug in this package, never bad user input.
    """


class ParseError(NilmapError):
    """Syntax error in polynomial or map text, with position info."""

    def __init__(self, message: str, line: int = 1, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class TheoremViolation(NilmapError):
    """A guaranteed structural property failed on a concrete instance.

    The properties checked by the certifying routines are proved facts, so a
    violation means either an implementation bug or a genuine counterexample;
    both need human eyes.  The offending instance is serialized in full so it
    can be reproduced.
    """

    def __init__(self, message: str, instance: Any = None):
        self.instance = instance
        if instance is not None:
            try:
                dump = json.dumps(instance, default=str, sort_keys=True)
            except TypeError:
                dump = repr(instance)
            message = f"{message}\ninstance: {dump}"
        super().__init__(message)
