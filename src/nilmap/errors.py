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


class ExponentOverflow(NilmapError):
    """A monomial's total degree would reach 2**16 = 65536.

    Polynomial packs each monomial into one int with a 16-bit field per
    exponent and for the total degree, so larger degrees are rejected
    instead of being stored wrongly.
    """


class PreconditionError(NilmapError):
    """A documented precondition of an operation is violated by the input."""


class NotNilpotentTop(PreconditionError):
    """The top z-coefficient pair has a non-nilpotent 2x2 Jacobian."""


class NotTriangularizable(NilmapError):
    """No variable ordering makes the map's dependency graph acyclic."""


class GuaranteeError(NilmapError):
    """A guarantee of this package failed on a concrete instance.

    The offending instance, when given, is kept as `instance` and
    serialized in full into the message, so the failure can be reproduced.
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


class ConstructionMismatch(GuaranteeError):
    """An internally rebuilt object failed to match its source exactly.

    This always indicates a bug in this package, never bad user input.
    """


class ResultTooLarge(NilmapError):
    """A result holds a number with more decimal digits than Python
    converts to text (`sys.get_int_max_str_digits()`, 4300 by default), so
    it cannot be printed."""


class ParseError(NilmapError):
    """Malformed input: a syntax error in polynomial or map text, which
    carries its line and column, or a malformed document or file, which
    has no position (line and column are None)."""

    def __init__(
        self, message: str, line: int | None = None, column: int | None = None
    ):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class TheoremViolation(GuaranteeError):
    """A guaranteed structural property failed on a concrete instance.

    The properties checked by the certifying routines are proved facts, so a
    violation means either an implementation bug or a genuine counterexample;
    both need human eyes.
    """
