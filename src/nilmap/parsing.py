"""Text grammar for polynomials and maps, plus the canonical formatter.

Grammar: variables ``x1..xN`` (aliases ``x, y, z, w`` for N <= 4), integer or
``a/b`` rational literals, operators ``+ - * ^``, parentheses.  ``^`` binds
tighter than ``*``, which binds tighter than ``+``/``-``; there is no
implicit multiplication.  Whitespace is insignificant.

The parser evaluates straight into packed term dicts, the stored form of
`poly`: every grammar level returns a term dict, products go through
`poly._product` and powers through `poly._power` (the helpers behind
``Polynomial`` ``*`` and ``**``, with their ExponentOverflow guard), and one
`Polynomial` is built per parsed text.  Both are bounded before they run:
a power by the estimated size of its result (`MAX_POWER_BITS`), a product
by its number of term pairs (`MAX_PRODUCT_PAIRS`).

The formatter emits graded-lexicographically sorted terms, so equal
polynomials always format identically and ``format(parse(t))`` is a fixpoint
of ``parse``/``format``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, ParseError, ShapeError
from .poly import (
    Polynomial,
    PolyMap,
    Terms,
    _B,
    _add_into,
    _clear_denominators,
    _coeff,
    _drop_zeros,
    _grlex_terms,
    _power,
    _product,
    _unit,
)

DEFAULT_ALIASES = "xyzw"

# Each level of parentheses costs the recursive-descent parser four Python
# frames; deeper input is rejected before it can exhaust the interpreter's
# recursion limit.
MAX_NESTING = 100

# A power p^k is rejected before it is computed when the estimated size
# of its result, term count times coefficient bits, exceeds this many bits
# (see `_power_size`), so a short input cannot demand unbounded work.
MAX_POWER_BITS = 1 << 20

# A product p * q is rejected before it is computed when it would multiply
# more than this many pairs of terms, len(p) * len(q), so a short input
# cannot demand unbounded work through products of powers either.
MAX_PRODUCT_PAIRS = 1 << 21

# Numbers and variable indices are ASCII digits: str.isdigit also accepts
# characters such as superscripts that int() rejects.
_DIGITS = "0123456789"


def _negate(t: Terms) -> Terms:
    """Negate the coefficients of a term dict in place and return it."""
    for key, c in t.items():
        t[key] = -c
    return t


def _power_size(p: Terms, k: int, n: int) -> int:
    """An upper bound, in bits, on the size of p^k (k >= 1, p nonzero, in n
    variables): its term count times the bits of its largest coefficient.

    With D the lcm of p's denominators and S the sum of |c| * D over its
    coefficients c, every coefficient of p^k has numerator at most S^k and
    denominator at most D^k, so at most k times the bits of max(S, D).
    A monomial with coefficient 1 or -1 has the one-term power of 1 bit.
    p^k has at most C(t - 1 + k, k) terms, the multisets of k of p's t
    terms, and at most C(n + k*d, n), the monomials of total degree at
    most k*d for d = deg p.  A count is cut off once the bound is past
    MAX_POWER_BITS, so the estimate never costs more than a few dozen
    steps.
    """
    if len(p) == 1 and abs(next(iter(p.values()))) == 1:
        return 1
    ints, den = _clear_denominators(p.values())
    bits = k * max(sum(map(abs, ints)), den).bit_length()
    limit = MAX_POWER_BITS // bits + 1
    degree = max(p) >> (_B * n)
    terms = min(
        _binomial_at_most(len(p) - 1, k, limit),
        _binomial_at_most(n, k * degree, limit),
    )
    return terms * bits


def _binomial_at_most(a: int, b: int, limit: int) -> int:
    """C(a + b, a), or limit + 1 once it exceeds limit."""
    m, r = max(a, b), min(a, b)
    value = 1
    for i in range(1, r + 1):
        value = value * (m + i) // i
        if value > limit:
            return limit + 1
    return value


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch in "+-*^()/":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("int", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i + 1
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", None, line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int, aliases: str | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.n = n
        self.aliases = aliases

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.value!r}", tok.line, tok.column
            )
        return self.advance()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    def parse(self) -> Polynomial:
        p = self.expression()
        if self.peek().kind != "end":
            self.fail(f"trailing input starting at {self.peek().value!r}")
        return Polynomial._trusted(self.n, _drop_zeros(p))

    # Each level returns a term dict it owns.  Sums may hold cancelled zero
    # coefficients until `_drop_zeros`; products and powers are in stored
    # form, so an empty dict is the zero polynomial and the overflow guard
    # sees the same degrees as the Polynomial operators would.

    def expression(self) -> Terms:
        negative = self.signs()
        p = self.term()
        if negative:
            _negate(p)
        while self.peek().kind in "+-":
            op = self.advance().kind
            q = self.term()
            _add_into(p, q if op == "+" else _negate(q))
        return p

    def term(self) -> Terms:
        p = self.factor()
        while self.peek().kind == "*":
            tok = self.advance()
            q = self.factor()
            if len(p) * len(q) > MAX_PRODUCT_PAIRS:
                raise ParseError(
                    f"product of {len(p)} and {len(q)} terms is too large: it "
                    f"multiplies more than {MAX_PRODUCT_PAIRS} pairs of terms",
                    tok.line,
                    tok.column,
                )
            p = _product(p, q, self.n)
        return p

    def factor(self) -> Terms:
        negative = self.signs()
        p = self.atom()
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("int")
            k = tok.value
            if p and k and _power_size(p, k, self.n) > MAX_POWER_BITS:
                raise ParseError(
                    f"power with exponent {k} is too large: its result is "
                    f"estimated beyond {MAX_POWER_BITS} bits",
                    tok.line,
                    tok.column,
                )
            p = _power(p, k, self.n)
        return _negate(p) if negative else p

    def signs(self) -> bool:
        """Consume a run of unary signs; True when it negates."""
        negative = False
        while self.peek().kind in "+-":
            if self.advance().kind == "-":
                negative = not negative
        return negative

    def atom(self) -> Terms:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING} levels",
                    tok.line,
                    tok.column,
                )
            p = _drop_zeros(self.expression())
            self.expect(")")
            self.depth -= 1
            return p
        if tok.kind == "int":
            self.advance()
            value = tok.value
            if self.peek().kind == "/":
                self.advance()
                den = self.expect("int").value
                if den == 0:
                    raise ParseError("zero denominator", tok.line, tok.column)
                value = _coeff(Fraction(value, den))
            return {0: value} if value else {}
        if tok.kind == "name":
            self.advance()
            return {_unit(self.n, self.variable_index(tok)): 1}
        self.fail(f"expected a number, variable or '(', found {tok.value!r}")

    def variable_index(self, tok: _Token) -> int:
        name = tok.value
        if name[0] == "x" and len(name) > 1 and name[1:].isdigit():
            i = int(name[1:])
            if not 1 <= i <= self.n:
                raise ParseError(
                    f"variable {name} out of range for dimension {self.n}",
                    tok.line,
                    tok.column,
                )
            return i
        if self.aliases and len(name) == 1 and name in self.aliases:
            i = self.aliases.index(name) + 1
            if i <= self.n:
                return i
        raise ParseError(f"unknown variable {name!r}", tok.line, tok.column)


def parse_polynomial(
    text: str, n: int, aliases: str | None = DEFAULT_ALIASES
) -> Polynomial:
    """Parse a single polynomial in an n-variable ring."""
    if aliases is not None and n > len(aliases):
        aliases = None
    return _Parser(text, n, aliases).parse()


def parse_map(text: str, aliases: str | None = DEFAULT_ALIASES) -> PolyMap:
    """Parse ';'-separated components; the component count fixes the dimension."""
    parts = [part for part in text.split(";") if part.strip()]
    if not parts:
        raise ParseError("empty map text")
    n = len(parts)
    return PolyMap([parse_polynomial(part, n, aliases) for part in parts])


def _format_monomial(exps, var_names: Sequence[str]) -> str:
    parts = []
    for name, e in zip(var_names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_polynomial(
    p: Polynomial, aliases: str | None = DEFAULT_ALIASES
) -> str:
    """Canonical text form: graded-lex descending terms."""
    if p.is_zero():
        return "0"
    if aliases is not None and p.n <= len(aliases):
        var_names = list(aliases[: p.n])
    else:
        var_names = [f"x{i}" for i in range(1, p.n + 1)]
    pieces = []
    for exps, coeff in _grlex_terms(p):
        mono = _format_monomial(exps, var_names)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def format_map(f: PolyMap, aliases: str | None = DEFAULT_ALIASES) -> str:
    return "; ".join(format_polynomial(p, aliases) for p in f.components)


def map_to_document(f: PolyMap, aliases: str | None = DEFAULT_ALIASES) -> dict:
    """JSON-ready document {"n": ..., "components": [...]}."""
    return {
        "n": f.dimension,
        "components": [format_polynomial(p, aliases) for p in f.components],
    }


def map_from_document(doc: dict, aliases: str | None = DEFAULT_ALIASES) -> PolyMap:
    try:
        n = doc["n"]
        components = doc["components"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed map document: {exc}")
    if n.__class__ is not int:
        raise ParseError(f"malformed map document: n must be an integer, got {n!r}")
    if not isinstance(components, (list, tuple)) or not all(
        isinstance(c, str) for c in components
    ):
        raise ParseError(
            "malformed map document: components must be a list of "
            "polynomial strings"
        )
    if len(components) != n:
        raise DimensionMismatch(
            f"document declares n={n} but has {len(components)} components"
        )
    return PolyMap([parse_polynomial(c, n, aliases) for c in components])


def load_map_text(text: str, aliases: str | None = DEFAULT_ALIASES) -> PolyMap:
    """Load a map from raw file content: JSON document or ';'-separated text."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON map document: {exc}")
        return map_from_document(doc, aliases)
    return parse_map(text, aliases)
