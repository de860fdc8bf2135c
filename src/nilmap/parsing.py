"""Text grammar for polynomials and maps, plus the canonical formatter.

Grammar: variables ``x1..xN`` (aliases ``x, y, z, w`` for N <= 4), integer or
``a/b`` rational literals, operators ``+ - * ^``, parentheses.  ``^`` binds
tighter than ``*``, which binds tighter than ``+``/``-``; there is no
implicit multiplication.  Whitespace is insignificant.

The tokenizer is one compiled regular expression.  The parser evaluates
straight into the stored form of `poly`, integer numerators over one
denominator: every grammar level returns a pair (term dict, denominator),
products go through `poly._product` and powers through `poly._power` (the
helpers behind ``Polynomial`` ``*`` and ``**``, with their ExponentOverflow
guard) on the numerators, and one `Polynomial` is built per parsed text.
Both are bounded before they run: a power by the estimated size of its
result (`MAX_POWER_BITS`), a product by its number of term pairs
(`MAX_PRODUCT_PAIRS`), with the term count of a power factor estimated,
so no power is computed for a product that the bound refuses.  A run of
digits longer than `MAX_DIGITS` is a ParseError, in polynomial text and in
JSON documents alike.

The formatter emits graded-lexicographically sorted terms, so equal
polynomials always format identically and ``format(parse(t))`` is a fixpoint
of ``parse``/``format``.
"""

from __future__ import annotations

import json
import re
from math import gcd, lcm
from typing import Sequence

from .errors import DimensionMismatch, ParseError
from .poly import (
    Polynomial,
    PolyMap,
    Terms,
    _B,
    _add_into,
    _grlex_terms,
    _power,
    _product,
    _reduced,
    _scaled,
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
# cannot demand unbounded work through products of powers either.  The
# term count of a factor p^k is the estimate of `_power_terms`, taken
# before p^k is computed.
MAX_PRODUCT_PAIRS = 1 << 21

# A run of more digits than this, in polynomial text or as a JSON integer,
# is a ParseError.  It is CPython's default limit for converting between
# int and str, so every number read can also be printed back.
MAX_DIGITS = 4300

# Each match is the whitespace before one token, then the token: an
# operator, an integer, a name (a word character, which must also be a
# letter, then ASCII digits), nothing at the end of the text, or any other
# character, which is an error.  Numbers and variable indices are ASCII
# digits: \d and str.isdigit also accept characters such as superscripts
# that int() rejects.
_TOKEN = re.compile(r"(\s*)([-+*^()/]|[0-9]+|\w[0-9]*|\Z|.)", re.DOTALL)
_OPERATORS = frozenset("+-*^()/")


def _negate(t: Terms) -> Terms:
    """Negate the coefficients of a term dict in place and return it."""
    for key, c in t.items():
        t[key] = -c
    return t


def _power_size(p: Terms, den: int, k: int, n: int) -> int:
    """An upper bound, in bits, on the size of p^k (k >= 1, p nonzero, in n
    variables, in stored form p / den): its term count times the bits of
    its largest coefficient.

    With D = den, the lcm of p's denominators, and S the sum of the
    numerators' |c|, every coefficient of p^k has numerator at most S^k and
    denominator at most D^k, so at most k times the bits of max(S, D).
    A monomial with coefficient 1 or -1 has the one-term power of 1 bit.
    The term count is `_power_terms`, cut off once the bound is past
    MAX_POWER_BITS.
    """
    if len(p) == 1 and den == 1 and abs(next(iter(p.values()))) == 1:
        return 1
    bits = k * max(sum(map(abs, p.values())), den).bit_length()
    return _power_terms(p, k, n, MAX_POWER_BITS // bits + 1) * bits


def _power_terms(p: Terms, k: int, n: int, limit: int) -> int:
    """An upper bound on the term count of p^k (k >= 0, p nonzero, in n
    variables), or limit + 1 once the bound exceeds limit: p^k has at most
    C(t - 1 + k, k) terms, the multisets of k of p's t terms, and at most
    C(n + k*d, n), the monomials of total degree at most k*d for
    d = deg p.  The cut-off keeps the estimate to a few dozen steps.
    """
    degree = max(p) >> (_B * n)
    return min(
        _binomial_at_most(len(p) - 1, k, limit),
        _binomial_at_most(n, k * degree, limit),
    )


def _binomial_at_most(a: int, b: int, limit: int) -> int:
    """C(a + b, a), or limit + 1 once it exceeds limit."""
    m, r = max(a, b), min(a, b)
    value = 1
    for i in range(1, r + 1):
        value = value * (m + i) // i
        if value > limit:
            return limit + 1
    return value


def _long_digits(count: int, line: int | None = None, column: int | None = None):
    return ParseError(
        f"a run of {count} digits is longer than the limit of {MAX_DIGITS}",
        line,
        column,
    )


# A token is a tuple (kind, value, line, column): kind is "int", "name",
# "end" or the operator itself, and line and column count from 1.
_Token = tuple[str, object, int, int]


def _tokenize(text: str) -> list[_Token]:
    """The tokens of text, and a final "end" token just past the last
    character."""
    tokens = []
    append = tokens.append
    # `pos` is the index of the next character, `start` that of the first
    # character of the current line.
    line, start, pos = 1, 0, 0
    for space, lexeme in _TOKEN.findall(text):
        if space:
            if "\n" in space:
                line += space.count("\n")
                start = pos + space.rindex("\n") + 1
            pos += len(space)
        if not lexeme:
            break
        col = pos - start + 1
        if lexeme in _OPERATORS:
            append((lexeme, lexeme, line, col))
        elif lexeme[0] in "0123456789":
            if len(lexeme) > MAX_DIGITS:
                raise _long_digits(len(lexeme), line, col)
            append(("int", int(lexeme), line, col))
        elif lexeme[0].isalpha():
            if len(lexeme) - 1 > MAX_DIGITS:
                raise _long_digits(len(lexeme) - 1, line, col)
            append(("name", lexeme, line, col))
        else:
            raise ParseError(f"unexpected character {lexeme[0]!r}", line, col)
        pos += len(lexeme)
    tokens.append(("end", None, line, len(text) - start + 1))
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
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", *tok[2:])
        return self.advance()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, *tok[2:])

    def parse(self) -> Polynomial:
        p = self.expression()
        if self.peek()[0] != "end":
            self.fail(f"trailing input starting at {self.peek()[1]!r}")
        return Polynomial._trusted(self.n, *_reduced(*p))

    # Each level returns a pair (terms, den): an integer term dict it owns
    # over a positive denominator.  Sums may hold cancelled zero
    # coefficients, and a denominator with a factor in common with all of
    # them, until `_reduced`; atoms, products and powers are in stored
    # form, so an empty dict is the zero polynomial and the overflow guard
    # sees the same degrees as the Polynomial operators would.

    def expression(self) -> tuple[Terms, int]:
        negative = self.signs()
        p, den = self.term()
        if negative:
            _negate(p)
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            q, qden = self.term()
            if op == "-":
                _negate(q)
            if qden != den:
                common = lcm(den, qden)
                if common != den:
                    p = _scaled(p, common // den)
                if common != qden:
                    q = _scaled(q, common // qden)
                den = common
            _add_into(p, q)
        return p, den

    def term(self) -> tuple[Terms, int]:
        negative, p, den, k = self.factor()
        while self.peek()[0] == "*":
            tok = self.advance()
            q_negative, q, qden, qk = self.factor()
            negative ^= q_negative
            a = len(p) if k == 1 else self.term_count(p, k)
            b = len(q) if qk == 1 else self.term_count(q, qk)
            if a * b > MAX_PRODUCT_PAIRS:
                raise ParseError(
                    f"product of {a} and {b} terms is too large: it "
                    f"multiplies more than {MAX_PRODUCT_PAIRS} pairs of terms",
                    *tok[2:],
                )
            if k != 1:
                p, den = self.power(p, den, k)
                k = 1
            if qk != 1:
                q, qden = self.power(q, qden, qk)
            p = _product(p, q, self.n)
            if den != 1 or qden != 1:
                p, den = _reduced(p, den * qden)
        if k != 1:
            p, den = self.power(p, den, k)
        return (_negate(p) if negative else p), den

    def factor(self) -> tuple[bool, Terms, int, int]:
        """(negative, p, den, k) for the factor -(p / den)^k when negative,
        (p / den)^k otherwise; the power is left to `term`, which bounds
        each product before it computes any power."""
        negative = self.signs()
        p, den = self.atom()
        if self.peek()[0] != "^":
            return negative, p, den, 1
        self.advance()
        tok = self.expect("int")
        k = tok[1]
        if p and k and _power_size(p, den, k, self.n) > MAX_POWER_BITS:
            raise ParseError(
                f"power with exponent {k} is too large: its result is "
                f"estimated beyond {MAX_POWER_BITS} bits",
                *tok[2:],
            )
        return negative, p, den, k

    def term_count(self, p: Terms, k: int) -> int:
        """The term count of p^k: exact for k = 0 and for p = 0, and the
        estimate of `_power_terms` otherwise."""
        if k == 0:
            return 1
        if not p:
            return 0
        return _power_terms(p, k, self.n, MAX_PRODUCT_PAIRS)

    def power(self, p: Terms, den: int, k: int) -> tuple[Terms, int]:
        """The stored form of (p / den)^k."""
        # The numerators' content is coprime to den, so by Gauss's lemma
        # that of the power is coprime to den^k.
        p = _power(p, k, self.n)
        return p, (den**k if p else 1)

    def signs(self) -> bool:
        """Consume a run of unary signs; True when it negates."""
        negative = False
        while self.peek()[0] in "+-":
            if self.advance()[0] == "-":
                negative = not negative
        return negative

    def atom(self) -> tuple[Terms, int]:
        tok = self.peek()
        if tok[0] == "(":
            self.advance()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING} levels",
                    *tok[2:],
                )
            p = _reduced(*self.expression())
            self.expect(")")
            self.depth -= 1
            return p
        if tok[0] == "int":
            self.advance()
            value, den = tok[1], 1
            if self.peek()[0] == "/":
                self.advance()
                den = self.expect("int")[1]
                if den == 0:
                    raise ParseError("zero denominator", *tok[2:])
                g = gcd(value, den)
                value, den = value // g, den // g
            return ({0: value}, den) if value else ({}, 1)
        if tok[0] == "name":
            self.advance()
            return {_unit(self.n, self.variable_index(tok)): 1}, 1
        self.fail(f"expected a number, variable or '(', found {tok[1]!r}")

    def variable_index(self, tok: _Token) -> int:
        name = tok[1]
        if name[0] == "x" and len(name) > 1 and name[1:].isdigit():
            i = int(name[1:])
            if not 1 <= i <= self.n:
                raise ParseError(
                    f"variable {name} out of range for dimension {self.n}",
                    *tok[2:],
                )
            return i
        if self.aliases and len(name) == 1 and name in self.aliases:
            i = self.aliases.index(name) + 1
            if i <= self.n:
                return i
        raise ParseError(f"unknown variable {name!r}", *tok[2:])


def _check_aliases(aliases: str | None) -> None:
    """Aliases name x1, x2, ... in order, so each must be a letter that no
    other alias repeats; anything else is a ParseError."""
    if aliases is not None and not (
        all(a.isalpha() for a in aliases) and len(set(aliases)) == len(aliases)
    ):
        raise ParseError(
            f"variable aliases must be distinct letters, got {aliases!r}"
        )


def parse_polynomial(
    text: str, n: int, aliases: str | None = DEFAULT_ALIASES
) -> Polynomial:
    """Parse a single polynomial in an n-variable ring."""
    _check_aliases(aliases)
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
    _check_aliases(aliases)
    if p.is_zero():
        return "0"
    if aliases is not None and p.n <= len(aliases):
        var_names = list(aliases[: p.n])
    else:
        var_names = [f"x{i}" for i in range(1, p.n + 1)]
    pieces = []
    for exps, num, den in _grlex_terms(p):
        mono = _format_monomial(exps, var_names)
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if not mono:
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if num > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if num > 0 else f"- {body}")
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


def _json_int(digits: str) -> int:
    if len(digits.lstrip("-")) > MAX_DIGITS:
        raise _long_digits(len(digits.lstrip("-")))
    return int(digits)


def read_json(text: str):
    """json.loads, with a JSON integer of more than MAX_DIGITS digits a
    ParseError instead of a ValueError from int()."""
    return json.loads(text, parse_int=_json_int)


def load_map_text(text: str, aliases: str | None = DEFAULT_ALIASES) -> PolyMap:
    """Load a map from raw file content: JSON document or ';'-separated text."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = read_json(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON map document: {exc}")
        return map_from_document(doc, aliases)
    return parse_map(text, aliases)
