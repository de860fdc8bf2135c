"""The operator-based polynomial parser, kept as a differential reference.

`nilmap.parsing` evaluates straight into packed term dicts.  This parser
reads the same token stream and follows the same grammar, but builds every
value through the public `Polynomial` operators (`+`, `-`, `*`, `scale`,
`const`, `variable`), and takes powers by its own square-and-multiply over
`*`.  It reads the text with `ref_tokenize`, the character-by-character
tokenizer that `nilmap.parsing` used before its regular expression.  It
shares with the parser under test only the product behind `*`
(`poly._product`), which `test_poly` checks against a tuple-key product.
"""

from fractions import Fraction
from typing import NamedTuple

from nilmap.errors import ParseError
from nilmap.parsing import DEFAULT_ALIASES, MAX_DIGITS, MAX_NESTING
from nilmap.poly import Polynomial

_DIGITS = "0123456789"


class _Token(NamedTuple):
    """A token, equal to the plain tuple `nilmap.parsing` gives."""

    kind: str
    value: object
    line: int
    column: int


def _digit_run(text, i):
    """The index just past the run of ASCII digits starting at i."""
    j = i
    while j < len(text) and text[j] in _DIGITS:
        j += 1
    return j


def ref_tokenize(text):
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
        if ch in _DIGITS or ch.isalpha():
            start = i if ch in _DIGITS else i + 1
            j = _digit_run(text, start)
            if j - start > MAX_DIGITS:
                raise ParseError(
                    f"a run of {j - start} digits is longer than the limit of "
                    f"{MAX_DIGITS}",
                    line,
                    col,
                )
            if ch in _DIGITS:
                tokens.append(_Token("int", int(text[i:j]), line, col))
            else:
                tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", None, line, col))
    return tokens


def ref_power(p, k):
    result = Polynomial.const(p.n, 1)
    base = p
    while k:
        if k & 1:
            result = result * base
        base = base * base if k > 1 else base
        k >>= 1
    return result


class RefParser:
    def __init__(self, text, n, aliases):
        self.tokens = ref_tokenize(text)
        self.pos = 0
        self.depth = 0
        self.n = n
        self.aliases = aliases

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.value!r}", tok.line, tok.column
            )
        return self.advance()

    def fail(self, message):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    def parse(self):
        p = self.expression()
        if self.peek().kind != "end":
            self.fail(f"trailing input starting at {self.peek().value!r}")
        return p

    def expression(self):
        sign = 1
        while self.peek().kind in "+-":
            if self.advance().kind == "-":
                sign = -sign
        p = self.term().scale(sign)
        while self.peek().kind in "+-":
            op = self.advance().kind
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self):
        p = self.factor()
        while self.peek().kind == "*":
            self.advance()
            p = p * self.factor()
        return p

    def factor(self):
        sign = 1
        while self.peek().kind in "+-":
            if self.advance().kind == "-":
                sign = -sign
        p = self.atom()
        if self.peek().kind == "^":
            self.advance()
            p = ref_power(p, self.expect("int").value)
        return p.scale(sign)

    def atom(self):
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
            p = self.expression()
            self.expect(")")
            self.depth -= 1
            return p
        if tok.kind == "int":
            self.advance()
            num = tok.value
            if self.peek().kind == "/":
                self.advance()
                den = self.expect("int").value
                if den == 0:
                    raise ParseError("zero denominator", tok.line, tok.column)
                return Polynomial.const(self.n, Fraction(num, den))
            return Polynomial.const(self.n, num)
        if tok.kind == "name":
            self.advance()
            return Polynomial.variable(self.n, self.variable_index(tok))
        self.fail(f"expected a number, variable or '(', found {tok.value!r}")

    def variable_index(self, tok):
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


def ref_parse_polynomial(text, n, aliases=DEFAULT_ALIASES):
    if aliases is not None and n > len(aliases):
        aliases = None
    return RefParser(text, n, aliases).parse()
