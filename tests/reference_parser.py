"""The operator-based polynomial parser, kept as a differential reference.

`nilmap.parsing` evaluates straight into packed term dicts.  This parser
reads the same token stream and follows the same grammar, but builds every
value through the public `Polynomial` operators (`+`, `-`, `*`, `scale`,
`const`, `variable`), and takes powers by its own square-and-multiply over
`*`.  It shares with the parser under test only the product behind `*`
(`poly._product`), which `test_poly` checks against a tuple-key product.
"""

from fractions import Fraction

from nilmap.errors import ParseError
from nilmap.parsing import DEFAULT_ALIASES, MAX_NESTING, _tokenize
from nilmap.poly import Polynomial


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
        self.tokens = _tokenize(text)
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
