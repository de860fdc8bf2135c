"""Text grammar for polynomials and maps, plus the canonical formatter.

Grammar: variables ``x1..xN`` (aliases ``x, y, z, w`` for N <= 4), integer or
``a/b`` rational literals, operators ``+ - * ^``, parentheses.  ``^`` binds
tighter than ``*``, which binds tighter than ``+``/``-``; there is no
implicit multiplication.  Whitespace is insignificant.  A map's components
are separated by ``;``.

Each parse call reads its text in one pass: one regular expression splits
all of it into tokens, a string of one-character kinds and a list of
lexemes.  Their offsets, and a line and column counted from the start of
the text, are found only for a ParseError.  The parser walks the tokens by
index into the stored form of `poly`, integer numerators over one
denominator.  The factors of a term of numbers and variables multiply by
adding packed keys, under the degree guard of ``Polynomial`` ``*``; a
parenthesized factor goes through `poly._product`, and every power through
`poly._power` (the helpers behind ``*`` and ``**``).  Both are bounded
before they run: a power by the estimated size of its result
(`MAX_POWER_BITS`), a product by its number of term pairs
(`MAX_PRODUCT_PAIRS`), with the term count of a power factor estimated, so
no power is computed for a product that the bound refuses.  Each bound
holds for one power or product and for their sum over one parse call.

The formatter emits graded-lexicographically sorted terms, so equal
polynomials always format identically and ``format(parse(t))`` is a fixpoint
of ``parse``/``format``.
"""

from __future__ import annotations

import json
import re
from math import gcd, lcm

from .errors import DimensionMismatch, ParseError
from .poly import Polynomial, PolyMap, Terms, _B, _LIMIT, _add_into, _grlex_terms
from .poly import _overflow, _power, _product, _reduced, _scaled, _unit

DEFAULT_ALIASES = "xyzw"

# Deeper parentheses are refused, far inside the interpreter's recursion limit.
MAX_NESTING = 100

# A power p^k is rejected before it is computed when the estimated size
# of its result, term count times coefficient bits, exceeds this many bits
# (see `_power_size`), alone or with the earlier powers of the same parse
# call, so a short input cannot demand unbounded work.
MAX_POWER_BITS = 1 << 20

# A product p * q is rejected before it is computed when it would multiply
# more than this many pairs of terms, len(p) * len(q), alone or with the
# earlier products of the same parse call, so a short input cannot demand
# unbounded work through products of powers either.  The term count of a
# factor p^k is the estimate of `_power_terms`, taken before p^k is computed.
MAX_PRODUCT_PAIRS = 1 << 21

# A run of more digits than this, in polynomial text or as a JSON integer,
# is a ParseError.  It is CPython's default limit for converting between
# int and str, so every number read can also be printed back.
MAX_DIGITS = 4300

# Each match is the whitespace before one token, then the token: an
# operator, an integer, a name (a word character, which must also be a
# letter, then ASCII digits), nothing at the end of the text, or any other
# character, which is an error unless it is a ';' between map components.
# Numbers and variable indices are ASCII digits: \d and str.isdigit also
# accept characters such as superscripts that int() rejects.
_TOKEN = re.compile(r"\s*([-+*^()/]|[0-9]+|\w[0-9]*|\Z|.)", re.DOTALL)

# A token's kind by its first character: an operator is its own kind, "N"
# is a number, "V" a name, ";" the separator of components and "$" the end
# of the text.  "!" is an error, whose lexeme `_tokenize` replaces by its
# message.
_KINDS = {c: c for c in "+-*^()/;"} | dict.fromkeys("0123456789", "N") | {"": "$"}
_KINDS |= dict.fromkeys("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", "V")


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


def _long_digits(count: int) -> str:
    return f"a run of {count} digits is longer than the limit of {MAX_DIGITS}"


def _tokenize(text: str, split: bool = False) -> tuple[str, list[str]]:
    """(kinds, lexemes) of the tokens of text and a final "$" token.  ';'
    is a token with split, else an error.  Errors are tokens too, so the
    components of a map before the first one still parse."""
    lexemes = _TOKEN.findall(text)
    if len(lexemes) > 1 and lexemes[-2] == "":
        del lexemes[-1]  # after trailing whitespace, the end matches twice
    kinds = "".join([_KINDS.get(s[:1], "!") for s in lexemes])
    too_long = max(map(len, lexemes)) > MAX_DIGITS
    if too_long or "!" in kinds or not split and ";" in kinds:
        marked = []
        for i, s in enumerate(lexemes):
            kind = _KINDS.get(s[:1]) or ("V" if s[0].isalpha() else "!")
            digits = len(s) - (kind == "V")
            if kind == "!" or kind == ";" and not split:
                kind, lexemes[i] = "!", f"unexpected character {s[0]!r}"
            elif kind in "NV" and digits > MAX_DIGITS:
                kind, lexemes[i] = "!", _long_digits(digits)
            marked.append(kind)
        kinds = "".join(marked)
    return kinds, lexemes


def _offsets(text: str) -> list[int]:
    """The offset in text of each token of `_tokenize`."""
    return [m.start(1) for m in _TOKEN.finditer(text)]


def _position(text: str, offset: int) -> tuple[int, int]:
    """The line and column, both from 1, of the character at offset."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Reader:
    """The parser of one call: its ring, n variables named x1..xn or by
    their aliases, and the work left in the call's budget.  A factor is a
    tuple (terms, den, k, size, token) whose power k, of estimated size,
    is still to be taken; a refusal points at the token, its exponent."""

    def __init__(self, n: int, aliases: str | None):
        self.n = n
        self.aliases = aliases if aliases is not None and n <= len(aliases) else ""
        self.keys: dict[str, int] = {}
        self.bits, self.pairs = MAX_POWER_BITS, MAX_PRODUCT_PAIRS

    def read(self, text: str, tokens, split: bool = False) -> list[Polynomial]:
        """The polynomial of all the tokens, or with split of each run of them
        between ';' tokens that is not empty."""
        self.text, (self.kinds, self.lexemes) = text, tokens
        bad, polys, start = self.kinds.find("!"), [], 0
        for piece in self.kinds[:-1].split(";") if split else [self.kinds[:-1]]:
            stop = start + len(piece)
            if piece or not split:
                if 0 <= bad < stop:
                    self.fail(self.lexemes[bad], bad)
                i, p, den = self.sum(start, 0)
                if i != stop:
                    self.fail(f"trailing input starting at {self.found(i)}", i)
                polys.append(Polynomial._trusted(self.n, *_reduced(p, den)))
            start = stop + 1
        return polys

    def fail(self, message: str, i: int):
        raise ParseError(message, *_position(self.text, _offsets(self.text)[i]))

    def found(self, i: int) -> str:
        kind, lexeme = self.kinds[i], self.lexemes[i]
        value = int(lexeme) if kind == "N" else lexeme
        return "end of input" if kind == "$" else repr(value)

    def expect(self, kind: str, i: int) -> None:
        if self.kinds[i] != ("N" if kind == "int" else kind):
            self.fail(f"expected {kind!r}, found {self.found(i)}", i)

    def sum(self, i: int, depth: int) -> tuple[int, Terms, int]:
        """(index after it, numerators, denominator) of the sum that starts
        at token i, inside depth parentheses.  The numerators may hold
        cancelled zeros, and a factor in common with the denominator."""
        if depth > MAX_NESTING:
            self.fail(f"parentheses nested deeper than {MAX_NESTING} levels", i - 1)
        kinds, lexemes, keys = self.kinds, self.lexemes, self.keys
        top, out, den, kind = _B * self.n, {}, 1, kinds[i]
        limit = _LIMIT << top
        while True:
            # A term's factors multiply left to right: into the monomial
            # (key, num, mden) while they are numbers and variables, from
            # the first parenthesized one on into the factor p.
            negative, key, num, mden, p, star = False, 0, 1, 1, None, None
            while True:  # one factor
                while kind in "+-":
                    negative ^= kind == "-"
                    i += 1
                    kind = kinds[i]
                if kind == "V":
                    fkey, fnum, fden = keys.get(lexemes[i]) or self.variable(i), 1, 1
                elif kind == "N":
                    fkey, fnum, fden = 0, int(lexemes[i]), 1
                    if kinds[i + 1] == "/":
                        self.expect("int", i + 2)
                        fden = int(lexemes[i + 2])
                        if not fden:
                            self.fail("zero denominator", i)
                        g = gcd(fnum, fden)
                        fnum, fden, i = fnum // g, fden // g, i + 2
                elif kind == "(":
                    i, q, qden = self.sum(i + 1, depth + 1)
                    self.expect(")", i)
                    fkey, f = None, (*_reduced(q, qden), 1, 0, 0)
                else:
                    found = self.found(i)
                    self.fail(f"expected a number, variable or '(', found {found}", i)
                i += 1
                kind = kinds[i]
                if kind == "^":
                    self.expect("int", i + 1)
                    k, e = int(lexemes[i + 1]), i + 1
                    i += 2
                    kind = kinds[i]
                    if fkey is None:
                        f = (f[0], f[1], k, self.size(f[0], f[1], k, e), e)
                    else:
                        m = {fkey: fnum} if fnum else {}
                        m, fden = self.power((m, fden, k, self.size(m, fden, k, e), e))
                        ((fkey, fnum),) = m.items() if m else ((0, 0),)
                if fkey is None:
                    if p is None and star is not None:
                        p = (*_reduced({key: num} if num else {}, mden), 1, 0, 0)
                    p = f if p is None else (*self.times(p, f, star), 1, 0, 0)
                elif p is not None:
                    f = ({fkey: fnum} if fnum else {}, fden, 1, 0, 0)
                    p = (*self.times(p, f, star), 1, 0, 0)
                elif num and fnum:
                    if key + fkey >= limit:
                        raise _overflow((key >> top) + (fkey >> top))
                    key, num, mden = key + fkey, num * fnum, mden * fden
                else:
                    num = 0
                if kind != "*":
                    break
                star, i = i, i + 1
                kind = kinds[i]
            if p is not None:
                q, qden = self.power(p)
                q = _scaled(q, -1) if negative else q
            else:
                q, num, qden = None, -num if negative else num, mden
                if mden != den:
                    g = gcd(num, mden)
                    num, qden = num // g, mden // g
            if qden != den:
                common = lcm(den, qden)
                if common != den:
                    out = _scaled(out, common // den)
                if q is None:
                    num *= common // qden
                elif common != qden:
                    q = _scaled(q, common // qden)
                den = common
            if q is None:
                out[key] = out.get(key, 0) + num
            else:
                _add_into(out, q)
            if kind not in "+-":
                return i, out, den

    def variable(self, i: int) -> int:
        """The key of the variable that token i names, kept for the call."""
        name = self.lexemes[i]
        if name[0] == "x" and len(name) > 1:
            index = int(name[1:])
            if not 1 <= index <= self.n:
                self.fail(f"variable {name} out of range for dimension {self.n}", i)
        else:
            index = self.aliases.find(name) + 1 if len(name) == 1 else 0
            if not 1 <= index <= self.n:
                self.fail(f"unknown variable {name!r}", i)
        key = self.keys[name] = _unit(self.n, index)
        return key

    def size(self, p: Terms, den: int, k: int, i: int) -> int:
        """The estimated bits of (p / den)^k, refused at token i past the cap."""
        size = _power_size(p, den, k, self.n) if p and k else 0
        if size > MAX_POWER_BITS:
            self.too_large(k, "its result is", i)
        return size

    def too_large(self, k: int, what: str, i: int):
        bound = f"estimated beyond {MAX_POWER_BITS} bits"
        self.fail(f"power with exponent {k} is too large: {what} {bound}", i)

    def power(self, f) -> tuple[Terms, int]:
        """The stored form of the factor f, charged to the bits budget."""
        p, den, k, size, i = f
        if k == 1:
            return p, den
        self.bits -= size
        if self.bits < 0:
            self.too_large(k, "together, this input's powers are", i)
        # The numerators' content is coprime to den, so by Gauss's lemma
        # that of the power is coprime to den^k.
        p = _power(p, k, self.n)
        return p, (den**k if p else 1)

    def times(self, f, g, i: int) -> tuple[Terms, int]:
        """The stored form of the product of the factors f and g, charged
        to the pairs budget before either power is taken, and refused at
        token i, the '*', past it."""
        a, b = self.count(f), self.count(g)
        self.pairs -= a * b
        if self.pairs < 0:
            what = "it multiplies" if a * b > MAX_PRODUCT_PAIRS else (
                "together, this input's products multiply")
            bound = f"more than {MAX_PRODUCT_PAIRS} pairs of terms"
            self.fail(f"product of {a} and {b} terms is too large: {what} {bound}", i)
        (p, den), (q, qden) = self.power(f), self.power(g)
        p = _product(p, q, self.n)
        return _reduced(p, den * qden) if den != 1 or qden != 1 else (p, den)

    def count(self, f) -> int:
        """The term count of the factor f, estimated for a power."""
        p, _, k, _, _ = f
        if k == 1 or k == 0 or not p:
            return len(p) if k == 1 else int(k == 0)
        return _power_terms(p, k, self.n, MAX_PRODUCT_PAIRS)


def _check_aliases(aliases: str | None) -> None:
    """Aliases name x1, x2, ... in order, so each must be a letter that no
    other alias repeats; anything else is a ParseError."""
    if aliases is not None and not (
        all(a.isalpha() for a in aliases) and len(set(aliases)) == len(aliases)
    ):
        raise ParseError(f"variable aliases must be distinct letters, got {aliases!r}")


def parse_polynomial(
    text: str, n: int, aliases: str | None = DEFAULT_ALIASES
) -> Polynomial:
    """Parse a single polynomial in an n-variable ring."""
    _check_aliases(aliases)
    return _Reader(n, aliases).read(text, _tokenize(text))[0]


def parse_components(
    text: str, n: int | None = None, aliases: str | None = DEFAULT_ALIASES,
    count: int | None = None,
) -> list[Polynomial]:
    """The ';'-separated components of text that are not blank, in n
    variables, by default one per component; with count, exactly that many."""
    _check_aliases(aliases)
    tokens = _tokenize(text, split=True)
    found = len([piece for piece in tokens[0][:-1].split(";") if piece])
    if count is not None and found != count:
        raise ParseError(f"expected {count} components, found {found}")
    if not found:
        raise ParseError("empty map text")
    return _Reader(found if n is None else n, aliases).read(text, tokens, split=True)


def parse_map(text: str, aliases: str | None = DEFAULT_ALIASES) -> PolyMap:
    """Parse ';'-separated components; the component count fixes the dimension."""
    return PolyMap(parse_components(text, aliases=aliases))


def format_polynomial(
    p: Polynomial, aliases: str | None = DEFAULT_ALIASES
) -> str:
    """Canonical text form: graded-lex descending terms."""
    _check_aliases(aliases)
    return _format(p, aliases)


def _format(p: Polynomial, aliases: str | None) -> str:
    """`format_polynomial`, for aliases already checked."""
    if p.is_zero():
        return "0"
    if aliases is not None and p.n <= len(aliases):
        var_names = list(aliases[: p.n])
    else:
        var_names = [f"x{i}" for i in range(1, p.n + 1)]
    pieces = []
    for exps, num, den in _grlex_terms(p):
        mono = "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip(var_names, exps) if e
        )
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
        sign = ("" if num > 0 else "-") if not pieces else ("+ " if num > 0 else "- ")
        pieces.append(sign + body)
    return " ".join(pieces)


def format_map(f: PolyMap, aliases: str | None = DEFAULT_ALIASES) -> str:
    _check_aliases(aliases)
    return "; ".join(_format(p, aliases) for p in f.components)


def map_to_document(f: PolyMap, aliases: str | None = DEFAULT_ALIASES) -> dict:
    """JSON-ready document {"n": ..., "components": [...]}."""
    _check_aliases(aliases)
    return {"n": f.dimension, "components": [_format(p, aliases) for p in f.components]}


def map_from_document(doc: dict, aliases: str | None = DEFAULT_ALIASES) -> PolyMap:
    """The map of a document {"n": ..., "components": [...]}, read in one
    parse call; error positions count from the start of each component."""
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
    _check_aliases(aliases)
    read = _Reader(n, aliases).read
    return PolyMap([read(c, _tokenize(c))[0] for c in components])


def _json_int(digits: str) -> int:
    if len(digits.lstrip("-")) > MAX_DIGITS:
        raise ParseError(_long_digits(len(digits.lstrip("-"))))
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
