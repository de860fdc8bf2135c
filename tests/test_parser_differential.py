"""Differential test of the term-dict parser against the operator-based one.

`reference_parser.py` keeps the parser that builds every value through the
public `Polynomial` operators, and the character-by-character tokenizer.
On every input both must give an equal polynomial, and the term-dict
parser's must hold the stored-form invariant; or both must raise the same
exception class with the same message, line and column.  The inputs are
drawn from grammar tokens, including the edge cases of the grammar, of the
exponent overflow guard and of the digit-run bound, and derandomized, so
every run draws the same inputs.  Map texts, with blank parts and over
several lines, are compared component by component: the whole text must
parse to the reference's components, or raise the first component's error
at its line and column in the text.  The tokenizers are also compared
token for token on arbitrary text and on every code point below U+3000.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from nilmap.errors import ParseError
from nilmap.parsing import (
    MAX_DIGITS,
    _offsets,
    _position,
    _tokenize,
    parse_components,
    parse_map,
    parse_polynomial,
)
from reference_parser import ref_parse_polynomial, ref_tokenize
from stored_form import assert_clean

differential = settings(max_examples=400, derandomize=True, deadline=None)

# Big exponents come only as whole tokens on a single variable, so no draw
# raises a sum with several terms to a power in the thousands.
TOKENS = [
    "x", "y", "z", "w", "x1", "x2", "x3", "x4", "x5", "x0", "v",
    "+", "-", "*", "^", "^0", "^1", "^2", "(", ")", "/",
    "0", "1", "2", "10", "4/2", "0/3", "1/0", "1/2", "2/3",
    "x^65535*x", "x^65535", "x^65536", "y^65535",
    "٣", "²", "x₁", "\n", " ", "\t", "$",
    "1" * MAX_DIGITS, "9" * (MAX_DIGITS + 1), "x" + "1" * MAX_DIGITS,
]

ATOMS = ["x", "y", "z", "x1", "x3", "0", "1", "3", "4/2", "0/3", "1/2", "x^65535"]


def expressions():
    def grow(children):
        return st.one_of(
            st.tuples(children, st.sampled_from([" + ", " - ", "*"]), children).map(
                "".join
            ),
            children.map(lambda c: f"({c})"),
            st.tuples(children, st.sampled_from(["^0", "^1", "^2", "^3"])).map(
                lambda t: f"({t[0]}){t[1]}"
            ),
            children.map(lambda c: f"-{c}"),
        )

    return st.recursive(st.sampled_from(ATOMS), grow, max_leaves=10)


def outcome(parse, text, n):
    try:
        return parse(text, n), None
    except Exception as exc:  # the class and message are what is compared
        return None, exc


def check_same(text, n):
    got, error = outcome(parse_polynomial, text, n)
    want, ref_error = outcome(ref_parse_polynomial, text, n)
    if ref_error is None:
        assert error is None, (text, n, error)
        assert got == want, (text, n)
        assert_clean(got)
    else:
        assert type(error) is type(ref_error), (text, n, error, ref_error)
        assert str(error) == str(ref_error)
        for attr in ("line", "column"):
            assert getattr(error, attr, None) == getattr(ref_error, attr, None)


@differential
@given(st.lists(st.sampled_from(TOKENS), max_size=16).map("".join), st.integers(1, 5))
@example("x^65535*x", 1)
@example("x^65536", 2)
@example("(x - x)*x^65535*x", 2)
@example("0*x^65535*x", 1)
@example("(x^65535 + y - x^65535)*x", 2)
@example("4/2*x - 0/3 + 1/2*2", 3)
@example("x^0 + (x + y)^0 + 1/0", 2)
@example("x\n + ²", 1)
@example("x +\n\n  ٣", 1)
@example("((x)) * (y", 2)
@example("x + \n  " + "7" * (MAX_DIGITS + 1), 1)
@example("x" + "0" * (MAX_DIGITS + 1), 1)
def test_token_strings(text, n):
    check_same(text, n)


@differential
@given(expressions(), st.integers(1, 4))
def test_grammar_expressions(text, n):
    check_same(text, n)


@pytest.mark.parametrize(
    "text",
    ["-(x + y)^2 - 3/6*x*2 + 4/2 - -z", "--x*-y", "(x - y)^3 - (y - x)^3", "1/3*3*x"],
)
def test_known_values(text):
    check_same(text, 3)


# The parts of a map text: blank ones, and token strings of both grammars.
BLANKS = ["", " ", "\n", " \t\n ", "\u2028", "\x1c"]
PARTS = st.one_of(
    st.sampled_from(BLANKS),
    st.lists(st.sampled_from(TOKENS), max_size=8).map("".join),
)
PLANE = ["x", "y", "x1", "x2", "x3", "z", "+", "-", "*", "^2", "(", ")", "1/2", "$"]
PLANE_PARTS = st.one_of(
    st.sampled_from(BLANKS),
    st.lists(st.sampled_from(PLANE + ["\n", " "]), max_size=8).map("".join),
)


def moved(error, text, start, ended_by_separator):
    """The error of the component of text that starts at offset start, as
    the whole text raises it: at the text's line and column, and finding
    the ';' after the component where the component alone ends."""
    if not isinstance(error, ParseError) or error.line is None:
        return error
    message = str(error).rsplit(" (line ", 1)[0]
    if ended_by_separator:
        message = message.replace("found end of input", "found ';'")
    line = text.count("\n", 0, start) + error.line
    column = error.column
    if error.line == 1:
        column += start - text.rfind("\n", 0, start) - 1
    return ParseError(message, line, column)


def expected_map(text, n=None, count=None):
    """(components, None) as the reference parses the ';'-separated parts
    of text that are not blank, or (None, the error of the first part that
    fails), with the dimension n, by default the number of such parts."""
    segments = text.split(";")
    found = sum(1 for segment in segments if segment.strip())
    if count is not None and found != count:
        return None, ParseError(f"expected {count} components, found {found}")
    if not found:
        return None, ParseError("empty map text")
    polys, start = [], 0
    for i, segment in enumerate(segments):
        if segment.strip():
            p, error = outcome(ref_parse_polynomial, segment, n or found)
            if error is not None:
                return None, moved(error, text, start, i < len(segments) - 1)
            polys.append(p)
        start += len(segment) + 1
    return polys, None


def check_map(text, parse, n=None, count=None):
    got, error = outcome(lambda t, _: list(parse(t)), text, None)
    want, ref_error = expected_map(text, n, count)
    if ref_error is None:
        assert error is None, (text, error)
        assert got == want, text
        for p in got:
            assert_clean(p)
    else:
        assert type(error) is type(ref_error), (text, error, ref_error)
        assert str(error) == str(ref_error)
        for attr in ("line", "column"):
            assert getattr(error, attr, None) == getattr(ref_error, attr, None)


@differential
@given(st.lists(PARTS, min_size=1, max_size=6).map(";".join))
@example("x;\ny;\nz + (x")
@example("x; y +;\n z")
@example(" ;\n; x*y - 1/2;\u2028;\n (x + y)^2 ")
@example("q; x $ y")
@example("x;\n\n ; y; z^65536; 1/0")
def test_map_matches_its_components(text):
    check_map(text, lambda t: parse_map(t).components)


@differential
@given(st.lists(PLANE_PARTS, min_size=3, max_size=5).map(";".join))
@example("x; y;\nx*y;\nx + $")
@example("x; y;\n  0;\n (y")
@example("x; y; 0; 0; 0")
@example("x3; y; 0;\n0")
def test_keller4d_components(text):
    check_map(text, lambda t: parse_components(t, 2, count=4), n=2, count=4)


def ref_tokens(text):
    try:
        return [tuple(t) for t in ref_tokenize(text)]
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


KIND_NAMES = {"N": "int", "V": "name", "$": "end"}


def one_pass_tokens(text):
    """The tokens of `_tokenize` as the reference's (kind, value, line,
    column) tuples, or the class and message of the first error token."""
    kinds, lexemes = _tokenize(text)
    offsets = _offsets(text)
    out = []
    for kind, lexeme, offset in zip(kinds, lexemes, offsets):
        position = _position(text, offset)
        if kind == "!":
            return ParseError, str(ParseError(lexeme, *position))
        value = int(lexeme) if kind == "N" else None if kind == "$" else lexeme
        out.append((KIND_NAMES.get(kind, kind), value, *position))
    return out


@differential
@given(st.text(max_size=30))
@example("x \r\n y\x85z\u2028 \n")
@example("x1  ")
@example("\n\n")
def test_tokenizer_matches_reference(text):
    assert one_pass_tokens(text) == ref_tokens(text)


def test_tokenizer_on_code_points():
    for cp in range(0x3000):
        for text in (chr(cp), f"x{chr(cp)}2 +\n {chr(cp)}"):
            assert one_pass_tokens(text) == ref_tokens(text), cp
