"""Differential test of the term-dict parser against the operator-based one.

`reference_parser.py` keeps the parser that builds every value through the
public `Polynomial` operators, and the character-by-character tokenizer.
On every input both must give an equal polynomial, and the term-dict
parser's must hold the stored-form invariant; or both must raise the same
exception class with the same message, line and column.  The inputs are
drawn from grammar tokens, including the edge cases of the grammar, of the
exponent overflow guard and of the digit-run bound, and derandomized, so
every run draws the same inputs.  The tokenizers are also compared token
for token on arbitrary text and on every code point below U+3000.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from nilmap.parsing import MAX_DIGITS, _tokenize, parse_polynomial
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


def tokens(tokenize, text):
    try:
        return [tuple(t) for t in tokenize(text)]
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


@differential
@given(st.text(max_size=30))
@example("x \r\n y\x85z\u2028 \n")
@example("x1  ")
@example("\n\n")
def test_tokenizer_matches_reference(text):
    assert tokens(_tokenize, text) == tokens(ref_tokenize, text)


def test_tokenizer_on_code_points():
    for cp in range(0x3000):
        for text in (chr(cp), f"x{chr(cp)}2 +\n {chr(cp)}"):
            assert tokens(_tokenize, text) == tokens(ref_tokenize, text), cp
