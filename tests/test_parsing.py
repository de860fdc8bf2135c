"""Unit tests for the expression parser and the formatter."""

from fractions import Fraction

import pytest

from nilmap import (
    ParseError,
    Polynomial,
    format_map,
    format_polynomial,
    load_map_text,
    map_from_document,
    map_to_document,
    parse_map,
    parse_polynomial,
)


class TestParsing:
    def test_single_variable(self):
        assert parse_polynomial("x", 3) == Polynomial.variable(3, 1)
        assert parse_polynomial("z", 3) == Polynomial.variable(3, 3)

    def test_integer_and_rational_literals(self):
        assert parse_polynomial("7", 1) == Polynomial.const(1, 7)
        assert parse_polynomial("3/4", 1) == Polynomial.const(1, Fraction(3, 4))

    def test_precedence_power_binds_tightest(self):
        p = parse_polynomial("2*x^3 + 1", 1)
        assert p.coefficient((3,)) == 2
        assert p.coefficient((0,)) == 1

    def test_unary_minus(self):
        assert parse_polynomial("-x + y", 2) == parse_polynomial("y - x", 2)
        assert parse_polynomial("-2*x", 1) == Polynomial.variable(1, 1).scale(-2)

    def test_parentheses(self):
        p = parse_polynomial("(x + y)^2", 2)
        assert p == parse_polynomial("x^2 + 2*x*y + y^2", 2)

    def test_nested_expression(self):
        p = parse_polynomial("((x - 1)*(x + 1) + 1)", 1)
        assert p == parse_polynomial("x^2", 1)

    def test_whitespace_insensitive(self):
        assert parse_polynomial("  x +\n2*y ", 2) == parse_polynomial("x+2*y", 2)

    def test_custom_aliases(self):
        p = parse_polynomial("t*z", 2, aliases="tz")
        assert p == Polynomial.variable(2, 1) * Polynomial.variable(2, 2)

    @pytest.mark.parametrize("aliases", ["xx", "x y", "1y", "xyzwxyzw", "x_"])
    def test_aliases_must_be_distinct_letters(self, aliases):
        x = Polynomial.variable(2, 1)
        for call in (
            lambda: parse_polynomial("x", 2, aliases=aliases),
            lambda: parse_map("x; y", aliases=aliases),
            lambda: load_map_text('{"n": 2, "components": ["x", "y"]}', aliases),
            lambda: format_polynomial(x, aliases),
        ):
            with pytest.raises(ParseError, match="distinct letters"):
                call()

    def test_no_aliases(self):
        assert parse_polynomial("x2", 2, aliases="") == Polynomial.variable(2, 2)
        assert parse_polynomial("x2", 2, aliases=None) == Polynomial.variable(2, 2)
        assert format_polynomial(Polynomial.variable(2, 2), "") == "x2"

    def test_indexed_names_for_wide_rings(self):
        p = parse_polynomial("x1 + x5", 5)
        assert p == Polynomial.variable(5, 1) + Polynomial.variable(5, 5)


class TestParseErrors:
    @pytest.mark.parametrize(
        "bad",
        ["x +", "(x", "x y", "^2", "x^", "", "x ** 2", "q", "x4"],
    )
    def test_rejected_inputs(self, bad):
        with pytest.raises(ParseError):
            parse_polynomial(bad, 3)

    @pytest.mark.parametrize(
        "bad", ["\u00b9", "x\u00b2", "x^\u00b2", "x\u2081", "\u0663"]
    )
    def test_non_ascii_digits_are_parse_errors(self, bad):
        # Superscripts, subscripts and other Unicode digits are not numbers
        # of the grammar; int() rejects some of them, so they must not reach it.
        with pytest.raises(ParseError):
            parse_polynomial(bad, 3)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_polynomial("x + $", 3)
        assert info.value.column > 0

    def test_message_forms(self):
        with pytest.raises(ParseError) as info:
            parse_polynomial("x +\n  $", 3)
        assert str(info.value) == "unexpected character '$' (line 2, column 3)"
        assert (info.value.line, info.value.column) == (2, 3)
        with pytest.raises(ParseError) as info:
            map_from_document({"n": 1.5, "components": ["x"]})
        assert str(info.value) == (
            "malformed map document: n must be an integer, got 1.5"
        )
        assert info.value.line is None and info.value.column is None
        with pytest.raises(ParseError) as info:
            parse_map(" ; ")
        assert str(info.value) == "empty map text"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x +", "expected a number, variable or '(', found end of input"),
            ("(x", "expected ')', found end of input"),
            ("x^", "expected 'int', found end of input"),
            ("x^y", "expected 'int', found 'y'"),
            ("(x 3", "expected ')', found 3"),
        ],
    )
    def test_what_was_found_instead(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, 3)
        assert str(info.value).startswith(message + " (line 1, column")

    def test_map_positions_count_from_the_start_of_the_text(self):
        # A component ends at its ';', which is what the parser finds there.
        for text, message in [
            ("x;\ny;\nz + (x", "expected ')', found end of input (line 3, column 7)"),
            ("x; y +;\n z", "found ';' (line 1, column 7)"),
            ("x;\n\n y + $; z", "unexpected character '$' (line 3, column 6)"),
            ("x; 1/0;\ny", "zero denominator (line 1, column 4)"),
            ("x; y\n  w", "trailing input starting at 'w' (line 2, column 3)"),
        ]:
            with pytest.raises(ParseError) as info:
                parse_map(text)
            assert message in str(info.value), text

    def test_json_components_keep_their_own_positions(self):
        with pytest.raises(ParseError) as info:
            map_from_document({"n": 2, "components": ["x", "y +\n $"]})
        assert (info.value.line, info.value.column) == (2, 2)

    def test_components_before_an_error_token_are_read_first(self):
        # The whole text is tokenized at once, but an error in a component
        # is raised only when the parser reaches that component.
        with pytest.raises(ParseError, match="unknown variable 'q'"):
            parse_map("q; x $ y")

    def test_components_with_a_count_and_a_ring(self):
        from nilmap.parsing import parse_components

        polys = parse_components("x; y;\n ; x*y; 0", 2, count=4)
        assert [p.n for p in polys] == [2] * 4
        with pytest.raises(ParseError, match="expected 4 components, found 3"):
            parse_components("x; y; z +", 2, count=4)
        with pytest.raises(ParseError, match="expected 4 components, found 0"):
            parse_components(" ; ", 2, count=4)

    def test_budget_is_one_per_parse_call(self, monkeypatch):
        from nilmap import parsing

        # (x + y)^3 is estimated at 4 terms of 6 bits, (x + y) * (x + y)
        # multiplies 4 pairs: one of each fits these bounds, two do not.
        monkeypatch.setattr(parsing, "MAX_POWER_BITS", 40)
        monkeypatch.setattr(parsing, "MAX_PRODUCT_PAIRS", 6)
        assert parse_polynomial("(x + y)^3", 2) == parse_polynomial("(x + y)^3", 2)
        with pytest.raises(ParseError) as info:
            parse_polynomial("(x + y)^3 - (x + y)^3", 2)
        assert str(info.value) == (
            "power with exponent 3 is too large: together, this input's powers "
            "are estimated beyond 40 bits (line 1, column 21)"
        )
        with pytest.raises(ParseError, match="together, this input's powers"):
            map_from_document({"n": 2, "components": ["(x + y)^3", "(x + y)^3"]})
        with pytest.raises(ParseError) as info:
            parse_map("(x + y)*(x + y); (x - y)*(x - y)")
        assert str(info.value) == (
            "product of 2 and 2 terms is too large: together, this input's "
            "products multiply more than 6 pairs of terms (line 1, column 25)"
        )
        with pytest.raises(ParseError, match="2 and 4 terms .* it multiplies"):
            parse_polynomial("(x + y)*(x + y + 1 + x*y)", 2)

    def test_out_of_range_variable(self):
        with pytest.raises(ParseError):
            parse_polynomial("z", 2)

    def test_deep_nesting_is_a_parse_error(self):
        from nilmap.parsing import MAX_NESTING

        ok = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert parse_polynomial(ok, 3) == Polynomial.variable(3, 1)
        for depth in (MAX_NESTING + 1, 3000):
            with pytest.raises(ParseError) as info:
                parse_polynomial("(" * depth + "x" + ")" * depth, 3)
            assert info.value.column == MAX_NESTING + 1


class TestFormatting:
    def test_graded_lex_descending(self):
        p = parse_polynomial("1 + x + x^2*y", 3)
        assert format_polynomial(p) == "x^2*y + x + 1"

    def test_signs_and_rationals(self):
        p = parse_polynomial("-x + 1/2*y - 3", 2)
        assert format_polynomial(p) == "-x + 1/2*y - 3"

    def test_zero(self):
        assert format_polynomial(Polynomial.zero(2)) == "0"

    def test_unit_coefficients_hidden(self):
        p = parse_polynomial("x*y - y^2", 2)
        assert format_polynomial(p) == "x*y - y^2"

    def test_wide_ring_names(self):
        p = Polynomial.variable(5, 4)
        text = format_polynomial(p)
        assert parse_polynomial(text, 5) == p

    def test_round_trip(self):
        for text in ["x^3 - 2*x*y + 1/2*y + z^4 - 1", "x*y*z", "0", "-7/3"]:
            p = parse_polynomial(text, 3)
            assert parse_polynomial(format_polynomial(p), 3) == p


class TestMapSerialization:
    def test_parse_map_dimension_from_component_count(self):
        F = parse_map("x + y; y; 0")
        assert F.dimension == 3
        assert F.components[2].is_zero()

    def test_parse_map_rejects_empty(self):
        with pytest.raises(ParseError):
            parse_map(" ; ;")

    def test_format_map_golden(self):
        F = parse_map("(z*x + y)^2; -z*(z*x+y)^2; 0")
        assert (
            format_map(F)
            == "x^2*z^2 + 2*x*y*z + y^2; "
            "-x^2*z^3 - 2*x*y*z^2 - y^2*z; 0"
        )

    def test_document_round_trip(self):
        F = parse_map("x + 1/3*y^2; y - z; z")
        doc = map_to_document(F)
        assert doc["n"] == 3
        assert len(doc["components"]) == 3
        assert map_from_document(doc) == F

    def test_load_map_text_json_and_plain(self):
        import json

        F = parse_map("x + y; y")
        assert load_map_text("x + y; y") == F
        assert load_map_text(json.dumps(map_to_document(F))) == F

    def test_document_rejects_wrong_component_count(self):
        from nilmap import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            map_from_document({"n": 3, "components": ["x", "y"]})

    def test_document_rejects_missing_keys(self):
        with pytest.raises(ParseError):
            map_from_document({"components": ["x"]})

    @pytest.mark.parametrize(
        "components", [[5], ["x", None], [["x"]], "x", {"x": 1}, 5]
    )
    def test_document_rejects_non_string_components(self, components):
        with pytest.raises(ParseError):
            map_from_document({"n": 1, "components": components})

    @pytest.mark.parametrize("n", [1.9, True, 1.0, "1", None])
    def test_document_rejects_non_integer_n(self, n):
        with pytest.raises(ParseError, match="n must be an integer"):
            map_from_document({"n": n, "components": ["x"]})

    def test_document_accepts_integer_n(self):
        assert map_from_document({"n": 2, "components": ["y", "0"]}) == parse_map("y; 0")
