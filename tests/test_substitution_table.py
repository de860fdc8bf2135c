"""The substitution kernel expands each distinct monomial once per call.

`poly._substitute` keeps a table from monomial to its expanded image for
the length of one call.  The cost tests count `poly._product` calls, since a
test cannot time anything reliably: composing a map whose components share
one support must cost what substituting into one of them costs.  The
differential tests compare the table's results with `ref_substitute`, which
multiplies every term out on its own through public Fraction dicts.
"""

from fractions import Fraction

import pytest

from nilmap import LinearMap, PolyMap, Polynomial, RationalMatrix, analysis, conjugate, poly
from nilmap.errors import ExponentOverflow
from stored_form import assert_clean
from test_poly import ref_substitute


def P(text, n=3):
    from nilmap import parse_polynomial

    return parse_polynomial(text, n)


@pytest.fixture
def product_calls(monkeypatch):
    """The list of (len(a), len(b)) of every `poly._product` call."""
    calls = []
    product = poly._product

    def counted(a, b, n):
        calls.append((len(a), len(b)))
        return product(a, b, n)

    monkeypatch.setattr(poly, "_product", counted)
    return calls


SUPPORT = "x^2*y + x*y*z + y^2*z + z^3 + x*z + y^2 + x"
IMAGES = [P("x + 2*y - z"), P("1/2*y + z^2"), P("x*y - 1/3*z + 1")]


class TestCost:
    def test_shared_support_costs_one_component(self, product_calls):
        p = P(SUPPORT)
        F = PolyMap([p, p.scale(Fraction(-2, 3)), P("-x^2*y + 5*x*y*z + y^2*z - 2*z^3 + 1/2*x*z + 3*y^2 - x")])
        G = PolyMap(IMAGES)
        del product_calls[:]
        p.substitute(dict(enumerate(IMAGES, 1)))
        single = len(product_calls)
        assert single > 0
        del product_calls[:]
        F.compose(G)
        assert len(product_calls) == single

    def test_conjugate_substitutes_once(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("conjugate must not take this path")

        monkeypatch.setattr(PolyMap, "compose", forbidden)
        monkeypatch.setattr(poly, "_combination", forbidden)
        monkeypatch.setattr(analysis, "_combination", forbidden)
        substitutions = []
        kernel = poly._substitute

        def counted(polys, n, images, m):
            substitutions.append(len(polys))
            return kernel(polys, n, images, m)

        # raising=False: a conjugate that does not substitute directly
        # fails on the forbidden paths, not on this patch.
        monkeypatch.setattr(analysis, "_substitute", counted, raising=False)
        H = PolyMap([P(SUPPORT), P("x*y"), P("z^2 - x")])
        T = LinearMap(RationalMatrix([[1, 2, 0], [0, 1, Fraction(1, 2)], [3, 0, 1]]))
        conjugate(H, T)
        assert substitutions == [3]


class TestTable:
    def test_monomial_under_different_denominators(self):
        # x^2*y sits in every component, over 3, 35 and 2; the images
        # lie over 2, 3 and 1, so d = 6 and every term is rescaled.
        F = PolyMap([P("1/3*x^2*y + z"), P("2/5*x^2*y - 1/7*y"), P("5/2*x^2*y + x*z^2")])
        images = [P("1/2*x + y"), P("2/3*y - x^2"), P("x*z + 1")]
        for got, f in zip(F.compose(PolyMap(images)), F):
            assert_clean(got)
            assert got == ref_substitute(f, images)

    def test_zero_and_constant_components(self):
        F = PolyMap([Polynomial.zero(3), P("-7/4"), P("x*y - 1/2*z^2 + 3")])
        images = [P("1/2*x - y"), P("0"), P("3/5*z + x^2")]
        got = F.compose(PolyMap(images))
        assert got[0].is_zero() and got[0].terms == {}
        assert got[1] == P("-7/4")
        for g, f in zip(got, F):
            assert_clean(g)
            assert g == ref_substitute(f, images)


class TestOverflow:
    def test_guard_holds_for_expansions_from_the_table(self):
        # x and y come back from the table as the images themselves; their
        # product has total degree 40000 + 30000 and must still raise.
        x, y = Polynomial.monomial(2, (40000, 0)), Polynomial.monomial(2, (0, 30000))
        with pytest.raises(ExponentOverflow):
            PolyMap([P("x + y", 2), P("x*y", 2)]).compose(PolyMap([x, y]))
        with pytest.raises(ExponentOverflow):
            PolyMap([P("x*y + x", 2), P("x*y", 2)]).compose(PolyMap([x, y]))

    def test_table_does_not_outlive_its_call(self):
        # The same map first under images whose products fit, then under
        # images that overflow: the second call expands x*y again and
        # raises, and a third call is exact again.
        F = PolyMap([P("x*y + x", 2), P("x*y", 2)])
        small = PolyMap([P("x^2", 2), P("y^3", 2)])
        assert F.compose(small) == PolyMap([P("x^2*y^3 + x^2", 2), P("x^2*y^3", 2)])
        big = PolyMap([Polynomial.monomial(2, (40000, 0)), Polynomial.monomial(2, (0, 30000))])
        with pytest.raises(ExponentOverflow):
            F.compose(big)
        assert F.compose(small) == PolyMap([P("x^2*y^3 + x^2", 2), P("x^2*y^3", 2)])
