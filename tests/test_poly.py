"""Unit tests for the exact polynomial and map arithmetic core."""

import random
from fractions import Fraction

import pytest

from nilmap import NilmapError, PolyMap, Polynomial, univariate_gcd
from nilmap.errors import DimensionMismatch, ExponentOverflow, InexactValue, ShapeError
import stored_form as ref
from stored_form import assert_clean, ref_mul_into, stored_terms


def P(text, n=3):
    from nilmap import parse_polynomial

    return parse_polynomial(text, n)


class TestConstruction:
    def test_zero_is_zero(self):
        assert Polynomial.zero(2).is_zero()
        assert Polynomial.zero(2).total_degree() == -1

    def test_zero_coefficients_are_dropped(self):
        p = Polynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert p.terms == {(0, 1): Fraction(2)}

    def test_const_and_constant_value(self):
        c = Polynomial.const(3, Fraction(5, 2))
        assert c.is_constant()
        assert c.constant_value() == Fraction(5, 2)
        assert c.total_degree() == 0

    def test_variable(self):
        y = Polynomial.variable(3, 2)
        assert y.terms == {(0, 1, 0): Fraction(1)}
        with pytest.raises(ShapeError):
            Polynomial.variable(3, 4)

    def test_monomial(self):
        m = Polynomial.monomial(2, (1, 2), 3)
        assert m.coefficient((1, 2)) == 3
        assert m.total_degree() == 3

    def test_immutability(self):
        p = Polynomial.variable(2, 1)
        with pytest.raises(AttributeError):
            p.n = 5
        # `terms` hands out a copy, not the internal dict
        p.terms[(0, 1)] = Fraction(7)
        assert p == Polynomial.variable(2, 1)


class TestFloatRejection:
    def test_constructor(self):
        with pytest.raises(InexactValue):
            Polynomial(1, {(1,): 0.1})

    def test_const(self):
        with pytest.raises(InexactValue):
            Polynomial.const(2, 0.5)

    def test_monomial(self):
        with pytest.raises(InexactValue):
            Polynomial.monomial(2, (1, 0), 2.0)

    def test_scale(self):
        with pytest.raises(InexactValue):
            P("x").scale(0.1)

    def test_arithmetic_with_a_float(self):
        with pytest.raises(InexactValue):
            P("x") + 0.5
        with pytest.raises(InexactValue):
            0.5 * P("x")

    def test_is_a_nilmap_error(self):
        assert issubclass(InexactValue, NilmapError)

    def test_exact_inputs_still_accepted(self):
        p = Polynomial(1, {(1,): 1, (2,): Fraction(1, 3), (3,): "1/10"})
        assert p.terms == {
            (1,): Fraction(1),
            (2,): Fraction(1, 3),
            (3,): Fraction(1, 10),
        }


def random_rational_poly(rng, n, max_degree=3, terms=5):
    out = {}
    for _ in range(terms):
        exps = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(n)] += 1
        out[tuple(exps)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Polynomial(n, out)


# Reference operations: plain dict arithmetic, results built through the
# validating public constructor only.

def ref_add(p, q, sign=1):
    out = dict(p.terms)
    for e, c in q.terms.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return Polynomial(p.n, out)


def ref_mul(p, q):
    out = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return Polynomial(p.n, out)


def ref_substitute(p, images):
    m = images[0].n
    acc = Polynomial(m, {})
    for exps, coeff in p.terms.items():
        term = Polynomial(m, {(0,) * m: coeff})
        for image, e in zip(images, exps):
            for _ in range(e):
                term = ref_mul(term, image)
        acc = ref_add(acc, term)
    return acc


def ref_exact_div(p, divisor):
    """The division through public operators: one public Polynomial per
    quotient term, the remainder rebuilt at every step."""
    if divisor.is_zero():
        raise NilmapError("division by the zero polynomial")
    quotient = Polynomial.zero(p.n)
    rem = p
    de, dc = divisor.leading_term()
    while not rem.is_zero():
        re, rc = rem.leading_term()
        qe = tuple(a - b for a, b in zip(re, de))
        if any(e < 0 for e in qe):
            raise NilmapError("polynomial division is not exact")
        t = Polynomial.monomial(p.n, qe, rc / dc)
        quotient = quotient + t
        rem = rem - t * divisor
    return quotient


class TestTrustedInvariant:
    """Seeded property tests: results built through the trusted path hold
    the term-dict invariant and equal a term-by-term reference, including
    inputs whose terms cancel exactly."""

    SEEDS = range(12)

    def pair(self, seed):
        rng = random.Random(seed)
        n = rng.choice([1, 2, 3, 4])
        return rng, n, random_rational_poly(rng, n), random_rational_poly(rng, n)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_add_sub_neg(self, seed):
        _, _, p, q = self.pair(seed)
        for got, want in [
            (p + q, ref_add(p, q)),
            (p - q, ref_add(p, q, -1)),
            (-p, ref_add(Polynomial(p.n, {}), p, -1)),
            (p + (-p), Polynomial(p.n, {})),
            (p - p, Polynomial(p.n, {})),
            ((p + q) - q, p),
        ]:
            assert_clean(got)
            assert got == want

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mul(self, seed):
        _, _, p, q = self.pair(seed)
        for got, want in [
            (p * q, ref_mul(p, q)),
            (p * q - q * p, Polynomial(p.n, {})),
            ((p + q) * (p - q), ref_add(ref_mul(p, p), ref_mul(q, q), -1)),
            (p * Polynomial(p.n, {}), Polynomial(p.n, {})),
        ]:
            assert_clean(got)
            assert got == want

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scale_and_partial(self, seed):
        rng, n, p, _ = self.pair(seed)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        got = p.scale(c)
        assert_clean(got)
        assert got == Polynomial(n, {e: c * v for e, v in p.terms.items()})
        for i in range(1, n + 1):
            got = p.partial(i)
            assert_clean(got)
            want = {}
            for e, v in p.terms.items():
                if e[i - 1]:
                    d = list(e)
                    d[i - 1] -= 1
                    want[tuple(d)] = v * e[i - 1]
            assert got == Polynomial(n, want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_substitute_and_compose(self, seed):
        rng, n, p, _ = self.pair(seed)
        images = [random_rational_poly(rng, n, 2, 3) for _ in range(n)]
        if n > 1:
            # x1 -> x2 and x2 -> -x1 make the terms of x1*x2-type products
            # meet with opposite signs.
            images[0] = Polynomial.variable(n, 2)
            images[1] = -Polynomial.variable(n, 1)
        got = p.substitute({i + 1: q for i, q in enumerate(images)})
        assert_clean(got)
        assert got == ref_substitute(p, images)
        F = PolyMap([random_rational_poly(rng, n) for _ in range(n)])
        G = PolyMap(images)
        composed = F.compose(G)
        for got, f in zip(composed, F):
            assert_clean(got)
            assert got == ref_substitute(f, images)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_minus_identity(self, seed):
        rng, n, _, _ = self.pair(seed)
        F = PolyMap([random_rational_poly(rng, n) for _ in range(n)])
        identity = PolyMap.identity(n)
        got = F.minus_identity()
        for p in got:
            assert_clean(p)
        assert got == F - identity

    def test_substitute_cancels_to_zero(self):
        p = P("x*y - y*z", 3)
        got = p.substitute({1: P("z"), 3: P("x")})
        assert_clean(got)
        assert got == P("y*z - x*y", 3)
        got = P("x - z", 3).substitute({1: P("y"), 3: P("y")})
        assert got.is_zero() and got.terms == {}


class TestExactDivReference:
    """exact_div on term dicts against the operator-based division, on
    seeded exact products (rational and integer coefficients) and on
    dividends with a remainder."""

    @staticmethod
    def outcome(divide, p, d):
        try:
            return divide(p, d), None
        except NilmapError as exc:
            return None, str(exc)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_reference(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            n = rng.randint(1, 4)
            q = random_rational_poly(rng, n, 3, rng.randint(1, 5))
            d = random_rational_poly(rng, n, 2, rng.randint(1, 4))
            if rng.random() < 0.5:
                # Integer coefficients take the int path of the division.
                q = Polynomial(n, {e: c.numerator for e, c in q.terms.items()})
                d = Polynomial(n, {e: c.numerator for e, c in d.terms.items()})
            r = random_rational_poly(rng, n, 2, rng.randint(1, 3))
            for p in (q * d, q * d + r, r, Polynomial.zero(n)):
                got, error = self.outcome(Polynomial.exact_div, p, d)
                want, ref_error = self.outcome(ref_exact_div, p, d)
                assert error == ref_error
                if error is None:
                    assert_clean(got)
                    assert got == want
                    if p == q * d and not d.is_zero():
                        assert got == q


class TestStoredForm:
    """A polynomial is stored as integer numerators over one denominator,
    which is 1 also when a Fraction product or sum turns out integral; the
    public accessors return Fractions whatever the stored form."""

    def test_integral_fraction_products_are_demoted(self):
        half_x = Polynomial.monomial(2, (1, 0), Fraction(1, 2))
        for got in [
            half_x * 2,
            2 * half_x,
            half_x + half_x,
            half_x * Polynomial.monomial(2, (0, 1), Fraction(2)),
            Polynomial.monomial(2, (1, 0), 3).scale(Fraction(1, 3)),
            Polynomial.monomial(2, (1, 0), Fraction(1, 3)).scale(3),
            Polynomial.monomial(2, (2, 0), Fraction(1, 2)).partial(1),
            Polynomial.monomial(2, (2, 0), Fraction(1, 2)).substitute(
                {1: Polynomial.variable(2, 2).scale(2)}
            ),
        ]:
            assert_clean(got)
            assert got._den == 1

    def test_constructor_normalizes(self):
        p = Polynomial(2, {(1, 0): Fraction(4, 2), (0, 1): True, (0, 0): "3/6"})
        assert_clean(p)
        assert stored_terms(p) == {(1, 0): 2, (0, 1): 1, (0, 0): Fraction(1, 2)}
        assert_clean(Polynomial.const(2, Fraction(6, 3)))
        assert_clean(Polynomial.monomial(2, (1, 1), Fraction(-5, 1)))

    def test_public_accessors_return_fractions(self):
        p = P("3*x^2 - y + 1/2")
        assert_clean(p)
        assert p.terms[(2, 0, 0)] == 3
        assert type(p.coefficient((0, 0, 1))) is Fraction
        assert type(P("x").constant_value()) is Fraction
        assert p.leading_term() == ((2, 0, 0), Fraction(3))
        assert set(p.monomials()) == set(p.terms)

    def test_equality_and_hash_ignore_the_stored_form(self):
        a = Polynomial.monomial(1, (1,), Fraction(1, 2)) * 2
        b = Polynomial(1, {(1,): Fraction(1)})
        assert a == b == Polynomial.variable(1, 1)
        assert hash(a) == hash(b)
        assert Polynomial.const(1, 3) == 3 == Polynomial.const(1, Fraction(3))

    def test_integrate_of_integers_is_exact(self):
        got = P("x^2*y + 3*z").integrate(1)
        assert_clean(got)
        assert got == P("1/3*x^3*y + 3*x*z")
        assert stored_terms(got)[(3, 1, 0)] == Fraction(1, 3)

    def test_exact_div_of_integers_is_exact(self):
        got = P("2*x^2 - 2*y^2").exact_div(P("4*x - 4*y"))
        assert_clean(got)
        assert got == P("1/2*x + 1/2*y")

    def test_univariate_gcd_of_integers_is_exact(self):
        x = Polynomial.variable(1, 1)
        one = Polynomial.const(1, 1)
        p = (x.scale(2) + one.scale(3)) * (x + one)
        q = (x.scale(2) + one.scale(3)) * x.scale(5)
        g = univariate_gcd(p, q)
        assert_clean(g)
        assert g == x + Polynomial.const(1, Fraction(3, 2))


def rational_poly(rng, n, terms=4, max_degree=3):
    """Up to `terms` terms with coefficients of denominators 1-9, so that
    some polynomials are integral and some sums and products cancel or
    reduce."""
    out = {}
    for _ in range(rng.randint(0, terms)):
        exps = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(n)] += 1
        out[tuple(exps)] = Fraction(
            rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6, 9])
        )
    return Polynomial(n, out)


class TestRationalReference:
    """Seeded differential test of every Polynomial operation on rational
    inputs against the tuple-key, Fraction-valued references of
    `stored_form`.  `stored_terms` also asserts that every result is in
    stored form: integer numerators over one coprime denominator."""

    SEEDS = range(40)

    def setup(self, seed):
        rng = random.Random(5000 + seed)
        n = rng.randint(1, 4)
        p, q = rational_poly(rng, n), rational_poly(rng, n)
        if seed % 5 == 0:
            # A shared rational factor, so that sums cancel and products
            # and quotients reduce.
            q = q + p.scale(Fraction(rng.randint(1, 4), rng.randint(2, 5)))
        return rng, n, p, q

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ring_operations(self, seed):
        rng, n, p, q = self.setup(seed)
        a, b = stored_terms(p), stored_terms(q)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        for got, want in [
            (p + q, ref.ref_add(a, b)),
            (p - q, ref.ref_add(a, b, -1)),
            (-p, ref.ref_scale(a, -1)),
            (p - p, {}),
            (p * q, ref.ref_mul(a, b)),
            (p**0, ref.ref_pow(a, 0, n)),
            (p**3, ref.ref_pow(a, 3, n)),
            (p.scale(c), ref.ref_scale(a, c)),
            (p + c, ref.ref_add(a, {(0,) * n: c})),
        ]:
            assert stored_terms(got) == want

    @pytest.mark.parametrize("seed", SEEDS)
    def test_calculus_and_structure(self, seed):
        rng, n, p, _ = self.setup(seed)
        a = stored_terms(p)
        i = rng.randint(1, n)
        subset = rng.sample(range(1, n + 1), rng.randint(1, n))
        assert stored_terms(p.partial(i)) == ref.ref_partial(a, i)
        assert stored_terms(p.integrate(i)) == ref.ref_integrate(a, i)
        assert stored_terms(p.truncate(2)) == ref.ref_truncate(a, 2)
        got = [stored_terms(part) for part in p.coefficients_in(i)]
        assert got == ref.ref_coefficients_in(a, i)
        variables = sorted(p.variables_used() | set(subset))
        rng.shuffle(variables)
        if variables:
            got = p.restrict(variables)
            assert stored_terms(got) == ref.ref_restrict(a, variables)
        m = n + rng.randint(0, 2)
        positions = rng.sample(range(1, m + 1), n)
        assert stored_terms(p.lift(m, positions)) == ref.ref_lift(a, m, positions)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_substitute_and_compose(self, seed):
        rng, n, p, _ = self.setup(seed)
        m = rng.randint(1, 3)
        images = [rational_poly(rng, m, terms=3, max_degree=2) for _ in range(n)]
        want = ref.ref_substitute(stored_terms(p), [stored_terms(g) for g in images], m)
        got = p.substitute(dict(enumerate(images, 1)))
        assert stored_terms(got) == want
        F = PolyMap([rational_poly(rng, n, terms=3, max_degree=2) for _ in range(n)])
        G = PolyMap([rational_poly(rng, n, terms=3, max_degree=2) for _ in range(n)])
        images = [stored_terms(g) for g in G]
        for got, f in zip(F.compose(G), F):
            assert stored_terms(got) == ref.ref_substitute(stored_terms(f), images, n)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_exact_div(self, seed):
        rng, n, p, q = self.setup(seed)
        if q.is_zero():
            return
        a, b = stored_terms(p), stored_terms(q)
        assert stored_terms((p * q).exact_div(q)) == a
        want = ref.ref_exact_div(a, b)
        if want is None:
            with pytest.raises(NilmapError):
                p.exact_div(q)
        else:
            assert stored_terms(p.exact_div(q)) == want

    @pytest.mark.parametrize("seed", SEEDS)
    def test_univariate_gcd(self, seed):
        rng = random.Random(7000 + seed)
        g, u, v = (rational_poly(rng, 1, terms=3) for _ in range(3))
        a, b = g * u, g * v
        want = ref.ref_univariate_gcd(stored_terms(a), stored_terms(b))
        assert stored_terms(univariate_gcd(a, b)) == want


class TestPackedKeys:
    """The packed product loop against the tuple-key reference, the
    accessors that decode keys, and the overflow guard at its edges."""

    LIMIT = 2**16

    @pytest.mark.parametrize("seed", range(12))
    def test_mul_into_matches_tuple_reference(self, seed):
        from nilmap.poly import _mul_into, _reduced

        rng = random.Random(seed)
        n = rng.randint(1, 7)
        p = random_rational_poly(rng, n, rng.randint(0, 5), rng.randint(1, 8))
        q = random_rational_poly(rng, n, rng.randint(0, 5), rng.randint(1, 8))
        got = {}
        _mul_into(got, p._terms, q._terms, n)
        got = Polynomial._trusted(n, *_reduced(got, p._den * q._den))
        want = {}
        ref_mul_into(want, stored_terms(p), stored_terms(q))
        assert stored_terms(got) == {e: c for e, c in want.items() if c}
        assert_clean(got)

    def test_accessors_decode_keys(self):
        p = P("x^3*z - 2*y^2*z^4 + 5", 4)
        assert p.total_degree() == 6
        assert [p.degree_in(i) for i in (1, 2, 3, 4)] == [3, 2, 4, 0]
        assert p.variables_used() == {1, 2, 3}
        assert sorted(p.monomials()) == sorted(p.terms)
        assert p.coefficient((0, 2, 4, 0)) == -2
        assert p.coefficient((0, 0, 0, 0)) == 5
        # Exponent tuples that no stored key can hold have coefficient 0.
        for exps in [(0, 2, 4), (-1, 0, 0, 0), (self.LIMIT, 0, 0, 0)]:
            assert p.coefficient(exps) == 0
        assert P("7", 4).is_constant() and Polynomial.zero(4).is_constant()
        assert not P("x", 4).is_constant()
        assert p.leading_term() == ((0, 2, 4, 0), Fraction(-2))

    def test_degree_limit_is_accepted(self):
        top = self.LIMIT - 1
        for p in [
            Polynomial.monomial(1, (top,)),
            Polynomial.monomial(3, (1, top - 2, 1), 5),
            Polynomial.monomial(1, (top - 1,)) * Polynomial.variable(1, 1),
            Polynomial.variable(1, 1) ** top,
            Polynomial.monomial(2, (top - 1, 0)).integrate(2),
            Polynomial.monomial(1, (top,)).lift(3, [2]),
        ]:
            assert_clean(p)
            assert p.total_degree() == top
        assert Polynomial.monomial(1, (top,)).partial(1) == Polynomial.monomial(
            1, (top - 1,), top
        )

    def test_constructor_rejects_degree_at_limit(self):
        with pytest.raises(ExponentOverflow):
            Polynomial.monomial(1, (self.LIMIT,))
        with pytest.raises(ExponentOverflow):
            Polynomial(2, {(40000, 30000): 1})
        with pytest.raises(ExponentOverflow):
            Polynomial(3, {(0, 0, 1): 1, (self.LIMIT + 5, 0, 0): 2})
        with pytest.raises(ExponentOverflow):
            Polynomial.monomial(2, (2**70, 0))

    def test_products_reaching_the_limit_raise(self):
        top = self.LIMIT - 1
        x, y = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
        with pytest.raises(ExponentOverflow):
            Polynomial.monomial(2, (top, 0)) * x
        # Each field would fit, but the total degree would not.
        with pytest.raises(ExponentOverflow):
            Polynomial.monomial(2, (40000, 0)) * Polynomial.monomial(2, (0, 30000))
        with pytest.raises(ExponentOverflow):
            x ** self.LIMIT
        with pytest.raises(ExponentOverflow):
            (x**40000 + y) * (y**30000 + 1)
        with pytest.raises(ExponentOverflow):
            Polynomial.monomial(2, (top, 0)).integrate(1)
        with pytest.raises(ExponentOverflow):
            P("x^2", 2).substitute({1: Polynomial.monomial(2, (0, 40000))})

    def test_overflow_is_a_nilmap_error(self):
        assert issubclass(ExponentOverflow, NilmapError)


class TestNonNumericOperands:
    """Arithmetic with a non-number is Python's TypeError, not an internal
    AttributeError."""

    def test_add_none(self):
        p = Polynomial.variable(1, 1)
        with pytest.raises(TypeError):
            p + None
        with pytest.raises(TypeError):
            None + p

    def test_mul_str(self):
        with pytest.raises(TypeError):
            Polynomial.variable(1, 1) * "a"

    def test_sub_str(self):
        p = Polynomial.variable(1, 1)
        with pytest.raises(TypeError):
            "a" - p
        with pytest.raises(TypeError):
            p - "a"


class TestArithmetic:
    def test_add_sub(self):
        p = P("x + 2*y")
        q = P("x - 2*y")
        assert p + q == P("2*x")
        assert p - p == Polynomial.zero(3)

    def test_mul(self):
        assert P("x + y") * P("x - y") == P("x^2 - y^2")

    def test_pow(self):
        assert P("x + 1") ** 3 == P("x^3 + 3*x^2 + 3*x + 1")
        assert P("x") ** 0 == Polynomial.const(3, 1)

    def test_scale(self):
        assert P("2*x").scale(Fraction(1, 2)) == P("x")
        assert P("x").scale(0).is_zero()

    def test_neg(self):
        assert -P("x - y") == P("y - x")

    def test_mixed_arity_rejected(self):
        with pytest.raises(DimensionMismatch):
            P("x", 2) + P("x", 3)

    def test_rational_coefficients_stay_exact(self):
        p = Polynomial.monomial(1, (1,), Fraction(1, 3))
        assert (p + p + p) == Polynomial.variable(1, 1)


class TestCalculus:
    def test_partial(self):
        p = P("x^2*y + z^3")
        assert p.partial(1) == P("2*x*y")
        assert p.partial(2) == P("x^2")
        assert p.partial(3) == P("3*z^2")

    def test_mixed_partials_commute(self):
        p = P("x^3*y^2*z + x*y - z^4")
        assert p.partial(1).partial(2) == p.partial(2).partial(1)

    def test_integrate_then_partial(self):
        p = P("x^2*y + 3*z")
        assert p.integrate(2).partial(2) == p

    def test_integrate_golden(self):
        assert P("2*x").integrate(1) == P("x^2")


class TestSubstitution:
    def test_identity_substitution(self):
        p = P("x^2 + y*z")
        bindings = {i: Polynomial.variable(3, i) for i in (1, 2, 3)}
        assert p.substitute(bindings) == p

    def test_point_evaluation(self):
        p = P("x^2 + y")
        val = p.substitute(
            {
                1: Polynomial.const(3, 2),
                2: Polynomial.const(3, -1),
                3: Polynomial.zero(3),
            }
        )
        assert val == Polynomial.const(3, 3)

    def test_composition(self):
        p = P("x^2")
        assert p.substitute({1: P("x + y")}) == P("x^2 + 2*x*y + y^2")

    def test_substitution_is_a_ring_morphism(self):
        p, q = P("x*y + z"), P("x - z^2")
        b = {1: P("y + 1"), 2: P("x*z"), 3: P("z - y")}
        assert (p * q).substitute(b) == p.substitute(b) * q.substitute(b)
        assert (p + q).substitute(b) == p.substitute(b) + q.substitute(b)


class TestStructure:
    def test_degree_in(self):
        p = P("x^2*z + y^3")
        assert p.degree_in(1) == 2
        assert p.degree_in(2) == 3
        assert p.degree_in(3) == 1
        assert Polynomial.zero(3).degree_in(1) == -1

    def test_variables_used(self):
        assert P("x*z + 1").variables_used() == {1, 3}

    def test_coefficients_in_reconstruct(self):
        p = P("x^2*z^2 + y*z + x - 4")
        coeffs = p.coefficients_in(3)
        z = Polynomial.variable(3, 3)
        acc = Polynomial.zero(3)
        for k, c in enumerate(coeffs):
            assert 3 not in c.variables_used()
            acc = acc + c * z ** k
        assert acc == p

    def test_truncate(self):
        p = P("x^3 + x*y + z")
        assert p.truncate(2) == P("x*y + z")
        assert p.truncate(10) == p
        assert p.truncate(0).is_zero()

    def test_restrict_lift_round_trip(self):
        p = P("x^2 + x*z + z^3")
        r = p.restrict([1, 3])
        assert r.n == 2
        assert r.lift(3, [1, 3]) == p

    def test_restrict_rejects_used_variable_outside_selection(self):
        with pytest.raises(NilmapError):
            P("x*y").restrict([1])

    def test_restrict_rejects_repeated_variables(self):
        # x restricted to [1, 1] would be x*y in two variables.
        with pytest.raises(NilmapError, match="repeated"):
            P("x").restrict([1, 1])

    @pytest.mark.parametrize("variables", [[0, 1], [1, 4]])
    def test_restrict_rejects_out_of_range_variables(self, variables):
        with pytest.raises(NilmapError, match="out of range"):
            P("x").restrict(variables)

    def test_lift_rejects_repeated_positions(self):
        # x + 2*y lifted to [1, 1] would merge both variables into x.
        with pytest.raises(NilmapError, match="repeated"):
            P("x + 2*y", 2).lift(2, [1, 1])

    @pytest.mark.parametrize("positions", [[0, 1], [1, 3]])
    def test_lift_rejects_out_of_range_positions(self, positions):
        with pytest.raises(NilmapError, match="out of range"):
            P("x + 2*y", 2).lift(2, positions)

    def test_leading_term_graded_lex(self):
        p = P("x*y^2 + x^2*y + z^3")
        exps, coeff = p.leading_term()
        assert exps == (2, 1, 0)
        assert coeff == 1
        with pytest.raises(NilmapError):
            Polynomial.zero(2).leading_term()

    def test_exact_div(self):
        p = P("x^2 - y^2")
        assert p.exact_div(P("x - y")) == P("x + y")
        with pytest.raises(NilmapError):
            P("x^2 + 1").exact_div(P("x + y"))
        with pytest.raises(NilmapError):
            P("x").exact_div(Polynomial.zero(3))

    def test_div_mul_round_trip(self):
        p, q = P("x*y + z^2"), P("x - 2*y + 1")
        assert (p * q).exact_div(q) == p


class TestUnivariateGcd:
    def test_common_factor(self):
        x = Polynomial.variable(1, 1)
        p = (x + Polynomial.const(1, 1)) * x
        q = (x + Polynomial.const(1, 1)) * (x - Polynomial.const(1, 2))
        g = univariate_gcd(p, q)
        assert g == x + Polynomial.const(1, 1)

    def test_result_is_monic(self):
        x = Polynomial.variable(1, 1)
        g = univariate_gcd(x.scale(4), x.scale(6))
        assert g == x

    def test_coprime(self):
        x = Polynomial.variable(1, 1)
        g = univariate_gcd(x + Polynomial.const(1, 1), x)
        assert g == Polynomial.const(1, 1)


class TestPolyMap:
    def test_identity(self):
        F = PolyMap.identity(3)
        assert F.is_identity()
        assert F.dimension == 3

    def test_compose_golden(self):
        from nilmap import parse_map

        F = parse_map("x + y^2; y")
        G = parse_map("x - y^2; y")
        assert F.compose(G).is_identity()
        assert G.compose(F).is_identity()

    def test_compose_not_commutative(self):
        from nilmap import parse_map

        F = parse_map("x + y^2; y")
        G = parse_map("x; y + x^2")
        assert F.compose(G) != G.compose(F)

    def test_add_sub_zero(self):
        from nilmap import parse_map

        F = parse_map("x + y; y")
        assert (F - F).is_zero()
        assert F + PolyMap.zero(2) == F

    @pytest.mark.parametrize(
        "text",
        [
            # x's coefficient 1 cancels exactly; y's is 2/3 over den 6
            "x + 1/2*y^2 - 1/3*z; 2/3*y + 5/6*x*z; 0",
            # the zero component, then x_i alone, then x_i and a constant
            "0; y; z - 7/4",
            "1/2*x - 3/5*y^3; 3/7*x + y; 2*z + 1/9*x*y",
        ],
    )
    def test_minus_identity(self, text):
        from nilmap import parse_map

        F = parse_map(text)
        identity = PolyMap.identity(3)
        got = F.minus_identity()
        for p in got:
            assert_clean(p)
        assert got == F - identity

    def test_value_at_zero(self):
        from nilmap import parse_map

        F = parse_map("x + 1; y - 2")
        assert F.value_at_zero() == [1, -2]

    def test_max_total_degree_and_truncate(self):
        from nilmap import parse_map

        F = parse_map("x^3 + y; y")
        assert F.max_total_degree() == 3
        assert F.truncate(1) == parse_map("y; y")

    def test_dimension_checks(self):
        with pytest.raises(NilmapError):
            PolyMap([Polynomial.variable(2, 1), Polynomial.variable(3, 1)])
