"""Unit tests for exact rational and polynomial linear algebra."""

import random
from fractions import Fraction

import pytest

from nilmap import (
    LinearMap,
    NilmapError,
    PolyMatrix,
    Polynomial,
    elementary_permutation,
    elementary_row_add,
    kernel,
    parse_polynomial,
    poly_det,
    poly_matrix_rank,
    principal_minor_sum,
    sigma_polynomials,
)
from nilmap import generators, jacobian
from nilmap.errors import InexactValue, ShapeError
from nilmap.linalg import RationalMatrix, _det_bareiss, _det_cofactor


def Q(rows):
    return RationalMatrix([[Fraction(v) for v in row] for row in rows])


class TestRationalMatrix:
    def test_identity(self):
        assert Q([[1, 0], [0, 1]]).is_identity()
        assert RationalMatrix.identity(3).is_identity()

    def test_multiplication_golden(self):
        a = Q([[1, 2], [3, 4]])
        b = Q([[0, 1], [1, 0]])
        assert a * b == Q([[2, 1], [4, 3]])

    def test_inverse_round_trip(self):
        m = Q([[2, 1], [1, 1]])
        assert (m * m.inverse()).is_identity()
        assert (m.inverse() * m).is_identity()

    def test_inverse_golden(self):
        m = Q([[2, 0], [0, 4]])
        assert m.inverse() == Q([["1/2", 0], [0, "1/4"]])

    def test_singular_raises(self):
        with pytest.raises(NilmapError):
            Q([[1, 2], [2, 4]]).inverse()

    def test_apply(self):
        m = Q([[1, 2], [0, 1]])
        assert m.apply([Fraction(1), Fraction(1)]) == [Fraction(3), Fraction(1)]

    def test_transpose(self):
        assert Q([[1, 2], [3, 4]]).transpose() == Q([[1, 3], [2, 4]])

    def test_rref_pivots(self):
        m = Q([[0, 1, 2], [0, 2, 4]])
        reduced, pivots = m.rref()
        assert pivots == [1]
        assert reduced == Q([[0, 1, 2], [0, 0, 0]])

    def test_json_round_trip(self):
        m = Q([["1/2", 3], [-1, 0]])
        assert RationalMatrix.from_json(m.to_json()) == m


class TestFloatRejection:
    def test_rational_matrix(self):
        with pytest.raises(InexactValue):
            RationalMatrix([[1, 0.5], [0, 1]])

    def test_from_json(self):
        with pytest.raises(InexactValue):
            RationalMatrix.from_json([[0.5, 0], [0, 1]])

    def test_exact_entries_still_accepted(self):
        m = RationalMatrix([[1, "1/3"], [Fraction(2, 5), 0]])
        assert m.entries == (
            (Fraction(1), Fraction(1, 3)),
            (Fraction(2, 5), Fraction(0)),
        )


class TestKernel:
    def test_trivial_kernel(self):
        assert kernel(Q([[1, 0], [0, 1]])) == []

    def test_kernel_vectors_annihilate(self):
        m = Q([[1, 2, 3], [2, 4, 6]])
        basis = kernel(m)
        assert len(basis) == 2
        for v in basis:
            assert m.apply(v) == [Fraction(0)] * 2

    def test_kernel_golden(self):
        basis = kernel(Q([[1, 1, 1]]))
        assert len(basis) == 2
        for v in basis:
            assert sum(v) == 0


class TestLinearMap:
    def test_validates_inverse_pair(self):
        m = Q([[2, 0], [0, 1]])
        with pytest.raises(NilmapError):
            LinearMap(m, Q([[1, 0], [0, 1]]))

    def test_compose_and_invert(self):
        a = LinearMap.from_matrix([[1, 1], [0, 1]])
        b = LinearMap.from_matrix([[2, 0], [0, 1]])
        ab = a * b
        assert ab.matrix == a.matrix * b.matrix
        assert (ab.matrix * ab.inverse).is_identity()
        assert ab.inverted().matrix == ab.inverse

    def test_identity(self):
        assert LinearMap.identity(4).is_identity()

    def test_elementary_permutation(self):
        t = elementary_permutation(3, 1, 2)
        assert t.matrix.apply([Fraction(5), Fraction(7), Fraction(9)]) == [
            Fraction(7),
            Fraction(5),
            Fraction(9),
        ]
        assert (t.matrix * t.matrix).is_identity()

    def test_elementary_row_add(self):
        # adds a * (coordinate i) to coordinate j
        t = elementary_row_add(3, 1, Fraction(2), 2)
        assert t.matrix.apply([Fraction(1), Fraction(0), Fraction(0)]) == [
            Fraction(1),
            Fraction(2),
            Fraction(0),
        ]
        assert (t.matrix * t.inverse).is_identity()


class TestPolyMatrix:
    def J(self, texts, n=3):
        return PolyMatrix(
            [[parse_polynomial(t, n) for t in row] for row in texts]
        )

    def test_multiplication_and_power(self):
        m = self.J([["0", "z"], ["0", "0"]])
        assert not m.is_zero()
        assert m.power(2).is_zero()

    def test_det_2x2(self):
        m = self.J([["x", "y"], ["z", "x"]])
        assert poly_det(m) == parse_polynomial("x^2 - y*z", 3)

    def test_det_methods_agree(self):
        rng = random.Random(11)
        for _ in range(10):
            size = rng.choice([2, 3, 4])
            m = PolyMatrix(
                [
                    [
                        Polynomial.monomial(
                            2,
                            (rng.randint(0, 1), rng.randint(0, 1)),
                            rng.randint(-2, 2),
                        )
                        for _ in range(size)
                    ]
                    for _ in range(size)
                ]
            )
            assert _det_cofactor(m) == _det_bareiss(m)

    def test_det_multiplicative(self):
        rng = random.Random(5)
        for _ in range(5):
            mats = []
            for _ in range(2):
                mats.append(
                    PolyMatrix(
                        [
                            [
                                Polynomial.monomial(
                                    2,
                                    (rng.randint(0, 1), rng.randint(0, 1)),
                                    rng.randint(-2, 2),
                                )
                                for _ in range(3)
                            ]
                            for _ in range(3)
                        ]
                    )
                )
            a, b = mats
            assert poly_det(a * b) == poly_det(a) * poly_det(b)

    def test_principal_minor_sums_vs_hand_count(self):
        m = self.J([["x", "1", "0"], ["0", "y", "1"], ["1", "0", "z"]])
        assert principal_minor_sum(m, 1) == parse_polynomial("x + y + z", 3)
        assert principal_minor_sum(m, 2) == parse_polynomial(
            "x*y + x*z + y*z", 3
        )
        assert principal_minor_sum(m, 3) == poly_det(m)

    def test_rank_examples(self):
        assert poly_matrix_rank(self.J([["x", "y"], ["2*x", "2*y"]])) == 1
        assert poly_matrix_rank(self.J([["x", "y"], ["y", "x"]])) == 2
        assert (
            poly_matrix_rank(self.J([["0", "0"], ["0", "0"]])) == 0
        )


def ref_matmul(a, b):
    """Matrix product summed term by term; entries built only through the
    validating public Polynomial constructor."""
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            terms = {}
            for k in range(a.cols):
                for ea, ca in a[i, k].terms.items():
                    for eb, cb in b[k, j].terms.items():
                        e = tuple(x + y for x, y in zip(ea, eb))
                        terms[e] = terms.get(e, Fraction(0)) + ca * cb
            row.append(Polynomial(a.n, terms))
        out.append(row)
    return PolyMatrix(out)


def assert_clean_entries(m):
    """Every stored coefficient is a nonzero int or a Fraction whose
    denominator is not 1; the public `terms` still hands out Fractions."""
    for row in m.entries:
        for p in row:
            for exps, coeff in p._terms.items():
                assert type(exps) is tuple and len(exps) == p.n
                assert type(coeff) in (int, Fraction) and coeff != 0
                if type(coeff) is Fraction:
                    assert coeff.denominator != 1
            assert all(type(c) is Fraction for c in p.terms.values())


class TestMatmulInvariant:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_products_match_reference(self, seed):
        rng = random.Random(seed)
        n = rng.choice([2, 3, 4])
        rows, inner, cols = (rng.randint(1, 3) for _ in range(3))

        def entry():
            if rng.random() < 0.2:
                return Polynomial.zero(n)
            p = generators.random_polynomial(rng, n, 2, terms=3, zero_constant=False)
            return p.scale(Fraction(1, rng.randint(1, 3)))

        a = PolyMatrix([[entry() for _ in range(inner)] for _ in range(rows)])
        b = PolyMatrix([[entry() for _ in range(cols)] for _ in range(inner)])
        got = a * b
        assert_clean_entries(got)
        assert got == ref_matmul(a, b)

    def test_integral_products_of_fractions_are_ints(self):
        x, y = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
        half = Fraction(1, 2)
        a = PolyMatrix([[x.scale(half), y.scale(half)]])
        b = PolyMatrix([[Polynomial.const(2, 2)], [y.scale(4)]])
        got = a * b
        assert_clean_entries(got)
        assert got == ref_matmul(a, b)
        assert got[0, 0]._terms == {(1, 0): 1, (0, 2): 2}

    def test_cancelling_entries_are_zero(self):
        x, y = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
        a = PolyMatrix([[x, y], [y, x]])
        b = PolyMatrix([[y, x], [-x, -y]])
        got = a * b
        assert_clean_entries(got)
        assert got == ref_matmul(a, b)
        assert got[0, 0].is_zero() and got[1, 1].is_zero()
        assert got[0, 0].terms == {}

    @pytest.mark.parametrize("seed", range(5))
    def test_nilpotent_jacobian_powers_vanish(self, seed):
        rng = random.Random(seed)
        H = generators.random_nilpotent_map(rng, rng.choice([2, 3, 4]))
        J = jacobian(H)
        power = J
        for _ in range(H.dimension - 1):
            nxt = power * J
            assert_clean_entries(nxt)
            assert nxt == ref_matmul(power, J)
            power = nxt
        assert power.is_zero()


def enumerated_sigmas(m):
    return [principal_minor_sum(m, k) for k in range(1, m.rows + 1)]


class TestSigmaPolynomials:
    """Berkowitz's characteristic polynomial against explicit enumeration."""

    def J(self, texts, n=3):
        return PolyMatrix(
            [[parse_polynomial(t, n) for t in row] for row in texts]
        )

    def test_hand_computed_3x3(self):
        m = self.J([["x", "1", "0"], ["0", "y", "1"], ["1", "0", "z"]])
        assert sigma_polynomials(m) == [
            parse_polynomial("x + y + z", 3),
            parse_polynomial("x*y + x*z + y*z", 3),
            parse_polynomial("x*y*z + 1", 3),
        ]

    def test_hand_computed_zero_leading_entry(self):
        m = self.J([["0", "x", "y"], ["1", "0", "z"], ["x", "y", "0"]])
        assert sigma_polynomials(m) == [
            parse_polynomial("0", 3),
            parse_polynomial("-x - x*y - y*z", 3),
            parse_polynomial("x^2*z + y^2", 3),
        ]
        assert sigma_polynomials(m) == enumerated_sigmas(m)

    def test_strictly_triangular_with_zeros(self):
        m = self.J([["0", "1", "x"], ["0", "0", "y"], ["0", "0", "0"]])
        assert all(s.is_zero() for s in sigma_polynomials(m))
        assert sigma_polynomials(m) == enumerated_sigmas(m)

    def test_one_by_one(self):
        m = self.J([["x^2 - 3"]])
        assert sigma_polynomials(m) == [parse_polynomial("x^2 - 3", 3)]

    def test_non_square_raises(self):
        with pytest.raises(ShapeError):
            sigma_polynomials(self.J([["x", "y"]]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_enumeration_on_random_maps(self, n):
        rng = random.Random(100 + n)
        for _ in range(8 if n < 5 else 3):
            H = generators.random_map(rng, n, rng.randint(1, 3))
            J = jacobian(H)
            assert sigma_polynomials(J) == enumerated_sigmas(J)

    def test_matches_enumeration_on_nilpotent_maps(self):
        rng = random.Random(7)
        for _ in range(12):
            J = jacobian(generators.random_nilpotent_map(rng, rng.choice([2, 3, 4])))
            sigma = sigma_polynomials(J)
            assert sigma == enumerated_sigmas(J)
            assert all(s.is_zero() for s in sigma)

    def test_matches_sympy_charpoly(self):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols("x1:4")
        lam = sympy.Symbol("lam")

        def to_sympy(p):
            return sum(
                (
                    sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*[v**e for v, e in zip(xs, exps)])
                    for exps, c in p.terms.items()
                ),
                sympy.Integer(0),
            )

        rng = random.Random(23)
        for _ in range(6):
            J = jacobian(generators.random_map(rng, 3, rng.randint(1, 3)))
            coeffs = (
                sympy.Matrix([[to_sympy(p) for p in row] for row in J.entries])
                .charpoly(lam)
                .all_coeffs()
            )
            for k, s in enumerate(sigma_polynomials(J), start=1):
                assert sympy.expand(to_sympy(s) - (-1) ** k * coeffs[k]) == 0
