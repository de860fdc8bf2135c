"""Unit tests for exact rational and polynomial linear algebra."""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from nilmap import (
    LinearMap,
    NilmapError,
    PolyMatrix,
    Polynomial,
    elementary_row_add,
    parse_polynomial,
    poly_matrix_rank,
)
from nilmap import PolyMap, analysis, conjugate, generators, jacobian, linalg
from nilmap.errors import InexactValue, ParseError, ShapeError
from nilmap.linalg import (
    RationalMatrix,
    _common_flag,
    _grid_power,
    _rref_den,
    coefficient_kernel,
    row_conjugator,
)
from nilmap.poly import _over_one_den, _reduced
from reference_matrix import (
    enumerated_sigmas,
    poly_det,
    principal_minor_sum,
    ref_det,
    ref_kernel,
    ref_matmul,
    ref_matrix_power,
    ref_rref,
    sigma_polynomials,
)
from stored_form import assert_clean, stored_terms


def Q(rows):
    return RationalMatrix([[Fraction(v) for v in row] for row in rows])


def rref(grid):
    """(reduced, pivots) of a grid by `_rref_den`, the elimination behind
    `det`, `inverse` and the common flag: each row's denominators cleared,
    and the rows it leaves divided by its den."""
    work = [_over_one_den(row)[0] for row in RationalMatrix(grid).entries]
    den, pivots, _ = _rref_den(work)
    return Q([[Fraction(v, den) for v in row] for row in work]), pivots


def kernel(grid):
    """The kernel of a grid by `coefficient_kernel`, the one kernel of the
    package, with each row an equation of constant polynomials."""
    return coefficient_kernel([[Polynomial.const(1, v) for v in row] for row in grid])


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

    def test_rref_pivots(self):
        reduced, pivots = rref([[0, 1, 2], [0, 2, 4]])
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
        assert kernel([[1, 0], [0, 1]]) == []

    def test_kernel_vectors_annihilate(self):
        grid = [[1, 2, 3], [2, 4, 6]]
        basis = kernel(grid)
        assert len(basis) == 2
        for v in basis:
            assert ref_product(grid, [[c] for c in v]) == [[0], [0]]

    def test_kernel_golden(self):
        basis = kernel([[1, 1, 1]])
        assert len(basis) == 2
        for v in basis:
            assert sum(v) == 0


class TestLinearMap:
    def test_validates_inverse_pair(self):
        m = Q([[2, 0], [0, 1]])
        with pytest.raises(NilmapError):
            LinearMap(m, Q([[1, 0], [0, 1]]))

    def test_compose_and_invert(self):
        a = LinearMap(Q([[1, 1], [0, 1]]))
        b = LinearMap(Q([[2, 0], [0, 1]]))
        ab = a * b
        assert ab.matrix == a.matrix * b.matrix
        assert (ab.matrix * ab.inverse).is_identity()
        assert ab.inverted().matrix == ab.inverse

    def test_identity(self):
        assert LinearMap.identity(4).is_identity()

    def test_identity_is_built_once_per_dimension(self):
        first = LinearMap.identity(5)
        assert first.matrix.entries == tuple(
            tuple(int(i == j) for j in range(5)) for i in range(5)
        )
        assert first.inverse == first.matrix
        assert LinearMap.identity(5) is first
        assert LinearMap.identity(3) is not first
        assert LinearMap.identity(3).dimension == 3

    def test_elementary_row_add(self):
        # adds a * (coordinate i) to coordinate j
        t = elementary_row_add(3, 1, Fraction(2), 2)
        assert ref_product(t.matrix.entries, [[1], [0], [0]]) == [[1], [2], [0]]
        assert (t.matrix * t.inverse).is_identity()


class TestRowConjugator:
    """m = T^-1 carries the row in its slot and the unit rows e_j, j not the
    pivot (the last nonzero index of the row), in the other slots."""

    def layout(self, row, position):
        T = row_conjugator(row, position)
        assert (T.matrix * T.inverse).is_identity()
        return T.inverse

    def test_pivot_at_the_slot_replaces_one_identity_row(self):
        assert self.layout([2, -1, 3], 3) == Q([[1, 0, 0], [0, 1, 0], [2, -1, 3]])
        assert self.layout([0, 5, 0, 0], 2) == Q(
            [[1, 0, 0, 0], [0, 5, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )

    def test_pivot_before_the_slot(self):
        assert self.layout([4, 0, 0], 2) == Q([[0, 1, 0], [4, 0, 0], [0, 0, 1]])
        assert self.layout([1, 1, 0], 3) == Q([[1, 0, 0], [0, 0, 1], [1, 1, 0]])
        assert self.layout([3, -2, 0], 2) == Q([[1, 0, 0], [3, -2, 0], [0, 0, 1]])
        assert self.layout([-1, 0, 0, 0], 2) == Q(
            [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )

    def test_fraction_entries(self):
        T = row_conjugator([Fraction(1, 2), Fraction(-3, 4), Fraction(0)], 2)
        assert T.inverse == Q([[1, 0, 0], ["1/2", "-3/4", 0], [0, 0, 1]])
        assert T.matrix == Q([[1, 0, 0], ["2/3", "-4/3", 0], [0, 0, 1]])

    def test_zero_row_and_bad_position_raise(self):
        with pytest.raises(ShapeError):
            row_conjugator([0, Fraction(0)], 1)
        with pytest.raises(ShapeError):
            row_conjugator([1, 0], 3)


class TestPolyMatrix:
    def J(self, texts, n=3):
        return PolyMatrix(
            [[parse_polynomial(t, n) for t in row] for row in texts]
        )

    def test_multiplication_and_power(self):
        m = self.J([["0", "z"], ["0", "0"]])
        assert not m.is_zero()
        assert grid_power(m, 2).is_zero()

    def test_det_2x2(self):
        m = self.J([["x", "y"], ["z", "x"]])
        assert poly_det(m) == parse_polynomial("x^2 - y*z", 3)

    def test_det_methods_agree(self):
        rng = random.Random(11)
        for _ in range(10):
            size = rng.choice([2, 3, 4, 5, 6])
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
            assert ref_det(m.entries) == poly_det(m)

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
            assert poly_det(ref_matmul(a, b)) == poly_det(a) * poly_det(b)

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
        # After the first step the second column is zero below the pivot,
        # so it is skipped.
        m = self.J([["x", "y", "1"], ["2*x", "2*y", "3"], ["x", "y", "2"]])
        assert poly_matrix_rank(m) == 2
        # Row 2 has a zero in the first column, but the division by the
        # pivot x at the next step is exact only if the first step scaled
        # row 2 too.
        m = self.J([["x", "1", "y"], ["0", "x", "1"], ["y", "y", "x"]])
        assert poly_matrix_rank(m) == 3


def grid_power(m, k):
    """m^k by `linalg._grid_power`, the product behind the J^n oracle: on
    the integer grid cm, for c the lcm of m's denominators, each entry of
    the power divided by c^k.  No entry of the power may hold a zero."""
    c = lcm(*(p._den for row in m.entries for p in row))
    grid = [[{key: v * (c // p._den) for key, v in p._terms.items()} for p in row]
            for row in m.entries]
    power = _grid_power(grid, k, m.n)
    assert all(all(row[j].values()) for row in power for j in range(m.cols))
    return PolyMatrix(
        [[Polynomial._trusted(m.n, *_reduced(t, c**k)) for t in row] for row in power]
    )


def assert_clean_entries(m):
    """Every stored key is a valid packed key and every stored coefficient
    a nonzero int or a Fraction whose denominator is not 1; the public
    `terms` still hands out Fractions."""
    for row in m.entries:
        for p in row:
            stored_terms(p)
            assert all(type(c) is Fraction for c in p.terms.values())


class TestMatmulInvariant:
    """The square powers of `_grid_power` against repeated `ref_matmul`."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_products_match_reference(self, seed):
        rng = random.Random(seed)
        n = rng.choice([2, 3, 4])
        size, k = rng.randint(1, 3), rng.randint(2, 3)

        def entry():
            if rng.random() < 0.2:
                return Polynomial.zero(n)
            p = generators.random_polynomial(rng, n, 2, terms=3, zero_constant=False)
            return p.scale(Fraction(1, rng.randint(1, 3)))

        m = PolyMatrix([[entry() for _ in range(size)] for _ in range(size)])
        got = grid_power(m, k)
        assert_clean_entries(got)
        assert got == ref_matrix_power(m, k)

    def test_integral_products_of_fractions_are_ints(self):
        # (x/2) * 1 + 1 * (x/2) = x is integral; its grid entry is 4x over
        # c^2 = 4.
        x = Polynomial.variable(2, 1)
        one = Polynomial.const(2, 1)
        m = PolyMatrix([[x.scale(Fraction(1, 2)), one], [one, x.scale(Fraction(1, 2))]])
        got = grid_power(m, 2)
        assert_clean_entries(got)
        assert got == ref_matmul(m, m)
        assert stored_terms(got[0, 1]) == {(1, 0): 1}

    def test_cancelling_entries_are_zero(self):
        x = Polynomial.variable(2, 1)
        m = PolyMatrix([[x, -x], [x, -x]])
        got = grid_power(m, 2)
        assert_clean_entries(got)
        assert got == ref_matmul(m, m)
        assert got.is_zero()
        assert got[0, 0].terms == {}

    @pytest.mark.parametrize("seed", range(5))
    def test_nilpotent_jacobian_powers_vanish(self, seed):
        rng = random.Random(seed)
        H = generators.random_nilpotent_map(rng, rng.choice([2, 3, 4]))
        J = jacobian(H)
        power = J
        for k in range(2, H.dimension + 1):
            got = grid_power(J, k)
            assert_clean_entries(got)
            power = ref_matmul(power, J)
            assert got == power
        assert power.is_zero()


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_fraction_coefficients_match_enumeration(self, n):
        # Per-term denominators 1-6: the recursion runs on the integer grid
        # cJ and divides sigma_k by c^k once.
        rng = random.Random(200 + n)
        fractions = 0
        for _ in range(6 if n < 5 else 3):
            H = generators.random_map(rng, n, rng.randint(1, 3))
            H = PolyMap([
                Polynomial(n, {e: c / rng.randint(1, 6) for e, c in p.terms.items()})
                for p in H
            ])
            J = jacobian(H)
            sigma = sigma_polynomials(J)
            assert sigma == enumerated_sigmas(J)
            for s in sigma:
                assert_clean(s)
                fractions += s._den != 1
        assert fractions

    def test_conjugated_generalized_maps_with_nonzero_trace(self):
        # The coupled generalized family plus x_i * x_(i+1) in H_i, so that
        # no sigma vanishes.  The sigma of T^-1 H(T x) are those of H at
        # T x, so conjugating by the inverse of an integer matrix T gives
        # sigma with Fraction coefficients.
        rng = random.Random(41)
        for _ in range(2):
            G = generators.nilpotent_generalized_coupled(rng, 5).map
            H = PolyMap([
                c + parse_polynomial(f"x{i}*x{i % 5 + 1}", 5)
                for i, c in enumerate(G, 1)
            ])
            T = generators.random_invertible(rng, 5).inverted()
            J = jacobian(conjugate(H, T))
            sigma = sigma_polynomials(J)
            assert sigma == enumerated_sigmas(J)
            for s in sigma:
                assert not s.is_zero()
                assert s._den != 1
                assert_clean(s)

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


# -- fraction-free elimination against the Fraction reference ---------------


def ref_inverse(grid):
    """Gauss-Jordan on [A | I] in Fractions: the reference for `inverse`."""
    n = len(grid)
    work = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(grid)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise NilmapError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = Fraction(1) / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return [row[n:] for row in work]


def random_grid(rng, rows, cols):
    """Entries: zero, small ints and small Fractions; sometimes a row that
    is a multiple or sum of others, sometimes an all-zero column."""
    def entry():
        r = rng.random()
        if r < 0.3:
            return 0
        if r < 0.7:
            return rng.randint(-5, 5)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    grid = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.4:
        a, b = rng.randrange(rows), rng.randrange(rows)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        grid[rng.randrange(rows)] = [c * x + y for x, y in zip(grid[a], grid[b])]
    if rng.random() < 0.25:
        z = rng.randrange(cols)
        for row in grid:
            row[z] = 0
    return grid


def assert_stored_form(m):
    """Every entry is an int (zero allowed) or a Fraction whose denominator
    is not 1, never a bool or a float; indexing hands out Fractions."""
    for i, row in enumerate(m.entries):
        for j, v in enumerate(row):
            assert type(v) in (int, Fraction)
            if type(v) is Fraction:
                assert v.denominator != 1
            assert type(m[i, j]) is Fraction and m[i, j] == v


def ref_product(a, b):
    """Plain Fraction matrix product of two grids."""
    return [
        [sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)), Fraction(0))
         for col in zip(*b)]
        for row in a
    ]


class TestRationalProduct:
    """The fraction-free product against plain Fraction arithmetic."""

    @pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
    @pytest.mark.parametrize(
        "rows,inner,cols",
        [(1, 1, 1), (3, 3, 3), (5, 5, 5), (2, 4, 3), (4, 1, 2), (1, 5, 1)],
    )
    def test_matches_fraction_reference(self, kind, rows, inner, cols):
        rng = random.Random(f"{kind}{rows}{inner}{cols}")

        def entry():
            if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
                return rng.randint(-9, 9)
            return Fraction(rng.randint(-9, 9), rng.randint(1, 8))

        for _ in range(30):
            a = [[entry() for _ in range(inner)] for _ in range(rows)]
            b = [[entry() for _ in range(cols)] for _ in range(inner)]
            got = RationalMatrix(a) * RationalMatrix(b)
            assert_stored_form(got)
            assert (got.rows, got.cols) == (rows, cols)
            want = ref_product(a, b)
            assert [[got[i, j] for j in range(cols)] for i in range(rows)] == want

    def test_integral_and_cancelling_entries_are_ints(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        a = RationalMatrix([[half, third], [half, -half]])
        got = a * RationalMatrix([[2, 3], [3, 3]])
        assert got.entries == ((2, Fraction(5, 2)), (-Fraction(1, 2), 0))
        assert_stored_form(got)

    def test_inverse_products_are_the_identity(self):
        rng = random.Random(3)
        for n in (2, 3, 4, 5):
            T = generators.random_invertible(rng, n)
            for got in (T.matrix * T.inverse, T.inverse * T.matrix):
                assert got.is_identity()
                assert all(type(v) is int for row in got.entries for v in row)


class TestRationalDet:
    """`RationalMatrix.det`, the signed last pivot of `_rref_den` over the
    product of the rows' denominators, against the cofactor expansion."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_leibniz_and_poly_det(self, n):
        rng = random.Random(40 + n)
        for _ in range(20):
            grid = random_grid(rng, n, n)
            got = RationalMatrix(grid).det()
            assert type(got) is Fraction
            assert got == ref_det(grid)
            constants = [[Polynomial.const(1, v) for v in row] for row in grid]
            assert got == poly_det(PolyMatrix(constants)).constant_value()

    @pytest.mark.parametrize("n", [6, 7])
    def test_rational_rows_match_the_cofactor_expansion(self, n):
        # random_grid mixes Fractions, zero entries, dependent rows and
        # all-zero columns.
        rng = random.Random(60 + n)
        for _ in range(4 if n == 6 else 2):
            grid = random_grid(rng, n, n)
            assert RationalMatrix(grid).det() == ref_det(grid)

    def test_singular_and_non_square(self):
        assert RationalMatrix([[1, 2], [2, 4]]).det() == 0
        with pytest.raises(ShapeError):
            RationalMatrix([[1, 2]]).det()


def permutation_rows(perm, scale=1):
    """The permutation matrix with a one at (i, perm[i]), times scale."""
    n = len(perm)
    return [[scale if j == perm[i] else 0 for j in range(n)] for i in range(n)]


class TestIntDet:
    """`RationalMatrix.det` on integer rows: the last den of `_rref_den`,
    signed by the parity of its row swaps, and 0 when a column has no
    pivot."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_matches_the_cofactor_expansion(self, n):
        rng = random.Random(80 + n)
        signs = set()
        for _ in range(30 if n < 6 else 6 if n == 6 else 2):
            rows = [[rng.randint(-6, 6) if rng.random() < 0.7 else 0 for _ in range(n)]
                    for _ in range(n)]
            want = ref_det(rows)
            assert RationalMatrix(rows).det() == want
            signs.add((want > 0) - (want < 0))
        if n < 6:
            assert {-1, 1} <= signs

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6])
    def test_nonsingular_matches_the_determinant(self, size):
        # Small entries, and a last row that is the sum of two others about
        # a third of the time: singular and nonsingular matrices both.
        rng = random.Random(size)
        for _ in range(300):
            m = [[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)]
            if rng.random() < 0.3 and size > 1:
                m[-1] = [a + b for a, b in zip(m[0], m[1 % size])]
            assert RationalMatrix(m).det() == ref_det(m)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_permutation_matrices_take_the_row_order_sign(self, n):
        # Every column's pivot row sits at a different place, so each
        # elimination step may swap a row up past the ones before it.
        for perm in itertools.permutations(range(n)):
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            want = (-1) ** inversions * (-2) ** n
            assert RationalMatrix(permutation_rows(perm, scale=-2)).det() == want

    @pytest.mark.parametrize(
        "rows, swaps, want",
        [
            # No swap: every pivot is already in place.
            ([[2, 1], [0, 3]], 0, 6),
            # One swap: column 0 pivots in row 1.
            ([[0, 3], [2, 5]], 1, -6),
            ([[0, 1, 2], [3, 0, 1], [0, 0, 4]], 1, -12),
            # Two swaps: column 0 pivots in row 2, then column 1 in the
            # row that the first swap moved down.
            ([[0, 2, 1], [0, 0, 3], [5, 1, 0]], 2, 30),
            ([[0, 0, 0, 2], [0, 0, 3, 0], [0, 5, 0, 0], [7, 0, 0, 0]], 2, 210),
            # Three swaps: a 4-cycle of the unit rows.
            ([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]], 3, -1),
        ],
    )
    def test_odd_and_even_swap_counts(self, rows, swaps, want):
        den, pivots, sign = _rref_den([row[:] for row in rows])
        assert pivots == list(range(len(rows)))
        assert sign == (-1) ** swaps
        assert sign * den == want == ref_det(rows)
        assert RationalMatrix(rows).det() == want

    def test_singular_with_a_pivot_free_column_after_a_swap(self):
        # Column 0 pivots in row 1, a swap; column 1 then has no nonzero
        # entry below the pivot row, so it has no pivot and det = 0.
        rows = [[0, 0, 4], [3, 6, 1], [0, 0, 2]]
        den, pivots, sign = _rref_den([row[:] for row in rows])
        assert 1 not in pivots and sign == -1
        assert RationalMatrix(rows).det() == 0 == ref_det(rows)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_zero_column(self, n):
        rng = random.Random(n)
        rows = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
        for row in rows:
            row[rng.randrange(n)] = 0 if n == 1 else row[0]
            row[n - 1] = 0
        assert RationalMatrix(rows).det() == 0

    def test_late_pivot_after_a_zero_leading_block(self):
        # The first column's only nonzero entry is in the last row, and the
        # second step finds its pivot below a row with a zero first entry.
        rows = [
            [0, 0, 3, 1, 2],
            [0, 1, 0, 4, 0],
            [0, 2, 5, 0, 1],
            [0, 0, 1, 1, 7],
            [-4, 3, 0, 2, 1],
        ]
        assert RationalMatrix(rows).det() == ref_det(rows) != 0


# (rows, cols): wide, tall and square, including single rows and columns.
SHAPES = [(1, 1), (1, 4), (4, 1), (2, 5), (3, 6), (5, 2), (6, 3), (3, 3), (4, 4), (5, 5)]


class TestFractionFreeElimination:
    @pytest.mark.parametrize("rows,cols", SHAPES)
    def test_rref_and_kernel_match_reference(self, rows, cols):
        rng = random.Random(rows * 10 + cols)
        for _ in range(60):
            grid = random_grid(rng, rows, cols)
            reduced, pivots = rref(grid)
            want, want_pivots = ref_rref(grid)
            assert pivots == want_pivots
            assert reduced == RationalMatrix(want)
            basis = kernel(grid)
            assert basis == ref_kernel(grid)
            assert all(type(v) is Fraction for vec in basis for v in vec)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_inverse_matches_reference(self, n):
        rng = random.Random(500 + n)
        singular = 0
        for _ in range(60):
            grid = random_grid(rng, n, n)
            try:
                want = ref_inverse(grid)
            except NilmapError as exc:
                singular += 1
                with pytest.raises(NilmapError, match=str(exc)):
                    RationalMatrix(grid).inverse()
                continue
            got = RationalMatrix(grid).inverse()
            assert got == RationalMatrix(want)
            assert_stored_form(got)
        assert singular > 0

    @pytest.mark.parametrize(
        "grid",
        [
            [[0, 0], [0, 0]],
            [[0, 2, 4], [0, 1, 2], [0, 0, 0]],
            [[0, 1], [1, 0]],
            [[-3, 6], [2, -4]],
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]],
            [[10**30, 1], [1, 10**30 - 1]],
            [[2, 0, 1], [0, 0, 3], [4, 0, 5], [1, 0, 0]],
        ],
    )
    def test_hand_picked_matrices_match_reference(self, grid):
        m = RationalMatrix(grid)
        want, want_pivots = ref_rref(grid)
        assert rref(grid) == (RationalMatrix(want), want_pivots)
        assert kernel(grid) == ref_kernel(grid)
        if m.rows == m.cols:
            assert m.det() == ref_det(grid)
            try:
                want_inv = ref_inverse(grid)
            except NilmapError:
                with pytest.raises(NilmapError, match="singular"):
                    m.inverse()
            else:
                assert m.inverse() == RationalMatrix(want_inv)

    def test_matches_sympy_rref(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(77)
        for rows, cols in SHAPES:
            grid = random_grid(rng, rows, cols)
            want, want_pivots = sympy.Matrix(
                [[sympy.Rational(Fraction(v).numerator, Fraction(v).denominator)
                  for v in row] for row in grid]
            ).rref()
            reduced, pivots = rref(grid)
            assert pivots == list(want_pivots)
            assert reduced.to_json() == [
                [str(want[i, j]) for j in range(cols)] for i in range(rows)
            ]


class TestStoredForm:
    def test_constructor_normalizes(self):
        m = RationalMatrix([[Fraction(4, 2), "3/1", 0], [Fraction(1, 3), -1, "-6/4"]])
        assert_stored_form(m)
        assert [type(v) for v in m.entries[0]] == [int, int, int]
        assert m.entries[1] == (Fraction(1, 3), -1, Fraction(-3, 2))

    def test_bool_entry_is_not_a_matrix_entry_in_json(self):
        with pytest.raises(ParseError):
            RationalMatrix.from_json([[True, 0], [0, 1]])

    def test_derived_matrices(self):
        a = RationalMatrix([[2, Fraction(1, 2)], [Fraction(3, 4), 1]])
        b = RationalMatrix([[4, 0], [0, Fraction(2, 3)]])
        for m in (a * b, a.inverse(),
                  RationalMatrix.identity(3), elementary_row_add(3, 1, Fraction(1, 2), 2).inverse,
                  RationalMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])):
            assert_stored_form(m)
        # (1/2)*4 and (3/4)*4 are integral products of Fractions.
        assert (a * b).entries == ((8, Fraction(1, 3)), (3, Fraction(2, 3)))

    def test_json_text_is_unchanged(self):
        m = RationalMatrix([[Fraction(3), Fraction(-1, 2)], [0, Fraction(10, 5)]])
        assert m.to_json() == [["3", "-1/2"], ["0", "2"]]

    def test_equality_and_hash_across_forms(self):
        a = RationalMatrix([[1, 2]])
        b = RationalMatrix([[Fraction(1), Fraction(2)]])
        assert a == b and hash(a) == hash(b)


class TestCoefficientKernel:
    def stacked_reference(self, equations):
        """One row per sorted monomial and equation: the reference for
        `coefficient_kernel`."""
        monomials = sorted({e for eq in equations for p in eq for e in p.terms})
        if not monomials:
            size = len(equations[0])
            return [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
        rows = [[p.coefficient(e) for p in eq] for e in monomials for eq in equations]
        return ref_kernel(rows)

    def test_single_equation_dependence(self):
        x, y = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
        basis = coefficient_kernel([[x + y, x.scale(2), y]])
        assert basis == [[Fraction(-1), Fraction(1, 2), Fraction(1)]]

    def test_several_equations(self):
        x, y = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
        # l1 * x + l2 * 2x = 0 and l1 * y^2 + l2 * 2y^2 = 0: (-2, 1).
        assert coefficient_kernel([(x, x.scale(2)), (y * y, (y * y).scale(2))]) == [
            [Fraction(-2), Fraction(1)]
        ]
        # l1 * (y + x) = 0 forces l1 = 0, and then l2 = 0.
        assert coefficient_kernel([(x, x.scale(2)), (y + x, Polynomial.zero(2))]) == []

    def test_all_zero_gives_unit_vectors(self):
        z = Polynomial.zero(3)
        assert coefficient_kernel([[z, z, z]]) == [
            [Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(1)],
        ]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_stacked_reference(self, seed):
        rng = random.Random(seed)
        n = rng.choice([2, 3])
        width = rng.choice([2, 3, 4])
        for _ in range(10):
            base = [generators.random_polynomial(rng, n, 2, terms=2) for _ in range(2)]
            equations = []
            for _ in range(rng.randint(1, 3)):
                eq = [
                    base[0].scale(rng.randint(-2, 2)) + base[1].scale(Fraction(1, rng.randint(1, 3)))
                    if rng.random() < 0.7 else generators.random_polynomial(rng, n, 2, terms=2)
                    for _ in range(width)
                ]
                equations.append(eq)
            assert coefficient_kernel(equations) == self.stacked_reference(equations)


    def test_zero_columns_anywhere(self):
        # A zero column is free, and depends on nothing: its kernel vector
        # is its unit vector, wherever it stands.
        x, y = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
        zero = Polynomial.zero(2)
        half = x.scale(Fraction(1, 2)) + y.scale(Fraction(-2, 3))
        for columns in ([zero, half, x], [half, zero, x], [half, x, zero]):
            got = coefficient_kernel([columns])
            assert got == self.stacked_reference([columns])
            position = columns.index(zero)
            assert [int(i == position) for i in range(3)] in got

    def test_fraction_coefficients(self):
        x, y = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
        a = x.scale(Fraction(3, 4)) + y.scale(Fraction(-5, 6))
        b = x.scale(Fraction(1, 7))
        c = a.scale(Fraction(-2, 9)) + b.scale(Fraction(11, 5))
        equations = [[a, b, c], [b, a, c.scale(Fraction(1, 3))]]
        first = equations[:1]
        assert coefficient_kernel(first) == self.stacked_reference(first)
        assert coefficient_kernel(first) == [
            [Fraction(2, 9), Fraction(-11, 5), Fraction(1)]
        ]
        assert coefficient_kernel(equations) == self.stacked_reference(equations)

    def test_repeated_columns(self):
        x, y = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
        p = x * y + y.scale(Fraction(-1, 2))
        got = coefficient_kernel([[p, p, x, p]])
        assert got == [
            [Fraction(-1), Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(-1), Fraction(0), Fraction(0), Fraction(1)],
        ]
        assert got == self.stacked_reference([[p, p, x, p]])

    def test_all_zero_equations_give_unit_vectors(self):
        z = Polynomial.zero(2)
        equations = [[z] * 4, [z] * 4]
        assert coefficient_kernel(equations) == self.stacked_reference(equations)
        assert coefficient_kernel(equations) == [
            [Fraction(int(i == j)) for j in range(4)] for i in range(4)
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_sparse_elimination_matches_dense_kernel(self, n):
        # One to three equations of up to 12 columns; the columns are
        # combinations of a few random polynomials, with zero and repeated
        # columns and Fraction coefficients mixed in.
        rng = random.Random(500 + n)
        for _ in range(30):
            width = rng.randint(1, 12)
            rank = rng.randint(1, 4)
            equations = []
            for _ in range(rng.randint(1, 3)):
                base = [
                    generators.random_polynomial(rng, n, rng.randint(1, 3), terms=3)
                    for _ in range(rank)
                ]
                eq = []
                for _ in range(width):
                    roll = rng.random()
                    if roll < 0.1:
                        eq.append(Polynomial.zero(n))
                    elif roll < 0.2 and eq:
                        eq.append(rng.choice(eq))
                    else:
                        p = Polynomial.zero(n)
                        for b in base:
                            c = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 5]))
                            p = p + b.scale(c)
                        eq.append(p)
                equations.append(eq)
            assert coefficient_kernel(equations) == self.stacked_reference(equations)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data())
    def test_systems_sharing_monomials(self, data):
        # Two or three equations over one small pool of monomials, so the
        # equations share their monomials; the columns are Fraction
        # combinations of a few base columns, and some are zero.
        m = data.draw(st.integers(2, 3))
        coeff = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 5]))
        poly = st.dictionaries(
            st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]), coeff, max_size=4
        ).map(lambda terms: Polynomial(2, terms))
        base = data.draw(st.lists(st.lists(poly, min_size=m, max_size=m), min_size=1, max_size=3))
        columns = []
        for _ in range(data.draw(st.integers(1, 6))):
            if data.draw(st.booleans()):
                columns.append([Polynomial.zero(2)] * m)
                continue
            weights = data.draw(st.lists(coeff, min_size=len(base), max_size=len(base)))
            column = [Polynomial.zero(2)] * m
            for w, b in zip(weights, base):
                column = [p + q.scale(w) for p, q in zip(column, b)]
            columns.append(column)
        equations = [[column[e] for column in columns] for e in range(m)]
        assert coefficient_kernel(equations) == self.stacked_reference(equations)


class TestOneReduction:
    """Coefficient kernels and every step of the common flag's chain run on
    one row reduction, `linalg._reduce`."""

    @pytest.fixture
    def reductions(self, monkeypatch):
        calls = []
        reduce = linalg._reduce

        def counted(v, echelon):
            calls.append(len(echelon))
            return reduce(v, echelon)

        monkeypatch.setattr(linalg, "_reduce", counted)
        return calls

    def test_linear_dependence(self, reductions):
        x, y = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
        certificate = analysis.linear_dependence([x, y, x + y.scale(2), x * y])
        assert certificate.coefficients == (1, 2, -1, 0)
        # One reduction per column read, each against the independent
        # columns before it; the fourth column is never read.
        assert reductions == [0, 1, 2]

    def test_two_equation_kernel(self, reductions):
        # The shape of `tame`'s block-mixing search: the x- and y-partials
        # of two polynomials, one equation per partial.
        x, y = Polynomial.variable(3, 1), Polynomial.variable(3, 2)
        H1, H2 = x * x + y, (x * x + y).scale(Fraction(-1, 2))
        basis = coefficient_kernel([(H1.partial(k), H2.partial(k)) for k in (1, 2)])
        assert basis == [[Fraction(1, 2), Fraction(1)]]
        assert reductions == [0, 1]

    @pytest.mark.parametrize("n", [4, 6])
    def test_common_flag_chain(self, n, reductions):
        H = generators.nilpotent_generalized_coupled(random.Random(1), n).map
        H = conjugate(H, generators.random_invertible(random.Random(2), n))
        grid, _ = analysis._jacobian_terms(H)
        assert _common_flag(grid).rows == []
        assert len(reductions) >= n


class TestAsPolyMap:
    def test_rows_become_linear_components(self):
        T = LinearMap(Q([[2, Fraction(1, 2), 0], [0, -3, 0], [1, 0, 1]]))
        got = T.as_poly_map()
        n = 3
        for i in range(n):
            want = Polynomial.zero(n)
            for j in range(n):
                want = want + Polynomial.variable(n, j + 1).scale(T.matrix[i, j])
            assert got[i] == want
            stored_terms(got[i])
