"""Unit tests for Keller checks, formal inversion and tame factorization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilmap import (
    ConstructionMismatch,
    ElementaryMap,
    LinearMap,
    NotTriangularizable,
    PolyMap,
    Polynomial,
    RationalMatrix,
    ShapeError,
    TameFactorization,
    classify_and_decompose,
    compose_factorization,
    conjugate,
    formal_inverse,
    jacobian,
    keller_check,
    map_to_document,
    parse_map,
    parse_polynomial,
)
from nilmap import analysis, generators, linalg, tame
from nilmap.analysis import _jacobian_at, _nilpotency_index, _probe_point
from reference_matrix import poly_det
from reference_tame import ref_compose_factorization

# det JF is -6 at the origin and 32,496 at the probe point (2, -3, 5); the
# inverse iteration used to run to its full degree bound on this map.
NON_KELLER = "-2*x*z - 3*y*z + y; 3*x*y*z + 2*x^2 + 2*z; 2*y*z^2 + 3*x^2 - 3*x"


def det_at(F, point):
    return _jacobian_at(F, point).det()


class TestElementaryMap:
    def test_realize(self):
        e = ElementaryMap(2, 1, parse_polynomial("y^2", 2))
        assert e.realize() == parse_map("x + y^2; y")

    def test_inverted(self):
        e = ElementaryMap(2, 1, parse_polynomial("y^2", 2))
        assert e.realize().compose(e.inverted().realize()).is_identity()

    def test_shift_must_avoid_its_own_variable(self):
        with pytest.raises(ShapeError):
            ElementaryMap(2, 1, parse_polynomial("x", 2))

    def test_index_range(self):
        with pytest.raises(ShapeError):
            ElementaryMap(2, 3, parse_polynomial("y", 2))

    def test_json(self):
        e = ElementaryMap(3, 2, parse_polynomial("x*z", 3))
        doc = e.to_json()
        assert doc["kind"] == "elementary"
        assert doc["i"] == 2


class TestKellerCheck:
    def test_translation_like_maps(self):
        assert keller_check(parse_map("x + y^2; y"))
        assert keller_check(parse_map("x + y^2; y + z^3; z"))

    def test_non_keller(self):
        assert not keller_check(parse_map("x^2; y"))
        assert not keller_check(parse_map("x*y; y"))

    def test_fraction_coefficients(self):
        # The symbolic determinant runs on c * JF with integer coefficients.
        assert keller_check(parse_map("1/2*x; 1/3*y"))
        assert keller_check(parse_map("x + 1/2*y^2; 2/3*y"))
        assert not keller_check(parse_map("1/2*x + 1/3*x^2; y"))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_the_symbolic_determinant(self, n):
        rng = random.Random(60 + n)
        for _ in range(12):
            if rng.random() < 0.5:
                # Keller: a triangular shift under a rational conjugation.
                F = conjugate(
                    PolyMap.identity(n) + generators.decomposable_shift(rng, n),
                    generators.random_invertible(rng, n).inverted(),
                )
            else:
                F = generators.random_map(rng, n, 2, terms=3)
                F = PolyMap([
                    p + parse_polynomial(f"1/{rng.randint(1, 4)}*x{i}", n)
                    for i, p in enumerate(F, 1)
                ])
            det = poly_det(jacobian(F))
            assert keller_check(F) == (det.is_constant() and not det.is_zero())


@pytest.fixture
def no_symbolic_work(monkeypatch):
    """Makes composition and the symbolic Jacobian fail, so a test passes
    only when the answer comes from the determinants at the two points."""

    def forbidden(*args):
        raise AssertionError("symbolic path taken")

    monkeypatch.setattr(PolyMap, "compose", forbidden)
    monkeypatch.setattr(tame, "_jacobian_terms", forbidden)


class TestKellerRefutation:
    def test_determinants_at_the_two_points(self):
        F = parse_map(NON_KELLER)
        assert det_at(F, (0, 0, 0)) == -6
        assert det_at(F, _probe_point(3)) == 32496

    def test_non_keller_map_is_refuted(self, no_symbolic_work):
        F = parse_map(NON_KELLER)
        assert formal_inverse(F) is None
        assert not keller_check(F)

    @pytest.mark.parametrize(
        "text",
        [
            "x^2 + y; y",  # det JF = 2x vanishes at the origin
            "x + y; x + y",  # det JF = 0 at both points
        ],
    )
    def test_singular_linear_part_is_refuted(self, text, no_symbolic_work):
        F = parse_map(text)
        assert formal_inverse(F) is None
        assert not keller_check(F)

    def test_agreeing_points_fall_back_to_the_symbolic_check(self):
        # det JF = 1 - 6x + 3x^2 is 1 at both x = 0 and x = 2 but not constant
        F = parse_map("x - 3*x^2 + x^3")
        assert det_at(F, (0,)) == det_at(F, _probe_point(1)) == 1
        assert not keller_check(F)
        assert formal_inverse(F) is None

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_decomposable_shifts_pass_and_invert(self, n):
        rng = random.Random(n)
        for _ in range(3):
            F = PolyMap.identity(n) + generators.decomposable_shift(rng, n)
            assert det_at(F, (0,) * n) == det_at(F, _probe_point(n)) == 1
            assert keller_check(F)
            G = formal_inverse(F)
            assert G is not None and F.compose(G).is_identity()


def coupled_shift(n, seed, perturb=False):
    """x + H for the paper's second family H in general position; with
    x1*x2 added to H_1 when perturbed."""
    H = generators.nilpotent_generalized_coupled(random.Random(seed), n).map
    if perturb:
        x1, x2 = Polynomial.variable(n, 1), Polynomial.variable(n, 2)
        H = PolyMap([H[0] + x1 * x2, *list(H)[1:]])
    H = conjugate(H, generators.random_invertible(random.Random(seed + 1), n))
    return PolyMap.identity(n) + H


def det_is_nonzero_constant(F):
    det = poly_det(jacobian(F))
    return det.is_constant() and not det.is_zero()


class TestKellerOnTheQuotient:
    """keller_check decides det(I + JH') = 1 for A^-1 F = x + H' on the
    quotient of JH' by its common flag space; poly_det (full Berkowitz on
    JF) is the reference."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_matches_the_determinant(self, n):
        rng = random.Random(700 + n)
        for seed in range(4):
            maps = [coupled_shift(n, seed), coupled_shift(n, seed, perturb=True)]
            # A != I: a linear map after F, and rational coefficients.
            L = generators.random_invertible(rng, n).as_poly_map()
            scale = PolyMap([
                Polynomial.variable(n, i).scale(f"{rng.randint(1, 5)}/{rng.randint(1, 7)}")
                for i in range(1, n + 1)
            ])
            maps += [L.compose(F) for F in maps[:2]] + [scale.compose(F) for F in maps[:2]]
            for F in maps:
                assert keller_check(F) == det_is_nonzero_constant(F)
            assert keller_check(maps[0]) and keller_check(maps[2])

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_keller_maps_whose_sigma_do_not_vanish(self, n):
        # A composite of two triangular maps with rational coefficients in
        # x1, x2, and a nilpotent block on x3..xn: det(I + JH') = 1 while
        # sigma_1 and sigma_2 of JH' do not vanish, so every sigma_k must
        # be weighted by the right power of d c for the sum to cancel.
        names = [f"x{i}" for i in range(1, n + 1)]
        text = "; ".join(
            ["x1 + 1/2*(x2 + 1/3*x1^2)^2", "x2 + 1/3*x1^2"]
            + [f"{v} + x1*{w} + 1/5*x2^2" for v, w in zip(names[2:], names[3:])]
            + [f"{names[-1]} + x1^2"]
        )
        rng = random.Random(n)
        for _ in range(3):
            F = conjugate(parse_map(text), generators.random_invertible(rng, n))
            assert not analysis.nilpotency_equations(F - PolyMap.identity(n)).nilpotent
            # Keller by construction; poly_det takes seconds from n = 5 on.
            assert keller_check(F)
            if n == 4:
                assert det_is_nonzero_constant(F)

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("linear", ["x1", "2*x1", "-1/3*x1 + x2"])
    def test_points_agree_but_the_determinant_is_not_constant(self, n, linear):
        # det JF = a + 2 x1 (x2 + 3) for a = det JF(0), the coefficient of
        # x1 in F_1: equal at the origin and at the probe point, where
        # x2 = -3, so only the symbolic check refutes it.
        names = [f"x{i}" for i in range(1, n + 1)]
        text = "; ".join(
            [f"{linear} + x1^2*(x2 + 3) + x3^2"]
            + [f"{v} + {w}^2" for v, w in zip(names[1:], names[2:])]
            + [names[-1]]
        )
        F = parse_map(text)
        assert det_at(F, (0,) * n) == det_at(F, _probe_point(n)) != 0
        assert not det_is_nonzero_constant(F)
        assert not keller_check(F)
        G = PolyMap([F[0] - parse_polynomial("x1^2*(x2 + 3)", n), *list(F)[1:]])
        assert keller_check(G) and det_is_nonzero_constant(G)

    def test_full_flag_takes_no_characteristic_polynomial(self, monkeypatch):
        # On the paper's family at n = 8 the common flag of JH' is all of
        # K^8, so no sigma of positive size is computed.
        n = 8
        F = coupled_shift(n, 1)
        sizes = []

        def counted(sigma_terms):
            def wrapper(grid, n):
                sizes.append(len(grid))
                return sigma_terms(grid, n)

            return wrapper

        monkeypatch.setattr(analysis, "_sigma_terms", counted(analysis._sigma_terms))
        monkeypatch.setattr(linalg, "_sigma_terms", counted(linalg._sigma_terms))
        assert keller_check(F)
        assert sizes == [0]


class TestFormalInverse:
    def test_golden_two_variables(self):
        G = formal_inverse(parse_map("x + y^2; y"))
        assert G == parse_map("x - y^2; y")

    def test_golden_three_variables(self):
        F = parse_map("x + y^2; y + z^3; z")
        G = formal_inverse(F)
        assert G == parse_map("x - (y - z^3)^2; y - z^3; z")
        assert F.compose(G).is_identity()
        assert G.compose(F).is_identity()

    def test_identity(self):
        assert formal_inverse(PolyMap.identity(3)).is_identity()

    def test_no_inverse_returns_none(self):
        assert formal_inverse(parse_map("x + x^2; y")) is None

    def test_rejects_wrong_shape(self):
        with pytest.raises(ShapeError, match="^the shift part must vanish at the origin$"):
            formal_inverse(parse_map("x + 1; y"))

    @pytest.mark.parametrize(
        "text, inverse",
        [("2*x", "1/2*x"), ("2*x + y^2; y", "1/2*x - 1/2*y^2; y")],
    )
    def test_non_unipotent_linear_part(self, text, inverse):
        # JF(0) - I is not nilpotent, so x - H(G) does not converge; the
        # iteration runs on A^-1 o F instead.
        G = formal_inverse(parse_map(text))
        assert G == parse_map(inverse)

    @pytest.mark.parametrize("n", [3, 4])
    def test_linear_map_after_a_decomposable_shift_inverts(self, n):
        rng = random.Random(40 + n)
        for _ in range(4):
            A = generators.random_invertible(rng, n)
            F = A.as_poly_map().compose(
                PolyMap.identity(n) + generators.decomposable_shift(rng, n)
            )
            shift = F - PolyMap.identity(n)
            assert _nilpotency_index(_jacobian_at(shift, (0,) * n)) is None
            G = formal_inverse(F)
            assert G is not None
            assert F.compose(G).is_identity()
            assert G.compose(F).is_identity()

    def test_nilpotent_families_invert(self):
        rng = random.Random(30)
        for _ in range(8):
            n = rng.choice([3, 4])
            H = generators.random_nilpotent_map(rng, n)
            F = PolyMap.identity(n) + H
            G = formal_inverse(F)
            assert G is not None
            assert F.compose(G).is_identity()
            assert G.compose(F).is_identity()


class TestTameDecompose:
    """Maps whose shift already has an acyclic dependency digraph: the
    search returns the plain elementary chain, with no linear factor."""

    def test_single_elementary(self):
        F = parse_map("x + y^2; y")
        fact = classify_and_decompose(F)
        assert len(fact.factors) == 1
        assert compose_factorization(fact) == F

    def test_chain_ordering(self):
        # the first component depends on the second, which depends on the
        # third: the factors must recompose exactly
        F = parse_map("x + y^2; y + z^3; z")
        fact = classify_and_decompose(F)
        assert len(fact.factors) == 2
        assert compose_factorization(fact) == F

    def test_cycle_raises(self):
        with pytest.raises(NotTriangularizable):
            classify_and_decompose(parse_map("x + y^2; y + x^2"))

    def test_self_loop_raises(self):
        with pytest.raises(NotTriangularizable):
            classify_and_decompose(parse_map("x + x*y; y"))

    def test_mismatch_carries_the_instance(self):
        # A chain built from a shift that is not F's does not recompose to F.
        F = parse_map("x + y^2; y")
        with pytest.raises(ConstructionMismatch) as info:
            tame._factor(F, parse_map("y^3; 0"), [1, 2], LinearMap.identity(2))
        assert info.value.instance == map_to_document(F)
        assert '"components": ["y^2 + x", "y"]' in str(info.value)

    def test_conjugated_chain_brackets(self):
        F = parse_map("x + y^2; y")
        T = LinearMap(RationalMatrix([["2", "0"], ["0", "1"]]))
        H = conjugate(tame._shift_part(F), T)
        fact = tame._factor(F, H, tame._dependency_order(H), T)
        assert len(fact.factors) == 3
        assert fact.factors[0] == T
        assert fact.factors[-1] == T.inverted()
        assert compose_factorization(fact) == F

    def test_identity_conjugation_omitted(self):
        F = parse_map("x + y^2; y")
        fact = classify_and_decompose(F)
        assert [type(f) for f in fact.factors] == [ElementaryMap]

    def test_json_shape(self):
        doc = classify_and_decompose(parse_map("x + y^2; y")).to_json()
        assert doc["dimension"] == 2
        assert doc["factors"][0]["kind"] == "elementary"


class TestClassifyAndDecompose:
    def test_zeroing_dependent_component(self):
        # H = ((x+y)^2, -(x+y)^2, 0) has dependency cycles but a linear
        # dependence; zeroing the second component leaves (y^2, 0, 0),
        # which is triangular
        F = parse_map("x + (x+y)^2; y - (x+y)^2; z")
        fact = classify_and_decompose(F)
        assert compose_factorization(fact) == F

    def test_generated_families_decompose(self):
        rng = random.Random(31)
        for _ in range(10):
            n = rng.choice([3, 4, 5])
            H = generators.decomposable_shift(rng, n)
            F = PolyMap.identity(n) + H
            fact = classify_and_decompose(F)
            assert compose_factorization(fact) == F

    def test_untriangularizable_raises(self):
        with pytest.raises(NotTriangularizable):
            classify_and_decompose(parse_map("x + y^2; y + x^2"))

    def test_one_variable_map(self):
        # n = 1 has no second slot to mix into: the search ends in
        # NotTriangularizable, as it does for 2*x; y.
        from nilmap.tame import _block_mixing_conjugation

        assert _block_mixing_conjugation(parse_map("x")) is None
        for text in ("2*x", "0", "2*x; y"):
            with pytest.raises(NotTriangularizable):
                classify_and_decompose(parse_map(text))

    def test_already_triangular_passes_through(self):
        F = parse_map("x + y^2; y + z^3; z")
        fact = classify_and_decompose(F)
        assert all(isinstance(f, ElementaryMap) for f in fact.factors)
        assert compose_factorization(fact) == F


class TestTameFactorization:
    def test_empty_needs_dimension(self):
        with pytest.raises(ShapeError):
            TameFactorization([])
        fact = TameFactorization([], dimension=3)
        assert compose_factorization(fact).is_identity()

    def test_mixed_dimensions_rejected(self):
        from nilmap import DimensionMismatch

        e2 = ElementaryMap(2, 1, parse_polynomial("y", 2))
        e3 = ElementaryMap(3, 1, parse_polynomial("y", 3))
        with pytest.raises(DimensionMismatch):
            TameFactorization([e2, e3])


FRACTIONS = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
)
recomposition = settings(max_examples=80, derandomize=True, deadline=None)


@st.composite
def elementary_maps(draw, n):
    """An elementary map of dimension n at any index, with a Fraction
    shift free of the shifted variable (a constant when n = 1)."""
    i = draw(st.integers(1, n))
    exps = st.tuples(
        *(st.just(0) if k == i else st.integers(0, 2) for k in range(1, n + 1))
    )
    terms = draw(st.dictionaries(exps, FRACTIONS, max_size=3))
    return ElementaryMap(n, i, Polynomial(n, terms))


@st.composite
def linear_maps(draw, n):
    """P * L * U with Fraction entries: a row permutation, a unit lower
    triangular L and an upper triangular U with a nonzero diagonal, so
    every draw is invertible."""
    below = [[draw(FRACTIONS) for _ in range(n)] for _ in range(n)]
    above = [[draw(FRACTIONS) for _ in range(n)] for _ in range(n)]
    pivots = [draw(FRACTIONS.filter(bool)) for _ in range(n)]
    L = RationalMatrix(
        [[below[r][c] if c < r else int(c == r) for c in range(n)] for r in range(n)]
    )
    U = RationalMatrix(
        [
            [above[r][c] if c > r else (pivots[r] if c == r else 0) for c in range(n)]
            for r in range(n)
        ]
    )
    rows = (L * U).entries
    order = draw(st.permutations(range(n)))
    return LinearMap(RationalMatrix([rows[r] for r in order]))


@st.composite
def factorizations(draw):
    n = draw(st.integers(1, 4))
    factor = elementary_maps(n) | linear_maps(n)
    return TameFactorization(draw(st.lists(factor, max_size=4)), n)


class TestRecompositionReference:
    """compose_factorization, evaluated innermost-first, against the left
    fold of PolyMap.compose over the realized factors."""

    @recomposition
    @given(factorizations())
    def test_random_factorizations(self, fact):
        assert compose_factorization(fact) == ref_compose_factorization(fact)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_empty_factorization_is_the_identity(self, n):
        fact = TameFactorization([], dimension=n)
        assert compose_factorization(fact) == ref_compose_factorization(fact)
        assert compose_factorization(fact).is_identity()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_elementary_factor_at_every_index(self, n):
        rng = random.Random(n)
        factors = []
        for i in range(1, n + 1):
            terms = {
                tuple(0 if k == i else rng.randint(0, 2) for k in range(1, n + 1)):
                Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 6))
                for _ in range(3)
            }
            factors.append(ElementaryMap(n, i, Polynomial(n, terms)))
        for chain in (factors, factors[::-1]):
            for i in range(len(chain)):
                fact = TameFactorization(chain[i:] + chain[:i], n)
                assert compose_factorization(fact) == ref_compose_factorization(fact)

    def test_linear_factors_with_fraction_entries(self):
        A = LinearMap(RationalMatrix([["1/2", "2/3", "0"], ["0", "3", "-1/5"], ["1", "0", "1"]]))
        e = ElementaryMap(3, 2, parse_polynomial("1/3*x^2 - 5/7*x*z", 3))
        for factors in ([A], [A, e, A.inverted()], [e, A, e], [A.inverted(), A]):
            fact = TameFactorization(factors, 3)
            assert compose_factorization(fact) == ref_compose_factorization(fact)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_decomposable_shifts(self, seed):
        rng = random.Random(seed)
        for n in (3, 4, 5):
            F = PolyMap.identity(n) + generators.decomposable_shift(rng, n)
            fact = classify_and_decompose(F)
            assert compose_factorization(fact) == ref_compose_factorization(fact) == F


class TestOriginMustBeFixed:
    """F(0) != 0 is an input error for every verb that takes F = x + H;
    keller_check reads only JF, which a translation does not change."""

    MESSAGE = "^the shift part must vanish at the origin$"

    @pytest.mark.parametrize("text", ["x + 1; y", "x + y^2; y - 1/2", "x; y; z + 3"])
    def test_api_raises(self, text):
        F = parse_map(text)
        for verb in (formal_inverse, classify_and_decompose):
            with pytest.raises(ShapeError, match=self.MESSAGE):
                verb(F)

    def test_keller_check_ignores_the_translation(self):
        assert keller_check(parse_map("x + y^2 + 1; y - 2"))
        assert not keller_check(parse_map("x + x^2 + 1; y"))
