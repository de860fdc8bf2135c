"""Unit tests for Jacobian analysis: nilpotency, dependence, conjugation."""

import random
from fractions import Fraction

import pytest

from nilmap import (
    DependenceCertificate,
    LinearMap,
    NilmapError,
    PolyMap,
    Polynomial,
    PreconditionError,
    RationalMatrix,
    check_divergence_coefficients,
    conjugate,
    is_nilpotent,
    is_nilpotent_bruteforce,
    jacobian,
    linear_dependence,
    nilpotency_equations,
    nilpotency_witness,
    parse_map,
    parse_polynomial,
    poly_matrix_rank,
)
from nilmap import analysis, generators
from nilmap.analysis import _jacobian_at, _nilpotency_index, _probe_point
from nilmap.errors import InexactValue, ShapeError
from reference_matrix import (
    principal_minor_sum,
    ref_det,
    ref_kernel,
    ref_matrix_power,
)
from stored_form import stored_terms
from test_poly import ref_add, ref_substitute


class TestJacobian:
    def test_entries(self):
        H = parse_map("x^2 + y; y*z; 0")
        J = jacobian(H)
        assert J[0, 0] == parse_polynomial("2*x", 3)
        assert J[0, 1] == parse_polynomial("1", 3)
        assert J[1, 2] == parse_polynomial("y", 3)
        assert J[2, 0].is_zero()

    def test_one_pass_matches_partial(self):
        # Per-term denominators 1-6 make some entries integral Fractions,
        # such as (1/2) * 2, which must be stored as ints.
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 5)
            H = generators.random_map(rng, n, rng.randint(1, 4), terms=rng.randint(1, 5))
            H = PolyMap([
                Polynomial(n, {e: c / rng.randint(1, 6) for e, c in p.terms.items()})
                for p in H
            ])
            J = jacobian(H)
            for i in range(n):
                for j in range(n):
                    want = stored_terms(H[i].partial(j + 1))
                    assert stored_terms(J[i, j]) == want

    def test_integral_fraction_entries_are_ints(self):
        J = jacobian(parse_map("1/2*x^2 + 1/3*y^3; 2/3*x*y"))
        assert stored_terms(J[0, 0]) == {(1, 0): 1}
        assert stored_terms(J[0, 1]) == {(0, 2): 1}
        assert stored_terms(J[1, 0]) == {(0, 1): Fraction(2, 3)}


class TestNilpotency:
    def test_strictly_triangular_shift_is_nilpotent(self):
        H = parse_map("y + z^2; z; 0")
        assert is_nilpotent(H)
        assert is_nilpotent_bruteforce(H)

    def test_simple_nilpotent_example(self):
        H = parse_map("z^2; x*z; 0")
        assert is_nilpotent(H)
        assert is_nilpotent_bruteforce(H)

    def test_rank_two_nilpotent_example(self):
        H = parse_map("(z*x + y)^2; -z*(z*x + y)^2; 0")
        report = nilpotency_equations(H)
        assert report.nilpotent
        assert report.sigma[1].is_zero()
        assert is_nilpotent_bruteforce(H)
        # the three Jacobian rows span a rank-2 space: the second row is
        # -z times the first minus (0, 0, (z*x + y)^2)
        assert poly_matrix_rank(jacobian(H)) == 2

    def test_non_nilpotent_witness(self):
        H = parse_map("x; y")
        report = nilpotency_equations(H)
        assert not report.nilpotent
        k, sigma_k = report.witness
        assert k == 1
        assert sigma_k == parse_polynomial("2", 2)
        assert not is_nilpotent(H)
        assert not is_nilpotent_bruteforce(H)

    @pytest.mark.parametrize("seed", range(8))
    def test_rational_maps_match_enumerated_minors(self, seed):
        # Components over different denominators: the recursion runs on
        # cJ(H), c the lcm of the components' denominators, and sigma_k is
        # divided by c^k.
        rng = random.Random(900 + seed)
        n = rng.randint(2, 4)
        H = PolyMap([
            Polynomial(n, {e: c / rng.choice([1, 2, 3, 5]) for e, c in p.terms.items()})
            for p in generators.random_map(rng, n, 2, terms=3)
        ])
        J = jacobian(H)
        sigma = nilpotency_equations(H).sigma
        assert list(sigma) == [principal_minor_sum(J, k) for k in range(1, n + 1)]
        for s in sigma:
            stored_terms(s)

    def test_report_serializes(self):
        doc = nilpotency_equations(parse_map("x; y")).to_json()
        assert doc["nilpotent"] is False
        assert doc["witness"]["k"] == 1

    def test_witness_matches_the_report(self):
        rng = random.Random(77)
        maps = [parse_map(t) for t in ("x; y", "y^2; x; w; 0", "z^2; x*z; 0")]
        for _ in range(30):
            n = rng.choice([3, 4])
            T = generators.random_invertible(rng, n)
            maps.append(generators.random_map(rng, n, 2, terms=3))
            maps.append(conjugate(generators.random_generalized(rng, n).map, T))
            maps.append(conjugate(generators.random_nilpotent_map(rng, n), T))
        maps += [conjugate(maps[1], generators.random_invertible(rng, 4)) for _ in range(5)]
        assert any(nilpotency_witness(H) is None for H in maps)
        assert any((nilpotency_witness(H) or (1,))[0] > 1 for H in maps)
        for H in maps:
            assert nilpotency_witness(H) == nilpotency_equations(H).witness
            assert is_nilpotent(H) == (nilpotency_witness(H) is None)

    def test_nonzero_trace_takes_no_quotient(self, monkeypatch):
        def broken(grid, n):
            raise AssertionError("a characteristic polynomial was taken")

        monkeypatch.setattr(analysis, "_quotient_sigma", broken)
        H = parse_map("x*y; y^2 + z; w; x")
        assert nilpotency_witness(H) == (1, parse_polynomial("3*y", 4))
        assert not is_nilpotent(H)

    def test_zero_trace_witness_comes_from_the_quotient(self, monkeypatch):
        # sigma_1 = 0 and sigma_2 = -2*y; W = span(e3, e4), so the quotient
        # has size 2.
        H = parse_map("y^2; x; w; 0")
        calls = []
        quotient_sigma = analysis._quotient_sigma

        def counted(grid, n):
            calls.append(len(grid))
            return quotient_sigma(grid, n)

        monkeypatch.setattr(analysis, "_quotient_sigma", counted)
        assert nilpotency_witness(H) == (2, parse_polynomial("-2*y", 4))
        assert nilpotency_equations(H).witness == (2, parse_polynomial("-2*y", 4))
        assert not is_nilpotent(H)
        assert calls == [4, 4, 4]

    def test_oracles_agree_on_random_maps(self):
        rng = random.Random(2024)
        for _ in range(60):
            n = rng.choice([2, 3, 4])
            H = generators.random_map(rng, n, 3, terms=3)
            assert is_nilpotent(H) == is_nilpotent_bruteforce(H)


def symbolic_power_is_zero(H):
    """J(H)^n = 0 by repeated reference products alone, the reference for
    the bruteforce oracle."""
    return ref_matrix_power(jacobian(H), H.dimension).is_zero()


@pytest.fixture
def power_calls(monkeypatch):
    """Counts the exponents of the symbolic powerings of the bruteforce
    oracle, which powers the integer term dicts of cJ(H) with
    `linalg._grid_power`."""
    calls = []
    grid_power = analysis._grid_power

    def counted(grid, k, n):
        calls.append(k)
        return grid_power(grid, k, n)

    monkeypatch.setattr(analysis, "_grid_power", counted)
    return calls


class TestBruteforceRefutation:
    """`is_nilpotent_bruteforce` settles J(x0)^n != 0 at the probe point x0
    with no symbolic power, and powers J(H) only when J(x0)^n = 0."""

    def test_probe_point(self):
        assert _probe_point(1) == (2,)
        assert _probe_point(6) == (2, -3, 5, -7, 11, -13)
        point = _probe_point(40)
        assert len({abs(x) for x in point}) == 40 and all(point)

    def test_jacobian_at_matches_symbolic_jacobian(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 5)
            H = generators.random_map(rng, n, 3, terms=4)
            H = PolyMap([c.scale(Fraction(1, rng.randint(1, 4))) for c in H])
            J = jacobian(H)
            for point in (_probe_point(n), (0,) * n):
                at = _jacobian_at(H, point)
                bindings = {k + 1: Polynomial.const(n, x) for k, x in enumerate(point)}
                want = [
                    [J[i, j].substitute(bindings).constant_value() for j in range(n)]
                    for i in range(n)
                ]
                assert [[at[i, j] for j in range(n)] for i in range(n)] == want

    def test_nilpotency_index_matches_rational_powers(self):
        # T N T^-1 for strictly upper triangular N has rational entries and
        # every index from 1 to n; a random dense matrix is rarely nilpotent.
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 4)
            if rng.random() < 0.7:
                N = RationalMatrix([
                    [rng.choice([0, 1, -2]) if j > i else 0 for j in range(n)]
                    for i in range(n)
                ])
                T = generators.random_invertible(rng, n)
                m = T.matrix * N * T.inverse
            else:
                m = RationalMatrix([
                    [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(n)
                ])
            power, want = m, 1
            while any(map(any, power.entries)):
                if want == n:
                    want = None
                    break
                power = power * m
                want += 1
            assert _nilpotency_index(m) == want

    def test_one_variable_fallback(self, power_calls):
        # H = (x - x0)^2: J = 2(x - x0) vanishes at x0, but J^1 does not.
        (x0,) = _probe_point(1)
        H = PolyMap([parse_polynomial(f"(x - {x0})^2", 1)])
        assert not is_nilpotent_bruteforce(H)
        assert power_calls == [1]

    def test_two_variable_fallback(self, power_calls):
        # J(x0) = [[0, 1], [0, 0]] is nonzero and nilpotent; J^2 is not zero.
        a, b = _probe_point(2)
        H = parse_map(f"y + (x - {a})^2 * (y - {b}); 0")
        assert _jacobian_at(H, (a, b)) == RationalMatrix([[0, 1], [0, 0]])
        assert not symbolic_power_is_zero(H)
        assert not is_nilpotent_bruteforce(H)
        assert power_calls == [2]

    def test_zero_jacobian_at_the_point_falls_back(self, power_calls):
        a, b = _probe_point(2)
        H = parse_map(f"(x - {a})^2; (y - {b})^2")
        assert not is_nilpotent_bruteforce(H)
        assert power_calls == [2]

    def test_nilpotent_map_takes_the_symbolic_path(self, power_calls):
        assert is_nilpotent_bruteforce(parse_map("(z*x + y)^2; -z*(z*x + y)^2; 0"))
        assert power_calls == [3]

    def test_refuted_maps_never_power_symbolically(self, power_calls):
        assert not is_nilpotent_bruteforce(parse_map("x; y"))
        assert not is_nilpotent_bruteforce(parse_map("x*y + z^2; x^2; y*z"))
        assert power_calls == []

    def test_point_powering_stops_at_the_first_zero_power(
        self, monkeypatch, power_calls
    ):
        # J(x0) has the single nonzero row (0, 1, 1, 0), so J(x0)^2 = 0 at
        # n = 4, and the zero map has J(x0) = 0.
        products = []
        int_matmul = analysis._int_matmul

        def counted(rows, columns):
            products.append(columns)
            return int_matmul(rows, columns)

        monkeypatch.setattr(analysis, "_int_matmul", counted)
        assert is_nilpotent_bruteforce(parse_map("x2 + x3; 0; 0; 0"))
        assert len(products) == 1
        products.clear()
        assert is_nilpotent_bruteforce(parse_map("0; 0; 0"))
        assert products == []
        assert power_calls == [4, 3]

    def test_point_index_below_the_symbolic_index(self, power_calls):
        # (z - 5)*y; z; 0: J(x0)^2 = 0, but J^2 = [[0, 0, z - 5], 0, 0] is
        # not zero; J^3 = 0, so the map is nilpotent.
        H = parse_map("(z - 5)*y; z; 0")
        at = _jacobian_at(H, _probe_point(3))
        assert at * at == RationalMatrix([[0] * 3] * 3)
        assert ref_matrix_power(jacobian(H), 2)[0, 2] == parse_polynomial("z - 5", 3)
        assert is_nilpotent_bruteforce(H)
        assert power_calls == [3]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_symbolic_power(self, n, power_calls):
        rng = random.Random(100 + n)
        maps = []
        for _ in range(25):
            d, terms = rng.randint(1, 3), rng.randint(1, 4)
            H = generators.random_map(rng, n, d, terms=terms)
            if rng.random() < 0.5:
                c = Fraction(rng.choice([-3, 1, 2]), rng.randint(2, 5))
                H = PolyMap([p.scale(c) for p in H])
            maps.append(H)
        if n in (2, 3, 4):
            for _ in range(8):
                H = generators.random_nilpotent_map(rng, n)
                if rng.random() < 0.5:
                    # rational coefficients, still nilpotent
                    H = conjugate(H, generators.random_invertible(rng, n))
                maps.append(H)
        for H in maps:
            before = len(power_calls)
            got = is_nilpotent_bruteforce(H)
            assert got == symbolic_power_is_zero(H)
            if len(power_calls) == before:
                assert got is False


class TestDependence:
    def test_certificate_golden(self):
        H = parse_map("x + y; 2*x + 2*y; x")
        cert = linear_dependence(H.components)
        assert cert is not None
        assert cert.coefficients == (
            Fraction(1),
            Fraction(-1, 2),
            Fraction(0),
        )
        assert cert.verify(H.components)

    def test_independent_returns_none(self):
        H = parse_map("x; y; x*y")
        assert linear_dependence(H.components) is None

    def test_all_zero_components(self):
        H = parse_map("0; 0")
        cert = linear_dependence(H.components)
        assert cert is not None
        assert cert.verify(H.components)

    @staticmethod
    def reference(components):
        """The first vector of the dense Fraction kernel of the monomial
        coefficient matrix, the reference for `linear_dependence`."""
        monomials = sorted({e for p in components for e in p.terms})
        if not monomials:
            return [Fraction(int(j == 0)) for j in range(len(components))]
        rows = [[p.coefficient(e) for p in components] for e in monomials]
        basis = ref_kernel(rows)
        return basis[0] if basis else None

    def test_matches_dense_kernel(self):
        rng = random.Random(31)
        maps = []
        for n in (2, 3, 4):
            for _ in range(12):
                degree, terms = rng.randint(1, 3), rng.randint(1, 4)
                maps.append(generators.random_map(rng, n, degree, terms=terms))
                maps.append(generators.random_nilpotent_map(rng, n))
        maps += [
            conjugate(H, generators.random_invertible(rng, H.dimension)) for H in maps
        ]
        dependent = 0
        for H in maps:
            want = self.reference(H.components)
            got = linear_dependence(H.components)
            if want is None:
                assert got is None
            else:
                dependent += 1
                assert got == DependenceCertificate(want)
                assert got.verify(H.components)
        assert 0 < dependent < len(maps)

    def test_stops_at_the_first_dependent_component(self):
        class Unread(Polynomial):
            """A polynomial whose terms must never be read."""

            __slots__ = ()

            @property
            def _terms(self):
                raise AssertionError("a component after the dependence was read")

        unread = object.__new__(Unread)
        object.__setattr__(unread, "n", 2)
        x = Polynomial.variable(2, 1)
        cert = linear_dependence([x, x.scale(2), unread])
        assert cert.coefficients == (Fraction(1), Fraction(-1, 2), Fraction(0))

    def test_certificate_normalization(self):
        c = DependenceCertificate([0, -2, 4])
        assert c.coefficients == (Fraction(0), Fraction(1), Fraction(-2))

    def test_float_certificate_rejected(self):
        with pytest.raises(InexactValue):
            DependenceCertificate([1, 0.5])

    def test_all_zero_certificate_rejected(self):
        with pytest.raises(ShapeError):
            DependenceCertificate([0, 0])

    def test_verify_rejects_wrong_length(self):
        c = DependenceCertificate([1, -1])
        with pytest.raises(Exception):
            c.verify(parse_map("x; y; 0").components)


class TestConjugation:
    def test_swap_golden(self):
        H = parse_map("y; 0")
        swap = RationalMatrix([[0, 1], [1, 0]])
        T = LinearMap(swap, swap)
        assert conjugate(H, T) == parse_map("0; x")

    def test_identity_conjugation(self):
        H = parse_map("x*y + z; y^2; z")
        assert conjugate(H, LinearMap.identity(3)) == H

    def test_conjugation_composes(self):
        rng = random.Random(3)
        H = generators.random_map(rng, 3, 2, terms=3)
        T1 = generators.random_invertible(rng, 3)
        T2 = generators.random_invertible(rng, 3)
        assert conjugate(conjugate(H, T1), T2) == conjugate(H, T1 * T2)

    def test_preserves_nilpotency(self):
        rng = random.Random(4)
        for _ in range(10):
            n = rng.choice([2, 3])
            H = generators.random_nilpotent_map(rng, n)
            T = generators.random_invertible(rng, n)
            assert is_nilpotent(conjugate(H, T))

    def test_preserves_dependence_presence(self):
        rng = random.Random(5)
        for _ in range(10):
            H = generators.random_map(rng, 3, 2, terms=2)
            T = generators.random_invertible(rng, 3)
            before = linear_dependence(H.components) is not None
            after = linear_dependence(conjugate(H, T).components) is not None
            assert before == after


def reference_conjugate(H, T):
    """T^-1 (H(T x)) on Fraction dicts: each component of H is expanded term
    by term over T's rows by `ref_substitute` (repeated `ref_mul`), and the
    results are combined with T^-1's rows by `ref_add`; no step calls
    `substitute`, `compose` or any other part of the substitution kernel."""
    n = H.dimension
    unit = [tuple(int(k == m) for k in range(n)) for m in range(n)]
    images = [
        Polynomial(n, {unit[m]: T.matrix[j, m] for m in range(n)}) for j in range(n)
    ]
    composed = [ref_substitute(p, images) for p in H.components]
    out = []
    for i in range(n):
        acc = Polynomial.zero(n)
        for k in range(n):
            c = T.inverse[i, k]
            acc = ref_add(acc, Polynomial(n, {e: c * v for e, v in composed[k].terms.items()}))
        out.append(acc)
    return PolyMap(out)


def fractional_conjugator(rng, n):
    """A random T with a non-integral entry in T and in T^-1."""
    while True:
        grid = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        try:
            T = LinearMap(RationalMatrix(grid))
        except NilmapError:
            continue
        if all(
            any(v.__class__ is Fraction for row in m.entries for v in row)
            for m in (T.matrix, T.inverse)
        ):
            return T


class TestConjugateDifferential:
    """conjugate against `reference_conjugate` on the inputs where a table of
    expanded monomials could go wrong: components with one shared support,
    one monomial under several denominators, images over a denominator
    d != 1, zero and constant components, Fractions in T and in T^-1."""

    @pytest.mark.parametrize("n", [5, 6])
    def test_components_share_support(self, n):
        # Dense, as a conjugate in general position is: every component
        # carries every monomial of degree 1 and 2, each with its own
        # nonzero Fraction coefficient.
        rng = random.Random(40 + n)
        support = [
            tuple(int(k == i) + int(k == j) for k in range(n))
            for i in range(n)
            for j in range(i, n + 1)
        ]
        H = PolyMap(
            [
                Polynomial(n, {e: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)) for e in support})
                for _ in range(n)
            ]
        )
        assert {frozenset(p.monomials()) for p in H} == {frozenset(support)}
        T = fractional_conjugator(rng, n)
        got = conjugate(H, T)
        assert got == reference_conjugate(H, T)
        for p in got:
            stored_terms(p)

    def test_monomial_under_different_denominators(self):
        H = parse_map("1/3*x^2*y + z; 2/5*x^2*y - 1/7*y; 5/2*x^2*y + x*z^2")
        T = LinearMap(RationalMatrix([[Fraction(1, 2), 1, 0], [0, Fraction(2, 3), 1], [1, 0, Fraction(3, 4)]]))
        assert any(v.__class__ is Fraction for row in T.inverse.entries for v in row)
        got = conjugate(H, T)
        assert got == reference_conjugate(H, T)
        for p in got:
            stored_terms(p)

    def test_zero_and_constant_components(self):
        H = parse_map("0; 3/4; x*y - 1/2*z^2; 0")
        for seed in range(4):
            T = fractional_conjugator(random.Random(seed), 4)
            assert conjugate(H, T) == reference_conjugate(H, T)
        zero = PolyMap.zero(3)
        assert conjugate(zero, fractional_conjugator(random.Random(9), 3)) == zero


class TestConjugateFractionFree:
    @pytest.mark.parametrize("seed", range(6))
    def test_fraction_coefficients_and_large_determinant(self, seed):
        rng = random.Random(seed)
        n = rng.choice([2, 3, 4])
        H = generators.random_map(rng, n, rng.randint(1, 3), terms=3)
        H = PolyMap([p.scale(Fraction(rng.randint(1, 5), rng.randint(2, 6))) for p in H])
        while True:
            grid = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)
            ]
            m = RationalMatrix(grid)
            try:
                T = LinearMap(m)
            except NilmapError:
                continue
            if abs(ref_det(grid)) > 1:
                break
        got = conjugate(H, T)
        assert got == reference_conjugate(H, T)
        # The defining identity T (conjugate(H, T)) = H o T, without T^-1.
        assert PolyMap(
            [
                sum((got[k].scale(T.matrix[i, k]) for k in range(n)), Polynomial.zero(n))
                for i in range(n)
            ]
        ) == H.compose(T.as_poly_map())
        for p in got:
            stored_terms(p)

    def test_hand_computed(self):
        # T = diag(2, 3), det 6: T^-1 H(Tx) = (((2x)^2 + (3y)/2) / 2, 2x / 3).
        H = PolyMap([parse_polynomial("x^2 + 1/2*y", 2), parse_polynomial("x", 2)])
        T = LinearMap(RationalMatrix([[2, 0], [0, 3]]))
        assert conjugate(H, T) == parse_map("2*x^2 + 3/4*y; 2/3*x")


class TestDivergenceCoefficients:
    def test_constructed_pairs_pass(self):
        rng = random.Random(6)
        for _ in range(15):
            u, v = generators.divergence_pair(rng)
            assert check_divergence_coefficients(u, v)

    def test_nonzero_divergence_rejected(self):
        u = parse_polynomial("x*z", 3)
        v = parse_polynomial("y", 3)
        with pytest.raises(PreconditionError):
            check_divergence_coefficients(u, v)

    def test_excess_z_degree_rejected(self):
        # u_x + v_y = 0 holds but deg_z v > deg_z u
        u = parse_polynomial("z", 3)
        v = parse_polynomial("z^2", 3)
        with pytest.raises(PreconditionError):
            check_divergence_coefficients(u, v)

    def test_hand_built_pair(self):
        # u = x*y + z^3, v = -y^2/2 + x*z
        u = parse_polynomial("x*y + z^3", 3)
        v = parse_polynomial("-1/2*y^2 + x*z", 3)
        assert check_divergence_coefficients(u, v)
