"""Unit tests for the classification and reduction pipelines."""

import random
from fractions import Fraction

import pytest

from nilmap import (
    CanonicalFormA,
    ConstructionMismatch,
    FormAInstance,
    GeneralizedFormB,
    LinearMap,
    NilpotencyReport,
    NotNilpotentTop,
    PolyMap,
    Polynomial,
    PreconditionError,
    ReducedForm4D,
    ShapeError,
    TheoremViolation,
    build_canonical_pair,
    certify_dependence,
    conjugate,
    elementary_row_add,
    is_nilpotent,
    is_nilpotent_bruteforce,
    keller_parameterized_check,
    linear_dependence,
    map_to_document,
    nilpotency_system,
    normalize_low_z_degree,
    parse_map,
    parse_polynomial,
    recognize_canonical_pair,
    reduce_4d,
    split_dependent_4d,
    triangularize_top_coefficients,
)
from nilmap import classify, generators


def pz(text):
    return parse_polynomial(text, 1, aliases="z")


def ptz(text):
    return parse_polynomial(text, 2, aliases="tz")


def pxy(text):
    return parse_polynomial(text, 2, aliases="xy")


class TestCanonicalBuild:
    def test_fixed_parameters_golden(self):
        params = CanonicalFormA(
            pz("1"), pz("1"), pz("z^2"), pz("z"), ptz("t")
        )
        H = build_canonical_pair(params)
        assert H == parse_map("x + y + z^2; -x - y + z; 0")
        assert is_nilpotent(H)

    def test_z_dependent_h(self):
        params = CanonicalFormA(
            pz("z"), pz("1"), pz("z^3"), pz("z"), ptz("t^2 + z*t")
        )
        H = build_canonical_pair(params)
        assert is_nilpotent(H)
        assert H.components[2].is_zero()

    def test_always_nilpotent_across_draws(self):
        rng = random.Random(10)
        for _ in range(15):
            H = build_canonical_pair(generators.random_canonical_params(rng))
            assert is_nilpotent(H)
            assert H.value_at_zero() == [0, 0, 0]

    def test_origin_constraint_enforced(self):
        with pytest.raises(PreconditionError):
            CanonicalFormA(pz("1"), pz("1"), pz("z + 1"), pz("z"), ptz("t"))

    def test_arity_validated(self):
        with pytest.raises(ShapeError):
            CanonicalFormA(ptz("t"), pz("1"), pz("0"), pz("0"), ptz("t"))
        with pytest.raises(ShapeError):
            CanonicalFormA(pz("1"), pz("1"), pz("0"), pz("0"), pz("z"))


class TestFormAInstance:
    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            FormAInstance(parse_map("x; y"))
        with pytest.raises(ShapeError):
            FormAInstance(parse_map("x; y; z"))  # third component uses z
        with pytest.raises(ShapeError):
            FormAInstance(parse_map("x; y*z^2; x"))  # deg_z v = 2
        with pytest.raises(ShapeError):
            FormAInstance(parse_map("x + 1; y; x"))  # moves the origin

    def test_accepts_valid_instance(self):
        inst = FormAInstance(parse_map("z^2; x*z; y"))
        assert inst.z_index == 3


class TestCertifyDependence:
    def test_fixed_instance(self):
        params = CanonicalFormA(
            pz("1"), pz("2"), pz("z^2"), pz("z"), ptz("t")
        )
        H = build_canonical_pair(params)
        cert = certify_dependence(FormAInstance(H))
        assert cert.verify(H.components)

    def test_conjugated_instances(self):
        rng = random.Random(11)
        for _ in range(10):
            H = build_canonical_pair(generators.random_canonical_params(rng))
            T0 = generators.random_form_a_conjugator(rng)
            Hc = conjugate(H, T0)
            cert = certify_dependence(FormAInstance(Hc))
            assert cert.verify(Hc.components)

    def test_preconditions(self):
        # deg_z v must be exactly 1
        H = parse_map("z^2; x; y")
        with pytest.raises(PreconditionError):
            certify_dependence(FormAInstance(H))
        # deg_z u must be at least 2
        H = parse_map("z; x*z; y")
        with pytest.raises(PreconditionError):
            certify_dependence(FormAInstance(H))
        # the Jacobian must be nilpotent
        H = parse_map("z^2 + x; x*z; y")
        with pytest.raises(PreconditionError):
            certify_dependence(FormAInstance(H))


class TestRecognizeCanonical:
    def test_round_trip_unconjugated(self):
        params = CanonicalFormA(
            pz("1"), pz("1"), pz("z^2"), pz("z"), ptz("t^2")
        )
        H = build_canonical_pair(params)
        result = recognize_canonical_pair(H)
        assert result is not None
        T, found = result
        assert conjugate(H, T) == build_canonical_pair(found)

    def test_round_trip_conjugated(self):
        rng = random.Random(12)
        for _ in range(10):
            H = build_canonical_pair(generators.random_canonical_params(rng))
            T0 = generators.random_form_a_conjugator(rng)
            Hc = conjugate(H, T0)
            result = recognize_canonical_pair(Hc)
            assert result is not None
            T, found = result
            assert conjugate(Hc, T) == build_canonical_pair(found)

    def test_one_inverse_per_recognized_pair(self, monkeypatch):
        from nilmap.linalg import RationalMatrix

        rng = random.Random(12)
        pairs = []
        for _ in range(10):
            H = build_canonical_pair(generators.random_canonical_params(rng))
            pairs.append(conjugate(H, generators.random_form_a_conjugator(rng)))
        calls = []
        inverse = RationalMatrix.inverse

        def counting_inverse(self):
            calls.append(self)
            return inverse(self)

        monkeypatch.setattr(RationalMatrix, "inverse", counting_inverse)
        for Hc in pairs:
            calls.clear()
            T, found = recognize_canonical_pair(Hc)
            assert len(calls) == 1
            assert T.inverse == calls[0]
            assert conjugate(Hc, T) == build_canonical_pair(found)

    def test_returns_none_on_unmet_preconditions(self):
        assert recognize_canonical_pair(parse_map("x; y")) is None
        # not nilpotent
        assert recognize_canonical_pair(parse_map("z^2 + x; x*z; 0")) is None
        # deg_z u too small
        assert recognize_canonical_pair(parse_map("z; x*z; 0")) is None


class TestTriangularize:
    def test_fixed_example(self):
        # top z-coefficients (x + y, -x - y) share the direction (1, -1)
        H = parse_map("(x + y)*z^2; -(x + y)*z^2 + x; 0")
        T, Hc = triangularize_top_coefficients(H)
        u, v, _ = Hc.components
        d = max(u.degree_in(3), v.degree_in(3))
        coeffs = v.coefficients_in(3)
        vd = (
            coeffs[d]
            if d < len(coeffs)
            else Polynomial.zero(3)
        )
        assert vd.is_constant()
        assert conjugate(H, T) == Hc

    def test_rejects_non_nilpotent_top(self):
        with pytest.raises(NotNilpotentTop):
            triangularize_top_coefficients(parse_map("x*z; y*z; 0"))

    def test_needs_positive_z_degree(self):
        with pytest.raises(PreconditionError):
            triangularize_top_coefficients(parse_map("x; y; 0"))


class TestNormalizeLowZ:
    def test_rejects_non_nilpotent(self):
        with pytest.raises(PreconditionError):
            normalize_low_z_degree(FormAInstance(parse_map("x; y; 0")))

    def test_rejects_dependent_components(self):
        H = parse_map("y; 2*y; 0")
        with pytest.raises(PreconditionError):
            normalize_low_z_degree(FormAInstance(H))

    def test_rejects_independent_non_nilpotent(self):
        H = parse_map("x + z; y; x^2")
        assert linear_dependence(H.components) is None
        with pytest.raises(PreconditionError, match="nilpotent"):
            normalize_low_z_degree(FormAInstance(H))

    def test_rejects_high_first_z_degree(self):
        # deg_z u >= 2 forces linear dependence, contradicting independence
        H = parse_map("z^2; x*z; y")
        with pytest.raises(PreconditionError):
            normalize_low_z_degree(FormAInstance(H))

    def test_nilpotent_instances_of_this_shape_are_always_dependent(self):
        # Conjugated canonical pairs are linearly dependent by construction,
        # so the independence precondition rejects each of these draws.
        # Not every nilpotent map of this shape is dependent: H3 in
        # test_independent_nilpotent_instance_is_normalized is not.
        rng = random.Random(42)
        hits = 0
        for _ in range(120):
            H = build_canonical_pair(generators.random_canonical_params(rng))
            T0 = generators.random_form_a_conjugator(rng)
            Hc = conjugate(H, T0)
            hits += 1
            assert linear_dependence(Hc.components) is not None
            with pytest.raises(PreconditionError):
                normalize_low_z_degree(FormAInstance(Hc))
        assert hits == 120

    def test_independent_nilpotent_instance_is_normalized(self):
        # H3: nilpotent, with linearly independent components, deg_z u = 1
        # and v, h free of z, so it is already of the target shape.
        H = parse_map("z + 2*y*(x + y^2); -(x + y^2); (x + y^2)^2")
        assert is_nilpotent(H)
        assert linear_dependence(H.components) is None
        assert recognize_canonical_pair(H) is None
        T, reduced = normalize_low_z_degree(FormAInstance(H))
        assert T.is_identity()
        assert reduced == H


class TestGeneralizedShape:
    def test_infers_linear_coefficients(self):
        H = parse_map("x4 + x1^2; 2*x3 - x4 + x2; x1*x2; x1")
        inst = GeneralizedFormB(H)
        assert inst.b == (Fraction(2), Fraction(-1))
        assert inst.H2_0 == parse_polynomial("x2", 4)
        assert inst.linear_tail_coefficients() == (Fraction(0), Fraction(1))
        assert inst.head_part() == parse_polynomial("x1^2", 4)

    def test_shape_violations(self):
        # tail component involving x3
        with pytest.raises(ShapeError):
            GeneralizedFormB(parse_map("x1; x2; x3; x1"))
        # second component quadratic in x3
        with pytest.raises(ShapeError):
            GeneralizedFormB(parse_map("x1; x3^2; x1; x2"))
        # origin not fixed
        with pytest.raises(ShapeError):
            GeneralizedFormB(parse_map("x1 + 1; x2; x1; x2"))

    def test_nonlinear_first_component_tail(self):
        H = parse_map("x3*x4; x3; x1; x2")
        inst = GeneralizedFormB(H)
        assert inst.linear_tail_coefficients() is None
        with pytest.raises(ShapeError):
            inst.head_part()


class TestNilpotencySystem:
    def test_system_vanishes_iff_nilpotent(self):
        rng = random.Random(13)
        seen = {True: 0, False: 0}
        for _ in range(40):
            n = rng.choice([4, 5])
            draw = rng.random()
            if draw < 0.4:
                inst = generators.nilpotent_generalized(rng, n)
            elif draw < 0.6:
                inst = generators.nilpotent_generalized_coupled(rng, n)
            else:
                inst = generators.random_generalized(rng, n)
            system = nilpotency_system(inst)
            assert len(system) == 4
            verdict = all(e.is_zero() for e in system)
            assert verdict == is_nilpotent(inst.map)
            seen[verdict] += 1
        assert seen[True] >= 5 and seen[False] >= 5

    def test_trace_equation_golden(self):
        H = parse_map("x1^2; x3; x1*x2; 0")
        system = nilpotency_system(GeneralizedFormB(H))
        assert system[0] == parse_polynomial("2*x1", 4)

    def test_nonzero_higher_minor_sum_is_a_construction_mismatch(self, monkeypatch):
        # sigma_5..sigma_n vanish for every map of this shape, so only a
        # faulty sigma source reaches the guard: here one whose sigma_5 is 1.
        inst = generators.nilpotent_generalized(random.Random(3), 5)
        sigma = list(classify.nilpotency_equations(inst.map).sigma)
        assert all(s.is_zero() for s in sigma[4:])
        sigma[4] = Polynomial.const(5, 1)
        seen = []

        def faulty(m):
            seen.append(m)
            return NilpotencyReport(sigma)

        monkeypatch.setattr(classify, "nilpotency_equations", faulty)
        with pytest.raises(ConstructionMismatch) as info:
            nilpotency_system(inst)
        assert str(info.value).splitlines()[0] == (
            "principal minor sum of size 5 is nonzero for this shape"
        )
        assert info.value.instance == map_to_document(inst.map)
        assert seen == [inst.map]


def generalized_map(rng, n, b, p, tails):
    """(H_1, b.x + p(x2), tails...) with trace zero: H_1 = -p'(x2) x1 + R.

    R is random in x2..xn, so the trace equation of the nilpotency system
    holds and only the other three can refute nilpotency.
    """
    x = [Polynomial.variable(n, i) for i in range(1, n + 1)]
    R = generators.random_polynomial(rng, n, 2, terms=3).substitute(
        {1: Polynomial.zero(n)}
    )
    H1 = R - p.partial(2) * x[0]
    H2 = p
    for bi, xi in zip(b, x[2:]):
        H2 = H2 + xi.scale(bi)
    return PolyMap([H1, H2, *tails])


def planar(rng, n):
    """A random polynomial in (x1, x2), lifted to n variables."""
    return generators.random_polynomial(rng, 2, 2, terms=2).lift(n, [1, 2])


class TestLeadingPartDegree:
    def test_nilpotent_instances_of_this_shape_are_always_dependent(self):
        # Both generators build the dependence in: nilpotent_generalized
        # has (H_1, H_2) = (q f(w), -p f(w)), so p H_1 + q H_2 = 0, and the
        # coupled family has H_3 = H_4.
        rng = random.Random(15)
        checked = 0
        for _ in range(400):
            draw = rng.random()
            n = rng.choice([4, 5])
            if draw < 0.5:
                inst = generators.nilpotent_generalized(rng, n)
            else:
                inst = generators.nilpotent_generalized_coupled(rng, n)
            assert is_nilpotent(inst.map)
            assert linear_dependence(inst.map.components) is not None
            checked += 1
        assert checked == 400

    def test_uncoupled_second_component_is_never_nilpotent(self):
        # b = 0: row 2 of JH is (0, p'(x2), 0, ..., 0), so t - p' divides
        # det(tI - JH), and nilpotency forces p' = 0, that is H_2 = 0.
        rng = random.Random(21)
        for _ in range(60):
            n = rng.choice([3, 4, 5])
            p = generators.random_univariate(rng, 3).lift(n, [2])
            H = generalized_map(
                rng, n, [0] * (n - 2), p, [planar(rng, n) for _ in range(n - 2)]
            )
            assert all(bi == 0 for bi in GeneralizedFormB(H).b)
            assert not is_nilpotent_bruteforce(H)

    def test_coupling_with_h2_free_of_x1_is_never_nilpotent(self):
        # b != 0 with h2 = sum b_i H_i free of x1: det(tI - JH) =
        # t^(n-4) det(t^2 I - tK - LN), whose coefficients then read
        # AB = 0, p'(A - B) = 0 and p'^2 + A + B = 0 for A = sum a_i
        # dH_i/dx1 and B = dh2/dx2.  So nilpotency forces p' = B = 0,
        # that is p = h2 = 0.
        rng = random.Random(22)
        for _ in range(60):
            n = rng.choice([3, 4, 5])
            b = [rng.randint(-2, 2) for _ in range(n - 2)]
            j = rng.randrange(n - 2)
            b[j] = rng.choice([-2, -1, 1, 2])
            p, k = Polynomial.zero(n), Polynomial.zero(n)
            while p.is_zero() and k.is_zero():
                if rng.random() < 0.7:
                    p = generators.random_univariate(rng, 3).lift(n, [2])
                if rng.random() < 0.7:
                    k = generators.random_univariate(rng, 3).lift(n, [2])
            tails = [planar(rng, n) for _ in range(n - 2)]
            rest = sum(
                (t.scale(bi) for i, (t, bi) in enumerate(zip(tails, b)) if i != j),
                Polynomial.zero(n),
            )
            tails[j] = (k - rest).scale(Fraction(1, b[j]))
            H = generalized_map(rng, n, b, p, tails)
            inst = GeneralizedFormB(H)
            h2 = sum(
                (t.scale(bi) for t, bi in zip(H.components[2:], inst.b)),
                Polynomial.zero(n),
            )
            assert h2 == k and h2.partial(1).is_zero()
            assert not is_nilpotent_bruteforce(H)


class TestReduceGeneralized:
    def test_coupled_nilpotent_instances_are_dependent(self):
        # The random instances with b != 0 and H_2 free of x1 that are
        # nilpotent all have dependent components.  The cases h2 free of x1
        # and b = 0 are proved (see the two tests above); for h2 with x1,
        # H_1 = -p'(x2) x1 + rho(x2) + S(x3, ..., xn) is forced, and every
        # such map of total degree <= 2 in four variables is dependent.
        rng = random.Random(18)
        hits = 0
        for _ in range(300):
            inst = generators.random_generalized(rng, 4)
            if all(b == 0 for b in inst.b):
                continue
            if 1 in inst.H2_0.variables_used():
                continue
            if not is_nilpotent(inst.map):
                continue
            hits += 1
            assert linear_dependence(inst.map.components) is not None
        assert hits >= 1

    def test_coupling_conjugation_matrix_action(self):
        # add c times the first coordinate to the second, here with c = 2
        T = elementary_row_add(4, 1, Fraction(2), 2)
        H = parse_map("x1^2; 0; 0; 0")
        Hc = conjugate(H, T)
        # T^-1 carries -2 in the (2,1) slot, so the second component picks
        # up -2 times the first
        assert Hc.components[1] == parse_polynomial("-2*x1^2", 4)
        assert Hc.components[0] == parse_polynomial("x1^2", 4)


class TestReduce4D:
    def test_core_extraction_golden(self):
        H = parse_map("x3 + x1^2; 2*x4 + x2^2; x1*x2; x1 - x2")
        inst = GeneralizedFormB(H)
        core = reduce_4d(inst)
        assert core.h1 == pxy("x^2")
        assert core.h2 == pxy("y^2")
        assert core.h3 == pxy("x*y")  # a = (1, 0)
        assert core.h4 == pxy("2*x - 2*y")  # b = (0, 2)

    def test_nilpotency_equivalence_preserved(self):
        rng = random.Random(19)
        for _ in range(10):
            inst = generators.nilpotent_generalized(rng, 5)
            core = reduce_4d(inst)
            assert is_nilpotent(core.realize())

    def test_realize_shape(self):
        core = ReducedForm4D(pxy("x"), pxy("y"), pxy("0"), pxy("x*y"))
        F = core.realize()
        assert F.components[0] == parse_polynomial("x3 + x1", 4)
        assert F.components[1] == parse_polynomial("x4 + x2", 4)
        assert F.components[2].is_zero()
        assert F.components[3] == parse_polynomial("x1*x2", 4)

    def test_arity_checked(self):
        with pytest.raises(ShapeError):
            ReducedForm4D(
                parse_polynomial("x", 3), pxy("0"), pxy("0"), pxy("0")
            )


class TestSplitDependent4D:
    def test_fourth_component_vanishes(self):
        rng = random.Random(20)
        for _ in range(10):
            core, lam = generators.dependent_reduced4d(rng)
            T, result = split_dependent_4d(core, lam)
            assert result.components[3].is_zero()
            if is_nilpotent(core.realize()):
                assert is_nilpotent(result)

    def test_golden_instance(self):
        core = ReducedForm4D(pxy("x"), pxy("y"), pxy("x^2"), pxy("2*x^2"))
        T, result = split_dependent_4d(core, Fraction(2))
        assert result.components[3].is_zero()
        assert conjugate(core.realize(), T) == result

    def test_requires_exact_proportionality(self):
        core = ReducedForm4D(pxy("x"), pxy("y"), pxy("x^2"), pxy("x"))
        with pytest.raises(PreconditionError):
            split_dependent_4d(core, Fraction(2))


class TestParameterizedKeller:
    def test_equivalence_with_nilpotency(self):
        rng = random.Random(21)
        seen = {True: 0, False: 0}
        for _ in range(40):
            core = (
                generators.nilpotent_reduced4d(rng)[0]
                if rng.random() < 0.4
                else generators.random_reduced4d(rng)
            )
            verdict = keller_parameterized_check(core)
            assert verdict == is_nilpotent(core.realize())
            seen[verdict] += 1
        assert seen[True] >= 5 and seen[False] >= 5

    def test_golden_true(self):
        core = ReducedForm4D(pxy("y"), pxy("0"), pxy("0"), pxy("0"))
        assert keller_parameterized_check(core)

    def test_golden_false(self):
        core = ReducedForm4D(pxy("x"), pxy("0"), pxy("0"), pxy("0"))
        assert not keller_parameterized_check(core)
