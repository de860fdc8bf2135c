"""Property-based tests of the algebraic identities the library relies on."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from nilmap import (
    PolyMap,
    Polynomial,
    conjugate,
    format_polynomial,
    is_nilpotent,
    is_nilpotent_bruteforce,
    jacobian,
    parse_polynomial,
)
from nilmap.linalg import PolyMatrix, row_conjugator
from reference_matrix import poly_det, ref_matmul
from stored_form import assert_clean
from test_poly import ref_substitute

settings.register_profile("suite", max_examples=30, deadline=None)
settings.load_profile("suite")


def polynomials(n=2, max_exp=3, max_terms=4):
    coeff = st.fractions(
        min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
    )
    exps = st.tuples(*(st.integers(0, max_exp) for _ in range(n)))
    return st.dictionaries(exps, coeff, max_size=max_terms).map(
        lambda terms: Polynomial(n, terms)
    )


@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polynomials())
def test_additive_inverse(p):
    assert (p - p).is_zero()
    assert p + Polynomial.zero(2) == p


@given(polynomials(), polynomials())
def test_product_rule(p, q):
    for i in (1, 2):
        assert (p * q).partial(i) == p.partial(i) * q + p * q.partial(i)


@given(polynomials())
def test_mixed_partials_commute(p):
    assert p.partial(1).partial(2) == p.partial(2).partial(1)


@given(polynomials())
def test_coefficients_reconstruct(p):
    y = Polynomial.variable(2, 2)
    acc = Polynomial.zero(2)
    for k, c in enumerate(p.coefficients_in(2)):
        acc = acc + c * y ** k
    assert acc == p


@given(polynomials())
def test_homogeneous_parts_reconstruct(p):
    acc = Polynomial.zero(2)
    for part in p.homogeneous_parts([1, 2]):
        acc = acc + part
    assert acc == p


@given(polynomials())
def test_format_parse_round_trip(p):
    assert parse_polynomial(format_polynomial(p), 2) == p


@given(polynomials(), polynomials())
def test_substitution_morphism(p, q):
    bindings = {1: q, 2: Polynomial.variable(2, 1)}
    lhs = (p * p + p).substitute(bindings)
    ps = p.substitute(bindings)
    assert lhs == ps * ps + ps


@given(polynomials(max_exp=2, max_terms=3))
def test_truncation_splits_degrees(p):
    low = p.truncate(2)
    assert all(sum(e) <= 2 for e in low.terms)
    assert all(sum(e) > 2 for e in (p - low).terms)


@given(st.lists(polynomials(max_exp=1, max_terms=2), min_size=4, max_size=4))
def test_det_is_multiplicative(entries):
    a = PolyMatrix([[entries[0], entries[1]], [entries[2], entries[3]]])
    b = PolyMatrix([[entries[3], entries[1]], [entries[2], entries[0]]])
    assert poly_det(ref_matmul(a, b)) == poly_det(a) * poly_det(b)


@given(
    st.lists(polynomials(max_exp=1, max_terms=2), min_size=2, max_size=2)
)
def test_nilpotency_oracles_agree(components):
    H = PolyMap(components)
    assert is_nilpotent(H) == is_nilpotent_bruteforce(H)


@given(polynomials(max_exp=2, max_terms=3))
def test_chain_rule_for_maps(p):
    # d/dx of p(x + y, y) equals p_1(x + y, y) by the chain rule
    shifted = p.substitute(
        {1: Polynomial.variable(2, 1) + Polynomial.variable(2, 2)}
    )
    assert shifted.partial(1) == p.partial(1).substitute(
        {1: Polynomial.variable(2, 1) + Polynomial.variable(2, 2)}
    )


@given(st.lists(polynomials(max_exp=1, max_terms=2), min_size=2, max_size=2))
def test_jacobian_of_composition(components):
    # the determinant of a composed map's Jacobian is the product of the
    # factors' determinants with the inner map substituted
    F = PolyMap.identity(2) + PolyMap(
        [p.truncate(3) for p in components]
    )
    G = PolyMap.identity(2)
    comp = F.compose(G)
    assert poly_det(jacobian(comp)) == poly_det(jacobian(F))


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.sets(
            st.tuples(*(st.integers(0, 2**16 // n - 1) for _ in range(n))),
            min_size=1,
            max_size=12,
        )
    )
)
def test_packed_keys_sort_in_graded_lex_order(monomials):
    # The int order of the stored keys is the graded-lex order of the
    # exponent tuples, which the formatter and leading_term rely on.
    from nilmap.poly import _grlex_key
    from stored_form import decode_key, encode_key

    n = len(next(iter(monomials)))
    p = Polynomial(n, {e: 1 for e in monomials})
    assert {encode_key(e) for e in monomials} == set(p._terms)
    decoded = [decode_key(key, n) for key in sorted(p._terms)]
    assert decoded == sorted(monomials, key=_grlex_key)
    assert p.leading_term()[0] == decoded[-1]


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.fractions(min_value=-3, max_value=3, max_denominator=2),
                min_size=n,
                max_size=n,
            ).filter(any),
            st.integers(1, n),
            st.lists(polynomials(n, max_exp=2, max_terms=3), min_size=n, max_size=n),
        )
    )
)
def test_row_conjugator_slots(case):
    # Slot p of conjugate(H, T) is sum_j row_j (H o T)_j; every other slot i
    # holds the unit row e_j and is (H o T)_j, the j in increasing order.
    row, p, components = case
    n = len(row)
    H = PolyMap(components)
    T = row_conjugator(row, p)
    composed = H.compose(T.as_poly_map()).components
    conjugated = conjugate(H, T).components
    pivot = max(j for j in range(n) if row[j])
    others = [i for i in range(n) if i != p - 1]
    units = [j for j in range(n) if j != pivot]
    for i, j in zip(others, units):
        assert conjugated[i] == composed[j]
    combination = Polynomial.zero(n)
    for c, q in zip(row, composed):
        combination = combination + q.scale(c)
    assert conjugated[p - 1] == combination


def maps(n, max_exp=2, max_terms=3):
    return st.lists(
        polynomials(n, max_exp=max_exp, max_terms=max_terms), min_size=n, max_size=n
    ).map(PolyMap)


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(maps(n), maps(n))))
def test_compose_matches_substitute(pair):
    # compose shares one table of image powers across the components; each
    # component must still equal its own substitution, computed term by
    # term through the reference operators of test_poly (no code shared
    # with poly's substitution helper).
    F, G = pair
    images = list(G)
    composed = F.compose(G)
    assert composed.components == tuple(ref_substitute(f, images) for f in F)
    for c in composed:
        assert_clean(c)


@given(
    st.integers(2, 3).flatmap(
        lambda n: st.tuples(maps(n), polynomials(n, max_exp=2, max_terms=3))
    )
)
def test_compose_cancels_to_zero(case):
    # F_i = (x1 - x2) * P_i vanishes on any G with G_1 = G_2, so every
    # component of F o G cancels to the zero polynomial.
    P, g = case
    n = P.dimension
    diff = Polynomial.variable(n, 1) - Polynomial.variable(n, 2)
    F = PolyMap([diff * p for p in P])
    G = PolyMap([g, g] + [Polynomial.variable(n, i) for i in range(3, n + 1)])
    composed = F.compose(G)
    assert composed.is_zero()
    assert all(c._terms == {} for c in composed)
    assert all(ref_substitute(f, list(G)).is_zero() for f in F)
