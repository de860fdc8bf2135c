"""Differential tests against sympy, an oracle independent of this package.

Skipped where sympy is not installed; it is never a runtime dependency.
"""

import random
from fractions import Fraction

import pytest

from nilmap import (
    PolyMap,
    Polynomial,
    build_canonical_pair,
    conjugate,
    generators,
    jacobian,
    nilpotency_equations,
    nilpotency_witness,
    poly_matrix_rank,
)
from reference_matrix import poly_det

sympy = pytest.importorskip("sympy")


def symbols(n):
    return sympy.symbols(f"x1:{n + 1}")


def to_sympy(p, xs):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(v**e for v, e in zip(xs, exps)))
            for exps, c in p.terms.items()
        )
    )


def from_sympy(expr, xs):
    """The term dict of a sympy expression, expanded, with Fraction values."""
    terms = sympy.Poly(sympy.expand(expr), *xs).terms()
    return {
        tuple(exps): Fraction(int(c.p), int(c.q)) for exps, c in terms if c != 0
    }


def scaled_map(rng, n, degree, terms):
    """A seeded random map with some non-integral coefficients."""
    H = generators.random_map(rng, n, degree, terms=terms)
    return PolyMap([p.scale(Fraction(1, rng.randint(1, 3))) for p in H])


CASES = [(n, seed) for n in (2, 3, 4, 5) for seed in range(3)]


@pytest.mark.parametrize("n,seed", CASES)
def test_poly_det_matches_sympy(n, seed):
    rng = random.Random(1000 * n + seed)
    H = scaled_map(rng, n, 3 if n < 5 else 2, terms=3)
    J = jacobian(H)
    xs = symbols(n)
    want = sympy.Matrix(
        [[to_sympy(p, xs) for p in row] for row in J.entries]
    ).det(method="berkowitz")
    assert poly_det(J).terms == from_sympy(want, xs)


@pytest.mark.parametrize("n,seed", CASES)
def test_compose_matches_sympy(n, seed):
    rng = random.Random(2000 * n + seed)
    F = scaled_map(rng, n, 3 if n < 4 else 2, terms=4)
    G = scaled_map(rng, n, 2, terms=3)
    xs = symbols(n)
    images = {x: to_sympy(g, xs) for x, g in zip(xs, G)}
    for got, f in zip(F.compose(G), F):
        want = to_sympy(f, xs).subs(images, simultaneous=True)
        assert got.terms == from_sympy(want, xs)


@pytest.mark.parametrize("n,seed", CASES)
def test_substitute_into_another_ring_matches_sympy(n, seed):
    # Every variable bound to a polynomial in m != n variables; the result
    # lives in the m-variable ring.
    rng = random.Random(3000 * n + seed)
    m = rng.choice([k for k in (1, 2, 3, 4, 5) if k != n])
    p = generators.random_polynomial(rng, n, 3, terms=5, zero_constant=False)
    images = [
        generators.random_polynomial(rng, m, 2, terms=2, zero_constant=False)
        for _ in range(n)
    ]
    got = p.substitute({i + 1: q for i, q in enumerate(images)})
    assert got.n == m
    xs, ys = symbols(n), symbols(m)
    want = to_sympy(p, xs).subs(
        {x: to_sympy(q, ys) for x, q in zip(xs, images)}, simultaneous=True
    )
    assert got.terms == from_sympy(want, ys)


def rank_case(kind, n, seed):
    """A seeded map whose Jacobian is of full rank ("random") or, for
    every other kind, rank-deficient: a zero component, a component that is
    the product of two others, a conjugated canonical pair (n = 3), or one
    of the two nilpotent generalized families."""
    rng = random.Random(4000 * n + seed)
    if kind == "canonical":
        H = build_canonical_pair(generators.random_canonical_params(rng))
        return conjugate(H, generators.random_invertible(rng, 3))
    if kind == "generalized":
        return generators.nilpotent_generalized(rng, n).map
    if kind == "coupled":
        return generators.nilpotent_generalized_coupled(rng, n).map
    comps = list(scaled_map(rng, n, 2, terms=3))
    if kind == "zero":
        comps[rng.randrange(n)] = Polynomial.zero(n)
    elif kind == "product":
        i, j, k = rng.sample(range(n), 3)
        comps[k] = comps[i] * comps[j]
    return PolyMap(comps)


RANK_CASES = [
    (kind, n, seed)
    for kind, dims in (
        ("random", (3, 4, 5)),
        ("zero", (3, 4, 5)),
        ("product", (3, 4, 5)),
        ("canonical", (3,)),
        ("generalized", (4, 5)),
        ("coupled", (4, 5)),
    )
    for n in dims
    for seed in range(2 if len(dims) > 1 else 4)
]


@pytest.mark.parametrize("kind,n,seed", RANK_CASES)
def test_poly_matrix_rank_matches_sympy(kind, n, seed):
    H = rank_case(kind, n, seed)
    J = jacobian(H)
    xs = symbols(n)
    M = sympy.Matrix([[to_sympy(p, xs) for p in row] for row in J.entries])
    want = sympy.polys.matrices.DomainMatrix.from_Matrix(M).to_field().rank()
    assert poly_matrix_rank(J) == want
    if kind != "random":
        assert want < n


def test_zero_and_constant_results():
    xs = symbols(2)
    p = Polynomial.variable(2, 1) - Polynomial.variable(2, 2)
    same = Polynomial.variable(2, 1) + 3
    got = p.substitute({1: same, 2: same})
    assert got.terms == from_sympy(sympy.Integer(0), xs) == {}
    J = jacobian(PolyMap([Polynomial.variable(2, 2) ** 2, Polynomial.zero(2)]))
    assert poly_det(J).terms == {}


def sigma_from_sympy(H):
    """sigma_1..sigma_n of J(H) as term dicts: the coefficients of
    det(tI + J) = t^n + sigma_1 t^(n-1) + ... + sigma_n, by sympy's
    Berkowitz determinant."""
    n = H.dimension
    xs = symbols(n)
    t = sympy.Symbol("t")
    J = sympy.Matrix([[to_sympy(p, xs) for p in row] for row in jacobian(H).entries])
    charpoly = sympy.Poly(
        sympy.expand((t * sympy.eye(n) + J).det(method="berkowitz")), t
    )
    return [from_sympy(charpoly.coeff_monomial(t ** (n - k)), xs) for k in range(1, n + 1)]


SIGMA_CASES = [("random", n) for n in (1, 2, 3, 4, 5)] + [
    ("nilpotent", n) for n in (2, 3, 4)
]


@pytest.mark.parametrize("kind,n", SIGMA_CASES)
def test_sigma_report_matches_sympy(kind, n):
    # The report goes through the common flag at every size, so it is
    # checked here against a characteristic polynomial taken outside this
    # package: random maps (W = 0 or a part-way flag) and conjugated
    # nilpotent maps (all sigma zero).
    rng = random.Random(5000 * n + len(kind))
    if kind == "random":
        H = scaled_map(rng, n, 3 if n < 5 else 2, terms=3)
    else:
        H = conjugate(
            generators.random_nilpotent_map(rng, n),
            generators.random_invertible(rng, n),
        )
    want = sigma_from_sympy(H)
    assert [s.terms for s in nilpotency_equations(H).sigma] == want
    first = next(((k, s) for k, s in enumerate(want, 1) if s), None)
    witness = nilpotency_witness(H)
    assert (witness and (witness[0], witness[1].terms)) == first
    assert (first is None) == (kind == "nilpotent")
