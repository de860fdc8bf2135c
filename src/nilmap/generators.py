"""Seeded random instance generators for the property and acceptance suites.

Every generator takes a `random.Random` so suites are reproducible from a
single seed.  Besides fully random maps, several guaranteed-nilpotent
families are provided; their nilpotency is a structural fact (checked by
construction in the test suites, not assumed here silently).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .classify import CanonicalFormA, GeneralizedFormB, ReducedForm4D
from .errors import NilmapError
from .linalg import LinearMap, RationalMatrix
from .poly import Polynomial, PolyMap


def _nonzero_int(rng: random.Random, lo: int = -3, hi: int = 3) -> int:
    values = [v for v in range(lo, hi + 1) if v != 0]
    return rng.choice(values)


def _random_exponents(rng: random.Random, n: int, total: int) -> tuple[int, ...]:
    exps = [0] * n
    for _ in range(total):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def random_polynomial(
    rng: random.Random,
    n: int,
    max_degree: int,
    terms: int = 4,
    zero_constant: bool = True,
) -> Polynomial:
    """Sparse random polynomial with small integer coefficients."""
    out: dict[tuple[int, ...], Fraction] = {}
    min_total = 1 if zero_constant else 0
    for _ in range(terms):
        total = rng.randint(min_total, max(max_degree, min_total))
        exps = _random_exponents(rng, n, total)
        out[exps] = out.get(exps, Fraction(0)) + _nonzero_int(rng)
    return Polynomial(n, out)


def random_univariate(
    rng: random.Random, max_degree: int, zero_constant: bool = True
) -> Polynomial:
    lo = 1 if zero_constant else 0
    out = {}
    for d in range(lo, max_degree + 1):
        if rng.random() < 0.6:
            out[(d,)] = Fraction(_nonzero_int(rng))
    if not out and max_degree >= lo:
        out[(max(lo, 1),)] = Fraction(_nonzero_int(rng))
    return Polynomial(1, out)


def random_map(
    rng: random.Random, n: int, max_degree: int, terms: int = 4
) -> PolyMap:
    """Random map vanishing at the origin."""
    return PolyMap(
        [random_polynomial(rng, n, max_degree, terms) for _ in range(n)]
    )


def random_invertible(rng: random.Random, n: int) -> LinearMap:
    """Random invertible matrix with entries in [-3, 3]."""
    while True:
        m = RationalMatrix(
            [
                [Fraction(rng.randint(-3, 3)) for _ in range(n)]
                for _ in range(n)
            ]
        )
        try:
            inv = m.inverse()
        except NilmapError:  # singular
            continue
        return LinearMap(m, inv)


# ---------------------------------------------------------------------------
# Three-variable canonical family
# ---------------------------------------------------------------------------

def random_canonical_params(rng: random.Random) -> CanonicalFormA:
    """Parameters with constant a's whose built map has deg_z u >= 2 and
    deg_z v = 1 (the certified-dependence regime)."""
    p = _nonzero_int(rng)
    q = _nonzero_int(rng)
    h = random_univariate(rng, rng.randint(1, 3)).lift(2, [1])
    deg_c1 = rng.randint(2, 3)
    c1 = Polynomial.monomial(1, (deg_c1,), _nonzero_int(rng))
    if rng.random() < 0.5:
        c1 = c1 + Polynomial.monomial(1, (1,), rng.randint(-3, 3))
    c2 = Polynomial.monomial(1, (1,), _nonzero_int(rng))
    return CanonicalFormA(
        Polynomial.const(1, p), Polynomial.const(1, q), c1, c2, h
    )


def random_form_a_conjugator(rng: random.Random) -> LinearMap:
    """Conjugations preserving the deg_z shape of the canonical regime.

    Pattern: upper-triangular on (x, y) with the z-axis only scaled, so
    that z-degrees of the first two components and the z-freeness of the
    third survive conjugation.
    """
    t11 = _nonzero_int(rng)
    t22 = _nonzero_int(rng)
    t33 = _nonzero_int(rng)
    t12 = rng.randint(-3, 3)
    m = RationalMatrix(
        [
            [Fraction(t11), Fraction(t12), Fraction(0)],
            [Fraction(0), Fraction(t22), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(t33)],
        ]
    )
    return LinearMap(m, m.inverse())


# ---------------------------------------------------------------------------
# Generalized family
# ---------------------------------------------------------------------------

def random_generalized(
    rng: random.Random, n: int, max_degree: int = 2
) -> GeneralizedFormB:
    """Shape-compliant random instance; typically not nilpotent."""
    comps = [random_polynomial(rng, n, max_degree, terms=3)]
    h2 = random_polynomial(rng, n, max_degree, terms=2).substitute(
        {i: Polynomial.zero(n) for i in range(3, n + 1)}
    )
    for i in range(3, n + 1):
        h2 = h2 + Polynomial.variable(n, i).scale(rng.randint(-2, 2))
    comps.append(h2)
    for _ in range(3, n + 1):
        tail = random_polynomial(rng, n, max_degree, terms=2).substitute(
            {i: Polynomial.zero(n) for i in range(3, n + 1)}
        )
        comps.append(tail)
    return GeneralizedFormB(PolyMap(comps))


def planar_nilpotent_pair(
    rng: random.Random, n: int, max_degree: int = 2
) -> tuple[Polynomial, Polynomial]:
    """(q f(p x1 + q x2), -p f(p x1 + q x2)): a nilpotent-Jacobian pair."""
    p = _nonzero_int(rng)
    q = _nonzero_int(rng)
    f = random_univariate(rng, max_degree)
    w = Polynomial.variable(n, 1).scale(p) + Polynomial.variable(n, 2).scale(q)
    fw = f.substitute({1: w})
    return fw.scale(q), fw.scale(-p)


def nilpotent_generalized(
    rng: random.Random, n: int, max_degree: int = 2
) -> GeneralizedFormB:
    """Guaranteed-nilpotent instance built from a planar nilpotent pair."""
    H1, H2 = planar_nilpotent_pair(rng, n, max_degree)
    comps = [H1, H2]
    for _ in range(3, n + 1):
        tail = random_polynomial(rng, n, max_degree, terms=2).substitute(
            {i: Polynomial.zero(n) for i in range(3, n + 1)}
        )
        comps.append(tail)
    return GeneralizedFormB(PolyMap(comps))


def nilpotent_generalized_coupled(
    rng: random.Random, n: int, max_degree: int = 2
) -> GeneralizedFormB:
    """Nilpotent instance with nonzero linear coupling in the second slot.

    H = (sum a_i x_i + g(x2), b3 x3 + ... + bn xn, h3(x2), ..., hn(x2))
    with sum b_i h_i = 0; every component is free of x1, which kills all
    the minor conditions except those already arranged to vanish.
    """
    if n < 4:
        raise ValueError("the coupled family needs at least 4 variables")
    comps = [Polynomial.zero(n)] * n
    g = random_univariate(rng, max_degree).lift(n, [2])
    H1 = g
    for i in range(3, n + 1):
        H1 = H1 + Polynomial.variable(n, i).scale(rng.randint(-2, 2))
    H2 = Polynomial.zero(n)
    b = [0] * (n - 2)
    b[0], b[1] = 1, -1
    for bi, i in zip(b, range(3, n + 1)):
        H2 = H2 + Polynomial.variable(n, i).scale(bi)
    comps[0], comps[1] = H1, H2
    shared = random_univariate(rng, max_degree).lift(n, [2])
    comps[2] = shared
    comps[3] = shared
    for i in range(4, n):
        comps[i] = random_univariate(rng, max_degree).lift(n, [2])
    return GeneralizedFormB(PolyMap(comps))


# ---------------------------------------------------------------------------
# Four-variable core
# ---------------------------------------------------------------------------

def random_reduced4d(rng: random.Random, max_degree: int = 2) -> ReducedForm4D:
    return ReducedForm4D(
        *(
            random_polynomial(rng, 2, max_degree, terms=3, zero_constant=False)
            for _ in range(4)
        )
    )


def nilpotent_reduced4d(
    rng: random.Random, max_degree: int = 2
) -> tuple[ReducedForm4D, Fraction]:
    """A nilpotent core with dependent bottom pair h4 = lam * h3."""
    a = _nonzero_int(rng)
    b = _nonzero_int(rng)
    w = Polynomial.variable(2, 1).scale(a) + Polynomial.variable(2, 2).scale(b)
    s1 = random_univariate(rng, max_degree).substitute({1: w})
    s3 = random_univariate(rng, max_degree).substitute({1: w})
    lam = Fraction(-a, b)
    return (
        ReducedForm4D(s1.scale(b), s1.scale(-a), s3.scale(b), s3.scale(-a)),
        lam,
    )


def dependent_reduced4d(
    rng: random.Random, max_degree: int = 2
) -> tuple[ReducedForm4D, Fraction]:
    """Random core with h4 = lam * h3 (not nilpotent in general)."""
    if rng.random() < 0.4:
        return nilpotent_reduced4d(rng, max_degree)
    lam = Fraction(rng.randint(-3, 3))
    h3 = random_polynomial(rng, 2, max_degree, terms=3, zero_constant=False)
    return (
        ReducedForm4D(
            random_polynomial(rng, 2, max_degree, terms=3, zero_constant=False),
            random_polynomial(rng, 2, max_degree, terms=3, zero_constant=False),
            h3,
            h3.scale(lam),
        ),
        lam,
    )


# ---------------------------------------------------------------------------
# Divergence-free pairs and assorted nilpotent maps
# ---------------------------------------------------------------------------

def divergence_pair(
    rng: random.Random, max_z_degree: int = 4
) -> tuple[Polynomial, Polynomial]:
    """(u, v) in K[x,y,z] with u_x + v_y = 0 and deg_z v <= deg_z u."""
    while True:
        u = random_polynomial(rng, 3, rng.randint(1, 3), terms=4)
        u = u + Polynomial.monomial(
            3, (0, 0, rng.randint(1, max_z_degree)), _nonzero_int(rng)
        )
        if u.degree_in(3) > max_z_degree:
            continue
        g = random_polynomial(rng, 3, 2, terms=2).substitute(
            {2: Polynomial.zero(3)}
        )
        if g.degree_in(3) > u.degree_in(3):
            continue
        v = -u.partial(1).integrate(2) + g
        if v.degree_in(3) <= u.degree_in(3):
            return u, v


def random_nilpotent_map(rng: random.Random, n: int) -> PolyMap:
    """A guaranteed-nilpotent map in dimension 2, 3 or 4."""
    if n == 2:
        h1, h2 = planar_nilpotent_pair(rng, 2, rng.randint(1, 3))
        return PolyMap([h1, h2])
    if n == 3:
        from .classify import build_canonical_pair

        return build_canonical_pair(random_canonical_params(rng))
    if n == 4:
        if rng.random() < 0.5:
            return nilpotent_generalized(rng, 4).map
        return nilpotent_reduced4d(rng)[0].realize()
    raise ValueError(f"no nilpotent family wired up for dimension {n}")


# ---------------------------------------------------------------------------
# Decomposable maps for the tameness suite
# ---------------------------------------------------------------------------

def decomposable_shift(rng: random.Random, n: int) -> PolyMap:
    """Nilpotent H whose x + H factors after a searched conjugation."""
    if n == 3:
        from .classify import build_canonical_pair

        p = _nonzero_int(rng)
        q = _nonzero_int(rng)
        h = random_univariate(rng, rng.randint(1, 2)).lift(2, [1])
        c1 = Polynomial.monomial(1, (rng.randint(1, 2),), _nonzero_int(rng))
        c2 = Polynomial.monomial(1, (1,), _nonzero_int(rng))
        params = CanonicalFormA(
            Polynomial.const(1, p), Polynomial.const(1, q), c1, c2, h
        )
        return build_canonical_pair(params)
    return nilpotent_generalized(rng, n).map
