"""Reference for the recomposition of a tame factorization.

`nilmap.tame.compose_factorization` evaluates the product innermost-first
and never turns a factor into a polynomial map.  The reference here does
exactly that instead: it realizes every factor as a `PolyMap` and folds
them together with `PolyMap.compose` from the left, first factor
outermost, so the two share no code beyond the composition itself.
"""

from functools import reduce

from nilmap import ElementaryMap, PolyMap


def ref_compose_factorization(f):
    """The left fold of `PolyMap.compose` over the realized factors,
    starting from the identity; the identity for no factors."""
    maps = [
        factor.realize() if isinstance(factor, ElementaryMap) else factor.as_poly_map()
        for factor in f.factors
    ]
    return reduce(PolyMap.compose, maps, PolyMap.identity(f.dimension))
