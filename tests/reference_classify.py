"""The canonical pair extraction by division, kept as a differential
reference.

`nilmap.classify._extract_canonical_params` reads every parameter off the
z-coefficients of single (x, y)-monomials, and each h_k off one univariate
division.  This extraction is the one it replaced: it subtracts c1 and c2
by substitution, divides the whole first component by a2 (or the second
by -a1) in three variables, splits the quotient into its homogeneous parts
in (x, y) with `stored_form.ref_homogeneous_parts`, and divides part k by
w^k, w = a1(z) x + a2(z) y.  a1 and a2 come from the same rule in both:
the z-coefficients at the leading (x, y)-monomial over their monic gcd.
Both accept a result only if `build_canonical_pair` rebuilds the input.
"""

from nilmap import (
    CanonicalFormA,
    Polynomial,
    build_canonical_pair,
    univariate_gcd,
)
from stored_form import ref_homogeneous_parts


def _slice(p, xy):
    """The univariate z-polynomial of p's coefficients at the (x, y)-monomial."""
    return Polynomial(1, {(e[2],): c for e, c in p.terms.items() if e[:2] == xy})


def reference_extract(Hc):
    """The canonical parameters of a 3-map with zero third slot, or None;
    raises a `NilmapError` wherever a division has a remainder."""
    if not Hc.components[2].is_zero():
        return None
    zero3 = Polynomial.zero(3)
    up, vp = Hc.components[0], Hc.components[1]
    c1_3 = up.substitute({1: zero3, 2: zero3})
    c2_3 = vp.substitute({1: zero3, 2: zero3})
    U = up - c1_3
    V = vp - c2_3
    c1 = c1_3.restrict([3]) if not c1_3.is_zero() else Polynomial.zero(1)
    c2 = c2_3.restrict([3]) if not c2_3.is_zero() else Polynomial.zero(1)
    if U.is_zero() and V.is_zero():
        params = CanonicalFormA(
            Polynomial.const(1, 1), Polynomial.const(1, 1), c1, c2, Polynomial.zero(2)
        )
        return params if build_canonical_pair(params) == Hc else None
    xy_monomials = {e[:2] for p in (U, V) for e in p.monomials()}
    m0 = max(xy_monomials, key=lambda e: (sum(e), e))
    u_m0 = _slice(U, m0)
    v_m0 = _slice(V, m0)
    D = univariate_gcd(u_m0, v_m0)
    a2 = u_m0.exact_div(D) if not u_m0.is_zero() else Polynomial.zero(1)
    a1 = (-v_m0).exact_div(D) if not v_m0.is_zero() else Polynomial.zero(1)
    a1_3 = a1.lift(3, [3]) if not a1.is_zero() else zero3
    a2_3 = a2.lift(3, [3]) if not a2.is_zero() else zero3
    w = a1_3 * Polynomial.variable(3, 1) + a2_3 * Polynomial.variable(3, 2)
    if not a2.is_zero():
        G = U.exact_div(a2_3)
    else:
        G = (-V).exact_div(a1_3)
    parts = [Polynomial(3, part) for part in ref_homogeneous_parts(G.terms, [1, 2], 3)]
    if not parts[0].is_zero():
        return None
    h = Polynomial.zero(2)
    t = Polynomial.variable(2, 1)
    for k in range(1, len(parts)):
        if parts[k].is_zero():
            continue
        hk_3 = parts[k].exact_div(w ** k)
        if hk_3.variables_used() - {3}:
            return None
        hk = hk_3.restrict([3]).lift(2, [2]) if not hk_3.is_zero() else Polynomial.zero(2)
        h = h + hk * t ** k
    params = CanonicalFormA(a1, a2, c1, c2, h)
    return params if build_canonical_pair(params) == Hc else None
