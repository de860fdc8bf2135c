"""Keller checks, formal inversion, and tame factorization.

A map F = x + H whose variable-dependency digraph (edge i -> j when H_i
involves x_j, self-loops included) is acyclic factors into one elementary
map per nonzero component, applied in topological order.  When the digraph
has cycles, a linear conjugation found by `classify_and_decompose` may
break them: it repeatedly zeroes linearly dependent components and, when
the first two components share a constant gradient direction, mixes them
so their contribution collapses.  Each move is one `linalg.row_conjugator`,
which puts the combination it found in one coordinate slot.

Every factorization is checked before it is returned: the exact
composition of all its factors must equal F (`compose_factorization`).
The composition runs innermost-first.  It starts from the components of
x and applies the factors from the last to the first: an elementary
factor (i, Q) adds Q(R) to R_i, and a linear factor takes rational
combinations of R.  So each elementary factor costs one substitution
into its own shift, not a composition of the running product with a
whole map.

`keller_check` and `formal_inverse` share one first step,
`_normalized_shift`.  A polynomial automorphism has a nonzero constant
Jacobian determinant, so it compares det JF, a number taken by
`RationalMatrix.det`, at the origin and at the probe point of
`analysis.is_nilpotent_bruteforce`: a zero at the origin, or two
different values, proves that F is not invertible.  Otherwise it builds
A^-1 o F = x + H', for A = JF(0), each component one rational
combination of F's components, so that the linear part is the identity.
`keller_check` decides det(I + JH') = 1, which holds exactly when
det JF = det A * det(I + JH') is constant, since JH' vanishes at the
origin; it takes the sigma of JH' on the quotient by its common flag
space (`analysis._unit_determinant`), so on the paper's second family,
whose flag is everything, no characteristic polynomial is taken.  The
inverse iteration finds the inverse of A^-1 o F; the inverse of F is
that followed by A^-1.
"""

from __future__ import annotations

import graphlib
from fractions import Fraction
from typing import Sequence, Union

from .analysis import (
    _jacobian_at,
    _jacobian_terms,
    _probe_point,
    _unit_determinant,
    conjugate,
    linear_dependence,
)
from .errors import (
    ConstructionMismatch,
    DimensionMismatch,
    NotTriangularizable,
    PreconditionError,
    ShapeError,
)
from .linalg import (
    LinearMap,
    RationalMatrix,
    coefficient_kernel,
    row_conjugator,
)
from .parsing import DEFAULT_ALIASES, format_polynomial, map_to_document
from .poly import Polynomial, PolyMap, _combination

Factor = Union["ElementaryMap", LinearMap]


class ElementaryMap:
    """The map adding Q (free of x_i) to the i-th coordinate."""

    __slots__ = ("dimension", "index", "shift")

    def __init__(self, dimension: int, index: int, shift: Polynomial):
        if shift.n != dimension:
            raise DimensionMismatch("shift polynomial has the wrong arity")
        if not 1 <= index <= dimension:
            raise ShapeError(f"index {index} out of range 1..{dimension}")
        if index in shift.variables_used():
            raise ShapeError("the shift must not involve the shifted variable")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "shift", shift)

    def __setattr__(self, *args):
        raise AttributeError("ElementaryMap instances are immutable")

    def realize(self) -> PolyMap:
        comps = [
            Polynomial.variable(self.dimension, i)
            for i in range(1, self.dimension + 1)
        ]
        comps[self.index - 1] = comps[self.index - 1] + self.shift
        return PolyMap(comps)

    def inverted(self) -> "ElementaryMap":
        return ElementaryMap(self.dimension, self.index, -self.shift)

    def __eq__(self, other):
        if not isinstance(other, ElementaryMap):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and self.index == other.index
            and self.shift == other.shift
        )

    def to_json(self, aliases: str | None = DEFAULT_ALIASES) -> dict:
        return {
            "kind": "elementary",
            "i": self.index,
            "Q": format_polynomial(self.shift, aliases),
        }

    def __repr__(self):
        return (
            f"ElementaryMap({self.dimension}, {self.index}, "
            f"{format_polynomial(self.shift)!r})"
        )


class TameFactorization:
    """Ordered factors whose composition (first factor outermost) is the map."""

    __slots__ = ("dimension", "factors")

    def __init__(self, factors: Sequence[Factor], dimension: int | None = None):
        factors = tuple(factors)
        if dimension is None:
            if not factors:
                raise ShapeError(
                    "an empty factorization needs an explicit dimension"
                )
            dimension = factors[0].dimension
        for f in factors:
            if f.dimension != dimension:
                raise DimensionMismatch("factor dimensions disagree")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, *args):
        raise AttributeError("TameFactorization instances are immutable")

    def to_json(self, aliases: str | None = DEFAULT_ALIASES) -> dict:
        out = []
        for f in self.factors:
            if isinstance(f, ElementaryMap):
                out.append(f.to_json(aliases))
            else:
                out.append({"kind": "linear", "matrix": f.matrix.to_json()})
        return {"dimension": self.dimension, "factors": out}


def compose_factorization(f: TameFactorization) -> PolyMap:
    """Exact composition of every factor, first factor outermost.

    The product is evaluated innermost-first: R starts as the components
    of x, and each factor from the last to the first is applied to R.  An
    elementary factor (i, Q) adds Q(R) to R_i, one substitution binding
    only the variables of Q; a linear factor replaces R by the rational
    combinations of R given by its rows.  No factor is turned into a
    polynomial map and no running product is composed with a whole map.
    """
    n = f.dimension
    R = [Polynomial.variable(n, i) for i in range(1, n + 1)]
    for factor in reversed(f.factors):
        if isinstance(factor, ElementaryMap):
            Q = factor.shift
            i = factor.index - 1
            R[i] = R[i] + Q.substitute({j: R[j - 1] for j in Q.variables_used()})
        else:
            R = [_combination(n, row, R) for row in factor.matrix.entries]
    return PolyMap(R)


def _normalized_shift(
    F: PolyMap,
) -> tuple[RationalMatrix, RationalMatrix, PolyMap] | None:
    """(A, A^-1, H') for A = JF(0) and A^-1 o F = x + H', whose component
    i is sum_j A^-1[i][j] F_j; or None when det JF is provably not a
    nonzero constant: it vanishes at the origin, or differs between the
    origin and the probe point."""
    n = F.dimension
    linear = _jacobian_at(F, (0,) * n)
    at_origin = linear.det()
    if not at_origin or _jacobian_at(F, _probe_point(n)).det() != at_origin:
        return None
    inverse = linear.inverse()
    shift = PolyMap(
        [_combination(n, row, F.components) for row in inverse.entries]
    ).minus_identity()
    return linear, inverse, shift


def keller_check(F: PolyMap) -> bool:
    """True iff the Jacobian determinant is a nonzero constant.

    det JF is first compared at the origin and at the probe point; only a
    determinant that is nonzero and agrees there is decided symbolically.
    With A = JF(0) and A^-1 F = x + H', det JF = det A * det(I + JH'), and
    JH' vanishes at the origin, so det JF is constant exactly when
    det(I + JH') = 1 (`analysis._unit_determinant`, on the quotient of
    JH' by its common flag space).
    """
    normalized = _normalized_shift(F)
    if normalized is None:
        return False
    return _unit_determinant(*_jacobian_terms(normalized[2]), F.dimension)


def _require_origin_fixed(F: PolyMap) -> None:
    """Raise ShapeError unless F(0) = 0, read off F's constant terms; x
    has none, so this is H(0) = 0 for F = x + H."""
    if any(F.value_at_zero()):
        raise ShapeError("the shift part must vanish at the origin")


def _shift_part(F: PolyMap) -> PolyMap:
    """H with F = x + H and H(0) = 0; raises on any other shape."""
    _require_origin_fixed(F)
    return F.minus_identity()


def formal_inverse(
    F: PolyMap, degree_bound: int | None = None
) -> PolyMap | None:
    """Polynomial inverse of F = x + H, with F(0) = 0, by truncated
    fixpoint iteration.

    Let A = JF(0), the linear part of F.  The iteration G' <- x - H'(G')
    runs on A^-1 o F = x + H', whose linear part is the identity, with
    truncation at the degree bound (default (deg F)^(n-1), the classical
    automorphism-inverse bound); its fixpoint G' gives G = G' o A^-1.  An
    exact fixpoint is verified by composing both ways; None means no
    polynomial inverse exists.  A lower bound raises PreconditionError.

    Before iterating, None is returned at once when det A = 0 or det JF
    differs between the origin and the probe point: the determinant of an
    invertible map is a nonzero constant, so either case proves that no
    polynomial inverse exists, and the iteration would end in None too.
    """
    n = F.dimension
    default_bound = max(F.max_total_degree(), 1) ** max(n - 1, 1)
    if degree_bound is None:
        degree_bound = default_bound
    elif degree_bound < default_bound:
        raise PreconditionError(
            f"degree bound {degree_bound} is below the default (deg F)^(n-1) = "
            f"{default_bound}, so a miss would prove nothing"
        )
    _require_origin_fixed(F)
    normalized = _normalized_shift(F)
    if normalized is None:
        return None
    linear, inverse, shift = normalized
    G = _fixpoint_inverse(shift, degree_bound)
    if G is None:
        return None
    G = G.compose(LinearMap(inverse, linear).as_poly_map())
    identity = PolyMap.identity(n)
    if F.compose(G) == identity and G.compose(F) == identity:
        return G
    return None


def _fixpoint_inverse(H: PolyMap, degree_bound: int) -> PolyMap | None:
    """The fixpoint of G <- x - H(G), truncated at the degree bound, or
    None when the iteration repeats a map or runs out of rounds first."""
    G = PolyMap.identity(H.dimension)
    for _ in range((degree_bound + 2) * H.dimension):
        R = H.compose(G).minus_identity(negate=True)
        if R == G:
            return G
        G_next = R.truncate(degree_bound)
        if G_next == G:
            return None
        G = G_next
    return None


def _dependency_order(H: PolyMap) -> list[int] | None:
    """Topological order of components: i precedes j when H_i uses x_j."""
    sorter = graphlib.TopologicalSorter()
    for i in range(1, H.dimension + 1):
        sorter.add(i)
        for j in H.components[i - 1].variables_used():
            sorter.add(j, i)
    try:
        return list(sorter.static_order())
    except graphlib.CycleError:
        return None


def _factor(
    F: PolyMap, H: PolyMap, order: list[int], conjugation: LinearMap
) -> TameFactorization:
    """The factorization of F whose chain adds the components of H, the
    shift part of F conjugated by `conjugation`, in the reverse of the
    topological `order` of its dependency digraph, bracketed by the
    conjugation unless it is the identity; checked to recompose to F."""
    factors: list[Factor] = [
        ElementaryMap(H.dimension, i, H.components[i - 1])
        for i in reversed(order)
        if not H.components[i - 1].is_zero()
    ]
    if not conjugation.is_identity():
        factors = [conjugation, *factors, conjugation.inverted()]
    result = TameFactorization(factors, F.dimension)
    if compose_factorization(result) != F:
        raise ConstructionMismatch(
            "factorization does not recompose to F", map_to_document(F)
        )
    return result


def _zeroing_conjugation(H: PolyMap) -> LinearMap | None:
    """Conjugation replacing one nonzero dependent component by zero."""
    n = H.dimension
    nonzero = [i for i in range(1, n + 1) if not H.components[i - 1].is_zero()]
    if not nonzero:
        return None
    cert = linear_dependence([H.components[i - 1] for i in nonzero])
    if cert is None:
        return None
    lam = [Fraction(0)] * n
    for idx, c in zip(nonzero, cert.coefficients):
        lam[idx - 1] = c
    target = max(i for i in nonzero if lam[i - 1] != 0)
    return row_conjugator(lam, target)


def _block_mixing_conjugation(H: PolyMap) -> LinearMap | None:
    """Conjugation putting s1*H_1 + s2*H_2, free of x1 and x2, in the
    second slot; None when no such (s1, s2) != 0 exists or n < 2."""
    n = H.dimension
    if n < 2:
        return None
    H1, H2 = H.components[:2]
    basis = coefficient_kernel([(H1.partial(k), H2.partial(k)) for k in (1, 2)])
    if not basis:
        return None
    return row_conjugator(basis[0] + [0] * (n - 2), 2)


def classify_and_decompose(F: PolyMap) -> TameFactorization:
    """Search for a linear conjugation making F = x + H triangularizable.

    Alternates two moves until the dependency digraph is acyclic: zero a
    linearly dependent component, or mix the first two components along a
    shared constant gradient direction.  Raises NotTriangularizable when
    no move applies.
    """
    H = _shift_part(F)
    n = F.dimension
    T = LinearMap.identity(n)
    current = H
    block_used = False
    for _ in range(n + 2):
        order = _dependency_order(current)
        if order is not None:
            return _factor(F, current, order, T)
        step = _zeroing_conjugation(current)
        if step is None and not block_used:
            step = _block_mixing_conjugation(current)
            block_used = True
        if step is None:
            break
        T = T * step
        current = conjugate(H, T)
    raise NotTriangularizable(
        "no linear conjugation found that breaks the dependency cycles"
    )
