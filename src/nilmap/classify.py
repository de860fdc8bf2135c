"""Classification of nilpotent-Jacobian maps of the studied shapes.

Two families are handled:

* Three-variable maps (u, v, h) whose third component is free of z and
  whose second component has z-degree at most 1.  When deg_z u >= 2 the
  components are provably linearly dependent, and conjugating the
  dependence relation into the third slot yields the canonical pair form
  (a2(z) h(a1(z)x + a2(z)y) + c1(z), -a1(z) h(...) + c2(z), 0).  Its
  parameters are read off coefficients: each one is the z-coefficient
  polynomial of one (x, y)-monomial of the conjugated map, divided by a
  univariate polynomial in z, and they count only if they rebuild that map
  exactly.

* Generalized maps H = (H_1(x), b.x + H_2^(0), H_3(x1,x2), ..., H_n(x1,x2))
  whose Jacobian nilpotency collapses to four explicit polynomial
  equations; with H_1 linear in x3..xn they have a four-variable core
  tied to a parameterized Keller condition.

Routines that certify proved structural facts raise TheoremViolation with
the full instance when a guarantee fails: that means an implementation bug
or a genuine counterexample, never routine bad input.
"""

from __future__ import annotations

from fractions import Fraction

from .analysis import (
    DependenceCertificate,
    conjugate,
    is_nilpotent,
    linear_dependence,
    nilpotency_equations,
)
from .errors import (
    ConstructionMismatch,
    NilmapError,
    NotNilpotentTop,
    PreconditionError,
    ShapeError,
    TheoremViolation,
)
from .linalg import (
    LinearMap,
    coefficient_kernel,
    elementary_row_add,
    row_conjugator,
)
from .parsing import format_polynomial, map_to_document
from .poly import (
    Polynomial,
    PolyMap,
    _coeff,
    _combination,
    _exact,
    _grlex_key,
    _split_off,
    _unit,
    univariate_gcd,
)


# ---------------------------------------------------------------------------
# Three-variable family
# ---------------------------------------------------------------------------

class FormAInstance:
    """A 3-map (u, v, h) with h free of z, deg_z v <= 1 and H(0) = 0."""

    __slots__ = ("map",)

    def __init__(self, map: PolyMap):
        if map.dimension != 3:
            raise ShapeError("this family lives in dimension 3")
        u, v, h = map.components
        if h.degree_in(3) > 0:
            raise ShapeError("third component must be free of z")
        if v.degree_in(3) > 1:
            raise ShapeError("second component must have z-degree at most 1")
        if any(c != 0 for c in map.value_at_zero()):
            raise ShapeError("the map must vanish at the origin")
        object.__setattr__(self, "map", map)

    def __setattr__(self, *args):
        raise AttributeError("FormAInstance instances are immutable")


class CanonicalFormA:
    """Parameters of the canonical pair form.

    a1, a2, c1, c2 are univariate polynomials in z; h is a polynomial in
    (t, z) applied at t = a1(z)x + a2(z)y.  The constraint
    c1(0) + a2(0)h(0,0) = 0, c2(0) - a1(0)h(0,0) = 0 keeps the built map
    vanishing at the origin.
    """

    __slots__ = ("a1", "a2", "c1", "c2", "h")

    def __init__(
        self,
        a1: Polynomial,
        a2: Polynomial,
        c1: Polynomial,
        c2: Polynomial,
        h: Polynomial,
    ):
        for name, p in (("a1", a1), ("a2", a2), ("c1", c1), ("c2", c2)):
            if p.n != 1:
                raise ShapeError(f"{name} must be univariate in z")
        if h.n != 2:
            raise ShapeError("h must be a polynomial in (t, z)")
        h00 = h.constant_value()
        if c1.constant_value() + a2.constant_value() * h00 != 0:
            raise PreconditionError(
                "c1(0) + a2(0)h(0,0) must vanish so the map fixes the origin"
            )
        if c2.constant_value() - a1.constant_value() * h00 != 0:
            raise PreconditionError(
                "c2(0) - a1(0)h(0,0) must vanish so the map fixes the origin"
            )
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "h", h)

    def __setattr__(self, *args):
        raise AttributeError("CanonicalFormA instances are immutable")

    def to_json(self) -> dict:
        return {
            "a1": format_polynomial(self.a1, aliases="z"),
            "a2": format_polynomial(self.a2, aliases="z"),
            "c1": format_polynomial(self.c1, aliases="z"),
            "c2": format_polynomial(self.c2, aliases="z"),
            "h": format_polynomial(self.h, aliases="tz"),
        }


def build_canonical_pair(params: CanonicalFormA) -> PolyMap:
    """Realize the canonical pair form as a 3-map; always nilpotent."""
    z = Polynomial.variable(3, 3)
    x = Polynomial.variable(3, 1)
    y = Polynomial.variable(3, 2)
    a1 = params.a1.lift(3, [3])
    a2 = params.a2.lift(3, [3])
    c1 = params.c1.lift(3, [3])
    c2 = params.c2.lift(3, [3])
    w = a1 * x + a2 * y
    hw = params.h.substitute({1: w, 2: z})
    H = PolyMap([a2 * hw + c1, -a1 * hw + c2, Polynomial.zero(3)])
    if not is_nilpotent(H):
        raise ConstructionMismatch(
            "canonical pair construction produced a non-nilpotent map",
            map_to_document(H),
        )
    return H


def certify_dependence(H: FormAInstance) -> DependenceCertificate:
    """Dependence certificate guaranteed for deg_z v = 1, deg_z u >= 2.

    Under the preconditions (nilpotent Jacobian, H(0)=0) the components
    are provably linearly dependent; failure to find a certificate is a
    falsification and raises TheoremViolation.
    """
    u, v, _ = H.map.components
    if v.degree_in(3) != 1:
        raise PreconditionError("deg_z of the second component must be exactly 1")
    if u.degree_in(3) < 2:
        raise PreconditionError("deg_z of the first component must be at least 2")
    if not is_nilpotent(H.map):
        raise PreconditionError("the Jacobian must be nilpotent")
    cert = linear_dependence(H.map.components)
    if cert is None:
        raise TheoremViolation(
            "components are linearly independent despite guaranteed dependence",
            map_to_document(H.map),
        )
    return cert


def recognize_canonical_pair(
    H: PolyMap,
) -> tuple[LinearMap, CanonicalFormA] | None:
    """Recover (T, params) with conjugate(H, T) = build_canonical_pair(params).

    Returns None when the preconditions (the `FormAInstance` shape,
    deg_z v = 1, deg_z u >= 2, nilpotent Jacobian) are not met.  A
    returned pair is a proof of nilpotency by itself, since
    `build_canonical_pair` checks its output, so the Jacobian is tested
    only after every dependence certificate has failed.  Raises
    TheoremViolation if a nilpotent H has no dependence certificate, and
    ConstructionMismatch if no certificate leads to an exact rebuild.
    """
    try:
        u, v, _ = FormAInstance(H).map.components
    except ShapeError:
        return None
    if v.degree_in(3) != 1 or u.degree_in(3) < 2:
        return None
    basis = coefficient_kernel([H.components])
    for lam in basis:
        T = row_conjugator(lam, 3)
        try:
            params = _extract_canonical_params(conjugate(H, T))
        except NilmapError:
            continue
        if params is not None:
            return T, params
    if not is_nilpotent(H):
        return None
    if not basis:
        raise TheoremViolation(
            "components are linearly independent despite guaranteed dependence",
            map_to_document(H),
        )
    raise ConstructionMismatch(
        "no dependence certificate yielded an exact canonical rebuild",
        map_to_document(H),
    )


def _extract_canonical_params(Hc: PolyMap) -> CanonicalFormA | None:
    """Read the canonical parameters off a conjugated map with zero third
    slot, from the z-coefficients of single (x, y)-monomials.

    c1 and c2 are the slices of u and v at 1.  a2 and -a1 are the slices
    at the leading (x, y)-monomial over their monic gcd.  If
    u - c1 = a2 * sum_k h_k w^k with w = a1 x + a2 y, its x^k slice is
    a2 a1^k h_k, so each h_k is one univariate division (the y^k slice,
    a2^(k+1) h_k, when a1 = 0; v - c2 with -a1 in place of a2 when
    a2 = 0).  The parameters stand only if they rebuild Hc exactly.
    """
    up, vp, third = Hc.components
    if not third.is_zero():
        return None
    c1 = _z_slice(up, (0, 0))
    c2 = _z_slice(vp, (0, 0))
    xy_monomials = {e[:2] for p in (up, vp) for e in p.monomials()} - {(0, 0)}
    a1 = a2 = Polynomial.const(1, 1)
    h_terms = {}
    if xy_monomials:
        m0 = max(xy_monomials, key=_grlex_key)
        u_m0 = _z_slice(up, m0)
        v_m0 = _z_slice(vp, m0)
        D = univariate_gcd(u_m0, v_m0)
        a2 = u_m0.exact_div(D)
        a1 = (-v_m0).exact_div(D)
        source, multiplier = (vp, -a1) if a2.is_zero() else (up, a2)
        ratio = a2 if a1.is_zero() else a1
        for k in range(1, sum(m0) + 1):
            multiplier = multiplier * ratio
            coeff = _z_slice(source, (0, k) if a1.is_zero() else (k, 0))
            for (e,), c in coeff.exact_div(multiplier).terms.items():
                h_terms[(k, e)] = c
    params = CanonicalFormA(a1, a2, c1, c2, Polynomial(2, h_terms))
    return params if build_canonical_pair(params) == Hc else None


def _z_slice(p: Polynomial, xy_exps: tuple[int, int]) -> Polynomial:
    """Univariate z-polynomial of the coefficients at a fixed (x,y)-monomial."""
    out = {}
    for e, c in p.terms.items():
        if e[:2] == xy_exps:
            out[(e[2],)] = c
    return Polynomial(1, out)


def triangularize_top_coefficients(H: PolyMap) -> tuple[LinearMap, PolyMap]:
    """Linear change of (x, y) making the top z-coefficients triangular.

    With d the maximal z-degree of the first two components, the pair of
    z^d coefficients (u_d, v_d) must have a nilpotent 2x2 Jacobian in
    (x, y); the transformed map then has v_d constant and u_d free of x.
    The third coordinate z is fixed, so z-degrees are unchanged.
    """
    if H.dimension != 3:
        raise ShapeError("triangularization works on 3-maps")
    u, v, _ = H.components
    d = max(u.degree_in(3), v.degree_in(3))
    if d < 1:
        raise PreconditionError("top z-degree of (u, v) must be at least 1")
    ud = _z_coefficient(u, d)
    vd = _z_coefficient(v, d)
    rows = [
        (ud.partial(1), ud.partial(2)),
        (vd.partial(1), vd.partial(2)),
    ]
    trace = rows[0][0] + rows[1][1]
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if not (trace.is_zero() and det.is_zero()):
        raise NotNilpotentTop(
            "the (x,y)-Jacobian of the top z-coefficients is not nilpotent"
        )
    basis = coefficient_kernel(rows)
    if not basis:
        raise TheoremViolation(
            "nilpotent top coefficients without a constant gradient direction",
            map_to_document(H),
        )
    l1, l2 = basis[0]
    T = row_conjugator([l2, -l1, 0], 2)
    return T, conjugate(H, T)


def _z_coefficient(p: Polynomial, d: int) -> Polynomial:
    coeffs = p.coefficients_in(3)
    if d < len(coeffs):
        return coeffs[d]
    return Polynomial.zero(p.n)


def normalize_low_z_degree(
    H: FormAInstance,
) -> tuple[LinearMap, PolyMap]:
    """Reduce a z-degree-at-most-1 instance to the shape (u, v(x,y), h(x,y)).

    Preconditions: nilpotent Jacobian, linearly independent components.
    A first z-degree of 2 or more contradicts independence (the
    dependence certificate would be guaranteed) and is rejected.  A
    non-nilpotent top coefficient pair, and the branch where neither
    normalization applies, are provably impossible and raise
    TheoremViolation.
    """
    u, v, h = H.map.components
    if linear_dependence(H.map.components) is not None:
        raise PreconditionError("components must be linearly independent")
    if not is_nilpotent(H.map):
        raise PreconditionError("the Jacobian must be nilpotent")
    if u.degree_in(3) >= 2:
        raise PreconditionError(
            "deg_z u >= 2 forces linear dependence, contradicting independence"
        )
    d = max(u.degree_in(3), v.degree_in(3))
    if d < 1:
        return LinearMap.identity(3), H.map
    try:
        T1, H1 = triangularize_top_coefficients(H.map)
    except NotNilpotentTop as exc:
        # With deg_z u, v <= 1 and h free of z, the z^1 coefficient of
        # sigma_1 is the trace of J_{x,y}(u1, v1) and the z^2 coefficient
        # of sigma_2 its determinant; both vanish, H being nilpotent.
        raise TheoremViolation(
            "a nilpotent map has a non-nilpotent top coefficient pair",
            map_to_document(H.map),
        ) from exc
    u1 = _z_coefficient(H1.components[0], 1)
    v1 = _z_coefficient(H1.components[1], 1)
    if u1.is_constant():
        # Mix the first two components so the z-linear parts cancel in
        # the second slot; (v1, -u1) is the annihilating combination.
        u1c = u1.constant_value()
        v1c = v1.constant_value()
        if u1c == 0 and v1c == 0:
            T2 = LinearMap.identity(3)
        else:
            T2 = row_conjugator([v1c, -u1c, 0], 2)
        T = T1 * T2
        return T, conjugate(H1, T2)
    if v1.is_zero():
        return T1, H1
    # u1 genuinely depends on y and v1 is a nonzero constant: the
    # nilpotency coefficient equations then force v0 and h free of x,
    # which collapses to linear dependence -- impossible here.
    raise TheoremViolation(
        "reduction reached the provably impossible branch",
        map_to_document(H.map),
    )


# ---------------------------------------------------------------------------
# Generalized family
# ---------------------------------------------------------------------------

class GeneralizedFormB:
    """H = (H_1(x), b3 x3+...+bn xn + H2_0, H_3(x1,x2), ..., H_n(x1,x2))."""

    __slots__ = ("map", "b", "H2_0", "_H1_split")

    def __init__(self, map: PolyMap):
        n = map.dimension
        if n < 3:
            raise ShapeError("the generalized family needs dimension >= 3")
        for i in range(2, n):
            extra = map.components[i].variables_used() - {1, 2}
            if extra:
                raise ShapeError(
                    f"component {i + 1} involves variables {sorted(extra)}"
                )
        b, H2_0 = _split_linear_tail(map.components[1])
        if H2_0.variables_used() - {1, 2}:
            raise ShapeError(
                "the second component must be linear in x3..xn"
            )
        if any(c != 0 for c in map.value_at_zero()):
            raise ShapeError("the map must vanish at the origin")
        object.__setattr__(self, "map", map)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "H2_0", H2_0)
        object.__setattr__(
            self, "_H1_split", _split_linear_tail(map.components[0])
        )

    def __setattr__(self, *args):
        raise AttributeError("GeneralizedFormB instances are immutable")

    @property
    def dimension(self) -> int:
        return self.map.dimension

    def linear_tail_coefficients(self) -> tuple[Fraction, ...] | None:
        """(a3..an) with H_1 = a3 x3+...+an xn + H_1^(0), or None."""
        a, H1_0 = self._H1_split
        return None if H1_0.variables_used() - {1, 2} else a

    def head_part(self) -> Polynomial:
        """H_1^(0): the part of H_1 free of x3..xn (requires linear tail)."""
        if self.linear_tail_coefficients() is None:
            raise ShapeError("H_1 is not linear in x3..xn")
        return self._H1_split[1]


def _split_linear_tail(p: Polynomial) -> tuple[tuple[Fraction, ...], Polynomial]:
    """(c3..cn, p0): the coefficients of the monomials x3..xn in p, and
    p0, the sum of every other term of p, in one pass over its terms."""
    return _split_off(p, [_unit(p.n, i) for i in range(3, p.n + 1)])


def _tail_sum(H: GeneralizedFormB, coeffs) -> Polynomial:
    """sum c_i H_i over the components H_3..H_n."""
    return _combination(
        H.dimension, [_coeff(c) for c in coeffs], H.map.components[2:]
    )


def nilpotency_system(H: GeneralizedFormB) -> list[Polynomial]:
    """The four vanishing conditions equivalent to Jacobian nilpotency.

    With h2 = sum b_i H_i, the conditions are the trace, the corrected
    2-minor sum, the 3-minor sum and the 4-minor sum of the Jacobian; all
    higher principal-minor sums vanish identically for this shape (this
    is asserted, not assumed).  The assertion takes sigma_5..sigma_n from
    `analysis.nilpotency_equations`, the one characteristic polynomial of
    the package, taken on the quotient by the Jacobian's common flag.
    """
    n = H.dimension
    m = H.map
    H1, H2 = m.components[0], m.components[1]
    h2 = _tail_sum(H, H.b)
    e1 = H1.partial(1) + H2.partial(2)
    e2 = H2.partial(2) ** 2 + H1.partial(2) * H2.partial(1) + h2.partial(2)
    for i in range(3, n + 1):
        e2 = e2 + H1.partial(i) * m.components[i - 1].partial(1)
    e3 = -(H1.partial(1) * h2.partial(2) - H1.partial(2) * h2.partial(1))
    e4 = Polynomial.zero(n)
    for i in range(3, n + 1):
        Hi = m.components[i - 1]
        e3 = e3 + H1.partial(i) * (
            H2.partial(1) * Hi.partial(2) - H2.partial(2) * Hi.partial(1)
        )
        e4 = e4 + H1.partial(i) * (
            Hi.partial(1) * h2.partial(2) - Hi.partial(2) * h2.partial(1)
        )
    if n >= 5:
        sigma = nilpotency_equations(m).sigma
        for k in range(5, n + 1):
            if not sigma[k - 1].is_zero():
                raise ConstructionMismatch(
                    f"principal minor sum of size {k} is nonzero for this shape",
                    map_to_document(m),
                )
    return [e1, e2, e3, e4]


# ---------------------------------------------------------------------------
# Four-variable core
# ---------------------------------------------------------------------------

class ReducedForm4D:
    """Data (h1, h2, h3, h4) in K[x,y] of the four-variable core map."""

    __slots__ = ("h1", "h2", "h3", "h4")

    def __init__(
        self, h1: Polynomial, h2: Polynomial, h3: Polynomial, h4: Polynomial
    ):
        for name, p in (("h1", h1), ("h2", h2), ("h3", h3), ("h4", h4)):
            if p.n != 2:
                raise ShapeError(f"{name} must be a polynomial in (x, y)")
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)
        object.__setattr__(self, "h3", h3)
        object.__setattr__(self, "h4", h4)

    def __setattr__(self, *args):
        raise AttributeError("ReducedForm4D instances are immutable")

    @property
    def parts(self) -> tuple[Polynomial, ...]:
        return (self.h1, self.h2, self.h3, self.h4)

    def realize(self) -> PolyMap:
        """The 4-map (z + h1(x,y), w + h2(x,y), h3(x,y), h4(x,y))."""
        lifted = [p.lift(4, [1, 2]) for p in self.parts]
        return PolyMap(
            [
                Polynomial.variable(4, 3) + lifted[0],
                Polynomial.variable(4, 4) + lifted[1],
                lifted[2],
                lifted[3],
            ]
        )

    def to_json(self) -> dict:
        return {
            name: format_polynomial(p, aliases="xy")
            for name, p in zip(("h1", "h2", "h3", "h4"), self.parts)
        }


def reduce_4d(H: GeneralizedFormB) -> ReducedForm4D:
    """Collapse a generalized instance to its four-variable core.

    The core is (H_1^(0), H_2^(0), sum a_i H_i, sum b_i H_i) read in the
    two variables (x1, x2).  The construction is verified on every call:
    the realized 4-map is nilpotent exactly when the input is.
    """
    a = H.linear_tail_coefficients()
    if a is None:
        raise ShapeError("H_1 must be linear in x3..xn")
    h3, h4 = _tail_sum(H, a), _tail_sum(H, H.b)
    parts = []
    for p in (H.head_part(), H.H2_0, h3, h4):
        parts.append(
            p.restrict([1, 2]) if not p.is_zero() else Polynomial.zero(2)
        )
    reduced = ReducedForm4D(*parts)
    if is_nilpotent(reduced.realize()) != is_nilpotent(H.map):
        raise ConstructionMismatch(
            "four-variable core disagrees with the input on nilpotency",
            map_to_document(H.map),
        )
    return reduced


def split_dependent_4d(
    h: ReducedForm4D, lam
) -> tuple[LinearMap, PolyMap]:
    """Conjugate away a dependent fourth component (h4 = lam * h3).

    Returns (T, conjugate) with T the product of the two elementary maps
    adding lam times coordinate 3 to coordinate 4 and lam times
    coordinate 1 to coordinate 2; the conjugated map has identically zero
    fourth component.
    """
    lam = _exact(lam)
    if not (h.h4 - h.h3.scale(lam)).is_zero():
        raise PreconditionError("h4 must equal lam * h3 exactly")
    T1 = elementary_row_add(4, 3, lam, 4)
    T2 = elementary_row_add(4, 1, lam, 2)
    T = T1 * T2
    realized = h.realize()
    result = conjugate(realized, T)
    if not result.components[3].is_zero():
        raise ConstructionMismatch(
            "fourth component of the split map is nonzero",
            map_to_document(realized),
        )
    return T, result


def keller_parameterized_check(h: ReducedForm4D) -> bool:
    """Unit-Jacobian test for the parameterized planar companion map.

    Adjoining a parameter t, the map
    (x + t h1 - t^2 h3, y + t h2 - t^2 h4) must have (x, y)-Jacobian
    determinant identically 1; this holds exactly when the realized
    4-map has a nilpotent Jacobian.
    """
    t = Polynomial.variable(3, 3)
    t2 = t * t
    parts = [p.lift(3, [1, 2]) for p in h.parts]
    F1 = Polynomial.variable(3, 1) + t * parts[0] - t2 * parts[2]
    F2 = Polynomial.variable(3, 2) + t * parts[1] - t2 * parts[3]
    det = F1.partial(1) * F2.partial(2) - F1.partial(2) * F2.partial(1)
    return det == Polynomial.const(3, 1)
