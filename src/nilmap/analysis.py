"""Jacobian analysis: nilpotency certificates, linear dependence, conjugation.

A square matrix is nilpotent exactly when all of its principal-minor sums
sigma_1..sigma_n vanish (these are, up to sign, the characteristic
polynomial's coefficients).  `nilpotency_equations` computes those sums as
explicit polynomials, all at once from a characteristic polynomial taken by
Berkowitz's division-free recursion (S. J. Berkowitz, Inf. Process. Lett.
18, 1984; see `linalg._sigma_terms`).

The recursion does not run on J(H) itself but on its quotient by the
common flag space (`_quotient_sigma`).  Write J = sum_m M_m x^m.  The
largest subspace W on which all the M_m act by one strictly triangular
flag comes from the greedy chain W_k = {v : M_m v in W_(k-1)}
(`linalg._common_flag`; Radjavi and Rosenthal, *Simultaneous
Triangularization*, 2000; van den Essen, *Polynomial Automorphisms*, 2000,
ch. 7).  In a basis that starts with one of W, J is block triangular with
a nilpotent first block, so det(tI - J) = t^w det(tI - Q) for w = dim W and
Q the block on the quotient: sigma_k(J) = sigma_k(Q) for k <= n - w, and 0
beyond.  When W is everything, as for the paper's second family under any
constant conjugation, no characteristic polynomial is taken at all.
Jacobians of every size take this one path, and it is the only one in the
package that takes a characteristic polynomial.

A verdict needs less than the report.  `nilpotency_witness` (behind
`classify`) and `is_nilpotent` stop at the first nonzero sigma: the trace
first, which refutes most non-nilpotent maps without a characteristic
polynomial, then the quotient's.  The same quotient decides the Keller
condition of `tame.keller_check` (`_unit_determinant`): det(I + J) is
1 + sum_k sigma_k(J).

`is_nilpotent_bruteforce` independently checks J(H)^n = 0 by exact matrix
powering, so the two definitions guard each other in the test suite.  The
test suite also checks the sigma polynomials themselves against full
Berkowitz on J and against the C(n,k) minors enumerated explicitly.  None
of these oracles reads the flag, so a fault in the flag cannot hide behind
an oracle that shares it.

Both the report and the J^n oracle work on term dicts, not on polynomial
objects.
`_jacobian_terms` reads the integer grid cJ(H) off each component's
numerators in one pass, with c the lcm of the components' denominators
(every polynomial is stored as integer numerators over one denominator, so
row i is scaled by c / den_i, and an integral map needs no scaling).  The
chain, the recursion and the powering run on that grid: the quotient block
of cJ is d c Q, for d the denominator of the chain's reduced basis, so
sigma_k(J) is the integer sigma_k of that block divided by (d c)^k once,
and (cJ)^n = 0 exactly when J^n = 0.
Only the n sigma polynomials of a report are built as `Polynomial`s.

The J^n oracle refutes at a point first.  Evaluation at a point x0 is a
ring homomorphism, so (J^n)(x0) = J(x0)^n: when the exact rational matrix
J(x0)^n is nonzero, J^n is not the zero matrix, which proves the map is
not nilpotent.  Only when J(x0)^n = 0, as for every nilpotent map, is J^n
computed symbolically.  A nonzero polynomial rarely vanishes at a given
point (J. T. Schwartz, J. ACM 27, 1980), so almost every non-nilpotent map
is settled by n - 1 small integer matrix products, of d J(x0) for d the lcm
of its denominators.  The probe point x0 = (2, -3, 5, -7, 11, ...) has
nonzero coordinates with distinct absolute values.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import chain
from math import lcm, prod
from typing import Sequence

from .errors import DimensionMismatch, PreconditionError, ShapeError
from .linalg import (
    LinearMap,
    PolyMatrix,
    RationalMatrix,
    _common_flag,
    _grid_power,
    _int_matmul,
    _kernel_vectors,
    _sigma_terms,
)
from .parsing import DEFAULT_ALIASES, format_polynomial
from .poly import (
    Polynomial,
    PolyMap,
    Terms,
    _add_into,
    _combination,
    _exact,
    _int_combination,
    _linear,
    _over_one_den,
    _reduced,
    _scaled,
    _substitute,
    _unit,
    _unpack,
)


class NilpotencyReport:
    """Sigma polynomials of a Jacobian plus the verdict they imply."""

    __slots__ = ("sigma", "nilpotent", "witness")

    def __init__(self, sigma: Sequence[Polynomial]):
        sigma = tuple(sigma)
        witness = None
        for k, s in enumerate(sigma, start=1):
            if not s.is_zero():
                witness = (k, s)
                break
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "nilpotent", witness is None)
        object.__setattr__(self, "witness", witness)

    def __setattr__(self, *args):
        raise AttributeError("NilpotencyReport instances are immutable")

    def to_json(self, aliases: str | None = DEFAULT_ALIASES) -> dict:
        doc = {
            "sigma": [format_polynomial(s, aliases) for s in self.sigma],
            "nilpotent": self.nilpotent,
        }
        if self.witness is not None:
            k, s = self.witness
            doc["witness"] = {"k": k, "sigma_k": format_polynomial(s, aliases)}
        return doc


class DependenceCertificate:
    """Rational vector lambda, not all zero, with sum(lambda_i * H_i) = 0.

    Certificates are normalized so the first nonzero entry is 1, making
    them deterministic for golden tests.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence[Fraction]):
        coeffs = [_exact(c) for c in coefficients]
        lead = next((c for c in coeffs if c != 0), None)
        if lead is None:
            raise ShapeError("a dependence certificate cannot be all zero")
        object.__setattr__(
            self, "coefficients", tuple(c / lead for c in coeffs)
        )

    def __setattr__(self, *args):
        raise AttributeError("DependenceCertificate instances are immutable")

    def __eq__(self, other):
        if not isinstance(other, DependenceCertificate):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def verify(self, components: Sequence[Polynomial]) -> bool:
        """Check sum(lambda_i * components_i) = 0 exactly."""
        if len(components) != len(self.coefficients):
            raise DimensionMismatch("certificate length does not match components")
        n = components[0].n
        return _combination(n, self.coefficients, components).is_zero()

    def to_json(self) -> dict:
        return {"coefficients": [str(c) for c in self.coefficients]}

    def __repr__(self):
        return f"DependenceCertificate({[str(c) for c in self.coefficients]})"


def jacobian(H: PolyMap) -> PolyMatrix:
    """The matrix of partial derivatives, entry (i,j) = d H_i / d x_j."""
    n = H.dimension
    grid, c = _jacobian_terms(H)
    return PolyMatrix(
        [[Polynomial._trusted(n, *_reduced(t, c)) for t in row] for row in grid]
    )


def _jacobian_terms(H: PolyMap) -> tuple[list[list[Terms]], int]:
    """(grid, c): the integer term dicts of cJ(H), for c the lcm of the
    components' denominators, from one pass over each component's
    numerators: the term a * x^e of H_i = N_i / d_i adds
    a * (c / d_i) * e_j * x^(e - u_j) to entry (i, j) for every j with
    e_j > 0.  Distinct terms of H_i give distinct keys in each entry, so
    nothing is summed and no entry holds a zero."""
    n = H.dimension
    units = [_unit(n, j) for j in range(1, n + 1)]
    c = lcm(*(p._den for p in H.components))
    grid = []
    for p in H.components:
        row: list[Terms] = [{} for _ in range(n)]
        f = c // p._den
        for key, a in p._terms.items():
            if f != 1:
                a *= f
            for j, e in enumerate(_unpack(key, n)):
                if e:
                    row[j][key - units[j]] = a * e
        grid.append(row)
    return grid, c


@functools.cache
def _probe_point(n: int) -> tuple[int, ...]:
    """The point x0 = (2, -3, 5, -7, 11, ...) in n variables: the first n
    primes with alternating signs."""
    primes: list[int] = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return tuple(-p if i % 2 else p for i, p in enumerate(primes))


def _jacobian_at(H: PolyMap, point: Sequence[int]) -> RationalMatrix:
    """J(H) evaluated at the origin or at an integer point with no zero
    coordinate, read off H's term dicts.

    At the origin this is the linear part of H: entry (i, j) is the
    coefficient of x_j in H_i.  Elsewhere the monomial of each term
    c * x^e is evaluated once, to m, and the term adds c * e_j * m / point_j
    to entry (i, j) for every j with e_j > 0; point_j divides m, so the
    quotient is an exact integer.
    """
    n = H.dimension
    if not any(point):
        units = [_unit(n, j) for j in range(1, n + 1)]
        rows = [[p._terms.get(u, 0) for u in units] for p in H.components]
    else:
        rows = []
        for p in H.components:
            row = [0] * n
            for key, c in p._terms.items():
                exps = _unpack(key, n)
                m = prod(map(pow, point, exps))
                for j, e in enumerate(exps):
                    if e:
                        row[j] += c * (m * e // point[j])
            rows.append(row)
    # Row i holds the numerators of H_i, so it is divided by den_i.
    if all(p._den == 1 for p in H.components):
        return RationalMatrix._trusted(tuple(map(tuple, rows)))
    return RationalMatrix(
        [[Fraction(v, p._den) for v in row] for row, p in zip(rows, H.components)]
    )


def _nilpotency_index(m: RationalMatrix) -> int | None:
    """The least k >= 1 with m^k = 0 for a square rational matrix, or None
    when m is not nilpotent, that is when m^size != 0.

    The powers are integer products of dm, where d is the lcm of m's
    denominators: (dm)^k = d^k m^k vanishes exactly when m^k does.  The
    powering stops at the first zero power.
    """
    size = m.rows
    flat, _ = _over_one_den(list(chain.from_iterable(m.entries)))
    rows = [flat[i:i + size] for i in range(0, size * size, size)]
    columns = list(zip(*rows))
    power = rows
    k = 1
    while any(map(any, power)):
        if k == size:
            return None
        power = _int_matmul(power, columns)
        k += 1
    return k


def _quotient_sigma(grid: list[list[Terms]], n: int) -> tuple[list[Terms], int]:
    """(sigma, d) for the integer grid cJ of a Jacobian in n variables:
    sigma_k(cJ) = sigma[k - 1] / d^k for k <= len(sigma), and 0 for every
    larger k.

    sigma holds the integer sigma_1..sigma_(n - w) of the quotient block dQ
    of the common flag space W of dimension w (`linalg._common_flag`):
    det(tI - cJ) = t^w det(tI - Q).  When W = 0, dQ is cJ itself and
    d = 1; when W is everything, sigma is empty.
    """
    flag = _common_flag(grid)
    return _sigma_terms(flag.quotient, n), flag.den


def _unit_determinant(grid: list[list[Terms]], c: int, n: int) -> bool:
    """True iff det(I + J) = 1, for J = cJ / c given by the integer grid cJ
    of a Jacobian in n variables.

    det(I + J) = 1 + sum_k sigma_k(J), and sigma_k(J) = sigma[k - 1] /
    (d c)^k for (sigma, d) from `_quotient_sigma`, so the sum vanishes
    exactly when the integer sum of sigma[k - 1] (d c)^(len(sigma) - k)
    does.  When the common flag space is everything, sigma is empty and
    no characteristic polynomial is taken.
    """
    sigma, d = _quotient_sigma(grid, n)
    total: Terms = {}
    for k, s in enumerate(sigma, 1):
        _add_into(total, _scaled(s, (d * c) ** (len(sigma) - k)))
    return not any(total.values())


def nilpotency_equations(H: PolyMap) -> NilpotencyReport:
    """All principal-minor sums sigma_1..sigma_n of J(H), from the
    characteristic polynomial of the quotient of J(H) by its common flag
    space (`_quotient_sigma`), computed on term dicts."""
    n = H.dimension
    grid, c = _jacobian_terms(H)
    sigma, d = _quotient_sigma(grid, n)
    scale = d * c
    report = [
        Polynomial._trusted(n, *_reduced(s, scale**k))
        for k, s in enumerate(sigma, 1)
    ]
    if len(report) < n:
        report += [Polynomial.zero(n)] * (n - len(report))
    return NilpotencyReport(report)


def nilpotency_witness(H: PolyMap) -> tuple[int, Polynomial] | None:
    """(k, sigma_k) for the first nonzero sigma_k of J(H), the witness of
    `nilpotency_equations(H)`, or None when J(H) is nilpotent.

    The trace sigma_1 is checked first, so most non-nilpotent maps are
    refuted without a characteristic polynomial; the others take the one
    of the quotient by the common flag space, and only the witness is
    built as a `Polynomial`.
    """
    n = H.dimension
    grid, c = _jacobian_terms(H)
    trace: Terms = {}
    for i in range(n):
        _add_into(trace, grid[i][i])
    if any(trace.values()):
        return 1, Polynomial._trusted(n, *_reduced(trace, c))
    sigma, d = _quotient_sigma(grid, n)
    for k, s in enumerate(sigma, 1):
        if s:
            return k, Polynomial._trusted(n, *_reduced(s, (d * c) ** k))
    return None


def is_nilpotent(H: PolyMap) -> bool:
    """True iff every sigma_k of J(H) vanishes: `nilpotency_witness` finds
    no witness."""
    return nilpotency_witness(H) is None


def is_nilpotent_bruteforce(H: PolyMap) -> bool:
    """Independent oracle: J(H)^n = 0, by exact matrix powering.

    J(H)(x0)^n is computed first at the probe point x0.  It equals
    (J(H)^n)(x0), since evaluation is a ring homomorphism, so when it is
    nonzero J(H)^n is not zero and the answer is False.  Otherwise J(H)^n
    is computed symbolically, on the integer term dicts of cJ(H) for c the
    lcm of H's denominators: (cJ)^n = c^n J^n is zero exactly when J^n
    is.  Neither step reads a sigma polynomial.  The powering of J(H)(x0)
    stops at its first zero power, since every later power is zero too.
    """
    n = H.dimension
    if _nilpotency_index(_jacobian_at(H, _probe_point(n))) is None:
        return False
    grid, _ = _jacobian_terms(H)
    return not any(chain.from_iterable(_grid_power(grid, n, n)))


def conjugate(H: PolyMap, T: LinearMap) -> PolyMap:
    """The conjugated map x -> T^-1 (H(T x)), computed exactly as
    (T^-1 H) o T.

    Component i of T^-1 H is sum_k T^-1[i][k] H_k: the numerators of H
    over their lcm L, combined with the integer row r_i / e_i of T^-1 into
    one integer dict over e_i * L.  One substitution then sends x to T x,
    with the linear forms of T's rows as the images.  Every component of
    T^-1 H carries the union of H's supports, and the substitution expands
    each monomial of that union once for all of them (`poly._substitute`).
    """
    n = H.dimension
    if T.dimension != n:
        raise DimensionMismatch(
            f"conjugating a {n}-dimensional map by a {T.dimension}x{T.dimension} matrix"
        )
    dens = [p._den for p in H.components]
    L = lcm(*dens)
    numerators = [p._terms for p in H.components]
    polys = []
    for row in T.inverse.entries:
        ints, e = _over_one_den(row)
        coeffs = [a * (L // den) for a, den in zip(ints, dens)]
        polys.append((_int_combination(coeffs, numerators), e * L))
    rows = [_linear(n, row) for row in T.matrix.entries]
    images = [(t._terms, t._den) for t in rows]
    return PolyMap([Polynomial._trusted(n, *r) for r in _substitute(polys, n, images, n)])


def linear_dependence(
    components: Sequence[Polynomial],
) -> DependenceCertificate | None:
    """The first vector of `coefficient_kernel` on the components, as a
    normalized certificate, or None when they are linearly independent
    over the rationals.

    The kernel's vectors are produced one column at a time
    (`linalg._kernel_vectors`), so the components after the first one that
    depends on its predecessors are never read.
    """
    components = list(components)
    if not components:
        raise ShapeError("linear_dependence needs at least one polynomial")
    n = components[0].n
    for p in components:
        if p.n != n:
            raise DimensionMismatch("components live in different rings")
    vector = next(_kernel_vectors([components]), None)
    if vector is None:
        return None
    return DependenceCertificate(vector)


# z of the (u, v, h) family: the third variable.
_Z = 3


def check_divergence_coefficients(u: Polynomial, v: Polynomial) -> bool:
    """Coefficient consequences of u_x + v_y = 0 with deg_z v <= deg_z u.

    Writing u = sum u_j z^j (degree d) and v = sum v_j z^j (degree l), the
    divergence identity forces u_{jx} = 0 for l < j <= d and
    u_{ix} + v_{iy} = 0 for 0 <= i <= l.  Those consequences are provable,
    so a False return signals a bug rather than bad input; precondition
    failures raise instead.
    """
    if u.n != v.n:
        raise DimensionMismatch("u and v live in different rings")
    if not (u.partial(1) + v.partial(2)).is_zero():
        raise PreconditionError("u_x + v_y must vanish identically")
    if not v.degree_in(_Z) <= u.degree_in(_Z):
        raise PreconditionError("deg_z v must not exceed deg_z u")
    ucoeffs = u.coefficients_in(_Z)
    vcoeffs = v.coefficients_in(_Z)
    d = len(ucoeffs) - 1
    l = len(vcoeffs) - 1
    for j in range(l + 1, d + 1):
        if not ucoeffs[j].partial(1).is_zero():
            return False
    for i in range(l + 1):
        if not (ucoeffs[i].partial(1) + vcoeffs[i].partial(2)).is_zero():
            return False
    return True
