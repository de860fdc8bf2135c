"""Jacobian analysis: nilpotency certificates, linear dependence, conjugation.

A square matrix is nilpotent exactly when all of its principal-minor sums
sigma_1..sigma_n vanish (these are, up to sign, the characteristic
polynomial's coefficients).  `nilpotency_equations` computes those sums as
explicit polynomials, all at once from the characteristic polynomial of
J(H) by Berkowitz's division-free recursion (S. J. Berkowitz, Inf. Process.
Lett. 18, 1984; see `linalg.sigma_polynomials`).  `is_nilpotent_bruteforce`
independently checks J(H)^n = 0 by exact matrix powering, so the two
definitions guard each other in the test suite; `linalg.principal_minor_sum`,
which enumerates the C(n,k) minors explicitly, is kept as a further oracle
for the sigma polynomials themselves.

The J^n oracle refutes at a point first.  Evaluation at a point x0 is a
ring homomorphism, so (J^n)(x0) = J(x0)^n: when the exact rational matrix
J(x0)^n is nonzero, J^n is not the zero matrix, which proves the map is
not nilpotent.  Only when J(x0)^n = 0, as for every nilpotent map, is J^n
computed symbolically.  A nonzero polynomial rarely vanishes at a given
point (J. T. Schwartz, J. ACM 27, 1980), so almost every non-nilpotent map
is settled by n - 1 small integer matrix products.  The probe point
x0 = (2, -3, 5, -7, 11, ...) has nonzero coordinates with distinct
absolute values.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import prod
from typing import Sequence

from .errors import DimensionMismatch, PreconditionError, ShapeError
from .linalg import (
    LinearMap,
    PolyMatrix,
    RationalMatrix,
    _kernel_vectors,
    sigma_polynomials,
)
from .poly import Polynomial, PolyMap, _combination, _exact, _unpack


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

    def to_json(self) -> dict:
        from .parsing import format_polynomial

        doc = {
            "sigma": [format_polynomial(s) for s in self.sigma],
            "nilpotent": self.nilpotent,
        }
        if self.witness is not None:
            k, s = self.witness
            doc["witness"] = {"k": k, "sigma_k": format_polynomial(s)}
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


class CoefficientSystem:
    """Equations obtained by comparing coefficients of powers of one variable."""

    __slots__ = ("variable", "equations")

    def __init__(self, variable: int, equations: Sequence[Polynomial]):
        for eq in equations:
            if variable in eq.variables_used():
                raise ShapeError(
                    f"equation still involves variable {variable}"
                )
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "equations", tuple(equations))

    def __setattr__(self, *args):
        raise AttributeError("CoefficientSystem instances are immutable")

    def all_zero(self) -> bool:
        return all(eq.is_zero() for eq in self.equations)

    def to_json(self) -> dict:
        from .parsing import format_polynomial

        return {
            "variable": self.variable,
            "equations": [format_polynomial(eq) for eq in self.equations],
        }


def jacobian(H: PolyMap) -> PolyMatrix:
    """The matrix of partial derivatives, entry (i,j) = d H_i / d x_j."""
    n = H.dimension
    return PolyMatrix(
        [[H[i].partial(j) for j in range(1, n + 1)] for i in range(n)]
    )


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
    """J(H) evaluated at an integer point, read off H's term dicts.

    Each term c * x^e of H_i adds c * e_j * prod_k point_k^(e_k - [k = j])
    to entry (i, j) for every j with e_j > 0.  No coordinate is divided
    by, so the point may have zero coordinates.
    """
    n = H.dimension
    rows = []
    for p in H.components:
        row = [0] * n
        for key, c in p._terms.items():
            exps = _unpack(key, n)
            values = [x**e for x, e in zip(point, exps)]
            for j, e in enumerate(exps):
                if e:
                    row[j] += (
                        c * e * point[j] ** (e - 1)
                        * prod(values[:j]) * prod(values[j + 1:])
                    )
        rows.append(row)
    return RationalMatrix(rows)


def _nilpotency_index(m: RationalMatrix) -> int | None:
    """The least k >= 1 with m^k = 0 for a square rational matrix, or None
    when m is not nilpotent, that is when m^size != 0.  The powering stops
    at the first zero power."""
    power = m
    k = 1
    while any(map(any, power.entries)):
        if k == m.rows:
            return None
        power = power * m
        k += 1
    return k


def nilpotency_equations(H: PolyMap) -> NilpotencyReport:
    """All principal-minor sums sigma_1..sigma_n of J(H)."""
    return NilpotencyReport(sigma_polynomials(jacobian(H)))


def is_nilpotent(H: PolyMap) -> bool:
    """True iff every sigma_k of J(H) vanishes.

    The trace sigma_1 is checked first, so most non-nilpotent maps are
    rejected without computing the characteristic polynomial.
    """
    n = H.dimension
    J = jacobian(H)
    if not sum((J[i, i] for i in range(n)), Polynomial.zero(n)).is_zero():
        return False
    return all(s.is_zero() for s in sigma_polynomials(J))


def is_nilpotent_bruteforce(H: PolyMap) -> bool:
    """Independent oracle: J(H)^n = 0, by exact matrix powering.

    J(H)(x0)^n is computed first at the probe point x0.  It equals
    (J(H)^n)(x0), since evaluation is a ring homomorphism, so when it is
    nonzero J(H)^n is not zero and the answer is False.  Otherwise J(H)^n
    is computed symbolically.  Neither step reads a sigma polynomial.
    The powering of J(H)(x0) stops at its first zero power, since every
    later power is zero too.
    """
    n = H.dimension
    if _nilpotency_index(_jacobian_at(H, _probe_point(n))) is None:
        return False
    return jacobian(H).power(n).is_zero()


def conjugate(H: PolyMap, T: LinearMap) -> PolyMap:
    """The conjugated map x -> T^-1 (H(T x)), computed exactly."""
    n = H.dimension
    if T.dimension != n:
        raise DimensionMismatch(
            f"conjugating a {n}-dimensional map by a {T.dimension}x{T.dimension} matrix"
        )
    # Each component of T^-1 (H o T) is one integer combination of the
    # components of H o T, divided once by its row's common denominator.
    composed = H.compose(T.as_poly_map()).components
    return PolyMap([_combination(n, row, composed) for row in T.inverse.entries])


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


def coefficient_system(
    source: Sequence[Polynomial], i: int
) -> CoefficientSystem:
    """Expand each source identity into coefficients of powers of x_i."""
    equations: list[Polynomial] = []
    for p in source:
        equations.extend(p.coefficients_in(i))
    return CoefficientSystem(i, equations)


def check_divergence_coefficients(
    u: Polynomial, v: Polynomial, zvar: int = 3
) -> bool:
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
    if not v.degree_in(zvar) <= u.degree_in(zvar):
        raise PreconditionError("deg_z v must not exceed deg_z u")
    ucoeffs = u.coefficients_in(zvar)
    vcoeffs = v.coefficients_in(zvar)
    d = len(ucoeffs) - 1
    l = len(vcoeffs) - 1
    for j in range(l + 1, d + 1):
        if not ucoeffs[j].partial(1).is_zero():
            return False
    for i in range(l + 1):
        if not (ucoeffs[i].partial(1) + vcoeffs[i].partial(2)).is_zero():
            return False
    return True
