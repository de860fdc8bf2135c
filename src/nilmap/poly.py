"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in n variables is a mapping from monomials (one non-negative
integer exponent per variable) to nonzero rational coefficients.  The
empty mapping is the zero polynomial.  All values are immutable after
construction and every operation is a pure function, so polynomials can be
shared freely between threads.

Stored form: every Polynomial is an integer polynomial over one
denominator, the layout of FLINT's ``fmpq_mpoly``.  Its term dict maps one
packed int key per monomial (below) to a nonzero int numerator, and ``_den``
is a positive int with gcd(den, numerators) = 1, the lcm of the reduced
coefficient denominators; so den = 1 exactly when the polynomial is
integral, and equal polynomials have equal dicts and denominators.  The
ring operations run on the numerators alone and fix the denominator once
per result; no Fraction is built per term.  Floats are rejected with
InexactValue, because they are not exact.  The public accessors
(``terms``, ``monomials``, ``coefficient``, ``constant_value``,
``leading_term``) still speak in exponent tuples and Fraction values.

Packed keys (Monagan and Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007): the key of
x1^e1 * ... * xn^en is an int of n + 1 fields of B = 16 bits each.  The
top field holds the total degree e1 + ... + en, and below it come e1 (the
highest) down to en.  The key of a product is the sum of the two keys, and
the order of the ints is the graded lexicographic order of ``_grlex_key``,
so the leading term is the largest key and printing sorts the ints.  The
constant monomial is the key 0.  Keys are valid only while the total
degree stays below 2^B: the constructor, ``monomial``, ``lift`` and
``integrate`` reject a larger one, and every product checks the two
largest total degrees (the top fields of the largest keys) before it adds
any key.  All of them raise ExponentOverflow; no key is ever wrong.

Normalization happens in two places.  The public constructor, ``const``,
``monomial`` and ``scale`` pass their input through ``_coeff`` and bring
the coefficients over one denominator (``_over_one_den``).  The ring
operations build their results through the private
``Polynomial._trusted``, which takes ownership of a term dict and
denominator already in stored form; products, substitutions and the sums
of products behind characteristic polynomials and matrix powers
(``_dot_terms``) accumulate into one integer dict, and ``_reduced`` then
deletes its zero numerators and divides the dict and its denominator by
their gcd.

Substitution (``Polynomial.substitute``, ``PolyMap.compose``) runs on
``_substitute``, which takes any number of term dicts and one list of
images.  Within one call it expands each distinct monomial once: the
image powers come from one table per variable, the product of those powers
is kept in a table keyed by the monomial's packed key, and every term that
holds the monomial adds its coefficient times that product.  A map whose
components share their support, such as a map in general position or a
linear conjugate, is thus composed for the cost of one component plus one
scaled addition per term.  Both tables are local to the call.

Variable indices in the public API are 1-based (x1..xn), matching the usual
mathematical notation; exponent tuples are indexed from 0 internally.
"""

from __future__ import annotations

import functools
import struct
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import (
    DimensionMismatch,
    ExponentOverflow,
    InexactValue,
    NilmapError,
    ShapeError,
)

Exponent = tuple[int, ...]
Coeff = int | Fraction
Terms = dict[int, int]

_B = 16
# Every exponent and every total degree stays below this bound.
_LIMIT = 1 << _B
_MASK = _LIMIT - 1


def _exact(value) -> Fraction:
    """The value as a Fraction; floats are rejected, since they are not exact."""
    if value.__class__ is Fraction:
        return value
    if isinstance(value, float):
        raise InexactValue(
            f"floating-point value {value!r} given where an exact rational is "
            f"required; pass an int, a Fraction or a string such as '1/10'"
        )
    return Fraction(value)


def _coeff(value) -> Coeff:
    """The value as an int when integral, else as a Fraction."""
    if value.__class__ is int:
        return value
    value = _exact(value)
    return value.numerator if value.denominator == 1 else value


# -- packed keys --------------------------------------------------------------

@functools.cache
def _layout(n: int) -> tuple[struct.Struct, struct.Struct, int]:
    """(pack, unpack, size) for keys in n variables: `pack` writes the total
    degree and e1..en as big-endian B-bit fields, `unpack` reads e1..en
    back from `size` bytes, skipping the degree."""
    return struct.Struct(f">{n + 1}H"), struct.Struct(f">2x{n}H"), 2 * (n + 1)


def _overflow(degree: int) -> ExponentOverflow:
    return ExponentOverflow(
        f"total degree {degree} is beyond the supported maximum of {_LIMIT - 1}"
    )


def _pack(exps: Exponent, n: int) -> int:
    """The key of a tuple of n exponents, validated."""
    if len(exps) != n:
        raise DimensionMismatch(
            f"monomial {exps} has {len(exps)} exponents, expected {n}"
        )
    if any(e < 0 for e in exps):
        raise ShapeError(f"negative exponent in monomial {exps}")
    degree = sum(exps)
    if degree >= _LIMIT:
        raise _overflow(degree)
    return int.from_bytes(_layout(n)[0].pack(degree, *exps), "big")


def _unpack(key: int, n: int) -> Exponent:
    """The exponent tuple of a key in n variables."""
    _, unpack, size = _layout(n)
    return unpack.unpack(key.to_bytes(size, "big"))


def _shift(n: int, i: int) -> int:
    """Bit offset of the field of x_i (1-based) in a key in n variables."""
    return _B * (n - i)


def _unit(n: int, i: int) -> int:
    """The key of x_i (1-based): total degree 1 plus a 1 in x_i's field."""
    return (1 << _B * n) | (1 << _shift(n, i))


# -- integer term dicts -------------------------------------------------------

def _mul_into(out: Terms, a: Terms, b: Terms, n: int) -> None:
    """Add the product of the term dicts a and b, in n variables, into out.

    Raises ExponentOverflow before adding any key when a product's total
    degree could reach 2^B.  Cancelled sums stay in out as zero
    coefficients; `_drop_zeros` removes them once the accumulation is
    complete.
    """
    if not a or not b:
        return
    top = _B * n
    degree = (max(a) >> top) + (max(b) >> top)
    if degree >= _LIMIT:
        raise _overflow(degree)
    get = out.get
    b_items = b.items()
    for ka, ca in a.items():
        for kb, cb in b_items:
            key = ka + kb
            old = get(key)
            out[key] = ca * cb if old is None else old + ca * cb


def _add_into(out: Terms, a: Terms) -> None:
    """Add the term dict a into out, leaving cancelled sums as zeros."""
    get = out.get
    for key, c in a.items():
        old = get(key)
        out[key] = c if old is None else old + c


def _drop_zeros(out: Terms) -> Terms:
    """Delete the zero coefficients of out in place and return it."""
    if 0 in out.values():
        for key in [key for key, c in out.items() if not c]:
            del out[key]
    return out


def _reduced(out: Terms, den: int) -> tuple[Terms, int]:
    """(out, den) in stored form: the zero numerators of the integer dict
    out are deleted in place, and out and the positive den are divided by
    their gcd."""
    _drop_zeros(out)
    if den != 1:
        if not out:
            return out, 1
        g = gcd(den, *out.values())
        if g != 1:
            for key, c in out.items():
                out[key] = c // g
            den //= g
    return out, den


def _scaled(terms: Terms, f: int) -> Terms:
    """f times an integer term dict, as a new dict."""
    return {key: f * c for key, c in terms.items()}


def _over_one_den(values):
    """(ints, den) for a dict or a sequence of int or reduced Fraction
    values: den is the lcm of their denominators and ints holds each value
    times den, under the same key or at the same index.  The values
    themselves are returned, uncopied, when every one is an int."""
    items = values.values() if values.__class__ is dict else values
    den = 1
    for v in items:
        if v.__class__ is not int:
            den = lcm(den, v.denominator)
    if den == 1:
        return values, 1
    ints = [
        v * den if v.__class__ is int else v.numerator * (den // v.denominator)
        for v in items
    ]
    return (ints if items is values else dict(zip(values, ints))), den


_ONE: Terms = {0: 1}


def _product(a: Terms, b: Terms, n: int) -> Terms:
    """The product of the integer term dicts a and b, in n variables, as a
    new dict without zero coefficients."""
    out: Terms = {}
    _mul_into(out, a, b, n)
    return _drop_zeros(out)


def _power(terms: Terms, k: int, n: int) -> Terms:
    """The k-th power (k >= 0) of an integer term dict in n variables, by
    square-and-multiply; the result is a new dict.  A single term whose
    power stays below the degree limit is raised at once: key times k,
    coefficient to the k."""
    if len(terms) == 1:
        ((key, c),) = terms.items()
        if k * (key >> _B * n) < _LIMIT:
            return {key * k: c**k}
    result: Terms = {0: 1}
    base = terms
    while k:
        if k & 1:
            result = _product(result, base, n)
        if k > 1:
            base = _product(base, base, n)
        k >>= 1
    return result


def _substitute(
    polys: Sequence[tuple[Terms, int]],
    n: int,
    images: Sequence[tuple[Terms, int]],
    m: int,
) -> list[tuple[Terms, int]]:
    """The stored forms (terms, den), in m variables, of the polynomials in
    n variables with stored forms `polys` after the substitution
    x_k -> images[k - 1].

    The images are brought over one denominator d, image_k = M_k / d, so a
    term c * x^e of a polynomial N / den of total degree D becomes
    c * d^(D - |e|) * prod_k M_k^e_k over den * d^D, all in integers.  Each
    distinct monomial x^e of `polys` is expanded once per call: the first
    term that holds it multiplies out prod_k M_k^e_k from a table of the
    powers of the M_k, and every term adds its coefficient times that
    expansion into its result.  A monomial shared by k of the polynomials
    thus costs one expansion, not k.
    """
    d = lcm(*[den for _, den in images])
    bases = [terms if den == d else _scaled(terms, d // den) for terms, den in images]
    # powers[k][e] is the term dict of M_k^e; a list grows as monomials
    # need higher powers.  expanded[key] is the term dict of prod_k M_k^e_k
    # for the monomial with that key.  Neither is ever modified in place.
    powers = [[_ONE, base] for base in bases]
    expanded: dict[int, Terms] = {0: _ONE}
    top = _B * n
    results = []
    for terms, den in polys:
        out: Terms = {}
        if d != 1 and terms:
            degree = max(terms) >> top
            den *= d**degree
            terms = {key: c * d ** (degree - (key >> top)) for key, c in terms.items()}
        get = out.get
        for key, coeff in terms.items():
            expansion = expanded.get(key)
            if expansion is None:
                for k, e in enumerate(_unpack(key, n)):
                    if e:
                        cache = powers[k]
                        while len(cache) <= e:
                            cache.append(_product(cache[-1], bases[k], m))
                        expansion = (
                            cache[e] if expansion is None
                            else _product(expansion, cache[e], m)
                        )
                expanded[key] = expansion
            for image_key, c in expansion.items():
                old = get(image_key)
                out[image_key] = coeff * c if old is None else old + coeff * c
        results.append(_reduced(out, den))
    return results


def _dot_terms(n: int, xs: Iterable[Terms], ys: Iterable[Terms]) -> Terms:
    """sum(x * y) over the pairs of integer term dicts in n variables,
    summed into one new term dict without zero coefficients.

    A factor equal to the constant 1 adds the other factor's terms instead
    of multiplying them.
    """
    out: Terms = {}
    for a, b in zip(xs, ys):
        if not a or not b:
            continue
        if a == _ONE:
            _add_into(out, b)
        elif b == _ONE:
            _add_into(out, a)
        else:
            _mul_into(out, a, b, n)
    return _drop_zeros(out)


def _negated(terms: Terms) -> Terms:
    """The term dict of -p, as a new dict."""
    return {key: -c for key, c in terms.items()}


def _combination(
    n: int, coeffs: Sequence[Coeff], polys: Sequence[Polynomial]
) -> Polynomial:
    """sum(c * p) over the pairs, summed into one integer term dict.

    With c = a / b and p = N / d, the sum is sum((L // (b * d)) * a * N) / L
    for L the lcm of the b * d, so it runs on integers, and its
    denominator is fixed once.
    """
    scaled = []
    den = 1
    for c, p in zip(coeffs, polys):
        if not c:
            continue
        if c.__class__ is int:
            a, b = c, p._den
        else:
            a, b = c.numerator, c.denominator * p._den
        if den % b:
            den = lcm(den, b)
        scaled.append((a, b, p._terms))
    out = _int_combination(
        [a if b == den else a * (den // b) for a, b, _ in scaled],
        [terms for _, _, terms in scaled],
    )
    return Polynomial._trusted(n, *_reduced(out, den))


def _int_combination(coeffs: Sequence[int], dicts: Sequence[Terms]) -> Terms:
    """sum(a * d) over the pairs of an int and an integer term dict, as a
    new dict without zero coefficients."""
    out: Terms = {}
    get = out.get
    for a, terms in zip(coeffs, dicts):
        if a:
            for key, c in terms.items():
                old = get(key)
                out[key] = a * c if old is None else old + a * c
    return _drop_zeros(out)


def _linear(n: int, coeffs: Sequence[Coeff]) -> Polynomial:
    """sum(c_j * x_j) for int or Fraction coefficients c_1..c_n."""
    return Polynomial._trusted(
        n, *_over_one_den({_unit(n, j): c for j, c in enumerate(coeffs, 1) if c})
    )


def _split_off(
    p: Polynomial, keys: Sequence[int]
) -> tuple[tuple[Fraction, ...], Polynomial]:
    """(coefficients, rest): the coefficients of p at the given keys, and
    the sum of every other term of p, in one pass over its terms."""
    terms, den = p._terms, p._den
    skip = set(keys)
    rest = {key: c for key, c in terms.items() if key not in skip}
    coeffs = tuple(Fraction(terms.get(key, 0), den) for key in keys)
    return coeffs, Polynomial._trusted(p.n, *_reduced(rest, den))


def _grlex_terms(p: Polynomial) -> list[tuple[Exponent, int, int]]:
    """(exponents, numerator, denominator) triples in descending graded-lex
    order, each coefficient in lowest terms."""
    terms, den, n = p._terms, p._den, p.n
    out = []
    for key in sorted(terms, reverse=True):
        c = terms[key]
        g = gcd(c, den) if den != 1 else 1
        out.append((_unpack(key, n), c // g, den // g))
    return out


def _grlex_key(exps: Exponent):
    # Graded lexicographic: compare total degree first, then the exponent
    # vector itself.  Packed keys sort in exactly this order.
    return (sum(exps), exps)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    # `_hash` is set by the first __hash__ call.
    __slots__ = ("n", "_terms", "_den", "_hash")

    def __init__(self, n: int, terms: Mapping[Exponent, Coeff] | None = None):
        if n < 1:
            raise ShapeError(f"ambient variable count must be >= 1, got {n}")
        values = {}
        if terms:
            for exps, coeff in terms.items():
                key = _pack(tuple(exps), n)
                coeff = _coeff(coeff)
                if coeff:
                    values[key] = coeff
        clean, den = _over_one_den(values)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, *args):
        raise AttributeError("Polynomial instances are immutable")

    @classmethod
    def _trusted(cls, n: int, terms: Terms, den: int = 1) -> "Polynomial":
        # Takes ownership of a term dict and denominator already in stored
        # form (packed keys in n variables, nonzero int numerators, a
        # positive den coprime to them); no checks.
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_den", den)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def const(cls, n: int, value) -> "Polynomial":
        return cls(n, {(0,) * n: value})

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        """The polynomial x_i (1-based index)."""
        _check_index(n, i)
        return cls._trusted(n, {_unit(n, i): 1})

    @classmethod
    def monomial(cls, n: int, exps: Sequence[int], coeff=1) -> "Polynomial":
        return cls(n, {tuple(exps): coeff})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        n, den = self.n, self._den
        return {_unpack(key, n): Fraction(c, den) for key, c in self._terms.items()}

    def monomials(self) -> list[Exponent]:
        """The exponent tuples of the nonzero terms, in storage order."""
        n = self.n
        return [_unpack(key, n) for key in self._terms]

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return self._terms.keys() <= {0}

    def constant_value(self) -> Fraction:
        """The coefficient of the constant monomial (0 for absent)."""
        return Fraction(self._terms.get(0, 0), self._den)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        try:
            key = _pack(tuple(exps), self.n)
        except NilmapError:
            # No stored key can hold these exponents.
            return Fraction(0)
        return Fraction(self._terms.get(key, 0), self._den)

    def total_degree(self) -> int:
        """Max total degree over terms; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(self._terms) >> _B * self.n

    def degree_in(self, i: int) -> int:
        """Max exponent of x_i over terms; -1 for the zero polynomial."""
        _check_index(self.n, i)
        if not self._terms:
            return -1
        shift = _shift(self.n, i)
        return max((key >> shift) & _MASK for key in self._terms)

    def variables_used(self) -> set[int]:
        """1-based indices of variables that actually occur."""
        # A field of the bitwise or of all keys is nonzero iff that
        # variable occurs in some term.
        union = 0
        for key in self._terms:
            union |= key
        return {k for k, e in enumerate(_unpack(union, self.n), 1) if e}

    # -- ring operations ---------------------------------------------------

    def _require_same_ring(self, other: "Polynomial"):
        if self.n != other.n:
            raise DimensionMismatch(
                f"polynomials in {self.n} and {other.n} variables"
            )

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._require_same_ring(other)
        da, db = self._den, other._den
        if da == db:
            out = dict(self._terms)
            _add_into(out, other._terms)
            return Polynomial._trusted(self.n, *_reduced(out, da))
        den = lcm(da, db)
        out = _scaled(self._terms, den // da)
        _add_into(out, _scaled(other._terms, den // db))
        return Polynomial._trusted(self.n, *_reduced(out, den))

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.n, _negated(self._terms), self._den)

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._require_same_ring(other)
        terms = _product(self._terms, other._terms, self.n)
        return Polynomial._trusted(self.n, *_reduced(terms, self._den * other._den))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise NilmapError("negative polynomial powers are not defined")
        # By Gauss's lemma the content of N^k is the content of N to the
        # k, so N^k stays coprime to den^k.
        terms = _power(self._terms, k, self.n)
        return Polynomial._trusted(self.n, terms, self._den**k if terms else 1)

    def scale(self, c) -> "Polynomial":
        c = _coeff(c)
        if not c:
            return Polynomial.zero(self.n)
        a, b = (c, 1) if c.__class__ is int else (c.numerator, c.denominator)
        return Polynomial._trusted(
            self.n, *_reduced(_scaled(self._terms, a), self._den * b)
        )

    def _coerce(self, value) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction, float)):
            # const rejects floats with InexactValue.
            return Polynomial.const(self.n, value)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.n == other.n
            and self._den == other._den
            and self._terms == other._terms
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.n, self._den, tuple(sorted(self._terms.items()))))
            object.__setattr__(self, "_hash", h)
            return h

    # -- calculus and structural operations --------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to x_i."""
        _check_index(self.n, i)
        shift = _shift(self.n, i)
        step = _unit(self.n, i)
        out: Terms = {}
        for key, coeff in self._terms.items():
            e = (key >> shift) & _MASK
            if e:
                out[key - step] = coeff * e
        return Polynomial._trusted(self.n, *_reduced(out, self._den))

    def integrate(self, i: int) -> "Polynomial":
        """Antiderivative with respect to x_i, constant of integration 0."""
        _check_index(self.n, i)
        if not self._terms:
            return self
        degree = (max(self._terms) >> _B * self.n) + 1
        if degree >= _LIMIT:
            raise _overflow(degree)
        shift = _shift(self.n, i)
        step = _unit(self.n, i)
        # Each numerator is divided by e + 1: over the lcm of those
        # divisors, it is multiplied by the cofactor instead.
        mult = lcm(*(((key >> shift) & _MASK) + 1 for key in self._terms))
        out: Terms = {}
        for key, coeff in self._terms.items():
            out[key + step] = coeff * (mult // (((key >> shift) & _MASK) + 1))
        return Polynomial._trusted(self.n, *_reduced(out, self._den * mult))

    def substitute(self, bindings: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Simultaneous substitution x_i -> bindings[i].

        All bound polynomials must share one ambient dimension m, which
        becomes the dimension of the result.  Variables without a binding are
        carried over unchanged, which requires m to equal this polynomial's
        dimension.
        """
        if not bindings:
            return self
        dims = {p.n for p in bindings.values()}
        if len(dims) > 1:
            raise DimensionMismatch(
                f"bound polynomials live in different rings: {sorted(dims)}"
            )
        m = dims.pop()
        for i in bindings:
            _check_index(self.n, i)
        unbound = [i for i in range(1, self.n + 1) if i not in bindings]
        if unbound and m != self.n:
            raise DimensionMismatch(
                f"variables {unbound} are unbound but the target ring has "
                f"{m} != {self.n} variables"
            )
        images = [
            (bindings[i]._terms, bindings[i]._den) if i in bindings
            else ({_unit(m, i): 1}, 1)
            for i in range(1, self.n + 1)
        ]
        (result,) = _substitute([(self._terms, self._den)], self.n, images, m)
        return Polynomial._trusted(m, *result)

    def coefficients_in(self, i: int) -> list["Polynomial"]:
        """Ascending coefficient list [p_0, ..., p_d] with p = sum p_j x_i^j.

        Each p_j lives in the full ambient ring with exponent 0 in x_i, so
        the reconstruction identity holds exactly.  The zero polynomial
        yields the empty list.
        """
        _check_index(self.n, i)
        if not self._terms:
            return []
        shift = _shift(self.n, i)
        step = _unit(self.n, i)
        buckets: list[Terms] = [{} for _ in range(self.degree_in(i) + 1)]
        for key, coeff in self._terms.items():
            e = (key >> shift) & _MASK
            buckets[e][key - e * step] = coeff
        return [Polynomial._trusted(self.n, *_reduced(b, self._den)) for b in buckets]

    def truncate(self, max_total_degree: int) -> "Polynomial":
        """Drop all terms of total degree above the bound."""
        bound = (max_total_degree + 1) << _B * self.n
        out = {key: c for key, c in self._terms.items() if key < bound}
        return Polynomial._trusted(self.n, *_reduced(out, self._den))

    def restrict(self, variables: Sequence[int]) -> "Polynomial":
        """Re-express in the smaller ring spanned by the given variables.

        Raises if the polynomial involves any other variable, or if the
        variables are not distinct indices in 1..n.
        """
        variables = list(variables)
        _check_positions(self.n, variables)
        allowed = set(variables)
        extra = self.variables_used() - allowed
        if extra:
            raise ShapeError(
                f"polynomial involves variables {sorted(extra)} outside {variables}"
            )
        m, n = len(variables), self.n
        out: Terms = {}
        for key, coeff in self._terms.items():
            exps = _unpack(key, n)
            out[_pack(tuple(exps[i - 1] for i in variables), m)] = coeff
        return Polynomial._trusted(m, *_reduced(out, self._den))

    def lift(self, n: int, positions: Sequence[int]) -> "Polynomial":
        """Embed into an n-variable ring, sending variable k to positions[k-1].

        The positions must be distinct indices in 1..n.
        """
        positions = list(positions)
        if len(positions) != self.n:
            raise DimensionMismatch("need one target position per variable")
        _check_positions(n, positions)
        out: Terms = {}
        for key, coeff in self._terms.items():
            new = [0] * n
            for k, e in enumerate(_unpack(key, self.n)):
                new[positions[k] - 1] = e
            out[_pack(tuple(new), n)] = coeff
        return Polynomial._trusted(n, *_reduced(out, self._den))

    # -- leading terms and exact division ----------------------------------

    def leading_term(self) -> tuple[Exponent, Fraction]:
        """Graded-lex maximal term; error on the zero polynomial."""
        if not self._terms:
            raise NilmapError("the zero polynomial has no leading term")
        key = max(self._terms)
        return _unpack(key, self.n), Fraction(self._terms[key], self._den)

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Exact quotient self / divisor; raises if the division has a remainder.

        Divides the numerators N / D on one remainder dict: it loses its
        leading term (its largest key) at each step, by subtracting
        qc * x^qk * D in place, until it is empty.  The quotient's rational
        coefficients are brought over one denominator at the end and scaled
        by the ratio of the two denominators.
        """
        self._require_same_ring(divisor)
        if divisor.is_zero():
            raise NilmapError("division by the zero polynomial")
        n = self.n
        d = divisor._terms
        dk = max(d)
        dc = d[dk]
        d_exps = _unpack(dk, n)
        rem: dict = dict(self._terms)
        get = rem.get
        quotient: dict = {}
        while rem:
            rk = max(rem)
            if any(r < e for r, e in zip(_unpack(rk, n), d_exps)):
                raise NilmapError("polynomial division is not exact")
            # Every field of rk is at least that of dk, so rk - dk is the
            # key of the quotient monomial, with no borrow between fields.
            qk = rk - dk
            rc = rem[rk]
            if rc.__class__ is int and not rc % dc:
                qc = rc // dc
            else:
                qc = _coeff(Fraction(rc, dc))
            quotient[qk] = qc
            for key, c in d.items():
                key += qk
                old = get(key)
                value = -qc * c if old is None else old - qc * c
                if not value:
                    del rem[key]
                elif value.__class__ is not int and value.denominator == 1:
                    rem[key] = value.numerator
                else:
                    rem[key] = value
        terms, den = _over_one_den(quotient)
        if divisor._den != 1:
            terms = _scaled(terms, divisor._den)
        return Polynomial._trusted(n, *_reduced(terms, den * self._den))

    def __repr__(self):
        from .parsing import format_polynomial

        return f"Polynomial({self.n}, {format_polynomial(self)!r})"


def _check_index(n: int, i: int):
    if not 1 <= i <= n:
        raise ShapeError(f"variable index {i} out of range 1..{n}")


def _check_positions(n: int, positions: list[int]):
    """Raise ShapeError unless the positions are distinct indices in 1..n."""
    for i in positions:
        _check_index(n, i)
    if len(set(positions)) != len(positions):
        raise ShapeError(f"repeated variable index in {positions}")


# -- univariate helpers -----------------------------------------------------

def univariate_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic gcd of two univariate polynomials (Euclid over the rationals)."""
    if p.n != 1 or q.n != 1:
        raise ShapeError("univariate_gcd needs polynomials in one variable")
    a, b = p, q
    while not b.is_zero():
        a, b = b, _univariate_rem(a, b)
    if a.is_zero():
        return a
    _, lead = a.leading_term()
    return a.scale(Fraction(1) / lead)


def _univariate_rem(a: Polynomial, b: Polynomial) -> Polynomial:
    (de,), dc = b.leading_term()
    rem = a
    while not rem.is_zero():
        (re,), rc = rem.leading_term()
        if re < de:
            break
        rem = rem - Polynomial.monomial(1, (re - de,), rc / dc) * b
    return rem


class PolyMap:
    """An ordered tuple of n polynomials in n variables."""

    __slots__ = ("dimension", "components")

    def __init__(self, components: Sequence[Polynomial]):
        components = tuple(components)
        if not components:
            raise ShapeError("a polynomial map needs at least one component")
        n = len(components)
        for p in components:
            if p.n != n:
                raise DimensionMismatch(
                    f"component in {p.n} variables inside a {n}-dimensional map"
                )
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "components", components)

    def __setattr__(self, *args):
        raise AttributeError("PolyMap instances are immutable")

    @classmethod
    def identity(cls, n: int) -> "PolyMap":
        return cls([Polynomial.variable(n, i) for i in range(1, n + 1)])

    @classmethod
    def zero(cls, n: int) -> "PolyMap":
        return cls([Polynomial.zero(n)] * n)

    def __getitem__(self, i: int) -> Polynomial:
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return self.dimension

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def compose(self, other: "PolyMap") -> "PolyMap":
        """(self o other)_i = self_i(other_1, ..., other_n).

        All components go through one `_substitute` call, so each power of
        other's components, and each distinct monomial of self expanded over
        them, is computed once for the whole map rather than once per
        component.
        """
        if self.dimension != other.dimension:
            raise DimensionMismatch(
                f"composing maps of dimension {self.dimension} and {other.dimension}"
            )
        n = self.dimension
        images = [(p._terms, p._den) for p in other.components]
        polys = [(p._terms, p._den) for p in self.components]
        return PolyMap(
            [Polynomial._trusted(n, *r) for r in _substitute(polys, n, images, n)]
        )

    def __add__(self, other: "PolyMap") -> "PolyMap":
        if self.dimension != other.dimension:
            raise DimensionMismatch("adding maps of different dimensions")
        return PolyMap([p + q for p, q in zip(self, other)])

    def __sub__(self, other: "PolyMap") -> "PolyMap":
        if self.dimension != other.dimension:
            raise DimensionMismatch("subtracting maps of different dimensions")
        return PolyMap([p - q for p, q in zip(self, other)])

    def minus_identity(self) -> "PolyMap":
        """self - x without building x: each component N / den moves its
        x_i numerator by -den."""
        n = self.dimension
        out = []
        for i, p in enumerate(self.components, 1):
            terms = dict(p._terms)
            key = _unit(n, i)
            terms[key] = terms.get(key, 0) - p._den
            out.append(Polynomial._trusted(n, *_reduced(terms, p._den)))
        return PolyMap(out)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components)

    def is_identity(self) -> bool:
        return self == PolyMap.identity(self.dimension)

    def value_at_zero(self) -> list[Fraction]:
        return [p.constant_value() for p in self.components]

    def max_total_degree(self) -> int:
        return max(p.total_degree() for p in self.components)

    def truncate(self, max_total_degree: int) -> "PolyMap":
        return PolyMap([p.truncate(max_total_degree) for p in self.components])

    def __repr__(self):
        from .parsing import format_map

        return f"PolyMap({format_map(self)!r})"
