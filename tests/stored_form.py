"""Helpers for tests that read a Polynomial's stored term dict.

A Polynomial is stored as integer numerators over one denominator: a term
dict from keys to nonzero ints, and `_den`, a positive int coprime to them.
The stored key of a monomial is one int of n + 1 fields of B = 16 bits:
the total degree in the top field, then the exponents of x1 (highest)
down to xn.  The decoding here is written independently of `nilmap.poly`
and asserts the invariant of every key and numerator it reads.
"""

from fractions import Fraction
from math import gcd

B = 16
MASK = (1 << B) - 1


def decode_key(key, n):
    """The exponent tuple of a stored key in n variables."""
    assert type(key) is int and key >= 0
    assert key >> (B * (n + 1)) == 0, "top field out of range"
    fields = [(key >> (B * k)) & MASK for k in range(n, -1, -1)]
    degree, exps = fields[0], tuple(fields[1:])
    assert degree == sum(exps), "top field is not the total degree"
    return exps


def encode_key(exps):
    """The stored key of an exponent tuple (test-side reference)."""
    key = sum(exps)
    for e in exps:
        assert 0 <= e <= MASK
        key = (key << B) | e
    return key


def stored_terms(p):
    """The stored polynomial with tuple keys and Fraction values, after
    asserting the stored form: every key a valid packed key, every
    numerator a nonzero int (never a float or a bool), and the denominator
    a positive int coprime to all of them, so 1 for the zero polynomial."""
    den = p._den
    assert type(den) is int and den > 0
    out = {}
    for key, num in p._terms.items():
        exps = decode_key(key, p.n)
        assert type(num) is int and num != 0
        out[exps] = Fraction(num, den)
    assert gcd(den, *p._terms.values()) == 1
    return out


def assert_clean(p):
    """Every stored term holds the invariant the trusted constructor assumes:
    a packed int key whose fields are below 2^16 and whose top field is the
    sum of the others, a nonzero int numerator, and one positive int
    denominator coprime to the numerators.  The public accessors still hand
    out exponent tuples and Fractions."""
    stored = stored_terms(p)
    assert p.terms == stored
    for exps, coeff in p.terms.items():
        assert type(coeff) is Fraction
        assert type(p.coefficient(exps)) is Fraction
    assert type(p.constant_value()) is Fraction
    if not p.is_zero():
        assert type(p.leading_term()[1]) is Fraction


def ref_mul_into(out, a, b):
    """Add the product of two tuple-key term dicts into out; the tuple-key
    product loop kept as a differential reference for the packed one."""
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            out[exps] = out.get(exps, 0) + ca * cb


# Tuple-key, Fraction-valued references for every Polynomial operation.
# Each takes and returns plain dicts {exponent tuple: Fraction} without
# zero values, and shares no code with `nilmap.poly`.

def ref_clean(terms):
    return {e: Fraction(c) for e, c in terms.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    ref_mul_into(out, a, b)
    return ref_clean(out)


def ref_pow(a, k, n):
    out = {(0,) * n: Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_scale(a, c):
    return ref_clean({e: c * v for e, v in a.items()})


def ref_partial(a, i):
    out = {}
    for e, c in a.items():
        if e[i - 1]:
            lowered = list(e)
            lowered[i - 1] -= 1
            out[tuple(lowered)] = c * e[i - 1]
    return ref_clean(out)


def ref_integrate(a, i):
    out = {}
    for e, c in a.items():
        raised = list(e)
        raised[i - 1] += 1
        out[tuple(raised)] = c / raised[i - 1]
    return ref_clean(out)


def ref_substitute(a, images, m):
    out = {}
    for e, c in a.items():
        term = {(0,) * m: c}
        for image, k in zip(images, e):
            for _ in range(k):
                term = ref_mul(term, image)
        out = ref_add(out, term)
    return out


def ref_truncate(a, d):
    return {e: c for e, c in a.items() if sum(e) <= d}


def ref_restrict(a, variables):
    return {tuple(e[i - 1] for i in variables): c for e, c in a.items()}


def ref_lift(a, n, positions):
    out = {}
    for e, c in a.items():
        new = [0] * n
        for k, x in enumerate(e):
            new[positions[k] - 1] = x
        out[tuple(new)] = c
    return out


def ref_homogeneous_parts(a, subset, n):
    if not a:
        return [{}]
    parts = {}
    for e, c in a.items():
        parts.setdefault(sum(e[i - 1] for i in subset), {})[e] = c
    return [parts.get(d, {}) for d in range(max(parts) + 1)]


def ref_coefficients_in(a, i):
    if not a:
        return []
    parts = [{} for _ in range(max(e[i - 1] for e in a) + 1)]
    for e, c in a.items():
        lowered = list(e)
        lowered[i - 1] = 0
        parts[e[i - 1]][tuple(lowered)] = c
    return parts


def ref_lead(a):
    """The graded-lex leading exponent of a nonzero dict."""
    return max(a, key=lambda e: (sum(e), e))


def ref_exact_div(a, b):
    """The quotient a / b, or None when the division leaves a remainder."""
    rem, quotient = dict(a), {}
    lead = ref_lead(b)
    while rem:
        top = ref_lead(rem)
        q = tuple(x - y for x, y in zip(top, lead))
        if min(q) < 0:
            return None
        quotient[q] = rem[top] / b[lead]
        rem = ref_add(rem, ref_mul({q: quotient[q]}, b), -1)
    return quotient


def ref_univariate_gcd(a, b):
    """The monic gcd of two univariate dicts, by Euclid's algorithm."""
    while b:
        rem = dict(a)
        while rem and ref_lead(rem)[0] >= ref_lead(b)[0]:
            top, lead = ref_lead(rem), ref_lead(b)
            q = {(top[0] - lead[0],): rem[top] / b[lead]}
            rem = ref_add(rem, ref_mul(q, b), -1)
        a, b = b, rem
    if not a:
        return a
    return ref_scale(a, 1 / a[ref_lead(a)])
