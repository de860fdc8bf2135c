"""Helpers for tests that read a Polynomial's stored term dict.

The stored key of a monomial is one int of n + 1 fields of B = 16 bits:
the total degree in the top field, then the exponents of x1 (highest)
down to xn.  The decoding here is written independently of `nilmap.poly`
and asserts the invariant of every key it reads.
"""

from fractions import Fraction

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
    """The stored term dict with tuple keys, after asserting that every key
    is a valid packed key and every coefficient a nonzero int or a Fraction
    whose denominator is not 1 (never a float or a bool)."""
    out = {}
    for key, coeff in p._terms.items():
        exps = decode_key(key, p.n)
        assert type(coeff) in (int, Fraction) and coeff != 0
        if type(coeff) is Fraction:
            assert coeff.denominator != 1
        out[exps] = coeff
    return out


def assert_clean(p):
    """Every stored term holds the invariant the trusted constructor assumes:
    a packed int key whose fields are below 2^16 and whose top field is the
    sum of the others, and a nonzero int or a Fraction whose denominator is
    not 1 (never a float or a bool).  The public accessors still hand out
    exponent tuples and Fractions."""
    stored = stored_terms(p)
    assert p.terms == {e: Fraction(c) for e, c in stored.items()}
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
