"""Enumeration references for matrix products, determinants and
principal-minor sums.

`nilmap.linalg` takes the sigma polynomials from Berkowitz's recursion,
powers Jacobians on integer term dicts and takes the determinants of
constant matrices by fraction-free elimination.  The references here do
none of that: products are summed term by term through the validating
public `Polynomial` constructor, and determinants, of constant and of
polynomial matrices alike, are expanded by cofactors with the ring
operations of the entries.
"""

import itertools
from operator import add

from nilmap import PolyMatrix, Polynomial


def ref_matmul(a, b):
    """Matrix product summed term by term over the public exponent-tuple
    terms; entries built only through the validating public Polynomial
    constructor."""
    a_terms = [[_exponent_terms(p) for p in row] for row in a.entries]
    b_terms = [[_exponent_terms(p) for p in row] for row in b.entries]
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            terms = {}
            for k in range(a.cols):
                for ea, ca in a_terms[i][k].items():
                    for eb, cb in b_terms[k][j].items():
                        e = tuple(map(add, ea, eb))
                        terms[e] = terms.get(e, 0) + ca * cb
            row.append(Polynomial(a.n, terms))
        out.append(row)
    return PolyMatrix(out)


def _exponent_terms(p):
    """The public terms of p, with each integral coefficient as an int."""
    return {e: c.numerator if c.denominator == 1 else c for e, c in p.terms.items()}


def ref_matrix_power(m, k):
    """m^k (k >= 1) by k - 1 products `ref_matmul`."""
    power = m
    for _ in range(k - 1):
        power = ref_matmul(power, m)
    return power


def ref_det(rows):
    """The determinant of a square matrix, given by its rows of ints,
    Fractions or Polynomials, by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, entry in enumerate(rows[0]):
        if entry != 0:
            term = entry * ref_det([row[:j] + row[j + 1:] for row in rows[1:]])
            total = total + term if j % 2 == 0 else total - term
    return total


def principal_minor_sum(m, k):
    """Sum of all k x k principal minors of a square PolyMatrix (explicit
    enumeration)."""
    assert m.rows == m.cols and 1 <= k <= m.rows
    acc = Polynomial.zero(m.n)
    for idx in itertools.combinations(range(m.rows), k):
        acc = acc + ref_det([[m[i, j] for j in idx] for i in idx])
    return acc


def enumerated_sigmas(m):
    """[sigma_1, ..., sigma_n] of a square PolyMatrix by enumeration."""
    return [principal_minor_sum(m, k) for k in range(1, m.rows + 1)]
