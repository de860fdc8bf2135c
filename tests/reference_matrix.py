"""References for matrix products, determinants, principal-minor sums and
reduced row echelon forms.

`nilmap.linalg` takes the sigma polynomials from Berkowitz's recursion on
the quotient by the common flag, powers Jacobians on integer term dicts
and takes the determinants of constant matrices from its fraction-free
Gauss-Jordan elimination.  The enumeration references here do none of
that: products are summed term by term through the validating public
`Polynomial` constructor, and determinants, of constant and of polynomial
matrices alike, are expanded by cofactors with the ring operations of the
entries.  `ref_rref` and `ref_kernel` run Gauss-Jordan on Fractions.

`sigma_polynomials` and `poly_det` run Berkowitz's recursion
(`linalg._sigma_terms`) on the whole Jacobian, with no flag: they are the
flag-free reference for the reports of `nilmap.analysis`, themselves
checked against the enumerated minors and sympy.
"""

import itertools
from fractions import Fraction
from math import lcm
from operator import add

from nilmap import PolyMatrix, Polynomial
from nilmap.errors import ShapeError
from nilmap.linalg import _sigma_terms
from nilmap.poly import _reduced, _scaled


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


def poly_det(m: PolyMatrix) -> Polynomial:
    """Exact determinant of a square polynomial matrix: sigma_n, the last
    coefficient of Berkowitz's characteristic polynomial."""
    if m.rows != m.cols:
        raise ShapeError("determinant of a non-square matrix")
    return sigma_polynomials(m)[-1]


def sigma_polynomials(m: PolyMatrix) -> list[Polynomial]:
    """All principal-minor sums [sigma_1, ..., sigma_n] of a square matrix.

    They are the coefficients of det(tI + M) = t^n + sigma_1 t^(n-1) + ...
    + sigma_n, from Berkowitz's division-free recursion applied to -M: for
    M = [[a, R], [C, A]] the coefficients of det(tI + M) are the Toeplitz
    product of (1, a, -RC, RAC, -RA^2C, ...) with those of det(tI + A).
    The loop grows A from the bottom-right corner one row and column at a
    time.  It runs on the integer grid cM (`_sigma_terms`), and
    only the n sums are built as polynomials, sigma_k(cM) over c^k.
    """
    if m.rows != m.cols:
        raise ShapeError("principal minors need a square matrix")
    n = m.n
    c = lcm(*(p._den for row in m.entries for p in row))
    grid = [
        [p._terms if p._den == c else _scaled(p._terms, c // p._den) for p in row]
        for row in m.entries
    ]
    return [
        Polynomial._trusted(n, *_reduced(s, c**k))
        for k, s in enumerate(_sigma_terms(grid, n), 1)
    ]


def ref_rref(grid):
    """Gauss-Jordan on Fraction entries, normalizing each pivot row:
    (reduced rows, pivot columns)."""
    work = [[Fraction(v) for v in row] for row in grid]
    rows, cols = len(work), len(work[0])
    pivots = []
    r = 0
    for col in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = Fraction(1) / work[r][col]
        work[r] = [v * inv for v in work[r]]
        for i in range(rows):
            if i != r and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    return work, pivots


def ref_kernel(grid):
    """Basis of the right null space from `ref_rref`: for each free column,
    1 there, 0 at the other free columns."""
    reduced, pivots = ref_rref(grid)
    cols = len(grid[0])
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis
