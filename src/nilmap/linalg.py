"""Exact linear algebra over the rationals and over the polynomial ring.

Rational matrices are dense grids of exact rationals, each entry stored as
an int when it is integral and as a Fraction otherwise; polynomial matrices
are dense grids of Polynomial sharing one ambient ring.  Everything is
immutable and exact.  Inverses, determinants and the reduced form behind
the common flag all come from one fraction-free Gauss-Jordan elimination
(`_rref_den`): each row's denominators are cleared, the elimination runs on
ints, and the result is divided by the last pivot once, at the end.  That
last pivot, signed by the parity of the row swaps, is the determinant of
the cleared rows when every column has a pivot.
Coefficient kernels, the linear relations among polynomials behind every
dependence certificate, build no matrix: `_kernel_vectors` eliminates one
polynomial at a time on the polynomials' own integer numerators, as in
fraction-free elimination (E. H. Bareiss, Math. Comp. 22, 1968), with
each stored column divided by its content, and yields a basis of the
kernel of the stacked monomial rows, one free column at a time.
Products are fraction-free too: each entry is an integer dot product of a
row and a column with their denominators cleared, divided once by the two
denominators.
`row_conjugator` completes one nonzero row to an invertible matrix with
unit rows; it is the linear change of coordinates behind every dependence
and mixing conjugation of `classify` and `tame`.  Symbolic rank comes from
fraction-free elimination with nonzero polynomial pivots.

The principal-minor sums sigma_1..sigma_n of a square grid of integer
term dicts all come from one characteristic polynomial, computed by
Berkowitz's division-free recursion (S. J. Berkowitz, "On computing the
determinant in small parallel time using a small number of processors",
Inf. Process. Lett. 18, 1984) in O(n^4) ring operations.  The loop
(`_sigma_terms`) runs on term dicts, with `poly._dot_terms` as the dot
product, and builds no Polynomial.  `analysis` runs it on the integer grid
cJ of a Jacobian, c the lcm of the entries' denominators, restricted to
the quotient by the common flag below.  `_grid_power` powers such a grid
for the J^n oracle of `analysis`.

`_common_flag` finds, on such a grid cJ = sum_m M_m x^m, the largest
subspace on which all the constant matrices M_m act by one strictly
triangular flag, and the block of cJ on the quotient by it.  It is exact
linear algebra on the M_m without building them: the rows a * M_m of
every monomial m come from one pass over the grid's terms in the rows
i with a[i] != 0, each step keeps only independent integer rows, and
`_rref_den` runs once, on the last space.  `analysis` takes the
characteristic polynomial of that block only.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple, Sequence

from .errors import DimensionMismatch, NilmapError, ParseError, ShapeError
from .parsing import DEFAULT_ALIASES, MAX_DIGITS, format_polynomial
from .poly import (
    _ONE,
    PolyMap,
    Polynomial,
    Terms,
    _coeff,
    _dot_terms,
    _exact,
    _int_combination,
    _linear,
    _negated,
    _over_one_den,
)


class RationalMatrix:
    """Immutable dense matrix with exact rational entries.

    Each entry is stored as an int when it is integral and as a Fraction
    otherwise (`poly._coeff`); indexing hands out Fractions.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Fraction]]):
        grid = tuple(tuple(_coeff(v) for v in row) for row in entries)
        if not grid or not grid[0]:
            raise ShapeError("matrix must have at least one row and column")
        cols = len(grid[0])
        if any(len(row) != cols for row in grid):
            raise ShapeError("ragged matrix rows")
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, *args):
        raise AttributeError("RationalMatrix instances are immutable")

    @classmethod
    def _trusted(
        cls, grid: tuple[tuple[int | Fraction, ...], ...]
    ) -> "RationalMatrix":
        # Takes ownership of a non-empty rectangular grid of tuples whose
        # entries are already in stored form; no checks.
        self = object.__new__(cls)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", len(grid[0]))
        object.__setattr__(self, "entries", grid)
        return self

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return Fraction(self.entries[i][j])

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # Fraction-free: the integer product of the rows of self and the
        # columns of other with their denominators cleared, each entry
        # divided by its two denominators once.
        rows, row_dens = zip(*map(_over_one_den, self.entries))
        columns, col_dens = zip(*map(_over_one_den, zip(*other.entries)))
        return RationalMatrix._trusted(
            tuple(
                tuple(
                    v if rd == cd == 1 else _quotient(v, rd * cd)
                    for v, cd in zip(products, col_dens)
                )
                for products, rd in zip(_int_matmul(rows, columns), row_dens)
            )
        )

    def det(self) -> Fraction:
        """Exact determinant: the rows with their denominators cleared go
        through `_rref_den`, whose last den is the determinant of the rows
        in the order it left them when every column has a pivot, and the
        signed den is divided by the product of those denominators."""
        if self.rows != self.cols:
            raise ShapeError("determinant of a non-square matrix")
        rows, dens = zip(*map(_over_one_den, self.entries))
        den, pivots, sign = _rref_den(list(rows))
        if len(pivots) < self.rows:
            return Fraction(0)
        return Fraction(sign * den, prod(dens))

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            v == (1 if i == j else 0)
            for i, row in enumerate(self.entries)
            for j, v in enumerate(row)
        )

    def inverse(self) -> "RationalMatrix":
        """Exact inverse: the right half of the reduced [A | I]; raises on
        singular matrices."""
        if self.rows != self.cols:
            raise ShapeError("only square matrices can be inverted")
        n = self.rows
        work = [
            _over_one_den(row + _identity_rows(n)[i])[0]
            for i, row in enumerate(self.entries)
        ]
        den, pivots, _ = _rref_den(work)
        if pivots != list(range(n)):
            raise NilmapError("matrix is singular")
        return RationalMatrix._trusted(
            tuple(_divided(row[n:], den) for row in work)
        )

    def to_json(self) -> list[list[str]]:
        return [[str(v) for v in row] for row in self.entries]

    @classmethod
    def from_json(cls, data) -> "RationalMatrix":
        """The matrix written by `to_json`: a list of rows whose entries are
        integers or strings of an optionally signed integer or fraction
        such as "-3/4", of at most `parsing.MAX_DIGITS` digits each.  Any
        other shape or entry is a ParseError (a float an InexactValue), so
        no entry costs more than reading its digits."""
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ParseError("malformed matrix: expected a list of rows")
        return cls([[_json_entry(v) for v in row] for row in data])

    def __repr__(self):
        return f"RationalMatrix({json.dumps(self.to_json())})"


# The string entries `from_json` accepts; Fraction() would also take
# decimals, exponents ("1e1000000"), underscores and surrounding spaces.
_ENTRY = re.compile(r"[-+]?([0-9]+)(?:/([0-9]+))?")


def _json_entry(value):
    if value.__class__ in (int, float):
        # `RationalMatrix` rejects floats with InexactValue.
        return value
    if isinstance(value, str):
        m = _ENTRY.fullmatch(value)
        if m and len(m[1]) <= MAX_DIGITS and len(m[2] or "1") <= MAX_DIGITS:
            den = int(m[2] or 1)
            if den:
                return Fraction(int(value.partition("/")[0]), den)
        if len(value) > 40:
            value = value[:40] + "..."
    raise ParseError(
        f"malformed matrix entry {value!r}: expected an integer or a string "
        f"such as '-3/4', of at most {MAX_DIGITS} digits each"
    )


def _rref_den(work: list[Sequence[int]]) -> tuple[int, list[int], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Returns (den, pivots, sign).  Afterwards row r < len(pivots) is den
    times row r of the reduced row echelon form and every other row is
    zero.  Each step swaps its pivot row P up to the next row, when it is
    not there already, replaces every other row by
    (P[col] * row - row[col] * P) // den, rows with row[col] = 0 included,
    and then makes P[col] the new den.  All entries stay integer minors of
    the input (Nakos, Turner, Williams, "Fraction-free algorithms for
    linear and polynomial equations", SIGSAM Bull. 31(3), 1997), so every
    // is exact, and den is the leading minor of the rows in their new
    order on the pivot columns.  sign is (-1)^s for s the number of swaps,
    so for a square input whose every column has a pivot, sign * den is
    its determinant.
    """
    rows, cols = len(work), len(work[0])
    den = sign = 1
    pivots: list[int] = []
    r = 0
    for col in range(cols):
        pivot = next((i for i in range(r, rows) if work[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            work[r], work[pivot] = work[pivot], work[r]
            sign = -sign
        prow = work[r]
        p = prow[col]
        for i, row in enumerate(work):
            if i != r:
                f = row[col]
                work[i] = [(p * a - f * b) // den for a, b in zip(row, prow)]
        den = p
        pivots.append(col)
        r += 1
        if r == rows:
            break
    return den, pivots, sign


def _int_matmul(rows: list[list[int]], columns: list) -> list[list[int]]:
    """The integer product of a matrix, given by its rows, and a matrix
    given by its columns."""
    return [[sum(map(mul, row, col)) for col in columns] for row in rows]


def _quotient(value: int, den: int) -> int | Fraction:
    """value / den in stored form."""
    return value // den if not value % den else Fraction(value, den)


def _divided(values: list[int], den: int) -> tuple[int | Fraction, ...]:
    """The values over den, each in stored form."""
    return tuple(_quotient(v, den) for v in values)


def coefficient_kernel(
    equations: Sequence[Sequence[Polynomial]],
) -> list[list[Fraction]]:
    """Basis of the rational vectors lam with sum_j lam[j] * eq[j] = 0 for
    every equation eq (all equations of one length).

    The basis is the one Gauss-Jordan elimination gives for the kernel of
    the coefficient matrix with one row per equation and monomial: for
    each free column j, 1 at j, 0 at the other free columns.  No such
    matrix is built: the vectors come from `_kernel_vectors`, which
    eliminates on the polynomials' term dicts.  When every polynomial is
    zero, the basis is the unit vectors.
    """
    return list(_kernel_vectors(equations))


def _kernel_vectors(equations: Sequence[Sequence[Polynomial]]):
    """Yield the vectors of `coefficient_kernel`, one free column at a time.

    Column j is one integer term dict keyed by (equation, monomial), or by
    the monomial alone for a single equation: the numerators of its
    polynomials over their common denominator den, so column j is den times
    the rational column, with no Fraction read, and C[j] starts at den.
    Each column is reduced, in order, against an echelon list of the
    earlier independent columns, each with its pivot key.  The reduction
    keeps the integer combination C with R = sum_i C[i] * column_i; a step
    against echelon element b replaces R by a*R - f*R_b and C by a*C - f*C_b,
    where a is R_b's pivot entry and f is R's entry at that key, both
    divided by their gcd.  A column that reduces to zero yields C / C[j]:
    1 at j, minus the unique expression of column j in the earlier
    independent columns, which is the basis vector of the free column j of
    the stacked matrix.  Any other column joins the echelon list,
    divided by the content of R and C together, with its first key as its
    pivot.  A caller that stops after the first vector never reads the
    later columns.
    """
    size = len(equations[0])
    if len(equations) == 1:
        columns = ((p._terms, p._den) for p in equations[0])
    else:
        columns = (_stacked([eq[j] for eq in equations]) for j in range(size))
    echelon: list[tuple[object, dict, list[int]]] = []
    for j, (reduced, den) in enumerate(columns):
        combination = [0] * size
        combination[j] = den
        for key, rb, cb in echelon:
            f = reduced.get(key)
            if f:
                a = rb[key]
                g = gcd(a, f)
                a, f = a // g, f // g
                reduced = _eliminate(reduced, a, rb, f)
                combination = [a * c - f * d for c, d in zip(combination, cb)]
        if not reduced:
            lead = combination[j]
            yield [Fraction(c, lead) for c in combination]
            continue
        g = gcd(*reduced.values(), *combination)
        if g != 1:
            reduced = {k: v // g for k, v in reduced.items()}
            combination = [c // g for c in combination]
        echelon.append((next(iter(reduced)), reduced, combination))


def _stacked(polys: Sequence[Polynomial]) -> tuple[dict, int]:
    """(ints, den): the numerators of the polynomials over their common
    denominator den, keyed by (index, monomial)."""
    den = lcm(*(p._den for p in polys))
    return {
        (e, key): c * (den // p._den)
        for e, p in enumerate(polys)
        for key, c in p._terms.items()
    }, den


def _eliminate(r: dict, a: int, rb: dict, f: int) -> dict:
    """a * r - f * rb for integer term dicts, as a new dict without zero
    entries (f and every entry of rb nonzero)."""
    out = dict(r) if a == 1 else {k: a * v for k, v in r.items()}
    get = out.get
    for k, v in rb.items():
        w = get(k, 0) - f * v
        if w:
            out[k] = w
        else:
            del out[k]
    return out


class LinearMap:
    """Invertible rational matrix acting as x -> Mx, with cached exact inverse."""

    __slots__ = ("matrix", "inverse")

    def __init__(self, matrix: RationalMatrix, inverse: RationalMatrix | None = None):
        if matrix.rows != matrix.cols:
            raise ShapeError("linear maps must be square")
        if inverse is None:
            inverse = matrix.inverse()
        if not (matrix * inverse).is_identity():
            raise ShapeError("provided inverse is not an exact inverse")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "inverse", inverse)

    def __setattr__(self, *args):
        raise AttributeError("LinearMap instances are immutable")

    @property
    def dimension(self) -> int:
        return self.matrix.rows

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        """The identity on n coordinates, built and checked once per n and
        shared afterwards, since a LinearMap is immutable."""
        return _identity_map(n)

    def inverted(self) -> "LinearMap":
        return LinearMap(self.inverse, self.matrix)

    def __mul__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.matrix * other.matrix, other.inverse * self.inverse)

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def as_poly_map(self) -> PolyMap:
        """The linear polynomial map x -> Mx."""
        return PolyMap(
            [_linear(self.dimension, row) for row in self.matrix.entries]
        )

    def is_identity(self) -> bool:
        return self.matrix.is_identity()

    def __repr__(self):
        return f"LinearMap({json.dumps(self.matrix.to_json())})"


@functools.cache
def _identity_map(n: int) -> LinearMap:
    ident = RationalMatrix.identity(n)
    return LinearMap(ident, ident)


def elementary_row_add(n: int, i: int, a, j: int) -> LinearMap:
    """The elementary matrix adding a times row i to row j (1-based, i != j)."""
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise ShapeError(f"need distinct indices in 1..{n}, got {i}, {j}")
    a = _exact(a)
    fwd = [[int(r == c) for c in range(n)] for r in range(n)]
    back = [row[:] for row in fwd]
    fwd[j - 1][i - 1] = a
    back[j - 1][i - 1] = -a
    return LinearMap(RationalMatrix(fwd), RationalMatrix(back))


def row_conjugator(row: Sequence[Fraction], position: int) -> LinearMap:
    """The conjugation T whose inverse m carries `row` in slot `position`.

    m has `row` as row `position` (1-based) and, in increasing order in the
    other slots, the unit rows e_j for every j except the pivot, the last
    index with row[pivot] != 0; so m is invertible, and slot `position` of
    `conjugate(H, T)` is sum_j row[j] * (H o T)_j.  Returns
    LinearMap(m^-1, m).
    """
    n = len(row)
    if not 1 <= position <= n:
        raise ShapeError(f"position {position} out of range 1..{n}")
    pivot = max((j for j in range(n) if row[j]), default=None)
    if pivot is None:
        raise ShapeError("the zero row does not complete to a basis")
    rows = [[int(i == j) for i in range(n)] for j in range(n) if j != pivot]
    rows.insert(position - 1, row)
    m = RationalMatrix(rows)
    return LinearMap(m.inverse(), m)


class PolyMatrix:
    """Immutable dense matrix of polynomials sharing one ambient ring."""

    __slots__ = ("rows", "cols", "n", "entries")

    def __init__(self, entries: Sequence[Sequence[Polynomial]]):
        grid = tuple(tuple(row) for row in entries)
        if not grid or not grid[0]:
            raise ShapeError("matrix must have at least one row and column")
        cols = len(grid[0])
        if any(len(row) != cols for row in grid):
            raise ShapeError("ragged matrix rows")
        n = grid[0][0].n
        for row in grid:
            for p in row:
                if p.n != n:
                    raise DimensionMismatch(
                        "polynomial matrix entries live in different rings"
                    )
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, *args):
        raise AttributeError("PolyMatrix instances are immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def to_json(self, aliases: str | None = DEFAULT_ALIASES) -> list[list[str]]:
        return [[format_polynomial(p, aliases) for p in row] for row in self.entries]

    def __repr__(self):
        return f"PolyMatrix({json.dumps(self.to_json())})"


def _sigma_terms(grid: list[list[Terms]], n: int) -> list[Terms]:
    """The integer term dicts of sigma_1..sigma_size of a square grid M of
    integer term dicts in n variables, without zero coefficients.

    They are the coefficients of det(tI + M) = t^size + sigma_1 t^(size-1)
    + ... + sigma_size after the leading 1, from Berkowitz's division-free
    recursion applied to -M: for M = [[a, R], [C, A]] the coefficients of
    det(tI + M) are the Toeplitz product of (1, a, -RC, RAC, -RA^2C, ...)
    with those of det(tI + A).  The loop grows A from the bottom-right
    corner one row and column at a time.
    """
    size = len(grid)
    # Coefficients of det(tI + A), highest power first, for the trailing
    # block A = M[k+1:, k+1:].
    q = [_ONE]
    for k in range(size - 1, -1, -1):
        row = grid[k][k + 1:]
        block = [r[k + 1:] for r in grid[k + 1:]]
        col = [r[k] for r in grid[k + 1:]]
        d = size - k
        t = [_ONE, grid[k][k]]
        for l in range(2, d + 1):
            v = _dot_terms(n, row, col)
            t.append(v if l % 2 else _negated(v))
            if l < d:
                col = [_dot_terms(n, r, col) for r in block]
        # Coefficient i of the product is sum_j t[i - j] * q[j]; the
        # leading one is t[0] * q[0] = 1.
        q = [_ONE] + [_dot_terms(n, t[i::-1], q) for i in range(1, d + 1)]
    return q[1:]


def _grid_power(grid: list[list[Terms]], k: int, n: int) -> list[list[Terms]]:
    """The k-th power (k >= 1) of a square grid of integer term dicts in
    n variables, by k - 1 products with the grid; no entry holds a zero
    coefficient."""
    columns = list(zip(*grid))
    power = grid
    for _ in range(k - 1):
        power = [
            [_dot_terms(n, row, col) for col in columns] for row in power
        ]
    return power


class Flag(NamedTuple):
    """The largest common flag space W of a square grid cJ = sum_m M_m x^m
    of integer term dicts, as W = ker(rows).

    `rows` is den times the reduced row echelon form of a basis of the
    annihilator of W, with `pivots` its pivot columns and den > 0.  The M_m
    map W into itself and act on it by one strictly triangular flag, so in
    a basis that starts with a basis of W, J is block upper triangular with
    a nilpotent first block, and its last block is the quotient
    Q = (rows / den) * J * C, for C the unit columns at the pivots.
    `quotient` is the grid of (den * c) * Q = rows * cJ * C: entry (r, s)
    is the term dict of sum_m (rows[r] * M_m)[pivots[s]] x^m.
    """

    rows: Sequence[Sequence[int]]
    den: int
    pivots: Sequence[int]
    quotient: list[list[Terms]]


def _common_flag(grid: list[list[Terms]]) -> Flag:
    """The largest common flag space of the coefficient matrices M_m of a
    square grid cJ = sum_m M_m x^m of integer term dicts.

    The greedy chain W_0 = 0, W_k = {v : M_m v in W_(k-1) for all m}
    (Radjavi and Rosenthal, *Simultaneous Triangularization*, 2000) holds
    every flag that is strictly triangular for all M_m; it grows until it
    stalls at W, which is all of K^size exactly when such a full flag
    exists.  With W_(k-1) = ker A, W_k is the kernel of the rows a * M_m
    for a a row of A and m a monomial (`_flag_step`).  The chain starts at
    A = I and stops at the first step that does not lower the rank.  Any
    basis of the annihilator of W_(k-1) serves as A, so a step goes on from
    the independent rows the previous one kept, and only the rows of the
    last step before the stall are put in reduced row echelon form, once.
    The rows a * M_m are produced one row a at a time (`_row_products`),
    as `_flag_step` asks for them: a step that stalls needs only as many
    as the rank.  When the M_m have no common kernel vector, W_1 = 0 and
    the first step stalls as soon as it has seen `size` independent rows.
    """
    size = len(grid)
    terms = [
        [(key, j, c) for j, entry in enumerate(row) for key, c in entry.items()]
        for row in grid
    ]
    rows = _flag_step(_row_products(_identity_rows(size), terms, size), size)
    if rows is None:
        return Flag(_identity_rows(size), 1, range(size), grid)
    while rows:
        step = _flag_step(_row_products(rows, terms, size), len(rows))
        if step is None:
            break
        rows = step
    else:
        return Flag([], 1, [], [])
    # den times the reduced form, whose den is the last pivot and may be
    # negative: rows and den are divided by their gcd, taken with den's
    # sign, so den > 0 is the lcm of the reduced form's denominators.
    den, pivots, _ = _rref_den(rows)
    g = gcd(den, *itertools.chain.from_iterable(rows))
    if den < 0:
        g = -g
    if g != 1:
        rows = [[v // g for v in row] for row in rows]
        den //= g
    grid_columns = list(zip(*grid))
    quotient = [[_int_combination(a, grid_columns[p]) for p in pivots] for a in rows]
    return Flag(rows, den, pivots, quotient)


def _row_products(rows, terms: list[list[tuple[int, int, int]]], size: int):
    """Yield the nonzero rows a * M_m for each row a in turn, where
    terms[i] holds (key, j, c) for the terms c x^key of entry (i, j) of
    cJ: one pass over the terms of the grid rows i with a[i] != 0 gives
    a * M_m for every monomial m at once."""
    for a in rows:
        out: dict[int, list[int]] = {}
        for f, row in zip(a, terms):
            if f:
                for key, j, c in row:
                    v = out.get(key)
                    if v is None:
                        v = out[key] = [0] * size
                    v[j] += f * c
        yield from (v for v in out.values() if any(v))


def _flag_step(vectors, rank: int) -> list[list[int]] | None:
    """Independent rows spanning the next space of `_common_flag`'s chain,
    from the rows a * M_m of the current one, whose row space has the
    given rank; or None when the chain stalls there.

    The rows a * M_m lie in the current row space, since the chain only
    grows, so the chain stalls as soon as `rank` of them are independent;
    the scan stops there.  Each row is reduced, in order, against the
    independent rows kept so far: against a kept row b with first nonzero
    column c, a row v becomes (b[c] * v - v[c] * b) / g for g the gcd of
    the two factors.  A row that does not vanish is kept, divided by its
    content.  The kept rows are independent, as each is zero at the first
    nonzero columns of the earlier ones.
    """
    kept: list[tuple[int, list[int]]] = []
    for v in vectors:
        for c, b in kept:
            f = v[c]
            if f:
                p = b[c]
                g = gcd(p, f)
                p, f = p // g, f // g
                v = [p * x - f * y for x, y in zip(v, b)]
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            continue
        g = gcd(*v)
        if g != 1:
            v = [x // g for x in v]
        kept.append((lead, v))
        if len(kept) == rank:
            return None
    return [v for _, v in kept]


@functools.cache
def _identity_rows(size: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(size)) for i in range(size))


def poly_matrix_rank(m: PolyMatrix) -> int:
    """Rank over the fraction field, by fraction-free (Bareiss) elimination.

    The pivot is the lowest-total-degree nonzero entry of the current
    column among the rows not yet used; a column without one is skipped.
    Every row below the pivot row, rows with a zero in the pivot column
    included, is replaced by (pivot * row - factor * pivot_row) / den, and
    the pivot becomes the new den, as in `_rref_den`.  Every entry stays a
    minor of the input, so each division is exact and entry degrees grow
    linearly, not exponentially, with the step.
    """
    work = [list(row) for row in m.entries]
    den = Polynomial.const(m.n, 1)
    row = 0
    for col in range(m.cols):
        candidates = [
            (work[r][col].total_degree(), r)
            for r in range(row, m.rows)
            if not work[r][col].is_zero()
        ]
        if not candidates:
            continue
        _, pr = min(candidates)
        work[row], work[pr] = work[pr], work[row]
        pivot = work[row][col]
        for r in range(row + 1, m.rows):
            factor = work[r][col]
            work[r] = [
                (pivot * a - factor * b).exact_div(den)
                for a, b in zip(work[r], work[row])
            ]
        den = pivot
        row += 1
        if row == m.rows:
            break
    return row
