"""The dense common-flag chain, kept as a differential reference.

`nilmap.linalg._common_flag` builds the rows a * M_m from the grid's
nonzero terms and puts only the last space of its chain in reduced row
echelon form.  This chain builds one dense n x n matrix per monomial, takes
every a * M_m as n dot products against its columns, and puts every space
of the chain in reduced row echelon form before the next step.  Both must
return the same `Flag`, since den times the reduced row echelon form of
the annihilator of W does not depend on the basis it was computed from.
It shares with the code under test only the elimination `_rref_den`.
"""

import itertools
from math import gcd
from operator import mul

from nilmap.linalg import Flag, _rref_den


def reference_common_flag(grid):
    """The `Flag` of the square grid cJ = sum_m M_m x^m of integer term
    dicts: the greedy chain W_k = {v : M_m v in W_(k-1) for all m} from
    W_0 = 0 until it stalls, with every step in reduced form."""
    size = len(grid)
    identity_rows = tuple(
        tuple(int(i == j) for j in range(size)) for i in range(size)
    )
    step = _reference_step(
        (v for row in grid for v in _coefficient_rows(row, size).values()), size
    )
    if step is None:
        return Flag(identity_rows, 1, range(size), grid)
    columns = {}
    for i, row in enumerate(grid):
        for j, terms in enumerate(row):
            for key, c in terms.items():
                m = columns.get(key)
                if m is None:
                    m = columns[key] = [[0] * size for _ in range(size)]
                m[j][i] = c
    while True:
        rows, den, pivots = step
        if not rows:
            return Flag(rows, den, pivots, [])
        products = (
            v
            for a in rows
            for cols in columns.values()
            for v in ([sum(map(mul, a, col)) for col in cols],)
            if any(v)
        )
        step = _reference_step(products, len(rows))
        if step is None:
            break
    grid_columns = list(zip(*grid))
    quotient = [[_combination(a, grid_columns[p]) for p in pivots] for a in rows]
    return Flag(rows, den, pivots, quotient)


def _coefficient_rows(row, size):
    out = {}
    for j, terms in enumerate(row):
        for key, c in terms.items():
            v = out.get(key)
            if v is None:
                v = out[key] = [0] * size
            v[j] = c
    return out


def _combination(coeffs, dicts):
    out = {}
    for a, terms in zip(coeffs, dicts):
        for key, c in terms.items():
            out[key] = out.get(key, 0) + a * c
    return {key: c for key, c in out.items() if c}


def _reference_step(vectors, rank):
    """(rows, den, pivots) of the next space, in reduced form, or None
    when `rank` of the vectors are independent and the chain stalls."""
    kept = []
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
    if not kept:
        return [], 1, []
    rows = [v for _, v in kept]
    den, pivots, _ = _rref_den(rows)
    g = gcd(den, *itertools.chain.from_iterable(rows))
    if den < 0:
        g = -g
    if g != 1:
        rows = [[v // g for v in row] for row in rows]
        den //= g
    return rows, den, pivots
