"""The three seeded workloads.

Each workload builds a fixed operation list from the seed.  The list is made
of rounds, and every round holds the same strata (dimension, degree, input
family) in the same order, so any prefix of the list has the mix of the
whole.  An operation has four parts:

* ``run()`` is the timed call into nilmap;
* ``failure(result)`` checks the result for the failures that count in
  ``fail_ratio`` (exception, wrong exit code, an oracle contradicting the
  other, a constructed property not holding);
* ``output(result)`` is the canonical text whose digest is the golden output;
* ``check(result)`` is the independent check run once per distinct
  operation, outside the timed region.

Library calls go through module attributes (``analysis.is_nilpotent``), so a
traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction

from nilmap import analysis, classify, cli, generators, linalg, parsing, tame
from nilmap.poly import Polynomial, PolyMap


# ---------------------------------------------------------------------------
# Input builders that exist only in the benchmark
# ---------------------------------------------------------------------------

def triangular_nilpotent(rng, n: int, degree: int) -> PolyMap:
    """A nilpotent map for any n, conjugated so its Jacobian is dense.

    H_i = a_i x_{i+1}^degree + b_i x_{i+2} (terms past x_n dropped) uses
    only later variables, so J(H) is strictly upper triangular and H is
    nilpotent.  Conjugating by a random unit lower-bidiagonal matrix T
    (whose inverse is a full lower-triangular matrix) spreads the variables
    over the components and keeps nilpotency, so no sigma_k vanishes by
    shape.  The fixed monomial pattern keeps the cost of one map close to
    that of another of the same size.  With a random T with entries in
    {-1, 0, 1}, one n = 6, degree 2 map took 5 to 10 s on a 2-vCPU machine,
    too long for a run.
    """
    comps = []
    for i in range(1, n + 1):
        terms = {}
        if i + 1 <= n:
            e = [0] * n
            e[i] = degree
            terms[tuple(e)] = Fraction(rng.choice((-1, 1)))
        if i + 2 <= n:
            e = [0] * n
            e[i + 1] = 1
            terms[tuple(e)] = Fraction(rng.choice((-1, 1)))
        comps.append(Polynomial(n, terms))
    rows = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for r in range(1, n):
        rows[r][r - 1] = Fraction(rng.choice((-1, 1)))
    T = linalg.LinearMap(linalg.RationalMatrix(rows))
    return analysis.conjugate(PolyMap(comps), T)


def with_nonzero_trace(H: PolyMap) -> PolyMap:
    """H with its x1-coefficient in H_1 adjusted so the trace has constant 1.

    sigma_1 = trace J(H) then has a nonzero constant term, so the map is not
    nilpotent by construction, without asking either oracle.
    """
    n = H.dimension
    trace_const = Fraction(0)
    for i in range(n):
        e = [0] * n
        e[i] = 1
        trace_const += H[i].coefficient(e)
    fix = Polynomial.monomial(n, [1] + [0] * (n - 1), 1 - trace_const)
    return PolyMap([H[0] + fix] + list(H.components[1:]))


def non_keller_map(rng, n: int) -> PolyMap:
    """F = x + H whose Jacobian determinant is not constant.

    H_1 = c x_1^2 + (random terms free of x_1), and H_j for j > 1 is free of
    x_1.  The first column of J(F) is then (1 + 2c x_1, 0, ..., 0), so
    det J(F) = (1 + 2c x_1) D with D free of x_1: never a nonzero constant.
    Such an F has no polynomial inverse and no tame factorization.
    """
    comps = []
    for i in range(1, n + 1):
        allowed = [j for j in range(2, n + 1) if j != i]
        terms = {}
        for _ in range(2):
            if not allowed:
                break
            e = [0] * n
            for _ in range(rng.randint(1, 2)):
                e[rng.choice(allowed) - 1] += 1
            terms[tuple(e)] = Fraction(rng.choice((-2, -1, 1, 2)))
        if i == 1:
            e = [0] * n
            e[0] = 2
            terms[tuple(e)] = Fraction(rng.choice((-1, 1)))
        comps.append(Polynomial(n, terms))
    return PolyMap.identity(n) + PolyMap(comps)


def _digestible(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# small-maps
# ---------------------------------------------------------------------------

class SmallMapOp:
    """Both nilpotency oracles, then dependence of H and of its conjugate."""

    def __init__(self, label, H, T, nilpotent_by_construction):
        self.label, self.H, self.T = label, H, T
        self.nilpotent_by_construction = nilpotent_by_construction

    def run(self):
        a = analysis.is_nilpotent(self.H)
        b = analysis.is_nilpotent_bruteforce(self.H)
        Hc = analysis.conjugate(self.H, self.T)
        c1 = analysis.linear_dependence(self.H.components)
        c2 = analysis.linear_dependence(Hc.components)
        return a, b, Hc, c1, c2

    def failure(self, result):
        a, b, _, c1, c2 = result
        if a != b:
            return f"oracles disagree: minors {a}, powering {b}"
        if self.nilpotent_by_construction and not a:
            return "a map nilpotent by construction was reported non-nilpotent"
        if (c1 is None) != (c2 is None):
            return "linear dependence changed under conjugation"
        return None

    def output(self, result):
        a, _, Hc, c1, c2 = result
        return _digestible(
            [a, parsing.format_map(Hc),
             c1 and c1.to_json(), c2 and c2.to_json()]
        )

    def check(self, result):
        _, _, Hc, c1, c2 = result
        if c1 is not None and not c1.verify(self.H.components):
            return "certificate of H does not annihilate H"
        if c2 is not None and not c2.verify(Hc.components):
            return "certificate of the conjugate does not annihilate it"
        return None


SMALL_RANDOM = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3))
SMALL_NILPOTENT = (2, 3, 4)


def build_small_maps(rng, rounds, workdir):
    ops = []
    for _ in range(rounds):
        for n, d in SMALL_RANDOM:
            H = generators.random_map(rng, n, d, terms=3)
            ops.append(SmallMapOp(f"random-n{n}-d{d}", H, generators.random_invertible(rng, n), False))
        for n in SMALL_NILPOTENT:
            H = generators.random_nilpotent_map(rng, n)
            ops.append(SmallMapOp(f"nilpotent-n{n}", H, generators.random_invertible(rng, n), True))
    return ops


# ---------------------------------------------------------------------------
# dense-scale
# ---------------------------------------------------------------------------

class DenseOp:
    """The full sigma report that `nilmap nilpotent` prints."""

    def __init__(self, label, H, nilpotent_by_construction):
        self.label, self.H = label, H
        self.nilpotent_by_construction = nilpotent_by_construction

    def run(self):
        return analysis.nilpotency_equations(self.H)

    def failure(self, report):
        if self.nilpotent_by_construction and not report.nilpotent:
            return "a map nilpotent by construction was reported non-nilpotent"
        return None

    def output(self, report):
        return _digestible(report.to_json())

    def check(self, report):
        if analysis.is_nilpotent_bruteforce(self.H) != report.nilpotent:
            return "J^n = 0 contradicts the sigma verdict"
        # Every sigma_k, not just the verdict: at a fixed point x0, sigma_k
        # must equal the k-th principal-minor sum of the numeric J(x0).
        n = self.H.dimension
        x0 = [Fraction(i % 3 + 1, 1 + i // 3) * (-1) ** i for i in range(n)]
        expected = principal_minor_sums([[_partial_at(h, j, x0) for j in range(n)]
                                         for h in self.H.components])
        got = [_value_at(s.terms, x0) for s in report.sigma]
        if got != expected:
            return "a sigma polynomial differs from the minor sums of J at a point"
        return None


def _value_at(terms, x0) -> Fraction:
    total = Fraction(0)
    for exps, c in terms.items():
        for x, e in zip(x0, exps):
            c *= x ** e
        total += c
    return total


def _partial_at(h: Polynomial, j: int, x0) -> Fraction:
    """d h / d x_{j+1} at x0, from the terms of h alone."""
    terms = {}
    for exps, c in h.terms.items():
        if exps[j]:
            lowered = list(exps)
            lowered[j] -= 1
            terms[tuple(lowered)] = c * exps[j]
    return _value_at(terms, x0)


def principal_minor_sums(M) -> list[Fraction]:
    """sigma_1..sigma_n of a rational matrix, by Faddeev-LeVerrier.

    det(tI - M) = t^n + c_1 t^(n-1) + ... + c_n, and sigma_k = (-1)^k c_k.
    """
    n = len(M)
    N = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]  # N_1 = I
    sigma = []
    for k in range(1, n + 1):
        MN = [[sum(M[r][i] * N[i][c] for i in range(n)) for c in range(n)] for r in range(n)]
        ck = -sum(MN[i][i] for i in range(n)) / k
        sigma.append((-1) ** k * ck)
        N = [[MN[r][c] + (ck if r == c else 0) for c in range(n)] for r in range(n)]
    return sigma


# (n, degree) strata.  n = 3, 4 take the cofactor determinant and n = 5, 6
# the Bareiss one.  Degree 3 at n = 6 is left out: one such map takes about
# 16 s.  The nilpotent n = 4, degree 2 stratum appears three times so that
# the median operation falls inside a stratum rather than between two.
DENSE_STRATA = (
    ("random", 3, 2), ("nilpotent", 3, 2), ("random", 3, 3), ("nilpotent", 3, 3),
    ("random", 4, 2), ("nilpotent", 4, 2), ("random", 4, 3), ("nilpotent", 4, 2),
    ("nilpotent", 4, 3), ("nilpotent", 4, 2), ("random", 5, 2), ("nilpotent", 5, 2),
    ("random", 5, 3), ("nilpotent", 5, 3), ("random", 6, 2), ("nilpotent", 6, 2),
)


def build_dense_scale(rng, rounds, workdir):
    ops = []
    for _ in range(rounds):
        for kind, n, d in DENSE_STRATA:
            if kind == "nilpotent":
                H = triangular_nilpotent(rng, n, d)
            else:
                H = generators.random_map(rng, n, d, terms=3)
            ops.append(DenseOp(f"{kind}-n{n}-d{d}", H, kind == "nilpotent"))
    return ops


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def _write_map(workdir, index, F) -> str:
    path = os.path.join(workdir, f"map{index:05d}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(parsing.format_map(F))
    return path


class PipelineOp:
    """One `nilmap` verb run in-process through `cli.run_command`."""

    def __init__(self, label, verb, F, path, expected_code, extra=()):
        self.label, self.verb, self.F = label, verb, F
        self.argv = [verb, "-f", path, "--json", *extra]
        self.expected_code = expected_code

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_command(self.argv)
        return code, out.getvalue(), err.getvalue()

    def failure(self, result):
        code, _, err = result
        if code != self.expected_code:
            return f"exit code {code}, expected {self.expected_code}: {err.strip()}"
        return None

    def output(self, result):
        return f"{result[0]}\n{result[1]}"

    def check(self, result):
        code, out, _ = result
        doc = json.loads(out)
        n = self.F.dimension
        if self.verb == "classify":
            if code == 1:
                # The inputs have trace with constant term 1.
                return None if doc["witness"]["k"] == 1 else "witness is not sigma_1"
            if doc["route"] == "canonical-pair":
                T = linalg.LinearMap(linalg.RationalMatrix.from_json(doc["T"]))
                p = doc["params"]
                params = classify.CanonicalFormA(
                    *(parsing.parse_polynomial(p[k], 1, aliases="z") for k in ("a1", "a2", "c1", "c2")),
                    parsing.parse_polynomial(p["h"], 2, aliases="tz"),
                )
                if analysis.conjugate(self.F, T) != classify.build_canonical_pair(params):
                    return "recognized T does not rebuild the canonical pair"
            return None
        if code == 1:
            # Inputs expected to fail are built with a non-constant Jacobian
            # determinant: no inverse and no tame factorization exist.
            return "expected a non-Keller map" if tame.keller_check(self.F) else None
        if self.verb == "decompose":
            factors = []
            for f in doc["factors"]:
                if f["kind"] == "linear":
                    factors.append(linalg.LinearMap(linalg.RationalMatrix.from_json(f["matrix"])))
                else:
                    factors.append(tame.ElementaryMap(n, f["i"], parsing.parse_polynomial(f["Q"], n)))
            if tame.compose_factorization(tame.TameFactorization(factors, n)) != self.F:
                return "factorization does not recompose to F"
            return None
        G = parsing.map_from_document(doc["inverse"])
        identity = PolyMap.identity(n)
        if self.F.compose(G) != identity or G.compose(self.F) != identity:
            return "inverse does not compose to the identity"
        return None


def build_pipeline(rng, rounds, workdir):
    ops = []

    def add(label, verb, F, code, extra=()):
        path = _write_map(workdir, len(ops), F)
        ops.append(PipelineOp(label, verb, F, path, code, extra))

    for r in range(rounds):
        for _ in range(2):
            H = classify.build_canonical_pair(generators.random_canonical_params(rng))
            add("classify-canonical", "classify",
                analysis.conjugate(H, generators.random_form_a_conjugator(rng)), 0)
        for n in (4, 5, 6):
            family = generators.nilpotent_generalized if (r + n) % 2 else generators.nilpotent_generalized_coupled
            add(f"classify-nilpotent-n{n}", "classify", family(rng, n).map, 0)
            add(f"classify-not-nilpotent-n{n}", "classify",
                with_nonzero_trace(generators.random_generalized(rng, n).map), 1)
        for n in (3, 4, 5):
            F = PolyMap.identity(n) + generators.decomposable_shift(rng, n)
            add(f"decompose-n{n}", "decompose", F, 0)
            add(f"invert-n{n}", "invert", F, 0)
        add("decompose-non-keller-n3", "decompose", non_keller_map(rng, 3), 1)
        add("invert-non-keller-n2", "invert", non_keller_map(rng, 2), 1, ("--degree-bound", "2"))
    return ops


# name -> (builder, rounds in the operation list).  A run that gets through
# the list starts it again.  small-maps' list is longer than a 28 s run gets
# through, so the samples beyond its tail percentile are that many distinct
# heavy maps rather than a few maps repeated; with 100 rounds the tail spread
# by 0.13 of its median from seed to seed, with 250 by 0.05.  dense-scale's
# list is short because checking one of its operations with J^n = 0 costs
# about as much as the operation; it has 10 rounds, not 5, because the cost
# of its random n = 5 and 6 maps varies widely from map to map, and with 5
# of each ops_per_s moved by up to 0.1 from seed to seed.
WORKLOADS = {
    "small-maps": (build_small_maps, 250),
    "dense-scale": (build_dense_scale, 10),
    "pipeline": (build_pipeline, 70),
}
