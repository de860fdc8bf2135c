"""Seeded suites that check the headline guarantees on random instances.

`SUITES` is the ordered tuple of (name, suite) pairs.  A suite draws every
instance from the one `random.Random` it is given, raises AssertionError
when a proved guarantee fails, and returns the counts of the verdicts it
saw (empty when it has no verdict mix).  `run(i, seed)` runs suite i on
Random(seed + i); `nilmap verify --seed S` and the acceptance tests (with
S = cli.DEFAULT_SEED) both seed that way.  The suites call the library
through module attributes, so a test can replace a function and watch a
suite fail.
"""

from __future__ import annotations

import random
from typing import Callable

from . import analysis, classify, generators, tame
from .poly import Polynomial, PolyMap


def _require(condition: bool, message: str) -> None:
    """A check that, unlike `assert`, also runs under `python -O`."""
    if not condition:
        raise AssertionError(message)


def _oracle_agreement(rng: random.Random) -> dict[str, int]:
    for _ in range(500):
        H = generators.random_map(rng, rng.choice([2, 3, 4]), 3, terms=4)
        _require(
            analysis.is_nilpotent(H) == analysis.is_nilpotent_bruteforce(H),
            "the oracles disagree",
        )
    for _ in range(200):
        H = generators.random_nilpotent_map(rng, rng.choice([2, 3, 4]))
        _require(analysis.is_nilpotent(H), "minor sums miss a nilpotent map")
        _require(analysis.is_nilpotent_bruteforce(H), "J^n misses a nilpotent map")
    return {}


def _three_variable_equations(rng: random.Random) -> dict[str, int]:
    zero = Polynomial.zero(3)
    for _ in range(100):
        u, v, h = (generators.random_polynomial(rng, 3, 3, terms=4) for _ in range(3))
        h = h.substitute({3: zero})  # third component free of z
        ux, uy, uz = (u.partial(i) for i in (1, 2, 3))
        vx, vy, vz = (v.partial(i) for i in (1, 2, 3))
        hx, hy = h.partial(1), h.partial(2)
        hand_coded = (
            ux + vy,
            ux * vy - vx * uy - hx * uz - hy * vz,
            vx * hy * uz - hx * vy * uz + hx * uy * vz - ux * hy * vz,
        )
        sigma = analysis.nilpotency_equations(PolyMap([u, v, h])).sigma
        _require(sigma == hand_coded, "sigma differs from the minor sums")
    return {}


def _divergence_coefficients(rng: random.Random) -> dict[str, int]:
    for _ in range(100):
        u, v = generators.divergence_pair(rng, max_z_degree=4)
        _require(analysis.check_divergence_coefficients(u, v), "the identities fail")
    return {}


def _dependence_certificates(rng: random.Random) -> dict[str, int]:
    for _ in range(100):
        H = classify.build_canonical_pair(generators.random_canonical_params(rng))
        Hc = analysis.conjugate(H, generators.random_form_a_conjugator(rng))
        u, v, _ = Hc.components
        _require(u.degree_in(3) >= 2 and v.degree_in(3) == 1, "deg_z out of range")
        cert = classify.certify_dependence(classify.FormAInstance(Hc))
        _require(cert.verify(Hc.components), "the certificate fails")
    return {}


def _canonical_round_trip(rng: random.Random) -> dict[str, int]:
    for _ in range(100):
        H = classify.build_canonical_pair(generators.random_canonical_params(rng))
        Hc = analysis.conjugate(H, generators.random_form_a_conjugator(rng))
        recognized = classify.recognize_canonical_pair(Hc)
        _require(recognized is not None, "a canonical pair was not recognized")
        T, found = recognized
        _require(
            analysis.conjugate(Hc, T) == classify.build_canonical_pair(found),
            "the recognized parameters do not rebuild the map",
        )
    return {}


def _generalized_equivalence(rng: random.Random) -> dict[str, int]:
    counts = {"nilpotent": 0, "not nilpotent": 0}
    for _ in range(200):
        n = rng.choice([4, 5])
        draw = rng.random()
        if draw < 0.35:
            inst = generators.nilpotent_generalized(rng, n)
        elif draw < 0.55:
            inst = generators.nilpotent_generalized_coupled(rng, n)
        else:
            inst = generators.random_generalized(rng, n)
        verdict = all(e.is_zero() for e in classify.nilpotency_system(inst))
        _require(verdict == analysis.is_nilpotent(inst.map), "the system disagrees")
        counts["nilpotent" if verdict else "not nilpotent"] += 1
    return counts


def _keller_equivalence(rng: random.Random) -> dict[str, int]:
    counts = {"nilpotent": 0, "not nilpotent": 0}
    for _ in range(200):
        core = (
            generators.nilpotent_reduced4d(rng)[0]
            if rng.random() < 0.4
            else generators.random_reduced4d(rng)
        )
        verdict = classify.keller_parameterized_check(core)
        _require(verdict == analysis.is_nilpotent(core.realize()), "check disagrees")
        counts["nilpotent" if verdict else "not nilpotent"] += 1
    return counts


def _split_dependent_core(rng: random.Random) -> dict[str, int]:
    counts = {"nilpotent": 0}
    for _ in range(100):
        core, lam = generators.dependent_reduced4d(rng)
        _, result = classify.split_dependent_4d(core, lam)
        _require(result.components[3].is_zero(), "the fourth component remains")
        if analysis.is_nilpotent(core.realize()):
            counts["nilpotent"] += 1
            _require(analysis.is_nilpotent(result), "the split lost nilpotency")
    return counts


def _tame_and_inverse(rng: random.Random) -> dict[str, int]:
    for _ in range(50):
        n = rng.choice([3, 4, 5])
        identity = PolyMap.identity(n)
        F = identity + generators.decomposable_shift(rng, n)
        factors = tame.classify_and_decompose(F)
        _require(tame.compose_factorization(factors) == F, "factors do not compose")
        # a linear map after F moves the iteration's start A^-1 x off x
        for M in (F, generators.random_invertible(rng, n).as_poly_map().compose(F)):
            G = tame.formal_inverse(M)
            inverts = G is not None and M.compose(G) == identity == G.compose(M)
            _require(inverts, "no two-sided inverse")
    return {}


def _conjugation_invariance(rng: random.Random) -> dict[str, int]:
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        if rng.random() < 0.5:
            H = generators.random_nilpotent_map(rng, n)
        else:
            H = generators.random_map(rng, n, 2, terms=3)
        Hc = analysis.conjugate(H, generators.random_invertible(rng, n))
        _require(
            analysis.is_nilpotent(H) == analysis.is_nilpotent(Hc),
            "nilpotency changed",
        )
        _require(
            (analysis.linear_dependence(H.components) is None)
            == (analysis.linear_dependence(Hc.components) is None),
            "dependence changed",
        )
    return {}


SUITES: tuple[tuple[str, Callable[[random.Random], dict[str, int]]], ...] = (
    ("nilpotency oracle agreement", _oracle_agreement),
    ("three variable equations", _three_variable_equations),
    ("divergence coefficients", _divergence_coefficients),
    ("dependence certificates", _dependence_certificates),
    ("canonical round trip", _canonical_round_trip),
    ("generalized equivalence", _generalized_equivalence),
    ("Keller equivalence", _keller_equivalence),
    ("split dependent core", _split_dependent_core),
    ("tame and inverse", _tame_and_inverse),
    ("conjugation invariance", _conjugation_invariance),
)


def run(index: int, seed: int) -> dict[str, int]:
    """Suite `index` on Random(seed + index); returns its verdict counts."""
    return SUITES[index][1](random.Random(seed + index))
