"""The common flag behind the nilpotency reports.

`nilpotency_equations` and `is_nilpotent` take the characteristic
polynomial of the quotient of J(H) by its largest common flag space W
(`linalg._common_flag`), with sigma_k = 0 for k > n - dim W, at every size
n; it is the only characteristic polynomial the package takes.  Every
sigma must equal full Berkowitz on J(H) (`sigma_polynomials` in
`reference_matrix.py`), which stays the independent reference, as do the
J^n oracle and the enumerated minors.
The flag itself must equal the one of the dense chain in
`reference_flag.py`.
"""

import random

import pytest

from nilmap import (
    PolyMap,
    Polynomial,
    cli,
    conjugate,
    is_nilpotent,
    is_nilpotent_bruteforce,
    jacobian,
    nilpotency_equations,
    parse_map,
)
from nilmap import analysis, generators, linalg
from nilmap.classify import build_canonical_pair
from nilmap.linalg import _common_flag
from nilmap.parsing import format_map, format_polynomial
from reference_flag import reference_common_flag
from reference_matrix import (
    poly_det,
    principal_minor_sum,
    ref_rref,
    sigma_polynomials,
)


def perturbed(H):
    """H with x1*x2 added to H_1: no longer nilpotent, and the chain of the
    generalized families stalls part-way."""
    n = H.dimension
    x1, x2 = Polynomial.variable(n, 1), Polynomial.variable(n, 2)
    return PolyMap([H[0] + x1 * x2, *list(H)[1:]])


def coupled(n, seed=1, conjugator_seed=2, perturb=False):
    """The paper's second family in general position, or its perturbed
    member, conjugated after the perturbation."""
    H = generators.nilpotent_generalized_coupled(random.Random(seed), n).map
    if perturb:
        H = perturbed(H)
    return conjugate(H, generators.random_invertible(random.Random(conjugator_seed), n))


def flag_of(H):
    return _common_flag(analysis._jacobian_terms(H)[0])


def assert_matches_berkowitz(H):
    report = nilpotency_equations(H)
    assert report.sigma == tuple(sigma_polynomials(jacobian(H)))
    assert is_nilpotent(H) == report.nilpotent


GENERATORS = {
    "random_map": lambda rng: generators.random_map(rng, rng.choice([2, 3, 4]), 2, terms=3),
    "random_nilpotent_map": lambda rng: generators.random_nilpotent_map(
        rng, rng.choice([2, 3, 4])
    ),
    "canonical_pair": lambda rng: build_canonical_pair(
        generators.random_canonical_params(rng)
    ),
    "nilpotent_generalized": lambda rng: generators.nilpotent_generalized(
        rng, rng.choice([3, 4, 5])
    ).map,
    "nilpotent_generalized_coupled": lambda rng: generators.nilpotent_generalized_coupled(
        rng, rng.choice([4, 5, 6])
    ).map,
}


class TestReducedSigma:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_every_generator_under_conjugation(self, name):
        rng = random.Random(name)
        for _ in range(12):
            H = GENERATORS[name](rng)
            assert_matches_berkowitz(H)
            assert_matches_berkowitz(
                conjugate(H, generators.random_invertible(rng, H.dimension))
            )

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_perturbed_members(self, name):
        rng = random.Random("perturbed " + name)
        for _ in range(12):
            H = perturbed(GENERATORS[name](rng))
            assert_matches_berkowitz(
                conjugate(H, generators.random_invertible(rng, H.dimension))
            )

    @pytest.mark.parametrize("n", [5, 6])
    def test_chain_stalls_part_way_on_perturbed_coupled_maps(self, n):
        H = coupled(n, perturb=True)
        assert len(flag_of(H).rows) == 4
        assert_matches_berkowitz(H)
        assert not nilpotency_equations(H).nilpotent

    @pytest.mark.parametrize("n", [4, 5, 6, 8, 10, 12])
    def test_coupled_family_has_a_full_flag(self, n):
        H = coupled(n)
        assert flag_of(H).rows == []
        assert nilpotency_equations(H).nilpotent
        assert is_nilpotent(H)

    def test_full_flag_takes_no_charpoly(self, monkeypatch):
        sizes = []
        sigma_terms = analysis._sigma_terms

        def counted(grid, n):
            sizes.append(len(grid))
            return sigma_terms(grid, n)

        monkeypatch.setattr(analysis, "_sigma_terms", counted)
        report = nilpotency_equations(coupled(10))
        assert report.sigma == (Polynomial.zero(10),) * 10
        assert sizes == [0]

    @pytest.mark.parametrize(
        "text", ["x^2", "0; x*y", "-3*x; y^2; -5*x", "z^2; x*z; 0"]
    )
    def test_maps_in_one_to_three_variables(self, text):
        assert_matches_berkowitz(parse_map(text))

    def test_negative_elimination_denominator(self):
        # The elimination's last pivot is negative here; the sigma must
        # still print with positive denominators.
        H = parse_map("-3*x; y^2; -5*x")
        report = nilpotency_equations(H)
        assert [format_polynomial(s) for s in report.sigma] == ["2*y - 3", "-6*y", "0"]
        assert_matches_berkowitz(H)
        assert flag_of(H).den > 0

    def test_seed5_canonical_pair(self):
        rng = random.Random(5)
        H = build_canonical_pair(generators.random_canonical_params(rng))
        Hc = conjugate(H, generators.random_form_a_conjugator(rng))
        for G in (H, Hc, perturbed(H), perturbed(Hc)):
            assert_matches_berkowitz(G)

    def test_quotient_with_a_zero_row(self):
        # W = span(e3); the quotient is [[0, 0], [y, x]].
        H = parse_map("0; x*y; x^2")
        flag = flag_of(H)
        assert (flag.rows, flag.den, list(flag.pivots)) == ([[1, 0, 0], [0, 1, 0]], 1, [0, 1])
        assert flag.quotient[0] == [{}, {}]
        assert_matches_berkowitz(H)
        assert [format_polynomial(s) for s in nilpotency_equations(H).sigma] == ["x", "0", "0"]

    def test_quotient_at_later_pivots(self):
        # x appears nowhere, so W = span(e1), and the quotient is J on the
        # later coordinates, [[0, 1], [z, y]], not on the first two.
        H = parse_map("y^2; z; y*z")
        flag = flag_of(H)
        assert (len(flag.rows), list(flag.pivots)) == (2, [1, 2])
        assert_matches_berkowitz(H)
        assert [format_polynomial(s) for s in nilpotency_equations(H).sigma] == [
            "y", "-z", "0"
        ]
        for seed in range(6):
            perm = random.Random(seed).sample(range(1, 6), 5)
            G = coupled(5, perturb=True).compose(
                PolyMap([Polynomial.variable(5, i) for i in perm])
            )
            assert_matches_berkowitz(G)

    def test_rational_coefficients(self):
        rng = random.Random(3)
        for _ in range(10):
            H = coupled(5, rng.randrange(100), rng.randrange(100), perturb=True)
            H = PolyMap([p.scale(rng.choice([1, 2, 3])) * Polynomial.const(5, "1/6") for p in H])
            assert_matches_berkowitz(H)

    def test_classify_on_the_coupled_family(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text(format_map(coupled(10)))
        assert cli.run_command(["classify", "-f", str(f), "--json"]) == 0
        assert '"nilpotent": true' in capsys.readouterr().out


def rank(rows):
    return len(ref_rref(rows)[1]) if rows else 0


class TestFlagInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_largest_invariant_space_in_reduced_form(self, seed):
        rng = random.Random(seed)
        H = GENERATORS[sorted(GENERATORS)[seed % 5]](rng)
        if seed % 2:
            H = perturbed(H)
        H = conjugate(H, generators.random_invertible(rng, H.dimension))
        grid, _ = analysis._jacobian_terms(H)
        size = len(grid)
        flag = _common_flag(grid)
        rows = [list(r) for r in flag.rows]
        assert flag.den > 0
        for r, row in enumerate(rows):
            assert [row[p] for p in flag.pivots] == [
                flag.den * (s == r) for s in range(len(rows))
            ]
        keys = {key for row in grid for terms in row for key in terms}
        products = []
        for key in keys:
            m = [[terms.get(key, 0) for terms in row] for row in grid]
            products.extend(
                [sum(a * m[i][j] for i, a in enumerate(row)) for j in range(size)]
                for row in rows
            )
        # W = ker(rows) is invariant and the chain stalls there: the rows
        # a * M_m span exactly the row space of `rows`.
        assert rank(rows + products) == len(rows) == rank(products)
        for r, row in enumerate(rows):
            for s, p in enumerate(flag.pivots):
                want = {}
                for i, a in enumerate(row):
                    for key, c in grid[i][p].items():
                        want[key] = want.get(key, 0) + a * c
                assert flag.quotient[r][s] == {k: c for k, c in want.items() if c}


def flag_key(flag):
    return ([list(r) for r in flag.rows], flag.den, list(flag.pivots), flag.quotient)


def random_generalized(rng):
    # Rows 3..n use only x1 and x2, so J has rank below n from n = 5 on,
    # and the chain often runs past its first step to W = 0.
    return generators.random_generalized(rng, rng.choice([3, 4, 5, 6])).map


class TestReferenceChain:
    def test_same_flag_as_the_dense_chain(self):
        rng = random.Random(17)
        kinds = {"w = 0": 0, "0 < w < n": 0, "w = n": 0}
        for i in range(360):
            name = sorted(GENERATORS)[i // 2 % len(GENERATORS)]
            H = (GENERATORS[name] if i % 2 else random_generalized)(rng)
            if i % 3 == 1:
                H = perturbed(H)
            if i % 4:
                H = conjugate(H, generators.random_invertible(rng, H.dimension))
            grid, _ = analysis._jacobian_terms(H)
            flag = _common_flag(grid)
            assert flag_key(flag) == flag_key(reference_common_flag(grid)), (name, i)
            n, w = len(grid), len(grid) - len(flag.rows)
            if w == n:
                kinds["w = n"] += 1
            elif w:
                kinds["0 < w < n"] += 1
            else:
                kinds["w = 0"] += 1
        assert min(kinds.values()) >= 40, kinds

    @pytest.fixture
    def eliminations(self, monkeypatch):
        calls = []
        rref_den = linalg._rref_den

        def counted(work):
            calls.append(len(work))
            return rref_den(work)

        monkeypatch.setattr(linalg, "_rref_den", counted)
        return calls

    @pytest.mark.parametrize("n", [4, 8])
    def test_full_flag_takes_no_echelon_form(self, n, eliminations):
        H = coupled(n)
        eliminations.clear()
        assert flag_of(H).rows == []
        assert eliminations == []

    @pytest.mark.parametrize("seed", range(3))
    def test_echelon_form_once_on_the_last_space(self, seed, eliminations):
        # W = span(e1, e2, e3) before conjugating: the chain lowers the
        # rank 5 -> 4 -> 3 -> 2 and stalls, and only the last rows are
        # put in reduced form.
        H = parse_map("x2^2; x3^2; 0; x4*x5; x4^2")
        H = conjugate(H, generators.random_invertible(random.Random(seed), 5))
        eliminations.clear()
        assert len(flag_of(H).rows) == 2
        assert eliminations == [2]
        assert_matches_berkowitz(H)


class TestGate:
    """No determinant gates the chain: a map whose coefficient matrices
    have no common kernel vector, J(1, ..., 1) singular or not, stalls at
    the chain's first step."""

    @pytest.fixture
    def steps(self, monkeypatch):
        calls = []
        step = linalg._flag_step

        def counted(images, rank):
            calls.append(rank)
            return step(images, rank)

        monkeypatch.setattr(linalg, "_flag_step", counted)
        return calls

    def test_nonsingular_jacobian_at_ones_stalls_at_the_first_step(self, steps):
        H = parse_map("x + y^2; y + z^2; z")
        grid, _ = analysis._jacobian_terms(H)
        flag = _common_flag(grid)
        assert flag.quotient is grid
        assert [list(r) for r in flag.rows] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert steps == [3]

    def test_singular_jacobian_at_ones_runs_the_chain(self, steps):
        # J(1, 1) = [[0, 0], [1, 1]] is singular, but no vector lies in the
        # kernel of both coefficient matrices, so W = 0.
        H = parse_map("0; x*y")
        grid, _ = analysis._jacobian_terms(H)
        flag = _common_flag(grid)
        assert flag.quotient is grid
        assert steps == [2]
        assert_matches_berkowitz(H)


class TestOraclesIndependent:
    def test_oracles_work_without_the_flag(self, monkeypatch):
        def broken(grid):
            raise AssertionError("the common flag was used")

        monkeypatch.setattr(linalg, "_common_flag", broken)
        monkeypatch.setattr(analysis, "_common_flag", broken)
        nilpotent, other = coupled(5), coupled(5, perturb=True)
        with pytest.raises(AssertionError, match="common flag"):
            nilpotency_equations(nilpotent)
        assert is_nilpotent_bruteforce(nilpotent)
        assert not is_nilpotent_bruteforce(other)
        for H in (nilpotent, other):
            J = jacobian(H)
            sigma = sigma_polynomials(J)
            assert [principal_minor_sum(J, k) for k in range(1, 6)] == sigma
            assert poly_det(J) == sigma[-1]
        assert all(s.is_zero() for s in sigma_polynomials(jacobian(nilpotent)))
        assert not all(s.is_zero() for s in sigma_polynomials(jacobian(other)))
