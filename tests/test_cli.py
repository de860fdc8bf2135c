"""Exit-code and output tests for the command-line interface."""

import ast
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nilmap import cli, parsing
from nilmap.errors import ConstructionMismatch, NotNilpotentTop, TheoremViolation


# Nilpotent maps with linearly independent components: H3 has the
# three-variable shape (u, v, h) with deg_z v <= 1, and H4 the generalized
# shape with an x1 in H_2.
H3 = "z + 2*y*(x + y^2); -(x + y^2); (x + y^2)^2"
H4 = "x3 + 2*x2*(x1 + x2^2); -(x1 + x2^2); (x1 + x2^2)^2; (x1 + x2^2)^3"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = cli.run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env():
    """This environment with the checkout's src first on PYTHONPATH, so a
    child interpreter imports the nilmap under test."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


class TestNilpotent:
    def test_true(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "z^2; x*z; 0")
        code, out, _ = run(capsys, ["nilpotent", "-f", f])
        assert code == 0
        assert "nilpotent" in out

    def test_false_reports_witness(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "x; y")
        code, out, _ = run(capsys, ["nilpotent", "-f", f])
        assert code == 1
        assert "sigma_1" in out

    def test_json_output(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "z^2; x*z; 0")
        code, out, _ = run(capsys, ["nilpotent", "-f", f, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["nilpotent"] is True
        assert doc["sigma"] == ["0", "0", "0"]


class TestInputHandling:
    def test_parse_error(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "x + ; y")
        code, _, err = run(capsys, ["nilpotent", "-f", f])
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["nilpotent", "-f", "/nonexistent/map.txt"])
        assert code == 2

    def test_json_document_input(self, tmp_path, capsys):
        doc = {"n": 2, "components": ["x + y^2", "y"]}
        f = write(tmp_path, "m.json", json.dumps(doc))
        code, out, _ = run(capsys, ["invert", "-f", f])
        assert code == 0
        assert out.strip() == "-y^2 + x; y"

    def test_custom_aliases(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "b^2; a*b")
        code, _, _ = run(capsys, ["nilpotent", "-f", f, "--var-alias", "ab"])
        assert code == 1

    @pytest.mark.parametrize("aliases", ["xx", "x y", "1y", "xyzwxyzw", "x_"])
    @pytest.mark.parametrize("verb", ["nilpotent", "keller4d"])
    def test_aliases_that_are_not_distinct_letters_exit_2(
        self, tmp_path, capsys, aliases, verb
    ):
        # With "xx", x would name x1 and silently never x2; with "xyzwxyzw"
        # on two variables, z and w would name nothing.
        text = "x; y" if verb == "nilpotent" else "x; y; 0; 0"
        f = write(tmp_path, "m.txt", text)
        code, out, err = run(capsys, [verb, "-f", f, "--var-alias", aliases])
        assert code == 2
        assert out == ""
        assert f"variable aliases must be distinct letters, got {aliases!r}" in err

    def test_deeply_nested_parentheses(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "(" * 3000 + "x" + ")" * 3000)
        code, out, err = run(capsys, ["nilpotent", "-f", f])
        assert code == 2
        assert "nested deeper" in err
        assert "Traceback" not in out + err

    def test_json_document_with_non_string_component(self, tmp_path, capsys):
        f = write(tmp_path, "m.json", json.dumps({"n": 1, "components": [5]}))
        code, out, err = run(capsys, ["nilpotent", "-f", f])
        assert code == 2
        assert "malformed map document" in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("n", [1.9, True, "1"])
    def test_json_document_with_non_integer_n(self, tmp_path, capsys, n):
        f = write(tmp_path, "m.json", json.dumps({"n": n, "components": ["x"]}))
        code, out, err = run(capsys, ["nilpotent", "-f", f])
        assert code == 2
        assert "n must be an integer" in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("verb", ["nilpotent", "keller4d", "build-canonical"])
    def test_non_utf8_file(self, tmp_path, capsys, verb):
        path = tmp_path / "m.txt"
        path.write_bytes(b"x\xff; y")
        code, out, err = run(capsys, [verb, "-f", str(path)])
        assert code == 2
        assert "not UTF-8" in err
        assert "Traceback" not in out + err

    def test_exponent_past_the_limit(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "x^65535; 0")
        assert run(capsys, ["jacobian", "-f", f])[0] == 0
        f = write(tmp_path, "m.txt", "x^65536; 0")
        code, out, err = run(capsys, ["jacobian", "-f", f])
        assert code == 2
        assert "total degree 65536" in err
        assert "Traceback" not in out + err

    def test_sigma_past_the_degree_limit_exits_2(self, tmp_path, capsys):
        # J = diag(40000 x^39999, 40000 y^39999), so sigma_2 has total
        # degree 79,998: the characteristic polynomial on term dicts keeps
        # the overflow guard of the polynomial product.
        f = write(tmp_path, "m.txt", "x^40000; y^40000")
        code, out, err = run(capsys, ["nilpotent", "-f", f])
        assert code == 2
        assert "total degree 79998" in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("text", ["3^20000000", "(x + y + 1)^300; y"])
    def test_power_past_the_size_cap_exits_2_without_powering(
        self, tmp_path, capsys, monkeypatch, text
    ):
        def refuse(*args):
            raise AssertionError("a power past the cap was computed")

        monkeypatch.setattr(parsing, "_power", refuse)
        f = write(tmp_path, "m.txt", text)
        code, out, err = run(capsys, ["nilpotent", "-f", f])
        assert code == 2
        assert "too large" in err
        assert "Traceback" not in out + err

    def test_power_below_the_size_cap(self, tmp_path, capsys, monkeypatch):
        # (x + y + 1)^20 has 231 terms of at most 40 bits, under the cap of
        # 2^20 bits; 1^20000000 and 0^20000000 need no bits at all.
        exponents = []
        power = parsing._power

        def counted(p, k, n):
            exponents.append(k)
            return power(p, k, n)

        monkeypatch.setattr(parsing, "_power", counted)
        for text in ["(x + y + 1)^20; y", "1^20000000; 0^20000000"]:
            f = write(tmp_path, "m.txt", text)
            assert run(capsys, ["jacobian", "-f", f])[0] == 0
        assert exponents == [20, 20000000, 20000000]

    def test_product_past_the_pair_cap_exits_2_without_multiplying(
        self, tmp_path, capsys, monkeypatch
    ):
        # (x + y + z + w + 1)^12 has 1,820 terms, so the product multiplies
        # 3,312,400 pairs of terms, past the cap of 2^21.
        def refuse(*args):
            raise AssertionError("a product past the cap was computed")

        monkeypatch.setattr(parsing, "_product", refuse)
        f = write(
            tmp_path, "m.txt",
            "(x + y + z + w + 1)^12 * (x + y + z + w + 1)^12; 0; 0; 0",
        )
        code, out, err = run(capsys, ["nilpotent", "-f", f])
        assert code == 2
        assert "too large" in err and "1820 and 1820 terms" in err
        assert "Traceback" not in out + err

    def test_product_below_the_pair_cap(self, tmp_path, capsys, monkeypatch):
        # 231 * 231 pairs of terms, under the cap of 2^21.
        sizes = []
        product = parsing._product

        def counted(p, q, n):
            sizes.append((len(p), len(q)))
            return product(p, q, n)

        monkeypatch.setattr(parsing, "_product", counted)
        f = write(tmp_path, "m.txt", "(x + y + 1)^20 * (x + y + 1)^20; y")
        assert run(capsys, ["jacobian", "-f", f])[0] == 0
        assert sizes == [(231, 231)]

    def test_product_of_powers_is_refused_before_either_power(
        self, tmp_path, capsys, monkeypatch
    ):
        # Each power is under the size cap, with an estimated 5,151 terms;
        # their product would multiply 26,532,801 pairs.
        text = "(x + y + 1)^100 * (x + y + 1)^100; y"
        start = time.perf_counter()
        with pytest.raises(parsing.ParseError, match="5151 and 5151 terms"):
            parsing.parse_map(text)
        assert time.perf_counter() - start < 0.05

        def refuse(*args):
            raise AssertionError("a power of a refused product was computed")

        monkeypatch.setattr(parsing, "_power", refuse)
        f = write(tmp_path, "m.txt", text)
        code, out, err = run(capsys, ["jacobian", "-f", f])
        assert code == 2
        assert "too large" in err and "pairs of terms" in err
        assert out == "" and "Traceback" not in err

    def test_power_alone_under_both_caps_parses(self):
        p = parsing.parse_polynomial("(x + y + 1)^100", 2)
        assert len(p.terms) == 5151
        assert p.total_degree() == 100
        # Two powers of 68,880 estimated bits each, and a product of
        # 861 * 861 pairs, are well inside the budget of one call.
        p = parsing.parse_polynomial("(x + y + 1)^40 * (x + y + 1)^40", 2)
        assert p.total_degree() == 80

    def test_powers_past_the_budget_of_one_call_exit_2(
        self, tmp_path, capsys, monkeypatch
    ):
        # Each power is estimated at 1,030,200 bits, under the cap of 2^20,
        # but two of them are past it: the budget is one per parse call, so
        # the second power is refused before it is computed.  Without the
        # budget, all ten were computed, in several seconds.
        calls, inside = [], []
        power = parsing._power

        def timed(p, k, n):
            start = time.perf_counter()
            try:
                return power(p, k, n)
            finally:
                calls.append(k)
                inside.append(time.perf_counter() - start)

        monkeypatch.setattr(parsing, "_power", timed)
        f = write(tmp_path, "m.txt", " + ".join(["(x + y + 1)^100"] * 10) + "; y")
        start = time.perf_counter()
        code, out, err = run(capsys, ["jacobian", "-f", f])
        elapsed = time.perf_counter() - start
        assert code == 2 and out == ""
        assert "power with exponent 100 is too large: together" in err
        assert "(line 1, column 31)" in err
        assert calls == [100]
        # Apart from the one power it computed, the refusal costs nothing.
        assert elapsed - sum(inside) < 0.1

    def test_parse_errors_in_later_components_count_from_the_file_start(
        self, tmp_path, capsys
    ):
        eoi = "expected ')', found end of input"
        cases = [
            ("nilpotent", "x;\ny;\nz + (x", f"{eoi} (line 3, column 7)"),
            ("nilpotent", "x + ; y", "found ';' (line 1, column 5)"),
            ("keller4d", "x; y;\nx*y;\nx + $", "character '$' (line 3, column 5)"),
            ("keller4d", "x; y;\n  0;\n (y", f"{eoi} (line 3, column 4)"),
        ]
        for verb, text, message in cases:
            f = write(tmp_path, "m.txt", text)
            code, out, err = run(capsys, [verb, "-f", f])
            assert code == 2 and out == ""
            assert message in err, (text, err)

    def test_parse_error_positions(self, tmp_path, capsys):
        # Text syntax errors carry a position; errors about the structure
        # of a JSON document or matrix have none to give.
        f = write(tmp_path, "m.txt", "x + $; y")
        code, _, err = run(capsys, ["nilpotent", "-f", f])
        assert code == 2
        assert "(line 1, column 5)" in err
        f = write(tmp_path, "m.txt", "y; 0")
        code, _, err = run(capsys, ["conjugate", "-f", f, "-m", "5"])
        assert code == 2
        assert err.strip() == "error: malformed matrix: expected a list of rows"
        f = write(tmp_path, "m.json", json.dumps({"n": "2", "components": []}))
        code, _, err = run(capsys, ["nilpotent", "-f", f])
        assert code == 2
        assert "(line" not in err

    def test_repeated_calls_in_one_process(self, tmp_path, capsys):
        # The argument parser is built once and shared by every call; a
        # failing call must leave nothing behind for the next one.
        good = write(tmp_path, "good.txt", "z^2; x*z; 0")
        bad = write(tmp_path, "bad.txt", "x + ; y")
        assert run(capsys, ["nilpotent", "-f", bad])[0] == 2
        code, out, _ = run(capsys, ["nilpotent", "-f", good, "--json"])
        assert code == 0
        assert json.loads(out)["nilpotent"] is True
        with pytest.raises(SystemExit) as info:
            cli.run_command(["nilpotent", "--no-such-option"])
        assert info.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, ["nilpotent", "-f", good])
        assert code == 0
        assert not out.lstrip().startswith("{")
        assert cli.build_parser() is cli.build_parser()


class TestJacobianRankDepend:
    def test_jacobian(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "x^2; y")
        code, out, _ = run(capsys, ["jacobian", "-f", f, "--json"])
        assert code == 0
        assert json.loads(out)["jacobian"] == [["2*x", "0"], ["0", "1"]]

    def test_rank(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "(z*x + y)^2; -z*(z*x+y)^2; 0")
        code, out, _ = run(capsys, ["rank", "-f", f, "--json"])
        assert code == 0
        assert json.loads(out)["rank"] == 2

    def test_depend_positive(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "x + y; 2*x + 2*y; x")
        code, out, _ = run(capsys, ["depend", "-f", f, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["dependent"] is True
        assert doc["coefficients"] == ["1", "-1/2", "0"]

    def test_depend_negative(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "x; y; x*y")
        code, out, _ = run(capsys, ["depend", "-f", f])
        assert code == 1
        assert "independent" in out


class TestConjugate:
    def test_swap(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "y; 0")
        matrix = json.dumps([["0", "1"], ["1", "0"]])
        code, out, _ = run(capsys, ["conjugate", "-f", f, "-m", matrix])
        assert code == 0
        assert out.strip() == "0; x"

    def test_singular_matrix(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "y; 0")
        matrix = json.dumps([["1", "1"], ["1", "1"]])
        code, _, err = run(capsys, ["conjugate", "-f", f, "-m", matrix])
        assert code == 2

    def test_bad_matrix_json(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "y; 0")
        code, _, _ = run(capsys, ["conjugate", "-f", f, "-m", "nonsense"])
        assert code == 2

    def test_float_matrix_entry_is_invalid_input(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "y; 0")
        matrix = json.dumps([[0.5, 0], [0, 1]])
        code, out, err = run(capsys, ["conjugate", "-f", f, "-m", matrix])
        assert code == 2
        assert "floating-point" in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "matrix",
        [
            '[["1/0","0"],["0","1"]]',
            '[["a","0"],["0","1"]]',
            "5",
            "[[true,0],[0,1]]",
        ],
    )
    def test_malformed_matrix_is_invalid_input(self, tmp_path, capsys, matrix):
        f = write(tmp_path, "m.txt", "y; 0")
        code, out, err = run(capsys, ["conjugate", "-f", f, "-m", matrix])
        assert code == 2
        assert "malformed matrix" in err
        assert "Traceback" not in out + err


class TestClassify:
    def test_not_nilpotent(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "x; y; 0")
        code, out, _ = run(capsys, ["classify", "-f", f])
        assert code == 1

    def test_canonical_route(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "x + y + z^2; -x - y + z; 0")
        code, out, _ = run(capsys, ["classify", "-f", f, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["route"] == "canonical-pair"
        assert "params" in doc

    def test_unclassified_route(self, tmp_path, capsys):
        # nilpotent, but dimension 2 is outside every handled shape
        f = write(tmp_path, "m.txt", "y^2; 0")
        code, out, _ = run(capsys, ["classify", "-f", f, "--json"])
        assert code == 0
        assert json.loads(out)["route"] == "unclassified"

    def test_independent_nilpotent_map_takes_the_low_z_route(
        self, tmp_path, capsys
    ):
        f = write(tmp_path, "m.txt", H3)
        code, out, err = run(capsys, ["classify", "-f", f, "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "T": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            "map": {
                "components": [
                    "2*y^3 + 2*x*y + z",
                    "-y^2 - x",
                    "y^4 + 2*x*y^2 + x^2",
                ],
                "n": 3,
            },
            "nilpotent": True,
            "route": "low-z-normalization",
            "status": "external-form-reached",
        }
        code, out, _ = run(capsys, ["classify", "-f", f])
        assert (code, out) == (0, "normalized: external-form-reached\n")

    def test_generalized_map_outside_every_route_is_unclassified(
        self, tmp_path, capsys
    ):
        # H4 has the generalized shape, but H_2 involves x1.
        f = write(tmp_path, "m.txt", H4)
        code, out, err = run(capsys, ["classify", "-f", f, "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out) == {"nilpotent": True, "route": "unclassified"}

    def test_readme_route_table_lists_the_cli_routes(self):
        # The "Classify routes" table of README names each route in its
        # first column; cli.py prints each as a "route" literal.
        root = Path(__file__).resolve().parent.parent
        readme = (root / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Classify routes", 1)[1].split("\n#", 1)[0]
        documented = re.findall(r"^\| `([a-z-]+)` \|", section, re.M)
        tree = ast.parse((root / "src" / "nilmap" / "cli.py").read_text())
        printed = [
            value.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Dict)
            for key, value in zip(node.keys, node.values)
            if isinstance(key, ast.Constant) and key.value == "route"
        ]
        assert "unclassified" in documented
        assert sorted(documented) == sorted(printed)

    @pytest.mark.parametrize("text", [H3, H4], ids=["H3", "H4"])
    def test_independent_nilpotent_maps(self, tmp_path, capsys, text):
        f = write(tmp_path, "m.txt", text)
        assert run(capsys, ["nilpotent", "-f", f])[0] == 0
        code, out, _ = run(capsys, ["depend", "-f", f])
        assert (code, out) == (1, "independent\n")

    @pytest.mark.parametrize(
        "text", ["x; y; 0", "x*y; y^2 + z; w; x", "y^2; x; w; 0", "1/2*x; 1/3*y + x^2"]
    )
    def test_not_nilpotent_prints_the_reports_witness(
        self, tmp_path, capsys, monkeypatch, text
    ):
        from nilmap import analysis

        f = write(tmp_path, "m.txt", text)
        code, out, _ = run(capsys, ["nilpotent", "-f", f, "--json"])
        witness = json.loads(out)["witness"]
        calls = []
        sigma = analysis._quotient_sigma

        def counted(grid, n):
            calls.append(grid)
            return sigma(grid, n)

        monkeypatch.setattr(analysis, "_quotient_sigma", counted)
        code, out, _ = run(capsys, ["classify", "-f", f, "--json"])
        assert code == 1
        assert json.loads(out) == {"nilpotent": False, "witness": witness}
        code, out, _ = run(capsys, ["classify", "-f", f])
        assert (code, out) == (
            1, f"not nilpotent: sigma_{witness['k']} = {witness['sigma_k']}\n"
        )
        # Only a zero trace takes a characteristic polynomial.
        assert len(calls) == 2 * (witness["k"] > 1)

    def test_canonical_pair_takes_two_charpolys(
        self, tmp_path, capsys, monkeypatch
    ):
        from nilmap import analysis, generators
        from nilmap.classify import build_canonical_pair
        from nilmap.parsing import format_map

        rng = random.Random(5)
        H = build_canonical_pair(generators.random_canonical_params(rng))
        Hc = analysis.conjugate(H, generators.random_form_a_conjugator(rng))
        f = write(tmp_path, "m.txt", format_map(Hc))
        # Every nilpotency computation goes through `_quotient_sigma`, which
        # takes a charpoly only of the quotient by the common flag space.
        calls = []
        sigma = analysis._quotient_sigma

        def counted(grid, n):
            calls.append(grid)
            return sigma(grid, n)

        monkeypatch.setattr(analysis, "_quotient_sigma", counted)
        code, out, _ = run(capsys, ["classify", "-f", f, "--json"])
        assert code == 0
        assert json.loads(out)["route"] == "canonical-pair"
        assert len(calls) == 2

    def test_low_z_route_checks_dependence_once(
        self, tmp_path, capsys, monkeypatch
    ):
        from nilmap import analysis, classify

        calls = []
        dependence = analysis.linear_dependence

        def counted(components):
            calls.append(components)
            return dependence(components)

        monkeypatch.setattr(analysis, "linear_dependence", counted)
        monkeypatch.setattr(classify, "linear_dependence", counted)
        f = write(tmp_path, "m.txt", H3)
        code, out, _ = run(capsys, ["classify", "-f", f, "--json"])
        assert code == 0
        assert json.loads(out)["route"] == "low-z-normalization"
        assert len(calls) == 1

    def test_theorem_violation_exit_code(self, tmp_path, capsys, monkeypatch):
        f = write(tmp_path, "m.txt", "x + y + z^2; -x - y + z; 0")

        def boom(H):
            raise TheoremViolation("synthetic falsification", {"n": 3})

        monkeypatch.setattr(
            "nilmap.classify.recognize_canonical_pair", boom
        )
        code, _, err = run(capsys, ["classify", "-f", f])
        assert code == 3
        assert "guarantee violated" in err

    def test_construction_mismatch_exit_code(self, tmp_path, capsys, monkeypatch):
        f = write(tmp_path, "m.txt", "x + y + z^2; -x - y + z; 0")

        def boom(H):
            raise ConstructionMismatch("synthetic rebuild mismatch")

        monkeypatch.setattr(
            "nilmap.classify.recognize_canonical_pair", boom
        )
        code, out, err = run(capsys, ["classify", "-f", f])
        assert code == 3
        assert "synthetic rebuild mismatch" in err
        assert "Traceback" not in out + err

    def test_non_nilpotent_top_pair_is_a_violation(self, tmp_path, capsys, monkeypatch):
        # H3 is nilpotent, so its top coefficient pair must be nilpotent too.
        def forced(H):
            raise NotNilpotentTop("forced")

        monkeypatch.setattr("nilmap.classify.triangularize_top_coefficients", forced)
        code, _, err = run(capsys, ["classify", "-f", write(tmp_path, "m.txt", H3)])
        assert code == 3
        assert "guarantee violated" in err


class TestLongNumbers:
    """Numbers past CPython's int/str conversion limit of 4,300 digits: an
    input holding one, and a result that would print one, exit 2 with a
    message, within a second and without a traceback."""

    LONG = "1" * 5000

    def check(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert code == 2, (argv, out, err)
        assert message in err
        assert "Traceback" not in out + err
        assert out == ""

    @pytest.mark.parametrize("verb", ["jacobian", "nilpotent", "depend"])
    def test_long_literal(self, tmp_path, capsys, verb):
        for text in [self.LONG + "*x; y", "x" + self.LONG + "; y", "x; 1/" + self.LONG]:
            f = write(tmp_path, "m.txt", text)
            self.check(capsys, [verb, "-f", f], "digits is longer than the limit")

    def test_literal_at_the_limit(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", f"{'9' * parsing.MAX_DIGITS}*x; y")
        code, out, _ = run(capsys, ["jacobian", "-f", f])
        assert code == 0
        assert out == "9" * parsing.MAX_DIGITS + "  0\n0  1\n"

    @pytest.mark.parametrize("verb", ["jacobian", "nilpotent", "rank", "depend", "conjugate"])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_result_too_long_to_print(self, tmp_path, capsys, verb, as_json):
        # 3^10000 has 4,772 digits, and the parser's size cap allows it.
        f = write(tmp_path, "m.txt", "3^10000*x^2; x^2")
        argv = [verb, "-f", f] + (["-m", "[[1,0],[1,1]]"] if verb == "conjugate" else [])
        argv += ["--json"] if as_json else []
        if verb == "rank":
            assert run(capsys, argv)[0] == 0
        else:
            self.check(capsys, argv, "too long to print")

    @pytest.mark.parametrize(
        "matrix",
        [
            f"[[{LONG},0],[0,1]]",
            f'[["{LONG}","0"],["0","1"]]',
            f'[["1/{LONG}","0"],["0","1"]]',
        ],
    )
    def test_long_matrix_entry(self, tmp_path, capsys, matrix):
        f = write(tmp_path, "m.txt", "x; y")
        message = "digits" if matrix.startswith("[[1") else "malformed matrix entry"
        self.check(capsys, ["conjugate", "-f", f, "-m", matrix], message)

    @pytest.mark.parametrize(
        "doc",
        [
            f'{{"n": {LONG}, "components": ["x", "y"]}}',
            f'{{"n": 2, "components": ["x", "y"], "note": -{LONG}}}',
        ],
    )
    def test_long_json_integer_in_a_map_document(self, tmp_path, capsys, doc):
        f = write(tmp_path, "m.json", doc)
        self.check(capsys, ["nilpotent", "-f", f], "digits is longer than the limit")

    def test_long_json_integer_in_a_parameter_document(self, tmp_path, capsys):
        f = write(tmp_path, "p.json", f'{{"a1": "1", "n": {self.LONG}}}')
        self.check(capsys, ["build-canonical", "-f", f], "digits is longer than the limit")


def string_leaves(doc):
    """The strings of a JSON document, but for the route, status and kind
    labels, which are not polynomials."""
    if isinstance(doc, str):
        yield doc
    elif isinstance(doc, list):
        for v in doc:
            yield from string_leaves(v)
    elif isinstance(doc, dict):
        for key, v in doc.items():
            if key not in ("route", "status", "kind"):
                yield from string_leaves(v)


# verb: (input file text, aliases, extra arguments, plain output -> the
# polynomials it prints).
ALIAS_CASES = {
    "jacobian": ("a*b; b^2", "ab", [], lambda out: re.split(r"\n|  ", out)),
    "nilpotent": ("a*b; b^2", "ab", [], lambda out: [out.split(" = ")[1]]),
    "conjugate": (
        "a*b; b^2", "ab", ["-m", "[[0,1],[1,0]]"], lambda out: out.split(";")
    ),
    "classify": ("a*b; b^2", "ab", [], lambda out: [out.split(" = ")[1]]),
    "classify-low-z": (H3.replace("x", "a").replace("y", "b").replace("z", "c"),
                       "abc", [], lambda out: []),
    "invert": ("a + b^2; b", "ab", [], lambda out: out.split(";")),
    "decompose": ("a + b^2; b", "ab", [], lambda out: []),
    "build-canonical": (
        json.dumps({"a1": "1", "a2": "1", "c1": "z^2", "c2": "z", "h": "t"}),
        "abc", [], lambda out: out.split(";"),
    ),
}


class TestVarAliasOutput:
    """Every polynomial a verb prints is written in its --var-alias names,
    so the output parses back with the same flag."""

    @pytest.mark.parametrize("case", sorted(ALIAS_CASES))
    def test_output_parses_back_with_the_same_flag(self, tmp_path, capsys, case):
        text, aliases, extra, plain = ALIAS_CASES[case]
        verb = case.removesuffix("-low-z")
        f = write(tmp_path, "m.txt", text)
        argv = [verb, "-f", f, *extra, "--var-alias", aliases]
        code, out, _ = run(capsys, argv)
        assert code in (0, 1)
        code, doc, _ = run(capsys, argv + ["--json"])
        assert code in (0, 1)
        polys = [*plain(out.strip()), *string_leaves(json.loads(doc))]
        assert polys
        n = len(aliases)
        for p in polys:
            parsing.parse_polynomial(p, n, aliases)
        if verb in ("conjugate", "invert", "build-canonical"):
            # A printed map is read back as a map file: by the same verb,
            # or by `invert` after `build-canonical`, which reads parameters.
            g = write(tmp_path, "out.txt", out)
            again = ["invert" if verb == "build-canonical" else verb]
            code, _, err = run(capsys, [*again, "-f", g, *extra, "--var-alias", aliases])
            assert code in (0, 1), err


class TestMatrixEntries:
    """`conjugate -m` takes an integer or a string of an optionally signed
    integer or fraction; Fraction() would also read decimal and exponent
    notation, and "1e1000000" would build a million-digit integer."""

    @pytest.mark.parametrize(
        "entry",
        ["1e1000000", "1e5000", "1E3", "1.5", "1_000", " 1", "1 ", "1/0", "1/00",
         "--1", "1/-2", "0x10", "", "inf", "nan", "١"],
    )
    def test_other_forms_are_invalid_input(self, tmp_path, capsys, entry):
        f = write(tmp_path, "m.txt", "x; y")
        matrix = json.dumps([[entry, "0"], ["0", "1"]])
        start = time.perf_counter()
        code, out, err = run(capsys, ["conjugate", "-f", f, "-m", matrix])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "malformed matrix entry" in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "entry, want",
        [("2", "2*x^2; y"), ("-4/2", "-2*x^2; y"), ("+3/6", "1/2*x^2; y"), (2, "2*x^2; y")],
    )
    def test_documented_forms(self, tmp_path, capsys, entry, want):
        # T^-1 H(T x) for T = diag(c, 1) and H = (x^2, y) is (c x^2, y).
        f = write(tmp_path, "m.txt", "x^2; y")
        matrix = json.dumps([[entry, "0"], ["0", "1"]])
        code, out, _ = run(capsys, ["conjugate", "-f", f, "-m", matrix])
        assert code == 0
        assert out.strip() == want


class TestBuildCanonical:
    def test_build(self, tmp_path, capsys):
        params = {"a1": "1", "a2": "1", "c1": "z^2", "c2": "z", "h": "t"}
        f = write(tmp_path, "p.json", json.dumps(params))
        code, out, _ = run(capsys, ["build-canonical", "-f", f])
        assert code == 0
        assert out.strip() == "z^2 + x + y; -x - y + z; 0"

    def test_missing_key(self, tmp_path, capsys):
        f = write(tmp_path, "p.json", json.dumps({"a1": "1"}))
        code, _, _ = run(capsys, ["build-canonical", "-f", f])
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            [1, 2],
            {"a1": 5},
            {"a1": "1", "a2": "1", "c1": "z^2", "c2": "z", "h": None},
            "a1",
        ],
    )
    def test_malformed_document(self, tmp_path, capsys, doc):
        f = write(tmp_path, "p.json", json.dumps(doc))
        code, out, err = run(capsys, ["build-canonical", "-f", f])
        assert code == 2
        assert "malformed parameter document" in err
        assert "Traceback" not in out + err

    def test_origin_violation(self, tmp_path, capsys):
        params = {"a1": "1", "a2": "1", "c1": "z + 1", "c2": "z", "h": "t"}
        f = write(tmp_path, "p.json", json.dumps(params))
        code, _, _ = run(capsys, ["build-canonical", "-f", f])
        assert code == 2


class TestInvertDecomposeKeller:
    def test_invert_success(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "x + y^2; y + z^3; z")
        code, out, _ = run(capsys, ["invert", "-f", f])
        assert code == 0

    def test_invert_failure(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "x + x^2; y")
        code, out, _ = run(capsys, ["invert", "-f", f])
        assert code == 1
        assert "no polynomial inverse" in out

    def test_invert_non_keller_map_exits_at_once(self, tmp_path, capsys):
        # det JF is -6 at the origin and 32,496 at (2, -3, 5)
        f = write(
            tmp_path,
            "m.txt",
            "-2*x*z - 3*y*z + y; 3*x*y*z + 2*x^2 + 2*z; 2*y*z^2 + 3*x^2 - 3*x",
        )
        code, out, _ = run(capsys, ["invert", "-f", f])
        assert code == 1
        assert out == "no polynomial inverse found\n"

    @pytest.mark.parametrize(
        "text, inverse",
        [("2*x", "1/2*x"), ("2*x + y^2; y", "-1/2*y^2 + 1/2*x; y")],
    )
    def test_invert_non_unipotent_linear_part(self, tmp_path, capsys, text, inverse):
        # JF(0) - I is not nilpotent: the inverse comes from A^-1 o F.
        f = write(tmp_path, "m.txt", text)
        code, out, _ = run(capsys, ["invert", "-f", f])
        assert code == 0
        assert out.strip() == inverse

    @pytest.mark.parametrize("bound, code", [("-5", 2), ("0", 2), ("1", 2), ("2", 0)])
    def test_invert_degree_bound(self, tmp_path, capsys, bound, code):
        # the inverse -y^2 + x; y has degree 2 = (deg F)^(n-1), the least bound
        f = write(tmp_path, "m.txt", "x + y^2; y")
        got, out, _ = run(capsys, ["invert", "-f", f, "--degree-bound", bound])
        assert got == code
        assert out == ("-y^2 + x; y\n" if code == 0 else "")

    def test_invert_wrong_shape(self, tmp_path, capsys):
        # the shift part must vanish at the origin
        f = write(tmp_path, "m.txt", "x + 1; y")
        code, _, _ = run(capsys, ["invert", "-f", f])
        assert code == 2

    @pytest.mark.parametrize("verb", ["invert", "decompose"])
    def test_origin_not_fixed_exit_2(self, tmp_path, capsys, verb):
        f = write(tmp_path, "m.txt", "x + y^2; y - 1/2")
        code, out, err = run(capsys, [verb, "-f", f, "--json"])
        assert code == 2
        assert out == ""
        assert err == "error: the shift part must vanish at the origin\n"

    def test_decompose_success(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "x + y^2; y + z^3; z")
        code, out, _ = run(capsys, ["decompose", "-f", f, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["dimension"] == 3
        assert all(fac["kind"] == "elementary" for fac in doc["factors"])

    def test_decompose_failure(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "x + y^2; y + x^2")
        code, out, _ = run(capsys, ["decompose", "-f", f])
        assert code == 1

    def test_decompose_one_variable(self, tmp_path, capsys):
        # 2*x has no (x1, x2) block to mix; it ends as 2*x; y does.
        codes = []
        for text in ("2*x", "2*x; y"):
            f = write(tmp_path, "m.txt", text)
            code, out, err = run(capsys, ["decompose", "-f", f])
            assert "Traceback" not in out + err
            codes.append(code)
        assert codes[0] == codes[1]

    def test_keller4d_true(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "y; 0; 0; 0")
        code, out, _ = run(capsys, ["keller4d", "-f", f, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["keller_parameterized"] is True
        assert doc["realized_nilpotent"] is True

    def test_keller4d_false(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "x; 0; 0; 0")
        code, out, _ = run(capsys, ["keller4d", "-f", f, "--json"])
        assert code == 1
        assert json.loads(out)["keller_parameterized"] is False

    def test_keller4d_var_alias(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "t; 0; 0; 0")
        code, out, _ = run(capsys, ["keller4d", "-f", f, "--json", "--var-alias", "st"])
        assert code == 0
        assert json.loads(out)["keller_parameterized"] is True
        f = write(tmp_path, "m.txt", "s; 0; 0; 0")
        code, out, _ = run(capsys, ["keller4d", "-f", f, "--json", "--var-alias", "st"])
        assert code == 1
        # The default aliases stay x, y.
        f = write(tmp_path, "m.txt", "t; 0; 0; 0")
        code, _, err = run(capsys, ["keller4d", "-f", f])
        assert code == 2
        assert "unknown variable 't'" in err

    def test_keller4d_wrong_component_count(self, tmp_path, capsys):
        f = write(tmp_path, "m.txt", "x; y; 0")
        code, _, _ = run(capsys, ["keller4d", "-f", f])
        assert code == 2


def only_suite(monkeypatch, name):
    """Replace every suite but the named one with a suite that passes at
    once, so a test that breaks one suite does not run the other nine."""
    from nilmap import suites

    monkeypatch.setattr(
        suites,
        "SUITES",
        tuple((n, f if n == name else lambda rng: {}) for n, f in suites.SUITES),
    )


class TestVerify:
    def test_default_seed_passes(self, capsys):
        code, out, _ = run(capsys, ["verify"])
        assert code == 0
        assert out.count("[PASS]") == 10
        assert "[FAIL]" not in out

    def test_custom_seed_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--seed", "7"])
        assert code == 0

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, ["verify", "--seed", "3", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 3
        assert all(s["passed"] for s in doc["suites"])

    def test_construction_mismatch_exits_3(self, capsys, monkeypatch):
        def boom(F):
            raise ConstructionMismatch("synthetic rebuild mismatch")

        monkeypatch.setattr("nilmap.tame.classify_and_decompose", boom)
        only_suite(monkeypatch, "tame and inverse")
        code, out, err = run(capsys, ["verify"])
        assert code == 3
        assert "synthetic rebuild mismatch" in err
        assert "Traceback" not in out + err

    def test_escaped_guarantee_names_suite_and_generator(self, capsys, monkeypatch):
        from nilmap import suites

        name = "canonical round trip"
        index = [n for n, _ in suites.SUITES].index(name)
        draws = []

        def boom(rng):
            draws.append(rng.random())
            raise ConstructionMismatch("synthetic rebuild mismatch", {"map": "x; y"})

        monkeypatch.setattr(
            suites,
            "SUITES",
            tuple((n, boom if n == name else lambda rng: {}) for n, _ in suites.SUITES),
        )
        code, out, err = run(capsys, ["verify", "--seed", "7"])
        assert code == 3
        assert draws == [random.Random(7 + index).random()]
        assert (
            f"suite {name}, Random({7 + index}): synthetic rebuild mismatch\n"
            'instance: {"map": "x; y"}'
        ) in err
        assert "Traceback" not in out + err

    def test_failed_suite_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "nilmap.analysis.check_divergence_coefficients", lambda u, v: False
        )
        only_suite(monkeypatch, "divergence coefficients")
        code, out, err = run(capsys, ["verify"])
        assert code == 3
        assert "[FAIL] divergence coefficients" in out
        assert out.count("[PASS]") == 9
        assert "Traceback" not in out + err

    def test_failed_suite_exits_3_under_optimization(self):
        # `python -O` strips assert statements; the suites must still fail.
        code = (
            "from nilmap import analysis, cli, suites; "
            "analysis.check_divergence_coefficients = lambda u, v: False; "
            "suites.SUITES = tuple((n, f if n == 'divergence coefficients' "
            "else lambda rng: {}) for n, f in suites.SUITES); "
            "raise SystemExit(cli.run_command(['verify']))"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, env=src_env()
        )
        assert proc.returncode == 3
        assert b"[FAIL] divergence coefficients" in proc.stdout


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        f = write(tmp_path, "m.txt", "z^2; x*z; 0")
        proc = subprocess.run(
            [sys.executable, "-m", "nilmap.cli", "nilpotent", "-f", f],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0
        assert "nilpotent" in proc.stdout
