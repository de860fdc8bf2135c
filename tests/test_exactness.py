"""No floating point anywhere in the package source.

The syntax tree of every module in `src/nilmap` is scanned for `float(...)`
calls, float (and complex) literals, and `math` imports other than `prod`,
`lcm` and `gcd`.  The one float literal allowed is the threshold of a seeded
draw: the right-hand side of `rng.random() < 0.4`, or of `draw < 0.4` where
every assignment to `draw` is `draw = rng.random()`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nilmap"
MATH_ALLOWED = {"prod", "lcm", "gcd"}


def _is_draw(node):
    """True for the call `rng.random()`."""
    return (
        isinstance(node, ast.Call)
        and not node.args
        and not node.keywords
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "random"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "rng"
    )


def _draw_names(tree):
    """Names whose every assignment in the tree is `name = rng.random()`."""
    draws, others = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            targets, value = [node.target], node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                (draws if _is_draw(value) else others).add(target.id)
    return draws - others


def _thresholds(tree):
    """ids of the literals that are the right-hand side of a `<` on a draw."""
    draws = _draw_names(tree)
    allowed = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Compare)
            and len(node.ops) == 1
            and isinstance(node.ops[0], ast.Lt)
            and isinstance(node.comparators[0], ast.Constant)
            and (
                _is_draw(node.left)
                or isinstance(node.left, ast.Name) and node.left.id in draws
            )
        ):
            allowed.add(id(node.comparators[0]))
    return allowed


def float_violations(source, filename="<source>"):
    """(line, reason) for each use of floating point in the source."""
    tree = ast.parse(source, filename)
    allowed = _thresholds(tree)
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            found.append((node.lineno, "float(...) call"))
        elif (
            isinstance(node, ast.Constant)
            and type(node.value) in (float, complex)
            and id(node) not in allowed
        ):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "math" or alias.name.startswith("math."):
                    found.append((node.lineno, f"import {alias.name}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in MATH_ALLOWED:
                    found.append((node.lineno, f"math.{alias.name} import"))
    return found


def test_source_files_are_scanned():
    names = {path.name for path in SRC.glob("*.py")}
    assert {"poly.py", "classify.py", "cli.py", "generators.py"} <= names


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")), ids=lambda path: path.name
)
def test_source_has_no_floating_point(path):
    assert float_violations(path.read_text(encoding="utf-8"), str(path)) == []


@pytest.mark.parametrize(
    "source",
    [
        "x = float(y)",
        "x = 0.5",
        "x = 1e3",
        "x = 2j",
        "if rng.random() > 0.5:\n    pass",
        "if rng.random() <= 0.5:\n    pass",
        "if other.random() < 0.5:\n    pass",
        "if x < 0.5:\n    pass",
        "draw = rng.random()\ndraw = 3\nif draw < 0.4:\n    pass",
        "import math",
        "import math as m",
        "from math import sqrt",
        "from math import prod, floor",
    ],
)
def test_scanner_flags(source):
    assert float_violations(source)


@pytest.mark.parametrize(
    "source",
    [
        "if rng.random() < 0.5:\n    pass",
        "draw = rng.random()\nif draw < 0.4:\n    pass\nelif draw < 0.6:\n    pass",
        "x = [a for a in b if rng.random() < 0.4]",
        "from math import gcd, lcm, prod",
        "ok = isinstance(value, float)",
    ],
)
def test_scanner_allows(source):
    assert float_violations(source) == []
