"""Checks on the source itself: every module of the package and of its
tests parses as the oldest supported Python, the package exports exactly
`nilmap.__all__`, no package module imports a test-only oracle, and none
imports a module inside a function that it already imports at the top.

pyproject.toml declares ``requires-python >= 3.10``; syntax newer than that
(``except*``, type parameter lists, ...) would load on the interpreter that
runs the suite and still break installs, or the test run, on the oldest one.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nilmap"
TESTS = ROOT / "tests"


def oldest_python():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text)
    major, minor = found.groups()
    return int(major), int(minor)


def test_oldest_python_is_3_10():
    assert oldest_python() == (3, 10)


@pytest.mark.parametrize(
    "path",
    sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}",
)
def test_parses_as_oldest_python(path):
    source = path.read_text(encoding="utf-8")
    ast.parse(source, str(path), feature_version=oldest_python())


def test_package_surface_is_all():
    """Every name in `nilmap.__all__` resolves, and every public attribute
    of the package that is not a submodule is listed there."""
    import types

    import nilmap

    missing = [name for name in nilmap.__all__ if not hasattr(nilmap, name)]
    assert missing == []
    unlisted = sorted(
        name
        for name, value in vars(nilmap).items()
        if not name.startswith("_")
        and not isinstance(value, types.ModuleType)
        and name not in nilmap.__all__
    )
    assert unlisted == []
    assert len(set(nilmap.__all__)) == len(nilmap.__all__)


# Test-only references and oracles: the package imports none of them.
TEST_ONLY = {"tests", "sympy", "hypothesis"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_no_test_oracle(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    test_modules = {p.stem for p in TESTS.glob("*.py")}
    roots = {name.split(".")[0] for name in imported}
    assert roots.isdisjoint(TEST_ONLY | test_modules)


def late_imports_of_top_level_modules(path):
    """Line numbers of the `from .m import ...` statements inside functions
    or classes whose module `.m` the file already imports at the top."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    top = {
        (node.level, node.module)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module
    }
    nested = (
        node
        for statement in tree.body
        if not isinstance(statement, ast.ImportFrom)
        for node in ast.walk(statement)
    )
    return [
        node.lineno
        for node in nested
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in top
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_late_import_of_a_module_imported_at_the_top(path):
    """A function-level import breaks an import cycle only when the module
    has no top-level import of the same module; otherwise it belongs at
    the top."""
    assert late_imports_of_top_level_modules(path) == []
