"""Every module of the package and of its tests parses as the oldest
supported Python.

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
