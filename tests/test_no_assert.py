"""No `assert` statement in the package source: `python -O` strips them, so
a runtime check written as one would silently stop checking."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nilmap"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_source_has_no_assert(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)] == []
