"""Only the exact core reads a polynomial's stored form.

A `Polynomial` keeps its integer numerators in `_terms` and their common
denominator in `_den`.  Only `poly.py`, `linalg.py` and `analysis.py` may
name either attribute, so the coefficient format can change behind the
exact core without touching the rest of the package.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nilmap"
CORE = {"poly.py", "linalg.py", "analysis.py"}
STORED = {"_terms", "_den"}


def names_of_stored_form(path):
    """Line numbers where the source names `_terms` or `_den`, as an
    attribute or as a string (getattr, setattr)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in STORED)
        or (isinstance(node, ast.Constant) and node.value in STORED)
    ]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name not in CORE),
    ids=lambda path: path.name,
)
def test_only_the_exact_core_reads_the_stored_form(path):
    assert names_of_stored_form(path) == []


def test_the_core_is_where_the_stored_form_is_read():
    for name in CORE:
        assert names_of_stored_form(SRC / name), name
