"""Runtime invariants must survive ``python -O``, which strips ``assert``."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "softgamma").glob("*.py"))


def test_sources_are_found():
    assert any(path.name == "algebra.py" for path in SOURCES)


def test_no_assert_statement_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "assert statements in softgamma (use an explicit error): " + ", ".join(found)
