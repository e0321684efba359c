"""The package depends on the Python standard library alone."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "softgamma").glob("*.py"))


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_sources_are_found():
    assert any(path.name == "soft_sets.py" for path in SOURCES)


def test_every_absolute_import_is_from_the_standard_library():
    found = [
        f"{path.name}:{lineno} {module}"
        for path in SOURCES
        for lineno, module in _absolute_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if module.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert found == [], "non-stdlib imports in softgamma: " + ", ".join(found)
