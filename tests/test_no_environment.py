"""The package reads no environment variable: every scope bound is a module
constant, so a run depends on its arguments and input files alone."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "softgamma").glob("*.py"))

READERS = {"environ", "environb", "getenv"}


def _environment_reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in READERS:
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in READERS:
                    yield node.lineno, alias.name


def test_sources_are_found():
    assert any(path.name == "algebra.py" for path in SOURCES)


@pytest.mark.parametrize(
    "source",
    ["import os\nos.environ.get('X')", "import os\nos.getenv('X')", "import os\nos.environb", "from os import getenv"],
)
def test_an_environment_read_is_found(source):
    assert len(list(_environment_reads(ast.parse(source)))) == 1


def test_no_module_reads_the_environment():
    found = [
        f"{path.name}:{lineno} {name}"
        for path in SOURCES
        for lineno, name in _environment_reads(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert found == [], "environment reads in softgamma (use a module constant): " + ", ".join(found)
