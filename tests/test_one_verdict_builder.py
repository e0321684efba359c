"""Every law check returns one document format: only harness._verdict builds a
TheoremVerdict, so each counterexample is the harness's replayable document."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "softgamma").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _builds_verdict(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    return name == "TheoremVerdict"


def test_sources_are_found():
    assert any(path.name == "harness.py" for path in SOURCES)


def test_no_module_but_the_harness_builds_a_verdict():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "harness.py"
        for node in ast.walk(_tree(path))
        if _builds_verdict(node)
    ]
    assert found == [], "TheoremVerdict built outside harness.py: " + ", ".join(found)


def test_the_harness_builds_verdicts_in_verdict_only():
    tree = _tree(next(path for path in SOURCES if path.name == "harness.py"))
    builder = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_verdict")
    lines = [node.lineno for node in ast.walk(tree) if _builds_verdict(node)]
    assert lines, "harness.py builds no TheoremVerdict"
    outside = [line for line in lines if not builder.lineno <= line <= builder.end_lineno]
    assert outside == [], f"harness.py builds a TheoremVerdict outside _verdict at lines {outside}"
