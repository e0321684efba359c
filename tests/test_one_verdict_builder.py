"""Each report record has one builder: only harness._verdict builds a
TheoremVerdict, so each counterexample is the harness's replayable document,
and only algebra._report builds an AxiomReport, so every axiom report comes
from one ordered scan list.  Only algebra._closure_witness builds a closure
witness, so plain and product masks share one report order.  The harness judges product laws from the base
tables: it names no product_gamma and caches nothing on a structure's value."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "softgamma").glob("*.py"))

# (record class, module, the one function of that module that builds it)
BUILDERS = [
    ("TheoremVerdict", "harness.py", "_verdict"),
    ("AxiomReport", "algebra.py", "_report"),
]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _builds(node: ast.AST, record: str) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    return name == record


@pytest.mark.parametrize("record,module,builder", BUILDERS)
def test_sources_are_found(record, module, builder):
    assert any(path.name == module for path in SOURCES)


@pytest.mark.parametrize("record,module,builder", BUILDERS)
def test_no_other_module_builds_the_record(record, module, builder):
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != module
        for node in ast.walk(_tree(path))
        if _builds(node, record)
    ]
    assert found == [], f"{record} built outside {module}: " + ", ".join(found)


@pytest.mark.parametrize("record,module,builder", BUILDERS)
def test_the_module_builds_the_record_in_its_builder_only(record, module, builder):
    tree = _tree(next(path for path in SOURCES if path.name == module))
    body = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == builder)
    lines = [node.lineno for node in ast.walk(tree) if _builds(node, record)]
    assert lines, f"{module} builds no {record}"
    outside = [line for line in lines if not body.lineno <= line <= body.end_lineno]
    assert outside == [], f"{module} builds a {record} outside {builder} at lines {outside}"


def _harness() -> ast.Module:
    return _tree(next(path for path in SOURCES if path.name == "harness.py"))


def _names(node: ast.AST) -> set:
    """Every name and attribute name under node."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_the_harness_never_names_product_gamma():
    tree = _harness()
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "product_gamma" not in imported | _names(tree)


def test_no_harness_cache_is_keyed_on_a_structure():
    # every parameter of a cached function is annotated, and none is a GammaSemiring
    cached = [
        node
        for node in ast.walk(_harness())
        if isinstance(node, ast.FunctionDef) and any(_names(d) & {"lru_cache", "cache"} for d in node.decorator_list)
    ]
    assert cached, "the harness caches no structure at all"
    for func in cached:
        args = func.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
        assert all(p.annotation is not None for p in params), func.name
        assert not any("GammaSemiring" in ast.unparse(p.annotation) for p in params), func.name


CLOSURE_KINDS = {"add-closure", "product-closure"}


def _closure_kind_sites() -> set:
    """(module, innermost enclosing function) of every closure kind literal."""
    sites = set()

    def visit(node: ast.AST, module: str, function) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", function)
        if isinstance(node, ast.Constant) and node.value in CLOSURE_KINDS:
            sites.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in SOURCES:
        visit(_tree(path), path.name, None)
    return sites


def test_one_function_builds_every_closure_witness():
    assert _closure_kind_sites() == {("algebra.py", "_closure_witness")}
    tree = _tree(next(path for path in SOURCES if path.name == "algebra.py"))
    body = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_closure_witness")
    assert any(_builds(node, "Witness") for node in ast.walk(body))
